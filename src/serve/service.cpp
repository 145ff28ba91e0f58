/// \file service.cpp
/// DiagnosticsService implementation: run-id leasing, epoch resolution,
/// warm recalibration campaigns and the windowed plan / measure / finish
/// execution path.

#include "serve/service.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/error.hpp"

namespace idp::serve {

namespace {

sim::EngineConfig service_engine_config(std::uint64_t seed) {
  sim::EngineConfig config;
  config.seed = seed;
  return config;
}

}  // namespace

DiagnosticsService::DiagnosticsService(quant::CalibrationStore& store,
                                       ServiceConfig config)
    : store_(store),
      config_(std::move(config)),
      engine_(service_engine_config(config_.engine_seed)),
      registry_(config_.registry_shards) {
  util::require(!config_.panel.empty(), "service needs at least one channel");
  util::require(config_.panel.size() <= kMaxServeChannels,
                "panel exceeds the serve channel packing");
  util::require(
      config_.run_ids_per_request >= std::max<std::size_t>(
                                         config_.panel.size(), 2),
      "run-id lease too small for the widest request kind");
  util::require(config_.qc_fraction > 0.0 && config_.qc_fraction < 1.0,
                "qc_fraction must sit inside the calibrated window");
  util::require(config_.recalibration_interval_days >= 0.0,
                "recalibration interval must be >= 0");

  // Resolve protocols, factory quantifiers and prototype probes up front
  // (building any missing campaign now, which also builds the prototype),
  // so execute() never touches the store's mutable cache path.
  protocols_.reserve(config_.panel.size());
  factory_.reserve(config_.panel.size());
  prototypes_.reserve(config_.panel.size());
  for (bio::TargetId target : config_.panel) {
    protocols_.push_back(quant::default_protocol_for(store_.config(), target));
    factory_.push_back(&store_.quantifier(target, protocols_.back()));
    prototypes_.push_back(&store_.prototype(target));
  }
}

bio::TargetId DiagnosticsService::target(std::size_t channel) const {
  util::require(channel < config_.panel.size(), "channel out of range");
  return config_.panel[channel];
}

std::pair<double, double> DiagnosticsService::calibrated_range_mM(
    std::size_t channel) const {
  util::require(channel < factory_.size(), "channel out of range");
  return {factory_[channel]->c_low(), factory_[channel]->c_high()};
}

std::uint64_t DiagnosticsService::lease_base(std::uint64_t request_id) const {
  // The serve domain spans [2^42, 2^43); a request id large enough to walk
  // into the recalibration domain is a caller mistake.
  util::require(request_id <
                    (kServeRecalDomain - kServeRunDomain) /
                        config_.run_ids_per_request,
                "request id exceeds the serve run-id domain");
  return kServeRunDomain + request_id * config_.run_ids_per_request;
}

std::uint32_t DiagnosticsService::epoch_for(double sensor_age_days) const {
  if (config_.recalibration_interval_days <= 0.0) return 0;
  const double epochs =
      std::floor(sensor_age_days / config_.recalibration_interval_days);
  return static_cast<std::uint32_t>(
      std::min(epochs, static_cast<double>(kServeEpochSlots - 1)));
}

const quant::Quantifier& DiagnosticsService::quantifier_for(
    Session& session, std::uint32_t channel, std::uint32_t epoch,
    obs::TelemetryCapture* capture) {
  if (epoch == 0) return *factory_[channel];
  const double boundary_age =
      static_cast<double>(epoch) * config_.recalibration_interval_days;
  // The campaign block is a pure function of (session, channel, epoch) --
  // computed here (not in the builder) so the kRecalibration span can emit
  // for every request on the epoch, not just the cache-building winner.
  const std::uint64_t block =
      kServeRecalDomain +
      (((session.site_id() % kServeSessionSlots) * kMaxServeChannels +
        channel) *
           kServeEpochSlots +
       epoch) *
          quant::CalibrationStore::kRunsPerCampaignBlock;
  const quant::Quantifier& quantifier =
      session
          .epoch_calibration(
              channel, epoch,
              [&]() -> quant::Calibration {
                // Field recalibration at the epoch boundary: rerun the
                // campaign on this session's sensor in the state it had at
                // age epoch * cadence, from the run-id block owned by
                // (session slot, channel, epoch) in the 2^43 domain.
                const fault::SensorState sensor = config_.degradation.state_at(
                    boundary_age,
                    fault::SensorSite{session.site_id(), channel});
                return store_.recalibrate(config_.panel[channel],
                                          protocols_[channel], sensor, block);
              })
          .quantifier;
  // Campaign-active + epoch-swap spans, emitted by EVERY request that uses
  // the epoch: each field is a pure function of (session, channel, epoch),
  // so re-emissions are exact duplicates that collapse in sorted() -- and
  // each request's capture carries them regardless of which request's
  // builder won the warm-cache race (no metrics counter for builds for the
  // same reason: a *count* would depend on the race).
  if (capture != nullptr) {
    capture->span(session.site_id(), obs::SpanKind::kRecalibration, channel,
                  epoch, 0, boundary_age * 24.0, static_cast<double>(block));
    capture->span(session.site_id(), obs::SpanKind::kEpochSwap, channel,
                  epoch, 0, boundary_age * 24.0, static_cast<double>(epoch));
  }
  return quantifier;
}

void DiagnosticsService::measure(std::span<PlannedRun> runs) const {
  // Every measurement owns a pristine clone of the channel's never-measured
  // prototype and a front end seeded from its leased run id: that is what
  // buys order-independence (persistent probes/front ends would carry
  // noise and chemistry state from whichever request ran before), and it
  // is also why lane membership cannot leak into a result.
  const std::size_t n = runs.size();
  std::vector<bio::ProbePtr> probes(n);
  std::vector<afe::AnalogFrontEnd> frontends;
  frontends.reserve(n);  // stable addresses for the batch
  std::vector<sim::Measurement> batch(n);
  for (std::size_t i = 0; i < n; ++i) {
    const PlannedRun& run = runs[i];
    probes[i] = prototypes_[run.channel]->clone();
    probes[i]->set_bulk_concentration(
        bio::to_string(config_.panel[run.channel]), run.concentration_mM);
    afe::AnalogFrontEnd& frontend =
        frontends.emplace_back(quant::campaign_frontend_config(
            store_.config(), config_.engine_seed + kServeFrontendSeedDomain +
                                 run.run_id * kServeSeedStride));
    batch[i] = sim::Measurement{
        run.run_id,
        sim::Channel{probes[i].get(), nullptr,
                     config_.degradation.state_at(
                         run.age_days, fault::SensorSite{run.site, run.channel})},
        protocols_[run.channel], &frontend};
  }
  const std::vector<sim::Readout> readouts = engine_.execute(batch);
  for (std::size_t i = 0; i < n; ++i) {
    runs[i].response = quant::panel_response(config_.panel[runs[i].channel],
                                             readouts[i].amperogram,
                                             readouts[i].voltammogram);
  }
}

ChannelResult DiagnosticsService::quantify(Session& session,
                                           std::uint32_t channel,
                                           std::uint32_t epoch,
                                           double truth_mM, double response,
                                           obs::TelemetryCapture* capture) {
  ChannelResult result;
  result.channel = channel;
  result.target = config_.panel[channel];
  result.truth_mM = truth_mM;
  result.response = response;
  result.estimate =
      quantifier_for(session, channel, epoch, capture).quantify(response);
  return result;
}

void DiagnosticsService::note_run(const Request& request,
                                  std::uint32_t channel,
                                  std::uint64_t sequence,
                                  std::uint64_t run_id,
                                  obs::TelemetryCapture* capture) {
  if (capture == nullptr) return;
  obs::MetricLabels labels;
  labels.tenant = static_cast<std::int32_t>(request.session.tenant);
  labels.channel = static_cast<std::int32_t>(channel);
  capture->span(request.id, obs::SpanKind::kExecution, channel, sequence, 0,
                request.time_h, static_cast<double>(run_id));
  capture->count(request.kind == RequestKind::kQcCheck
                     ? "serve.service.qc_runs"
                     : "serve.service.channel_reads",
                 labels);
}

void DiagnosticsService::note_estimate(const Request& request,
                                       std::uint32_t channel,
                                       double estimate_mM,
                                       obs::TelemetryCapture* capture) {
  if (capture == nullptr) return;
  obs::MetricLabels labels;
  labels.tenant = static_cast<std::int32_t>(request.session.tenant);
  labels.channel = static_cast<std::int32_t>(channel);
  capture->observe("serve.service.estimate_mM", labels, estimate_mM);
}

void DiagnosticsService::validate(const Request& request) const {
  const std::size_t n_channels = config_.panel.size();
  switch (request.kind) {
    case RequestKind::kPanelScan:
      util::require(request.concentrations_mM.size() == n_channels,
                    "panel scan needs one concentration per channel");
      break;
    case RequestKind::kQuantifiedRead:
      util::require(request.concentrations_mM.size() == 1,
                    "quantified read carries exactly one concentration");
      util::require(request.channel < n_channels, "channel out of range");
      break;
    case RequestKind::kQcCheck:
      util::require(request.concentrations_mM.empty(),
                    "QC levels are service configuration, not request content");
      util::require(request.channel < n_channels, "channel out of range");
      break;
  }
  // std::max(0.0, NaN) is 0.0: a non-finite instant would silently become
  // a day-0 request, so it is rejected here instead.
  util::require(std::isfinite(request.time_h), "time_h must be finite");
  for (const double mM : request.concentrations_mM) {
    util::require(std::isfinite(mM) && mM >= 0.0,
                  "concentrations must be finite and non-negative");
  }
  (void)lease_base(request.id);  // throws past the serve run-id domain
}

namespace {

/// Phase-1 resolution of one request of a window.
struct RequestPlan {
  Session* session = nullptr;
  double age_days = 0.0;
  std::uint32_t epoch = 0;
  std::uint64_t lease = 0;
  std::size_t first_run = 0;  ///< index of its first planned run
  /// QC checks: the active quantifier and the standard level it implies.
  const quant::Quantifier* qc_quantifier = nullptr;
  double qc_mM = 0.0;
};

}  // namespace

std::vector<Response> DiagnosticsService::execute(
    std::span<const Request> window,
    std::span<obs::TelemetryCapture* const> captures) {
  util::require(captures.empty() || captures.size() == window.size(),
                "one capture slot per request (or none)");
  for (const Request& request : window) validate(request);
  const auto capture_of = [&](std::size_t i) {
    return captures.empty() ? nullptr : captures[i];
  };
  const auto n_channels = static_cast<std::uint32_t>(config_.panel.size());

  // Phase 1: plan. Each request's capture receives its first ops here, in
  // the order a window of one emits them.
  std::vector<RequestPlan> plans(window.size());
  std::vector<PlannedRun> runs;
  for (std::size_t i = 0; i < window.size(); ++i) {
    const Request& request = window[i];
    obs::TelemetryCapture* capture = capture_of(i);
    RequestPlan& plan = plans[i];
    plan.session = &registry_.get_or_create(request.session);
    plan.session->note_request();
    plan.age_days =
        std::max(0.0, (request.time_h - config_.sensor_install_h) / 24.0);
    plan.epoch = epoch_for(plan.age_days);
    plan.lease = lease_base(request.id);
    plan.first_run = runs.size();

    if (capture != nullptr) {
      obs::MetricLabels labels;
      labels.tenant = static_cast<std::int32_t>(request.session.tenant);
      labels.priority = static_cast<std::int32_t>(request.priority);
      capture->tenant = labels.tenant;
      capture->span(request.id, obs::SpanKind::kLeaseGrant, plan.lease, 0, 0,
                    request.time_h, static_cast<double>(plan.epoch));
      capture->count("serve.service.requests", labels);
    }

    const std::uint64_t site = plan.session->site_id();
    switch (request.kind) {
      case RequestKind::kPanelScan:
        for (std::uint32_t c = 0; c < n_channels; ++c) {
          runs.push_back({c, site, plan.age_days,
                          request.concentrations_mM[c], plan.lease + c});
        }
        break;
      case RequestKind::kQuantifiedRead:
        runs.push_back({request.channel, site, plan.age_days,
                        request.concentrations_mM[0], plan.lease});
        break;
      case RequestKind::kQcCheck: {
        // A blank and the channel's known standard through the aged
        // sensor; the standard level comes from the active calibration.
        const quant::Quantifier& quantifier =
            quantifier_for(*plan.session, request.channel, plan.epoch, capture);
        plan.qc_quantifier = &quantifier;
        plan.qc_mM = quantifier.c_low() + config_.qc_fraction *
                                              (quantifier.c_high() -
                                               quantifier.c_low());
        runs.push_back(
            {request.channel, site, plan.age_days, 0.0, plan.lease});
        runs.push_back(
            {request.channel, site, plan.age_days, plan.qc_mM, plan.lease + 1});
        break;
      }
    }
  }

  // Phase 2: measure the whole window.
  measure(runs);

  // Phase 3: quantify and emit per request.
  std::vector<Response> responses(window.size());
  for (std::size_t i = 0; i < window.size(); ++i) {
    const Request& request = window[i];
    const RequestPlan& plan = plans[i];
    obs::TelemetryCapture* capture = capture_of(i);
    Session& session = *plan.session;
    const PlannedRun* run = runs.data() + plan.first_run;

    Response& response = responses[i];
    response.request_id = request.id;
    response.session = request.session;
    response.priority = request.priority;
    response.kind = request.kind;
    response.time_h = request.time_h;
    response.sensor_age_days = plan.age_days;
    response.calibration_epoch = plan.epoch;

    switch (request.kind) {
      case RequestKind::kPanelScan: {
        response.channels.reserve(n_channels);
        for (std::uint32_t c = 0; c < n_channels; ++c) {
          response.channels.push_back(quantify(session, c, plan.epoch,
                                               request.concentrations_mM[c],
                                               run[c].response, capture));
          note_run(request, c, c, plan.lease + c, capture);
          note_estimate(request, c, response.channels.back().estimate.value,
                        capture);
        }
        break;
      }
      case RequestKind::kQuantifiedRead: {
        response.channels.push_back(quantify(session, request.channel,
                                             plan.epoch,
                                             request.concentrations_mM[0],
                                             run[0].response, capture));
        note_run(request, request.channel, 0, plan.lease, capture);
        note_estimate(request, request.channel,
                      response.channels.back().estimate.value, capture);
        break;
      }
      case RequestKind::kQcCheck: {
        // Both readings standardised against the active calibration's
        // prediction -- the service-layer counterpart of the scenario QC
        // loop.
        const quant::Quantifier& quantifier = *plan.qc_quantifier;
        const double sigma = std::max(quantifier.response_sigma(), 1e-15);
        response.qc_blank_residual =
            (run[0].response - quantifier.blank_mean()) / sigma;
        ChannelResult standard =
            quantify(session, request.channel, plan.epoch, plan.qc_mM,
                     run[1].response, capture);
        response.qc_standard_residual =
            (standard.response -
             util::evaluate(quantifier.fit(), plan.qc_mM)) /
            sigma;
        const double standard_estimate = standard.estimate.value;
        response.channels.push_back(std::move(standard));
        note_run(request, request.channel, 0, plan.lease, capture);  // blank
        note_run(request, request.channel, 1, plan.lease + 1,
                 capture);  // standard
        note_estimate(request, request.channel, standard_estimate, capture);
        break;
      }
    }
  }
  return responses;
}

Response DiagnosticsService::execute(const Request& request,
                                     obs::TelemetryCapture* capture) {
  return std::move(execute(std::span<const Request>(&request, 1),
                           std::span<obs::TelemetryCapture* const>(&capture, 1))
                       .front());
}

}  // namespace idp::serve
