/// \file service_test.cpp
/// DiagnosticsService + Scheduler behaviour: request validation, run-id
/// leasing, quantified accuracy, epoch resolution and warm reuse, QC
/// residuals, and the headline service-layer guarantee that live-mode
/// results equal replayed results bitwise.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "serve/result_sink.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"

namespace idp::serve {
namespace {

quant::CampaignConfig test_campaign() {
  quant::CampaignConfig config;
  config.calibration_points = 4;
  config.blank_measurements = 4;
  // Short enough to keep the suite fast, long enough that the tail-window
  // response has developed (at ~4 s the oxidase currents are still tiny
  // and sigma/slope approaches the calibrated window itself).
  config.ca_duration_s = 10.0;
  return config;
}

ServiceConfig test_service_config() {
  ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = 99;
  return config;
}

Request read_request(std::uint64_t id, std::uint32_t channel, double mM,
                     double time_h = 0.0) {
  Request r;
  r.id = id;
  r.kind = RequestKind::kQuantifiedRead;
  r.channel = channel;
  r.concentrations_mM = {mM};
  r.time_h = time_h;
  r.session = SessionKey{1, 10, 0};
  return r;
}

bool bitwise_equal(const Response& a, const Response& b) {
  if (a.request_id != b.request_id || a.calibration_epoch != b.calibration_epoch ||
      a.channels.size() != b.channels.size()) {
    return false;
  }
  for (std::size_t c = 0; c < a.channels.size(); ++c) {
    const ChannelResult& x = a.channels[c];
    const ChannelResult& y = b.channels[c];
    if (x.response != y.response || x.estimate.value != y.estimate.value ||
        x.estimate.ci_low != y.estimate.ci_low ||
        x.estimate.ci_high != y.estimate.ci_high ||
        x.estimate.flags != y.estimate.flags) {
      return false;
    }
  }
  return a.qc_blank_residual == b.qc_blank_residual &&
         a.qc_standard_residual == b.qc_standard_residual;
}

TEST(DiagnosticsService, ValidatesConfiguration) {
  quant::CalibrationStore store(test_campaign());
  ServiceConfig empty;
  EXPECT_THROW(DiagnosticsService(store, empty), std::invalid_argument);

  ServiceConfig tiny_lease = test_service_config();
  tiny_lease.run_ids_per_request = 1;  // < QC's 2 runs
  EXPECT_THROW(DiagnosticsService(store, tiny_lease), std::invalid_argument);

  ServiceConfig bad_qc = test_service_config();
  bad_qc.qc_fraction = 1.5;
  EXPECT_THROW(DiagnosticsService(store, bad_qc), std::invalid_argument);
}

TEST(DiagnosticsService, ValidatesRequestShape) {
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, test_service_config());

  Request panel;
  panel.kind = RequestKind::kPanelScan;
  panel.concentrations_mM = {1.0};  // needs one per channel
  Request qc;
  qc.kind = RequestKind::kQcCheck;
  qc.concentrations_mM = {1.0};  // QC levels are config, not content
  // Non-finite instants and concentrations must never be clamped into a
  // plausible request (std::max(0.0, NaN) would make NaN a day-0 read).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Request> malformed = {
      panel,
      read_request(0, /*channel=*/5, 1.0),  // channel out of range
      qc,
      read_request(1, 0, 1.0, /*time_h=*/nan),
      read_request(2, 0, 1.0, /*time_h=*/inf),
      read_request(3, 0, 1.0, /*time_h=*/-inf),
      read_request(4, 0, nan),
      read_request(5, 0, inf),
      read_request(6, 0, -0.5),
      read_request(1ULL << 42, 0, 1.0),  // id past the serve run-id domain
  };
  for (const Request& bad : malformed) {
    EXPECT_THROW(service.execute(bad, nullptr), std::invalid_argument)
        << "request " << bad.id;
    Scheduler replayer(service);
    EXPECT_THROW(replayer.replay(std::span<const Request>(&bad, 1), 1),
                 std::invalid_argument)
        << "request " << bad.id;
  }

  // Live admission rejects in the caller: on a worker the exception would
  // escape std::thread and terminate the process. Nothing reaches the
  // queue, and the scheduler keeps serving.
  Scheduler live(service, SchedulerConfig{.queue = {.capacity = 8},
                                          .workers = 1});
  live.start();
  for (const Request& bad : malformed) {
    EXPECT_THROW(live.submit(bad), std::invalid_argument)
        << "request " << bad.id;
  }
  EXPECT_THROW(live.submit_wait(malformed[3]), std::invalid_argument);
  EXPECT_THROW(
      live.submit_wait_for(malformed[3], std::chrono::milliseconds(1)),
      std::invalid_argument);
  EXPECT_EQ(live.queue_stats().offered, 0u);
  ASSERT_EQ(live.submit_wait(read_request(7, 0, 1.0)), Admission::kAccepted);
  live.drain_and_stop();
  EXPECT_EQ(live.completed(), 1u);
}

TEST(DiagnosticsService, LeasesAreDisjointPerRequest) {
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, test_service_config());
  const std::uint64_t stride = service.config().run_ids_per_request;
  EXPECT_EQ(service.lease_base(0), kServeRunDomain);
  EXPECT_EQ(service.lease_base(1) - service.lease_base(0), stride);
  EXPECT_GE(service.lease_base(0), 1ULL << 42);
  EXPECT_LT(service.lease_base(1000000), kServeRecalDomain);
  // An id whose lease would spill into the recalibration domain rejects.
  EXPECT_THROW(service.lease_base((1ULL << 42)), std::invalid_argument);
}

TEST(DiagnosticsService, QuantifiedReadRecoversTruthWithinCi) {
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, test_service_config());
  const auto [lo, hi] = service.calibrated_range_mM(0);
  const double truth = lo + 0.5 * (hi - lo);
  const Response response =
      service.execute(read_request(0, 0, truth), nullptr);
  ASSERT_EQ(response.channels.size(), 1u);
  EXPECT_EQ(response.channels[0].target, bio::TargetId::kGlucose);
  EXPECT_TRUE(response.channels[0].estimate.ok());
  EXPECT_LE(response.channels[0].estimate.ci_low, truth);
  EXPECT_GE(response.channels[0].estimate.ci_high, truth);
  EXPECT_NEAR(response.channels[0].estimate.value, truth,
              0.25 * (hi - lo));
}

TEST(DiagnosticsService, PanelScanMeasuresEveryChannel) {
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, test_service_config());
  Request panel;
  panel.id = 3;
  panel.kind = RequestKind::kPanelScan;
  panel.session = SessionKey{0, 2, 0};
  const auto [glo, ghi] = service.calibrated_range_mM(0);
  const auto [llo, lhi] = service.calibrated_range_mM(1);
  panel.concentrations_mM = {0.5 * (glo + ghi), 0.5 * (llo + lhi)};
  const Response response = service.execute(panel, nullptr);
  ASSERT_EQ(response.channels.size(), 2u);
  EXPECT_EQ(response.channels[0].target, bio::TargetId::kGlucose);
  EXPECT_EQ(response.channels[1].target, bio::TargetId::kLactate);
  for (const ChannelResult& c : response.channels) {
    EXPECT_TRUE(c.estimate.ok()) << bio::to_string(c.target);
  }
}

TEST(DiagnosticsService, QcCheckOnPristineSensorHasSmallResiduals) {
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, test_service_config());
  Request qc;
  qc.id = 1;
  qc.kind = RequestKind::kQcCheck;
  qc.channel = 0;
  qc.session = SessionKey{0, 3, 0};
  const Response response = service.execute(qc, nullptr);
  // Standardised residuals of a pristine sensor against its own factory
  // calibration: a few sigma at most.
  EXPECT_LT(std::abs(response.qc_blank_residual), 6.0);
  EXPECT_LT(std::abs(response.qc_standard_residual), 6.0);
  ASSERT_EQ(response.channels.size(), 1u);  // the standard read
}

TEST(DiagnosticsService, RepeatedRequestsReuseWarmSessionState) {
  quant::CalibrationStore store(test_campaign());
  ServiceConfig config = test_service_config();
  config.recalibration_interval_days = 5.0;
  DiagnosticsService service(store, config);
  const auto [lo, hi] = service.calibrated_range_mM(0);
  const double mM = 0.5 * (lo + hi);

  // Two requests beyond the first epoch boundary: the first builds the
  // epoch-1 recalibration, the second reuses it warm.
  (void)service.execute(read_request(0, 0, mM, /*time_h=*/6.0 * 24.0),
                        nullptr);
  (void)service.execute(read_request(1, 0, mM, /*time_h=*/7.0 * 24.0),
                        nullptr);
  const RegistryStats stats = service.sessions().stats();
  EXPECT_EQ(stats.sessions, 1u);
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.calibrations_built, 1u);
  EXPECT_EQ(stats.warm_hits, 1u);
}

TEST(DiagnosticsService, EpochResolvesFromSensorAge) {
  quant::CalibrationStore store(test_campaign());
  ServiceConfig config = test_service_config();
  config.recalibration_interval_days = 7.0;
  DiagnosticsService service(store, config);
  EXPECT_EQ(service.epoch_for(0.0), 0u);
  EXPECT_EQ(service.epoch_for(6.9), 0u);
  EXPECT_EQ(service.epoch_for(7.0), 1u);
  EXPECT_EQ(service.epoch_for(20.9), 2u);
  EXPECT_EQ(service.epoch_for(1e6), kServeEpochSlots - 1);  // clamped

  const Response day0 =
      service.execute(read_request(0, 0, 1.0, 0.0), nullptr);
  const Response day8 =
      service.execute(read_request(1, 0, 1.0, 8.0 * 24.0), nullptr);
  EXPECT_EQ(day0.calibration_epoch, 0u);
  EXPECT_EQ(day8.calibration_epoch, 1u);
}

TEST(DiagnosticsService, ExecuteIsPureInTheReplaySense) {
  // Same request, same service configuration, fresh service objects: the
  // response payload is bitwise identical -- and independent of what other
  // requests ran in between.
  quant::CampaignConfig campaign = test_campaign();
  const Request request = read_request(11, 1, 1.1);
  Response first, second;
  {
    quant::CalibrationStore store(campaign);
    DiagnosticsService service(store, test_service_config());
    first = service.execute(request, nullptr);
  }
  {
    quant::CalibrationStore store(campaign);
    DiagnosticsService service(store, test_service_config());
    // Interleave unrelated traffic before the request this time.
    (void)service.execute(read_request(5, 0, 2.0), nullptr);
    (void)service.execute(read_request(6, 1, 0.9), nullptr);
    second = service.execute(request, nullptr);
  }
  EXPECT_TRUE(bitwise_equal(first, second));
}

TEST(Scheduler, LiveModeMatchesReplayBitwise) {
  quant::CalibrationStore store(test_campaign());
  ServiceConfig config = test_service_config();
  config.degradation = fault::DegradationModel([] {
    fault::DegradationParams aging;
    aging.fouling_rate_per_day = 0.05;
    aging.enzyme_decay_per_day = 0.02;
    aging.seed = 7;
    return aging;
  }());
  config.recalibration_interval_days = 4.0;
  DiagnosticsService service(store, config);

  TrafficSpec spec;
  spec.requests = 24;
  spec.sessions = 6;
  spec.seed = 3;
  spec.duration_h = 10.0 * 24.0;  // spans two epoch boundaries
  const std::vector<Request> log = synthesize_traffic(spec, service);

  Scheduler scheduler(service, SchedulerConfig{.queue = {.capacity = 64},
                                               .workers = 4});
  const std::vector<Response> replayed = scheduler.replay(log, 2);

  class Collector final : public ResultSink {
   public:
    void on_response(const Response& r) override {
      const std::lock_guard<std::mutex> lock(mutex_);
      responses_.push_back(r);
    }
    void on_telemetry(const RequestTelemetry&) override {}
    void close() override {}
    std::vector<Response> sorted() {
      std::sort(responses_.begin(), responses_.end(),
                [](const Response& a, const Response& b) {
                  return a.request_id < b.request_id;
                });
      return responses_;
    }

   private:
    std::mutex mutex_;
    std::vector<Response> responses_;
  } collector;

  obs::MetricsRegistry metrics;
  scheduler.attach({.metrics = &metrics});
  scheduler.start(&collector);
  for (const Request& r : log) {
    ASSERT_EQ(scheduler.submit_wait(r), Admission::kAccepted);
  }
  scheduler.drain_and_stop();
  EXPECT_EQ(scheduler.completed(), log.size());

  const std::vector<Response> live = collector.sorted();
  ASSERT_EQ(live.size(), replayed.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(live[i], replayed[i])) << "request " << i;
  }

  // The attached registry accounted every request under its priority
  // class, with one latency observation per completion.
  const obs::MetricsSnapshot snap = metrics.snapshot();
  double accounted = 0.0;
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    obs::MetricLabels labels;
    labels.priority = static_cast<std::int32_t>(p);
    const obs::MetricSample* completed =
        snap.find("serve.scheduler.completed", labels);
    if (completed == nullptr) continue;  // no traffic in this class
    accounted += completed->value;
    EXPECT_EQ(snap.value("serve.scheduler.queue_wait_s", labels),
              completed->value);
    EXPECT_EQ(snap.value("serve.scheduler.service_time_s", labels),
              completed->value);
  }
  EXPECT_EQ(accounted, static_cast<double>(log.size()));
}

TEST(Scheduler, LiveModeIsOneShot) {
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, test_service_config());
  Scheduler scheduler(service, SchedulerConfig{.queue = {.capacity = 8},
                                               .workers = 1});
  scheduler.start();
  scheduler.drain_and_stop();
  // The queue closed permanently; a silent restart would look up but
  // serve nothing, so it throws instead.
  EXPECT_THROW(scheduler.start(), std::invalid_argument);
  // Replay mode stays available on the same scheduler.
  const std::vector<Request> log = {read_request(0, 0, 1.0)};
  EXPECT_EQ(scheduler.replay(log, 1).size(), 1u);
}

TEST(Scheduler, ReplayParallelismLevelsAgree) {
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, test_service_config());
  TrafficSpec spec;
  spec.requests = 12;
  spec.sessions = 4;
  const std::vector<Request> log = synthesize_traffic(spec, service);
  Scheduler scheduler(service);
  const std::vector<Response> sequential = scheduler.replay(log, 1);
  const std::vector<Response> parallel = scheduler.replay(log, 0);
  ASSERT_EQ(sequential.size(), parallel.size());
  for (std::size_t i = 0; i < sequential.size(); ++i) {
    EXPECT_TRUE(bitwise_equal(sequential[i], parallel[i])) << "request " << i;
  }
}

}  // namespace
}  // namespace idp::serve
