/// \file service_test.cpp
/// DiagnosticsService + Scheduler behaviour: request validation, run-id
/// leasing, quantified accuracy, epoch resolution and warm reuse, QC
/// residuals, the window oracle (a log executed as windows of 1, 3 and 8
/// and as one reversed window yields identical responses, captures and
/// registry counters), and the headline service-layer guarantee that
/// live-mode results -- windowed dequeues included -- equal replayed
/// results bitwise.

#include "serve/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <span>
#include <vector>

#include "common/determinism.hpp"
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

/// Aging sensors (every degradation mechanism) with a 4-day recalibration
/// cadence, so a multi-day log reaches epochs >= 1 and builds per-session
/// field recalibrations.
ServiceConfig aging_service_config() {
  ServiceConfig config = test_service_config();
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.reference_drift_V_per_day = 5.0e-4;
  aging.afe_offset_A_per_day = 1.0e-11;
  aging.storms_per_day = 0.5;
  aging.storm_current_A = 2.0e-9;
  aging.seed = 7;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;
  return config;
}

/// Bitwise digest of one capture: tenant, then every span and every op in
/// emission order.
std::uint64_t capture_digest(const obs::TelemetryCapture& capture) {
  test::BitDigest d;
  d.add_u64(static_cast<std::uint64_t>(capture.tenant));
  for (const obs::TraceEvent& e : capture.spans) {
    d.add_u64(e.key);
    d.add_u64(static_cast<std::uint64_t>(e.kind));
    d.add_u64(e.entity);
    d.add_u64(e.sequence);
    d.add_u64(e.tick);
    d.add(e.time_h);
    d.add(e.value);
  }
  d.add_u64(capture.spans.size());
  for (const obs::MetricOp& op : capture.ops) {
    d.add_u64(static_cast<std::uint64_t>(op.type));
    d.add(op.name);
    for (const std::int32_t label :
         {op.labels.tenant, op.labels.shard, op.labels.priority,
          op.labels.channel, op.labels.subscriber}) {
      d.add_u64(static_cast<std::uint64_t>(label));
    }
    d.add(op.value);
  }
  d.add_u64(capture.ops.size());
  return d.value();
}

/// Everything a window execution of a log leaves behind, per log index.
struct WindowedRun {
  std::vector<std::uint64_t> responses;
  std::vector<std::uint64_t> captures;
  RegistryStats stats;
};

/// Execute `log` on a fresh service over `store` as consecutive windows of
/// `window` requests (0 = the single-request overload), or -- `reversed`
/// -- as one window holding the whole log back to front.
WindowedRun run_windows(quant::CalibrationStore& store,
                        const std::vector<Request>& log, std::size_t window,
                        bool reversed = false) {
  DiagnosticsService service(store, aging_service_config());
  std::vector<obs::TelemetryCapture> captures(log.size());
  std::vector<Response> responses(log.size());
  if (reversed) {
    const std::vector<Request> backwards(log.rbegin(), log.rend());
    std::vector<obs::TelemetryCapture*> slots;
    for (std::size_t k = 0; k < log.size(); ++k) {
      slots.push_back(&captures[log.size() - 1 - k]);
    }
    const std::vector<Response> out = service.execute(backwards, slots);
    for (std::size_t k = 0; k < log.size(); ++k) {
      responses[log.size() - 1 - k] = out[k];
    }
  } else if (window == 0) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      responses[i] = service.execute(log[i], &captures[i]);
    }
  } else {
    for (std::size_t begin = 0; begin < log.size(); begin += window) {
      const std::size_t n = std::min(window, log.size() - begin);
      std::vector<obs::TelemetryCapture*> slots;
      for (std::size_t k = 0; k < n; ++k) slots.push_back(&captures[begin + k]);
      const std::vector<Response> out = service.execute(
          std::span<const Request>(log).subspan(begin, n), slots);
      for (std::size_t k = 0; k < n; ++k) responses[begin + k] = out[k];
    }
  }
  WindowedRun run;
  for (std::size_t i = 0; i < log.size(); ++i) {
    run.responses.push_back(test::digest_of(responses[i]));
    run.captures.push_back(capture_digest(captures[i]));
  }
  run.stats = service.sessions().stats();
  return run;
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

TEST(DiagnosticsService, WindowsMatchWindowsOfOneBitwise) {
  // The window oracle: one mixed log -- reads, panels and QC checks on
  // aging sensors across three calibration epochs -- executed one request
  // at a time, as windows of 3 and 8, and as one reversed window. Lane
  // groups form across requests (a panel's two channels, a QC check's
  // blank and standard, reads of either channel), yet every response,
  // every capture (spans and ops, in order) and the registry counters
  // must come out identical.
  quant::CalibrationStore store(test_campaign());
  std::vector<Request> log;
  {
    const DiagnosticsService planner(store, aging_service_config());
    TrafficSpec spec;
    spec.requests = 40;
    spec.sessions = 5;
    spec.seed = 17;
    spec.duration_h = 11.0 * 24.0;  // epochs 0, 1 and 2
    spec.panel_fraction = 0.3;
    spec.qc_fraction = 0.25;
    log = synthesize_traffic(spec, planner);
  }
  std::size_t kinds[3] = {0, 0, 0};
  for (const Request& r : log) ++kinds[static_cast<int>(r.kind)];
  ASSERT_GT(kinds[0], 0u) << "log has no panel scans";
  ASSERT_GT(kinds[1], 0u) << "log has no quantified reads";
  ASSERT_GT(kinds[2], 0u) << "log has no QC checks";

  const WindowedRun reference = run_windows(store, log, 0);
  EXPECT_GT(reference.stats.calibrations_built, 0u)
      << "the log never reached a field-recalibration epoch";
  const struct {
    const char* name;
    WindowedRun run;
  } variants[] = {
      {"windows of 1", run_windows(store, log, 1)},
      {"windows of 3", run_windows(store, log, 3)},
      {"windows of 8", run_windows(store, log, 8)},
      {"one reversed window", run_windows(store, log, 0, true)},
  };
  for (const auto& [name, run] : variants) {
    for (std::size_t i = 0; i < log.size(); ++i) {
      EXPECT_EQ(run.responses[i], reference.responses[i])
          << name << ": response " << i << " diverges";
      EXPECT_EQ(run.captures[i], reference.captures[i])
          << name << ": capture " << i << " diverges";
    }
    EXPECT_EQ(run.stats.sessions, reference.stats.sessions) << name;
    EXPECT_EQ(run.stats.requests, reference.stats.requests) << name;
    EXPECT_EQ(run.stats.warm_hits, reference.stats.warm_hits) << name;
    EXPECT_EQ(run.stats.calibrations_built,
              reference.stats.calibrations_built)
        << name;
  }
}

TEST(DiagnosticsService, WindowValidatesEveryRequestBeforeMeasuring) {
  // A malformed request anywhere in a window rejects the whole window
  // before anything is counted: the registry never sees its neighbours.
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, test_service_config());
  const std::vector<Request> window = {
      read_request(0, 0, 1.0), read_request(1, 1, 1.0),
      read_request(2, /*channel=*/7, 1.0), read_request(3, 0, 1.0)};
  EXPECT_THROW((void)service.execute(window, {}), std::invalid_argument);
  EXPECT_EQ(service.sessions().stats().requests, 0u);
  std::vector<obs::TelemetryCapture*> too_few(1, nullptr);
  EXPECT_THROW((void)service.execute(std::span<const Request>(window).first(2),
                                     too_few),
               std::invalid_argument);
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

TEST(Scheduler, PrefilledQueueFormsWindowsThatMatchReplay) {
  // A backlog deeper than the worker count dispatches in windows (the
  // depth rule gives a worker 1 + min(7, floor((class depth - 1) / 2))
  // requests of one priority class, and this log is ~75% routine), and
  // windowed live serving still equals replay bitwise. A window's requests
  // share one service time -- the window's wall time -- which is how the
  // sink sees that windows formed.
  quant::CalibrationStore store(test_campaign());
  DiagnosticsService service(store, aging_service_config());
  TrafficSpec spec;
  spec.requests = 24;
  spec.sessions = 6;
  spec.seed = 5;
  spec.duration_h = 9.0 * 24.0;
  const std::vector<Request> log = synthesize_traffic(spec, service);

  Scheduler scheduler(service, SchedulerConfig{.queue = {.capacity = 64},
                                               .workers = 2});
  const std::vector<Response> replayed = scheduler.replay(log, 1);

  class Recorder final : public ResultSink {
   public:
    void on_response(const Response& r) override {
      const std::lock_guard<std::mutex> lock(mutex);
      responses.push_back(r);
    }
    void on_telemetry(const RequestTelemetry& t) override {
      const std::lock_guard<std::mutex> lock(mutex);
      service_times.push_back(t.service_time_s);
    }
    void close() override {}
    std::mutex mutex;
    std::vector<Response> responses;
    std::vector<double> service_times;
  } recorder;

  for (const Request& r : log) {
    ASSERT_EQ(scheduler.submit(r), Admission::kAccepted);
  }
  scheduler.start(&recorder);
  scheduler.drain_and_stop();
  ASSERT_EQ(recorder.responses.size(), log.size());

  std::sort(recorder.service_times.begin(), recorder.service_times.end());
  const bool shared =
      std::adjacent_find(recorder.service_times.begin(),
                         recorder.service_times.end()) !=
      recorder.service_times.end();
  EXPECT_TRUE(shared) << "no two requests shared a window";

  std::sort(recorder.responses.begin(), recorder.responses.end(),
            [](const Response& a, const Response& b) {
              return a.request_id < b.request_id;
            });
  for (std::size_t i = 0; i < log.size(); ++i) {
    EXPECT_EQ(test::digest_of(recorder.responses[i]),
              test::digest_of(replayed[i]))
        << "request " << i;
  }
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
