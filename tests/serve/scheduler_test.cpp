/// \file scheduler_test.cpp
/// Direct coverage of serve/scheduler: the attached registry accounts for
/// every live completion per priority (counter + both latency
/// histograms), live-mode CSV output is byte identical to the replay of
/// the same log, and the lifecycle edges (drain_and_stop idempotent,
/// restart-after-drain throws, empty replay).

#include "serve/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "quant/calibration_store.hpp"
#include "serve/traffic.hpp"

namespace idp::serve {
namespace {

quant::CalibrationStore& shared_store() {
  static quant::CalibrationStore store = [] {
    quant::CampaignConfig campaign;
    campaign.seed = 424242;
    campaign.calibration_points = 4;
    campaign.blank_measurements = 4;
    campaign.ca_duration_s = 6.0;
    return quant::CalibrationStore(campaign);
  }();
  return store;
}

ServiceConfig service_config() {
  ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = 99;
  return config;
}

std::vector<Request> traffic_log(DiagnosticsService& service,
                                 std::size_t requests = 18) {
  TrafficSpec traffic;
  traffic.requests = requests;
  traffic.sessions = 4;
  traffic.seed = 23;
  traffic.duration_h = 48.0;
  return synthesize_traffic(traffic, service);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(Scheduler, TelemetryAccountsEveryCompletionPerPriority) {
  DiagnosticsService service(shared_store(), service_config());
  const std::vector<Request> log = traffic_log(service);

  SchedulerConfig config;
  config.workers = 3;
  Scheduler scheduler(service, config);
  obs::MetricsRegistry metrics;
  scheduler.attach({.metrics = &metrics});
  scheduler.start();
  std::array<std::uint64_t, kPriorityCount> expected{};
  for (const Request& r : log) {
    ASSERT_EQ(scheduler.submit_wait(r), Admission::kAccepted);
    ++expected[static_cast<std::size_t>(r.priority)];
  }
  scheduler.drain_and_stop();

  EXPECT_EQ(scheduler.completed(), log.size());
  scheduler.publish_metrics(metrics);  // sets the counters it already folded
  const obs::MetricsSnapshot snap = metrics.snapshot();
  double total = 0.0;
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    obs::MetricLabels labels;
    labels.priority = static_cast<std::int32_t>(p);
    const auto n = static_cast<double>(expected[p]);
    EXPECT_EQ(snap.value("serve.scheduler.completed", labels), n)
        << "priority class " << p << " lost completions";
    if (expected[p] == 0) continue;  // no histogram for an idle class
    EXPECT_EQ(snap.value("serve.scheduler.queue_wait_s", labels), n);
    EXPECT_EQ(snap.value("serve.scheduler.service_time_s", labels), n);
    total += snap.value("serve.scheduler.completed", labels);
  }
  EXPECT_EQ(total, static_cast<double>(log.size()));
}

TEST(Scheduler, LiveCsvOutputIsByteIdenticalToReplay) {
  DiagnosticsService replay_service(shared_store(), service_config());
  const std::vector<Request> log = traffic_log(replay_service);
  Scheduler replayer(replay_service);
  const std::vector<Response> replayed = replayer.replay(log, 1);
  const std::string dir = ::testing::TempDir();
  const std::string canonical = dir + "/sched_replay.csv";
  write_responses_csv(replayed, canonical);

  // Live serving with concurrent workers: the buffered sink must still
  // write the identical canonical file.
  DiagnosticsService live_service(shared_store(), service_config());
  const std::string live_path = dir + "/sched_live.csv";
  CsvResultSink sink(live_path, dir + "/sched_live_telemetry.csv");
  Scheduler scheduler(live_service, SchedulerConfig{.queue = {}, .workers = 4});
  scheduler.start(&sink);
  for (const Request& r : log) {
    ASSERT_EQ(scheduler.submit_wait(r), Admission::kAccepted);
  }
  scheduler.drain_and_stop();
  EXPECT_EQ(slurp(live_path), slurp(canonical))
      << "live scheduling leaked into the deterministic response payload";
}

TEST(Scheduler, DrainAndStopIsIdempotentAndRestartThrows) {
  DiagnosticsService service(shared_store(), service_config());
  Scheduler scheduler(service, SchedulerConfig{.queue = {}, .workers = 2});
  scheduler.start();
  EXPECT_TRUE(scheduler.running());
  scheduler.drain_and_stop();
  EXPECT_FALSE(scheduler.running());
  scheduler.drain_and_stop();  // second call: no-op
  EXPECT_FALSE(scheduler.running());
  EXPECT_THROW(scheduler.start(), std::invalid_argument)
      << "live mode is one-shot; restarting must be loud";
}

TEST(Scheduler, ReplayOfEmptyLogIsEmpty) {
  DiagnosticsService service(shared_store(), service_config());
  Scheduler scheduler(service);
  EXPECT_TRUE(scheduler.replay({}, 1).empty());
  EXPECT_TRUE(scheduler.replay({}, 0).empty());
}

}  // namespace
}  // namespace idp::serve
