/// \file metrics_test.cpp
/// MetricsRegistry suite: typed get-or-create with stable handles, the
/// canonical deterministic snapshot, conservation-rule evaluation, the
/// CSV export schema, multi-threaded publication (the TSan target), and
/// the end-to-end conservation drill through a live scheduler.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"
#include "util/error.hpp"

namespace idp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(MetricLabels, OrderAndRendering) {
  obs::MetricLabels a, b;
  a.tenant = 1;
  b.tenant = 1;
  b.priority = 0;
  EXPECT_LT(a, b);  // -1 (unset) sorts before any set dimension
  EXPECT_EQ(obs::to_string(a), "tenant=1");
  EXPECT_EQ(obs::to_string(b), "tenant=1,priority=0");
  EXPECT_EQ(obs::to_string(obs::MetricLabels{}), "");
}

TEST(MetricsRegistry, HandlesAreStableAndTyped) {
  obs::MetricsRegistry registry;
  obs::Counter& c = registry.counter("a.count");
  c.add(2);
  EXPECT_EQ(&registry.counter("a.count"), &c);
  EXPECT_EQ(registry.counter("a.count").value(), 2u);

  registry.gauge("a.gauge").set(1.5);
  registry.histogram("a.hist").observe(0.25);
  EXPECT_EQ(registry.size(), 3u);

  // A (name, labels) series is pinned to its first-registered type; a
  // re-registration under another type is a caller mistake
  // (std::invalid_argument per the util::require contract).
  EXPECT_THROW(registry.gauge("a.count"), std::invalid_argument);
  EXPECT_THROW(registry.counter("a.hist"), std::invalid_argument);

  // Same name under different labels is a different series.
  obs::MetricLabels labels;
  labels.shard = 1;
  registry.counter("a.count", labels).add(5);
  EXPECT_EQ(registry.counter("a.count").value(), 2u);
  EXPECT_EQ(registry.size(), 4u);
}

TEST(MetricsRegistry, SnapshotIsCanonicallyOrderedAndQueryable) {
  obs::MetricsRegistry registry;
  obs::MetricLabels s0, s1;
  s0.shard = 0;
  s1.shard = 1;
  registry.counter("z.last").add(1);
  registry.counter("a.first", s1).add(10);
  registry.counter("a.first", s0).add(4);
  registry.gauge("m.depth").set(3.0);

  const obs::MetricsSnapshot snap = registry.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_EQ(snap.samples[0].name, "a.first");
  EXPECT_EQ(snap.samples[0].labels.shard, 0);
  EXPECT_EQ(snap.samples[1].labels.shard, 1);
  EXPECT_EQ(snap.samples[3].name, "z.last");

  EXPECT_EQ(snap.value("a.first", s1), 10.0);
  EXPECT_EQ(snap.sum("a.first"), 14.0);
  EXPECT_TRUE(snap.has("m.depth"));
  EXPECT_FALSE(snap.has("missing"));
  EXPECT_EQ(snap.find("missing"), nullptr);
  EXPECT_THROW(snap.value("missing"), std::invalid_argument);
}

TEST(MetricsRegistry, HistogramSnapshotsUseOrderIndependentStatistics) {
  obs::MetricsRegistry forward, reverse;
  const std::vector<double> samples{0.001, 0.02, 0.3, 0.004, 0.07, 1.1};
  for (const double v : samples) {
    forward.histogram("lat_s").observe(v);
  }
  for (auto it = samples.rbegin(); it != samples.rend(); ++it) {
    reverse.histogram("lat_s").observe(*it);
  }
  // snapshot() returns by value; keep the snapshots alive for the whole
  // test instead of binding references into dead temporaries.
  const obs::MetricsSnapshot fwd_snap = forward.snapshot();
  const obs::MetricsSnapshot rev_snap = reverse.snapshot();
  const obs::MetricSample& a = fwd_snap.samples.front();
  const obs::MetricSample& b = rev_snap.samples.front();
  EXPECT_EQ(a.latency.count, samples.size());
  EXPECT_EQ(a.latency.min, b.latency.min);
  EXPECT_EQ(a.latency.max, b.latency.max);
  EXPECT_EQ(a.latency.p50, b.latency.p50);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.value, b.value);
}

TEST(MetricsRegistry, CsvExportIsByteIdenticalForEqualContent) {
  const auto build = [](obs::MetricsRegistry& registry, bool reversed) {
    obs::MetricLabels t0, t1;
    t0.tenant = 0;
    t1.tenant = 1;
    if (reversed) {
      registry.histogram("q.wait_s", t1).observe(0.5);
      registry.counter("q.total", t0).add(7);
    } else {
      registry.counter("q.total", t0).add(7);
      registry.histogram("q.wait_s", t1).observe(0.5);
    }
  };
  obs::MetricsRegistry a, b;
  build(a, false);
  build(b, true);
  const std::string dir = ::testing::TempDir();
  a.snapshot().to_csv(dir + "/metrics_a.csv");
  b.snapshot().to_csv(dir + "/metrics_b.csv");
  const std::string text = slurp(dir + "/metrics_a.csv");
  EXPECT_EQ(text, slurp(dir + "/metrics_b.csv"));
  // Canonical header: identification, labels, value, latency summary.
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "metric,type,tenant,shard,priority,channel,subscriber,value,"
            "count,min,max,p50,p90,p99");
  std::remove((dir + "/metrics_a.csv").c_str());
  std::remove((dir + "/metrics_b.csv").c_str());
}

TEST(MetricsRegistry, JsonlExportIsByteIdenticalAndCanonicallyShaped) {
  // JSONL parity with TraceRecorder::to_jsonl: one object per sample in
  // snapshot order, fixed key order, G17 doubles -- equal registries
  // export byte-identical files (the golden metrics fixture pins the
  // exact bytes end-to-end).
  const auto build = [](obs::MetricsRegistry& registry, bool reversed) {
    obs::MetricLabels t1, sub0;
    t1.tenant = 1;
    sub0.subscriber = 0;
    if (reversed) {
      registry.histogram("q.wait_s", t1).observe(0.5);
      registry.counter("obs.bus.published", sub0).set(3);
    } else {
      registry.counter("obs.bus.published", sub0).set(3);
      registry.histogram("q.wait_s", t1).observe(0.5);
    }
  };
  obs::MetricsRegistry a, b;
  build(a, false);
  build(b, true);
  const std::string dir = ::testing::TempDir();
  a.snapshot().to_jsonl(dir + "/metrics_a.jsonl");
  b.snapshot().to_jsonl(dir + "/metrics_b.jsonl");
  const std::string text = slurp(dir + "/metrics_a.jsonl");
  EXPECT_EQ(text, slurp(dir + "/metrics_b.jsonl"));
  EXPECT_EQ(text.substr(0, text.find('\n')),
            "{\"metric\":\"obs.bus.published\",\"type\":\"counter\","
            "\"tenant\":-1,\"shard\":-1,\"priority\":-1,\"channel\":-1,"
            "\"subscriber\":0,\"value\":3,\"count\":0,\"min\":0,\"max\":0,"
            "\"p50\":0,\"p90\":0,\"p99\":0}");
  std::remove((dir + "/metrics_a.jsonl").c_str());
  std::remove((dir + "/metrics_b.jsonl").c_str());
}

TEST(MetricsRegistry, ConcurrentPublicationIsExact) {
  // The TSan drill: many threads hammer counters and histograms through
  // cached handles while another snapshots; final totals must be exact.
  obs::MetricsRegistry registry;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 4000;

  std::vector<std::thread> threads;
  threads.reserve(kThreads + 1);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      obs::MetricLabels labels;
      labels.priority = static_cast<std::int32_t>(t % 3);
      obs::Counter& counter = registry.counter("drill.events", labels);
      obs::Histogram& histogram = registry.histogram("drill.lat_s", labels);
      for (std::size_t i = 0; i < kPerThread; ++i) {
        counter.add(1);
        histogram.observe(0.001 * static_cast<double>(1 + i % 100));
      }
    });
  }
  threads.emplace_back([&registry] {
    for (int i = 0; i < 50; ++i) (void)registry.snapshot();
  });
  for (std::thread& thread : threads) thread.join();

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.sum("drill.events"),
            static_cast<double>(kThreads * kPerThread));
  EXPECT_EQ(snap.sum("drill.lat_s"),
            static_cast<double>(kThreads * kPerThread));
}

TEST(Conservation, BalancedImbalancedAndVacuousRules) {
  obs::MetricsRegistry registry;
  registry.counter("serve.queue.offered").set(10);
  registry.counter("serve.queue.accepted").set(7);
  registry.counter("serve.queue.rejected_full").set(2);
  registry.counter("serve.queue.shed").set(1);
  registry.counter("serve.scheduler.completed").set(7);
  registry.gauge("serve.queue.depth").set(0.0);

  const obs::ConservationReport balanced = obs::check_conservation(
      registry.snapshot(), obs::serve_conservation_rules());
  EXPECT_TRUE(balanced.ok);
  std::size_t evaluated = 0, skipped = 0;
  for (const obs::ConservationResult& r : balanced.results) {
    (r.skipped ? skipped : evaluated) += 1;
    EXPECT_TRUE(r.ok) << r.rule;
  }
  EXPECT_EQ(evaluated, 2u);  // queue_admission + scheduler_drain
  EXPECT_EQ(skipped, 2u);    // merge + cluster rules: no terms present

  // Leak one request: the queue rule must fail loudly.
  registry.counter("serve.queue.accepted").set(6);
  const obs::ConservationReport leaking = obs::check_conservation(
      registry.snapshot(), obs::serve_conservation_rules());
  EXPECT_FALSE(leaking.ok);
  for (const obs::ConservationResult& r : leaking.results) {
    if (r.rule == "queue_admission") {
      EXPECT_FALSE(r.ok);
      EXPECT_EQ(r.lhs, 10.0);
      EXPECT_EQ(r.rhs, 9.0);
    }
  }
}

TEST(Conservation, QueueAccountingSurvivesEveryAdmissionOutcome) {
  // Drive a tiny queue through every admission outcome, publish its stats
  // snapshot and let the canonical rule audit the bookkeeping.
  serve::RequestQueueConfig config;
  config.capacity = 2;
  config.batch_shed_depth = 1;
  serve::RequestQueue queue(config);

  const auto request = [](std::uint64_t id, serve::Priority priority) {
    serve::Request r;
    r.id = id;
    r.priority = priority;
    r.kind = serve::RequestKind::kQcCheck;
    r.channel = 0;
    return r;
  };
  EXPECT_EQ(queue.try_push(request(0, serve::Priority::kRoutine)),
            serve::Admission::kAccepted);
  EXPECT_EQ(queue.try_push(request(1, serve::Priority::kBatch)),
            serve::Admission::kRejectedShed);
  EXPECT_EQ(queue.try_push(request(2, serve::Priority::kRoutine)),
            serve::Admission::kAccepted);
  EXPECT_EQ(queue.try_push(request(3, serve::Priority::kRoutine)),
            serve::Admission::kRejectedFull);
  EXPECT_EQ(queue.push_wait_for(request(4, serve::Priority::kRoutine),
                                std::chrono::nanoseconds(100)),
            serve::Admission::kRejectedTimeout);
  queue.close();
  EXPECT_EQ(queue.try_push(request(5, serve::Priority::kStat)),
            serve::Admission::kRejectedClosed);

  obs::MetricsRegistry registry;
  queue.stats().publish(registry, obs::MetricLabels{});
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.value("serve.queue.offered"), 6.0);

  // The drain rule needs the completed counter; nothing was served here.
  registry.counter("serve.scheduler.completed").set(0);
  const obs::ConservationReport report = obs::check_conservation(
      snap, obs::serve_conservation_rules());
  for (const obs::ConservationResult& r : report.results) {
    if (r.rule == "queue_admission") {
      EXPECT_FALSE(r.skipped);
      EXPECT_TRUE(r.ok) << "offered " << r.lhs << " != outcomes " << r.rhs;
    }
  }
}

// --- end-to-end: live scheduler streams into the registry -------------------

quant::CalibrationStore& shared_store() {
  static quant::CalibrationStore store = [] {
    quant::CampaignConfig campaign;
    campaign.seed = 515151;
    campaign.calibration_points = 4;
    campaign.blank_measurements = 4;
    campaign.ca_duration_s = 6.0;
    return quant::CalibrationStore(campaign);
  }();
  return store;
}

TEST(MetricsRegistry, LiveSchedulerConservesEveryRequest) {
  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose};
  config.engine_seed = 31337;
  serve::DiagnosticsService service(shared_store(), config);

  serve::TrafficSpec spec;
  spec.requests = 24;
  spec.sessions = 4;
  spec.seed = 5;
  const std::vector<serve::Request> log =
      serve::synthesize_traffic(spec, service);

  obs::MetricsRegistry registry;
  serve::Scheduler scheduler(service);
  scheduler.attach({.metrics = &registry});
  scheduler.start();
  std::size_t accepted = 0;
  for (const serve::Request& r : log) {
    if (scheduler.submit_wait(r) == serve::Admission::kAccepted) ++accepted;
  }
  scheduler.drain_and_stop();
  scheduler.publish_metrics(registry);

  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.sum("serve.queue.accepted"),
            static_cast<double>(accepted));
  EXPECT_EQ(snap.sum("serve.scheduler.completed"),
            static_cast<double>(accepted));
  // The live-streamed latency histograms must account one queue-wait and
  // one service-time observation per completion.
  EXPECT_EQ(snap.sum("serve.scheduler.queue_wait_s"),
            static_cast<double>(accepted));
  EXPECT_EQ(snap.sum("serve.scheduler.service_time_s"),
            static_cast<double>(accepted));
  // The service-level counters run alongside: one request counter hit per
  // executed request.
  EXPECT_EQ(snap.sum("serve.service.requests"),
            static_cast<double>(accepted));

  const obs::ConservationReport report = obs::check_conservation(
      snap, obs::serve_conservation_rules());
  EXPECT_TRUE(report.ok);
  for (const obs::ConservationResult& r : report.results) {
    if (r.rule == "queue_admission" || r.rule == "scheduler_drain") {
      EXPECT_FALSE(r.skipped) << r.rule;
    }
  }
}

}  // namespace
}  // namespace idp
