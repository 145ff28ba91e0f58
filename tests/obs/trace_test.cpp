/// \file trace_test.cpp
/// TraceRecorder unit + concurrency suite: canonical ordering with
/// duplicate collapse, thread-safe recording, byte-identical exports, and
/// the end-to-end guarantee that a replayed request log's trace is a pure
/// function of the log at any parallelism.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/determinism.hpp"
#include "obs/trace.hpp"
#include "serve/scheduler.hpp"
#include "serve/traffic.hpp"

namespace idp {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

obs::TraceEvent event(std::uint64_t key, obs::SpanKind kind,
                      std::uint64_t entity = 0, std::uint64_t sequence = 0,
                      std::uint64_t tick = 0, double time_h = 0.0,
                      double value = 0.0) {
  return obs::TraceEvent{key, kind, entity, sequence, tick, time_h, value};
}

TEST(TraceRecorder, SortsIntoCanonicalOrder) {
  obs::TraceRecorder trace;
  trace.record(event(7, obs::SpanKind::kMerge, 1));
  trace.record(event(3, obs::SpanKind::kExecution, 0, 2));
  trace.record(event(3, obs::SpanKind::kExecution, 0, 1));
  trace.record(event(3, obs::SpanKind::kLeaseGrant));
  trace.record(event(7, obs::SpanKind::kShardRoute, 0));

  const std::vector<obs::TraceEvent> sorted = trace.sorted();
  ASSERT_EQ(sorted.size(), 5u);
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    EXPECT_TRUE(obs::trace_event_less(sorted[i - 1], sorted[i]))
        << "canonical order violated at " << i;
  }
  EXPECT_EQ(sorted.front().key, 3u);
  EXPECT_EQ(sorted.front().kind, obs::SpanKind::kLeaseGrant);
  EXPECT_EQ(sorted.back().key, 7u);
  EXPECT_EQ(sorted.back().kind, obs::SpanKind::kMerge);
}

TEST(TraceRecorder, CollapsesExactDuplicatesOnly) {
  // An idempotent span recorded twice (two racing epoch-calibration
  // builders) is one logical event; a retry with a different sequence is
  // not a duplicate.
  obs::TraceRecorder trace;
  trace.record(event(5, obs::SpanKind::kRecalibration, 1, 2, 0, 96.0, 7.0));
  trace.record(event(5, obs::SpanKind::kRecalibration, 1, 2, 0, 96.0, 7.0));
  trace.record(event(5, obs::SpanKind::kRetry, 2, 1, 40));
  trace.record(event(5, obs::SpanKind::kRetry, 2, 2, 90));

  EXPECT_EQ(trace.size(), 4u);  // raw arrivals keep the duplicate
  const std::vector<obs::TraceEvent> sorted = trace.sorted();
  ASSERT_EQ(sorted.size(), 3u);
  EXPECT_EQ(sorted[0].kind, obs::SpanKind::kRetry);
  EXPECT_EQ(sorted[2].kind, obs::SpanKind::kRecalibration);
}

TEST(TraceRecorder, ClearDiscardsEverything) {
  obs::TraceRecorder trace;
  trace.record(event(1, obs::SpanKind::kAdmission));
  trace.clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_TRUE(trace.sorted().empty());
}

TEST(TraceRecorder, ConcurrentRecordingCanonicalisesToOneTrace) {
  // Eight threads record disjoint deterministic event sets in racing
  // order; the canonical trace must equal the sequential recording of the
  // same sets.
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;

  obs::TraceRecorder sequential;
  for (std::size_t t = 0; t < kThreads; ++t) {
    for (std::size_t i = 0; i < kPerThread; ++i) {
      sequential.record(event(t * kPerThread + i, obs::SpanKind::kExecution,
                              t, i, 0, static_cast<double>(i)));
    }
  }

  obs::TraceRecorder concurrent;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&concurrent, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        concurrent.record(event(t * kPerThread + i,
                                obs::SpanKind::kExecution, t, i, 0,
                                static_cast<double>(i)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(concurrent.size(), kThreads * kPerThread);
  EXPECT_EQ(concurrent.sorted(), sequential.sorted());
}

TEST(TraceRecorder, ExportsAreByteIdenticalForEqualTraces) {
  // Two recorders fed the same events in different arrival orders export
  // byte-identical CSV and JSONL.
  obs::TraceRecorder a, b;
  const std::vector<obs::TraceEvent> events{
      event(1, obs::SpanKind::kLeaseGrant, 1ull << 42, 0, 0, 1.5, 2.0),
      event(1, obs::SpanKind::kExecution, 0, 0, 0, 1.5, 4398046511104.0),
      event(2, obs::SpanKind::kShardRoute, 3, 0, 17, 2.25),
  };
  for (const obs::TraceEvent& e : events) a.record(e);
  for (auto it = events.rbegin(); it != events.rend(); ++it) b.record(*it);

  const std::string dir = ::testing::TempDir();
  a.to_csv(dir + "/trace_a.csv");
  b.to_csv(dir + "/trace_b.csv");
  a.to_jsonl(dir + "/trace_a.jsonl");
  b.to_jsonl(dir + "/trace_b.jsonl");
  EXPECT_EQ(slurp(dir + "/trace_a.csv"), slurp(dir + "/trace_b.csv"));
  EXPECT_EQ(slurp(dir + "/trace_a.jsonl"), slurp(dir + "/trace_b.jsonl"));
  EXPECT_FALSE(slurp(dir + "/trace_a.csv").empty());
  for (const char* name : {"/trace_a.csv", "/trace_b.csv", "/trace_a.jsonl",
                           "/trace_b.jsonl"}) {
    std::remove((dir + name).c_str());
  }
}

TEST(TraceRecorder, SpanKindNamesAreComplete) {
  for (std::size_t k = 0; k < obs::kSpanKindCount; ++k) {
    EXPECT_STRNE(obs::to_string(static_cast<obs::SpanKind>(k)), "unknown");
  }
}

// --- end-to-end: the replay trace is a pure function of the log -------------

quant::CalibrationStore& shared_store() {
  static quant::CalibrationStore store = [] {
    quant::CampaignConfig campaign;
    campaign.seed = 424243;
    campaign.calibration_points = 4;
    campaign.blank_measurements = 4;
    campaign.ca_duration_s = 6.0;
    return quant::CalibrationStore(campaign);
  }();
  return store;
}

serve::ServiceConfig traced_service_config() {
  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = 9001;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = 77;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;
  return config;
}

std::uint64_t trace_digest(const std::vector<obs::TraceEvent>& events) {
  test::BitDigest d;
  for (const obs::TraceEvent& e : events) {
    d.add_u64(e.key);
    d.add_u64(static_cast<std::uint64_t>(e.kind));
    d.add_u64(e.entity);
    d.add_u64(e.sequence);
    d.add_u64(e.tick);
    d.add(e.time_h);
    d.add(e.value);
  }
  d.add_u64(events.size());
  return d.value();
}

TEST(TraceRecorder, ReplayTraceIsParallelismInvariant) {
  serve::DiagnosticsService reference(shared_store(),
                                      traced_service_config());
  serve::TrafficSpec spec;
  spec.requests = 16;
  spec.sessions = 4;
  spec.seed = 13;
  spec.duration_h = 9.0 * 24.0;  // crosses recalibration epochs
  const std::vector<serve::Request> log =
      serve::synthesize_traffic(spec, reference);

  std::uint64_t sequential_digest = 0;
  for (const std::size_t parallelism : {std::size_t{1}, std::size_t{2},
                                        std::size_t{0}}) {
    serve::DiagnosticsService service(shared_store(),
                                      traced_service_config());
    obs::TraceRecorder trace;
    serve::Scheduler scheduler(service);
    scheduler.attach({.trace = &trace});
    (void)scheduler.replay(log, parallelism);
    const std::uint64_t digest = trace_digest(trace.sorted());
    if (parallelism == 1) {
      sequential_digest = digest;
      // The trace must actually carry the full span taxonomy of a replay:
      // a lease grant and executions for every request, plus the epoch
      // machinery the 9-day window crosses.
      std::size_t leases = 0, executions = 0, swaps = 0, recals = 0;
      for (const obs::TraceEvent& e : trace.sorted()) {
        if (e.kind == obs::SpanKind::kLeaseGrant) ++leases;
        if (e.kind == obs::SpanKind::kExecution) ++executions;
        if (e.kind == obs::SpanKind::kEpochSwap) ++swaps;
        if (e.kind == obs::SpanKind::kRecalibration) ++recals;
      }
      EXPECT_EQ(leases, log.size());
      EXPECT_GE(executions, log.size());
      EXPECT_GT(swaps, 0u);
      EXPECT_GT(recals, 0u);
    } else {
      EXPECT_EQ(digest, sequential_digest)
          << "trace diverged at parallelism " << parallelism;
    }
  }
}

}  // namespace
}  // namespace idp
