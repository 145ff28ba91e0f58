/// \file sharded_replay_test.cpp
/// The ShardedReplay driver -- the acceptance criterion of the sharded
/// service scale-out: one recorded mixed traffic log (panel scans,
/// quantified reads, QC checks; degradation and scheduled recalibration
/// epochs live) replayed through a K-shard cluster under an injected
/// reorder/delay/duplication fault schedule must merge into a global log
/// *bitwise identical* to single-node Scheduler execution, across
/// K in {1, 2, 4}, five seeds and parallelism {1, 2, hardware}. Routing,
/// lease-subdomain disjointness and consistent-hash stability ride along.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <limits>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/determinism.hpp"
#include "netsim/sim_network.hpp"
#include "serve/scheduler.hpp"
#include "serve/shard_coordinator.hpp"
#include "serve/traffic.hpp"

namespace idp {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 1234, 0xfeedbeef, 2026};
constexpr std::size_t kShardCounts[] = {1, 2, 4};
constexpr std::size_t kLevels[] = {1, 2, 0};  // 0 = hardware concurrency

/// One shared store: campaigns are keyed by (target, protocol) and the
/// service seed lives in the engine, so every seed variant reuses it.
quant::CalibrationStore& shared_store() {
  static quant::CalibrationStore store = [] {
    quant::CampaignConfig campaign;
    campaign.seed = 626262;
    campaign.calibration_points = 4;
    campaign.blank_measurements = 4;
    campaign.ca_duration_s = 6.0;
    return quant::CalibrationStore(campaign);
  }();
  return store;
}

serve::ServiceConfig service_config(std::uint64_t seed) {
  serve::ServiceConfig config;
  config.panel = {bio::TargetId::kGlucose, bio::TargetId::kLactate};
  config.engine_seed = seed;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.05;
  aging.enzyme_decay_per_day = 0.02;
  aging.seed = seed ^ 0x5ea11;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration_interval_days = 4.0;
  return config;
}

/// One fixed mixed log: 24 requests over 9 days (crossing two epoch
/// boundaries) from 6 sessions across 3 tenants. The *service* seed is
/// what varies per sweep point.
const std::vector<serve::Request>& traffic_log() {
  static const std::vector<serve::Request> log = [] {
    serve::DiagnosticsService reference(shared_store(), service_config(1));
    serve::TrafficSpec spec;
    spec.requests = 24;
    spec.sessions = 6;
    spec.tenants = 3;
    spec.seed = 11;
    spec.duration_h = 9.0 * 24.0;
    return serve::synthesize_traffic(spec, reference);
  }();
  return log;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot read " << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::uint64_t digest_responses(const std::vector<serve::Response>& responses) {
  test::BitDigest d;
  test::fold(d, std::span<const serve::Response>(responses));
  return d.value();
}

std::uint64_t single_node_digest(std::uint64_t seed) {
  serve::DiagnosticsService service(shared_store(), service_config(seed));
  serve::Scheduler scheduler(service);
  return digest_responses(scheduler.replay(traffic_log(), 1));
}

class ShardedReplay : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ShardedReplay, MergedLogIsBitwiseIdenticalToSingleNodeUnderFaults) {
  const std::size_t shards = GetParam();
  const std::vector<serve::Request>& log = traffic_log();

  std::uint64_t duplicates_seen = 0;
  std::uint64_t reorder_seen = 0;
  std::vector<std::uint64_t> baselines;
  for (const std::uint64_t seed : kSeeds) {
    const std::uint64_t baseline = single_node_digest(seed);
    baselines.push_back(baseline);
    for (const std::size_t parallelism : kLevels) {
      serve::ShardClusterConfig cluster_config;
      cluster_config.router.shards = shards;
      serve::ShardCluster cluster(shared_store(), service_config(seed),
                                  cluster_config);

      // The fault schedule varies with every sweep point; the merged log
      // must not.
      test::SimNetConfig net;
      net.seed = seed * 1000 + shards * 10 + parallelism;
      net.max_delay_ticks = 32;
      net.duplicate_prob = 0.15;
      test::SimNetTransport transport(net);

      const serve::ShardedReplayResult result =
          cluster.replay(log, parallelism, &transport);
      EXPECT_EQ(digest_responses(result.responses), baseline)
          << "K=" << shards << " seed=" << seed
          << " parallelism=" << parallelism
          << " diverged from single-node execution";

      EXPECT_EQ(std::accumulate(result.per_shard_requests.begin(),
                                result.per_shard_requests.end(),
                                std::size_t{0}),
                log.size());
      EXPECT_GE(result.merge.delivered, log.size());
      duplicates_seen += result.merge.duplicates_seen;
      reorder_seen += result.merge.max_reorder_distance;
    }
  }
  // The harness must actually have been hostile: across 15 fault
  // schedules at 15% duplication, duplicates (and, for K >= 1, reorder)
  // must have been injected and survived.
  EXPECT_GT(duplicates_seen, 0u);
  EXPECT_GT(reorder_seen, 0u);

  // Different service seeds must produce different logs (otherwise the
  // equality above would be vacuous).
  for (std::size_t i = 1; i < baselines.size(); ++i) {
    EXPECT_NE(baselines[i], baselines[0]);
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedReplay,
                         ::testing::ValuesIn(kShardCounts),
                         [](const auto& param_info) {
                           return "K" + std::to_string(param_info.param);
                         });

TEST(ShardCluster, LeaseSubdomainsAreDisjointAcrossShards) {
  serve::ShardClusterConfig config;
  config.router.shards = 4;
  serve::ShardCluster cluster(shared_store(), service_config(1), config);
  const serve::LeaseCensus census = cluster.lease_census(traffic_log());
  EXPECT_TRUE(census.disjoint);
  ASSERT_EQ(census.per_shard.size(), 4u);
  std::uint64_t requests = 0, sessions = 0;
  for (const serve::ShardLeaseDomain& domain : census.per_shard) {
    requests += domain.requests;
    sessions += domain.sessions;
    if (domain.requests > 0) {
      EXPECT_GE(domain.first_run_id, serve::kServeRunDomain);
      EXPECT_LT(domain.last_run_id, serve::kServeRecalDomain);
    }
  }
  EXPECT_EQ(requests, traffic_log().size());
  EXPECT_EQ(sessions, 6u) << "every session is owned by exactly one shard";
}

TEST(ShardCluster, ReplayRethrowsTheLowestIndexMalformedRequest) {
  // Two malformed requests in one replay window, the earlier routed to
  // shard 1 and the later to shard 0. The window validates in log order
  // before any shard runs its share, so the earlier request's error is the
  // one that surfaces, as on a single node.
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  serve::ShardCluster cluster(shared_store(), service_config(1), config);
  std::vector<serve::Request> log = traffic_log();
  const std::size_t window = cluster.shard(0).lane_width();
  std::size_t first = log.size(), later = log.size();
  for (std::size_t b = 0; b < log.size() && first == log.size(); ++b) {
    if (cluster.router().route(log[b].session) != 1) continue;
    const std::size_t end = std::min(log.size(), (b / window + 1) * window);
    for (std::size_t c = b + 1; c < end; ++c) {
      if (cluster.router().route(log[c].session) == 0) {
        first = b;
        later = c;
        break;
      }
    }
  }
  ASSERT_LT(later, log.size()) << "the log has no shard-1 then shard-0 pair";
  log[first].time_h = std::numeric_limits<double>::quiet_NaN();
  log[later].concentrations_mM.push_back(1.0);  // a shape error
  for (const std::size_t parallelism : {std::size_t{1}, std::size_t{0}}) {
    try {
      (void)cluster.replay(log, parallelism);
      ADD_FAILURE() << "a malformed log replayed";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("time_h must be finite"),
                std::string::npos)
          << "request " << later << "'s error surfaced instead of request "
          << first << "'s: " << error.what();
    }
  }
}

TEST(ShardRouter, RoutingIsDeterministicAndSessionSticky) {
  const serve::ShardRouter router(serve::ShardRouterConfig{.shards = 4});
  const serve::ShardRouter same(serve::ShardRouterConfig{.shards = 4});
  for (const serve::Request& r : traffic_log()) {
    EXPECT_EQ(router.route(r.session), same.route(r.session));
    EXPECT_LT(router.route(r.session), 4u);
  }
}

TEST(ShardRouter, ConsistentHashingMovesFewKeysWhenGrowing) {
  // hash % K remaps ~(K-1)/K of all keys on K -> K+1; the ring must do an
  // order of magnitude better (expected ~1/(K+1), asserted loosely).
  const serve::ShardRouter four(serve::ShardRouterConfig{.shards = 4});
  const serve::ShardRouter five(serve::ShardRouterConfig{.shards = 5});
  constexpr std::size_t kKeys = 4000;
  std::size_t moved = 0;
  for (std::size_t i = 0; i < kKeys; ++i) {
    serve::SessionKey key;
    key.tenant = static_cast<std::uint32_t>(i % 7);
    key.patient = i;
    key.device = static_cast<std::uint32_t>(i % 3);
    const std::size_t before = four.route(key);
    const std::size_t after = five.route(key);
    if (after != before) {
      ++moved;
      EXPECT_EQ(after, 4u) << "keys may only move to the new shard";
    }
  }
  EXPECT_GT(moved, 0u);
  EXPECT_LT(moved, kKeys / 2) << "resharding moved far too many keys";
}

TEST(ShardRouter, SpreadsLoadAcrossShards) {
  const serve::ShardRouter router(
      serve::ShardRouterConfig{.shards = 8, .vnodes = 128});
  std::vector<std::size_t> counts(8, 0);
  for (std::size_t i = 0; i < 8000; ++i) {
    serve::SessionKey key;
    key.tenant = static_cast<std::uint32_t>(i % 11);
    key.patient = i * 131;
    key.device = static_cast<std::uint32_t>(i % 2);
    ++counts[router.route(key)];
  }
  for (std::size_t s = 0; s < counts.size(); ++s) {
    EXPECT_GT(counts[s], 8000u / 8 / 4)
        << "shard " << s << " is starved (got " << counts[s] << " of 8000)";
    EXPECT_LT(counts[s], 8000u / 8 * 4)
        << "shard " << s << " is overloaded (got " << counts[s] << " of 8000)";
  }
}

TEST(ShardRouter, ValidatesConfiguration) {
  EXPECT_THROW(serve::ShardRouter(serve::ShardRouterConfig{.shards = 0}),
               std::invalid_argument);
  EXPECT_THROW(
      serve::ShardRouter(serve::ShardRouterConfig{.shards = 1, .vnodes = 0}),
      std::invalid_argument);
}

TEST(ResultMerger, DetectsLossLoudly) {
  serve::ResultMerger merger;
  serve::ResponseEnvelope e;
  e.shard = 0;
  e.sequence = 0;
  e.response.request_id = 7;
  merger.accept(e);
  EXPECT_THROW(merger.finish(2), std::invalid_argument)
      << "a short merge must throw, never return a truncated log";
}

TEST(ShardClusterLive, LiveShardedServingMatchesMergedReplayBitwise) {
  // Live mode end-to-end: the same log pushed through K=2 live shard
  // schedulers (hardware workers each, out-of-order completion) must
  // produce the replay's exact response set, and the cross-shard merged
  // telemetry must account for every request.
  const std::vector<serve::Request>& log = traffic_log();
  serve::ShardClusterConfig config;
  config.router.shards = 2;
  config.scheduler.queue.capacity = 64;

  serve::ShardCluster replay_cluster(shared_store(), service_config(3),
                                     config);
  const std::uint64_t replay_digest =
      digest_responses(replay_cluster.replay(log, 1).responses);

  serve::ShardCluster live(shared_store(), service_config(3), config);
  obs::MetricsRegistry metrics;
  live.set_metrics(&metrics);
  const std::string dir = ::testing::TempDir();
  {
    serve::CsvResultSink sink(dir + "/sharded_live_responses.csv",
                              dir + "/sharded_live_telemetry.csv");
    live.start(&sink);
    for (const serve::Request& r : log) {
      EXPECT_EQ(live.submit_wait(r), serve::Admission::kAccepted);
    }
    live.drain_and_stop();
    EXPECT_EQ(live.completed(), log.size());
  }

  // The shard-labeled series of the attached registry must account for
  // every request, with one latency observation per completion.
  const obs::MetricsSnapshot snap = metrics.snapshot();
  const auto n = static_cast<double>(log.size());
  EXPECT_EQ(snap.sum("serve.scheduler.completed"), n);
  EXPECT_EQ(snap.sum("serve.scheduler.queue_wait_s"), n);
  EXPECT_EQ(snap.sum("serve.scheduler.service_time_s"), n);

  // The live cluster's canonical response CSV must be byte-identical to
  // the CSV of the merged replay (the sink sorts by request id at close,
  // the merger by construction).
  serve::ShardCluster again(shared_store(), service_config(3), config);
  const serve::ShardedReplayResult merged = again.replay(log, 0);
  EXPECT_EQ(digest_responses(merged.responses), replay_digest);
  serve::write_responses_csv(merged.responses, dir + "/sharded_replay.csv");
  EXPECT_EQ(slurp(dir + "/sharded_live_responses.csv"),
            slurp(dir + "/sharded_replay.csv"));

  EXPECT_THROW(live.start(), std::invalid_argument)
      << "a drained cluster must not restart";
}

}  // namespace
}  // namespace idp
