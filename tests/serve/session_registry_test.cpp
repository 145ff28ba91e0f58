/// \file session_registry_test.cpp
/// Sharded session registry: stable addresses, shard distribution,
/// concurrent get_or_create convergence and the single-flight warm
/// calibration cache (one build per entry, failed builds retried).

#include "serve/session_registry.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace idp::serve {
namespace {

TEST(SessionRegistry, RejectsZeroShards) {
  EXPECT_THROW(SessionRegistry(0), std::invalid_argument);
}

TEST(SessionRegistry, GetOrCreateIsStableAndIdempotent) {
  SessionRegistry registry(4);
  const SessionKey key{1, 77, 0};
  Session& a = registry.get_or_create(key);
  Session& b = registry.get_or_create(key);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(a.key(), key);
  EXPECT_EQ(a.site_id(), hash_of(key));
  EXPECT_EQ(registry.find(key), &a);
  EXPECT_EQ(registry.find(SessionKey{1, 78, 0}), nullptr);
}

TEST(SessionRegistry, DistinctKeysGetDistinctSessions) {
  SessionRegistry registry(4);
  Session& a = registry.get_or_create(SessionKey{0, 1, 0});
  Session& b = registry.get_or_create(SessionKey{0, 1, 1});  // other device
  Session& c = registry.get_or_create(SessionKey{1, 1, 0});  // other tenant
  EXPECT_NE(&a, &b);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(registry.size(), 3u);
}

TEST(SessionRegistry, HashSpreadsAcrossShards) {
  // Not a uniformity proof -- just that sharding is not degenerate: 256
  // sequential patients must not land in one shard.
  SessionRegistry registry(8);
  std::vector<std::uint64_t> per_shard(8, 0);
  for (std::uint64_t p = 0; p < 256; ++p) {
    ++per_shard[hash_of(SessionKey{0, p, 0}) % 8];
    registry.get_or_create(SessionKey{0, p, 0});
  }
  EXPECT_EQ(registry.size(), 256u);
  for (std::uint64_t n : per_shard) EXPECT_GT(n, 0u);
}

TEST(SessionRegistry, ConcurrentGetOrCreateConvergesToOneSession) {
  SessionRegistry registry(4);
  const SessionKey key{3, 1234, 1};
  std::vector<Session*> seen(8, nullptr);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      Session& s = registry.get_or_create(key);
      s.note_request();
      seen[t] = &s;
    });
  }
  for (std::thread& t : threads) t.join();
  for (Session* s : seen) EXPECT_EQ(s, seen[0]);
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(seen[0]->requests_served(), 8u);
}

TEST(Session, EpochCalibrationCachesFirstInsert) {
  SessionRegistry registry(2);
  Session& session = registry.get_or_create(SessionKey{0, 5, 0});
  std::atomic<int> builds{0};
  auto build = [&] {
    ++builds;
    return quant::Calibration{};
  };
  const quant::Calibration& first = session.epoch_calibration(0, 1, build);
  const quant::Calibration& again = session.epoch_calibration(0, 1, build);
  EXPECT_EQ(&first, &again);  // stable address, warm hit
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(session.calibrations_built(), 1u);
  EXPECT_EQ(session.warm_hits(), 1u);
  // A different (channel, epoch) is its own entry.
  const quant::Calibration& other = session.epoch_calibration(1, 1, build);
  EXPECT_NE(&first, &other);
  EXPECT_EQ(builds.load(), 2);
}

TEST(Session, ConcurrentEpochRequestsRunOneBuild) {
  // Eight threads released together on one (channel, epoch): the first
  // builds, the other seven wait for that build and count as warm hits, so
  // the campaigns run never depend on the schedule.
  SessionRegistry registry(2);
  Session& session = registry.get_or_create(SessionKey{0, 6, 0});
  std::vector<const quant::Calibration*> seen(8, nullptr);
  std::atomic<int> builds{0};
  std::latch start(static_cast<std::ptrdiff_t>(seen.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      seen[t] = &session.epoch_calibration(2, 3, [&] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return quant::Calibration{};
      });
    });
  }
  for (std::thread& t : threads) t.join();
  for (const quant::Calibration* c : seen) EXPECT_EQ(c, seen[0]);
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(session.calibrations_built(), 1u);
  EXPECT_EQ(session.warm_hits(), 7u);
}

TEST(Session, AFailedEpochBuildIsRetried) {
  SessionRegistry registry(2);
  Session& session = registry.get_or_create(SessionKey{0, 7, 0});
  EXPECT_THROW(session.epoch_calibration(
                   0, 1,
                   []() -> quant::Calibration {
                     throw std::runtime_error("campaign failed");
                   }),
               std::runtime_error);
  int builds = 0;
  session.epoch_calibration(0, 1, [&] {
    ++builds;
    return quant::Calibration{};
  });
  EXPECT_EQ(builds, 1);
  EXPECT_EQ(session.calibrations_built(), 1u);
  EXPECT_EQ(session.warm_hits(), 0u);
}

TEST(SessionRegistry, StatsAggregateAcrossShards) {
  SessionRegistry registry(4);
  registry.get_or_create(SessionKey{0, 1, 0}).note_request();
  Session& b = registry.get_or_create(SessionKey{0, 2, 0});
  b.note_request();
  b.note_request();
  b.epoch_calibration(0, 1, [] { return quant::Calibration{}; });
  const RegistryStats stats = registry.stats();
  EXPECT_EQ(stats.sessions, 2u);
  EXPECT_EQ(stats.requests, 3u);
  EXPECT_EQ(stats.calibrations_built, 1u);
  EXPECT_EQ(stats.warm_hits, 0u);
}

}  // namespace
}  // namespace idp::serve
