/// \file single_flight_test.cpp
/// util::SingleFlightMap: one build per key however many callers race for
/// it, waiting callers get the builder's value, and a build that throws
/// leaves the key for the next caller to build.

#include "util/single_flight.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <latch>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace idp::util {
namespace {

TEST(SingleFlightMap, BuildsEachKeyOnceWithStableAddresses) {
  SingleFlightMap<int, std::string> map;
  int builds = 0;
  const auto build = [&] {
    ++builds;
    return std::string("value");
  };
  const auto [first, built_first] = map.get(1, build);
  const auto [again, built_again] = map.get(1, build);
  EXPECT_TRUE(built_first);
  EXPECT_FALSE(built_again);
  EXPECT_EQ(&first, &again);
  EXPECT_EQ(builds, 1);
  const auto [other, built_other] = map.get(2, build);
  EXPECT_TRUE(built_other);
  EXPECT_NE(&other, &first);
  EXPECT_EQ(map.size(), 2u);
}

TEST(SingleFlightMap, ConcurrentCallersWaitForOneBuild) {
  SingleFlightMap<int, int> map;
  std::atomic<int> builds{0};
  std::atomic<int> built_here{0};
  std::vector<const int*> seen(8, nullptr);
  std::latch start(static_cast<std::ptrdiff_t>(seen.size()));
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < seen.size(); ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      const auto [value, built] = map.get(7, [&] {
        ++builds;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 42;
      });
      seen[t] = &value;
      if (built) ++built_here;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(builds.load(), 1);
  EXPECT_EQ(built_here.load(), 1);
  for (const int* v : seen) {
    EXPECT_EQ(v, seen[0]);
    EXPECT_EQ(*v, 42);
  }
}

TEST(SingleFlightMap, AFailedBuildDoesNotPoisonTheKey) {
  SingleFlightMap<int, int> map;
  EXPECT_THROW(map.get(1, []() -> int { throw std::runtime_error("no"); }),
               std::runtime_error);
  EXPECT_EQ(map.size(), 0u);
  EXPECT_EQ(map.get(1, [] { return 5; }).first, 5);

  // Callers waiting on a build that throws retry it themselves: exactly one
  // of them builds the value the rest then share.
  std::atomic<int> attempts{0};
  std::latch start(5);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 5; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      try {
        map.get(2, [&] {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          if (attempts.fetch_add(1) == 0) throw std::runtime_error("first");
          return 9;
        });
      } catch (const std::runtime_error&) {
        ++failures;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(attempts.load(), 2);
  EXPECT_EQ(map.get(2, [] { return 0; }).first, 9);
}

}  // namespace
}  // namespace idp::util
