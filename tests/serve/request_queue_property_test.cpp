/// \file request_queue_property_test.cpp
/// Seed-sweep property test for serve::RequestQueue under randomized
/// concurrent producers. For a fixed seed set, the properties that must
/// hold regardless of thread interleaving:
///
/// - admission is never silent: accepted + rejected-full + rejected-closed
///   accounts for every attempt, and the queue's own counters agree;
/// - everything accepted is eventually popped, exactly once;
/// - FIFO within a (producer, priority) lane is preserved end to end;
/// - sequentially, dispatch is strict priority (stat, routine, batch) with
///   FIFO inside each class;
/// - the stat reserve admits stat traffic after routine traffic has filled
///   the shared portion, and never admits routine into the reserve;
/// - windows of more than one keep all of the above, never mix priority
///   classes, never hold a stat request beside another, never take more
///   than 1 + floor(depth / consumers) requests, and never wait for a
///   second request.

#include "serve/request_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "util/random.hpp"

namespace idp::serve {
namespace {

constexpr std::uint64_t kSeeds[] = {1, 2, 77, 0xfeedface, 2026};

/// A producer-stamped request: the tenant field carries the producer id
/// and the patient field the per-producer emission index, so the consumer
/// can reconstruct each producer's per-priority emission order.
Request stamped(std::size_t producer, std::uint64_t index,
                Priority priority) {
  Request r;
  r.id = (static_cast<std::uint64_t>(producer) << 32) | index;
  r.session.tenant = static_cast<std::uint32_t>(producer);
  r.session.patient = index;
  r.priority = priority;
  return r;
}

/// The widest window the consumers ask for: the service's lane width.
constexpr std::size_t kWindow = 8;

struct ConcurrentRunResult {
  std::uint64_t attempts = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_full = 0;
  std::uint64_t popped = 0;
  /// Popped (producer, priority) -> emission indices in pop order.
  std::map<std::pair<std::uint32_t, Priority>, std::vector<std::uint64_t>>
      lanes;
};

/// Drive `producers` threads of `per_producer` seeded admission attempts
/// (mixed try_push / push_wait) against `consumers` consumer threads, each
/// dispatching windows of up to `max_window` requests.
ConcurrentRunResult run_concurrent(std::uint64_t seed, std::size_t producers,
                                   std::uint64_t per_producer,
                                   RequestQueueConfig config,
                                   std::size_t max_window = 1,
                                   std::size_t consumers = 1) {
  RequestQueue queue(config);
  ConcurrentRunResult result;
  result.attempts = producers * per_producer;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> rejected_full{0};

  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (std::size_t p = 0; p < producers; ++p) {
    threads.emplace_back([&, p] {
      util::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * (p + 1)));
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        const auto priority =
            static_cast<Priority>(rng.index(kPriorityCount));
        Request r = stamped(p, i, priority);
        // Mix blocking and non-blocking admission; push_wait can only be
        // rejected by closure, which never happens while producers run.
        const bool blocking = rng.index(2) == 0;
        const Admission admission = blocking ? queue.push_wait(std::move(r))
                                             : queue.try_push(std::move(r));
        switch (admission) {
          case Admission::kAccepted:
            accepted.fetch_add(1, std::memory_order_relaxed);
            break;
          case Admission::kRejectedFull:
            rejected_full.fetch_add(1, std::memory_order_relaxed);
            break;
          case Admission::kRejectedClosed:
            ADD_FAILURE() << "queue closed while producers were live";
            break;
          case Admission::kRejectedShed:
          case Admission::kRejectedTimeout:
            // This drill configures no shed watermarks and never uses
            // bounded waits.
            ADD_FAILURE() << "unexpected admission outcome: "
                          << to_string(admission);
            break;
        }
      }
    });
  }

  // Consumers drain until the queue is closed and empty.
  std::mutex popped_mutex;
  const auto record = [&](const std::vector<QueuedRequest>& window) {
    const std::lock_guard<std::mutex> lock(popped_mutex);
    for (const QueuedRequest& q : window) {
      ++result.popped;
      result.lanes[{q.request.session.tenant, q.request.priority}].push_back(
          q.request.session.patient);
    }
  };
  std::vector<std::thread> drains;
  for (std::size_t c = 0; c < consumers; ++c) {
    drains.emplace_back([&] {
      std::vector<QueuedRequest> window;
      while (queue.pop_batch(window, max_window, consumers) > 0) {
        EXPECT_LE(window.size(), max_window) << "window wider than asked";
        for (const QueuedRequest& q : window) {
          EXPECT_EQ(q.request.priority, window.front().request.priority)
              << "a window mixed priority classes";
        }
        if (window.front().request.priority == Priority::kStat) {
          EXPECT_EQ(window.size(), 1u) << "a stat request shared a window";
        }
        record(window);
      }
    });
  }

  for (std::thread& t : threads) t.join();
  queue.close();
  for (std::thread& t : drains) t.join();

  result.accepted = accepted.load();
  result.rejected_full = rejected_full.load();
  EXPECT_EQ(queue.stats().accepted, result.accepted)
      << "queue admission counter disagrees with the producers' account";
  EXPECT_EQ(queue.stats().rejected_full, result.rejected_full);
  EXPECT_EQ(queue.depth(), 0u) << "close() left requests stranded";
  return result;
}

TEST(RequestQueueProperty, AdmissionIsNeverSilentUnderConcurrency) {
  for (const std::size_t max_window : {std::size_t{1}, kWindow}) {
    for (const std::uint64_t seed : kSeeds) {
      RequestQueueConfig config;
      config.capacity = 32;  // small: forces genuine rejection pressure
      const ConcurrentRunResult r =
          run_concurrent(seed, 4, 200, config, max_window);
      EXPECT_EQ(r.accepted + r.rejected_full, r.attempts)
          << "seed " << seed << ": an admission attempt vanished";
      EXPECT_EQ(r.popped, r.accepted)
          << "seed " << seed << ": accepted requests were lost or duplicated";
    }
  }
}

TEST(RequestQueueProperty, PerProducerPerPriorityFifoSurvivesConcurrency) {
  for (const std::size_t max_window : {std::size_t{1}, kWindow}) {
    for (const std::uint64_t seed : kSeeds) {
      RequestQueueConfig config;
      config.capacity = 64;
      const ConcurrentRunResult r =
          run_concurrent(seed, 4, 200, config, max_window);
      for (const auto& [lane, indices] : r.lanes) {
        for (std::size_t i = 1; i < indices.size(); ++i) {
          ASSERT_LT(indices[i - 1], indices[i])
              << "seed " << seed << ": producer " << lane.first
              << " priority " << static_cast<int>(lane.second)
              << " was popped out of emission order";
        }
      }
    }
  }
}

TEST(RequestQueueProperty, PopBatchConservesAcrossConsumers) {
  // Three window consumers race over one queue: every accepted request is
  // dispatched exactly once.
  for (const std::uint64_t seed : kSeeds) {
    RequestQueueConfig config;
    config.capacity = 48;
    const ConcurrentRunResult r =
        run_concurrent(seed, 4, 200, config, kWindow, 3);
    EXPECT_EQ(r.accepted + r.rejected_full, r.attempts);
    EXPECT_EQ(r.popped, r.accepted)
        << "seed " << seed << ": a window lost or duplicated a request";
    std::uint64_t distinct = 0;
    for (const auto& [lane, indices] : r.lanes) {
      std::vector<std::uint64_t> sorted = indices;
      std::sort(sorted.begin(), sorted.end());
      EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()),
                sorted.end())
          << "seed " << seed << ": a request was dispatched twice";
      distinct += sorted.size();
    }
    EXPECT_EQ(distinct, r.accepted);
  }
}

TEST(RequestQueueProperty, PopBatchFollowsTheDepthRule) {
  // Sequentially the depth of every class at each call is known exactly,
  // so every window must hold only the first request's class and be
  // 1 + min(max_window - 1, floor((class depth - 1) / consumers)) -- in
  // particular never more than 1 + floor(depth / consumers) -- or exactly
  // one for a stat request, and the concatenated windows must still be
  // strict priority, FIFO per class.
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (const std::size_t consumers : {std::size_t{1}, std::size_t{2},
                                        std::size_t{3}, std::size_t{5}}) {
      for (const std::size_t max_window : {std::size_t{1}, std::size_t{4},
                                           std::size_t{8}}) {
        RequestQueue queue;
        std::array<std::uint64_t, kPriorityCount> emitted{};
        std::array<std::size_t, kPriorityCount> class_depth{};
        const std::uint64_t total = 20 + rng.index(60);
        for (std::uint64_t i = 0; i < total; ++i) {
          const auto priority =
              static_cast<Priority>(rng.index(kPriorityCount));
          ++class_depth[static_cast<std::size_t>(priority)];
          ASSERT_EQ(queue.try_push(stamped(
                        0, emitted[static_cast<std::size_t>(priority)]++,
                        priority)),
                    Admission::kAccepted);
        }
        queue.close();
        int last_priority = -1;
        std::array<std::uint64_t, kPriorityCount> next_index{};
        std::uint64_t popped = 0;
        std::vector<QueuedRequest> window;
        for (;;) {
          const std::size_t depth = queue.depth();
          const std::size_t got =
              queue.pop_batch(window, max_window, consumers);
          if (got == 0) break;
          ASSERT_EQ(got, window.size());
          const auto first = static_cast<std::size_t>(
              window.front().request.priority);
          const std::size_t width =
              first == static_cast<std::size_t>(Priority::kStat) ? 1
                                                                  : max_window;
          ASSERT_EQ(got, 1 + std::min(width - 1,
                                      (class_depth[first] - 1) / consumers))
              << "seed " << seed << ", class depth " << class_depth[first]
              << ", consumers " << consumers << ", max window "
              << max_window;
          ASSERT_LE(got, 1 + depth / consumers);
          class_depth[first] -= got;
          for (const QueuedRequest& q : window) {
            ASSERT_EQ(static_cast<std::size_t>(q.request.priority), first)
                << "a window mixed priority classes";
            ++popped;
            const int p = static_cast<int>(q.request.priority);
            ASSERT_GE(p, last_priority) << "a lower-priority request overtook";
            last_priority = p;
            ASSERT_EQ(q.request.session.patient,
                      next_index[static_cast<std::size_t>(p)]++)
                << "FIFO broken within priority " << p;
          }
        }
        EXPECT_EQ(popped, total);
      }
    }
  }
}

TEST(RequestQueueProperty, PopBatchNeverWaitsForASecondRequest) {
  // An open queue holding one request hands out a window of one at once:
  // waiting to fill the window would add latency no request asked for.
  RequestQueue queue;
  ASSERT_EQ(queue.try_push(stamped(0, 0, Priority::kRoutine)),
            Admission::kAccepted);
  std::vector<QueuedRequest> window;
  auto popped = std::async(std::launch::async, [&] {
    return queue.pop_batch(window, kWindow, 1);
  });
  const bool returned =
      popped.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  EXPECT_TRUE(returned) << "pop_batch waited for a second request";
  if (!returned) queue.close();  // unblock the waiter before failing
  EXPECT_EQ(popped.get(), 1u);

  // Below the depth rule's threshold a backlog still dispatches singly:
  // three waiting requests across four consumers leave each its own.
  for (std::uint64_t i = 1; i <= 3; ++i) {
    ASSERT_EQ(queue.try_push(stamped(0, i, Priority::kRoutine)),
              Admission::kAccepted);
  }
  EXPECT_EQ(queue.pop_batch(window, kWindow, 4), 1u);
  EXPECT_EQ(queue.depth(), 2u);
}

TEST(RequestQueueProperty, PopBatchNeverPutsAStatRequestBesideAnother) {
  // Stat requests ahead of a routine backlog leave one per window, even
  // backlogged: a stat response never waits on work measured beside it.
  RequestQueue queue;
  for (std::uint64_t i = 0; i < 2 * kWindow; ++i) {
    ASSERT_EQ(queue.try_push(stamped(0, i, Priority::kRoutine)),
              Admission::kAccepted);
    ASSERT_EQ(queue.try_push(stamped(1, i, Priority::kStat)),
              Admission::kAccepted);
  }
  std::vector<QueuedRequest> window;
  for (std::uint64_t i = 0; i < 2 * kWindow; ++i) {
    ASSERT_EQ(queue.pop_batch(window, kWindow, 1), 1u);
    EXPECT_EQ(window.front().request.priority, Priority::kStat);
  }
  ASSERT_EQ(queue.pop_batch(window, kWindow, 1), kWindow)
      << "the routine backlog should fill a whole window";
  for (const QueuedRequest& q : window) {
    EXPECT_EQ(q.request.priority, Priority::kRoutine);
  }
}

TEST(RequestQueueProperty, SequentialDispatchIsStrictPriorityThenFifo) {
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    RequestQueue queue;  // default capacity: everything admits
    std::array<std::uint64_t, kPriorityCount> emitted{};
    for (std::uint64_t i = 0; i < 120; ++i) {
      const auto priority = static_cast<Priority>(rng.index(kPriorityCount));
      const auto p = static_cast<std::size_t>(priority);
      ASSERT_EQ(queue.try_push(stamped(0, emitted[p]++, priority)),
                Admission::kAccepted);
    }
    // With no concurrent pushes, pops must come out grouped stat, routine,
    // batch -- and FIFO inside each group.
    queue.close();
    int last_priority = -1;
    std::array<std::uint64_t, kPriorityCount> next_index{};
    std::vector<QueuedRequest> window;
    std::uint64_t popped = 0;
    while (queue.pop_batch(window, 1, 1) > 0) {
      const QueuedRequest& q = window.front();
      ++popped;
      const int p = static_cast<int>(q.request.priority);
      ASSERT_GE(p, last_priority)
          << "seed " << seed << ": a lower-priority request overtook";
      last_priority = p;
      ASSERT_EQ(q.request.session.patient,
                next_index[static_cast<std::size_t>(p)]++)
          << "seed " << seed << ": FIFO broken within priority " << p;
    }
    EXPECT_EQ(popped, 120u);
  }
}

TEST(RequestQueueProperty, StatReserveAdmitsStatWhenRoutineIsShutOut) {
  RequestQueueConfig config;
  config.capacity = 8;
  config.stat_reserve = 2;
  RequestQueue queue(config);
  // Routine may only use capacity - stat_reserve = 6 slots.
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_EQ(queue.try_push(stamped(0, i, Priority::kRoutine)),
              Admission::kAccepted);
  }
  EXPECT_EQ(queue.try_push(stamped(0, 6, Priority::kRoutine)),
            Admission::kRejectedFull)
      << "routine traffic leaked into the stat reserve";
  EXPECT_EQ(queue.try_push(stamped(0, 0, Priority::kBatch)),
            Admission::kRejectedFull);
  // The reserve is exactly two stat slots.
  EXPECT_EQ(queue.try_push(stamped(1, 0, Priority::kStat)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(stamped(1, 1, Priority::kStat)),
            Admission::kAccepted);
  EXPECT_EQ(queue.try_push(stamped(1, 2, Priority::kStat)),
            Admission::kRejectedFull)
      << "the reserve is not a capacity extension";
  EXPECT_EQ(queue.depth(), 8u);
  EXPECT_EQ(queue.stats().accepted, 8u);
  EXPECT_EQ(queue.stats().rejected_full, 3u);
  // Popping one slot readmits stat immediately; routine still needs the
  // shared portion to fall below 6.
  QueuedRequest q;
  ASSERT_TRUE(queue.try_pop(q));
  EXPECT_EQ(q.request.priority, Priority::kStat) << "strict priority broken";
  EXPECT_EQ(queue.try_push(stamped(0, 7, Priority::kRoutine)),
            Admission::kRejectedFull);
  EXPECT_EQ(queue.try_push(stamped(1, 3, Priority::kStat)),
            Admission::kAccepted);
}

TEST(RequestQueueProperty, SeedsProduceDistinctButAccountedSchedules) {
  // Different seeds steer different admission mixes, but the accounting
  // property holds for each -- the sweep's reason for existing.
  std::vector<std::uint64_t> accepted_counts;
  for (const std::uint64_t seed : kSeeds) {
    RequestQueueConfig config;
    config.capacity = 16;
    const ConcurrentRunResult r = run_concurrent(seed, 2, 100, config);
    EXPECT_EQ(r.accepted + r.rejected_full, r.attempts);
    accepted_counts.push_back(r.accepted);
  }
  EXPECT_EQ(accepted_counts.size(), 5u);
}

}  // namespace
}  // namespace idp::serve
