/// \file request_queue.cpp
/// Bounded multi-class priority queue implementation, including the
/// overload controller (shed watermarks) and the bounded-wait admission
/// path.

#include "serve/request_queue.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace idp::serve {

const char* to_string(Admission admission) {
  switch (admission) {
    case Admission::kAccepted:
      return "accepted";
    case Admission::kRejectedFull:
      return "rejected_full";
    case Admission::kRejectedClosed:
      return "rejected_closed";
    case Admission::kRejectedShed:
      return "rejected_shed";
    case Admission::kRejectedTimeout:
      return "rejected_timeout";
  }
  return "unknown";
}

RequestQueue::RequestQueue(RequestQueueConfig config) : config_(config) {
  util::require(config_.capacity > 0,
                "request queue needs capacity > 0 (a zero-capacity service "
                "could only reject)");
  util::require(config_.stat_reserve < config_.capacity,
                "stat_reserve must leave room for non-stat admission");
  const std::size_t usable = config_.capacity - config_.stat_reserve;
  util::require(config_.batch_shed_depth <= usable,
                "batch_shed_depth above the non-stat capacity could never "
                "fire before rejected_full");
  util::require(config_.routine_shed_depth <= usable,
                "routine_shed_depth above the non-stat capacity could never "
                "fire before rejected_full");
  util::require(config_.batch_shed_depth == 0 ||
                    config_.routine_shed_depth == 0 ||
                    config_.batch_shed_depth <= config_.routine_shed_depth,
                "overload must shed batch work before routine work");
}

bool RequestQueue::has_space_locked(Priority priority) const {
  const std::size_t usable = priority == Priority::kStat
                                 ? config_.capacity
                                 : config_.capacity - config_.stat_reserve;
  return depth_ < usable;
}

bool RequestQueue::should_shed_locked(Priority priority) const {
  const std::size_t watermark =
      priority == Priority::kBatch     ? config_.batch_shed_depth
      : priority == Priority::kRoutine ? config_.routine_shed_depth
                                       : 0;  // stat is never shed
  return watermark > 0 && depth_ >= watermark;
}

Admission RequestQueue::push_locked(Request&& request) {
  const auto lane = static_cast<std::size_t>(request.priority);
  util::require(lane < kPriorityCount, "invalid priority class");
  lanes_[lane].push_back(
      QueuedRequest{std::move(request), std::chrono::steady_clock::now()});
  ++depth_;
  high_water_ = std::max(high_water_, depth_);
  ++accepted_;
  return Admission::kAccepted;
}

Admission RequestQueue::try_push(Request request) {
  Admission admission;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++offered_;
    if (closed_) {
      ++rejected_closed_;
      return Admission::kRejectedClosed;
    }
    if (should_shed_locked(request.priority)) {
      ++shed_;
      return Admission::kRejectedShed;
    }
    if (!has_space_locked(request.priority)) {
      ++rejected_;
      return Admission::kRejectedFull;
    }
    admission = push_locked(std::move(request));
  }
  ready_.notify_one();
  return admission;
}

Admission RequestQueue::push_wait(Request request) {
  Admission admission;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++offered_;
    // An overloaded class does not get to wait out the storm on the
    // queue's doorstep: shedding exists to push the backlog back to the
    // caller immediately.
    if (!closed_ && should_shed_locked(request.priority)) {
      ++shed_;
      return Admission::kRejectedShed;
    }
    space_.wait(lock, [&] {
      return closed_ || has_space_locked(request.priority);
    });
    if (closed_) {
      ++rejected_closed_;
      return Admission::kRejectedClosed;
    }
    admission = push_locked(std::move(request));
  }
  ready_.notify_one();
  return admission;
}

Admission RequestQueue::push_wait_for(Request request,
                                      std::chrono::nanoseconds timeout) {
  Admission admission;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ++offered_;
    if (!closed_ && should_shed_locked(request.priority)) {
      ++shed_;
      return Admission::kRejectedShed;
    }
    const bool woke = space_.wait_for(lock, timeout, [&] {
      return closed_ || has_space_locked(request.priority);
    });
    if (!woke) {
      ++timed_out_;
      return Admission::kRejectedTimeout;
    }
    if (closed_) {
      ++rejected_closed_;
      return Admission::kRejectedClosed;
    }
    admission = push_locked(std::move(request));
  }
  ready_.notify_one();
  return admission;
}

std::deque<QueuedRequest>& RequestQueue::next_lane_locked() {
  return *std::find_if(
      lanes_.begin(), lanes_.end(),
      [](const std::deque<QueuedRequest>& lane) { return !lane.empty(); });
}

bool RequestQueue::try_pop(QueuedRequest& out) {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (depth_ == 0) return false;
    std::deque<QueuedRequest>& lane = next_lane_locked();
    out = std::move(lane.front());
    lane.pop_front();
    --depth_;
  }
  space_.notify_all();  // heterogeneous waiter predicates; see pop_batch()
  return true;
}

std::size_t RequestQueue::pop_batch(std::vector<QueuedRequest>& out,
                                    std::size_t max_window,
                                    std::size_t consumers) {
  util::require(max_window > 0 && consumers > 0,
                "pop_batch needs a positive window and consumer count");
  out.clear();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    ready_.wait(lock, [this] { return closed_ || depth_ > 0; });
    if (depth_ == 0) return 0;  // closed and drained
    // The first request, plus this consumer's share of the rest of its
    // class: the window is a prefix of dispatch order that stops at the
    // class boundary. A stat request always leaves alone -- a window could
    // only add the other requests' measurements to its service time.
    std::deque<QueuedRequest>& lane = next_lane_locked();
    const std::size_t width =
        lane.front().request.priority == Priority::kStat ? 1 : max_window;
    const auto n = static_cast<std::ptrdiff_t>(
        1 + std::min(width - 1, (lane.size() - 1) / consumers));
    std::move(lane.begin(), lane.begin() + n, std::back_inserter(out));
    lane.erase(lane.begin(), lane.begin() + n);
    depth_ -= out.size();
  }
  // notify_all, not notify_one: with a stat reserve the space_ waiters
  // have *heterogeneous* predicates (a freed slot may admit a blocked
  // stat pusher but not a blocked routine one), so a single wakeup could
  // land on a waiter whose predicate is still false and strand the one
  // the slot was actually reserved for.
  space_.notify_all();
  return out.size();
}

void RequestQueue::close() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
  space_.notify_all();
}

bool RequestQueue::closed() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return closed_;
}

std::size_t RequestQueue::depth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return depth_;
}

std::size_t RequestQueue::high_water() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return high_water_;
}

QueueStats RequestQueue::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  QueueStats stats;
  stats.depth = depth_;
  stats.high_water = high_water_;
  stats.offered = offered_;
  stats.accepted = accepted_;
  stats.rejected_full = rejected_;
  stats.rejected_closed = rejected_closed_;
  stats.shed = shed_;
  stats.timed_out = timed_out_;
  return stats;
}

void QueueStats::publish(obs::MetricsRegistry& registry,
                         const obs::MetricLabels& labels) const {
  registry.counter("serve.queue.offered", labels).set(offered);
  registry.counter("serve.queue.accepted", labels).set(accepted);
  registry.counter("serve.queue.rejected_full", labels).set(rejected_full);
  registry.counter("serve.queue.rejected_closed", labels).set(rejected_closed);
  registry.counter("serve.queue.shed", labels).set(shed);
  registry.counter("serve.queue.timed_out", labels).set(timed_out);
  registry.gauge("serve.queue.depth", labels)
      .set(static_cast<double>(depth));
  registry.gauge("serve.queue.high_water", labels)
      .set(static_cast<double>(high_water));
}

}  // namespace idp::serve
