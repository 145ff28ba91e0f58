/// \file scheduler.cpp
/// Scheduler implementation: deterministic replay fan-out and the live
/// worker loop with latency telemetry.

#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <utility>

#include "sim/batch.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace idp::serve {

namespace {

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

}  // namespace

void replay_captured(
    std::size_t count, std::size_t window, std::size_t parallelism,
    obs::TelemetryStream* sink,
    const std::function<void(std::size_t,
                             std::span<obs::TelemetryCapture* const>)>&
        execute) {
  util::require(window > 0, "replay window must be > 0");
  // Each request's telemetry records into a private capture while its
  // window executes, and captures publish in log order through the
  // sequencer -- the published per-topic frame sequence is a pure function
  // of (log, configuration), independent of window and parallelism.
  std::optional<obs::StreamSequencer> sequencer;
  if (sink != nullptr) sequencer.emplace(*sink, count);
  const sim::BatchRunner runner(parallelism);
  runner.run((count + window - 1) / window, [&](std::size_t job) {
    const std::size_t begin = job * window;
    const std::size_t n = std::min(window, count - begin);
    std::vector<obs::TelemetryCapture> captures(sequencer ? n : 0);
    std::vector<obs::TelemetryCapture*> slots(n, nullptr);
    for (std::size_t k = 0; k < captures.size(); ++k) slots[k] = &captures[k];
    execute(begin, slots);
    for (std::size_t k = 0; k < captures.size(); ++k) {
      sequencer->deposit(begin + k, std::move(captures[k]));
    }
  });
}

Scheduler::Scheduler(DiagnosticsService& service, SchedulerConfig config)
    : service_(service), config_(config), queue_(config.queue) {
  if (config_.workers == 0) {
    config_.workers = util::ThreadPool::default_parallelism();
  }
}

Scheduler::~Scheduler() { drain_and_stop(); }

std::vector<Response> Scheduler::replay(std::span<const Request> log,
                                        std::size_t parallelism) {
  // Every request's run-id lease is fixed by its id before anything
  // executes, and each response writes to its pre-assigned slot -- the
  // BatchRunner contract, extended to the service layer.
  std::vector<Response> responses(log.size());
  replay_captured(
      log.size(), service_.lane_width(), parallelism,
      telemetry_ ? &*telemetry_ : nullptr,
      [&](std::size_t begin, std::span<obs::TelemetryCapture* const> captures) {
        std::vector<Response> window =
            service_.execute(log.subspan(begin, captures.size()), captures);
        std::move(window.begin(), window.end(),
                  responses.begin() + static_cast<std::ptrdiff_t>(begin));
      });
  return responses;
}

void Scheduler::attach(obs::TelemetryTargets targets, std::int32_t shard) {
  util::require(!running_, "attach telemetry before start()");
  shard_ = shard;
  telemetry_.reset();
  if (!targets.empty()) telemetry_.emplace(targets);
}

void Scheduler::start(ResultSink* sink) {
  util::require(!running_, "scheduler is already running");
  // Live mode is one-shot: drain_and_stop closes the queue permanently,
  // and restarted workers would exit immediately against it while
  // submit() kept rejecting -- an up-looking scheduler that serves
  // nothing. Make that misuse loud instead.
  util::require(!queue_.closed(),
                "scheduler cannot restart after drain_and_stop");
  sink_ = sink;
  running_ = true;
  workers_.reserve(config_.workers);
  for (std::size_t i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

template <typename Push>
Admission Scheduler::admit(Request request, Push&& push) {
  // A malformed request fails here, in the caller: on a worker thread the
  // exception would escape std::thread and terminate the process.
  service_.validate(request);
  obs::TraceEvent offered{request.id, obs::SpanKind::kAdmission,
                          static_cast<std::uint64_t>(request.priority), 0, 0,
                          request.time_h};
  const auto tenant = static_cast<std::int32_t>(request.session.tenant);
  const Admission admission = push(std::move(request));
  if (telemetry_) {
    offered.value = static_cast<double>(admission);
    obs::TelemetryCapture capture;
    capture.tenant = tenant;
    capture.span(offered);
    telemetry_->publish(capture);
  }
  return admission;
}

Admission Scheduler::submit(Request request) {
  return admit(std::move(request),
               [this](Request r) { return queue_.try_push(std::move(r)); });
}

Admission Scheduler::submit_wait(Request request) {
  return admit(std::move(request),
               [this](Request r) { return queue_.push_wait(std::move(r)); });
}

Admission Scheduler::submit_wait_for(Request request,
                                     std::chrono::nanoseconds timeout) {
  return admit(std::move(request), [this, timeout](Request r) {
    return queue_.push_wait_for(std::move(r), timeout);
  });
}

void Scheduler::drain_and_stop() {
  if (!running_) return;
  queue_.close();  // pushes reject from here on; pops drain what was accepted
  for (std::thread& w : workers_) w.join();
  workers_.clear();
  running_ = false;
  if (sink_ != nullptr) sink_->close();
  sink_ = nullptr;
}

std::uint64_t Scheduler::completed() const {
  const std::lock_guard<std::mutex> lock(completed_mutex_);
  std::uint64_t n = 0;
  for (const std::uint64_t c : completed_) n += c;
  return n;
}

void Scheduler::publish_metrics(obs::MetricsRegistry& registry,
                                std::int32_t shard) const {
  obs::MetricLabels labels;
  labels.shard = shard;
  queue_stats().publish(registry, labels);
  const std::lock_guard<std::mutex> lock(completed_mutex_);
  for (std::size_t p = 0; p < kPriorityCount; ++p) {
    labels.priority = static_cast<std::int32_t>(p);
    registry.counter("serve.scheduler.completed", labels).set(completed_[p]);
  }
}

void Scheduler::worker_loop() {
  const std::size_t width = service_.lane_width();
  std::vector<QueuedRequest> items;
  std::vector<Request> window;
  std::vector<obs::TelemetryCapture> captures;
  std::vector<obs::TelemetryCapture*> slots;
  while (queue_.pop_batch(items, width, config_.workers) > 0) {
    const auto dispatched = std::chrono::steady_clock::now();
    const std::size_t n = items.size();
    window.clear();
    for (QueuedRequest& item : items) window.push_back(std::move(item.request));
    captures.assign(telemetry_ ? n : 0, obs::TelemetryCapture{});
    slots.assign(captures.size(), nullptr);
    for (std::size_t i = 0; i < captures.size(); ++i) slots[i] = &captures[i];

    const std::vector<Response> responses = service_.execute(window, slots);

    // One pass served the whole window, so its wall time is every
    // request's service time.
    const double service_time =
        seconds_between(dispatched, std::chrono::steady_clock::now());

    for (std::size_t i = 0; i < n; ++i) {
      const Response& response = responses[i];
      const double queue_wait =
          seconds_between(items[i].enqueued_at, dispatched);
      RequestTelemetry telemetry;
      telemetry.request_id = response.request_id;
      telemetry.priority = response.priority;
      telemetry.kind = response.kind;
      telemetry.queue_wait_s = queue_wait;
      telemetry.service_time_s = service_time;
      telemetry.calibration_epoch = response.calibration_epoch;
      telemetry.flags = static_cast<std::uint32_t>(response.flags());

      const auto lane = static_cast<std::size_t>(response.priority);
      {
        const std::lock_guard<std::mutex> lock(completed_mutex_);
        ++completed_[lane];
      }
      if (telemetry_) {
        // The wall-clock account rides in the request's capture. The
        // kQueueWait span's `value` is wall seconds, the one deliberate
        // exception to the pure-function field contract (live mode only).
        obs::TelemetryCapture& capture = captures[i];
        obs::MetricLabels labels;
        labels.shard = shard_;
        labels.priority = static_cast<std::int32_t>(lane);
        capture.count("serve.scheduler.completed", labels);
        capture.observe("serve.scheduler.queue_wait_s", labels, queue_wait);
        capture.observe("serve.scheduler.service_time_s", labels,
                        service_time);
        capture.span(response.request_id, obs::SpanKind::kQueueWait, lane, 0,
                     0, response.time_h, queue_wait);
        telemetry_->publish(capture);
      }
      if (sink_ != nullptr) {
        sink_->on_response(response);
        sink_->on_telemetry(telemetry);
      }
    }
  }
}

}  // namespace idp::serve
