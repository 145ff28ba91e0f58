/// \file scheduler.hpp
/// The service scheduler: the component that turns the deterministic
/// per-request engine (serve/service.hpp) into a running service. Two
/// execution modes share one guarantee -- the response payload of request
/// r depends only on r, because the run-id lease is r's alone:
///
/// - replay(log, parallelism): execute a recorded request log in windows
///   of consecutive requests with every response written to its
///   pre-assigned slot, fanned out over sim::BatchRunner. Bitwise identical
///   at parallelism 1 / N / hardware, and bitwise identical to what live
///   mode produced for the same log (the serve workload of
///   tests/determinism pins this).
/// - start()/submit()/drain_and_stop(): live mode. Worker threads pop
///   windows from the bounded priority RequestQueue, execute each as one
///   DiagnosticsService::execute window, and feed responses plus
///   wall-clock telemetry (queue wait, service time) to a ResultSink and
///   the attached telemetry targets. Admission control is the caller's
///   choice per request: submit() rejects when full (open-loop load
///   shedding), submit_wait() blocks (backpressure).
///
/// Telemetry (attach()): every request records into a private
/// obs::TelemetryCapture, and one obs::TelemetryStream per scheduler
/// publishes it to the bus (if any) and folds it into the recorder and
/// registry (if any). Nothing else writes spans or metrics.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "obs/stream.hpp"
#include "serve/request_queue.hpp"
#include "serve/result_sink.hpp"
#include "serve/service.hpp"

namespace idp::serve {

/// Live-mode sizing.
struct SchedulerConfig {
  RequestQueueConfig queue;
  /// Worker threads for live mode; 0 = hardware concurrency.
  std::size_t workers = 0;
};

/// The replay execution path shared by Scheduler and ShardCluster: splits
/// the log into windows of `window` consecutive indices and runs
/// `execute(begin, captures)` -- which executes log indices [begin, begin +
/// captures.size()) -- for each window as one sim::BatchRunner job
/// (parallelism 0 = hardware, 1 = inline). With a `sink`, each index
/// records into a private capture that deposits per index into an
/// obs::StreamSequencer, so captures still publish in log order and the
/// published frames and the folded recorder and registry are the same at
/// any window and parallelism; without one, every capture slot is null and
/// telemetry is off. An exception propagates as the lowest-index job's.
void replay_captured(
    std::size_t count, std::size_t window, std::size_t parallelism,
    obs::TelemetryStream* sink,
    const std::function<void(std::size_t,
                             std::span<obs::TelemetryCapture* const>)>&
        execute);

class Scheduler {
 public:
  explicit Scheduler(DiagnosticsService& service, SchedulerConfig config = {});

  /// Stops live mode (draining accepted requests) if still running.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  const SchedulerConfig& config() const { return config_; }

  // --- replay mode ----------------------------------------------------------

  /// Execute a recorded log in windows of the service's lane width
  /// (consecutive log indices, one DiagnosticsService::execute window per
  /// BatchRunner job); responses land in log order. parallelism 0 =
  /// hardware concurrency, 1 = sequential inline. Independent of live
  /// mode and of the queue.
  std::vector<Response> replay(std::span<const Request> log,
                               std::size_t parallelism = 0);

  // --- live mode ------------------------------------------------------------

  /// Launch the worker threads. Each worker takes a window from the queue
  /// (RequestQueue::pop_batch: one priority class, stat requests alone, up
  /// to the service's lane width, sized by the depth rule so an idle peer
  /// is never starved), executes it as one DiagnosticsService::execute
  /// window, then publishes each request's capture and sink callbacks in
  /// pop order. `sink` (optional) receives every response and telemetry
  /// record; it must outlive drain_and_stop(). Live mode is one-shot per
  /// Scheduler: starting again after drain_and_stop throws (the queue
  /// closed permanently; construct a fresh Scheduler instead).
  void start(ResultSink* sink = nullptr);

  /// Non-blocking admission (explicit reject when full). Every submit path
  /// first runs DiagnosticsService::validate, so a malformed request
  /// throws std::invalid_argument here, in the caller, and never reaches
  /// the queue or a worker.
  Admission submit(Request request);

  /// Blocking admission (backpressure).
  Admission submit_wait(Request request);

  /// Bounded-wait admission: blocks up to `timeout` for queue space, then
  /// returns Admission::kRejectedTimeout (deadline-style backpressure).
  Admission submit_wait_for(Request request, std::chrono::nanoseconds timeout);

  /// Close the queue, drain every accepted request, join the workers and
  /// close the sink. Idempotent.
  void drain_and_stop();

  bool running() const { return running_; }

  const RequestQueue& queue() const { return queue_; }

  /// Snapshot of the queue's admission accounting (accepted / rejected /
  /// shed / timed out), taken under one lock.
  QueueStats queue_stats() const { return queue_.stats(); }

  /// Requests fully served in live mode.
  std::uint64_t completed() const;

  // --- observability ---------------------------------------------------------

  /// Attach this scheduler's telemetry targets (empty = off, the default;
  /// call before start()). replay() then captures each request privately
  /// and publishes the captures in log order (replay_captured), so
  /// per-topic frame sequences and the folded recorder / registry are
  /// bitwise identical at any parallelism. Live workers publish each
  /// request's capture at completion together with the wall-clock account
  /// -- serve.scheduler.completed, the queue_wait_s / service_time_s
  /// histograms (labels: priority, plus `shard` when >= 0) and the
  /// kQueueWait span -- and submit() publishes one kAdmission span per
  /// offer.
  void attach(obs::TelemetryTargets targets, std::int32_t shard = -1);

  /// Publish the admission account and per-priority completion counters
  /// (set-semantics, so publishing twice is idempotent) into `registry`
  /// under the canonical serve.* names. Latency lives only in the
  /// histograms of the attached registry.
  void publish_metrics(obs::MetricsRegistry& registry,
                       std::int32_t shard = -1) const;

 private:
  void worker_loop();

  /// The submit paths' shared body: validate, offer through `push`, then
  /// publish the offer's kAdmission span.
  template <typename Push>
  Admission admit(Request request, Push&& push);

  DiagnosticsService& service_;
  SchedulerConfig config_;
  RequestQueue queue_;
  std::vector<std::thread> workers_;
  ResultSink* sink_ = nullptr;
  bool running_ = false;

  /// The one telemetry sink (empty = off), built by attach().
  std::optional<obs::TelemetryStream> telemetry_;
  std::int32_t shard_ = -1;  ///< shard label of the live-mode account

  mutable std::mutex completed_mutex_;
  std::array<std::uint64_t, kPriorityCount> completed_{};  ///< per priority
};

}  // namespace idp::serve
