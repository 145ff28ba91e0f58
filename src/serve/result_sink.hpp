/// \file result_sink.hpp
/// Where served results go: a sink interface the scheduler feeds from its
/// workers, a CSV implementation streaming responses + per-request
/// telemetry via util/csv, and the free function that writes a response
/// span as the canonical deterministic CSV.
///
/// Two outputs, two contracts:
/// - the *response* CSV is deterministic -- rows ordered by (request id,
///   channel), payload a pure function of the request log, so replays at
///   any parallelism produce bitwise identical files (the CsvResultSink
///   buffers live completions and sorts at close() to preserve this even
///   when workers finish out of order);
/// - the *telemetry* CSV is observational -- queue wait and service time
///   in wall-clock seconds, streamed in completion order, never expected
///   to reproduce.
#pragma once

#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "serve/request.hpp"
#include "util/csv.hpp"
#include "util/stats.hpp"

namespace idp::serve {

/// Wall-clock observation of one served request.
struct RequestTelemetry {
  std::uint64_t request_id = 0;
  Priority priority = Priority::kRoutine;
  RequestKind kind = RequestKind::kQuantifiedRead;
  double queue_wait_s = 0.0;    ///< enqueue -> dispatch
  /// Dispatch -> response. A live worker executes its dequeued window in
  /// one pass, so for a windowed request this is the whole window's wall
  /// time, shared by every request in it.
  double service_time_s = 0.0;
  std::uint32_t calibration_epoch = 0;
  std::uint32_t flags = 0;  ///< OR of the response's QuantFlag bits
};

/// Receives served results. Implementations must tolerate concurrent
/// calls from multiple scheduler workers.
class ResultSink {
 public:
  virtual ~ResultSink() = default;
  virtual void on_response(const Response& response) = 0;
  virtual void on_telemetry(const RequestTelemetry& telemetry) = 0;
  /// Flush/finalise; called once by Scheduler::drain_and_stop().
  virtual void close() = 0;
};

/// The canonical response CSV: one row per (request, channel), ordered by
/// (request id, channel) -- bitwise identical for bitwise identical
/// response sets. Columns: request_id, tenant, patient, device, priority,
/// kind, time_h, sensor_age_days, calibration_epoch, channel, target,
/// truth_mM, response, estimate_mM, ci_low_mM, ci_high_mM, flags,
/// qc_blank_residual, qc_standard_residual.
void write_responses_csv(std::span<const Response> responses,
                         const std::string& path);

/// One named latency account for the telemetry-summary export (e.g. the
/// queue-wait or service-time histogram of one priority class).
struct LatencySummarySeries {
  std::string series;
  util::LatencyHistogram histogram;
};

/// The telemetry-summary CSV: one row per series under the canonical
/// latency-summary schema -- a `series` key followed by
/// util::latency_summary_columns() -- the SAME columns the metrics
/// registry snapshot (obs::MetricsSnapshot::to_csv) exports for its
/// histogram samples, so telemetry summaries and registry exports join on
/// identical headers. Every statistic is order-independent, so summaries
/// of a deterministic replay reproduce bitwise.
void write_telemetry_summary_csv(std::span<const LatencySummarySeries> series,
                                 const std::string& path);

/// CSV sink: buffers responses (sorted and written at close() for the
/// determinism contract above) and streams telemetry rows as they arrive.
class CsvResultSink final : public ResultSink {
 public:
  CsvResultSink(std::string responses_path, std::string telemetry_path);
  ~CsvResultSink() override;

  void on_response(const Response& response) override;
  void on_telemetry(const RequestTelemetry& telemetry) override;
  void close() override;

  std::size_t buffered_responses() const;

 private:
  mutable std::mutex mutex_;
  std::string responses_path_;
  std::vector<Response> responses_;
  util::CsvWriter telemetry_;
  bool closed_ = false;
};

}  // namespace idp::serve
