/// \file metrics.hpp
/// The typed metrics registry: the one surface every layer's counters
/// flow into, replacing the per-subsystem stats-struct sprawl
/// (serve::QueueStats, MergeStats, FaultStats, quant::DriftDetector
/// statistics) with named, labeled, typed metrics.
///
/// Three metric types:
/// - Counter: monotonically increasing u64 (atomic add from any thread).
/// - Gauge: a point-in-time double (atomic set).
/// - Histogram: a util::LatencyHistogram behind its own lock, exported as
///   the canonical util::LatencySummary row (count, exact min/max,
///   p50/p90/p99 -- every statistic order-independent, so snapshots of a
///   deterministic replay are bitwise identical at any parallelism).
///
/// Naming scheme (full table in docs/ARCHITECTURE.md): dot-separated
/// `layer.component.quantity` with unit suffixes on histograms (`_s`),
/// e.g. `serve.queue.accepted`, `serve.scheduler.queue_wait_s`,
/// `serve.cluster.retries`, `quant.drift.cusum`. Labels are the four
/// fleet dimensions -- tenant, shard, priority, channel -- each optional
/// (-1 = unlabeled); a (name, labels) pair identifies one time series.
///
/// Snapshot/export: snapshot() returns every sample sorted by
/// (name, labels); to_csv() writes one canonical row schema shared with
/// the serve telemetry-summary export. Conservation: check_conservation()
/// evaluates sum-identities ("every offered request lands in exactly one
/// admission bucket") against a snapshot, and serve_conservation_rules()
/// is the canonical airtight rule set for the service runtime.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace idp::obs {

/// The fleet label dimensions; -1 means "not labeled along this axis".
/// Ordering is lexicographic over (tenant, shard, priority, channel,
/// subscriber), which fixes the canonical snapshot order. `subscriber`
/// is the telemetry-bus fan-out dimension (obs/stream.hpp): each
/// TelemetryBus subscriber's queue account publishes under its index.
struct MetricLabels {
  std::int32_t tenant = -1;
  std::int32_t shard = -1;
  std::int32_t priority = -1;
  std::int32_t channel = -1;
  std::int32_t subscriber = -1;

  friend auto operator<=>(const MetricLabels&, const MetricLabels&) = default;
};

/// "tenant=2,priority=0" (unset dimensions omitted; "" when fully unset).
std::string to_string(const MetricLabels& labels);

/// Monotonic counter (thread-safe).
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  /// Absorb an externally accumulated total (publication of a stats
  /// snapshot): counters published this way are set, not summed.
  void set(std::uint64_t v) { v_.store(v, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Point-in-time value (thread-safe set/get).
class Gauge {
 public:
  void set(double v) { v_.store(v, std::memory_order_relaxed); }
  double value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

/// Labeled latency-shaped distribution (thread-safe observe/merge).
class Histogram {
 public:
  explicit Histogram(util::LatencyHistogram shape) : h_(std::move(shape)) {}

  void observe(double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    h_.add(value);
  }
  void merge(const util::LatencyHistogram& other) {
    const std::lock_guard<std::mutex> lock(mutex_);
    h_.merge(other);
  }
  util::LatencyHistogram snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return h_;
  }

 private:
  mutable std::mutex mutex_;
  util::LatencyHistogram h_;
};

enum class MetricType : std::uint8_t { kCounter = 0, kGauge = 1, kHistogram = 2 };

const char* to_string(MetricType type);

/// One exported sample. `value` is the counter/gauge value (histograms:
/// the sample count); histograms additionally carry the canonical latency
/// summary.
struct MetricSample {
  std::string name;
  MetricLabels labels;
  MetricType type = MetricType::kCounter;
  double value = 0.0;
  util::LatencySummary latency;  ///< histograms only
};

/// A deterministic registry snapshot: samples sorted by (name, labels).
struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  /// The sample of (name, labels), or nullptr.
  const MetricSample* find(const std::string& name,
                           const MetricLabels& labels = {}) const;
  /// Value of (name, labels); throws util::Error when absent.
  double value(const std::string& name, const MetricLabels& labels = {}) const;
  /// Sum of `name` over every label combination (0 when absent).
  double sum(const std::string& name) const;
  /// True when at least one sample carries `name`.
  bool has(const std::string& name) const;

  /// Canonical CSV schema: metric, type, tenant, shard, priority, channel,
  /// subscriber, value, then util::latency_summary_columns(). Byte-identical
  /// files for bitwise-identical snapshots.
  static std::vector<std::string> columns();
  void to_csv(const std::string& path) const;

  /// Canonical JSONL (parity with TraceRecorder::to_jsonl): one object per
  /// sample in snapshot order, fixed key order, unset label dimensions as
  /// -1, doubles via util::fmt_g17 -- bitwise-identical snapshots export
  /// byte-identical files (the golden metrics fixture pins this).
  void to_jsonl(const std::string& path) const;
};

/// The registry. get-or-create accessors return stable references, safe
/// to cache and update from any thread; a (name, labels) pair is pinned
/// to the type of its first registration (re-registering as another type
/// throws -- a naming collision is a bug, not a merge).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name, const MetricLabels& labels = {});
  Gauge& gauge(const std::string& name, const MetricLabels& labels = {});
  /// `shape` fixes the bin geometry on first registration; later calls
  /// with the same (name, labels) return the existing histogram.
  Histogram& histogram(const std::string& name,
                       const MetricLabels& labels = {},
                       const util::LatencyHistogram& shape =
                           util::LatencyHistogram());

  /// Deterministic snapshot of every registered metric.
  MetricsSnapshot snapshot() const;

  std::size_t size() const;

 private:
  struct Entry {
    MetricType type;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry_of(const std::string& name, const MetricLabels& labels,
                  MetricType type, const util::LatencyHistogram* shape);

  mutable std::mutex mutex_;
  std::map<std::pair<std::string, MetricLabels>, Entry> entries_;
};

/// One conservation identity: sum over all labels of every lhs metric
/// must equal the same sum over the rhs metrics. A rule none of whose
/// metric names appear in the snapshot is vacuous and reported skipped.
struct ConservationRule {
  std::string name;
  std::vector<std::string> lhs;
  std::vector<std::string> rhs;
};

/// Outcome of one rule evaluation.
struct ConservationResult {
  std::string rule;
  double lhs = 0.0;
  double rhs = 0.0;
  bool skipped = false;  ///< no term present in the snapshot
  bool ok = true;        ///< lhs == rhs (exact; these are counts)
};

struct ConservationReport {
  std::vector<ConservationResult> results;
  /// True when every evaluated (non-skipped) rule balanced.
  bool ok = true;
};

/// Evaluate rules against a snapshot.
ConservationReport check_conservation(const MetricsSnapshot& snapshot,
                                      std::span<const ConservationRule> rules);

/// The canonical airtight rule set of the service runtime:
///  - queue:  offered == accepted + rejected_full + rejected_closed
///                        + shed + timed_out
///  - drain:  accepted == completed + depth   (a drained scheduler has
///            depth 0, so accepted == completed)
///  - merge:  delivered == merged + duplicates
///  - faults: work_arrivals == executions + work_discarded (every work
///            message delivered to a shard either executed or died with a
///            crashed shard; dispatch-side accounting cannot be exact
///            because the transport may both drop and duplicate in flight)
const std::vector<ConservationRule>& serve_conservation_rules();

/// The telemetry-bus rule set (obs/stream.hpp publishes the terms):
///  - fan-out: published == delivered + dropped + pending, summed over
///    every subscriber -- each frame offered to a subscriber lands in
///    exactly one of consumed / evicted-or-abandoned (counted loudly,
///    never silent) / still queued. TelemetryBus::publish_metrics also
///    labels each term by subscriber index, so the identity holds
///    per-subscriber, not just in aggregate (tests pin both).
const std::vector<ConservationRule>& stream_conservation_rules();

}  // namespace idp::obs
