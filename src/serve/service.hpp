/// \file service.hpp
/// The diagnostics service engine: turns one serve::Request into one
/// serve::Response by running the virtual measurement stack -- degraded
/// sensor state, campaign-grade probe and front end, measurement engine,
/// quantifier -- exactly the way the calibration campaigns measured.
///
/// Determinism contract (the service-layer extension of the PR 2-4
/// guarantee): every response is a pure function of (request, service
/// configuration). Request `id` leases a disjoint block of
/// `run_ids_per_request` run ids in the serve domain (2^42, next to the QC
/// domain 2^40 and the scenario-recalibration domain 2^41), and every
/// stochastic input of the measurement -- engine noise realisation,
/// front-end noise stream, degradation state -- derives from that lease,
/// the session key hash or the request content. Nothing depends on
/// arrival order, queue state, worker identity or which requests ran
/// before, so a replayed request log is bitwise identical at parallelism
/// 1, N and hardware (tests/determinism).
///
/// Session warm state: repeated requests from one (tenant, patient,
/// device) reuse the session's calibration epochs through the
/// SessionRegistry. Epoch 0 is the factory campaign shared by every
/// session (cached in the CalibrationStore); epochs >= 1 are per-session
/// field recalibrations -- the scheduled-maintenance counterpart of the
/// scenario layer's adaptive recalibration -- built on the sensor's
/// degraded state at the epoch boundary from run-id blocks in the serve
/// recalibration domain (2^43) owned by (session hash, channel, epoch).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "fault/degradation.hpp"
#include "obs/stream.hpp"
#include "quant/calibration_store.hpp"
#include "serve/request.hpp"
#include "serve/session_registry.hpp"

namespace idp::serve {

/// Run-id domains of the service layer (see docs/ARCHITECTURE.md for the
/// full domain map).
inline constexpr std::uint64_t kServeRunDomain = 1ULL << 42;
inline constexpr std::uint64_t kServeRecalDomain = 1ULL << 43;

/// Seed-domain tag separating serve front-end noise streams from every
/// other consumer of the engine seed.
inline constexpr std::uint64_t kServeFrontendSeedDomain =
    0x243f6a8885a308d3ULL;

/// Odd-constant stride decorrelating neighbouring front-end seeds.
inline constexpr std::uint64_t kServeSeedStride = 0x9e3779b97f4a7c15ULL;

/// Upper bounds of the recalibration-block packing
/// (session-slot, channel, epoch) -> disjoint campaign block in the 2^43
/// domain. kSessionSlots * kMaxServeChannels * kEpochSlots campaign blocks
/// of 4096 ids fit below the next power-of-two domain.
inline constexpr std::uint64_t kServeSessionSlots = 1ULL << 20;
inline constexpr std::size_t kMaxServeChannels = 16;
inline constexpr std::uint32_t kServeEpochSlots = 8;

/// Service configuration: the monitored panel plus the policies every
/// response derives from.
struct ServiceConfig {
  /// Panel channel c measures panel[c] with the campaign's default
  /// protocol for that target. 1..kMaxServeChannels entries.
  std::vector<bio::TargetId> panel;

  /// Engine noise seed of the service deployment.
  std::uint64_t engine_seed = 4242;

  /// Registry shards (forwarded to SessionRegistry).
  std::size_t registry_shards = 16;

  /// Sensor aging across the service timeline; identity default keeps
  /// every sensor pristine (and epoch recalibrations then reproduce the
  /// factory curve statistics on fresh noise streams).
  fault::DegradationModel degradation{};

  /// Timeline instant sensors were installed [h]; a request at time_h sees
  /// sensor age (time_h - install) / 24 days, clamped to >= 0.
  double sensor_install_h = 0.0;

  /// Scheduled-maintenance recalibration cadence [days]. 0 disables field
  /// recalibration (every request uses the factory calibration, epoch 0).
  /// With a cadence, a request at age a uses epoch
  /// min(floor(a / cadence), kServeEpochSlots - 1).
  double recalibration_interval_days = 0.0;

  /// QC standard level as a fraction of each channel's calibrated window.
  double qc_fraction = 0.35;

  /// Run ids leased per request; must cover the widest request kind
  /// (panel width, or 2 for a QC check).
  std::size_t run_ids_per_request = 64;
};

/// The request -> response engine. Thread-safe: execute() may be called
/// concurrently from any number of workers (the registry and the store
/// handle their own locking; the engine is used through const seeded
/// calls only).
class DiagnosticsService {
 public:
  /// Binds the service to a calibration store. The store provides the
  /// campaign configuration (how to measure), the factory quantifiers and
  /// the prototype probe every measurement clones; the constructor builds
  /// any missing factory campaign (and with it the prototype) up front so
  /// serving never pays that cost.
  DiagnosticsService(quant::CalibrationStore& store, ServiceConfig config);

  const ServiceConfig& config() const { return config_; }
  std::size_t channel_count() const { return config_.panel.size(); }
  bio::TargetId target(std::size_t channel) const;

  /// Calibrated (invertible) concentration window of one channel [mM]
  /// under the factory calibration -- what traffic synthesis draws from.
  std::pair<double, double> calibrated_range_mM(std::size_t channel) const;

  /// First run id of a request's leased block.
  std::uint64_t lease_base(std::uint64_t request_id) const;

  /// Calibration epoch a request at this sensor age resolves to.
  std::uint32_t epoch_for(double sensor_age_days) const;

  /// Reject a malformed request with std::invalid_argument: the shape its
  /// kind requires, an in-range channel, a finite time_h, finite
  /// non-negative concentrations and an id inside the serve run-id
  /// domain. execute() calls it, and so does Scheduler admission, so a
  /// bad request fails in the caller instead of on a worker thread.
  void validate(const Request& request) const;

  /// Execute a window of requests in three phases:
  ///  1. validate every request, then plan: resolve each request's
  ///     session, calibration epoch and run-id lease, and each QC check's
  ///     standard level from its active quantifier;
  ///  2. measure every planned run of the window as one
  ///     sim::MeasurementEngine::execute batch: compatible runs from any of
  ///     its requests step in lockstep lane groups (oxidase reads, CYP
  ///     sweeps), everything else as groups of one;
  ///  3. quantify each request and emit its telemetry.
  /// Responses come back in window order. Pure in the determinism sense
  /// (see file comment): every response is bitwise identical at any window
  /// size, lane width or order of the window, because each run keeps its
  /// own leased run id. Mutates only the session registry's warm caches
  /// and counters, which are order-insensitive.
  ///
  /// `captures` holds one slot per request (nullptr = that request's
  /// telemetry off) or is empty (all off). Each capture receives exactly
  /// the ops, in the order, a window of one emits: kLeaseGrant, one
  /// kExecution per measured run, kEpochSwap / kRecalibration for field
  /// recalibration epochs, and the serve.service.* request / read / QC
  /// counters and estimate histogram (labels: tenant, priority, channel).
  /// The caller's obs::TelemetryStream publishes and folds the captures.
  /// Every captured field is a pure function of (request, configuration):
  /// epoch spans emit for *every* request on the epoch, not just the
  /// cache-building winner, so which request carries them never depends
  /// on the thread schedule (they collapse as exact duplicates on fold).
  ///
  /// A malformed request anywhere in the window throws (the lowest-index
  /// one's std::invalid_argument) before any request is planned, measured
  /// or counted.
  std::vector<Response> execute(std::span<const Request> window,
                                std::span<obs::TelemetryCapture* const> captures);

  /// Execute one request: a window of one, through the same path.
  Response execute(const Request& request, obs::TelemetryCapture* capture);

  /// The widest window worth forming: the engine's lockstep lane width
  /// (sim::EngineConfig::batch_lanes, 8 by default). The scheduler's live
  /// dequeue windows and replay windows are sized by it.
  std::size_t lane_width() const { return engine_.lane_width(); }

  SessionRegistry& sessions() { return registry_; }
  const SessionRegistry& sessions() const { return registry_; }

 private:
  /// The active quantifier of (session, channel) at an epoch: the factory
  /// curve for epoch 0, the session's warm recalibration otherwise.
  const quant::Quantifier& quantifier_for(Session& session,
                                          std::uint32_t channel,
                                          std::uint32_t epoch,
                                          obs::TelemetryCapture* capture);

  /// One measurement of a window: the channel, sensor site and age it
  /// measures, the presented level and its leased run id. measure() fills
  /// `response`.
  struct PlannedRun {
    std::uint32_t channel = 0;
    std::uint64_t site = 0;  ///< session site id (degradation seed)
    double age_days = 0.0;
    double concentration_mM = 0.0;
    std::uint64_t run_id = 0;
    double response = 0.0;  ///< raw scalar panel response
  };

  /// Phase 2 of execute(): every planned run as one executor batch, each
  /// on its own probe clone and front end.
  void measure(std::span<PlannedRun> runs) const;

  /// Quantify one measured channel against the active calibration.
  ChannelResult quantify(Session& session, std::uint32_t channel,
                         std::uint32_t epoch, double truth_mM,
                         double response, obs::TelemetryCapture* capture);

  /// Observability tap of one measured run: kExecution span plus the
  /// per-channel read counter. No-op without a capture.
  void note_run(const Request& request, std::uint32_t channel,
                std::uint64_t sequence, std::uint64_t run_id,
                obs::TelemetryCapture* capture);

  /// Quantified-estimate tap: one serve.service.estimate_mM histogram
  /// observation per produced ChannelResult (labels: tenant, channel) --
  /// the distribution behind the live p50/p90/p99 concentration tiles.
  void note_estimate(const Request& request, std::uint32_t channel,
                     double estimate_mM, obs::TelemetryCapture* capture);

  quant::CalibrationStore& store_;
  ServiceConfig config_;
  sim::MeasurementEngine engine_;  ///< const seeded calls only
  std::vector<sim::ChannelProtocol> protocols_;
  std::vector<const quant::Quantifier*> factory_;  ///< stable store addresses
  std::vector<const bio::Probe*> prototypes_;      ///< stable store addresses
  SessionRegistry registry_;
};

}  // namespace idp::serve
