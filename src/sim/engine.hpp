/// \file engine.hpp
/// The measurement engine: co-simulates the electrochemical probe physics
/// (millisecond steps) with the acquisition chain of Fig. 2 (potentiostat
/// regulation, multiplexing, TIA + ADC sampling, noise).
///
/// Time-scale separation: electrode electronics settle in microseconds while
/// the chemistry evolves over seconds, so the engine treats the potentiostat
/// and TIA quasi-statically and reserves the microsecond-resolution loop
/// simulation for the dedicated Fig. 1 bench (Potentiostat::step_response).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "afe/frontend.hpp"
#include "afe/mux.hpp"
#include "afe/potentiostat.hpp"
#include "bio/probe.hpp"
#include "chem/cell.hpp"
#include "chem/electrode.hpp"
#include "fault/sensor_state.hpp"
#include "sim/protocol.hpp"
#include "sim/trace.hpp"

namespace idp::sim {

/// One working electrode hooked to the engine: the probe physics plus the
/// (optional) physical electrode used for capacitive background and the
/// sensor's current degradation state (fault subsystem). The default state
/// is the identity -- a pristine sensor -- and leaves every measurement
/// bitwise unchanged.
struct Channel {
  bio::Probe* probe = nullptr;             ///< non-owning, required
  const chem::Electrode* electrode = nullptr;  ///< optional: adds i_dl on sweeps
  fault::SensorState sensor{};             ///< condition consulted at scan time
};

/// One measurement of an executor batch: the run id that seeds its noise,
/// the channel it measures, the protocol it runs and the front end that
/// digitises it. Probe and front end are non-owning and may be shared by
/// several measurements of one batch (a campaign's blanks measure one probe
/// through one front end).
struct Measurement {
  std::uint64_t run_id = 0;
  Channel channel;
  ChannelProtocol protocol;
  afe::AnalogFrontEnd* frontend = nullptr;  ///< non-owning, required
  /// Timed bulk-concentration changes; a measurement with injections always
  /// runs as a group of one (the lane kernels keep bulk fixed) and needs a
  /// probe no other measurement of its batch shares (it leaves the probe at
  /// the injected bulk).
  std::span<const InjectionEvent> injections = {};
};

/// The noise-free faradaic current a run presents to its front end, one
/// value per ADC sample (sample k at (k + 1) / sample_rate), the charging
/// current included on sweeps: what the physics pass computes and the
/// acquisition pass digitises.
using FaradaicRecord = std::vector<double>;

/// The digitised output of one measurement: the amperogram of a
/// chronoamperometric run or the voltammogram of a sweep (the other stays
/// empty).
struct Readout {
  Trace amperogram;
  CvCurve voltammogram;
};

/// Result of a multiplexed panel scan (Fig. 4 usage).
struct PanelEntryResult {
  std::string probe_name;
  bio::Technique technique;
  Trace amperogram;   ///< filled for chronoamperometry channels
  CvCurve voltammogram;  ///< filled for CV channels
  double start_time = 0.0;
  double stop_time = 0.0;
};

struct PanelScanResult {
  std::vector<PanelEntryResult> entries;
  double total_time = 0.0;  ///< wall-clock of the whole scan incl. settling
};

/// Measurement engine configuration.
struct EngineConfig {
  double chem_dt = 5.0e-3;     ///< physics step [s]
  std::uint64_t seed = 1234;   ///< sensor-noise seed
  bool sensor_noise = true;    ///< add electrochemical blank noise
  bool charging_current = true;  ///< add C_dl * dE/dt on sweeps
  /// Shared-solution drift: Ornstein-Uhlenbeck process whose RMS is
  /// drift_scale times the probe's blank noise, correlated with time
  /// constant drift_tau. The same realisation is seen by every channel in
  /// the chamber (which is what CDS exploits). The default 1.0 makes the
  /// blank-to-blank spread track the probe's designed sigma_b, landing the
  /// Eq. 5 LODs near their Table III values.
  double drift_scale = 1.0;
  double drift_tau = 60.0;     ///< [s]
  /// Lockstep lane width of the batched SoA kernels: compatible
  /// measurements of one executor batch -- chronoamperometric oxidase reads
  /// with node-identical grids, equal duration and sample rate, or CYP
  /// sweeps with node-identical drug grids and one shared sweep -- are
  /// gathered in groups of up to this many and stepped through one
  /// structure-of-arrays solve. 0 picks the default width (8); 1 disables
  /// batching (the scalar per-measurement path). Results are bitwise
  /// identical at every width -- the lane-kernel oracles and the `simd`
  /// determinism-sweep workload pin this.
  std::size_t batch_lanes = 0;
  afe::PotentiostatSpec potentiostat;
  chem::CellImpedance cell_impedance;
};

/// Executes protocols against channels through an analog front end.
///
/// Every measurement runs in two passes. The physics pass steps the probe
/// under the protocol's potential program and records the noise-free
/// faradaic current at each ADC sample instant (the charging current
/// included on sweeps). No noise reaches the physics: the applied potential
/// depends only on the protocol, the sensor's reference shift and the
/// noise-free previous current. The acquisition pass then turns that record
/// into digitised samples: front-end drift, the run's noise streams, the
/// storm current, the CDS blank and AnalogFrontEnd::sample.
///
/// Concurrency model: every measurement derives its noise realisation from
/// an explicit *run id* (seed = config.seed + run_id * stride). The
/// convenience overloads draw ids from an internal counter -- the legacy
/// sequential behaviour -- while the `_seeded` variants and execute() take
/// the ids from the caller and are `const`, so independent measurements can
/// execute concurrently on one engine. `reserve_run_ids` hands out a
/// contiguous id block up front, which keeps batched results bitwise
/// identical to sequential execution at any parallelism.
class MeasurementEngine {
 public:
  explicit MeasurementEngine(EngineConfig config = EngineConfig{});

  /// Fixed-potential measurement with optional timed injections.
  /// The returned trace holds digitised current estimates at the ADC rate.
  Trace run_chronoamperometry(Channel channel,
                              const ChronoamperometryProtocol& protocol,
                              afe::AnalogFrontEnd& fe,
                              std::span<const InjectionEvent> injections = {});

  /// Potential-sweep measurement; the curve records the *programmed*
  /// potential (what the instrument reports) against digitised current.
  CvCurve run_cyclic_voltammetry(Channel channel,
                                 const CyclicVoltammetryProtocol& protocol,
                                 afe::AnalogFrontEnd& fe);

  /// Explicit-run-id variants: a batch of one through execute()
  /// (thread-safe w.r.t. the engine: channel, probe and front end still
  /// belong exclusively to the caller).
  Trace run_chronoamperometry_seeded(
      std::uint64_t run_id, Channel channel,
      const ChronoamperometryProtocol& protocol, afe::AnalogFrontEnd& fe,
      std::span<const InjectionEvent> injections = {}) const;
  CvCurve run_cyclic_voltammetry_seeded(
      std::uint64_t run_id, Channel channel,
      const CyclicVoltammetryProtocol& protocol,
      afe::AnalogFrontEnd& fe) const;

  /// The measurement executor, the one path every measurement takes:
  ///  1. forms lane groups (lane_groups);
  ///  2. computes each measurement's faradaic record, a group per job over
  ///     a BatchRunner of `parallelism` workers (0 = hardware concurrency;
  ///     groups touching a probe that several measurements share run in
  ///     one job, since the scalar path steps the probe itself);
  ///  3. acquires every record through its front end, measurements sharing
  ///     a front end in submission order (distinct front ends in parallel;
  ///     a front end whose records one job computed is acquired at the end
  ///     of that job).
  /// Readout i belongs to batch[i] and is bitwise identical to running the
  /// batch's measurements one after another through the `_seeded` calls,
  /// at any lane width and parallelism. Because acquisition keeps program
  /// order, a campaign's runs on one front end can still share lanes.
  /// Each measurement's probe has its sensor state applied and is reset;
  /// a lane group copies the probe state and never steps the probe.
  std::vector<Readout> execute(std::span<const Measurement> batch,
                               std::size_t parallelism = 1) const;

  /// Lockstep lane width: EngineConfig::batch_lanes, with 0 resolved to the
  /// default width (8).
  std::size_t lane_width() const;

  /// The one lane-grouping rule. Two measurements are compatible when both
  /// are injection-free and either
  ///  - chronoamperometric on oxidase probes with node-identical grids
  ///    (bio::OxidaseLaneBatch::compatible), equal duration and sample
  ///    rate, or
  ///  - voltammetric on CYP probes with node-identical drug grids
  ///    (bio::CypLaneBatch::compatible), equal e_start, e_vertex,
  ///    scan_rate, cycles and sample rate.
  /// Each compatibility class, in index order, is chunked to a group width
  /// of lane_width() at parallelism 1, and of ceil(class size / workers)
  /// capped at lane_width() with more workers (0 = hardware concurrency),
  /// so a class spreads over the threads before it widens. Every other
  /// measurement is a group of one. A pure function of the inputs.
  std::vector<std::vector<std::size_t>> lane_groups(
      std::span<const Measurement> batch, std::size_t parallelism = 1) const;

  /// Reserve `n` consecutive run ids; returns the pre-reservation counter
  /// value, so the reserved ids are base+1 .. base+n -- exactly what the
  /// counter-based overloads would have consumed sequentially.
  std::uint64_t reserve_run_ids(std::size_t n);

  /// Activate every channel through a shared mux (the Fig. 4 five-electrode
  /// platform). Channels run their own protocol through their own front end
  /// (oxidase- and CYP-grade readouts coexist on one platform); mux settling
  /// time is inserted between channels and the charge-injection artifact
  /// corrupts the first samples after each switch. The scan timeline and all
  /// run ids are scheduled up front and the channels run as one execute()
  /// batch, so with `parallelism` > 1 the channel measurements execute
  /// concurrently with results bitwise identical to the sequential scan
  /// (parallelism 0 means hardware concurrency).
  PanelScanResult run_panel(std::span<const Channel> channels,
                            std::span<const ChannelProtocol> protocols,
                            std::span<afe::AnalogFrontEnd* const> frontends,
                            afe::AnalogMux& mux, std::size_t parallelism = 1);

  const EngineConfig& config() const { return config_; }

 private:
  /// Physics pass of one lane group: fills records[i] for every i in it.
  void compute_records(std::span<const Measurement> batch,
                       std::span<const std::size_t> group,
                       std::span<FaradaicRecord> records) const;
  /// Acquisition pass of one measurement.
  Readout acquire(const Measurement& m, const FaradaicRecord& record) const;

  EngineConfig config_;
  std::uint64_t run_counter_ = 0;
};

}  // namespace idp::sim
