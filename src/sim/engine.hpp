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
  /// Lockstep lane width of the batched SoA kernel: compatible
  /// chronoamperometric oxidase measurements (node-identical grids, same
  /// duration and sample rate) -- the channels of one panel scan, or the
  /// reads of a diagnostics-service request window -- are gathered in
  /// groups of up to this many and stepped through one structure-of-arrays
  /// tridiagonal solve. 0 picks the default width (8); 1 disables
  /// batching (the scalar per-measurement path). Results are bitwise
  /// identical at every width -- the lane-kernel oracle and the `simd`
  /// determinism-sweep workload pin this.
  std::size_t batch_lanes = 0;
  afe::PotentiostatSpec potentiostat;
  chem::CellImpedance cell_impedance;
};

/// Executes protocols against channels through an analog front end.
///
/// Concurrency model: every measurement derives its noise realisation from
/// an explicit *run id* (seed = config.seed + run_id * stride). The
/// convenience overloads draw ids from an internal counter -- the legacy
/// sequential behaviour -- while the `_seeded` variants take the id from the
/// caller and are `const`, so independent measurements (distinct probes and
/// front ends) can execute concurrently on one engine. `reserve_run_ids`
/// hands out a contiguous id block up front, which keeps batched results
/// bitwise identical to sequential execution at any parallelism.
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

  /// Explicit-run-id variants (thread-safe w.r.t. the engine: channel,
  /// probe and front end still belong exclusively to the caller).
  Trace run_chronoamperometry_seeded(
      std::uint64_t run_id, Channel channel,
      const ChronoamperometryProtocol& protocol, afe::AnalogFrontEnd& fe,
      std::span<const InjectionEvent> injections = {}) const;
  CvCurve run_cyclic_voltammetry_seeded(
      std::uint64_t run_id, Channel channel,
      const CyclicVoltammetryProtocol& protocol,
      afe::AnalogFrontEnd& fe) const;

  /// Lockstep lane width: EngineConfig::batch_lanes, with 0 resolved to the
  /// default width (8).
  std::size_t lane_width() const;

  /// The one lane-grouping rule, shared by run_panel and the diagnostics
  /// service. Measurement i pairs channels[i] with protocols[i]; compatible
  /// chronoamperometric oxidase measurements -- node-identical grids
  /// (bio::OxidaseLaneBatch::compatible) plus equal duration and sample
  /// rate -- are gathered in index order and chunked to lane_width(). Every
  /// other measurement (CV, direct and CYP probes, a class of one, or any
  /// measurement at lane width 1) is a group of one, which callers run
  /// through the scalar `_seeded` path. A pure function of the inputs.
  std::vector<std::vector<std::size_t>> lane_groups(
      std::span<const Channel> channels,
      std::span<const ChannelProtocol> protocols) const;

  /// Step compatible chronoamperometric oxidase measurements in lockstep
  /// through one structure-of-arrays solve (bio::OxidaseLaneBatch). Lane l
  /// keeps its own run id (noise seed), applied potential, front end and
  /// sensor state, and its trace is bitwise identical to
  /// run_chronoamperometry_seeded(run_ids[l], channels[l], protocols[l],
  /// *frontends[l]) -- at any width, lane order or mix of targets.
  /// Requires oxidase probes with node-identical grids and one shared
  /// duration and sample rate; no injections. Thread-safe like the other
  /// `_seeded` calls.
  std::vector<Trace> run_chronoamperometry_lanes(
      std::span<const std::uint64_t> run_ids,
      std::span<const Channel> channels,
      std::span<const ChronoamperometryProtocol> protocols,
      std::span<afe::AnalogFrontEnd* const> frontends) const;

  /// Run one lane_groups() group of a measurement set through
  /// run_chronoamperometry_lanes: lane l is measurement group[l] of the
  /// full-index spans (its run id, channel, chronoamperometric protocol and
  /// front end). Returns the traces in group order. The one gather behind
  /// run_panel's and the diagnostics service's lane groups.
  std::vector<Trace> run_lane_group(
      std::span<const std::size_t> group,
      std::span<const std::uint64_t> run_ids,
      std::span<const Channel> channels,
      std::span<const ChannelProtocol> protocols,
      std::span<afe::AnalogFrontEnd* const> frontends) const;

  /// Reserve `n` consecutive run ids; returns the pre-reservation counter
  /// value, so the reserved ids are base+1 .. base+n -- exactly what the
  /// counter-based overloads would have consumed sequentially.
  std::uint64_t reserve_run_ids(std::size_t n);

  /// Activate every channel through a shared mux (the Fig. 4 five-electrode
  /// platform). Channels run their own protocol through their own front end
  /// (oxidase- and CYP-grade readouts coexist on one platform); mux settling
  /// time is inserted between channels and the charge-injection artifact
  /// corrupts the first samples after each switch. The scan timeline and all
  /// run ids are scheduled up front, so with `parallelism` > 1 the channel
  /// measurements execute concurrently with results bitwise identical to the
  /// sequential scan (parallelism 0 means hardware concurrency).
  PanelScanResult run_panel(std::span<const Channel> channels,
                            std::span<const ChannelProtocol> protocols,
                            std::span<afe::AnalogFrontEnd* const> frontends,
                            afe::AnalogMux& mux, std::size_t parallelism = 1);

  const EngineConfig& config() const { return config_; }

 private:
  struct NoiseState;
  /// Precomputed panel-scan timeline of one channel.
  struct PanelSlot {
    double t_switch = 0.0;  ///< mux switch instant seen by the artifact model
    double t_start = 0.0;   ///< first chemistry step (after settling)
    double t_stop = 0.0;    ///< end of the channel's protocol
  };

  PanelEntryResult run_panel_entry(std::uint64_t run_id, Channel channel,
                                   const ChannelProtocol& protocol,
                                   afe::AnalogFrontEnd& fe,
                                   const afe::AnalogMux& mux,
                                   const PanelSlot& slot) const;

  /// Run one lane group of a panel through run_lane_group and fold each
  /// lane's mux artifact in; fills entries[c] for every c in `group`,
  /// bitwise identical to run_panel_entry with run id run_ids[c].
  void run_panel_lane_group(std::span<const std::size_t> group,
                            std::span<const std::uint64_t> run_ids,
                            std::span<const Channel> channels,
                            std::span<const ChannelProtocol> protocols,
                            std::span<afe::AnalogFrontEnd* const> frontends,
                            const afe::AnalogMux& mux,
                            std::span<const PanelSlot> slots,
                            std::span<PanelEntryResult> entries) const;

  EngineConfig config_;
  std::uint64_t run_counter_ = 0;
};

}  // namespace idp::sim
