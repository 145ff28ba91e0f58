/// \file engine.cpp
/// Measurement engine implementation: co-simulates probe electrochemistry
/// at millisecond steps with the Fig. 2 acquisition chain (potentiostat,
/// mux, TIA + ADC, noise).

#include "sim/engine.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <type_traits>

#include "afe/waveform.hpp"
#include "bio/cyp_batch.hpp"
#include "bio/oxidase_batch.hpp"
#include "bio/oxidase_probe.hpp"
#include "sim/batch.hpp"
#include "util/error.hpp"
#include "util/random.hpp"

namespace idp::sim {

namespace {
constexpr std::uint64_t kSeedStride = 0x9e3779b97f4a7c15ULL;
/// Default lockstep lane width when EngineConfig::batch_lanes is 0 (auto):
/// wide enough to fill AVX registers across the 2x solver lanes per
/// channel, narrow enough that typical panels still split into parallel
/// jobs.
constexpr std::size_t kDefaultPanelLanes = 8;
}

MeasurementEngine::MeasurementEngine(EngineConfig config) : config_(config) {
  util::require(config_.chem_dt > 0.0, "chem_dt must be positive");
  util::require(config_.drift_scale >= 0.0, "drift_scale must be >= 0");
  util::require(config_.drift_tau > 0.0, "drift_tau must be positive");
}

namespace {

/// Per-run noise generators: independent white noise for the signal and
/// blank paths plus one *shared* drift process (same chamber, same solution)
/// that correlated double sampling can cancel.
struct NoiseState {
  util::Rng white_signal;
  util::Rng white_blank;
  util::DriftProcess drift;
  double white_rms;
  bool enabled;

  /// `white_mult` inflates the electrochemical white noise (interference
  /// storms); 1.0 -- the pristine default -- multiplies out exactly.
  NoiseState(const EngineConfig& cfg, const bio::Probe& probe,
             std::uint64_t run_id, double white_mult)
      : white_signal(cfg.seed + run_id * kSeedStride),
        white_blank(cfg.seed + run_id * kSeedStride + 1),
        drift(cfg.drift_scale * probe.blank_noise_rms(), cfg.drift_tau,
              cfg.seed + run_id * kSeedStride + 2),
        white_rms(probe.blank_noise_rms() * white_mult),
        enabled(cfg.sensor_noise) {}

  /// Advance shared drift by one sample period.
  double step_drift(double dt) { return enabled ? drift.step(dt) : 0.0; }

  double signal_white() { return enabled ? white_signal.gaussian(white_rms) : 0.0; }
  double blank_white() { return enabled ? white_blank.gaussian(white_rms) : 0.0; }
};

/// Sampling instants are derived from an integer sample counter so that the
/// k-th sample lands at exactly (k+1)*period -- accumulating `next += period`
/// drifts by one ulp per sample over long runs.
struct SamplingClock {
  double period;
  std::size_t samples = 0;
  explicit SamplingClock(double rate) : period(1.0 / rate) {}
  double next() const { return static_cast<double>(samples + 1) * period; }
  bool due(double t) const { return t >= next(); }
  void advance() { ++samples; }
};

/// A protocol as the physics and acquisition passes read it: a fixed
/// potential for chronoamperometry, a triangle sweep for voltammetry.
struct Program {
  double duration = 0.0;
  double sample_rate = 0.0;
  double potential = 0.0;                    ///< chronoamperometry setpoint
  std::optional<afe::TriangleWaveform> sweep;  ///< voltammetry only

  Program() = default;
  explicit Program(const ChannelProtocol& protocol) {
    if (const auto* ca = std::get_if<ChronoamperometryProtocol>(&protocol)) {
      util::require(ca->duration > 0.0 && ca->sample_rate > 0.0,
                    "invalid protocol");
      duration = ca->duration;
      sample_rate = ca->sample_rate;
      potential = ca->potential;
      return;
    }
    const auto& cv = std::get<CyclicVoltammetryProtocol>(protocol);
    util::require(cv.sample_rate > 0.0, "invalid protocol");
    sweep.emplace(cv.e_start, cv.e_vertex, cv.scan_rate, cv.cycles);
    duration = sweep->duration();
    sample_rate = cv.sample_rate;
  }

  /// Samples the protocol takes (the trace's reserve).
  std::size_t sample_count() const {
    return static_cast<std::size_t>(std::ceil(duration * sample_rate)) + 1;
  }
};

/// Fold the mux charge-injection artifact (decaying from the switch
/// instant) into one channel's digitised samples while shifting its local
/// timeline onto the panel's global one -- in place, no copy of the trace.
void fold_mux_artifact(std::vector<double>& time, std::vector<double>& value,
                       const afe::AnalogMux& mux, double t_start,
                       double t_switch) {
  const double settle = mux.spec().settle_time;
  for (std::size_t i = 0; i < time.size(); ++i) {
    const double local_t = time[i];
    value[i] += mux.artifact_current(t_start + local_t - settle, t_switch);
    time[i] = t_start + local_t;
  }
}

/// The lane-grouping predicate: one shared step loop, potential program
/// and sampling clock over node-identical grids.
bool lane_compatible(const Measurement& a, const Measurement& b) {
  if (!a.injections.empty() || !b.injections.empty()) return false;
  if (const auto* pa = std::get_if<ChronoamperometryProtocol>(&a.protocol)) {
    const auto* pb = std::get_if<ChronoamperometryProtocol>(&b.protocol);
    const auto* oa = dynamic_cast<const bio::OxidaseProbe*>(a.channel.probe);
    const auto* ob = dynamic_cast<const bio::OxidaseProbe*>(b.channel.probe);
    return pb != nullptr && oa != nullptr && ob != nullptr &&
           pa->duration == pb->duration &&
           pa->sample_rate == pb->sample_rate &&
           bio::OxidaseLaneBatch::compatible(*oa, *ob);
  }
  const auto& pa = std::get<CyclicVoltammetryProtocol>(a.protocol);
  const auto* pb = std::get_if<CyclicVoltammetryProtocol>(&b.protocol);
  const auto* ca = dynamic_cast<const bio::CypProbe*>(a.channel.probe);
  const auto* cb = dynamic_cast<const bio::CypProbe*>(b.channel.probe);
  return pb != nullptr && ca != nullptr && cb != nullptr &&
         pa.e_start == pb->e_start && pa.e_vertex == pb->e_vertex &&
         pa.scan_rate == pb->scan_rate && pa.cycles == pb->cycles &&
         pa.sample_rate == pb->sample_rate &&
         bio::CypLaneBatch::compatible(*ca, *cb);
}

/// A group of one: the probe's own step().
struct ScalarStepper {
  bio::Probe& probe;
  void step(std::span<const double> e, double dt, std::span<double> i) {
    i[0] = probe.step(e[0], dt);
  }
};

/// Per-lane state of the physics loop: a fixed array for a group of one
/// (N = 1), so it stays in registers around the probe's virtual step(), a
/// vector of the group's width otherwise (N = 0).
template <std::size_t N, typename T>
using LaneArray = std::conditional_t<N == 0, std::vector<T>, std::array<T, N>>;

/// The physics pass of one lane group: every lane shares the step count and
/// sampling clock, and keeps its own iR feedback, reference shift and
/// charging current. Chronoamperometric lanes keep their own setpoints;
/// voltammetric lanes share one sweep (lane_compatible requires equal
/// e_start, e_vertex, scan_rate and cycles), evaluated once per step.
/// Appends each lane's noise-free current at every ADC sample instant to
/// records[l].
template <std::size_t N, typename Stepper>
void step_lanes(const EngineConfig& config,
                std::span<const Measurement* const> lanes, Stepper& stepper,
                std::span<FaradaicRecord* const> records) {
  const std::size_t w = lanes.size();
  LaneArray<N, Program> programs{};
  LaneArray<N, const chem::Electrode*> charging{};
  LaneArray<N, double> shift{}, i_prev{}, e_applied{}, current{};
  if constexpr (N == 0) {
    programs.resize(w);
    charging.resize(w);
    for (auto* v : {&shift, &i_prev, &e_applied, &current}) v->resize(w);
  }
  for (std::size_t l = 0; l < w; ++l) {
    programs[l] = Program(lanes[l]->protocol);
    if (programs[l].sweep && config.charging_current) {
      charging[l] = lanes[l]->channel.electrode;
    }
    shift[l] = lanes[l]->channel.sensor.reference_shift_V;
    records[l]->reserve(programs[l].sample_count());
  }
  // Injections change one probe's bulk mid-run, so only a scalar group
  // carries them (lane_compatible keeps them out of lane groups).
  std::vector<InjectionEvent> pending(lanes[0]->injections.begin(),
                                      lanes[0]->injections.end());
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  std::size_t next_injection = 0;

  const afe::TriangleWaveform* sweep =
      programs[0].sweep ? &*programs[0].sweep : nullptr;
  const bool charges = std::any_of(charging.begin(), charging.end(),
                                   [](const auto* e) { return e != nullptr; });
  const afe::Potentiostat pstat(config.potentiostat);
  SamplingClock clock(programs[0].sample_rate);
  const double dt = config.chem_dt;
  const auto n_steps =
      static_cast<std::size_t>(std::ceil(programs[0].duration / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    while (next_injection < pending.size() &&
           pending[next_injection].time <= t) {
      lanes[0]->channel.probe->set_bulk_concentration(
          pending[next_injection].target, pending[next_injection].concentration);
      ++next_injection;
    }
    // Reference-electrode drift: the interface sees a shifted potential
    // while the instrument still believes the programmed one.
    const double e_sweep = sweep != nullptr ? sweep->value(t) : 0.0;
    for (std::size_t l = 0; l < w; ++l) {
      e_applied[l] =
          pstat.applied_potential(sweep != nullptr ? e_sweep
                                                   : programs[l].potential,
                                  i_prev[l], config.cell_impedance) +
          shift[l];
    }
    stepper.step(e_applied, dt, current);
    if (charges) {
      const double scan_rate =
          sweep->scan_rate() * static_cast<double>(sweep->direction(t));
      for (std::size_t l = 0; l < w; ++l) {
        if (charging[l] != nullptr) {
          current[l] += charging[l]->charging_current(scan_rate);
        }
      }
    }
    for (std::size_t l = 0; l < w; ++l) i_prev[l] = current[l];
    if (clock.due(t + dt)) {
      for (std::size_t l = 0; l < w; ++l) records[l]->push_back(current[l]);
      clock.advance();
    }
  }
}

}  // namespace

std::uint64_t MeasurementEngine::reserve_run_ids(std::size_t n) {
  const std::uint64_t base = run_counter_;
  run_counter_ += n;
  return base;
}

Trace MeasurementEngine::run_chronoamperometry(
    Channel channel, const ChronoamperometryProtocol& protocol,
    afe::AnalogFrontEnd& fe, std::span<const InjectionEvent> injections) {
  return run_chronoamperometry_seeded(++run_counter_, channel, protocol, fe,
                                      injections);
}

Trace MeasurementEngine::run_chronoamperometry_seeded(
    std::uint64_t run_id, Channel channel,
    const ChronoamperometryProtocol& protocol, afe::AnalogFrontEnd& fe,
    std::span<const InjectionEvent> injections) const {
  const Measurement m{run_id, channel, protocol, &fe, injections};
  return std::move(execute({&m, 1}).front().amperogram);
}

CvCurve MeasurementEngine::run_cyclic_voltammetry(
    Channel channel, const CyclicVoltammetryProtocol& protocol,
    afe::AnalogFrontEnd& fe) {
  return run_cyclic_voltammetry_seeded(++run_counter_, channel, protocol, fe);
}

CvCurve MeasurementEngine::run_cyclic_voltammetry_seeded(
    std::uint64_t run_id, Channel channel,
    const CyclicVoltammetryProtocol& protocol, afe::AnalogFrontEnd& fe) const {
  const Measurement m{run_id, channel, protocol, &fe};
  return std::move(execute({&m, 1}).front().voltammogram);
}

std::size_t MeasurementEngine::lane_width() const {
  return config_.batch_lanes == 0 ? kDefaultPanelLanes : config_.batch_lanes;
}

std::vector<std::vector<std::size_t>> MeasurementEngine::lane_groups(
    std::span<const Measurement> batch, std::size_t parallelism) const {
  const std::size_t n = batch.size();
  const std::size_t workers =
      parallelism == 1 ? 1 : BatchRunner(parallelism).parallelism();
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < n; ++i) {
    const auto cls =
        std::find_if(classes.begin(), classes.end(), [&](const auto& c) {
          return lane_compatible(batch[c.front()], batch[i]);
        });
    if (cls == classes.end()) {
      classes.push_back({i});
    } else {
      cls->push_back(i);
    }
  }
  // Chunk each compatibility class; ragged tails form a narrower group,
  // and a chunk of one takes the scalar path.
  std::vector<std::vector<std::size_t>> groups;
  groups.reserve(n);
  for (const std::vector<std::size_t>& cls : classes) {
    const std::size_t width = std::min(
        lane_width(), (cls.size() + workers - 1) / workers);
    for (std::size_t begin = 0; begin < cls.size(); begin += width) {
      const std::size_t end = std::min(begin + width, cls.size());
      groups.emplace_back(cls.begin() + static_cast<std::ptrdiff_t>(begin),
                          cls.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return groups;
}

void MeasurementEngine::compute_records(
    std::span<const Measurement> batch, std::span<const std::size_t> group,
    std::span<FaradaicRecord> records) const {
  const std::size_t w = group.size();
  std::vector<const Measurement*> lanes(w);
  std::vector<FaradaicRecord*> out(w);
  std::vector<const fault::SensorState*> sensors(w);
  for (std::size_t l = 0; l < w; ++l) {
    lanes[l] = &batch[group[l]];
    out[l] = &records[group[l]];
    sensors[l] = &lanes[l]->channel.sensor;
    bio::Probe& probe = *lanes[l]->channel.probe;
    probe.apply_sensor_state(*sensors[l]);
    probe.reset();
  }
  if (w == 1) {
    ScalarStepper stepper{*lanes[0]->channel.probe};
    step_lanes<1>(config_, lanes, stepper, out);
  } else if (std::holds_alternative<ChronoamperometryProtocol>(
                 lanes[0]->protocol)) {
    std::vector<bio::OxidaseProbe*> probes(w);
    for (std::size_t l = 0; l < w; ++l) {
      probes[l] = static_cast<bio::OxidaseProbe*>(lanes[l]->channel.probe);
    }
    bio::OxidaseLaneBatch stepper(probes, sensors);
    step_lanes<0>(config_, lanes, stepper, out);
  } else {
    std::vector<const bio::CypProbe*> probes(w);
    for (std::size_t l = 0; l < w; ++l) {
      probes[l] = static_cast<const bio::CypProbe*>(lanes[l]->channel.probe);
    }
    bio::CypLaneBatch stepper(probes, sensors);
    step_lanes<0>(config_, lanes, stepper, out);
  }
}

Readout MeasurementEngine::acquire(const Measurement& m,
                                   const FaradaicRecord& record) const {
  const fault::SensorState& sensor = m.channel.sensor;
  const bio::Probe& probe = *m.channel.probe;
  afe::AnalogFrontEnd& fe = *m.frontend;
  fe.set_drift(sensor.afe_gain, sensor.afe_offset_A);
  NoiseState noise(config_, probe, m.run_id, sensor.storm_noise_mult);
  const Program program(m.protocol);
  Readout readout;
  if (program.sweep) {
    readout.voltammogram.reserve(record.size());
  } else {
    readout.amperogram.reserve(record.size());
  }
  SamplingClock clock(program.sample_rate);
  for (const double i_far : record) {
    const double drift = noise.step_drift(clock.period);
    const double i_sig =
        i_far + noise.signal_white() + drift + sensor.storm_current_A;
    // The blank electrode shares solution drift; for directly electroactive
    // targets it also collects part of the signal itself (the Section II-C
    // caveat on CDS). Interference storms are solution-borne, so both
    // electrodes collect them (which is exactly what CDS can exploit).
    const double i_blank = probe.blank_current() +
                           probe.blank_signal_fraction() *
                               (i_far - probe.blank_current()) +
                           noise.blank_white() + drift +
                           sensor.storm_current_A;
    const double t_sample = clock.next();
    const double value = fe.sample(i_sig, i_blank);
    // The curve keeps the *programmed* potential; only the probe saw the
    // reference-drift shift.
    if (program.sweep) {
      readout.voltammogram.push(t_sample, program.sweep->value(t_sample),
                                value);
    } else {
      readout.amperogram.push(t_sample, value);
    }
    clock.advance();
  }
  return readout;
}

std::vector<Readout> MeasurementEngine::execute(
    std::span<const Measurement> batch, std::size_t parallelism) const {
  const auto shares_probe = [&](const Measurement& m) {
    return std::count_if(batch.begin(), batch.end(), [&](const auto& other) {
             return other.channel.probe == m.channel.probe;
           }) > 1;
  };
  for (const Measurement& m : batch) {
    util::require(m.channel.probe != nullptr, "measurement has no probe");
    util::require(m.frontend != nullptr, "measurement has no front end");
    // Injections leave the probe at the injected bulk, so a later run on
    // the same probe would depend on the order physics jobs run in.
    util::require(m.injections.empty() || !shares_probe(m),
                  "a measurement with injections needs a probe of its own");
  }
  const std::size_t n = batch.size();
  const BatchRunner runner(parallelism);
  const std::vector<std::vector<std::size_t>> groups =
      lane_groups(batch, runner.parallelism());

  // Physics, a job per group -- except that the groups touching a probe
  // that other measurements also use run one after another in jobs[0],
  // because a group of one steps its probe.
  std::vector<std::vector<std::size_t>> jobs(1);
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const bool shared =
        std::any_of(groups[g].begin(), groups[g].end(),
                    [&](std::size_t i) { return shares_probe(batch[i]); });
    if (shared) {
      jobs[0].push_back(g);
    } else {
      jobs.push_back({g});
    }
  }
  std::vector<std::size_t> job_of(n);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (const std::size_t g : jobs[j]) {
      for (const std::size_t i : groups[g]) job_of[i] = j;
    }
  }

  // Acquisition: one chain per front end, in submission order. A chain
  // whose records all come from one job is acquired at the end of that
  // job; the others once every job has finished.
  std::vector<std::vector<std::size_t>> chains;
  std::vector<afe::AnalogFrontEnd*> chain_frontend;
  for (std::size_t i = 0; i < n; ++i) {
    const auto it = std::find(chain_frontend.begin(), chain_frontend.end(),
                              batch[i].frontend);
    if (it == chain_frontend.end()) {
      chain_frontend.push_back(batch[i].frontend);
      chains.push_back({i});
    } else {
      chains[static_cast<std::size_t>(it - chain_frontend.begin())]
          .push_back(i);
    }
  }
  std::vector<std::vector<std::size_t>> chains_after(jobs.size());
  std::vector<std::size_t> chains_last;
  for (std::size_t c = 0; c < chains.size(); ++c) {
    const std::size_t j = job_of[chains[c].front()];
    const bool one_job =
        std::all_of(chains[c].begin(), chains[c].end(),
                    [&](std::size_t i) { return job_of[i] == j; });
    (one_job ? chains_after[j] : chains_last).push_back(c);
  }

  std::vector<FaradaicRecord> records(n);
  std::vector<Readout> readouts(n);
  const auto acquire_chain = [&](std::size_t c) {
    for (const std::size_t i : chains[c]) {
      readouts[i] = acquire(batch[i], records[i]);
    }
  };
  runner.run(jobs.size(), [&](std::size_t j) {
    for (const std::size_t g : jobs[j]) {
      compute_records(batch, groups[g], records);
    }
    for (const std::size_t c : chains_after[j]) acquire_chain(c);
  });
  runner.run(chains_last.size(),
             [&](std::size_t k) { acquire_chain(chains_last[k]); });
  return readouts;
}

PanelScanResult MeasurementEngine::run_panel(
    std::span<const Channel> channels,
    std::span<const ChannelProtocol> protocols,
    std::span<afe::AnalogFrontEnd* const> frontends, afe::AnalogMux& mux,
    std::size_t parallelism) {
  util::require(channels.size() == protocols.size(),
                "one protocol per channel required");
  util::require(channels.size() == frontends.size(),
                "one front end per channel required");
  util::require(channels.size() <= mux.spec().channels,
                "more channels than the mux supports");
  const std::size_t n = channels.size();

  // Schedule the scan up front: mux switch instants, channel start/stop
  // times and run ids are all fixed before any chemistry runs, so the
  // channel measurements form one executor batch.
  const std::uint64_t base_id = reserve_run_ids(n);
  std::vector<Measurement> batch(n);
  std::vector<double> t_switch(n);
  PanelScanResult result;
  result.entries.resize(n);
  double t_global = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    batch[c] = Measurement{base_id + c + 1, channels[c], protocols[c],
                           frontends[c]};
    mux.select(c, t_global);
    t_switch[c] = mux.last_switch();
    t_global += mux.spec().settle_time;
    result.entries[c].start_time = t_global;
    t_global += Program(protocols[c]).duration;
    result.entries[c].stop_time = t_global;
  }
  result.total_time = t_global;

  // Lane membership cannot leak into results (per-channel run ids seed all
  // randomness), so every width and parallelism yields bitwise-identical
  // scans. The mux artifact folds in after acquisition.
  std::vector<Readout> readouts = execute(batch, parallelism);
  for (std::size_t c = 0; c < n; ++c) {
    PanelEntryResult& entry = result.entries[c];
    entry.probe_name = channels[c].probe->name();
    entry.technique = channels[c].probe->technique();
    Readout& readout = readouts[c];
    if (std::holds_alternative<ChronoamperometryProtocol>(protocols[c])) {
      fold_mux_artifact(readout.amperogram.time_mut(),
                        readout.amperogram.value_mut(), mux, entry.start_time,
                        t_switch[c]);
      entry.amperogram = std::move(readout.amperogram);
    } else {
      fold_mux_artifact(readout.voltammogram.time_mut(),
                        readout.voltammogram.current_mut(), mux,
                        entry.start_time, t_switch[c]);
      entry.voltammogram = std::move(readout.voltammogram);
    }
  }
  return result;
}

double protocol_duration(const ChannelProtocol& p) {
  if (std::holds_alternative<ChronoamperometryProtocol>(p)) {
    return std::get<ChronoamperometryProtocol>(p).duration;
  }
  const auto& cv = std::get<CyclicVoltammetryProtocol>(p);
  return 2.0 * std::fabs(cv.e_vertex - cv.e_start) / cv.scan_rate *
         static_cast<double>(cv.cycles);
}

}  // namespace idp::sim
