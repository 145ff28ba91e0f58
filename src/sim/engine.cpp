/// \file engine.cpp
/// Measurement engine implementation: co-simulates probe electrochemistry
/// at millisecond steps with the Fig. 2 acquisition chain (potentiostat,
/// mux, TIA + ADC, noise).

#include "sim/engine.hpp"

#include <algorithm>
#include <cmath>

#include "afe/waveform.hpp"
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

/// Per-run noise generators: independent white noise for the signal and
/// blank paths plus one *shared* drift process (same chamber, same solution)
/// that correlated double sampling can cancel.
struct MeasurementEngine::NoiseState {
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

MeasurementEngine::MeasurementEngine(EngineConfig config) : config_(config) {
  util::require(config_.chem_dt > 0.0, "chem_dt must be positive");
  util::require(config_.drift_scale >= 0.0, "drift_scale must be >= 0");
  util::require(config_.drift_tau > 0.0, "drift_tau must be positive");
}

namespace {

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

/// The lane-grouping predicate: one shared step loop and sampling clock
/// (equal duration and sample rate) over node-identical grids.
bool lane_compatible(const bio::OxidaseProbe& a,
                     const ChronoamperometryProtocol& pa,
                     const bio::OxidaseProbe& b,
                     const ChronoamperometryProtocol& pb) {
  return pa.duration == pb.duration && pa.sample_rate == pb.sample_rate &&
         bio::OxidaseLaneBatch::compatible(a, b);
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
  util::require(channel.probe != nullptr, "channel has no probe");
  util::require(protocol.duration > 0.0 && protocol.sample_rate > 0.0,
                "invalid protocol");
  const fault::SensorState& sensor = channel.sensor;
  bio::Probe& probe = *channel.probe;
  probe.apply_sensor_state(sensor);
  probe.reset();
  fe.set_drift(sensor.afe_gain, sensor.afe_offset_A);

  NoiseState noise(config_, probe, run_id, sensor.storm_noise_mult);
  afe::Potentiostat pstat(config_.potentiostat);

  std::vector<InjectionEvent> pending(injections.begin(), injections.end());
  std::stable_sort(pending.begin(), pending.end(),
                   [](const auto& a, const auto& b) { return a.time < b.time; });
  std::size_t next_injection = 0;

  Trace trace;
  trace.reserve(static_cast<std::size_t>(
                    std::ceil(protocol.duration * protocol.sample_rate)) +
                1);
  SamplingClock clock(protocol.sample_rate);
  const double dt = config_.chem_dt;
  double i_prev = 0.0;
  const auto n_steps =
      static_cast<std::size_t>(std::ceil(protocol.duration / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    while (next_injection < pending.size() &&
           pending[next_injection].time <= t) {
      probe.set_bulk_concentration(pending[next_injection].target,
                                   pending[next_injection].concentration);
      ++next_injection;
    }
    // Reference-electrode drift: the interface sees a shifted potential
    // while the instrument still believes protocol.potential.
    const double e_applied =
        pstat.applied_potential(protocol.potential, i_prev,
                                config_.cell_impedance) +
        sensor.reference_shift_V;
    const double i_far = probe.step(e_applied, dt);
    i_prev = i_far;

    if (clock.due(t + dt)) {
      const double drift = noise.step_drift(clock.period);
      const double i_sig =
          i_far + noise.signal_white() + drift + sensor.storm_current_A;
      // The blank electrode shares solution drift; for directly
      // electroactive targets it also collects part of the signal itself
      // (the Section II-C caveat on CDS). Interference storms are
      // solution-borne, so both electrodes collect them (which is exactly
      // what CDS can exploit).
      const double i_blank = probe.blank_current() +
                             probe.blank_signal_fraction() *
                                 (i_far - probe.blank_current()) +
                             noise.blank_white() + drift +
                             sensor.storm_current_A;
      trace.push(clock.next(), fe.sample(i_sig, i_blank));
      clock.advance();
    }
  }
  return trace;
}

CvCurve MeasurementEngine::run_cyclic_voltammetry(
    Channel channel, const CyclicVoltammetryProtocol& protocol,
    afe::AnalogFrontEnd& fe) {
  return run_cyclic_voltammetry_seeded(++run_counter_, channel, protocol, fe);
}

CvCurve MeasurementEngine::run_cyclic_voltammetry_seeded(
    std::uint64_t run_id, Channel channel,
    const CyclicVoltammetryProtocol& protocol, afe::AnalogFrontEnd& fe) const {
  util::require(channel.probe != nullptr, "channel has no probe");
  util::require(protocol.sample_rate > 0.0, "invalid protocol");
  const fault::SensorState& sensor = channel.sensor;
  bio::Probe& probe = *channel.probe;
  probe.apply_sensor_state(sensor);
  probe.reset();
  fe.set_drift(sensor.afe_gain, sensor.afe_offset_A);

  NoiseState noise(config_, probe, run_id, sensor.storm_noise_mult);
  afe::Potentiostat pstat(config_.potentiostat);
  const afe::TriangleWaveform wf(protocol.e_start, protocol.e_vertex,
                                 protocol.scan_rate, protocol.cycles);

  CvCurve curve;
  curve.reserve(
      static_cast<std::size_t>(std::ceil(wf.duration() * protocol.sample_rate)) +
      1);
  SamplingClock clock(protocol.sample_rate);
  const double dt = config_.chem_dt;
  double i_prev = 0.0;
  const auto n_steps = static_cast<std::size_t>(std::ceil(wf.duration() / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    const double e_set = wf.value(t);
    // The recorded curve keeps the *programmed* potential; only the probe
    // sees the reference-drift shift.
    const double e_applied =
        pstat.applied_potential(e_set, i_prev, config_.cell_impedance) +
        sensor.reference_shift_V;
    double i_true = probe.step(e_applied, dt);
    if (config_.charging_current && channel.electrode != nullptr) {
      i_true += channel.electrode->charging_current(
          protocol.scan_rate * static_cast<double>(wf.direction(t)));
    }
    i_prev = i_true;

    if (clock.due(t + dt)) {
      const double drift = noise.step_drift(clock.period);
      const double i_sig =
          i_true + noise.signal_white() + drift + sensor.storm_current_A;
      const double i_blank = probe.blank_current() +
                             probe.blank_signal_fraction() *
                                 (i_true - probe.blank_current()) +
                             noise.blank_white() + drift +
                             sensor.storm_current_A;
      const double t_sample = clock.next();
      curve.push(t_sample, wf.value(t_sample), fe.sample(i_sig, i_blank));
      clock.advance();
    }
  }
  return curve;
}

PanelEntryResult MeasurementEngine::run_panel_entry(
    std::uint64_t run_id, Channel channel, const ChannelProtocol& protocol,
    afe::AnalogFrontEnd& fe, const afe::AnalogMux& mux,
    const PanelSlot& slot) const {
  PanelEntryResult entry;
  entry.probe_name = channel.probe->name();
  entry.technique = channel.probe->technique();
  entry.start_time = slot.t_start;
  entry.stop_time = slot.t_stop;

  if (std::holds_alternative<ChronoamperometryProtocol>(protocol)) {
    const auto& p = std::get<ChronoamperometryProtocol>(protocol);
    Trace raw = run_chronoamperometry_seeded(run_id, channel, p, fe);
    fold_mux_artifact(raw.time_mut(), raw.value_mut(), mux, slot.t_start,
                      slot.t_switch);
    entry.amperogram = std::move(raw);
  } else {
    const auto& p = std::get<CyclicVoltammetryProtocol>(protocol);
    CvCurve raw = run_cyclic_voltammetry_seeded(run_id, channel, p, fe);
    fold_mux_artifact(raw.time_mut(), raw.current_mut(), mux, slot.t_start,
                      slot.t_switch);
    entry.voltammogram = std::move(raw);
  }
  return entry;
}

std::size_t MeasurementEngine::lane_width() const {
  return config_.batch_lanes == 0 ? kDefaultPanelLanes : config_.batch_lanes;
}

std::vector<std::vector<std::size_t>> MeasurementEngine::lane_groups(
    std::span<const Channel> channels,
    std::span<const ChannelProtocol> protocols) const {
  util::require(channels.size() == protocols.size(),
                "one protocol per channel required");
  const std::size_t n = channels.size();
  const std::size_t width = lane_width();
  std::vector<std::vector<std::size_t>> groups;
  groups.reserve(n);
  std::vector<std::vector<std::size_t>> classes;
  for (std::size_t i = 0; i < n; ++i) {
    const auto* ox = dynamic_cast<const bio::OxidaseProbe*>(channels[i].probe);
    if (ox == nullptr ||
        !std::holds_alternative<ChronoamperometryProtocol>(protocols[i])) {
      groups.push_back({i});
      continue;
    }
    const auto& p = std::get<ChronoamperometryProtocol>(protocols[i]);
    const auto same_class = [&](const std::vector<std::size_t>& cls) {
      return lane_compatible(
          static_cast<const bio::OxidaseProbe&>(*channels[cls.front()].probe),
          std::get<ChronoamperometryProtocol>(protocols[cls.front()]), *ox, p);
    };
    const auto cls = std::find_if(classes.begin(), classes.end(), same_class);
    if (cls == classes.end()) {
      classes.push_back({i});
    } else {
      cls->push_back(i);
    }
  }
  // Chunk each compatibility class to the lane width; ragged tails form a
  // narrower group, and a chunk of one takes the scalar path.
  for (const std::vector<std::size_t>& cls : classes) {
    for (std::size_t begin = 0; begin < cls.size(); begin += width) {
      const std::size_t end = std::min(begin + width, cls.size());
      groups.emplace_back(cls.begin() + static_cast<std::ptrdiff_t>(begin),
                          cls.begin() + static_cast<std::ptrdiff_t>(end));
    }
  }
  return groups;
}

std::vector<Trace> MeasurementEngine::run_chronoamperometry_lanes(
    std::span<const std::uint64_t> run_ids, std::span<const Channel> channels,
    std::span<const ChronoamperometryProtocol> protocols,
    std::span<afe::AnalogFrontEnd* const> frontends) const {
  const std::size_t w = channels.size();
  util::require(w > 0 && run_ids.size() == w && protocols.size() == w &&
                    frontends.size() == w,
                "one run id, protocol and front end per lane");
  const ChronoamperometryProtocol& p0 = protocols[0];
  util::require(p0.duration > 0.0 && p0.sample_rate > 0.0,
                "invalid protocol");

  // Per-lane preamble, mirroring run_chronoamperometry_seeded: sensor state
  // applied to the probe, fresh probe state, front-end drift configured.
  std::vector<bio::OxidaseProbe*> probes(w);
  std::vector<const fault::SensorState*> sensors(w);
  for (std::size_t l = 0; l < w; ++l) {
    const Channel& channel = channels[l];
    util::require(channel.probe != nullptr && frontends[l] != nullptr,
                  "lane has no probe or front end");
    probes[l] = dynamic_cast<bio::OxidaseProbe*>(channel.probe);
    util::require(probes[l] != nullptr, "lane kernel needs oxidase probes");
    util::require(lane_compatible(*probes[0], p0, *probes[l], protocols[l]),
                  "lanes must share grid, duration and sample rate");
    sensors[l] = &channel.sensor;
    channel.probe->apply_sensor_state(channel.sensor);
    channel.probe->reset();
    frontends[l]->set_drift(channel.sensor.afe_gain,
                            channel.sensor.afe_offset_A);
  }
  bio::OxidaseLaneBatch batch(probes, sensors);

  std::vector<NoiseState> noise;
  noise.reserve(w);
  for (std::size_t l = 0; l < w; ++l) {
    noise.emplace_back(config_, *probes[l], run_ids[l],
                       sensors[l]->storm_noise_mult);
  }
  afe::Potentiostat pstat(config_.potentiostat);

  // Every lane shares duration and sample rate, so one sampling clock and
  // one step count drive them all; each lane keeps its own potential.
  std::vector<Trace> traces(w);
  for (Trace& trace : traces) {
    trace.reserve(
        static_cast<std::size_t>(std::ceil(p0.duration * p0.sample_rate)) + 1);
  }
  SamplingClock clock(p0.sample_rate);
  const double dt = config_.chem_dt;
  std::vector<double> i_prev(w, 0.0), e_applied(w), i_far(w);
  const auto n_steps = static_cast<std::size_t>(std::ceil(p0.duration / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    for (std::size_t l = 0; l < w; ++l) {
      e_applied[l] = pstat.applied_potential(protocols[l].potential, i_prev[l],
                                             config_.cell_impedance) +
                     sensors[l]->reference_shift_V;
    }
    batch.step(e_applied, dt, i_far);
    for (std::size_t l = 0; l < w; ++l) i_prev[l] = i_far[l];

    if (clock.due(t + dt)) {
      for (std::size_t l = 0; l < w; ++l) {
        const double drift = noise[l].step_drift(clock.period);
        const double i_sig = i_far[l] + noise[l].signal_white() + drift +
                             sensors[l]->storm_current_A;
        const double i_blank = probes[l]->blank_current() +
                               probes[l]->blank_signal_fraction() *
                                   (i_far[l] - probes[l]->blank_current()) +
                               noise[l].blank_white() + drift +
                               sensors[l]->storm_current_A;
        traces[l].push(clock.next(), frontends[l]->sample(i_sig, i_blank));
      }
      clock.advance();
    }
  }
  return traces;
}

std::vector<Trace> MeasurementEngine::run_lane_group(
    std::span<const std::size_t> group, std::span<const std::uint64_t> run_ids,
    std::span<const Channel> channels, std::span<const ChannelProtocol> protocols,
    std::span<afe::AnalogFrontEnd* const> frontends) const {
  const std::size_t w = group.size();
  std::vector<std::uint64_t> lane_run_ids(w);
  std::vector<Channel> lane_channels(w);
  std::vector<ChronoamperometryProtocol> lane_protocols(w);
  std::vector<afe::AnalogFrontEnd*> lane_frontends(w);
  for (std::size_t l = 0; l < w; ++l) {
    const std::size_t i = group[l];
    lane_run_ids[l] = run_ids[i];
    lane_channels[l] = channels[i];
    lane_protocols[l] = std::get<ChronoamperometryProtocol>(protocols[i]);
    lane_frontends[l] = frontends[i];
  }
  return run_chronoamperometry_lanes(lane_run_ids, lane_channels,
                                     lane_protocols, lane_frontends);
}

void MeasurementEngine::run_panel_lane_group(
    std::span<const std::size_t> group, std::span<const std::uint64_t> run_ids,
    std::span<const Channel> channels, std::span<const ChannelProtocol> protocols,
    std::span<afe::AnalogFrontEnd* const> frontends, const afe::AnalogMux& mux,
    std::span<const PanelSlot> slots, std::span<PanelEntryResult> entries) const {
  std::vector<Trace> traces =
      run_lane_group(group, run_ids, channels, protocols, frontends);

  // Per-lane postprocessing, mirroring run_panel_entry's CA branch.
  for (std::size_t l = 0; l < group.size(); ++l) {
    const std::size_t c = group[l];
    PanelEntryResult& entry = entries[c];
    entry.probe_name = channels[c].probe->name();
    entry.technique = channels[c].probe->technique();
    entry.start_time = slots[c].t_start;
    entry.stop_time = slots[c].t_stop;
    fold_mux_artifact(traces[l].time_mut(), traces[l].value_mut(), mux,
                      slots[c].t_start, slots[c].t_switch);
    entry.amperogram = std::move(traces[l]);
  }
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
  // channel measurements are independent jobs.
  const std::uint64_t base_id = reserve_run_ids(n);
  std::vector<std::uint64_t> run_ids(n);
  std::vector<PanelSlot> slots(n);
  double t_global = 0.0;
  for (std::size_t c = 0; c < n; ++c) {
    run_ids[c] = base_id + c + 1;
    mux.select(c, t_global);
    slots[c].t_switch = mux.last_switch();
    t_global += mux.spec().settle_time;
    slots[c].t_start = t_global;
    if (std::holds_alternative<ChronoamperometryProtocol>(protocols[c])) {
      t_global += std::get<ChronoamperometryProtocol>(protocols[c]).duration;
    } else {
      const auto& p = std::get<CyclicVoltammetryProtocol>(protocols[c]);
      const afe::TriangleWaveform wf(p.e_start, p.e_vertex, p.scan_rate,
                                     p.cycles);
      t_global += wf.duration();
    }
    slots[c].t_stop = t_global;
  }

  // Compatible chronoamperometric oxidase channels step in lockstep lane
  // groups; everything else keeps the scalar per-channel path. Lane
  // membership cannot leak into results (per-channel run ids seed all
  // randomness), so every width yields bitwise-identical scans.
  const std::vector<std::vector<std::size_t>> jobs =
      lane_groups(channels, protocols);

  PanelScanResult result;
  result.entries.resize(n);
  result.total_time = t_global;
  const BatchRunner runner(parallelism);
  runner.run(jobs.size(), [&](std::size_t j) {
    const std::vector<std::size_t>& group = jobs[j];
    if (group.size() == 1) {
      const std::size_t c = group.front();
      result.entries[c] = run_panel_entry(run_ids[c], channels[c],
                                          protocols[c], *frontends[c], mux,
                                          slots[c]);
    } else {
      run_panel_lane_group(group, run_ids, channels, protocols, frontends,
                           mux, slots, result.entries);
    }
  });
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
