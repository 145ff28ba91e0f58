/// \file lane_kernel_test.cpp
/// Equivalence oracles of the measurement executor against the scalar
/// path:
///  - split oracle: the physics pass plus the acquisition pass equal a
///    test-side copy of the engine's former fused CA and CV loops, bitwise,
///    for every probe family x {pristine, aged, storm} x {CA, CV}, on the
///    scalar path and in lanes;
///  - lane oracles: every lane of an oxidase CA group and of a CYP CV group
///    digests equal to run_*_seeded with the same run id and a freshly
///    seeded front end, at widths 1..9 in two lane orders; CypLaneBatch
///    equals CypProbe::step per step;
///  - executor oracle: campaign- and cohort-shaped batches, whose runs
///    share front ends, equal the sequential `_seeded` calls in submission
///    order at lane widths 1..9 and parallelism 1, 2 and hardware;
///  - the one grouping rule (lane_groups) the executor uses.

#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "afe/waveform.hpp"
#include "bio/cyp_batch.hpp"
#include "bio/library.hpp"
#include "bio/oxidase_batch.hpp"
#include "common/determinism.hpp"
#include "util/random.hpp"

namespace idp::sim {
namespace {

constexpr bio::TargetId kOxidases[] = {bio::TargetId::kGlucose,
                                       bio::TargetId::kLactate,
                                       bio::TargetId::kGlutamate};

/// The CYP probes the CV oracles cycle through: single-target films and
/// the two-target CYP2B4 film (benzphetamine + aminopyrine).
enum class Cyp { kClozapine, kCholesterol, kCyp2b4 };
constexpr Cyp kCyps[] = {Cyp::kClozapine, Cyp::kCyp2b4, Cyp::kCholesterol};

/// Calibrated prototypes, built once; every measurement runs on a clone.
const bio::Probe& oxidase(bio::TargetId target) {
  static const std::map<bio::TargetId, bio::ProbePtr> probes = [] {
    std::map<bio::TargetId, bio::ProbePtr> built;
    for (bio::TargetId t : kOxidases) built[t] = bio::make_probe(t);
    return built;
  }();
  return *probes.at(target);
}

const bio::Probe& cyp(Cyp which) {
  static const std::map<Cyp, bio::ProbePtr> probes = [] {
    std::map<Cyp, bio::ProbePtr> built;
    built[Cyp::kClozapine] = bio::make_probe(bio::TargetId::kClozapine);
    built[Cyp::kCholesterol] = bio::make_probe(bio::TargetId::kCholesterol);
    const std::array<bio::TargetId, 2> cyp2b4 = {
        bio::TargetId::kBenzphetamine, bio::TargetId::kAminopyrine};
    built[Cyp::kCyp2b4] = bio::make_cyp_probe(cyp2b4);
    return built;
  }();
  return *probes.at(which);
}

const bio::Probe& dopamine() {
  static const bio::ProbePtr probe = bio::make_probe(bio::TargetId::kDopamine);
  return *probe;
}

/// A clone with every target at `mM` times its index + 1 (0 stays 0).
bio::ProbePtr clone_at(const bio::Probe& prototype, double mM) {
  bio::ProbePtr probe = prototype.clone();
  double scale = 1.0;
  for (const std::string& t : probe->targets()) {
    probe->set_bulk_concentration(t, mM * scale);
    scale += 0.5;
  }
  return probe;
}

fault::SensorState aged() {
  fault::SensorState s;
  s.enzyme_activity = 0.8;
  s.membrane_transmission = 0.6;
  s.reference_shift_V = -2.5e-3;
  s.afe_gain = 1.03;
  s.afe_offset_A = 2.0e-10;
  return s;
}

fault::SensorState storm() {
  fault::SensorState s;
  s.storm_current_A = 3.0e-9;
  s.storm_noise_mult = 2.5;
  return s;
}

/// The sensor conditions the lane oracles cycle through: pristine plus each
/// aging mechanism a lane must carry on its own.
std::vector<fault::SensorState> sensor_states() {
  fault::SensorState fouled;
  fouled.membrane_transmission = 0.6;
  fault::SensorState decayed;
  decayed.enzyme_activity = 0.7;
  fault::SensorState shifted;
  shifted.reference_shift_V = 4.0e-3;
  shifted.afe_gain = 1.03;
  shifted.afe_offset_A = 2.0e-10;
  fault::SensorState everything = aged();
  everything.storm_current_A = 1.0e-9;
  everything.storm_noise_mult = 1.5;
  return {fault::SensorState{}, fouled, decayed, shifted, storm(), everything};
}

afe::AfeConfig frontend_config(std::uint64_t seed) {
  afe::AfeConfig c;
  c.tia = afe::lab_grade_tia();
  c.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                       .sample_rate = 10.0};
  c.seed = 1000 + seed;
  return c;
}

ChronoamperometryProtocol ca_protocol(double potential) {
  ChronoamperometryProtocol p;
  p.potential = potential;
  p.duration = 3.0;
  p.sample_rate = 10.0;
  return p;
}

/// A short cathodic sweep across every CYP target's wave (1 V at
/// 0.1 V/s keeps the oracles fast).
CyclicVoltammetryProtocol cv_protocol() {
  CyclicVoltammetryProtocol p;
  p.e_start = 0.1;
  p.e_vertex = -0.4;
  p.scan_rate = 0.1;
  p.sample_rate = 10.0;
  return p;
}

const chem::Electrode& electrode() {
  static const chem::Electrode e(
      chem::ElectrodeRole::kWorking, chem::ElectrodeMaterial::kGold,
      chem::ElectrodeGeometry{0.23e-6}, chem::Nanostructure::kCarbonNanotube);
  return e;
}

std::uint64_t digest_of(const Readout& r) {
  test::BitDigest d;
  test::fold(d, r.amperogram);
  test::fold(d, r.voltammogram);
  return d.value();
}

// --- the former fused loops, kept test-side as the split oracle's reference

/// The engine's per-run noise streams, seeded as the engine seeds them.
struct ReferenceNoise {
  util::Rng white_signal, white_blank;
  util::DriftProcess drift;
  double white_rms;
  bool enabled;
  ReferenceNoise(const EngineConfig& cfg, const bio::Probe& probe,
                 std::uint64_t run_id, double white_mult)
      : white_signal(cfg.seed + run_id * 0x9e3779b97f4a7c15ULL),
        white_blank(cfg.seed + run_id * 0x9e3779b97f4a7c15ULL + 1),
        drift(cfg.drift_scale * probe.blank_noise_rms(), cfg.drift_tau,
              cfg.seed + run_id * 0x9e3779b97f4a7c15ULL + 2),
        white_rms(probe.blank_noise_rms() * white_mult),
        enabled(cfg.sensor_noise) {}
  double step_drift(double dt) { return enabled ? drift.step(dt) : 0.0; }
  double signal_white() {
    return enabled ? white_signal.gaussian(white_rms) : 0.0;
  }
  double blank_white() {
    return enabled ? white_blank.gaussian(white_rms) : 0.0;
  }
};

/// Physics and acquisition interleaved per step, as the engine ran them
/// before the split: CA when `cv` is null, the CV sweep otherwise.
Readout fused(const EngineConfig& cfg, std::uint64_t run_id,
              const Channel& channel, const ChannelProtocol& protocol,
              afe::AnalogFrontEnd& fe) {
  const fault::SensorState& sensor = channel.sensor;
  bio::Probe& probe = *channel.probe;
  probe.apply_sensor_state(sensor);
  probe.reset();
  fe.set_drift(sensor.afe_gain, sensor.afe_offset_A);
  ReferenceNoise noise(cfg, probe, run_id, sensor.storm_noise_mult);
  const afe::Potentiostat pstat(cfg.potentiostat);
  const auto* cv = std::get_if<CyclicVoltammetryProtocol>(&protocol);
  const auto* ca = std::get_if<ChronoamperometryProtocol>(&protocol);
  std::optional<afe::TriangleWaveform> wf;
  if (cv != nullptr) {
    wf.emplace(cv->e_start, cv->e_vertex, cv->scan_rate, cv->cycles);
  }
  const double duration = cv != nullptr ? wf->duration() : ca->duration;
  const double period = 1.0 / (cv != nullptr ? cv->sample_rate : ca->sample_rate);
  std::size_t samples = 0;
  Readout out;
  const double dt = cfg.chem_dt;
  double i_prev = 0.0;
  const auto n_steps = static_cast<std::size_t>(std::ceil(duration / dt));
  for (std::size_t k = 0; k < n_steps; ++k) {
    const double t = static_cast<double>(k) * dt;
    const double e_set = cv != nullptr ? wf->value(t) : ca->potential;
    const double e_applied =
        pstat.applied_potential(e_set, i_prev, cfg.cell_impedance) +
        sensor.reference_shift_V;
    double i_true = probe.step(e_applied, dt);
    if (cv != nullptr && cfg.charging_current && channel.electrode != nullptr) {
      i_true += channel.electrode->charging_current(
          cv->scan_rate * static_cast<double>(wf->direction(t)));
    }
    i_prev = i_true;
    const double next = static_cast<double>(samples + 1) * period;
    if (t + dt >= next) {
      const double drift = noise.step_drift(period);
      const double i_sig =
          i_true + noise.signal_white() + drift + sensor.storm_current_A;
      const double i_blank = probe.blank_current() +
                             probe.blank_signal_fraction() *
                                 (i_true - probe.blank_current()) +
                             noise.blank_white() + drift +
                             sensor.storm_current_A;
      if (cv != nullptr) {
        out.voltammogram.push(next, wf->value(next), fe.sample(i_sig, i_blank));
      } else {
        out.amperogram.push(next, fe.sample(i_sig, i_blank));
      }
      ++samples;
    }
  }
  return out;
}

/// One measurement's inputs, owned: everything its readout is a function
/// of apart from the engine.
struct RunSpec {
  bio::ProbePtr probe;
  const chem::Electrode* electrode = nullptr;
  fault::SensorState sensor;
  ChannelProtocol protocol;
  std::uint64_t run_id = 0;
  std::uint64_t fe_seed = 0;
};

RunSpec make_run(const bio::Probe& prototype, double mM,
             const fault::SensorState& sensor, ChannelProtocol protocol,
             std::uint64_t run_id, const chem::Electrode* e = nullptr) {
  return RunSpec{clone_at(prototype, mM), e, sensor, protocol, run_id, run_id};
}

/// Execute `runs` as one batch, each on a fresh front end of its own.
std::vector<Readout> execute_runs(const MeasurementEngine& engine,
                                  const std::vector<RunSpec>& runs,
                                  std::size_t parallelism = 1) {
  std::vector<std::unique_ptr<afe::AnalogFrontEnd>> fes;
  std::vector<Measurement> batch;
  for (const RunSpec& r : runs) {
    fes.push_back(
        std::make_unique<afe::AnalogFrontEnd>(frontend_config(r.fe_seed)));
    batch.push_back(Measurement{
        r.run_id, Channel{r.probe.get(), r.electrode, r.sensor}, r.protocol,
        fes.back().get()});
  }
  return engine.execute(batch, parallelism);
}

Readout reference(const EngineConfig& cfg, const RunSpec& r) {
  afe::AnalogFrontEnd fe(frontend_config(r.fe_seed));
  return fused(cfg, r.run_id, Channel{r.probe.get(), r.electrode, r.sensor},
               r.protocol, fe);
}

TEST(SplitOracle, RecordPlusAcquisitionEqualsTheFusedLoopsBitwise) {
  EngineConfig cfg;
  cfg.seed = 4321;
  const MeasurementEngine engine(cfg);
  const fault::SensorState states[] = {fault::SensorState{}, aged(), storm()};
  const bio::Probe* families[] = {&oxidase(bio::TargetId::kGlucose),
                                  &oxidase(bio::TargetId::kLactate),
                                  &cyp(Cyp::kClozapine), &cyp(Cyp::kCyp2b4),
                                  &dopamine()};

  // Every family under both techniques and every condition; CV runs
  // alternate with and without a charging electrode.
  for (const bool sweep : {false, true}) {
    std::vector<RunSpec> runs;
    std::uint64_t id = sweep ? 500 : 100;
    for (const bio::Probe* family : families) {
      for (const fault::SensorState& state : states) {
        const ChannelProtocol protocol =
            sweep ? ChannelProtocol{cv_protocol()}
                  : ChannelProtocol{ca_protocol(0.6)};
        const chem::Electrode* e = sweep && id % 2 == 0 ? &electrode() : nullptr;
        runs.push_back(make_run(*family, 0.3, state, protocol, ++id, e));
      }
    }
    std::vector<std::uint64_t> want;
    for (const RunSpec& r : runs) want.push_back(digest_of(reference(cfg, r)));

    // Scalar path: one measurement at a time.
    for (std::size_t i = 0; i < runs.size(); ++i) {
      afe::AnalogFrontEnd fe(frontend_config(runs[i].fe_seed));
      const Channel channel{runs[i].probe.get(), runs[i].electrode,
                            runs[i].sensor};
      Readout got;
      if (sweep) {
        got.voltammogram = engine.run_cyclic_voltammetry_seeded(
            runs[i].run_id, channel,
            std::get<CyclicVoltammetryProtocol>(runs[i].protocol), fe);
      } else {
        got.amperogram = engine.run_chronoamperometry_seeded(
            runs[i].run_id, channel,
            std::get<ChronoamperometryProtocol>(runs[i].protocol), fe);
      }
      EXPECT_EQ(digest_of(got), want[i])
          << (sweep ? "CV" : "CA") << " run " << i << " (scalar)";
    }

    // In lanes: the oxidase reads (CA) or the CYP sweeps (CV) form one
    // lane group, the rest stay scalar.
    std::vector<Measurement> shape;
    for (const RunSpec& r : runs) {
      shape.push_back(Measurement{r.run_id, Channel{r.probe.get(), r.electrode,
                                                    r.sensor},
                                  r.protocol, nullptr});
    }
    std::size_t widest = 0;
    for (const auto& g : engine.lane_groups(shape)) {
      widest = std::max(widest, g.size());
    }
    EXPECT_EQ(widest, 6u) << "the lane class did not form";
    const std::vector<Readout> got = execute_runs(engine, runs);
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(digest_of(got[i]), want[i])
          << (sweep ? "CV" : "CA") << " run " << i << " (batch)";
    }
  }
}

/// Each run alone, through the scalar path.
std::vector<std::uint64_t> scalar_digests(std::uint64_t seed,
                                          const std::vector<RunSpec>& runs) {
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.batch_lanes = 1;
  const MeasurementEngine engine(cfg);
  std::vector<std::uint64_t> digests;
  for (const Readout& r : execute_runs(engine, runs)) {
    digests.push_back(digest_of(r));
  }
  return digests;
}

/// `lanes` as one lane group (lane width = their count) against `want`.
void expect_one_group_matches(std::uint64_t seed, std::vector<RunSpec>& lanes,
                              const std::vector<std::uint64_t>& want,
                              const char* what) {
  EngineConfig cfg;
  cfg.seed = seed;
  cfg.batch_lanes = lanes.size();
  const MeasurementEngine engine(cfg);
  const std::vector<Readout> got = execute_runs(engine, lanes);
  ASSERT_EQ(got.size(), lanes.size());
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    EXPECT_EQ(digest_of(got[l]), want[l])
        << what << " width " << lanes.size() << ", lane " << l << " (run id "
        << lanes[l].run_id << ") diverges from the scalar path";
  }
}

TEST(LaneKernel, EveryOxidaseLaneMatchesTheScalarPathBitwise) {
  const std::vector<fault::SensorState> states = sensor_states();
  for (std::size_t w = 1; w <= 9; ++w) {
    std::vector<RunSpec> lanes;
    for (std::size_t l = 0; l < w; ++l) {
      const bio::TargetId t = kOxidases[(l + w) % 3];
      lanes.push_back(make_run(oxidase(t), 0.4 + 0.3 * static_cast<double>(l),
                               states[(l + w) % states.size()],
                               ca_protocol(bio::spec(t).operating_potential),
                               100 * w + l));
    }
    std::vector<std::uint64_t> want = scalar_digests(777, lanes);
    expect_one_group_matches(777, lanes, want, "CA");
    std::reverse(lanes.begin(), lanes.end());
    std::reverse(want.begin(), want.end());
    expect_one_group_matches(777, lanes, want, "CA reversed");
  }
}

TEST(LaneKernel, EveryCypLaneMatchesTheScalarPathBitwise) {
  // Single- and two-target films, zero and non-zero bulk, lanes with and
  // without a charging electrode, every sensor condition.
  const std::vector<fault::SensorState> states = sensor_states();
  for (std::size_t w = 1; w <= 9; ++w) {
    std::vector<RunSpec> lanes;
    for (std::size_t l = 0; l < w; ++l) {
      const double mM = (l + w) % 4 == 0 ? 0.0 : 0.05 * static_cast<double>(l + 1);
      lanes.push_back(make_run(cyp(kCyps[(l + w) % 3]), mM,
                               states[(l + 2 * w) % states.size()],
                               cv_protocol(), 300 * w + l,
                               l % 2 == 0 ? &electrode() : nullptr));
    }
    std::vector<std::uint64_t> want = scalar_digests(991, lanes);
    expect_one_group_matches(991, lanes, want, "CV");
    std::reverse(lanes.begin(), lanes.end());
    std::reverse(want.begin(), want.end());
    expect_one_group_matches(991, lanes, want, "CV reversed");
  }
}

TEST(CypLaneBatch, MatchesScalarProbeStepBitwise) {
  const std::vector<fault::SensorState> states = sensor_states();
  constexpr double kDt = 5.0e-3;
  for (std::size_t w = 1; w <= 9; ++w) {
    for (const bool reversed : {false, true}) {
      std::vector<bio::ProbePtr> scalar, batched;
      std::vector<const bio::CypProbe*> probes;
      std::vector<const fault::SensorState*> sensors;
      for (std::size_t i = 0; i < w; ++i) {
        const std::size_t l = reversed ? w - 1 - i : i;
        const double mM = l % 3 == 0 ? 0.0 : 0.04 * static_cast<double>(l);
        const fault::SensorState& state = states[(l + w) % states.size()];
        scalar.push_back(clone_at(cyp(kCyps[l % 3]), mM));
        scalar.back()->apply_sensor_state(state);
        scalar.back()->reset();
        batched.push_back(clone_at(cyp(kCyps[l % 3]), mM));
        probes.push_back(static_cast<const bio::CypProbe*>(batched.back().get()));
        sensors.push_back(&state);
      }
      bio::CypLaneBatch batch(probes, sensors);
      std::vector<double> e(w), i_out(w);
      std::size_t mismatches = 0;
      // Down past every target's wave and back, a different potential per
      // lane.
      for (int k = 0; k < 400; ++k) {
        const double sweep = k < 200 ? 0.1 - 0.004 * k : -0.7 + 0.004 * (k - 200);
        for (std::size_t c = 0; c < w; ++c) {
          e[c] = sweep + 1.0e-3 * static_cast<double>(c);
        }
        batch.step(e, kDt, i_out);
        for (std::size_t c = 0; c < w; ++c) {
          if (i_out[c] != scalar[c]->step(e[c], kDt)) ++mismatches;
        }
      }
      EXPECT_EQ(mismatches, 0u) << "width " << w
                                << (reversed ? " reversed" : " forward");
    }
  }
}

TEST(LaneKernel, LaneBatchesRejectIncompatibleOrUnphysicalLanes) {
  // Node-identical grids are the one structural requirement.
  bio::OxidaseProbeParams thin;
  thin.membrane_grid_nodes = 12;
  bio::OxidaseProbe odd(thin);
  bio::ProbePtr glucose = oxidase(bio::TargetId::kGlucose).clone();
  const fault::SensorState pristine;
  std::vector<bio::OxidaseProbe*> ox{
      static_cast<bio::OxidaseProbe*>(glucose.get()), &odd};
  std::vector<const fault::SensorState*> two{&pristine, &pristine};
  EXPECT_THROW(bio::OxidaseLaneBatch(ox, two), std::invalid_argument);

  bio::CypProbeParams wide;
  wide.nernst_layer = 80e-6;
  wide.targets.push_back(bio::CypTargetParams{});
  const bio::CypProbe far(wide);
  std::vector<const bio::CypProbe*> cyps{
      static_cast<const bio::CypProbe*>(&cyp(Cyp::kClozapine)), &far};
  EXPECT_THROW(bio::CypLaneBatch(cyps, two), std::invalid_argument);

  // A sensor state no sensor can be in fails at construction, before any
  // step: +inf activity or transmission, in either batch.
  for (const bool transmission : {false, true}) {
    fault::SensorState inf;
    (transmission ? inf.membrane_transmission : inf.enzyme_activity) =
        std::numeric_limits<double>::infinity();
    std::vector<const fault::SensorState*> bad{&pristine, &inf};
    std::vector<bio::OxidaseProbe*> same_ox{ox[0], ox[0]};
    EXPECT_THROW(bio::OxidaseLaneBatch(same_ox, bad), std::invalid_argument);
    std::vector<const bio::CypProbe*> same_cyp{cyps[0], cyps[0]};
    EXPECT_THROW(bio::CypLaneBatch(same_cyp, bad), std::invalid_argument);
  }
}

/// A campaign-shaped batch: `blanks` runs on one zero-bulk probe, then one
/// run per level on its own clone, all through one front end.
struct Campaign {
  std::vector<bio::ProbePtr> probes;
  std::vector<Measurement> batch;
};

Campaign campaign(const bio::Probe& prototype, const ChannelProtocol& protocol,
                  const fault::SensorState& sensor, afe::AnalogFrontEnd* fe) {
  Campaign c;
  c.probes.push_back(clone_at(prototype, 0.0));
  std::uint64_t id = 4096;
  for (int b = 0; b < 6; ++b) {
    c.batch.push_back(Measurement{++id, Channel{c.probes[0].get(), nullptr,
                                                sensor},
                                  protocol, fe});
  }
  for (const double mM : {0.02, 0.05, 0.1, 0.2, 0.4}) {
    c.probes.push_back(clone_at(prototype, mM));
    c.batch.push_back(Measurement{
        ++id, Channel{c.probes.back().get(), nullptr, sensor}, protocol, fe});
  }
  return c;
}

/// A cohort-timepoint-shaped batch over both techniques: per channel a QC
/// blank and a QC standard on the channel's QC front end, and the scan on
/// its diagnostic front end.
struct Timepoint {
  std::vector<bio::ProbePtr> probes;
  std::vector<Measurement> batch;
};

Timepoint timepoint(std::span<afe::AnalogFrontEnd* const> fes) {
  Timepoint tp;
  const fault::SensorState sensor = aged();
  const std::pair<const bio::Probe*, ChannelProtocol> channels[] = {
      {&oxidase(bio::TargetId::kGlucose), ca_protocol(0.6)},
      {&cyp(Cyp::kClozapine), cv_protocol()}};
  std::uint64_t c = 0;
  for (const auto& [prototype, protocol] : channels) {
    for (const double mM : {0.0, 0.3, 0.17}) {
      tp.probes.push_back(clone_at(*prototype, mM));
      const bool scan = mM == 0.17;
      tp.batch.push_back(Measurement{
          scan ? 10 + c : (1ULL << 40) + 2 * c + (mM > 0.0 ? 2 : 1),
          Channel{tp.probes.back().get(), nullptr, sensor}, protocol,
          fes[2 * c + (scan ? 1 : 0)]});
    }
    ++c;
  }
  return tp;
}

/// The executor against the sequential `_seeded` calls, in submission
/// order, on front ends seeded alike; also compares the front ends' states
/// afterwards (one more sample each).
void expect_batch_matches_sequential(
    const std::function<std::vector<Measurement>(
        std::span<afe::AnalogFrontEnd* const>)>& make,
    std::size_t n_frontends, const char* what) {
  const auto fresh = [&](std::vector<std::unique_ptr<afe::AnalogFrontEnd>>& own) {
    std::vector<afe::AnalogFrontEnd*> fes;
    for (std::size_t f = 0; f < n_frontends; ++f) {
      own.push_back(std::make_unique<afe::AnalogFrontEnd>(frontend_config(f)));
      fes.push_back(own.back().get());
    }
    return fes;
  };
  EngineConfig cfg;
  cfg.seed = 2718;
  std::vector<std::unique_ptr<afe::AnalogFrontEnd>> ref_own;
  const std::vector<afe::AnalogFrontEnd*> ref_fes = fresh(ref_own);
  const std::vector<Measurement> ref_batch = make(ref_fes);
  std::vector<std::uint64_t> want;
  const MeasurementEngine sequential(cfg);
  for (const Measurement& m : ref_batch) {
    Readout r;
    if (const auto* ca = std::get_if<ChronoamperometryProtocol>(&m.protocol)) {
      r.amperogram = sequential.run_chronoamperometry_seeded(
          m.run_id, m.channel, *ca, *m.frontend);
    } else {
      r.voltammogram = sequential.run_cyclic_voltammetry_seeded(
          m.run_id, m.channel, std::get<CyclicVoltammetryProtocol>(m.protocol),
          *m.frontend);
    }
    want.push_back(digest_of(r));
  }
  std::vector<double> want_after;
  for (afe::AnalogFrontEnd* fe : ref_fes) want_after.push_back(fe->sample(1e-9));

  for (std::size_t w = 1; w <= 9; ++w) {
    for (const std::size_t parallelism : {1, 2, 0}) {
      cfg.batch_lanes = w;
      const MeasurementEngine engine(cfg);
      std::vector<std::unique_ptr<afe::AnalogFrontEnd>> own;
      const std::vector<afe::AnalogFrontEnd*> fes = fresh(own);
      const std::vector<Measurement> batch = make(fes);
      const std::vector<Readout> got = engine.execute(batch, parallelism);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(digest_of(got[i]), want[i])
            << what << ": width " << w << ", parallelism " << parallelism
            << ", run " << i;
      }
      for (std::size_t f = 0; f < fes.size(); ++f) {
        EXPECT_EQ(fes[f]->sample(1e-9), want_after[f])
            << what << ": front end " << f << " left in another state";
      }
    }
  }
}

TEST(Executor, CampaignBatchesMatchSequentialSeededCalls) {
  const std::pair<const bio::Probe*, ChannelProtocol> cases[] = {
      {&oxidase(bio::TargetId::kGlucose), ca_protocol(0.6)},
      {&cyp(Cyp::kClozapine), cv_protocol()}};
  for (const auto& [prototype, protocol] : cases) {
    std::vector<bio::ProbePtr> keep;
    expect_batch_matches_sequential(
        [&](std::span<afe::AnalogFrontEnd* const> fes) {
          Campaign c = campaign(*prototype, protocol, aged(), fes[0]);
          for (bio::ProbePtr& p : c.probes) keep.push_back(std::move(p));
          return c.batch;
        },
        1, std::holds_alternative<ChronoamperometryProtocol>(protocol)
               ? "CA campaign"
               : "CV campaign");
  }
}

TEST(Executor, CohortTimepointBatchesMatchSequentialSeededCalls) {
  std::vector<bio::ProbePtr> keep;
  expect_batch_matches_sequential(
      [&](std::span<afe::AnalogFrontEnd* const> fes) {
        Timepoint tp = timepoint(fes);
        for (bio::ProbePtr& p : tp.probes) keep.push_back(std::move(p));
        return tp.batch;
      },
      4, "cohort timepoint");
}

TEST(Executor, RejectsAnUnphysicalSensorStateBeforeAcquiring) {
  const MeasurementEngine engine;
  for (const bio::Probe* prototype :
       {&oxidase(bio::TargetId::kGlucose), &cyp(Cyp::kClozapine)}) {
    for (const bool transmission : {false, true}) {
      fault::SensorState inf;
      (transmission ? inf.membrane_transmission : inf.enzyme_activity) =
          std::numeric_limits<double>::infinity();
      const bio::ProbePtr probe = clone_at(*prototype, 0.0);
      EXPECT_THROW(probe->apply_sensor_state(inf), std::invalid_argument);
      afe::AnalogFrontEnd fe(frontend_config(1));
      afe::AnalogFrontEnd untouched(frontend_config(1));
      const ChannelProtocol protocol =
          prototype->technique() == bio::Technique::kChronoamperometry
              ? ChannelProtocol{ca_protocol(0.6)}
              : ChannelProtocol{cv_protocol()};
      const Measurement m{1, Channel{probe.get(), nullptr, inf}, protocol, &fe};
      EXPECT_THROW((void)engine.execute({&m, 1}), std::invalid_argument);
      EXPECT_EQ(fe.sample(1e-9), untouched.sample(1e-9))
          << "a rejected batch must not touch its front ends";
    }
  }
}

TEST(LaneKernel, GroupsAreCompatibleChunksOfTheLaneWidth) {
  // Twelve 3 s oxidase reads, two 2 s oxidase reads, a CV sweep on an
  // oxidase, a direct-oxidiser read, three CYP sweeps of one class, a CYP
  // sweep at another scan rate and a read with an injection: the 3 s
  // class chunks into 8 + 4, the 2 s pair and the CYP class form their own
  // groups, and everything else stays scalar.
  std::vector<bio::ProbePtr> probes;
  std::vector<Measurement> batch;
  const auto add = [&](bio::ProbePtr probe, ChannelProtocol protocol) {
    probes.push_back(std::move(probe));
    batch.push_back(
        Measurement{0, Channel{probes.back().get(), nullptr}, protocol, nullptr});
  };
  for (std::size_t i = 0; i < 14; ++i) {
    const bio::TargetId t = kOxidases[i % 3];
    ChronoamperometryProtocol p = ca_protocol(0.6);
    if (i == 5 || i == 9) p.duration = 2.0;
    add(oxidase(t).clone(), p);
  }
  add(oxidase(bio::TargetId::kGlucose).clone(), cv_protocol());
  add(dopamine().clone(), ca_protocol(0.6));
  for (const Cyp c : kCyps) add(cyp(c).clone(), cv_protocol());
  CyclicVoltammetryProtocol faster = cv_protocol();
  faster.scan_rate = 0.2;
  add(cyp(Cyp::kClozapine).clone(), faster);
  const InjectionEvent spike{1.0, "glucose", 2.0};
  add(oxidase(bio::TargetId::kGlucose).clone(), ca_protocol(0.6));
  batch.back().injections = {&spike, 1};

  const MeasurementEngine engine;
  ASSERT_EQ(engine.lane_width(), 8u);
  const auto sizes_at = [&](const MeasurementEngine& e, std::size_t p) {
    std::vector<std::size_t> sizes;
    std::vector<int> seen(batch.size(), 0);
    for (const auto& group : e.lane_groups(batch, p)) {
      sizes.push_back(group.size());
      for (std::size_t i : group) ++seen[i];
      EXPECT_TRUE(std::is_sorted(group.begin(), group.end()));
    }
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(seen[i], 1) << "measurement " << i;
    }
    std::sort(sizes.begin(), sizes.end());
    return sizes;
  };
  EXPECT_EQ(sizes_at(engine, 1),
            (std::vector<std::size_t>{1, 1, 1, 1, 2, 3, 4, 8}));
  // With four workers a class first spreads over the threads: 12 reads in
  // groups of 3, and classes no larger than the worker count run scalar.
  EXPECT_EQ(sizes_at(engine, 4), (std::vector<std::size_t>{
                                     1, 1, 1, 1, 1, 1, 1, 1, 1, 3, 3, 3, 3}));

  EngineConfig scalar;
  scalar.batch_lanes = 1;
  EXPECT_EQ(MeasurementEngine(scalar).lane_groups(batch).size(), batch.size())
      << "lane width 1 must keep every measurement scalar";
}

}  // namespace
}  // namespace idp::sim
