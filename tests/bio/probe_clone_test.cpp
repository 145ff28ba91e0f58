/// \file probe_clone_test.cpp
/// Equivalence oracle for Probe::clone(): a clone of a never-measured
/// campaign-probe prototype must measure bit-for-bit what a freshly built
/// probe measures -- for every library target, on a pristine and an aged
/// sensor, through chronoamperometry and cyclic voltammetry, both as the
/// digitised engine read and as raw faradaic current -- and measuring one
/// clone must leave the prototype pristine for the next.
/// This is what lets quant::CalibrationStore characterise each probe once
/// and serve every measurement from a clone.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "bio/library.hpp"
#include "common/determinism.hpp"
#include "fault/sensor_state.hpp"
#include "quant/calibration_store.hpp"
#include "sim/engine.hpp"

namespace idp::bio {
namespace {

constexpr std::uint64_t kRunId = 41;
constexpr std::uint64_t kFrontendSeed = 0xc10e;

/// Aged sensor exercising every probe-side degradation hook plus the
/// engine-side reference shift and interference storm.
fault::SensorState aged_sensor() {
  fault::SensorState s;
  s.age_days = 21.0;
  s.enzyme_activity = 0.7;
  s.membrane_transmission = 0.8;
  s.reference_shift_V = -0.015;
  s.storm_current_A = 4.0e-9;
  s.storm_noise_mult = 2.5;
  return s;
}

/// A short read of either technique for any target: CYP films get their
/// campaign sweep and a cathodic hold; oxidase and direct probes get their
/// campaign potential held for 2 s and a fast sweep up to it.
sim::ChannelProtocol protocol_for(TargetId target, Technique technique) {
  const sim::ChannelProtocol campaign_read =
      quant::default_protocol_for(quant::CampaignConfig{}, target);
  const bool cyp = spec(target).family == ProbeFamily::kCytochromeP450;
  if (cyp && technique == Technique::kCyclicVoltammetry) return campaign_read;
  const double hold =
      cyp ? spec(target).operating_potential - 0.1
          : std::get<sim::ChronoamperometryProtocol>(campaign_read).potential;
  if (technique == Technique::kChronoamperometry) {
    sim::ChronoamperometryProtocol ca;
    ca.potential = hold;
    ca.duration = 2.0;
    return ca;
  }
  sim::CyclicVoltammetryProtocol cv;
  cv.e_start = 0.0;
  cv.e_vertex = hold;
  cv.scan_rate = 0.2;
  return cv;
}

void load_mid_range(Probe& probe, TargetId target) {
  const TargetSpec& s = spec(target);
  probe.set_bulk_concentration(to_string(target),
                               0.5 * (s.linear_lo_mM + s.linear_hi_mM));
}

/// Digest of one seeded read at the target's mid-range concentration. The
/// run id and front-end seed are fixed, so two probes in the same state
/// must digest identically.
std::uint64_t measure(Probe& probe, TargetId target,
                      const fault::SensorState& sensor, Technique technique) {
  load_mid_range(probe, target);
  sim::EngineConfig engine_config;
  engine_config.seed = 2027;
  const sim::MeasurementEngine engine(engine_config);
  afe::AnalogFrontEnd frontend(
      quant::campaign_frontend_config(quant::CampaignConfig{}, kFrontendSeed));
  const sim::Channel channel{&probe, nullptr, sensor};
  const sim::ChannelProtocol protocol = protocol_for(target, technique);
  if (const auto* ca = std::get_if<sim::ChronoamperometryProtocol>(&protocol)) {
    return test::digest_of(
        engine.run_chronoamperometry_seeded(kRunId, channel, *ca, frontend));
  }
  return test::digest_of(engine.run_cyclic_voltammetry_seeded(
      kRunId, channel, std::get<sim::CyclicVoltammetryProtocol>(protocol),
      frontend));
}

/// Digest of the raw faradaic currents of a 30 s hold at the read's
/// potential, taken before noise and the ADC, whose quantisation would hide
/// a sub-LSB divergence (a one-ulp difference in a calibrated rate). The
/// hold is long enough for slow oxidase membranes to lift the signal well
/// above the blank current, which would otherwise round it away.
std::uint64_t raw_currents(Probe& probe, TargetId target,
                           const fault::SensorState& sensor) {
  const double e =
      std::get<sim::ChronoamperometryProtocol>(
          protocol_for(target, Technique::kChronoamperometry))
          .potential +
      sensor.reference_shift_V;
  load_mid_range(probe, target);
  probe.apply_sensor_state(sensor);
  probe.reset();
  test::BitDigest digest;
  for (int k = 0; k < 6000; ++k) digest.add(probe.step(e, 5.0e-3));
  return digest.value();
}

ProbePtr fresh(TargetId target) {
  return quant::make_campaign_probe(quant::CampaignConfig{}, target);
}

std::vector<TargetId> library_targets() {
  std::vector<TargetId> ids;
  for (const TargetSpec& s : all_targets()) ids.push_back(s.id);
  return ids;
}

class ProbeClone : public ::testing::TestWithParam<TargetId> {};

TEST_P(ProbeClone, CloneOfPrototypeMeasuresLikeAFreshProbe) {
  const TargetId target = GetParam();
  const ProbePtr prototype = fresh(target);
  for (const fault::SensorState& sensor :
       {fault::SensorState{}, aged_sensor()}) {
    for (const Technique technique :
         {Technique::kChronoamperometry, Technique::kCyclicVoltammetry}) {
      const ProbePtr clone = prototype->clone();
      ASSERT_EQ(clone->name(), prototype->name());
      ASSERT_EQ(clone->technique(), prototype->technique());
      const ProbePtr reference = fresh(target);
      const std::string where = to_string(target) + " " +
                                to_string(technique) +
                                (sensor.is_identity() ? " pristine" : " aged");
      EXPECT_EQ(measure(*clone, target, sensor, technique),
                measure(*reference, target, sensor, technique))
          << where;
      EXPECT_EQ(raw_currents(*clone, target, sensor),
                raw_currents(*reference, target, sensor))
          << where << " (raw currents)";
    }
  }
}

TEST_P(ProbeClone, MeasuringACloneLeavesThePrototypePristine) {
  const TargetId target = GetParam();
  const Technique technique = spec(target).family ==
                                      ProbeFamily::kCytochromeP450
                                  ? Technique::kCyclicVoltammetry
                                  : Technique::kChronoamperometry;
  const ProbePtr prototype = fresh(target);
  const ProbePtr a = prototype->clone();
  (void)measure(*a, target, aged_sensor(), technique);
  const ProbePtr b = prototype->clone();
  const ProbePtr reference = fresh(target);
  EXPECT_EQ(measure(*b, target, fault::SensorState{}, technique),
            measure(*reference, target, fault::SensorState{}, technique))
      << to_string(target);
}

INSTANTIATE_TEST_SUITE_P(ProbeLibrary, ProbeClone,
                         ::testing::ValuesIn(library_targets()),
                         [](const auto& param_info) {
                           // gtest names allow [A-Za-z0-9_] only.
                           std::string name = to_string(param_info.param);
                           std::replace(name.begin(), name.end(), '-', '_');
                           return name;
                         });

}  // namespace
}  // namespace idp::bio
