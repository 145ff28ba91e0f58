/// \file calibration_store_test.cpp
/// CalibrationStore semantics: campaign shape, caching, the shared
/// prototype probes under concurrent first use, recalibration block
/// validation, and the end-to-end round trip -- simulate a known
/// concentration through the measurement engine, quantify it via a
/// store-built curve, and recover the truth within the propagated
/// confidence interval across the probe library's linear ranges.

#include "quant/calibration_store.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <latch>
#include <stdexcept>
#include <thread>
#include <vector>

namespace idp::quant {
namespace {

/// Fast campaign for tests: short chronoamperometry windows, few points.
CampaignConfig test_config() {
  CampaignConfig config;
  config.seed = 20260731;
  config.calibration_points = 5;
  config.blank_measurements = 6;
  config.ca_duration_s = 10.0;
  return config;
}

TEST(CalibrationStore, CampaignProducesTheConfiguredCurveShape) {
  CalibrationStore store(test_config());
  const dsp::CalibrationCurve& curve = store.curve(bio::TargetId::kGlucose);
  EXPECT_EQ(curve.blank_count(), 6u);
  EXPECT_EQ(curve.point_count(), 5u);
  // The sweep spans the probe's specified linear range.
  const bio::TargetSpec& spec = bio::spec(bio::TargetId::kGlucose);
  EXPECT_NEAR(curve.concentrations().back(), spec.linear_hi_mM, 1e-9);
  EXPECT_GE(curve.concentrations().front(), spec.linear_lo_mM - 1e-9);
  // And yields an invertible, positive-sensitivity quantifier.
  const Quantifier& q = store.quantifier(bio::TargetId::kGlucose);
  ASSERT_TRUE(q.valid());
  EXPECT_GT(q.slope(), 0.0);
}

TEST(CalibrationStore, CachesPerTargetAndProtocol) {
  CalibrationStore store(test_config());
  const Quantifier& a = store.quantifier(bio::TargetId::kGlucose);
  const Quantifier& b = store.quantifier(bio::TargetId::kGlucose);
  EXPECT_EQ(&a, &b);  // one campaign, stable address
  EXPECT_EQ(store.cached_count(), 1u);

  // A different protocol for the same target is a distinct entry.
  sim::ChronoamperometryProtocol longer;
  longer.potential = std::get<sim::ChronoamperometryProtocol>(
                         default_protocol_for(store.config(),
                                              bio::TargetId::kGlucose))
                         .potential;
  longer.duration = 20.0;
  const Quantifier& c = store.quantifier(bio::TargetId::kGlucose, longer);
  EXPECT_NE(&a, &c);
  EXPECT_EQ(store.cached_count(), 2u);
}

// (Parallel-prepare bitwise invariance is covered by the campaign workload
// of tests/determinism/determinism_sweep_test.cpp.)

TEST(CalibrationStore, PrepareDedupesTargets) {
  CalibrationStore store(test_config());
  const std::vector<bio::TargetId> targets{bio::TargetId::kGlucose,
                                           bio::TargetId::kGlucose,
                                           bio::TargetId::kLactate};
  store.prepare(targets, 2);
  EXPECT_EQ(store.cached_count(), 2u);
}

TEST(CalibrationStore, PrototypeHasOneStableAddressPerTargetUnderRaces) {
  // Every shard and worker of a cluster shares one store, so the first
  // prototype() calls race: builders may duplicate work, but all of them
  // must come back with the one inserted probe per target.
  const CalibrationStore store(test_config());
  constexpr std::size_t kThreads = 8;
  const bio::TargetId targets[] = {bio::TargetId::kGlucose,
                                   bio::TargetId::kDopamine};
  std::vector<std::array<const bio::Probe*, 2>> seen(kThreads);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Alternate the first target so both keys see contended misses.
      for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t i = (t + k) % 2;
        seen[t][i] = &store.prototype(targets[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < 2; ++i) {
    const bio::Probe* expected = &store.prototype(targets[i]);
    EXPECT_EQ(expected->targets().front(), bio::to_string(targets[i]));
    for (std::size_t t = 0; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][i], expected) << "thread " << t << " target " << i;
    }
  }
}

TEST(CalibrationStore, RecalibrateRejectsMisalignedRunIdBlocks) {
  const CalibrationStore store(test_config());
  const bio::TargetId target = bio::TargetId::kDopamine;
  const sim::ChannelProtocol protocol =
      default_protocol_for(store.config(), target);
  constexpr std::uint64_t kBlock = CalibrationStore::kRunsPerCampaignBlock;
  // A block off the stride would overlap its neighbour's run ids.
  EXPECT_THROW(store.recalibrate(target, protocol, fault::SensorState{},
                                 3 * kBlock + 1),
               std::invalid_argument);
  EXPECT_THROW(
      store.recalibrate(target, protocol, fault::SensorState{}, kBlock / 2),
      std::invalid_argument);
  const Calibration aligned = store.recalibrate(
      target, protocol, fault::SensorState{}, 3 * kBlock);
  EXPECT_TRUE(aligned.quantifier.valid());
}

TEST(CalibrationStore, RejectsDegenerateCampaigns) {
  CampaignConfig config = test_config();
  config.calibration_points = 2;
  EXPECT_THROW(CalibrationStore{config}, std::invalid_argument);
  config = test_config();
  config.blank_measurements = 1;
  EXPECT_THROW(CalibrationStore{config}, std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Round trip: measure a known concentration the same way the campaign
// calibrated, then invert. The estimate must recover the truth within the
// propagated confidence interval -- the acceptance contract of the
// quantification layer, checked across probe families.
// ---------------------------------------------------------------------------

class RoundTrip : public ::testing::TestWithParam<bio::TargetId> {};

TEST_P(RoundTrip, RecoversTruthWithinConfidenceInterval) {
  const bio::TargetId target = GetParam();
  CampaignConfig config = test_config();
  CalibrationStore store(config);
  const Quantifier& quantifier = store.quantifier(target);
  ASSERT_TRUE(quantifier.valid());

  // Fresh measurement setup: same configuration as the campaign but an
  // independent noise realisation (different engine seed + run ids).
  sim::EngineConfig engine_config;
  engine_config.seed = 777;
  const sim::MeasurementEngine engine(engine_config);
  bio::ProbePtr probe = make_campaign_probe(config, target);
  afe::AnalogFrontEnd frontend(campaign_frontend_config(config, 4242));
  const sim::ChannelProtocol protocol = default_protocol_for(config, target);
  const std::string name = bio::to_string(target);

  // Probe several truths across the calibrated window (clear of the edges,
  // where clamping legitimately kicks in).
  const double lo = quantifier.c_low();
  const double hi = quantifier.c_high();
  std::uint64_t run_id = 0;
  for (double f : {0.3, 0.55, 0.8}) {
    const double truth = lo + f * (hi - lo);
    probe->set_bulk_concentration(name, truth);
    double response = 0.0;
    if (std::holds_alternative<sim::ChronoamperometryProtocol>(protocol)) {
      const sim::Trace trace = engine.run_chronoamperometry_seeded(
          ++run_id, sim::Channel{probe.get(), nullptr},
          std::get<sim::ChronoamperometryProtocol>(protocol), frontend);
      response = panel_response(target, trace, sim::CvCurve{});
    } else {
      const sim::CvCurve curve = engine.run_cyclic_voltammetry_seeded(
          ++run_id, sim::Channel{probe.get(), nullptr},
          std::get<sim::CyclicVoltammetryProtocol>(protocol), frontend);
      response = panel_response(target, sim::Trace{}, curve);
    }

    const ConcentrationEstimate est = quantifier.quantify(response);
    // Detectability is only promised above the *measured* LOD. Glutamate's
    // paper LOD (1574 uM) sits inside its own 0.5-2 mM linear range, so a
    // mid-range glutamate sample flagging below-LOD is correct behaviour.
    const double lod_mM = (quantifier.lod_signal() - quantifier.blank_mean()) /
                          std::fabs(quantifier.slope());
    if (truth > 1.5 * lod_mM) {
      EXPECT_FALSE(est.below_lod()) << name << " at " << truth << " mM";
    }
    EXPECT_LE(est.ci_low, truth) << name << " at " << truth << " mM";
    EXPECT_GE(est.ci_high, truth) << name << " at " << truth << " mM";
    // The point estimate itself lands near the truth (10% of the window
    // plus the CI half-width -- generous, but catches gross inversions).
    const double slack =
        0.10 * (hi - lo) + (est.ci_high - est.ci_low) / 2.0;
    EXPECT_NEAR(est.value, truth, slack) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(ProbeLibrary, RoundTrip,
                         ::testing::Values(bio::TargetId::kGlucose,
                                           bio::TargetId::kLactate,
                                           bio::TargetId::kGlutamate,
                                           bio::TargetId::kBenzphetamine),
                         [](const auto& param_info) {
                           return bio::to_string(param_info.param);
                         });

}  // namespace
}  // namespace idp::quant
