/// Numerical validation of the reaction-diffusion solver against closed-form
/// electrochemistry (the contracts the probe derivations commented in
/// bio::derive_vmax and bio::derive_kcat rely on): Cottrell decay for
/// potential steps and Randles-Sevcik peaks for reversible CV.
#include <gtest/gtest.h>

#include <cmath>

#include "chem/kinetics.hpp"
#include "chem/redox_system.hpp"
#include "util/constants.hpp"

namespace idp::chem {
namespace {

SolutionRedoxConfig base_config() {
  SolutionRedoxConfig cfg;
  cfg.couple = RedoxCouple{.name = "ferro", .n = 1, .e0 = 0.20, .k0 = 1e-4,
                           .alpha = 0.5};
  cfg.area = 1.0e-6;       // 1 mm^2
  cfg.d_red = 6.5e-10;
  cfg.d_ox = 6.5e-10;
  cfg.c_red_bulk = 1.0;    // 1 mM
  cfg.c_ox_bulk = 0.0;
  cfg.grid_h0 = 0.4e-6;
  cfg.grid_beta = 1.08;
  cfg.domain_length = 600e-6;
  return cfg;
}

TEST(SolverValidation, CottrellDecayAfterPotentialStep) {
  SolutionRedoxSystem sys(base_config());
  // Step far past E0: oxidation is diffusion limited.
  const double e_step = base_config().couple.e0 + 0.4;
  const double dt = 2e-4;
  double t = 0.0;
  double max_rel_err = 0.0;
  for (int k = 0; k < 50000; ++k) {
    const double i = sys.step(e_step, dt);
    t += dt;
    if (t > 1.0 && t < 9.5) {
      const double expected = cottrell_current(
          1, base_config().area, base_config().c_red_bulk,
          base_config().d_red, t);
      max_rel_err = std::max(max_rel_err, std::fabs(i - expected) / expected);
    }
    if (t >= 9.5) break;
  }
  EXPECT_LT(max_rel_err, 0.05);  // within 5% of Cottrell over 1..9.5 s
}

TEST(SolverValidation, CottrellITimesSqrtTIsConstant) {
  SolutionRedoxSystem sys(base_config());
  const double e_step = base_config().couple.e0 + 0.4;
  const double dt = 2e-4;
  double t = 0.0;
  double v1 = 0.0, v2 = 0.0;
  while (t < 8.0) {
    const double i = sys.step(e_step, dt);
    t += dt;
    if (std::fabs(t - 2.0) < dt) v1 = i * std::sqrt(t);
    if (std::fabs(t - 8.0) < dt) v2 = i * std::sqrt(t);
  }
  ASSERT_GT(v1, 0.0);
  ASSERT_GT(v2, 0.0);
  EXPECT_NEAR(v2 / v1, 1.0, 0.03);
}

struct CvRun {
  double peak_current = 0.0;
  double peak_potential = 0.0;
};

CvRun run_cv(double scan_rate, double k0) {
  SolutionRedoxConfig cfg = base_config();
  cfg.couple.k0 = k0;
  SolutionRedoxSystem sys(cfg);
  const double e_lo = cfg.couple.e0 - 0.25;
  const double e_hi = cfg.couple.e0 + 0.35;
  const double dt = std::min(2e-3, 0.0005 / scan_rate);  // <= 0.5 mV per step
  // forward (anodic) sweep only: start below E0.
  CvRun out;
  double e = e_lo;
  while (e < e_hi) {
    const double i = sys.step(e, dt);
    if (i > out.peak_current) {
      out.peak_current = i;
      out.peak_potential = e;
    }
    e += scan_rate * dt;
  }
  return out;
}

TEST(SolverValidation, RandlesSevcikPeakHeight20mVs) {
  const CvRun run = run_cv(0.020, 1e-4);  // fast kinetics: reversible
  const double expected = randles_sevcik_peak_current(
      1, base_config().area, base_config().d_red, base_config().c_red_bulk,
      0.020);
  EXPECT_NEAR(run.peak_current, expected, 0.08 * expected);
}

TEST(SolverValidation, ReversiblePeakPotentialOffset) {
  const CvRun run = run_cv(0.020, 1e-4);
  // Ep = E0 + 28.5 mV for an anodic reversible wave (equal diffusivities).
  const double expected =
      reversible_anodic_peak_potential(base_config().couple.e0, 1);
  EXPECT_NEAR(run.peak_potential, expected, 0.012);
}

/// Property: peak current scales as sqrt(scan rate) across the CV-safe and
/// beyond-safe regimes.
class RandlesSevcikSweep : public ::testing::TestWithParam<double> {};

TEST_P(RandlesSevcikSweep, PeakTracksTheory) {
  const double v = GetParam();
  const CvRun run = run_cv(v, 1e-4);
  const double expected = randles_sevcik_peak_current(
      1, base_config().area, base_config().d_red, base_config().c_red_bulk,
      v);
  EXPECT_NEAR(run.peak_current, expected, 0.10 * expected);
}

INSTANTIATE_TEST_SUITE_P(ScanRates, RandlesSevcikSweep,
                         ::testing::Values(0.005, 0.010, 0.020, 0.050));

TEST(SolverValidation, SluggishKineticsShiftThePeak) {
  // Quasi-reversible couple: the anodic peak moves positive of the
  // reversible position and shrinks -- the mechanism behind the paper's
  // 20 mV/s scan-rate advice.
  const CvRun fast = run_cv(0.020, 1e-4);
  const CvRun slow = run_cv(0.020, 1e-7);
  EXPECT_GT(slow.peak_potential, fast.peak_potential + 0.02);
  EXPECT_LT(slow.peak_current, fast.peak_current);
}

TEST(SolverValidation, MassTransportLimitsSteadyState) {
  // Holding past E0 forever: current decays below the 1 s Cottrell value.
  SolutionRedoxSystem sys(base_config());
  const double e = base_config().couple.e0 + 0.4;
  double i_early = 0.0, i_late = 0.0;
  double t = 0.0;
  const double dt = 5e-4;
  while (t < 30.0) {
    const double i = sys.step(e, dt);
    t += dt;
    if (std::fabs(t - 1.0) < dt) i_early = i;
    i_late = i;
  }
  EXPECT_LT(i_late, 0.3 * i_early);
}

}  // namespace
}  // namespace idp::chem
