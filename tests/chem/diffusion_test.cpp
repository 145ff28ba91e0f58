#include "chem/diffusion.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "chem/batched_diffusion.hpp"

namespace idp::chem {
namespace {

constexpr double kD = 1.0e-9;  // typical aqueous diffusivity [m^2/s]

TEST(Diffusion, SealedDomainConservesMass) {
  DiffusionField f(Grid1D::membrane_bulk(20e-6, 11, 1.2, 80e-6), kD, 2.0);
  f.set_far_boundary(FarBoundary::kSealed);
  const double before = f.total_per_area();
  for (int i = 0; i < 500; ++i) f.step(1e-3);
  EXPECT_NEAR(f.total_per_area(), before, before * 1e-9);
}

TEST(Diffusion, UniformProfileStaysUniform) {
  DiffusionField f(Grid1D::uniform(50e-6, 21), kD, 1.5);
  f.set_far_boundary(FarBoundary::kSealed);
  for (int i = 0; i < 100; ++i) f.step(1e-3);
  for (std::size_t i = 0; i < f.size(); ++i) {
    EXPECT_NEAR(f.at(i), 1.5, 1e-9);
  }
}

TEST(Diffusion, ElectrodeSinkDepletesSurface) {
  DiffusionField f(Grid1D::expanding(0.5e-6, 1.1, 200e-6), kD, 1.0);
  f.set_electrode_rate(1e3);  // effectively infinite sink
  for (int i = 0; i < 1000; ++i) f.step(1e-3);
  EXPECT_LT(f.at_electrode(), 1e-3);
  EXPECT_NEAR(f.at(f.size() - 1), 1.0, 1e-9);  // reservoir pinned
}

TEST(Diffusion, FluxMatchesConcentrationLoss) {
  DiffusionField f(Grid1D::uniform(40e-6, 41), kD, 1.0);
  f.set_far_boundary(FarBoundary::kSealed);
  f.set_electrode_rate(1e-4);
  const double before = f.total_per_area();
  double removed = 0.0;
  const double dt = 1e-3;
  for (int i = 0; i < 2000; ++i) removed += f.step(dt) * dt;
  EXPECT_NEAR(before - f.total_per_area(), removed, before * 1e-6);
}

TEST(Diffusion, InjectionAddsMass) {
  DiffusionField f(Grid1D::uniform(40e-6, 41), kD, 0.0);
  f.set_far_boundary(FarBoundary::kSealed);
  const double flux = 1e-6;  // mol m^-2 s^-1
  f.set_electrode_injection(flux);
  const double dt = 1e-3;
  for (int i = 0; i < 1000; ++i) f.step(dt);
  EXPECT_NEAR(f.total_per_area(), flux * 1.0, flux * 1.0 * 1e-6);
}

TEST(Diffusion, SourceTermIntegrates) {
  Grid1D grid = Grid1D::uniform(40e-6, 41);
  DiffusionField f(grid, kD, 0.0);
  f.set_far_boundary(FarBoundary::kSealed);
  std::vector<double> source(f.size(), 1.0);  // mol m^-3 s^-1 everywhere
  const double dt = 1e-3;
  double expected = 0.0;
  for (int i = 0; i < 100; ++i) {
    f.set_source(source);
    f.step(dt);
    expected += dt * 1.0 * grid.length();
  }
  EXPECT_NEAR(f.total_per_area(), expected, expected * 1e-9);
}

TEST(Diffusion, SourceClearsAfterStep) {
  DiffusionField f(Grid1D::uniform(40e-6, 11), kD, 0.0);
  f.set_far_boundary(FarBoundary::kSealed);
  std::vector<double> source(f.size(), 1.0);
  f.set_source(source);
  f.step(1e-3);
  const double after_one = f.total_per_area();
  f.step(1e-3);  // no source this time
  EXPECT_NEAR(f.total_per_area(), after_one, after_one * 1e-9);
}

TEST(Diffusion, BulkReservoirRefills) {
  DiffusionField f(Grid1D::expanding(1e-6, 1.15, 100e-6), kD, 0.0);
  f.set_bulk_concentration(2.0);
  for (int i = 0; i < 60000; ++i) f.step(1e-3);
  // After long equilibration with no sink everything approaches the bulk.
  EXPECT_NEAR(f.at_electrode(), 2.0, 0.02);
}

TEST(Diffusion, LayeredDiffusivityHelper) {
  const Grid1D g = Grid1D::membrane_bulk(50e-6, 26, 1.2, 60e-6);
  const auto d = layered_diffusivity(g, 1e-10, 1e-9);
  EXPECT_EQ(d.size(), g.size());
  EXPECT_DOUBLE_EQ(d[0], 1e-10);
  EXPECT_DOUBLE_EQ(d[25], 1e-10);
  EXPECT_DOUBLE_EQ(d[26], 1e-9);
}

TEST(Diffusion, RejectsBadInputs) {
  const Grid1D g = Grid1D::uniform(10e-6, 5);
  EXPECT_THROW(DiffusionField(g, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(DiffusionField(g, kD, -1.0), std::invalid_argument);
  DiffusionField f(g, kD, 0.0);
  EXPECT_THROW(f.step(0.0), std::invalid_argument);
  EXPECT_THROW(f.set_electrode_rate(-1.0), std::invalid_argument);
  std::vector<double> bad(3, 0.0);
  EXPECT_THROW(f.set_source(bad), std::invalid_argument);
}

TEST(Diffusion, RejectsNonFiniteOrNonPositiveDiffusivityScales) {
  // An infinite scale used to pass the > 0 check and surface steps later as
  // a singular tridiagonal system; both fields now reject it at the input.
  const Grid1D g = Grid1D::uniform(10e-6, 5);
  DiffusionField f(g, kD, 0.0);
  BatchedDiffusionField batch(g, 2);
  batch.configure_lane(0, kD, 0.0);
  batch.configure_lane(1, kD, 0.0);
  for (const double scale : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN(), 0.0,
                             -0.5}) {
    EXPECT_THROW(f.set_diffusivity_scale(scale), std::invalid_argument)
        << scale;
    EXPECT_THROW(batch.set_diffusivity_scale(1, scale), std::invalid_argument)
        << scale;
  }
  EXPECT_EQ(f.diffusivity_scale(), 1.0);
  EXPECT_EQ(batch.diffusivity_scale(1), 1.0);
}

/// Property: total mass in a sealed system is conserved for any dt.
class DiffusionConservation : public ::testing::TestWithParam<double> {};

TEST_P(DiffusionConservation, ForVariousTimeSteps) {
  const double dt = GetParam();
  const Grid1D grid = Grid1D::membrane_bulk(30e-6, 16, 1.15, 50e-6);
  DiffusionField f(grid, layered_diffusivity(grid, 2e-10, 1e-9), 1.0);
  f.set_far_boundary(FarBoundary::kSealed);
  const double before = f.total_per_area();
  for (int i = 0; i < 200; ++i) f.step(dt);
  EXPECT_NEAR(f.total_per_area(), before, before * 1e-9);
}

INSTANTIATE_TEST_SUITE_P(TimeSteps, DiffusionConservation,
                         ::testing::Values(1e-4, 1e-3, 1e-2, 0.1));

}  // namespace
}  // namespace idp::chem
