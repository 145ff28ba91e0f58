/// \file cyp_batch.hpp
/// Lockstep lane batch of W CYP film probes: the voltammetry feeder of the
/// SoA batched diffusion kernel.
///
/// A CYP probe steps one drug supply field per target, each an independent
/// 1-D diffusion problem on the probe's drug grid, and every CYP probe of
/// the library shares that grid. CypLaneBatch therefore packs the targets
/// of W probes into one BatchedDiffusionField with one lane per
/// (probe, target) -- probe c's targets occupy consecutive lanes -- and
/// replicates CypProbe::step() per lane bit-for-bit: the same Laviron
/// update of the reduced fraction, the same heme current, the same
/// Michaelis-Menten electrode rate from the pre-step surface concentration,
/// and the same current sum per probe (background - heme_0 - drug_0 -
/// heme_1 - drug_1 ...). Lanes never exchange data, so lane order and
/// batch membership cannot leak into a probe's current.
#pragma once

#include <span>
#include <vector>

#include "bio/cyp_probe.hpp"
#include "chem/batched_diffusion.hpp"
#include "chem/redox.hpp"
#include "fault/sensor_state.hpp"

namespace idp::bio {

/// W CYP probes advanced in lockstep through one batched drug-field solve.
///
/// Construction mirrors what the scalar path does to a probe before a run
/// (apply_sensor_state + reset): film fully oxidised, drug profiles at the
/// probe's bulk concentrations, fouling scale and active-heme fraction from
/// the sensor state. The batch copies that state and never advances the
/// probes.
class CypLaneBatch {
 public:
  /// All probes must share node-identical drug grids (enforced); sensor
  /// states must pass fault::require_physical.
  /// `probes.size() == sensors.size() >= 1`.
  CypLaneBatch(std::span<const CypProbe* const> probes,
               std::span<const fault::SensorState* const> sensors);

  /// True when the two probes can share a lane batch: node-identical drug
  /// grids.
  static bool compatible(const CypProbe& a, const CypProbe& b) {
    return a.drug_grid().nodes() == b.drug_grid().nodes();
  }

  /// Advance every probe by dt under its own electrode potential e[c];
  /// writes probe c's faradaic current to i_out[c]. Bitwise identical per
  /// probe to CypProbe::step(e[c], dt) on a probe in the same state.
  void step(std::span<const double> e, double dt, std::span<double> i_out);

  /// Probes in the batch.
  std::size_t width() const { return background_.size(); }
  /// Drug-field lanes: one per (probe, target).
  std::size_t lanes() const { return fields_.lanes(); }
  /// Reduced heme fraction of probe c's target k.
  double reduced_fraction(std::size_t c, std::size_t k) const {
    return theta_[first_lane_[c] + k];
  }

 private:
  chem::BatchedDiffusionField fields_;
  std::vector<std::size_t> first_lane_;  ///< probe c: [first_lane_[c], [c+1])
  std::vector<double> background_;       ///< per probe
  // per lane, copied from the probe's target state at construction
  std::vector<chem::RedoxCouple> heme_;
  std::vector<double> ks_, theta_, km_, activity_;
  std::vector<double> heme_factor_;  ///< (F * area) * coverage
  std::vector<double> kcat_cov_;     ///< kcat * coverage
  std::vector<double> drug_factor_;  ///< (n * F) * area
  std::vector<double> heme_current_;  ///< step() scratch
};

}  // namespace idp::bio
