/// \file oxidase_batch.hpp
/// Lockstep lane batch of W oxidase membrane probes: the panel-level feeder
/// of the SoA batched diffusion kernel.
///
/// A multiplexed panel typically carries several oxidase channels built on
/// the same membrane geometry (glucose, lactate, glutamate... all share the
/// default stack), so their chronoamperometric measurements solve W pairs of
/// identical-grid tridiagonal systems per time step. OxidaseLaneBatch packs
/// those W probes into one BatchedDiffusionField of 2W lanes -- substrate
/// lanes [0, W), peroxide lanes [W, 2W) -- and replicates
/// OxidaseProbe::step() per lane bit-for-bit: same Michaelis-Menten source
/// loop, same Butler-Volmer boundary update, same current expression. Lane
/// order cannot leak into results because lanes never exchange data and
/// per-channel noise is seeded by run id upstream in the engine.
#pragma once

#include <span>
#include <vector>

#include "bio/enzyme.hpp"
#include "bio/oxidase_probe.hpp"
#include "chem/batched_diffusion.hpp"
#include "chem/redox.hpp"
#include "fault/sensor_state.hpp"

namespace idp::bio {

/// W oxidase probes advanced in lockstep through one 2W-lane SoA solve.
///
/// Construction mirrors what the scalar measurement path does per probe
/// before a run (apply_sensor_state + reset): fresh zero profiles, substrate
/// bulk from the probe's configured concentration, fouling scale and enzyme
/// activity from the sensor state. The probes themselves are not advanced --
/// the batch owns its own field state -- so the caller keeps applying
/// sensor state / reset to the probes exactly as the scalar path does.
class OxidaseLaneBatch {
 public:
  /// All probes must share node-identical grids (enforced); sensor states
  /// must keep activity and transmission finite and positive
  /// (fault::require_physical, as apply_sensor_state).
  /// `probes.size() == sensors.size() >= 1`.
  OxidaseLaneBatch(std::span<OxidaseProbe* const> probes,
                   std::span<const fault::SensorState* const> sensors);

  /// True when the two probes can share a lane batch: node-identical grids.
  static bool compatible(const OxidaseProbe& a, const OxidaseProbe& b) {
    return a.grid().nodes() == b.grid().nodes();
  }

  /// Advance every channel by dt under its own applied potential e[c];
  /// writes the faradaic current of channel c to i_out[c]. Bitwise identical
  /// per channel to OxidaseProbe::step(e[c], dt) on a probe in the same
  /// state. Allocation-free.
  void step(std::span<const double> e, double dt, std::span<double> i_out);

  std::size_t width() const { return width_; }
  double substrate_at_electrode(std::size_t c) const {
    return fields_.at_electrode(c);
  }
  double peroxide_at_electrode(std::size_t c) const {
    return fields_.at_electrode(width_ + c);
  }

 private:
  std::size_t width_;
  chem::BatchedDiffusionField fields_;
  // per-channel calibrated state, copied from the probes at construction
  std::vector<MichaelisMenten> kinetics_;
  std::vector<chem::RedoxCouple> couples_;
  std::vector<std::size_t> n_mem_;
  std::vector<double> activity_;  ///< sensor enzyme-activity fraction
  std::vector<double> nfa_;       ///< n * Faraday * area (same two multiplies
                                  ///< as the scalar current expression)
  std::vector<double> background_;
};

}  // namespace idp::bio
