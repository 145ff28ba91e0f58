/// \file oxidase_batch.cpp
/// Panel-level oxidase lane batch: W probes, one SoA solve per step. Every
/// per-channel expression mirrors OxidaseProbe::step op-for-op; only the
/// loop structure (channel loop inside the node loop) and the storage layout
/// differ, which is what keeps lane values bitwise identical to the scalar
/// probe while the compiler vectorizes across channels.

#include "bio/oxidase_batch.hpp"

#include <algorithm>

#include "chem/diffusion.hpp"
#include "util/constants.hpp"
#include "util/error.hpp"

namespace idp::bio {

OxidaseLaneBatch::OxidaseLaneBatch(
    std::span<OxidaseProbe* const> probes,
    std::span<const fault::SensorState* const> sensors)
    : width_(probes.size()),
      fields_((util::require(!probes.empty() && probes.front() != nullptr,
                             "lane batch needs at least one probe"),
               probes.front()->grid()),
              2 * probes.size()) {
  util::require(sensors.size() == width_, "one sensor state per probe");
  const std::size_t w = width_;
  kinetics_.reserve(w);
  couples_.reserve(w);
  n_mem_.resize(w);
  activity_.resize(w);
  nfa_.resize(w);
  background_.resize(w);
  for (std::size_t c = 0; c < w; ++c) {
    util::require(probes[c] != nullptr, "lane batch probe is null");
    util::require(sensors[c] != nullptr, "lane batch sensor state is null");
    const OxidaseProbe& probe = *probes[c];
    util::require(compatible(*probes.front(), probe),
                  "lane batch requires node-identical grids");
    const OxidaseProbeParams& p = probe.params();
    const fault::SensorState& sensor = *sensors[c];
    fault::require_physical(sensor);

    // Substrate lane c / peroxide lane w+c. The diffusivity layering uses
    // the probe's own grid (node-identical to the shared one), so per-lane
    // coefficients are exactly the probe's own.
    fields_.configure_lane(c,
                           chem::layered_diffusivity(probe.grid(),
                                                     p.d_substrate_membrane,
                                                     p.d_substrate_bulk),
                           0.0);
    fields_.configure_lane(w + c,
                           chem::layered_diffusivity(probe.grid(),
                                                     p.d_peroxide_membrane,
                                                     p.d_peroxide_bulk),
                           0.0);
    // Mirror apply_sensor_state + reset: fouling throttles substrate
    // ingress only, fresh zero profiles, substrate bulk at the configured
    // concentration, H2O2 escaping to a clean bulk.
    fields_.set_diffusivity_scale(c, sensor.membrane_transmission);
    fields_.set_bulk_concentration(c, probe.bulk_concentration());
    fields_.set_bulk_concentration(w + c, 0.0);

    kinetics_.push_back(probe.kinetics());
    couples_.push_back(probe.peroxide_couple());
    n_mem_[c] = static_cast<std::size_t>(
        p.enzyme_fraction * static_cast<double>(probe.grid().membrane_nodes()));
    activity_[c] = sensor.enzyme_activity;
    // Same association as the scalar current expression
    // (double(n) * F) * area, precomputed once per channel.
    nfa_[c] = static_cast<double>(couples_[c].n) * util::kFaraday * p.area;
    background_[c] = p.background_current;
  }
}

void OxidaseLaneBatch::step(std::span<const double> e, double dt,
                            std::span<double> i_out) {
  const std::size_t w = width_;
  util::require(e.size() == w && i_out.size() == w,
                "lane batch span size mismatch");

  // Enzymatic conversion inside each channel's membrane; rates go straight
  // into the SoA source array (stride 2w: substrate slots [row, row+w),
  // peroxide slots [row+w, row+2w)).
  const std::span<double> src = fields_.source_data();
  const std::size_t nodes = fields_.size();
  const std::size_t stride = 2 * w;
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::size_t row = i * stride;
    for (std::size_t c = 0; c < w; ++c) {
      double r = 0.0;
      if (i < n_mem_[c]) {
        const double cs = fields_.at(c, i);
        r = kinetics_[c].rate(cs) * activity_[c];
        r = std::min(r, 0.9 * cs / dt);
      }
      src[row + c] = -r;
      src[row + w + c] = r;
    }
  }
  fields_.mark_sources_set();

  // H2O2 oxidation at each electrode under its own applied potential.
  for (std::size_t c = 0; c < w; ++c) {
    const chem::BvRates rates = chem::butler_volmer_rates(couples_[c], e[c]);
    fields_.set_electrode_rate(w + c, rates.kf);
  }

  fields_.step(dt);

  for (std::size_t c = 0; c < w; ++c) {
    i_out[c] = nfa_[c] * fields_.electrode_flux(w + c) + background_[c];
  }
}

}  // namespace idp::bio
