/// \file cyp_batch.cpp
/// CYP voltammetry lane batch: W probes, one batched drug-field solve per
/// step. Every per-lane expression mirrors CypProbe::step op-for-op; only
/// the order of independent work differs (all surface updates, then one
/// solve for every lane, then the per-probe current sums), which is what
/// keeps each probe's current bitwise identical to the scalar probe.

#include "bio/cyp_batch.hpp"

#include <cmath>

#include "util/constants.hpp"
#include "util/error.hpp"

namespace idp::bio {

namespace {

const CypProbe& first_probe(std::span<const CypProbe* const> probes) {
  util::require(!probes.empty() && probes.front() != nullptr,
                "lane batch needs at least one probe");
  return *probes.front();
}

std::size_t target_lanes(std::span<const CypProbe* const> probes) {
  std::size_t lanes = 0;
  for (const CypProbe* probe : probes) {
    util::require(probe != nullptr, "lane batch probe is null");
    lanes += probe->target_count();
  }
  return lanes;
}

}  // namespace

CypLaneBatch::CypLaneBatch(std::span<const CypProbe* const> probes,
                           std::span<const fault::SensorState* const> sensors)
    : fields_(first_probe(probes).drug_grid(), target_lanes(probes)) {
  util::require(sensors.size() == probes.size(), "one sensor state per probe");
  const std::size_t lanes = fields_.lanes();
  first_lane_.reserve(probes.size() + 1);
  background_.reserve(probes.size());
  heme_.reserve(lanes);
  for (std::size_t c = 0; c < probes.size(); ++c) {
    util::require(sensors[c] != nullptr, "lane batch sensor state is null");
    const CypProbe& probe = *probes[c];
    util::require(compatible(*probes.front(), probe),
                  "lane batch requires node-identical drug grids");
    const fault::SensorState& sensor = *sensors[c];
    fault::require_physical(sensor);
    const CypProbeParams& p = probe.params_;
    first_lane_.push_back(heme_.size());
    background_.push_back(p.background_current);
    for (const CypProbe::TargetState& s : probe.states_) {
      const std::size_t lane = heme_.size();
      // The probe's field was built with a uniform diffusivity; configure
      // the lane the same way, then mirror apply_sensor_state + reset:
      // fouling scale, profile and reservoir at the stored bulk.
      fields_.configure_lane(lane, s.params.d_drug, s.bulk);
      fields_.set_diffusivity_scale(lane, sensor.membrane_transmission);
      heme_.push_back(s.heme);
      ks_.push_back(p.ks);
      theta_.push_back(0.0);
      km_.push_back(s.params.km);
      activity_.push_back(sensor.enzyme_activity);
      // Left-to-right prefixes of the scalar products, so multiplying the
      // step's factors on afterwards rounds exactly as CypProbe::step does.
      heme_factor_.push_back(util::kFaraday * p.area * s.coverage);
      kcat_cov_.push_back(s.kcat * s.coverage);
      drug_factor_.push_back(CypProbe::kElectronsPerTurnover *
                             util::kFaraday * p.area);
    }
  }
  first_lane_.push_back(heme_.size());
  heme_current_.resize(lanes);
}

void CypLaneBatch::step(std::span<const double> e, double dt,
                        std::span<double> i_out) {
  const std::size_t w = width();
  util::require(e.size() == w && i_out.size() == w,
                "lane batch span size mismatch");

  // Surface electron transfer, heme current and the catalytic electrode
  // rate of every lane, from its pre-step surface concentration.
  for (std::size_t c = 0; c < w; ++c) {
    for (std::size_t l = first_lane_[c]; l < first_lane_[c + 1]; ++l) {
      const chem::SurfaceRates rates =
          chem::laviron_rates(heme_[l], ks_[l], e[c]);
      const double k_sum = rates.k_ox + rates.k_red;
      const double theta_inf = k_sum > 0.0 ? rates.k_red / k_sum : theta_[l];
      const double theta_new =
          theta_inf + (theta_[l] - theta_inf) * std::exp(-k_sum * dt);
      const double dtheta_dt = (theta_new - theta_[l]) / dt;
      theta_[l] = theta_new;
      heme_current_[l] = heme_factor_[l] * dtheta_dt * activity_[l];
      const double c_surf = fields_.at_electrode(l);
      fields_.set_electrode_rate(
          l, kcat_cov_[l] * theta_[l] * activity_[l] / (km_[l] + c_surf));
    }
  }

  fields_.step(dt);

  for (std::size_t c = 0; c < w; ++c) {
    double current = background_[c];
    for (std::size_t l = first_lane_[c]; l < first_lane_[c + 1]; ++l) {
      current -= heme_current_[l];
      current -= drug_factor_[l] * fields_.electrode_flux(l);
    }
    i_out[c] = current;
  }
}

}  // namespace idp::bio
