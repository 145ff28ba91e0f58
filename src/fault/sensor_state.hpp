/// \file sensor_state.hpp
/// The time-varying condition of one physical sensor channel: what a real
/// electrode looks like after days in solution instead of the pristine
/// calibration-day device. A SensorState is a passive snapshot -- the
/// degradation *model* lives in fault/degradation.hpp; probes, the analog
/// front end and the measurement engine merely consult the snapshot at scan
/// time.
///
/// The default-constructed state is the identity: every consumer is written
/// so that an identity state leaves the measurement bitwise unchanged,
/// which the golden-trace fixtures pin against the pre-fault platform.
#pragma once

#include <cmath>

#include "util/error.hpp"

namespace idp::fault {

/// Snapshot of one sensor channel's condition at a given age.
struct SensorState {
  /// Sensor age this snapshot was evaluated at [days]; informational.
  double age_days = 0.0;

  /// Remaining enzyme activity fraction in (0, 1]: immobilised oxidases
  /// denature and CYP films lose active hemes, scaling the catalytic rate.
  double enzyme_activity = 1.0;

  /// Membrane transmission fraction in (0, 1]: biofouling grows a drifting
  /// diffusion barrier on the outer membrane, scaling the substrate
  /// diffusivity (which both attenuates and slows the response).
  double membrane_transmission = 1.0;

  /// Reference-electrode potential drift [V]: the working electrode sees
  /// E_applied + shift while the instrument still reports E_applied.
  double reference_shift_V = 0.0;

  /// Analog-front-end gain drift (multiplicative, 1 = nominal) and input
  /// offset-current drift [A]: the digitised estimate reads
  /// gain * i + offset.
  double afe_gain = 1.0;
  double afe_offset_A = 0.0;

  /// Interference storm (electroactive contaminant transient): an additive
  /// baseline current seen by signal *and* blank electrodes, plus an
  /// inflation factor on the electrochemical white noise.
  double storm_current_A = 0.0;
  double storm_noise_mult = 1.0;

  /// True when every field is at its pristine default (age is
  /// informational and excluded). Consumers may use this to skip work; the
  /// arithmetic is written so applying an identity state is exact anyway.
  bool is_identity() const {
    return enzyme_activity == 1.0 && membrane_transmission == 1.0 &&
           reference_shift_V == 0.0 && afe_gain == 1.0 &&
           afe_offset_A == 0.0 && storm_current_A == 0.0 &&
           storm_noise_mult == 1.0;
  }
};

/// Reject a state no sensor can be in: enzyme activity and membrane
/// transmission must be finite and positive (std::invalid_argument
/// otherwise). Every consumer that scales physics by them -- the probes'
/// apply_sensor_state and the lane batches -- checks here, so +inf fails at
/// the input instead of as a NaN current or a singular solve many steps
/// later.
inline void require_physical(const SensorState& state) {
  util::require(std::isfinite(state.enzyme_activity) &&
                    state.enzyme_activity > 0.0 &&
                    std::isfinite(state.membrane_transmission) &&
                    state.membrane_transmission > 0.0,
                "sensor state must keep activity and transmission finite "
                "and positive");
}

}  // namespace idp::fault
