/// \file elaborate.hpp
/// Elaboration: turn a PlatformCandidate into a runnable virtual platform
/// (calibrated probes + electrodes + front ends + measurement engine) and
/// validate it against the panel requirements by *simulation* -- closing the
/// loop between the paper's design-space discussion and its Table III
/// metrology.
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/candidate.hpp"
#include "core/panel.hpp"
#include "dsp/calibration.hpp"
#include "sim/engine.hpp"

namespace idp::plat {

/// Per-target outcome of a virtual validation run.
struct TargetValidation {
  bio::TargetId target = bio::TargetId::kGlucose;
  std::size_t electrode = 0;
  double sensitivity_uA_mM_cm2 = 0.0;  ///< measured, Table III units
  double lod_uM = 0.0;                 ///< measured via Eq. 5
  double linear_lo_mM = 0.0;
  double linear_hi_mM = 0.0;
  bool linear_found = false;
  double r_squared = 0.0;
  bool meets_lod = false;
  bool covers_range = false;
};

/// Whole-panel validation outcome.
struct ValidationReport {
  std::vector<TargetValidation> targets;
  bool all_pass() const;
};

/// Elaboration options.
struct ElaborationOptions {
  std::uint64_t seed = 2026;
  double ca_duration_s = 60.0;       ///< chronoamperometry window
  double sample_rate = 10.0;         ///< ADC rate [Hz]
  int calibration_points = 5;        ///< concentrations per calibration
  int blank_measurements = 6;        ///< Eq. 5 blank repeats
  /// Use the lab-grade bench readout instead of the candidate's integrated
  /// channels (how the paper's Table III numbers were obtained).
  bool lab_grade_readout = false;
  /// Worker threads for probe construction, panel validation and panel
  /// scans: 0 = hardware concurrency, 1 = strictly sequential. Run ids and
  /// per-front-end sample streams are scheduled up front, so results are
  /// bitwise identical at every parallelism level.
  std::size_t parallelism = 0;
};

/// A runnable virtual platform.
class ElaboratedPlatform {
 public:
  ElaboratedPlatform(PlatformCandidate candidate,
                     const ComponentCatalog& catalog,
                     ElaborationOptions options = {});

  const PlatformCandidate& candidate() const { return candidate_; }
  std::size_t electrode_count() const { return probes_.size(); }

  /// Index of the electrode sensing `target` (throws if unassigned).
  std::size_t electrode_of(bio::TargetId target) const;

  /// Run a calibration for one target: `concentrations` in mol/m^3 plus the
  /// configured number of blanks, returning the Eq. 5/6/7-ready curve.
  dsp::CalibrationCurve calibrate(bio::TargetId target,
                                  std::span<const double> concentrations);

  /// Calibrate over the requirement's effective range and judge the result.
  TargetValidation validate_target(const TargetRequirement& requirement);

  /// Validate every panel target.
  ValidationReport validate_panel(const PanelSpec& panel);

  /// One full multiplexed panel scan at the given target concentrations.
  sim::PanelScanResult scan(
      std::span<const std::pair<bio::TargetId, double>> concentrations);

 private:
  struct ElectrodeRuntime {
    chem::Electrode electrode;
    afe::AnalogFrontEnd frontend;
    sim::ChannelProtocol protocol;
  };

  /// Number of engine runs one calibration consumes (blanks + points).
  std::size_t calibration_run_count(std::size_t n_points) const;

  /// Calibration with a pre-reserved run-id block (ids base+1 .. base+n);
  /// thread-safe across electrodes because each electrode owns its probe and
  /// front end exclusively.
  dsp::CalibrationCurve calibrate_seeded(bio::TargetId target,
                                         std::span<const double> concentrations,
                                         std::uint64_t run_id_base);

  /// validate_target against a pre-reserved run-id block.
  TargetValidation validate_target_seeded(const TargetRequirement& requirement,
                                          std::uint64_t run_id_base);

  PlatformCandidate candidate_;
  ElaborationOptions options_;
  std::vector<bio::ProbePtr> probes_;
  std::vector<ElectrodeRuntime> runtimes_;
  sim::MeasurementEngine engine_;
  afe::MuxSpec mux_model_;
  double pad_area_m2_ = 0.23e-6;
};

}  // namespace idp::plat
