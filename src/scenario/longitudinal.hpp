/// \file longitudinal.hpp
/// The longitudinal scenario engine: sweeps a virtual-patient cohort over a
/// dosing timeline, runs one panel measurement per (patient, timepoint,
/// channel), quantifies every response through quant::Quantifier and
/// aggregates the diagnostic time-courses into a CohortReport. This is the
/// first workload whose throughput scales as patients x timepoints x
/// channels -- exactly the shape the deterministic batch runtime was built
/// for: all randomness derives from (patient, timepoint, channel) indices,
/// so results are bitwise identical at every parallelism level.
///
/// Sensor lifetime: every channel carries wall-clock sensor age, so a
/// configured fault::DegradationModel makes week-4 scans see a degraded
/// sensor (fouling, enzyme decay, drifting reference and electronics,
/// interference storms). When the quant::RecalibrationPolicy is enabled the
/// runner additionally measures per-timepoint QC checks (a blank plus a
/// known standard) through the same aged sensor, feeds the standardised
/// residuals to a quant::DriftDetector, and schedules recalibration
/// campaigns through the CalibrationStore when drift trips -- swapping each
/// sensor onto its freshly fitted curve. QC and recalibration runs draw
/// from run-id domains disjoint from the diagnostic scans and digitise
/// through dedicated front ends, so enabling monitoring leaves every
/// diagnostic measurement before the first recalibration bitwise
/// unchanged, and an identity degradation model with monitoring off
/// reproduces pre-fault results bitwise (pinned by the golden fixtures).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fault/degradation.hpp"
#include "quant/calibration_store.hpp"
#include "quant/drift.hpp"
#include "scenario/cohort.hpp"

namespace idp::obs {
class MetricsRegistry;
}

namespace idp::scenario {

/// Scenario execution knobs.
struct LongitudinalConfig {
  std::vector<double> sample_times_h;  ///< panel-scan instants [h]
  std::uint64_t engine_seed = 99;      ///< measurement-noise seed
  /// Worker threads over *patients* (a patient's timeline is inherently
  /// sequential: its probes and front ends carry state between scans).
  /// 0 = hardware concurrency, 1 = sequential.
  std::size_t parallelism = 0;

  /// Sensor aging model; the identity default keeps every sensor pristine.
  fault::DegradationModel degradation{};
  /// Timeline instant the sensors were installed [h]; sensor age at a scan
  /// is (sample_time - install) / 24 days, clamped to >= 0.
  double sensor_install_h = 0.0;
  /// QC monitoring + adaptive recalibration; disabled by default (no QC
  /// measurements are taken at all).
  quant::RecalibrationPolicy recalibration{};
};

/// One quantified measurement of one channel at one timepoint, with its
/// sensor-condition and calibration provenance.
struct ChannelSample {
  double time_h = 0.0;
  double truth_mM = 0.0;    ///< ground-truth analyte concentration
  double response = 0.0;    ///< measured scalar panel response
  quant::ConcentrationEstimate estimate;  ///< the reported diagnosis

  // --- provenance (fault subsystem) --------------------------------------
  double sensor_age_days = 0.0;  ///< sensor wall-clock age at this scan
  /// Drift statistic (two-sided CUSUM) after this timepoint's QC checks;
  /// 0 when monitoring is disabled.
  double drift_metric = 0.0;
  /// Standardised residual of the latest QC-standard check.
  double qc_residual = 0.0;
  /// Which calibration produced the estimate: 0 = factory campaign,
  /// k = after the k-th recalibration of this sensor.
  std::uint32_t calibration_epoch = 0;
  /// True when a recalibration completed immediately before this scan.
  bool recalibrated = false;
};

/// One completed recalibration of one sensor channel.
struct RecalibrationEvent {
  std::uint64_t patient_id = 0;
  std::size_t channel = 0;
  double time_h = 0.0;
  double sensor_age_days = 0.0;
  /// Detector statistics at trigger time. Either can have tripped the
  /// policy: compare drift_metric (the two-sided CUSUM) against
  /// cusum_threshold and |ewma| against ewma_threshold.
  double drift_metric = 0.0;
  double ewma = 0.0;
  std::uint32_t epoch = 0;     ///< calibration epoch this event started
};

/// One patient's diagnostic time-course, per channel.
struct PatientTimeCourse {
  std::uint64_t patient_id = 0;
  std::vector<std::vector<ChannelSample>> channels;  ///< [channel][timepoint]
  std::vector<RecalibrationEvent> recalibrations;    ///< in time order
};

/// Population percentile band of one channel at one timepoint.
struct PercentileBand {
  double p10 = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
};

/// Cohort-scale outcome: per-patient time-courses plus population
/// aggregates over the *estimated* (reported) and true concentrations.
struct CohortReport {
  std::vector<bio::TargetId> targets;
  std::vector<double> sample_times_h;
  std::vector<PatientTimeCourse> patients;
  std::vector<std::vector<PercentileBand>> estimate_percentiles;  ///< [ch][t]
  std::vector<std::vector<PercentileBand>> truth_percentiles;     ///< [ch][t]
  /// Every recalibration across the cohort, ordered by (patient, time).
  std::vector<RecalibrationEvent> recalibrations;

  std::size_t sample_count() const;
  /// Samples carrying any of the given flag bits.
  std::size_t flag_count(quant::QuantFlag flags) const;
  /// RMS of (estimate - truth) over one channel's samples [mM].
  double rms_error_mM(std::size_t channel) const;
  /// RMS error of one channel restricted to samples with
  /// t_low_h <= time < t_high_h (lifetime studies slice error by age).
  double rms_error_mM(std::size_t channel, double t_low_h,
                      double t_high_h) const;
  /// Fraction of samples whose confidence interval covers the truth.
  double ci_coverage() const;
  /// Largest drift statistic observed on one channel.
  double max_drift_metric(std::size_t channel) const;

  /// Export every sample as CSV (columns: patient, channel, time_h,
  /// truth_mM, estimate_mM, ci_low_mM, ci_high_mM, flags, plus the
  /// sensor_age_days / drift_metric / qc_residual / calibration_epoch /
  /// recalibrated provenance).
  void to_csv(const std::string& path) const;

  /// Publish the cohort's monitoring outcome into a metrics registry
  /// (scenario.cohort.* counters, per-channel recalibration counts and
  /// peak drift statistics). Runs at the sequential aggregation point, so
  /// the published values inherit the report's parallelism invariance.
  void publish_metrics(obs::MetricsRegistry& registry) const;
};

/// Executes longitudinal scenarios against a calibration store. The store
/// provides both the measurement configuration (probes, front ends,
/// protocols -- scans must measure exactly the way campaigns calibrated)
/// and the quantifiers that invert the responses.
///
/// A patient's timeline runs in windows of MeasurementEngine::lane_width()
/// timepoints (the last window may be shorter). A window's runs -- per
/// timepoint and channel the QC blank, the QC standard and the scan, each
/// scan on its own probe slot -- are one MeasurementEngine::execute batch,
/// so each lane class fills whole lane groups: the glucose + clozapine
/// cohort steps three 8-wide groups per technique and window. The
/// monitoring loop (QC, drift, recalibration, quantification) then reads
/// the window's responses timepoint by timepoint. Nothing it decides feeds
/// back into a window's runs: sensor states come from the degradation
/// model, bulks from the patient's PK, the QC standard from the factory
/// calibration, and a recalibration measures its own probes on its own
/// front end. So where the windows fall moves no output bit.
class LongitudinalRunner {
 public:
  LongitudinalRunner(quant::CalibrationStore& store, LongitudinalConfig config);

  const LongitudinalConfig& config() const { return config_; }

  /// Run the full cohort x timeline sweep. Every patient's analytes must
  /// match `plans` (same generate_cohort call). Bitwise deterministic for a
  /// fixed (store config, engine seed, cohort, degradation model, policy)
  /// at any parallelism.
  CohortReport run(std::span<const AnalytePlan> plans,
                   std::span<const VirtualPatient> cohort) const;

 private:
  quant::CalibrationStore& store_;
  LongitudinalConfig config_;
};

}  // namespace idp::scenario
