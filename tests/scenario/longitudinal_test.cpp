/// \file longitudinal_test.cpp
/// Longitudinal scenario semantics: report bookkeeping (percentiles,
/// flags, coverage, CSV export), end-to-end quantification quality, input
/// validation, and the timeline-window oracle: a run over a timeline's
/// first k timepoints equals the full run's first k, in every bit, however
/// the windows fall. The parallelism-invariance sweep of the cohort
/// runtime lives in tests/determinism/determinism_sweep_test.cpp.

#include "scenario/longitudinal.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "scenario/cohort.hpp"

namespace idp::scenario {
namespace {

quant::CampaignConfig fast_campaign() {
  quant::CampaignConfig config;
  config.seed = 515151;
  config.calibration_points = 4;
  config.blank_measurements = 4;
  config.ca_duration_s = 6.0;
  return config;
}

std::vector<AnalytePlan> metabolic_plans() {
  // Two chronoamperometric channels: glucose excursions after meals plus
  // lactate clearance -- cheap enough to sweep a cohort in a unit test.
  AnalytePlan glucose;
  glucose.target = bio::TargetId::kGlucose;
  glucose.pk.volume_of_distribution_l = 15.0;
  glucose.pk.elimination_half_life_h = 1.5;
  glucose.pk.absorption_half_life_h = 0.4;
  glucose.pk.bioavailability = 0.8;
  glucose.pk.molar_mass_g_per_mol = 180.2;
  // Meal-sized excursions that stay inside the probe's 0.5-4 mM calibrated
  // window (clamping is exercised separately).
  glucose.regimen = repeated_regimen(0.5, 6.0, 2, 6000.0, Route::kOral);
  glucose.baseline_mM = 1.2;

  AnalytePlan lactate;
  lactate.target = bio::TargetId::kLactate;
  lactate.pk.volume_of_distribution_l = 30.0;
  lactate.pk.elimination_half_life_h = 0.8;
  lactate.pk.absorption_half_life_h = 0.2;
  lactate.pk.bioavailability = 1.0;
  lactate.pk.molar_mass_g_per_mol = 90.1;
  lactate.regimen = {DoseEvent{1.0, 4000.0, Route::kIvBolus}};
  lactate.baseline_mM = 0.8;
  return {glucose, lactate};
}

CohortReport run_once(std::size_t parallelism, std::uint64_t engine_seed) {
  quant::CalibrationStore store(fast_campaign());
  LongitudinalConfig config;
  config.sample_times_h = {0.0, 1.0, 2.5, 6.5};
  config.engine_seed = engine_seed;
  config.parallelism = parallelism;
  const LongitudinalRunner runner(store, config);

  const auto plans = metabolic_plans();
  CohortSpec spec;
  spec.patients = 3;
  spec.seed = 77;
  const auto cohort = generate_cohort(spec, plans);
  return runner.run(plans, cohort);
}

TEST(Longitudinal, DifferentEngineSeedsChangeResponsesNotTruths) {
  const CohortReport a = run_once(1, 1);
  const CohortReport b = run_once(1, 2);
  EXPECT_NE(a.patients[0].channels[0][1].response,
            b.patients[0].channels[0][1].response);
  EXPECT_DOUBLE_EQ(a.patients[0].channels[0][1].truth_mM,
                   b.patients[0].channels[0][1].truth_mM);
}

TEST(Longitudinal, ReportBookkeeping) {
  const CohortReport report = run_once(0, 5);
  // 3 patients x 2 channels x 4 timepoints.
  EXPECT_EQ(report.sample_count(), 24u);
  ASSERT_EQ(report.targets.size(), 2u);
  ASSERT_EQ(report.sample_times_h.size(), 4u);
  ASSERT_EQ(report.estimate_percentiles.size(), 2u);
  for (std::size_t c = 0; c < 2; ++c) {
    ASSERT_EQ(report.estimate_percentiles[c].size(), 4u);
    for (const PercentileBand& band : report.estimate_percentiles[c]) {
      EXPECT_LE(band.p10, band.p50);
      EXPECT_LE(band.p50, band.p90);
    }
  }
  EXPECT_GE(report.ci_coverage(), 0.0);
  EXPECT_LE(report.ci_coverage(), 1.0);
  EXPECT_LE(report.flag_count(quant::QuantFlag::kBelowLod),
            report.sample_count());
  EXPECT_GE(report.rms_error_mM(0), 0.0);
}

TEST(Longitudinal, QuantificationTracksTheCohortTruth) {
  // The diagnostic loop end-to-end: estimates follow each patient's
  // time-course. Demand CI coverage on the vast majority of samples and a
  // glucose RMS error small against the population dynamic range.
  const CohortReport report = run_once(0, 2026);
  EXPECT_GE(report.ci_coverage(), 0.9);
  double truth_max = 0.0;
  for (const PatientTimeCourse& p : report.patients) {
    for (const ChannelSample& s : p.channels[0]) {
      truth_max = std::max(truth_max, s.truth_mM);
    }
  }
  EXPECT_GT(truth_max, 1.8);  // meals actually moved glucose off baseline
  EXPECT_LT(report.rms_error_mM(0), 0.2 * truth_max);
}

TEST(Longitudinal, CsvExportWritesEverySample) {
  const CohortReport report = run_once(1, 8);
  const std::string path = "longitudinal_test_report.csv";
  report.to_csv(path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line,
            "patient,channel,time_h,truth_mM,estimate_mM,ci_low_mM,"
            "ci_high_mM,flags,sensor_age_days,drift_metric,qc_residual,"
            "calibration_epoch,recalibrated");
  std::size_t rows = 0;
  while (std::getline(in, line)) {
    if (!line.empty()) ++rows;
  }
  EXPECT_EQ(rows, report.sample_count());
  in.close();
  std::remove(path.c_str());
}

TEST(Longitudinal, ValidatesInputs) {
  quant::CalibrationStore store(fast_campaign());
  LongitudinalConfig config;
  config.sample_times_h = {};
  EXPECT_THROW(LongitudinalRunner(store, config), std::invalid_argument);
  config.sample_times_h = {2.0, 1.0};  // unsorted
  EXPECT_THROW(LongitudinalRunner(store, config), std::invalid_argument);

  config.sample_times_h = {0.0, 1.0};
  const LongitudinalRunner runner(store, config);
  const auto plans = metabolic_plans();
  CohortSpec spec;
  spec.patients = 2;
  auto cohort = generate_cohort(spec, plans);
  cohort[1].analytes.pop_back();  // mismatched plan set
  EXPECT_THROW(runner.run(plans, cohort), std::invalid_argument);
}

// --- timeline windows -------------------------------------------------------

/// A glucose (oxidase CA) and a clozapine (CYP CV) channel, so both lane
/// kernels step in the windows. Meals every 7 h and doses every 17 h put
/// each daily sample at another phase of its regimen, so every day's scan
/// measures another bulk.
std::vector<AnalytePlan> drug_plans() {
  AnalytePlan glucose = metabolic_plans().front();
  glucose.regimen = repeated_regimen(1.0, 7.0, 110, 6000.0, Route::kOral);
  AnalytePlan clozapine;
  clozapine.target = bio::TargetId::kClozapine;
  clozapine.baseline_mM = 0.6;
  clozapine.pk.volume_of_distribution_l = 5.0;
  clozapine.pk.elimination_half_life_h = 12.0;
  clozapine.pk.absorption_half_life_h = 1.5;
  clozapine.pk.bioavailability = 0.6;
  clozapine.pk.molar_mass_g_per_mol = 326.8;
  clozapine.regimen = repeated_regimen(0.0, 17.0, 44, 300.0, Route::kOral);
  return {glucose, clozapine};
}

/// Two patients over the first `days` daily timepoints on sensors that age
/// (fouling, enzyme decay, reference drift, storms); with `monitoring`,
/// daily QC and a hair-trigger recalibration policy.
CohortReport run_days(quant::CalibrationStore& store, std::size_t days,
                      bool monitoring, std::size_t parallelism) {
  LongitudinalConfig config;
  for (std::size_t d = 0; d < days; ++d) {
    config.sample_times_h.push_back(24.0 * static_cast<double>(d));
  }
  config.engine_seed = 31;
  config.parallelism = parallelism;
  fault::DegradationParams aging;
  aging.fouling_rate_per_day = 0.04;
  aging.enzyme_decay_per_day = 0.02;
  aging.reference_drift_V_per_day = -0.3e-3;
  aging.storms_per_day = 0.2;
  aging.storm_current_A = 4e-9;
  aging.seed = 2024;
  config.degradation = fault::DegradationModel(aging);
  config.recalibration.enabled = monitoring;
  config.recalibration.cusum_threshold = 2.0;
  config.recalibration.min_interval_h = 48.0;
  const LongitudinalRunner runner(store, config);

  const auto plans = drug_plans();
  CohortSpec spec;
  spec.patients = 2;
  spec.seed = 12;
  return runner.run(plans, generate_cohort(spec, plans));
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Every field of a sample, as exact bits.
std::vector<std::uint64_t> bits_of(const ChannelSample& s) {
  return {bits(s.time_h),          bits(s.truth_mM),
          bits(s.response),        bits(s.estimate.value),
          bits(s.estimate.ci_low), bits(s.estimate.ci_high),
          static_cast<std::uint64_t>(s.estimate.flags),
          bits(s.sensor_age_days), bits(s.drift_metric),
          bits(s.qc_residual),     s.calibration_epoch,
          s.recalibrated ? 1u : 0u};
}

/// Every field of a recalibration event, as exact bits.
std::vector<std::uint64_t> bits_of(const RecalibrationEvent& e) {
  return {e.patient_id,        e.channel,           bits(e.time_h),
          bits(e.sensor_age_days), bits(e.drift_metric), bits(e.ewma),
          e.epoch};
}

TEST(LongitudinalWindows, ATimelinePrefixEqualsTheFullRunBitwise) {
  // Patients step their timelines in windows of the engine's lane width
  // (8), so prefixes of 1, 7, 8, 9 and 17 days end inside, at and just
  // past window boundaries. Patient 0 is compared: run ids are
  // (patient x T + t) x C + c + 1, so for later patients they depend on
  // the timeline length T, and only patient 0's runs are the same runs in
  // a prefix. The second patient keeps a concurrent job running at
  // hardware parallelism.
  quant::CalibrationStore store(fast_campaign());
  constexpr std::size_t kDays = 31;
  constexpr std::size_t kWindow = 8;
  for (const bool monitoring : {true, false}) {
    const CohortReport full = run_days(store, kDays, monitoring, 1);
    const PatientTimeCourse& whole = full.patients[0];
    if (monitoring) {
      const bool inside_a_window = std::any_of(
          whole.recalibrations.begin(), whole.recalibrations.end(),
          [](const RecalibrationEvent& e) {
            const auto day = static_cast<std::size_t>(e.time_h / 24.0);
            return day % kWindow != 0 && day < 17;
          });
      ASSERT_TRUE(inside_a_window)
          << "no recalibration of patient 0 falls inside a compared window";
    } else {
      ASSERT_TRUE(whole.recalibrations.empty());
    }
    for (const std::size_t parallelism : {1, 0}) {
      for (const std::size_t days : {1, 7, 8, 9, 17}) {
        const CohortReport part = run_days(store, days, monitoring, parallelism);
        const PatientTimeCourse& prefix = part.patients[0];
        const std::string where = std::string(monitoring ? "QC on" : "QC off") +
                                  ", parallelism " +
                                  std::to_string(parallelism) + ", " +
                                  std::to_string(days) + " days";
        ASSERT_EQ(prefix.channels.size(), whole.channels.size());
        for (std::size_t c = 0; c < whole.channels.size(); ++c) {
          ASSERT_EQ(prefix.channels[c].size(), days) << where;
          for (std::size_t t = 0; t < days; ++t) {
            EXPECT_EQ(bits_of(prefix.channels[c][t]),
                      bits_of(whole.channels[c][t]))
                << where << ": channel " << c << ", day " << t;
          }
        }
        std::vector<RecalibrationEvent> expected;
        for (const RecalibrationEvent& e : whole.recalibrations) {
          if (e.time_h < 24.0 * static_cast<double>(days)) expected.push_back(e);
        }
        ASSERT_EQ(prefix.recalibrations.size(), expected.size()) << where;
        for (std::size_t i = 0; i < expected.size(); ++i) {
          EXPECT_EQ(bits_of(prefix.recalibrations[i]), bits_of(expected[i]))
              << where << ": recalibration " << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace idp::scenario
