/// \file bench_common.hpp
/// Shared helpers for the reproduction benches: each bench binary first
/// prints the paper-shaped table/series it regenerates, then runs its
/// google-benchmark timings.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "afe/frontend.hpp"
#include "sim/engine.hpp"

namespace idp::bench {

/// Lab-grade acquisition chain (pA-class bench instrument): used whenever a
/// bench reproduces *literature* characterisation numbers (Table III was
/// measured on lab potentiostats, not the integrated AFE).
inline afe::AnalogFrontEnd lab_frontend(std::uint64_t seed = 7) {
  afe::AfeConfig c;
  c.tia = afe::lab_grade_tia();
  c.adc = afe::AdcSpec{.bits = 16, .v_low = -10.0, .v_high = 10.0,
                       .sample_rate = 10.0};
  c.seed = seed;
  return afe::AnalogFrontEnd(c);
}

/// Noise-free engine for deterministic shape benches.
inline sim::MeasurementEngine quiet_engine() {
  sim::EngineConfig cfg;
  cfg.sensor_noise = false;
  return sim::MeasurementEngine(cfg);
}

/// Standard bench epilogue: run the registered google-benchmark timings.
/// The JSON context is stamped with how this tree was built: the installed
/// google-benchmark's own `library_build_type` describes the library, not
/// the code under test.
inline int run_benchmarks(int argc, char** argv) {
  benchmark::AddCustomContext("idp_build_type", IDP_BENCH_BUILD_TYPE);
  benchmark::AddCustomContext("idp_simd", IDP_BENCH_SIMD ? "ON" : "OFF");
  benchmark::AddCustomContext(
      "idp_hardware_threads",
      std::to_string(std::thread::hardware_concurrency()));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

/// run_benchmarks with a default JSON trajectory output (the BENCH_*.json
/// files CI uploads); an explicit --benchmark_out on the command line wins.
inline int run_benchmarks_with_default_out(int argc, char** argv,
                                           const std::string& default_out) {
  std::vector<char*> args(argv, argv + argc);
  std::string out_flag = "--benchmark_out=" + default_out;
  std::string fmt_flag = "--benchmark_out_format=json";
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0) has_out = true;
  }
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int n = static_cast<int>(args.size());
  return run_benchmarks(n, args.data());
}

inline void banner(const std::string& title) {
  std::printf("\n=== %s ===\n\n", title.c_str());
}

}  // namespace idp::bench
