/// \file perf_hot_path.cpp
/// Hot-path performance trajectory bench: times the tridiagonal solver
/// kernel (scalar and SoA lane-batched), a single diffusion-field step,
/// single-channel CA/CV runs, CYP voltammetry lanes through the
/// measurement executor, the multiplexed panel scan at several
/// (parallelism, lane width) points and a full design-space exploration.
/// Writes google-benchmark JSON to
/// BENCH_hot_path.json (override with --benchmark_out=...) so successive
/// PRs accumulate a measurable performance history.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "afe/frontend.hpp"
#include "afe/mux.hpp"
#include "bench_common.hpp"
#include "bio/library.hpp"
#include "chem/diffusion.hpp"
#include "chem/grid.hpp"
#include "chem/tridiag.hpp"
#include "core/explorer.hpp"
#include "core/panel.hpp"
#include "sim/engine.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace idp;

// ---------------------------------------------------------------- kernels

void BM_TridiagSolveAlloc(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> lower(n, -1.0), diag(n, 4.0), upper(n, -1.0), rhs(n, 1.0);
  lower[0] = upper[n - 1] = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(chem::solve_tridiagonal(lower, diag, upper, rhs));
  }
}
BENCHMARK(BM_TridiagSolveAlloc)->Arg(64)->Arg(301);

void BM_TridiagSolveInplace(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> lower(n, -1.0), diag(n, 4.0), upper(n, -1.0), rhs(n, 1.0);
  std::vector<double> scratch(n), out(n);
  lower[0] = upper[n - 1] = 0.0;
  for (auto _ : state) {
    chem::solve_tridiagonal_inplace(lower, diag, upper, rhs, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TridiagSolveInplace)->Arg(64)->Arg(301);

/// The SoA lane-batched Thomas sweep at n=64 nodes: per-system cost should
/// fall as the lane loop vectorizes (items_processed reports systems/sec,
/// so lanes:1 vs lanes:8 compares like-for-like).
void BM_TridiagSolveBatched(benchmark::State& state) {
  const std::size_t n = 64;
  const auto lanes = static_cast<std::size_t>(state.range(0));
  std::vector<double> lower(n * lanes, -1.0), diag(n * lanes, 4.0),
      upper(n * lanes, -1.0), rhs(n * lanes, 1.0);
  std::vector<double> scratch(n * lanes), out(n * lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    lower[l] = upper[(n - 1) * lanes + l] = 0.0;
  }
  for (auto _ : state) {
    chem::solve_tridiagonal_batched(n, lanes, lower, diag, upper, rhs, scratch,
                                    out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(lanes));
}
BENCHMARK(BM_TridiagSolveBatched)->Arg(1)->Arg(4)->Arg(8)->ArgName("lanes");

void BM_DiffusionFieldStep(benchmark::State& state) {
  chem::Grid1D grid = chem::Grid1D::membrane_bulk(50e-6, 26, 1.18, 60e-6);
  chem::DiffusionField field(grid, 1.0e-9, 1.0);
  field.set_bulk_concentration(1.0);
  field.set_electrode_rate(1.0e-5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(field.step(5.0e-3));
  }
}
BENCHMARK(BM_DiffusionFieldStep);

// ------------------------------------------------------- single channels

void BM_SingleChannelCA(benchmark::State& state) {
  static bio::ProbePtr probe = [] {
    auto p = bio::make_probe(bio::TargetId::kGlucose);
    p->set_bulk_concentration("glucose", 2.0);
    return p;
  }();
  sim::MeasurementEngine engine{sim::EngineConfig{}};
  afe::AnalogFrontEnd fe = bench::lab_frontend();
  sim::ChronoamperometryProtocol p;
  p.potential = 0.55;
  p.duration = 10.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_chronoamperometry(
        sim::Channel{probe.get(), nullptr}, p, fe));
  }
}
BENCHMARK(BM_SingleChannelCA);

void BM_SingleChannelCV(benchmark::State& state) {
  static bio::ProbePtr probe = [] {
    auto p = bio::make_probe(bio::TargetId::kCholesterol);
    p->set_bulk_concentration("cholesterol", 0.045);
    return p;
  }();
  sim::MeasurementEngine engine{sim::EngineConfig{}};
  afe::AnalogFrontEnd fe = bench::lab_frontend();
  sim::CyclicVoltammetryProtocol p;
  p.e_start = 0.1;
  p.e_vertex = -0.65;
  p.scan_rate = 0.02;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.run_cyclic_voltammetry(
        sim::Channel{probe.get(), nullptr}, p, fe));
  }
}
BENCHMARK(BM_SingleChannelCV);

/// Eight CYP sweeps of one lane class (clozapine films at eight
/// concentrations, each on its own front end) as one executor batch at
/// parallelism 1. lanes=1 is the scalar path; lanes=3 is one timepoint's
/// QC blank + standard + scan, lanes=8 a cohort window's group (a window
/// of eight timepoints steps its sweeps three 8-wide groups at a time).
/// Items are runs, so items_per_second compares widths per run.
void BM_CvLanes(benchmark::State& state) {
  static const std::vector<bio::ProbePtr> probes = [] {
    const bio::ProbePtr prototype = bio::make_probe(bio::TargetId::kClozapine);
    std::vector<bio::ProbePtr> built;
    for (int i = 0; i < 8; ++i) {
      built.push_back(prototype->clone());
      built.back()->set_bulk_concentration("clozapine", 0.1 * i);
    }
    return built;
  }();
  sim::EngineConfig cfg;
  cfg.batch_lanes = static_cast<std::size_t>(state.range(0));
  const sim::MeasurementEngine engine{cfg};
  sim::CyclicVoltammetryProtocol p;
  p.e_start = 0.1;
  p.e_vertex = -0.65;
  p.scan_rate = 0.02;
  std::vector<afe::AnalogFrontEnd> fes;
  fes.reserve(probes.size());
  std::vector<sim::Measurement> batch;
  for (std::size_t i = 0; i < probes.size(); ++i) {
    fes.push_back(bench::lab_frontend(20 + i));
    batch.push_back(sim::Measurement{i + 1,
                                     sim::Channel{probes[i].get(), nullptr},
                                     p, &fes.back()});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.execute(batch));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_CvLanes)->Arg(1)->Arg(3)->Arg(8)->ArgName("lanes");

// ----------------------------------------------------------- panel scan

/// The batched-kernel panel: eight oxidase CA channels (distinct probe
/// instances so parallel runs never share mutable state) that the engine
/// gathers into SoA lane groups. Probes are calibrated once and shared
/// across iterations (every run resets probe state before stepping).
struct OxidasePanelProbes {
  std::vector<bio::ProbePtr> probes;
  OxidasePanelProbes() {
    const bio::TargetId ids[] = {
        bio::TargetId::kGlucose,   bio::TargetId::kLactate,
        bio::TargetId::kGlutamate, bio::TargetId::kGlucose,
        bio::TargetId::kLactate,   bio::TargetId::kGlutamate,
        bio::TargetId::kGlucose,   bio::TargetId::kLactate};
    for (bio::TargetId id : ids) {
      probes.push_back(bio::make_probe(id));
    }
    probes[0]->set_bulk_concentration("glucose", 2.0);
    probes[1]->set_bulk_concentration("lactate", 1.0);
    probes[2]->set_bulk_concentration("glutamate", 0.1);
    probes[3]->set_bulk_concentration("glucose", 1.4);
    probes[4]->set_bulk_concentration("lactate", 0.6);
    probes[5]->set_bulk_concentration("glutamate", 0.05);
    probes[6]->set_bulk_concentration("glucose", 0.8);
    probes[7]->set_bulk_concentration("lactate", 1.8);
  }
};

/// Eight-channel CA panel at (parallelism, lane width). lanes=1 is the
/// pre-batching scalar path; lanes=4/8 step that many channels in lockstep
/// through the SoA tridiagonal solve. The lanes:1 vs lanes:8 ratio at
/// parallelism 1 is the headline batched-kernel speedup tracked in
/// bench/baselines/BENCH_hot_path.json.
void BM_PanelScan(benchmark::State& state) {
  static OxidasePanelProbes fixture;
  const auto parallelism = static_cast<std::size_t>(state.range(0));
  const auto lanes = static_cast<std::size_t>(state.range(1));

  std::vector<sim::Channel> channels;
  std::vector<sim::ChannelProtocol> protocols;
  std::vector<std::unique_ptr<afe::AnalogFrontEnd>> fes;
  std::vector<afe::AnalogFrontEnd*> fe_ptrs;
  sim::ChronoamperometryProtocol ca;
  ca.potential = 0.55;
  ca.duration = 20.0;
  for (std::size_t i = 0; i < fixture.probes.size(); ++i) {
    channels.push_back(sim::Channel{fixture.probes[i].get(), nullptr});
    protocols.emplace_back(ca);
    fes.push_back(std::make_unique<afe::AnalogFrontEnd>(
        bench::lab_frontend(10 + i).config()));
    fe_ptrs.push_back(fes.back().get());
  }

  sim::EngineConfig cfg;
  cfg.batch_lanes = lanes;
  sim::MeasurementEngine engine{cfg};
  for (auto _ : state) {
    afe::AnalogMux mux(afe::MuxSpec{});
    benchmark::DoNotOptimize(
        engine.run_panel(channels, protocols, fe_ptrs, mux, parallelism));
  }
}
BENCHMARK(BM_PanelScan)
    ->Args({1, 1})
    ->Args({1, 4})
    ->Args({1, 8})
    ->Args({2, 8})
    ->Args({0, 1})
    ->Args({0, 8})
    ->ArgNames({"parallelism", "lanes"})
    ->UseRealTime();  // wall-clock is the honest metric for parallel runs

/// The Fig. 4 style mixed panel: three oxidase CA channels + two CYP/direct
/// CV channels, at the default (auto) lane width -- the production shape,
/// where the engine batches what it can and runs the rest scalar.
struct MixedPanelProbes {
  std::vector<bio::ProbePtr> probes;
  MixedPanelProbes() {
    probes.push_back(bio::make_probe(bio::TargetId::kGlucose));
    probes.push_back(bio::make_probe(bio::TargetId::kLactate));
    probes.push_back(bio::make_probe(bio::TargetId::kGlutamate));
    probes.push_back(bio::make_probe(bio::TargetId::kCholesterol));
    probes.push_back(bio::make_probe(bio::TargetId::kDopamine));
    probes[0]->set_bulk_concentration("glucose", 2.0);
    probes[1]->set_bulk_concentration("lactate", 1.0);
    probes[2]->set_bulk_concentration("glutamate", 0.1);
    probes[3]->set_bulk_concentration("cholesterol", 0.045);
    probes[4]->set_bulk_concentration("dopamine", 0.001);
  }
};

void BM_MixedPanelScan(benchmark::State& state) {
  static MixedPanelProbes fixture;
  const auto parallelism = static_cast<std::size_t>(state.range(0));

  std::vector<sim::Channel> channels;
  std::vector<sim::ChannelProtocol> protocols;
  std::vector<std::unique_ptr<afe::AnalogFrontEnd>> fes;
  std::vector<afe::AnalogFrontEnd*> fe_ptrs;
  sim::ChronoamperometryProtocol ca;
  ca.potential = 0.55;
  ca.duration = 20.0;
  sim::CyclicVoltammetryProtocol cv;
  cv.e_start = 0.1;
  cv.e_vertex = -0.65;
  cv.scan_rate = 0.02;
  for (std::size_t i = 0; i < fixture.probes.size(); ++i) {
    channels.push_back(sim::Channel{fixture.probes[i].get(), nullptr});
    if (fixture.probes[i]->technique() == bio::Technique::kChronoamperometry) {
      protocols.emplace_back(ca);
    } else {
      protocols.emplace_back(cv);
    }
    fes.push_back(std::make_unique<afe::AnalogFrontEnd>(
        bench::lab_frontend(10 + i).config()));
    fe_ptrs.push_back(fes.back().get());
  }

  sim::MeasurementEngine engine{sim::EngineConfig{}};
  for (auto _ : state) {
    afe::AnalogMux mux(afe::MuxSpec{});
    benchmark::DoNotOptimize(
        engine.run_panel(channels, protocols, fe_ptrs, mux, parallelism));
  }
}
BENCHMARK(BM_MixedPanelScan)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(0)
    ->ArgName("parallelism")
    ->UseRealTime();

// ------------------------------------------------------------- explorer

void BM_ExplorerEvaluate(benchmark::State& state) {
  const plat::PanelSpec panel = plat::fig4_panel();
  const plat::ComponentCatalog catalog = plat::ComponentCatalog::standard();
  plat::ExplorerOptions options;
  options.parallelism = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(plat::explore(panel, catalog, options));
  }
}
BENCHMARK(BM_ExplorerEvaluate)->Arg(1)->Arg(0)->ArgName("parallelism")->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::printf("hardware threads: %zu\n",
              idp::util::ThreadPool::default_parallelism());
  // CI uploads BENCH_hot_path.json as the measurement baseline.
  return idp::bench::run_benchmarks_with_default_out(argc, argv,
                                                     "BENCH_hot_path.json");
}
