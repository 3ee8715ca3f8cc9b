// Layout-engine perf/quality snapshot: the constraint-driven row placer
// on both topologies, declared backend (legacy-exact slicing) against the
// seeded search.  Prints the comparison, runs the acceptance check that
// the seeded placer stays within 5% of the legacy slicing area, and
// writes BENCH_layout.json (area, estimated wirelength, placer wall time
// per topology and mode) under examples/out/ -- the first entry of the
// perf trajectory the roadmap asks for.
//
// CI runs a short-budget pass: ext_layout --layout-candidates=24
// --benchmark_filter=none.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "device/mos_model.hpp"
#include "layout/ota_layout.hpp"
#include "layout/two_stage_layout.hpp"
#include "layout/writers.hpp"
#include "sizing/ota_sizer.hpp"
#include "sizing/two_stage.hpp"

namespace {

using namespace lo;

int gCandidates = 96;  // Seeded-search budget; CI passes a smaller one.

const tech::Technology& tech060() {
  static const tech::Technology t = tech::Technology::generic060();
  return t;
}

circuit::FoldedCascodeOtaDesign otaDesign() {
  static const circuit::FoldedCascodeOtaDesign d = [] {
    const auto model = device::MosModel::create("ekv");
    const sizing::OtaSizer sizer(tech060(), *model);
    return sizer.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2()).design;
  }();
  return d;
}

circuit::TwoStageOtaDesign twoStageDesign() {
  static const circuit::TwoStageOtaDesign d = [] {
    const auto model = device::MosModel::create("ekv");
    const sizing::TwoStageSizer sizer(tech060(), *model);
    sizing::OtaSpecs specs;
    specs.gbw = 30e6;
    return sizer.size(specs, sizing::SizingPolicy::case2()).design;
  }();
  return d;
}

/// One topology x placer-mode measurement.
struct Sample {
  std::string topology;
  std::string mode;
  double areaUm2 = 0.0;
  double wirelengthUm = 0.0;
  double scoreNm2 = 0.0;
  int candidates = 0;
  double wallMs = 0.0;
};

template <typename Fn>
Sample measure(const char* topology, const char* mode, Fn&& generate) {
  Sample s;
  s.topology = topology;
  s.mode = mode;
  double bestMs = 1e18;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const auto lay = generate();
    const auto t1 = std::chrono::steady_clock::now();
    bestMs = std::min(bestMs, std::chrono::duration<double, std::milli>(t1 - t0).count());
    s.areaUm2 = static_cast<double>(lay.width) / 1e3 * (static_cast<double>(lay.height) / 1e3);
    s.wirelengthUm = lay.placement.estimatedWirelengthNm / 1e3;
    s.scoreNm2 = lay.placement.scoreNm2;
    s.candidates = lay.placement.candidatesEvaluated;
  }
  s.wallMs = bestMs;
  return s;
}

Sample runOta(layout::RowSearch search) {
  layout::LayoutOptions opt;
  opt.placer.search = search;
  opt.placer.candidates = gCandidates;
  opt.placer.threads = 4;
  const char* mode = search == layout::RowSearch::kDeclared ? "declared" : "seeded";
  return measure("folded_cascode_ota", mode, [&] {
    return layout::generateOtaLayout(tech060(), otaDesign(), opt, false);
  });
}

Sample runTwoStage(layout::RowSearch search) {
  layout::LayoutOptions opt;
  opt.placer.search = search;
  opt.placer.candidates = gCandidates;
  opt.placer.threads = 4;
  const char* mode = search == layout::RowSearch::kDeclared ? "declared" : "seeded";
  return measure("two_stage", mode, [&] {
    return layout::generateTwoStageLayout(tech060(), twoStageDesign(), opt, false);
  });
}

std::string toJson(const std::vector<Sample>& samples) {
  std::ostringstream out;
  out.precision(6);
  out << "{\n  \"bench\": \"ext_layout\",\n  \"candidates\": " << gCandidates
      << ",\n  \"samples\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const Sample& s = samples[i];
    out << "    {\"topology\": \"" << s.topology << "\", \"mode\": \"" << s.mode
        << "\", \"area_um2\": " << s.areaUm2 << ", \"wirelength_um\": " << s.wirelengthUm
        << ", \"score_nm2\": " << s.scoreNm2
        << ", \"candidates_evaluated\": " << s.candidates
        << ", \"wall_ms\": " << s.wallMs << '}' << (i + 1 < samples.size() ? "," : "")
        << '\n';
  }
  out << "  ]\n}\n";
  return out.str();
}

/// Acceptance: the seeded row placer must stay within 5% of the legacy
/// declared slicing area on both topologies.
int runSnapshot() {
  std::vector<Sample> samples;
  samples.push_back(runOta(layout::RowSearch::kDeclared));
  samples.push_back(runOta(layout::RowSearch::kSeeded));
  samples.push_back(runTwoStage(layout::RowSearch::kDeclared));
  samples.push_back(runTwoStage(layout::RowSearch::kSeeded));

  std::printf("\n=== ext_layout: row placer quality/perf snapshot (%d candidates) ===\n",
              gCandidates);
  std::printf("%-20s %-9s %12s %14s %8s %10s\n", "topology", "mode", "area um^2",
              "wirelength um", "cands", "wall ms");
  for (const Sample& s : samples) {
    std::printf("%-20s %-9s %12.0f %14.1f %8d %10.2f\n", s.topology.c_str(),
                s.mode.c_str(), s.areaUm2, s.wirelengthUm, s.candidates, s.wallMs);
  }

  const std::string path = layout::outputPath("BENCH_layout.json");
  layout::writeFile(path, toJson(samples));
  std::printf("wrote %s\n", path.c_str());

  int failures = 0;
  for (std::size_t i = 0; i + 1 < samples.size(); i += 2) {
    const Sample& declared = samples[i];
    const Sample& seeded = samples[i + 1];
    if (seeded.areaUm2 > declared.areaUm2 * 1.05) {
      std::printf("ACCEPTANCE FAIL: %s seeded area %.0f um^2 exceeds 1.05x declared "
                  "%.0f um^2\n",
                  declared.topology.c_str(), seeded.areaUm2, declared.areaUm2);
      ++failures;
    }
    if (seeded.scoreNm2 > declared.scoreNm2) {
      std::printf("ACCEPTANCE FAIL: %s seeded score %.3e beats nothing (declared "
                  "%.3e is the baseline candidate)\n",
                  declared.topology.c_str(), seeded.scoreNm2, declared.scoreNm2);
      ++failures;
    }
  }
  if (failures == 0) {
    std::printf("acceptance: seeded placer within 5%% of legacy slicing area on both "
                "topologies\n");
  }
  return failures;
}

void BM_OtaRowPlacerDeclared(benchmark::State& state) {
  for (auto _ : state) {
    const auto lay = layout::generateOtaLayout(
        tech060(), otaDesign(), layout::LayoutOptions{}, false);
    benchmark::DoNotOptimize(lay);
  }
}
BENCHMARK(BM_OtaRowPlacerDeclared)->Unit(benchmark::kMillisecond);

void BM_OtaRowPlacerSeeded(benchmark::State& state) {
  layout::LayoutOptions opt;
  opt.placer.search = layout::RowSearch::kSeeded;
  opt.placer.candidates = gCandidates;
  opt.placer.threads = 4;
  for (auto _ : state) {
    const auto lay = layout::generateOtaLayout(tech060(), otaDesign(), opt, false);
    benchmark::DoNotOptimize(lay);
  }
}
BENCHMARK(BM_OtaRowPlacerSeeded)->Unit(benchmark::kMillisecond);

void BM_TwoStageRowPlacerSeeded(benchmark::State& state) {
  layout::LayoutOptions opt;
  opt.placer.search = layout::RowSearch::kSeeded;
  opt.placer.candidates = gCandidates;
  opt.placer.threads = 4;
  for (auto _ : state) {
    const auto lay =
        layout::generateTwoStageLayout(tech060(), twoStageDesign(), opt, false);
    benchmark::DoNotOptimize(lay);
  }
}
BENCHMARK(BM_TwoStageRowPlacerSeeded)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flag before google-benchmark sees (and rejects) it.
  int outArgc = 0;
  for (int i = 0; i < argc; ++i) {
    constexpr const char* kFlag = "--layout-candidates=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      gCandidates = std::atoi(argv[i] + std::strlen(kFlag));
      if (gCandidates <= 0) {
        std::fprintf(stderr, "bad --layout-candidates\n");
        return 2;
      }
      continue;
    }
    argv[outArgc++] = argv[i];
  }
  argc = outArgc;

  const int failures = runSnapshot();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return failures == 0 ? 0 : 1;
}
