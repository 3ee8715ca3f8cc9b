// Reproduces paper Fig. 5: the generated layout of the case-4 OTA.
//
// Runs the full layout-oriented synthesis flow (case 4), generates the
// physical layout, and reports what the paper's figure shows: the Fig. 5
// floorplan, drains on internal diffusions everywhere, the common-centroid
// input pair with end dummies, and the floating well of the pair.  Writes
// fig5_ota_layout.svg / .cif under examples/out/.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "layout/drc.hpp"
#include "layout/writers.hpp"

namespace {

using namespace lo;
using namespace lo::core;

void printFigure5() {
  const tech::Technology t = tech::Technology::generic060();
  EngineOptions opt;
  opt.sizingCase = SizingCase::kCase4;
  const SynthesisEngine engine(t, opt);
  FoldedCascodeOtaTopology topology(t, engine.model());
  (void)engine.run(topology, sizing::OtaSpecs{});
  const layout::OtaLayoutResult& lay = topology.layout();

  std::printf("\n=== Fig. 5: generated layout of the case-4 OTA ===\n");
  std::printf("outline: %.1f x %.1f um (aspect %.2f)\n", lay.width / 1e3,
              lay.height / 1e3, static_cast<double>(lay.width) / lay.height);

  std::printf("\nfloorplan rows (leaf, position, fold count):\n");
  for (const char* name : {"MP3C", "MP3", "MP5", "MP4", "MP4C", "PAIR", "MN1C", "SINK",
                           "MN2C"}) {
    const auto& leaf = lay.placement.floorplan.leaves.at(name);
    std::printf("  %-5s at (%6.1f, %6.1f) um, %5.1f x %5.1f um, nf/fingers=%d\n", name,
                leaf.rect.x0 / 1e3, leaf.rect.y0 / 1e3, leaf.rect.width() / 1e3,
                leaf.rect.height() / 1e3, leaf.tag);
  }

  std::printf("\nfold style (paper: 'all transistor folds are chosen such that "
              "drains are internal diffusions'):\n");
  for (const auto& [g, plan] : lay.foldPlans) {
    std::printf("  %-10s nf=%2d  foldW=%5.2f um  drains %s\n", circuit::otaGroupName(g),
                plan.nf, plan.foldWidth * 1e6,
                plan.drainInternal ? "internal" : "mixed");
  }

  std::printf("\ninput pair (common centroid with dummies, paper Fig. 5):\n");
  std::printf("  centroid offsets: MP1=%.2f MP2=%.2f gate pitches, orientation "
              "imbalance %d/%d, dummies %d\n",
              lay.pairPlan.metrics[0].centroidOffset,
              lay.pairPlan.metrics[1].centroidOffset,
              lay.pairPlan.metrics[0].orientationImbalance,
              lay.pairPlan.metrics[1].orientationImbalance, lay.pairPlan.dummyCount);
  std::printf("  floating well capacitance on the tail node: %.1f fF\n",
              lay.parasitics.nets.count("tail")
                  ? lay.parasitics.nets.at("tail").wellCap * 1e15
                  : 0.0);

  std::printf("\nper-net routing parasitics (the numbers fed back to sizing):\n");
  for (const char* net : {"x1", "x2", "y1", "z1", "z2", "out", "tail"}) {
    if (!lay.parasitics.nets.count(net)) continue;
    const auto& p = lay.parasitics.nets.at(net);
    std::printf("  %-5s routing %6.2f fF  well %6.2f fF  coupling %6.2f fF\n", net,
                p.routingCap * 1e15, p.wellCap * 1e15,
                p.totalCap() * 1e15 - p.routingCap * 1e15 - p.wellCap * 1e15);
  }

  const auto violations = layout::runDrc(t, lay.cell.shapes);
  std::size_t shorts = 0;
  for (const auto& v : violations) {
    if (v.detail.find("short") != std::string::npos) ++shorts;
  }
  std::printf("\nDRC: %zu violations (%zu shorts) over %zu shapes\n", violations.size(),
              shorts, lay.cell.shapes.size());

  layout::writeFile(layout::outputPath("fig5_ota_layout.svg"),
                    layout::toSvg(lay.cell.shapes));
  layout::writeFile(layout::outputPath("fig5_ota_layout.cif"),
                    layout::toCif(lay.cell.shapes, "FIG5OTA"));
  std::printf("wrote %s / .cif\n", layout::outputPath("fig5_ota_layout.svg").c_str());
}

void BM_OtaLayoutParasiticMode(benchmark::State& state) {
  // The paper requires the layout tool to be "fast as it is normally called
  // several times during circuit sizing".
  const tech::Technology t = tech::Technology::generic060();
  const SynthesisEngine engine(t, EngineOptions{});
  FoldedCascodeOtaTopology topology(t, engine.model());
  (void)engine.run(topology, sizing::OtaSpecs{});
  for (auto _ : state) {
    const auto lay = layout::generateOtaLayout(t, topology.sizingResult().design,
                                               layout::LayoutOptions{}, false);
    benchmark::DoNotOptimize(lay);
  }
}
BENCHMARK(BM_OtaLayoutParasiticMode)->Unit(benchmark::kMillisecond);

void BM_OtaLayoutGenerationMode(benchmark::State& state) {
  const tech::Technology t = tech::Technology::generic060();
  const SynthesisEngine engine(t, EngineOptions{});
  FoldedCascodeOtaTopology topology(t, engine.model());
  (void)engine.run(topology, sizing::OtaSpecs{});
  for (auto _ : state) {
    const auto lay = layout::generateOtaLayout(t, topology.sizingResult().design,
                                               layout::LayoutOptions{}, true);
    benchmark::DoNotOptimize(lay);
  }
}
BENCHMARK(BM_OtaLayoutGenerationMode)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printFigure5();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
