// Shape-constraint ablation (paper section 3: "The layout is usually driven
// by a shape constraint (for example a given height or aspect ratio). Given
// this constraint, the language tries to produce the corresponding most
// compact layout.").
//
// Sweeps the target aspect ratio and a height cap, reporting the chosen
// fold counts, the achieved outline and area, and how the routing parasitics
// move with the floorplan -- the coupling between shape and electrical
// behaviour that motivates feeding layout information back into sizing.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"

namespace {

using namespace lo;
using namespace lo::core;

void printSweep() {
  const tech::Technology t = tech::Technology::generic060();
  EngineOptions base;
  base.sizingCase = SizingCase::kCase1;  // One fixed design for the sweep.
  const SynthesisEngine engine(t, base);
  FoldedCascodeOtaTopology topo(t, engine.model());
  (void)engine.run(topo, sizing::OtaSpecs{});
  const circuit::FoldedCascodeOtaDesign& refDesign = topo.sizingResult().design;

  std::printf("\n=== Shape constraint sweep (fixed design) ===\n");
  std::printf("%8s %10s %10s %8s %10s %8s %8s %10s\n", "aspect", "W um", "H um",
              "ratio", "area mm^2", "nf pair", "nf sink", "C(x1) fF");
  for (double aspect : {0.3, 0.5, 1.0, 2.0, 3.0}) {
    layout::LayoutOptions opt;
    opt.placer.shape = layout::ShapeConstraint{};
    opt.placer.shape.aspectRatio = aspect;
    const auto lay = layout::generateOtaLayout(t, refDesign, opt, false);
    std::printf("%8.2f %10.1f %10.1f %8.2f %10.4f %8d %8d %10.2f\n", aspect,
                lay.width / 1e3, lay.height / 1e3,
                static_cast<double>(lay.width) / lay.height,
                lay.width / 1e6 * (lay.height / 1e6),
                lay.foldPlans.at(circuit::OtaGroup::kInputPair).nf,
                lay.foldPlans.at(circuit::OtaGroup::kSink).nf,
                lay.parasitics.capOn("x1") * 1e15);
  }

  std::printf("\nheight-cap sweep:\n%10s %10s %10s %10s\n", "cap um", "W um", "H um",
              "area mm^2");
  for (double capUm : {80.0, 100.0, 130.0, 200.0}) {
    layout::LayoutOptions opt;
    opt.placer.shape = layout::ShapeConstraint{};
    opt.placer.shape.maxHeight = static_cast<geom::Coord>(capUm * 1000);
    const auto lay = layout::generateOtaLayout(t, refDesign, opt, false);
    std::printf("%10.0f %10.1f %10.1f %10.4f\n", capUm, lay.width / 1e3,
                lay.height / 1e3, lay.width / 1e6 * (lay.height / 1e6));
  }
}

void BM_FloorplanOnly(benchmark::State& state) {
  const tech::Technology t = tech::Technology::generic060();
  const SynthesisEngine engine(t, EngineOptions{});
  FoldedCascodeOtaTopology topo(t, engine.model());
  (void)engine.run(topo, sizing::OtaSpecs{});
  const circuit::FoldedCascodeOtaDesign& refDesign = topo.sizingResult().design;
  layout::LayoutOptions opt;
  opt.placer.shape = layout::ShapeConstraint{};
  opt.placer.shape.aspectRatio = 1.0;
  opt.maxFoldCandidates = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto lay = layout::generateOtaLayout(t, refDesign, opt, false);
    benchmark::DoNotOptimize(lay);
  }
}
BENCHMARK(BM_FloorplanOnly)->Arg(3)->Arg(6)->Arg(10)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printSweep();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
