// Ablation of the paper's parasitic-control trick (section 3 / Fig. 5):
// "all transistor folds are chosen such that drains are internal diffusions
// to minimize drain capacitance and enhance the frequency behavior".
//
// Compares the internal-drain fold policy against a plain alternating
// policy: first the raw junction figures, then the uncompensated effect on
// the extracted OTA (same sized design, both layout styles), then the fully
// compensated flow (the methodology absorbs the difference).
#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "sizing/verify.hpp"

namespace {

using namespace lo;
using namespace lo::core;

void printAblation() {
  const tech::Technology t = tech::Technology::generic060();
  const sizing::OtaSpecs specs;

  // A design sized without any layout knowledge, so neither layout style is
  // "expected" by the sizing.
  EngineOptions base;
  base.sizingCase = SizingCase::kCase1;
  const SynthesisEngine refEngine(t, base);
  FoldedCascodeOtaTopology refTopo(t, refEngine.model());
  (void)refEngine.run(refTopo, specs);
  const circuit::FoldedCascodeOtaDesign& refDesign = refTopo.sizingResult().design;

  layout::LayoutOptions internal;
  layout::LayoutOptions alternating;
  alternating.foldStyle = device::FoldStyle::kAlternating;

  std::printf("\n=== Fold-policy ablation: internal drains vs alternating ===\n");
  std::printf("\nper-group drain junction (same sized design, both styles):\n");
  const auto layInt = layout::generateOtaLayout(t, refDesign, internal, false);
  const auto layAlt = layout::generateOtaLayout(t, refDesign, alternating, false);
  std::printf("%-12s %6s %12s %6s %12s %9s\n", "group", "nf(i)", "AD(i) um^2", "nf(a)",
              "AD(a) um^2", "AD ratio");
  for (const auto& [g, ji] : layInt.junctions) {
    const auto& ja = layAlt.junctions.at(g);
    std::printf("%-12s %6d %12.2f %6d %12.2f %9.2f\n", circuit::otaGroupName(g), ji.nf,
                ji.ad * 1e12, ja.nf, ja.ad * 1e12, ja.ad / ji.ad);
  }

  // Uncompensated: verify the same electrical design against both layouts.
  const auto model = device::MosModel::create("ekv");
  sizing::OtaVerifier verifier(t, *model);
  const auto di = sizing::applyExtractedGeometry(refDesign, layInt.junctions);
  const auto da = sizing::applyExtractedGeometry(refDesign, layAlt.junctions);
  const auto pi = verifier.verify(di, &layInt.parasitics);
  const auto pa = verifier.verify(da, &layAlt.parasitics);
  std::printf("\nuncompensated extracted performance (same design, two styles):\n");
  std::printf("%-22s %14s %14s\n", "", "internal", "alternating");
  std::printf("%-22s %14.2f %14.2f\n", "GBW (MHz)", pi.gbwHz / 1e6, pa.gbwHz / 1e6);
  std::printf("%-22s %14.2f %14.2f\n", "Phase margin (deg)", pi.phaseMarginDeg,
              pa.phaseMarginDeg);
  std::printf("%-22s %14.2f %14.2f\n", "Slew rate (V/us)", pi.slewRateVPerUs,
              pa.slewRateVPerUs);
  std::printf("-> internal drains keep %.2f MHz and %.2f deg that the plain style "
              "gives away\n",
              (pi.gbwHz - pa.gbwHz) / 1e6, pi.phaseMarginDeg - pa.phaseMarginDeg);

  // Compensated: the full methodology with either style still meets spec.
  EngineOptions c4;
  c4.sizingCase = SizingCase::kCase4;
  const SynthesisEngine engine(t, c4);
  FoldedCascodeOtaTopology ti(t, engine.model(), internal);
  FoldedCascodeOtaTopology ta(t, engine.model(), alternating);
  const EngineResult ri = engine.run(ti, specs);
  const EngineResult ra = engine.run(ta, specs);
  std::printf("\ncompensated (full case-4 flow): GBW internal %.2f MHz, alternating "
              "%.2f MHz, power %.2f vs %.2f mW\n",
              ri.measured.gbwHz / 1e6, ra.measured.gbwHz / 1e6, ri.measured.powerMw,
              ra.measured.powerMw);
}

void BM_LayoutParasiticMode(benchmark::State& state) {
  const tech::Technology t = tech::Technology::generic060();
  EngineOptions base;
  base.sizingCase = SizingCase::kCase1;
  const SynthesisEngine engine(t, base);
  FoldedCascodeOtaTopology topo(t, engine.model());
  (void)engine.run(topo, sizing::OtaSpecs{});
  layout::LayoutOptions opt;
  if (state.range(0)) opt.foldStyle = device::FoldStyle::kAlternating;
  for (auto _ : state) {
    const auto lay = layout::generateOtaLayout(t, topo.sizingResult().design, opt, false);
    benchmark::DoNotOptimize(lay);
  }
}
BENCHMARK(BM_LayoutParasiticMode)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  printAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
