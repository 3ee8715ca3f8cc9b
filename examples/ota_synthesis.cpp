// Full OTA synthesis with options: the command-line face of the engine.
//
//   $ ./ota_synthesis [--case 1..4] [--model level1|ekv] [--gbw MHz]
//                     [--pm deg] [--cl pF] [--aspect ratio] [--mc N]
//
// Prints the complete Table-1-style report (synthesised vs extracted
// simulation), the convergence history, the extracted netlist, and, with
// --mc N, a Monte-Carlo mismatch analysis.  Writes ota_<case>.svg/.cif and
// ota_<case>.sp under examples/out/.
#include <cstdio>
#include <cstring>
#include <string>

#include "circuit/spice_io.hpp"
#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "layout/writers.hpp"
#include "sizing/montecarlo.hpp"
#include "sizing/ota_sizer.hpp"

int main(int argc, char** argv) {
  using namespace lo;
  using namespace lo::core;

  EngineOptions options;
  layout::LayoutOptions layoutOptions;
  sizing::OtaSpecs specs;
  int mcSamples = 0;
  bool withBias = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--bias") {
      withBias = true;
      options.includeBiasGenerator = true;  // Draw it in the layout too.
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--case") {
      options.sizingCase = static_cast<SizingCase>(std::stoi(val) - 1);
    } else if (key == "--model") {
      options.modelName = val;
    } else if (key == "--gbw") {
      specs.gbw = std::stod(val) * 1e6;
    } else if (key == "--pm") {
      specs.phaseMarginDeg = std::stod(val);
    } else if (key == "--cl") {
      specs.cload = std::stod(val) * 1e-12;
    } else if (key == "--aspect") {
      layoutOptions.placer.shape = layout::ShapeConstraint{};
      layoutOptions.placer.shape.aspectRatio = std::stod(val);
    } else if (key == "--mc") {
      mcSamples = std::stoi(val);
    } else {
      std::fprintf(stderr, "unknown option %s\n", key.c_str());
      return 1;
    }
  }

  const tech::Technology tech = tech::Technology::generic060();
  const SynthesisEngine engine(tech, options);
  FoldedCascodeOtaTopology topology(tech, engine.model(), layoutOptions);
  const EngineResult r = engine.run(topology, specs);
  const char* caseName = sizingCaseName(options.sizingCase);

  std::printf("=== layout-oriented synthesis, %s, model %s ===\n", caseName,
              options.modelName.c_str());
  std::printf("specs: GBW %.1f MHz, PM %.0f deg, CL %.1f pF, VDD %.1f V\n",
              specs.gbw / 1e6, specs.phaseMarginDeg, specs.cload * 1e12, specs.vdd);

  if (!r.iterations.empty()) {
    std::printf("\nsizing <-> layout convergence (%d calls):\n", r.layoutCalls);
    for (const EngineIteration& it : r.iterations) {
      std::printf("  call %d:", it.layoutCall);
      for (std::size_t n = 0; n < r.criticalNets.size(); ++n) {
        std::printf("  C(%s)=%.1f fF", r.criticalNets[n].c_str(),
                    it.netCaps[n] * 1e15);
      }
      std::printf("  Itail=%.0f uA\n", it.primaryCurrent * 1e6);
    }
  }

  std::printf("\n%-24s %12s %12s\n", "specification", "synthesised", "simulated");
  auto row = [](const char* name, double a, double b) {
    std::printf("%-24s %12.2f %12.2f\n", name, a, b);
  };
  row("DC gain (dB)", r.predicted.dcGainDb, r.measured.dcGainDb);
  row("GBW (MHz)", r.predicted.gbwHz / 1e6, r.measured.gbwHz / 1e6);
  row("Phase margin (deg)", r.predicted.phaseMarginDeg, r.measured.phaseMarginDeg);
  row("Slew rate (V/us)", r.predicted.slewRateVPerUs, r.measured.slewRateVPerUs);
  row("CMRR (dB)", r.predicted.cmrrDb, r.measured.cmrrDb);
  row("Offset (mV)", r.predicted.offsetMv, r.measured.offsetMv);
  row("Rout (MOhm)", r.predicted.outputResistanceMOhm, r.measured.outputResistanceMOhm);
  row("Input noise (uV)", r.predicted.inputNoiseUv, r.measured.inputNoiseUv);
  row("Thermal (nV/rtHz)", r.predicted.thermalNoiseDensityNv,
      r.measured.thermalNoiseDensityNv);
  row("Flicker (uV/rtHz)", r.predicted.flickerNoiseUv, r.measured.flickerNoiseUv);
  row("Power (mW)", r.predicted.powerMw, r.measured.powerMw);
  row("PSRR (dB, ext)", r.predicted.psrrDb, r.measured.psrrDb);
  row("Settling 1% (ns, ext)", r.predicted.settlingTimeNs, r.measured.settlingTimeNs);

  const layout::OtaLayoutResult& lay = topology.layout();
  const circuit::FoldedCascodeOtaDesign& extracted = topology.extractedDesign();

  if (mcSamples > 0) {
    sizing::MonteCarloOptions mc;
    mc.samples = mcSamples;
    const auto stats = sizing::runMonteCarlo(tech, engine.model(), extracted,
                                             &lay.parasitics, mc);
    std::printf("\nMonte Carlo (%d samples, %d failed):\n", stats.samples,
                stats.failures);
    std::printf("  offset: %.3f mV mean, %.3f mV sigma\n", stats.offsetMeanMv,
                stats.offsetSigmaMv);
    std::printf("  gain:   %.2f dB mean, %.3f dB sigma\n", stats.gainMeanDb,
                stats.gainSigmaDb);
  }

  if (withBias) {
    std::printf("\n(the simulated column above already uses the drawn bias "
                "generator, Iref %.1f uA)\n",
                topology.bias().biasCurrent * 1e6);
  }

  // Artifacts: layout views and the extracted netlist.
  const std::string base = layout::outputPath(std::string("ota_") + caseName);
  layout::writeFile(base + ".svg", layout::toSvg(lay.cell.shapes));
  layout::writeFile(base + ".cif", layout::toCif(lay.cell.shapes, "OTA"));
  layout::writeFile(base + ".gds", layout::toGds(lay.cell.shapes, "OTA"));
  {
    circuit::Circuit netlist;
    netlist.title = "extracted folded-cascode OTA (" + std::string(caseName) + ")";
    circuit::instantiateOta(netlist, extracted);
    layout::annotateCircuit(netlist, lay.parasitics);
    layout::writeFile(base + ".sp", circuit::writeNetlist(netlist));
  }
  std::printf("\nwrote %s.svg / .cif / .gds / .sp (layout %.1f x %.1f um)\n",
              base.c_str(), lay.width / 1e3, lay.height / 1e3);
  return 0;
}
