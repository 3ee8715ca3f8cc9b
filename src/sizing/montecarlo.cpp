#include "sizing/montecarlo.hpp"

#include <cmath>
#include <random>

#include "sim/measure.hpp"
#include "sim/simulator.hpp"
#include "sizing/verify.hpp"

namespace lo::sizing {

MonteCarloResult runMonteCarlo(const tech::Technology& t, const device::MosModel& model,
                               const circuit::FoldedCascodeOtaDesign& design,
                               const layout::ParasiticReport* parasitics,
                               MonteCarloOptions options) {
  OtaVerifier verifier(t, model);
  const circuit::Circuit base = verifier.buildAcTestbench(design, parasitics, 1.0, 0.0, 0.0);

  std::mt19937 rng(options.seed);
  std::normal_distribution<double> gauss(0.0, 1.0);

  MonteCarloResult result;
  result.samples = options.samples;
  // One working circuit and one Simulator for the whole trial sequence: the
  // simulator reads the circuit afresh on every solve, so rewriting the
  // per-trial mismatch fields in place avoids a netlist copy per sample,
  // and neighbouring trials are close enough that each operating point
  // warm-starts from the previous one (cold-ladder fallback on the rare
  // divergent draw).
  circuit::Circuit work = base;
  sim::SimOptions simOptions;
  simOptions.tempK = t.temperature;
  sim::Simulator sim(work, t, model, simOptions);
  sim::Simulator::WarmStart warm;
  const auto inp = *work.findNode("inp");
  const auto out = *work.findNode("out");
  for (int sample = 0; sample < options.samples; ++sample) {
    for (circuit::Mos& m : work.mosfets) {
      const double area = m.geo.w * m.geo.l;
      const double sigmaVt = options.avt / std::sqrt(std::max(area, 1e-15));
      const double sigmaBeta = options.abeta / std::sqrt(std::max(area, 1e-15));
      m.vtoDelta = sigmaVt * gauss(rng);
      m.kpScale = 1.0 + sigmaBeta * gauss(rng);
    }
    try {
      const sim::DcSolution op = sim.dcOperatingPoint(warm);
      result.offsetsMv.push_back((op.voltage(inp) - op.voltage(out)) * 1e3);
      const auto ac = sim.ac(op, 10.0, 100.0, 3);
      result.gainsDb.push_back(sim::toDb(sim::dcGain(sim::curveAt(ac, out))));
    } catch (const sim::SimulationError&) {
      ++result.failures;
    }
  }

  auto stats = [](const std::vector<double>& v, double& mean, double& sigma) {
    if (v.empty()) return;
    double sum = 0.0;
    for (double x : v) sum += x;
    mean = sum / v.size();
    double ss = 0.0;
    for (double x : v) ss += (x - mean) * (x - mean);
    sigma = v.size() > 1 ? std::sqrt(ss / (v.size() - 1)) : 0.0;
  };
  stats(result.offsetsMv, result.offsetMeanMv, result.offsetSigmaMv);
  stats(result.gainsDb, result.gainMeanDb, result.gainSigmaDb);
  return result;
}

}  // namespace lo::sizing
