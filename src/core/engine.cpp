#include "core/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>

namespace lo::core {

sizing::SizingPolicy SynthesisEngine::policyFor(SizingCase c) {
  sizing::SizingPolicy p;
  switch (c) {
    case SizingCase::kCase1:
      p.diffusionCaps = false;
      break;
    case SizingCase::kCase2:
      p.diffusionCaps = true;
      p.exactDiffusion = false;
      break;
    case SizingCase::kCase3:
    case SizingCase::kCase4:
      p.diffusionCaps = true;
      p.exactDiffusion = true;
      break;
  }
  return p;
}

double SynthesisEngine::relativeChange(const std::vector<double>& a,
                                       const std::vector<double>& b) {
  // A length mismatch means the critical-net set itself changed between
  // snapshots; treating it as 100% change keeps the loop running instead
  // of silently comparing only the common prefix.
  if (a.size() != b.size()) return 1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double base = std::max(std::abs(a[i]), 1e-18);
    worst = std::max(worst, std::abs(a[i] - b[i]) / base);
  }
  return worst;
}

ConvergenceReport analyzeConvergence(const std::vector<EngineIteration>& iterations,
                                     bool parasiticConverged, double tol) {
  ConvergenceReport report;
  report.loopRan = !iterations.empty();
  if (!report.loopRan) return report;  // Cases 1/2: nothing to converge.

  const std::size_t n = iterations.size();
  report.callDeltas.reserve(n - 1);
  for (std::size_t i = 1; i < n; ++i) {
    report.callDeltas.push_back(SynthesisEngine::relativeChange(
        iterations[i - 1].netCaps, iterations[i].netCaps));
  }
  // A single snapshot carries no settling evidence at all.
  report.worstResidual = report.callDeltas.empty() ? 1.0 : report.callDeltas.back();

  if (parasiticConverged) return report;  // verdict stays kConverged.

  // The loop fell out of maxLayoutCalls still moving.  Oscillation: the
  // final cap vector matches (within tol) an earlier snapshot at least two
  // calls back, so the loop was revisiting states, not approaching one.
  const std::vector<double>& last = iterations[n - 1].netCaps;
  for (std::size_t period = 2; period < n; ++period) {
    if (SynthesisEngine::relativeChange(iterations[n - 1 - period].netCaps, last) <
        std::max(tol, 1e-12)) {
      report.verdict = ConvergenceVerdict::kOscillating;
      report.cycleLength = static_cast<int>(period);
      return report;
    }
  }
  report.verdict = ConvergenceVerdict::kDrifting;
  return report;
}

SynthesisEngine::SynthesisEngine(const tech::Technology& t, EngineOptions options)
    : tech_(t), options_(std::move(options)),
      model_(device::MosModel::create(options_.modelName)) {}

EngineResult SynthesisEngine::run(const sizing::OtaSpecs& specs) const {
  const auto topology =
      TopologyRegistry::instance().create(options_.topology, tech_, *model_);
  return run(*topology, specs);
}

EngineResult SynthesisEngine::run(Topology& topology,
                                  const sizing::OtaSpecs& specs) const {
  const EngineHooks& hooks = options_.hooks;
  const auto checkCancel = [&hooks] {
    if (hooks.cancelRequested && hooks.cancelRequested()) throw JobCancelled();
  };
  EngineResult result;

  // Every stage execution is timed and recorded on the result (the hot-path
  // trajectory bench/ext_sim and the perf logs read), whether or not an
  // onStage hook is listening.
  const auto timed = [&hooks, &result](EngineStage stage, auto&& body) {
    if (hooks.onStageStart) hooks.onStageStart(stage);
    const auto start = std::chrono::steady_clock::now();
    body();
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    result.stageSeconds.emplace_back(stage, seconds);
    if (hooks.onStage) hooks.onStage(stage, seconds);
  };

  result.criticalNets = topology.criticalNets();

  // A malformed matching declaration fails every layout call identically;
  // reject it up front with the full violation list instead of letting the
  // first parasitic-mode layout throw mid-loop.
  layout::requireValidConstraints(topology.placementConstraints());

  sizing::SizingPolicy policy = policyFor(options_.sizingCase);

  // First sizing: "one fold per transistor, only diffusion capacitances"
  // (cases 2-4) or no layout caps at all (case 1).
  checkCancel();
  timed(EngineStage::kSizing, [&] { topology.size(specs, policy); });

  if (usesLayoutFeedback(options_.sizingCase)) {
    // Sizing <-> layout loop in parasitic calculation mode, until the
    // critical-net capacitances remain unchanged.
    std::vector<double> prev;
    for (int call = 1; call <= options_.maxLayoutCalls; ++call) {
      checkCancel();
      const layout::ParasiticReport* reportPtr = nullptr;
      timed(EngineStage::kParasiticLayout,
            [&] { reportPtr = &topology.layoutParasitic(); });
      const layout::ParasiticReport& report = *reportPtr;
      ++result.layoutCalls;

      EngineIteration it;
      it.layoutCall = call;
      it.netCaps.reserve(result.criticalNets.size());
      for (const std::string& net : result.criticalNets) {
        it.netCaps.push_back(report.capOn(net));
      }
      it.primaryCurrent = topology.primaryCurrent();
      it.pairWidth = topology.pairWidth();
      result.iterations.push_back(it);

      if (call > 1 && relativeChange(prev, it.netCaps) < options_.convergenceTol) {
        result.parasiticConverged = true;
        break;
      }
      prev = it.netCaps;

      // Feed the layout knowledge back into the sizing policy and resize.
      checkCancel();
      topology.feedback(policy, options_.sizingCase == SizingCase::kCase4);
      timed(EngineStage::kSizing, [&] { topology.size(specs, policy); });
    }
  }

  result.convergence = analyzeConvergence(result.iterations,
                                          result.parasiticConverged,
                                          options_.convergenceTol);

  // Generation mode, extraction and verification-by-simulation: always with
  // every parasitic, whatever the sizing case (Table 1's bracket column).
  checkCancel();
  timed(EngineStage::kGeneration, [&] {
    topology.prepareGeneration(options_.includeBiasGenerator);
    topology.layoutGenerate();
  });
  result.layoutWidthUm = static_cast<double>(topology.layoutWidth()) * 1e-3;
  result.layoutHeightUm = static_cast<double>(topology.layoutHeight()) * 1e-3;
  timed(EngineStage::kExtraction, [&] { topology.applyExtracted(); });
  checkCancel();
  verify::VerificationSetup setup;
  timed(EngineStage::kVerification, [&] {
    setup = topology.verificationSetup();
    result.measured = sizing::measureAmplifier(tech_, *model_, setup.postLayout,
                                               setup.inputCm, setup.vdd,
                                               setup.parasitics, options_.verifyOptions);
  });
  result.predicted = topology.predicted();

  // Post-layout verification tier: re-simulate schematic vs extracted
  // netlists and judge the per-spec deltas.  The extracted-netlist core
  // measurement is reused from the verification stage above, so the extra
  // cost is the schematic re-measurement plus the extended sweeps.
  if (options_.postLayoutVerify.enabled) {
    checkCancel();
    timed(EngineStage::kPostLayoutVerify, [&] {
      result.verification = verify::runVerification(
          tech_, *model_, setup, specs, options_.verifyOptions,
          options_.postLayoutVerify, &result.measured);
    });
  }
  return result;
}

}  // namespace lo::core
