// The topology-generic synthesis engine (paper Fig. 1b).
//
// One implementation of the paper's central loop for every topology:
//
//   size -> layout (parasitic calculation mode) -> snapshot critical-net
//   capacitances -> converged? -> feed layout knowledge back -> resize ->
//   ... -> layout (generation mode) -> extract -> verify by simulation.
//
// What the sizing pass is told about the layout is the SizingCase (Table 1
// columns); which nets must settle is the topology's criticalNets().  The
// engine owns the convergence bookkeeping, the policy schedule and the
// generation/extraction/verification tail; the Topology supplies the
// circuit-specific design plan and layout program.
//
// run(specs) creates the topology by registry name; run(topology, specs)
// leaves the sized design, layout and extracted design on the caller's.
#pragma once

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/topology.hpp"

namespace lo::core {

/// The pipeline stages the engine reports to EngineHooks::onStage.
enum class EngineStage {
  kSizing,            ///< A size() pass (design-plan run).
  kParasiticLayout,   ///< A parasitic-calculation-mode layout call.
  kGeneration,        ///< Generation-mode layout (full mask geometry).
  kExtraction,        ///< Extracted geometry applied back onto the design.
  kVerification,      ///< Verification-by-simulation.
  kPostLayoutVerify,  ///< Pre- vs post-layout spec comparison (lo_verify).
};

[[nodiscard]] constexpr const char* engineStageName(EngineStage s) {
  switch (s) {
    case EngineStage::kSizing: return "sizing";
    case EngineStage::kParasiticLayout: return "parasitic_layout";
    case EngineStage::kGeneration: return "generation";
    case EngineStage::kExtraction: return "extraction";
    case EngineStage::kVerification: return "verification";
    case EngineStage::kPostLayoutVerify: return "post_layout_verify";
  }
  return "?";
}

/// Thrown by the engine when EngineHooks::cancelRequested returns true
/// between stages; callers (the job scheduler) map it to a cancelled /
/// deadline-expired outcome.
class JobCancelled : public std::runtime_error {
 public:
  JobCancelled() : std::runtime_error("synthesis job cancelled") {}
};

/// Optional observation and control hooks threaded through a run.  All
/// callbacks may be invoked from whichever thread runs the engine; none
/// influences the numerical result, so hooked and hook-free runs stay
/// bit-identical.
struct EngineHooks {
  /// Polled before every pipeline stage (and every layout-loop iteration);
  /// returning true aborts the run with JobCancelled.
  std::function<bool()> cancelRequested;
  /// Called immediately before each stage body runs.  May throw: the
  /// exception propagates out of run() exactly as a stage failure would,
  /// which is how the testkit fault planner lands a TransientError in the
  /// middle of a run (after real work has already happened) instead of
  /// only at the attempt boundary.
  std::function<void(EngineStage)> onStageStart;
  /// Called after each stage with its wall-clock duration in seconds.
  std::function<void(EngineStage, double)> onStage;
};

enum class SizingCase {
  kCase1,  ///< No layout capacitance during sizing (neither diffusion nor routing).
  kCase2,  ///< Diffusion caps with pessimistic single-fold geometry, no routing.
  kCase3,  ///< Exact diffusion from layout feedback, no routing capacitance.
  kCase4,  ///< All layout parasitics fed back (the proposed methodology).
};

[[nodiscard]] constexpr const char* sizingCaseName(SizingCase c) {
  switch (c) {
    case SizingCase::kCase1: return "case1";
    case SizingCase::kCase2: return "case2";
    case SizingCase::kCase3: return "case3";
    case SizingCase::kCase4: return "case4";
  }
  return "?";
}

/// Does this case feed layout knowledge back into sizing (and hence run
/// the parasitic-mode loop at all)?
[[nodiscard]] constexpr bool usesLayoutFeedback(SizingCase c) {
  return c == SizingCase::kCase3 || c == SizingCase::kCase4;
}

struct EngineOptions {
  /// Registry key used by the registry-driven run(specs) overload.
  std::string topology = kFoldedCascodeOtaTopologyName;
  SizingCase sizingCase = SizingCase::kCase4;
  std::string modelName = "ekv";
  /// Draw and verify a transistor-level bias generator where the topology
  /// supports one (currently the folded-cascode OTA).
  bool includeBiasGenerator = false;
  int maxLayoutCalls = 8;
  /// Relative change of the critical-net capacitances below which the
  /// parasitics count as "unchanged".
  double convergenceTol = 0.02;
  sizing::VerifyOptions verifyOptions;
  /// The post-layout verification tier (off by default).  When enabled the
  /// engine runs a final kPostLayoutVerify stage that re-simulates the
  /// schematic and extracted netlists and judges the pre/post deltas; the
  /// knobs join the cache key only when the stage is on, so existing
  /// configurations keep their keys.
  verify::VerificationOptions postLayoutVerify;
  /// Cancellation / stage-timing hooks (not part of a job's identity: the
  /// service-layer cache key deliberately ignores them).
  EngineHooks hooks;
};

/// One sizing <-> layout iteration, for the convergence study.
struct EngineIteration {
  int layoutCall = 0;
  /// Capacitance on each critical net [F], aligned with
  /// EngineResult::criticalNets.
  std::vector<double> netCaps;
  double primaryCurrent = 0.0;  ///< Topology's headline bias current [A].
  double pairWidth = 0.0;       ///< Input-pair width [m].
};

/// How a parasitic loop that fell out of `maxLayoutCalls` actually failed
/// (or how it succeeded).  Downstream layers treat anything other than
/// kConverged as a degraded result: the scheduler surfaces it, the Pareto
/// archive refuses the point, and the serialized result carries it.
enum class ConvergenceVerdict {
  kConverged,    ///< Critical-net caps settled below the tolerance.
  kOscillating,  ///< The cap vector revisits an earlier state (a cycle).
  kDrifting,     ///< Caps keep moving with no detected cycle.
};

[[nodiscard]] constexpr const char* convergenceVerdictName(ConvergenceVerdict v) {
  switch (v) {
    case ConvergenceVerdict::kConverged: return "converged";
    case ConvergenceVerdict::kOscillating: return "oscillating";
    case ConvergenceVerdict::kDrifting: return "drifting";
  }
  return "?";
}

/// The convergence watchdog's findings for one engine run.  Cases 1/2 skip
/// the parasitic loop entirely; they report kConverged with loopRan=false.
struct ConvergenceReport {
  ConvergenceVerdict verdict = ConvergenceVerdict::kConverged;
  bool loopRan = false;        ///< The sizing<->layout loop executed (cases 3/4).
  /// Relative change between the last two cap snapshots (1.0 when only a
  /// single snapshot exists, so an unfinished loop never looks settled).
  double worstResidual = 0.0;
  /// relativeChange between successive snapshots, one entry per layout
  /// call after the first.
  std::vector<double> callDeltas;
  /// Detected oscillation period in layout calls (>= 2); 0 otherwise.
  int cycleLength = 0;

  [[nodiscard]] bool converged() const {
    return verdict == ConvergenceVerdict::kConverged;
  }
};

/// The watchdog itself, exposed so tests can feed synthetic cap histories:
/// classifies an iteration history as converged / oscillating / drifting.
/// `tol` is the same tolerance the loop's exit criterion used; a cycle is
/// a final cap vector within `tol` of an earlier snapshot >= 2 calls back.
[[nodiscard]] ConvergenceReport analyzeConvergence(
    const std::vector<EngineIteration>& iterations, bool parasiticConverged,
    double tol);

struct EngineResult {
  std::vector<std::string> criticalNets;  ///< Order of EngineIteration::netCaps.
  std::vector<EngineIteration> iterations;
  int layoutCalls = 0;          ///< Parasitic-mode calls before convergence.
  bool parasiticConverged = false;
  ConvergenceReport convergence;  ///< Watchdog verdict over `iterations`.
  sizing::OtaPerformance predicted;  ///< Synthesised values (Table 1 plain).
  sizing::OtaPerformance measured;   ///< Extracted-netlist simulation (brackets).
  /// Pre- vs post-layout spec comparison; ran=false (and absent from the
  /// serialised result) unless EngineOptions::postLayoutVerify.enabled.
  verify::VerificationReport verification;
  /// Generation-mode cell bounding box [um]; 0 when the topology draws no
  /// geometry.  The slicing-tree result, surfaced so layout area can serve
  /// as an optimisation objective without adapter access.
  double layoutWidthUm = 0.0;
  double layoutHeightUm = 0.0;
  /// Wall-clock seconds per pipeline stage, in execution order (a stage
  /// that runs repeatedly, e.g. kSizing in the parasitic loop, appears once
  /// per execution).  Pure instrumentation: excluded from the serialised
  /// result and every cache key.
  std::vector<std::pair<EngineStage, double>> stageSeconds;

  [[nodiscard]] double layoutAreaUm2() const { return layoutWidthUm * layoutHeightUm; }
};

class SynthesisEngine {
 public:
  /// The engine keeps a reference to `t`, which must outlive it.
  SynthesisEngine(const tech::Technology& t, EngineOptions options);
  /// A temporary technology would be destroyed before the first run.
  SynthesisEngine(const tech::Technology&& t, EngineOptions options) = delete;

  /// Create the topology named by options.topology through the registry
  /// and run it.  Topology-specific outputs (layout cell, sized design,
  /// ...) are discarded; use the two-argument overload to keep them.
  [[nodiscard]] EngineResult run(const sizing::OtaSpecs& specs) const;

  /// Run a caller-owned topology instance (custom layout options, custom
  /// adapters).  After the call the instance holds the sizing result, the
  /// generation-mode layout and the extracted design.
  [[nodiscard]] EngineResult run(Topology& topology,
                                 const sizing::OtaSpecs& specs) const;

  [[nodiscard]] const device::MosModel& model() const { return *model_; }
  [[nodiscard]] const EngineOptions& options() const { return options_; }

  /// The Table 1 policy schedule shared by every topology.
  [[nodiscard]] static sizing::SizingPolicy policyFor(SizingCase c);

  /// Largest relative per-net change between two capacitance snapshots.
  /// Snapshots of different lengths (a topology whose critical-net list
  /// changed mid-loop) count as 100% change, never as "compare the common
  /// prefix and call it settled".
  [[nodiscard]] static double relativeChange(const std::vector<double>& a,
                                             const std::vector<double>& b);

 private:
  const tech::Technology& tech_;
  EngineOptions options_;
  std::unique_ptr<device::MosModel> model_;
};

}  // namespace lo::core
