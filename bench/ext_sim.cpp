// Simulator hot-path snapshot: the cold DC operating point, a warm-start
// Monte-Carlo-style chain, the batched AC block, the verification noise
// sweep, and the slew transient of one engine run's extracted,
// parasitic-annotated folded cascode.  Every gate counts work the solver
// did -- model calls, factorizations, triangular solves, heap allocations,
// unknowns -- so it reads the same on any machine and under the
// sanitizers.  Wall-clock rates are printed beside the counts for the
// record and gate nothing.
//
// Writes BENCH_sim.json under examples/out/ with every row's counts and
// rates.
//
// Acceptance gates (exit 1 on violation), each with the regression it
// catches:
//   * cold DC: one full device evaluation per device per solve, for the
//     reported operating point -- Newton stamping through the full
//     evaluate() (capacitances, noise) instead of conductances() fails it;
//   * warm chain: every solve a warm-start hit, at most kWarmItersMax
//     Newton iterations per solve (3 today; the cold ladder takes 73) and
//     at most kWarmAllocsMax heap allocations (3 today, the result's three
//     vectors; a buffer allocated per Newton iteration reads 6 and fails
//     it);
//   * AC batch: one LU factorization per frequency for the whole
//     three-excitation block and one solve per (frequency, excitation) --
//     factoring once per excitation fails it -- and at most kAcAllocsMax
//     solver allocations per point;
//   * noise: one factorization and two solves (forward, and the adjoint on
//     the same factors) per frequency;
//   * slew transient: at most kTranUnknownsMax Newton unknowns (pinned
//     nodes leave the system; full MNA reads 30) and at most
//     kTranEvalsPerStepMax device evaluations per step (evaluating every
//     device at each Newton iteration reads about 23);
//   * transient at rest: the AC testbench's transient factors at most
//     kRestFactorizationsMax times over its 100 steps (factoring at every
//     Newton iteration reads at least 200).
//
// CI runs a short-budget pass: ext_sim --sim-reps=30 --benchmark_filter=none.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "circuit/ota.hpp"
#include "core/engine.hpp"
#include "core/topology.hpp"
#include "layout/writers.hpp"
#include "sim/simulator.hpp"
#include "sizing/ota_sizer.hpp"
#include "sizing/ota_spec.hpp"
#include "sizing/verify.hpp"
#include "tech/technology.hpp"
#include "verify/verify.hpp"

// ---------------------------------------------------------------------------
// Global allocation counter.  Counting, not tracking: every path through
// operator new bumps one relaxed atomic, so section deltas give exact
// allocation counts for the code they bracket.

namespace {
std::atomic<unsigned long long> gAllocCount{0};
}  // namespace

// GCC flags std::free on aligned_alloc results inside replaced operator
// delete as a mismatched pair; it is the standard-blessed pairing.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
namespace {
void* alignedAlloc(std::size_t size, std::align_val_t align) {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) return p;
  throw std::bad_alloc();
}
}  // namespace
void* operator new(std::size_t size, std::align_val_t align) {
  return alignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return alignedAlloc(size, align);
}
// The nothrow forms too (std::stable_sort's temporary buffer takes one and
// hands it back to the plain delete below): the whole family must come
// from one allocator, or a sanitizer build sees new freed by free().
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  gAllocCount.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  try {
    return alignedAlloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  try {
    return alignedAlloc(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace lo;
using Clock = std::chrono::steady_clock;

int gSimReps = 60;  // Repetition budget; CI passes a smaller one.

[[nodiscard]] double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

[[nodiscard]] unsigned long long allocsNow() {
  return gAllocCount.load(std::memory_order_relaxed);
}

/// Gate bounds (see the file comment).
constexpr double kWarmItersMax = 4.0;
constexpr double kWarmAllocsMax = 3.0;
constexpr double kAcAllocsMax = 0.5;
constexpr long kTranUnknownsMax = 18;
constexpr double kTranEvalsPerStepMax = 10.0;
constexpr long kRestFactorizationsMax = 4;

/// The workload circuits: the sized folded cascode's AC testbench (11
/// transistors, feedback network, differential excitation) for the DC,
/// sweep, AC, noise and at-rest transient rows, and the slew testbench
/// exactly as the verification tier simulates it -- one engine run's
/// extracted design with the layout's parasitics annotated (18 unknowns
/// folded) -- whose transient dominates a synthesis job.
struct Workload {
  std::unique_ptr<device::MosModel> model = device::MosModel::create("ekv");
  circuit::Circuit testbench;
  circuit::Circuit slewbench;
  sizing::VerifyOptions verify;
  sim::SimOptions options;
  Workload() {
    const tech::Technology& t = technology();
    options.tempK = t.temperature;
    sizing::OtaSizer sizer(t, *model);
    const sizing::SizingResult sized =
        sizer.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2());
    sizing::OtaVerifier v(t, *model);
    testbench = v.buildAcTestbench(sized.design, nullptr, 1.0, 0.0, 0.0);
    core::EngineOptions engineOptions;
    const std::unique_ptr<core::Topology> topology =
        core::TopologyRegistry::instance().create(engineOptions.topology, t, *model);
    (void)core::SynthesisEngine(t, engineOptions).run(*topology, sizing::OtaSpecs{});
    const verify::VerificationSetup setup = topology->verificationSetup();
    slewbench = sizing::buildAmpSlewTestbench(setup.postLayout, setup.inputCm,
                                              setup.parasitics, verify);
  }
  [[nodiscard]] static const tech::Technology& technology() {
    static const tech::Technology t = tech::Technology::generic060();
    return t;
  }
};

struct DcSample {
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  double itersPerSolve = 0.0;
  double evalsPerSolve = 0.0;  ///< Full device evaluations per solve.
  long devices = 0;
};

/// Cold operating-point latency: every rep runs the full gmin ladder from
/// scratch on a per-rep Simulator, the honest "one solve, cold caches"
/// number a scheduler job pays.
DcSample runColdDc(const Workload& w) {
  DcSample s;
  std::vector<double> repMs;
  repMs.reserve(gSimReps);
  long iters = 0, evals = 0;
  for (int rep = 0; rep < gSimReps; ++rep) {
    sim::Simulator sim(w.testbench, Workload::technology(), *w.model, w.options);
    const auto t0 = Clock::now();
    const sim::DcSolution op = sim.dcOperatingPoint();
    repMs.push_back(secondsSince(t0) * 1e3);
    benchmark::DoNotOptimize(op.nodeVoltages.data());
    iters += sim.stats().newtonIterations;
    evals += sim.stats().dcDeviceEvaluations;
  }
  std::sort(repMs.begin(), repMs.end());
  s.p50Ms = repMs[repMs.size() / 2];
  s.p99Ms = repMs[std::min(repMs.size() - 1, repMs.size() * 99 / 100)];
  s.itersPerSolve = static_cast<double>(iters) / gSimReps;
  s.evalsPerSolve = static_cast<double>(evals) / gSimReps;
  s.devices = static_cast<long>(w.testbench.mosfets.size());
  return s;
}

struct SweepSample {
  int trials = 0;
  double pointsPerSec = 0.0;
  long warmHits = 0;
  double itersPerSolve = 0.0;
  double allocsPerSolve = 0.0;
};

/// Monte-Carlo-style neighbouring-point chain: per trial, nudge every
/// device's threshold (the mismatch draw shape) and re-solve on one
/// Simulator and one WarmStart (what sizing::monteCarlo does).
SweepSample runWarmSweep(const Workload& w) {
  SweepSample s;
  s.trials = std::max(gSimReps / 2, 12);
  auto vtoAt = [](int trial, std::size_t dev) {
    return 2e-3 * std::sin(0.7 * trial + 1.3 * static_cast<double>(dev));
  };
  circuit::Circuit work = w.testbench;
  sim::Simulator sim(work, Workload::technology(), *w.model, w.options);
  sim::Simulator::WarmStart warm;
  // Trial 0 outside the measured region: it runs the cold ladder and warms
  // the workspace; the steady-state chain is what the counts describe.
  for (std::size_t d = 0; d < work.mosfets.size(); ++d) work.mosfets[d].vtoDelta = vtoAt(0, d);
  benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
  const long iters0 = sim.stats().newtonIterations;
  const auto t0 = Clock::now();
  const unsigned long long a0 = allocsNow();
  for (int trial = 1; trial <= s.trials; ++trial) {
    for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
      work.mosfets[d].vtoDelta = vtoAt(trial, d);
    }
    benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
  }
  const double dt = secondsSince(t0);
  s.allocsPerSolve = static_cast<double>(allocsNow() - a0) / s.trials;
  s.pointsPerSec = dt > 0.0 ? s.trials / dt : 0.0;
  s.warmHits = sim.stats().warmStartHits;
  s.itersPerSolve = static_cast<double>(sim.stats().newtonIterations - iters0) / s.trials;
  return s;
}

struct AcSample {
  int freqPoints = 0;
  int excitations = 0;
  double pointsPerSec = 0.0;
  double factorizationsPerFreq = 0.0;
  double solvesPerPoint = 0.0;
  double allocsPerPoint = 0.0;  ///< Solver allocations, results excluded.
};

/// The verification tier's small-signal block: differential, common-mode
/// and supply excitations over a dense grid through acBatch.
AcSample runAcBatch(const Workload& w) {
  AcSample s;
  const double fStart = 10.0, fStop = 1e9;
  const int ppd = 16;
  const std::vector<sim::AcExcitation> block = {
      sim::AcExcitation::circuitSources(),
      sim::AcExcitation::unitVsource("VCM"),
      sim::AcExcitation::unitVsource("VDD"),
  };
  s.excitations = static_cast<int>(block.size());

  sim::Simulator sim(w.testbench, Workload::technology(), *w.model, w.options);
  const sim::DcSolution op = sim.dcOperatingPoint();
  // Warm the workspace outside the measured region.
  benchmark::DoNotOptimize(sim.acBatch(op, block, fStart, 1e2, 2).size());
  const sim::SimStats before = sim.stats();

  const int reps = std::max(gSimReps / 10, 3);
  double sec = 0.0;
  unsigned long long allocs = 0;
  std::size_t nFreq = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const unsigned long long a0 = allocsNow();
    const auto t0 = Clock::now();
    const auto curves = sim.acBatch(op, block, fStart, fStop, ppd);
    sec += secondsSince(t0);
    allocs += allocsNow() - a0;
    nFreq = curves.front().size();
    benchmark::DoNotOptimize(curves.front().front().nodeV.data());
  }
  s.freqPoints = static_cast<int>(nFreq);
  const double freqs = static_cast<double>(nFreq) * reps;
  const double points = freqs * s.excitations;
  // Every returned AcPoint owns exactly two heap vectors (nodeV,
  // vsourceI); subtract them so the count isolates the solver's own
  // allocations.
  const double kResultAllocsPerPoint = 2.0;
  s.pointsPerSec = sec > 0.0 ? points / sec : 0.0;
  s.factorizationsPerFreq =
      static_cast<double>(sim.stats().luFactorizations - before.luFactorizations) / freqs;
  s.solvesPerPoint = static_cast<double>(sim.stats().luSolves - before.luSolves) / points;
  s.allocsPerPoint = std::max(0.0, static_cast<double>(allocs) / points - kResultAllocsPerPoint);
  return s;
}

struct NoiseSample {
  int freqPoints = 0;
  double pointsPerSec = 0.0;
  double factorizationsPerFreq = 0.0;
  double solvesPerFreq = 0.0;
};

/// The verification tier's noise sweep (input-referred to VDIFF, 1 Hz to
/// 100 MHz at 10 points per decade).
NoiseSample runNoise(const Workload& w) {
  NoiseSample s;
  const int reps = std::max(gSimReps / 3, 5);
  const circuit::NodeId out = *w.testbench.findNode("out");
  sim::Simulator sim(w.testbench, Workload::technology(), *w.model, w.options);
  const sim::DcSolution op = sim.dcOperatingPoint();
  benchmark::DoNotOptimize(sim.noise(op, out, "VDIFF", 1.0, 1e2, 2).size());
  const sim::SimStats before = sim.stats();
  double sec = 0.0;
  std::size_t points = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = Clock::now();
    const auto nz = sim.noise(op, out, "VDIFF", sizing::kNoiseBandLowHz,
                              sizing::kNoiseBandHighHz, 10);
    sec += secondsSince(t0);
    points = nz.size();
    benchmark::DoNotOptimize(nz.data());
  }
  s.freqPoints = static_cast<int>(points);
  const double freqs = static_cast<double>(points) * reps;
  s.pointsPerSec = sec > 0.0 ? freqs / sec : 0.0;
  s.factorizationsPerFreq =
      static_cast<double>(sim.stats().luFactorizations - before.luFactorizations) / freqs;
  s.solvesPerFreq = static_cast<double>(sim.stats().luSolves - before.luSolves) / freqs;
  return s;
}

struct TranSample {
  int steps = 0;
  double stepsPerSec = 0.0;
  double itersPerStep = 0.0;
  double evalsPerStep = 0.0;
  double factorizationsPerStep = 0.0;
  long unknowns = 0;
  int restSteps = 0;
  long restFactorizations = 0;
};

/// The verification tier's slew transient (1000 fixed steps) on the
/// extracted netlist, timed whole -- DC start point included -- and the
/// AC testbench's transient at rest.
TranSample runTransient(const Workload& w) {
  TranSample s;
  const int reps = std::max(gSimReps / 10, 3);
  double sec = 0.0;
  sim::SimStats stats;
  for (int rep = 0; rep < reps; ++rep) {
    sim::Simulator sim(w.slewbench, Workload::technology(), *w.model, w.options);
    const auto t0 = Clock::now();
    const auto tran = sim.transient(w.verify.tranStop, w.verify.tranStep);
    sec += secondsSince(t0);
    benchmark::DoNotOptimize(tran.back().nodeV.data());
    stats = sim.stats();
  }
  const double steps = static_cast<double>(stats.tranSteps);
  s.steps = static_cast<int>(stats.tranSteps);
  s.stepsPerSec = sec > 0.0 ? steps * reps / sec : 0.0;
  s.itersPerStep = stats.tranNewtonIterations / steps;
  s.evalsPerStep = stats.tranDeviceEvaluations / steps;
  s.factorizationsPerStep = stats.tranFactorizations / steps;
  s.unknowns = stats.tranUnknowns;

  sim::Simulator rest(w.testbench, Workload::technology(), *w.model, w.options);
  benchmark::DoNotOptimize(rest.transient(50e-9, 0.5e-9).size());
  s.restSteps = static_cast<int>(rest.stats().tranSteps);
  s.restFactorizations = rest.stats().tranFactorizations;
  return s;
}

std::string toJson(const DcSample& dc, const SweepSample& sweep, const AcSample& ac,
                   const NoiseSample& noise, const TranSample& tran, int failures) {
  std::ostringstream out;
  out.precision(10);
  out << "{\n  \"bench\": \"ext_sim\",\n  \"reps\": " << gSimReps
      << ",\n  \"dc\": {\"cold_p50_ms\": " << dc.p50Ms << ", \"cold_p99_ms\": " << dc.p99Ms
      << ", \"newton_iters_per_solve\": " << dc.itersPerSolve
      << ", \"device_evals_per_solve\": " << dc.evalsPerSolve << ", \"devices\": " << dc.devices
      << "},\n  \"sweep\": {\"trials\": " << sweep.trials
      << ", \"warm_points_per_sec\": " << sweep.pointsPerSec
      << ", \"warm_hits\": " << sweep.warmHits
      << ", \"newton_iters_per_solve\": " << sweep.itersPerSolve
      << ", \"allocs_per_solve\": " << sweep.allocsPerSolve
      << "},\n  \"ac\": {\"freq_points\": " << ac.freqPoints
      << ", \"excitations\": " << ac.excitations << ", \"points_per_sec\": " << ac.pointsPerSec
      << ", \"factorizations_per_freq\": " << ac.factorizationsPerFreq
      << ", \"solves_per_point\": " << ac.solvesPerPoint
      << ", \"solver_allocs_per_point\": " << ac.allocsPerPoint
      << "},\n  \"noise\": {\"freq_points\": " << noise.freqPoints
      << ", \"points_per_sec\": " << noise.pointsPerSec
      << ", \"factorizations_per_freq\": " << noise.factorizationsPerFreq
      << ", \"solves_per_freq\": " << noise.solvesPerFreq
      << "},\n  \"tran\": {\"steps\": " << tran.steps
      << ", \"steps_per_sec\": " << tran.stepsPerSec
      << ", \"newton_iters_per_step\": " << tran.itersPerStep
      << ", \"device_evals_per_step\": " << tran.evalsPerStep
      << ", \"factorizations_per_step\": " << tran.factorizationsPerStep
      << ", \"unknowns\": " << tran.unknowns << ", \"rest_steps\": " << tran.restSteps
      << ", \"rest_factorizations\": " << tran.restFactorizations
      << "},\n  \"gates\": {\"warm_iters_max\": " << kWarmItersMax
      << ", \"warm_allocs_max\": " << kWarmAllocsMax
      << ", \"ac_allocs_per_point_max\": " << kAcAllocsMax
      << ", \"tran_unknowns_max\": " << kTranUnknownsMax
      << ", \"tran_evals_per_step_max\": " << kTranEvalsPerStepMax
      << ", \"rest_factorizations_max\": " << kRestFactorizationsMax
      << ", \"pass\": " << (failures == 0 ? "true" : "false") << "}\n}\n";
  return out.str();
}

int runSnapshot() {
  const Workload w;
  const DcSample dc = runColdDc(w);
  const SweepSample sweep = runWarmSweep(w);
  const AcSample ac = runAcBatch(w);
  const NoiseSample noise = runNoise(w);
  const TranSample tran = runTransient(w);

  std::printf("\n=== ext_sim: simulator hot-path snapshot (%d reps) ===\n", gSimReps);
  std::printf("cold DC    p50=%.3f ms  p99=%.3f ms  iters/solve=%.1f"
              "  device evals/solve=%.1f (%ld devices)\n",
              dc.p50Ms, dc.p99Ms, dc.itersPerSolve, dc.evalsPerSolve, dc.devices);
  std::printf("warm chain %d trials  %.3g pts/s  hits=%ld  iters/solve=%.2f  allocs/solve=%.1f\n",
              sweep.trials, sweep.pointsPerSec, sweep.warmHits, sweep.itersPerSolve,
              sweep.allocsPerSolve);
  std::printf("AC batch   %d freqs x %d exc  %.3g pts/s  factorizations/freq=%.2f"
              "  solves/pt=%.2f  solver allocs/pt=%.3f\n",
              ac.freqPoints, ac.excitations, ac.pointsPerSec, ac.factorizationsPerFreq,
              ac.solvesPerPoint, ac.allocsPerPoint);
  std::printf("noise      %d freqs  %.3g pts/s  factorizations/freq=%.2f  solves/freq=%.2f\n",
              noise.freqPoints, noise.pointsPerSec, noise.factorizationsPerFreq,
              noise.solvesPerFreq);
  std::printf("transient  %d steps  %.3g steps/s  iters/step=%.2f  evals/step=%.2f"
              "  factorizations/step=%.2f  unknowns=%ld;  at rest: %ld factorizations"
              " over %d steps\n",
              tran.steps, tran.stepsPerSec, tran.itersPerStep, tran.evalsPerStep,
              tran.factorizationsPerStep, tran.unknowns, tran.restFactorizations,
              tran.restSteps);

  int failures = 0;
  const auto gate = [&failures](bool ok, const char* what, double value, double bound) {
    if (ok) return;
    std::printf("ACCEPTANCE FAIL: %s %.3f (bound %.3f)\n", what, value, bound);
    ++failures;
  };
  gate(dc.evalsPerSolve == static_cast<double>(dc.devices),
       "cold DC full device evaluations per solve", dc.evalsPerSolve,
       static_cast<double>(dc.devices));
  gate(sweep.warmHits >= sweep.trials, "warm-start hits", static_cast<double>(sweep.warmHits),
       sweep.trials);
  gate(sweep.itersPerSolve <= kWarmItersMax, "warm Newton iterations per solve",
       sweep.itersPerSolve, kWarmItersMax);
  gate(sweep.allocsPerSolve <= kWarmAllocsMax, "warm allocations per solve",
       sweep.allocsPerSolve, kWarmAllocsMax);
  gate(ac.factorizationsPerFreq == 1.0, "AC batch factorizations per frequency",
       ac.factorizationsPerFreq, 1.0);
  gate(ac.solvesPerPoint == 1.0, "AC batch solves per point", ac.solvesPerPoint, 1.0);
  gate(ac.allocsPerPoint <= kAcAllocsMax, "AC solver allocations per point",
       ac.allocsPerPoint, kAcAllocsMax);
  gate(noise.factorizationsPerFreq == 1.0, "noise factorizations per frequency",
       noise.factorizationsPerFreq, 1.0);
  gate(noise.solvesPerFreq == 2.0, "noise solves per frequency", noise.solvesPerFreq, 2.0);
  gate(tran.unknowns <= kTranUnknownsMax, "slew transient unknowns",
       static_cast<double>(tran.unknowns), static_cast<double>(kTranUnknownsMax));
  gate(tran.evalsPerStep <= kTranEvalsPerStepMax, "slew transient device evaluations per step",
       tran.evalsPerStep, kTranEvalsPerStepMax);
  gate(tran.restFactorizations <= kRestFactorizationsMax,
       "at-rest transient factorizations", static_cast<double>(tran.restFactorizations),
       static_cast<double>(kRestFactorizationsMax));
  if (failures == 0) {
    std::printf("acceptance: one device evaluation per device per cold solve; warm chain "
                "all hits, <= %.0f iterations and <= %.0f allocations per solve; AC one "
                "factorization per frequency, <= %.1f solver allocations per point; noise "
                "one factorization and two solves per frequency; transient <= %ld unknowns, "
                "<= %.0f evals/step, <= %ld factorizations at rest -- all gates hold\n",
                kWarmItersMax, kWarmAllocsMax, kAcAllocsMax, kTranUnknownsMax,
                kTranEvalsPerStepMax, kRestFactorizationsMax);
  }

  const std::string path = layout::outputPath("BENCH_sim.json");
  layout::writeFile(path, toJson(dc, sweep, ac, noise, tran, failures));
  std::printf("wrote %s\n", path.c_str());
  return failures;
}

// Micro-benchmarks for profiling individual hot paths (skipped in CI via
// --benchmark_filter=none).

void BM_WarmDcOperatingPoint(benchmark::State& state) {
  const Workload w;
  circuit::Circuit work = w.testbench;
  sim::Simulator sim(work, Workload::technology(), *w.model, w.options);
  sim::Simulator::WarmStart warm;
  benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
  int trial = 0;
  for (auto _ : state) {
    for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
      work.mosfets[d].vtoDelta = 1e-3 * std::sin(0.7 * trial + static_cast<double>(d));
    }
    benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
    ++trial;
  }
}
BENCHMARK(BM_WarmDcOperatingPoint)->Unit(benchmark::kMicrosecond);

void BM_AcBatchThreeExcitations(benchmark::State& state) {
  const Workload w;
  sim::Simulator sim(w.testbench, Workload::technology(), *w.model, w.options);
  const sim::DcSolution op = sim.dcOperatingPoint();
  const std::vector<sim::AcExcitation> block = {
      sim::AcExcitation::circuitSources(),
      sim::AcExcitation::unitVsource("VCM"),
      sim::AcExcitation::unitVsource("VDD"),
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.acBatch(op, block, 10.0, 1e9, 8).size());
  }
}
BENCHMARK(BM_AcBatchThreeExcitations)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flag before google-benchmark sees (and rejects) it.
  int outArgc = 0;
  for (int i = 0; i < argc; ++i) {
    constexpr const char* kFlag = "--sim-reps=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      gSimReps = std::atoi(argv[i] + std::strlen(kFlag));
      if (gSimReps < 5) {
        std::fprintf(stderr, "bad --sim-reps\n");
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
