// Simulator hot-path snapshot: cold DC latency distribution, warm-start
// Monte-Carlo-style chain throughput, batched-AC throughput, the
// verification noise sweep and the slew transient, each measured against
// the pre-optimization reference path
// kept alive as SolverMode::kReference -- the baseline is recorded in the
// same run, on the same machine, so the speedups in BENCH_sim.json are
// self-contained.
//
// Writes BENCH_sim.json under examples/out/ with:
//   * cold Newton p50/p99 single-solve latency and iters/sec (fast & ref),
//   * warm-chain points/sec vs per-point cold reference (sweep throughput),
//   * AC (frequency, excitation) points/sec, batched fast vs one-at-a-time
//     reference,
//   * heap allocation counts per AC point and per warm solve vs reference,
//   * noise frequency points/sec, folded fast vs full-MNA reference,
//   * slew-transient steps/sec, Newton iterations, device evaluations per
//     step and Newton unknowns, folded fast vs full-MNA reference, and the
//     fast path's LU factorizations per step.  The transient runs the
//     netlist verification simulates: one engine run's extracted folded
//     cascode with the layout's parasitics annotated.
//
// Acceptance gates (exit 1 on violation):
//   * AC batch throughput   >= 2.0x the reference path,
//   * warm sweep throughput >= 1.5x the per-point cold reference,
//   * fast-path allocations <= 50% of the reference per AC point and per
//     warm solve,
//   * fast Newton iters/sec >= 0.9x the reference (device evaluation
//     must not regress per-iteration cost),
//   * noise points/sec      >= 3.0x the reference,
//   * transient steps/sec   >= 1.5x the reference,
//   * fast transient device evaluations <= 10 per step (a count, so the
//     gate reads the same on any machine; evaluating every device at each
//     Newton iteration reads about 23 on this netlist).
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

/// The workload circuits: the sized folded cascode's AC testbench (11
/// transistors, feedback network, differential excitation) for the DC,
/// sweep, AC and noise rows, and the slew testbench exactly as the
/// verification tier simulates it -- one engine run's extracted design with
/// the layout's parasitics annotated (18 unknowns folded) -- whose
/// transient dominates a synthesis job.
struct Workload {
  std::unique_ptr<device::MosModel> model = device::MosModel::create("ekv");
  circuit::Circuit testbench;
  circuit::Circuit slewbench;
  sizing::VerifyOptions verify;
  Workload() {
    const tech::Technology& t = technology();
    sizing::OtaSizer sizer(t, *model);
    const sizing::SizingResult sized =
        sizer.size(sizing::OtaSpecs{}, sizing::SizingPolicy::case2());
    sizing::OtaVerifier v(t, *model);
    testbench = v.buildAcTestbench(sized.design, nullptr, 1.0, 0.0, 0.0);
    core::EngineOptions options;
    const std::unique_ptr<core::Topology> topology =
        core::TopologyRegistry::instance().create(options.topology, t, *model);
    (void)core::SynthesisEngine(t, options).run(*topology, sizing::OtaSpecs{});
    const verify::VerificationSetup setup = topology->verificationSetup();
    slewbench = sizing::buildAmpSlewTestbench(setup.postLayout, setup.inputCm,
                                              setup.parasitics, verify);
  }
  [[nodiscard]] static const tech::Technology& technology() {
    static const tech::Technology t = tech::Technology::generic060();
    return t;
  }
  [[nodiscard]] sim::SimOptions options(sim::SolverMode mode) const {
    sim::SimOptions opt;
    opt.tempK = technology().temperature;
    opt.solver = mode;
    return opt;
  }
};

struct DcSample {
  double p50Ms = 0.0;
  double p99Ms = 0.0;
  double itersPerSecFast = 0.0;
  double itersPerSecRef = 0.0;
  double itersRatio = 0.0;
};

/// Cold operating-point latency: every rep runs the full gmin ladder from
/// scratch on a per-rep Simulator, the honest "one solve, cold caches"
/// number a scheduler job pays.
DcSample runColdDc(const Workload& w) {
  DcSample s;
  std::vector<double> repMs;
  repMs.reserve(gSimReps);
  long fastIters = 0;
  double fastSec = 0.0;
  for (int rep = 0; rep < gSimReps; ++rep) {
    sim::Simulator sim(w.testbench, Workload::technology(), *w.model,
                       w.options(sim::SolverMode::kFast));
    const auto t0 = Clock::now();
    const sim::DcSolution op = sim.dcOperatingPoint();
    const double dt = secondsSince(t0);
    benchmark::DoNotOptimize(op.nodeVoltages.data());
    repMs.push_back(dt * 1e3);
    fastSec += dt;
    fastIters += sim.stats().newtonIterations;
  }
  std::sort(repMs.begin(), repMs.end());
  s.p50Ms = repMs[repMs.size() / 2];
  s.p99Ms = repMs[std::min(repMs.size() - 1, repMs.size() * 99 / 100)];
  s.itersPerSecFast = fastSec > 0.0 ? fastIters / fastSec : 0.0;

  long refIters = 0;
  double refSec = 0.0;
  for (int rep = 0; rep < gSimReps; ++rep) {
    sim::Simulator sim(w.testbench, Workload::technology(), *w.model,
                       w.options(sim::SolverMode::kReference));
    const auto t0 = Clock::now();
    const sim::DcSolution op = sim.dcOperatingPoint();
    refSec += secondsSince(t0);
    benchmark::DoNotOptimize(op.nodeVoltages.data());
    refIters += sim.stats().newtonIterations;
  }
  s.itersPerSecRef = refSec > 0.0 ? refIters / refSec : 0.0;
  s.itersRatio = s.itersPerSecRef > 0.0 ? s.itersPerSecFast / s.itersPerSecRef : 0.0;
  return s;
}

struct SweepSample {
  int trials = 0;
  double warmPointsPerSec = 0.0;
  double coldPointsPerSec = 0.0;
  double speedup = 0.0;
  long warmHits = 0;
  double allocsPerWarmSolve = 0.0;
  double allocsPerColdSolve = 0.0;
  double allocRatio = 0.0;
};

/// Monte-Carlo-style neighbouring-point chain: per trial, nudge every
/// device's threshold (the mismatch draw shape) and re-solve.  Fast side:
/// one Simulator + one WarmStart across the whole chain (what
/// sizing::monteCarlo now does).  Baseline: the pre-PR structure -- a fresh
/// circuit copy, fresh Simulator and full cold ladder per trial on the
/// reference solver.
SweepSample runWarmSweep(const Workload& w) {
  SweepSample s;
  s.trials = std::max(gSimReps / 2, 12);
  auto vtoAt = [](int trial, std::size_t dev) {
    return 2e-3 * std::sin(0.7 * trial + 1.3 * static_cast<double>(dev));
  };

  {
    circuit::Circuit work = w.testbench;
    sim::Simulator sim(work, Workload::technology(), *w.model,
                       w.options(sim::SolverMode::kFast));
    sim::Simulator::WarmStart warm;
    // Trial 0 outside the timed region: it runs the cold ladder and warms
    // the workspace; the steady-state chain is what the throughput and
    // allocation numbers describe.
    for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
      work.mosfets[d].vtoDelta = vtoAt(0, d);
    }
    benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
    const auto t0 = Clock::now();
    const unsigned long long a0 = allocsNow();
    for (int trial = 1; trial <= s.trials; ++trial) {
      for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
        work.mosfets[d].vtoDelta = vtoAt(trial, d);
      }
      benchmark::DoNotOptimize(sim.dcOperatingPoint(warm).iterations);
    }
    const double dt = secondsSince(t0);
    s.allocsPerWarmSolve = static_cast<double>(allocsNow() - a0) / s.trials;
    s.warmPointsPerSec = dt > 0.0 ? s.trials / dt : 0.0;
    s.warmHits = sim.stats().warmStartHits;
  }

  {
    const auto t0 = Clock::now();
    const unsigned long long a0 = allocsNow();
    for (int trial = 1; trial <= s.trials; ++trial) {
      circuit::Circuit work = w.testbench;
      for (std::size_t d = 0; d < work.mosfets.size(); ++d) {
        work.mosfets[d].vtoDelta = vtoAt(trial, d);
      }
      sim::Simulator sim(work, Workload::technology(), *w.model,
                         w.options(sim::SolverMode::kReference));
      benchmark::DoNotOptimize(sim.dcOperatingPoint().iterations);
    }
    const double dt = secondsSince(t0);
    s.allocsPerColdSolve = static_cast<double>(allocsNow() - a0) / s.trials;
    s.coldPointsPerSec = dt > 0.0 ? s.trials / dt : 0.0;
  }

  s.speedup = s.coldPointsPerSec > 0.0 ? s.warmPointsPerSec / s.coldPointsPerSec : 0.0;
  s.allocRatio =
      s.allocsPerColdSolve > 0.0 ? s.allocsPerWarmSolve / s.allocsPerColdSolve : 0.0;
  return s;
}

struct AcSample {
  int freqPoints = 0;
  int excitations = 0;
  double fastPointsPerSec = 0.0;
  double refPointsPerSec = 0.0;
  double speedup = 0.0;
  double allocsPerPointFast = 0.0;
  double allocsPerPointRef = 0.0;
  double allocRatio = 0.0;
};

/// The verification tier's small-signal block: differential, common-mode
/// and supply excitations over a dense grid.  Fast side solves the block
/// through acBatch (one factorization per frequency); the baseline runs
/// the three pre-PR one-excitation-at-a-time analyses.
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

  sim::Simulator fast(w.testbench, Workload::technology(), *w.model,
                      w.options(sim::SolverMode::kFast));
  const sim::DcSolution op = fast.dcOperatingPoint();

  // Warm the workspace outside the timed region (the reference path has no
  // equivalent to warm, by construction).
  benchmark::DoNotOptimize(fast.acBatch(op, block, fStart, 1e2, 2).size());

  const int reps = std::max(gSimReps / 10, 3);
  double fastSec = 0.0;
  unsigned long long fastAllocs = 0;
  std::size_t nFreq = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const unsigned long long a0 = allocsNow();
    const auto t0 = Clock::now();
    const auto curves = fast.acBatch(op, block, fStart, fStop, ppd);
    fastSec += secondsSince(t0);
    fastAllocs += allocsNow() - a0;
    nFreq = curves.front().size();
    benchmark::DoNotOptimize(curves.front().front().nodeV.data());
  }
  s.freqPoints = static_cast<int>(nFreq);
  const double totalPoints = static_cast<double>(nFreq) * s.excitations * reps;
  // Every returned AcPoint owns exactly two heap vectors (nodeV, vsourceI)
  // in both modes; subtract them so the metric isolates the SOLVER's
  // allocations -- the traffic the workspace rewrite eliminates.
  const double kResultAllocsPerPoint = 2.0;
  s.fastPointsPerSec = fastSec > 0.0 ? totalPoints / fastSec : 0.0;
  s.allocsPerPointFast = std::max(0.0, fastAllocs / totalPoints - kResultAllocsPerPoint);

  sim::Simulator ref(w.testbench, Workload::technology(), *w.model,
                     w.options(sim::SolverMode::kReference));
  const sim::DcSolution opRef = ref.dcOperatingPoint();
  double refSec = 0.0;
  unsigned long long refAllocs = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const unsigned long long a0 = allocsNow();
    const auto t0 = Clock::now();
    const auto diff = ref.ac(opRef, fStart, fStop, ppd);
    const auto cm = ref.acFrom(opRef, "VCM", fStart, fStop, ppd);
    const auto psrr = ref.acFrom(opRef, "VDD", fStart, fStop, ppd);
    refSec += secondsSince(t0);
    refAllocs += allocsNow() - a0;
    benchmark::DoNotOptimize(diff.front().nodeV.data());
    benchmark::DoNotOptimize(cm.front().nodeV.data());
    benchmark::DoNotOptimize(psrr.front().nodeV.data());
  }
  s.refPointsPerSec = refSec > 0.0 ? totalPoints / refSec : 0.0;
  s.allocsPerPointRef = std::max(0.0, refAllocs / totalPoints - kResultAllocsPerPoint);
  s.speedup = s.refPointsPerSec > 0.0 ? s.fastPointsPerSec / s.refPointsPerSec : 0.0;
  s.allocRatio =
      s.allocsPerPointRef > 0.0 ? s.allocsPerPointFast / s.allocsPerPointRef : 0.0;
  return s;
}

struct NoiseSample {
  int freqPoints = 0;
  double fastPointsPerSec = 0.0;
  double refPointsPerSec = 0.0;
  double speedup = 0.0;
};

/// The verification tier's noise sweep (input-referred to VDIFF, 1 Hz to
/// 100 MHz at 10 points per decade), per solver mode.  Fast side: one
/// folded factorization per frequency, the adjoint solved on the same
/// factors.  Baseline: two full-MNA assemblies and factorizations.
NoiseSample runNoise(const Workload& w) {
  NoiseSample s;
  const int reps = std::max(gSimReps / 3, 5);
  const circuit::NodeId out = *w.testbench.findNode("out");
  const auto side = [&](sim::SolverMode mode) {
    sim::Simulator sim(w.testbench, Workload::technology(), *w.model, w.options(mode));
    const sim::DcSolution op = sim.dcOperatingPoint();
    benchmark::DoNotOptimize(sim.noise(op, out, "VDIFF", 1.0, 1e2, 2).size());
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
    return sec > 0.0 ? static_cast<double>(points) * reps / sec : 0.0;
  };
  s.fastPointsPerSec = side(sim::SolverMode::kFast);
  s.refPointsPerSec = side(sim::SolverMode::kReference);
  s.speedup = s.refPointsPerSec > 0.0 ? s.fastPointsPerSec / s.refPointsPerSec : 0.0;
  return s;
}

/// The most device evaluations per step the fast transient may spend on
/// the extracted slew testbench.
constexpr double kTranEvalsPerStepMax = 10.0;

struct TranSample {
  struct Side {
    double stepsPerSec = 0.0;
    double itersPerStep = 0.0;
    double evalsPerStep = 0.0;
    double factorizationsPerStep = 0.0;  ///< Counted on the fast path only.
    long unknowns = 0;
  };
  int steps = 0;
  Side fast, ref;
  double speedup = 0.0;
};

/// The verification tier's slew transient (1000 fixed steps) on the
/// extracted netlist, timed whole -- DC start point included -- per solver
/// mode.
TranSample runTransient(const Workload& w) {
  TranSample s;
  const int reps = std::max(gSimReps / 10, 3);
  const auto side = [&](sim::SolverMode mode) {
    TranSample::Side out;
    double sec = 0.0;
    sim::SimStats stats;
    for (int rep = 0; rep < reps; ++rep) {
      sim::Simulator sim(w.slewbench, Workload::technology(), *w.model, w.options(mode));
      const auto t0 = Clock::now();
      const auto tran = sim.transient(w.verify.tranStop, w.verify.tranStep);
      sec += secondsSince(t0);
      benchmark::DoNotOptimize(tran.back().nodeV.data());
      stats = sim.stats();
    }
    const double steps = static_cast<double>(stats.tranSteps);
    s.steps = static_cast<int>(stats.tranSteps);
    out.stepsPerSec = sec > 0.0 ? steps * reps / sec : 0.0;
    out.itersPerStep = stats.tranNewtonIterations / steps;
    out.evalsPerStep = stats.tranDeviceEvaluations / steps;
    out.factorizationsPerStep = stats.tranFactorizations / steps;
    out.unknowns = stats.tranUnknowns;
    return out;
  };
  s.fast = side(sim::SolverMode::kFast);
  s.ref = side(sim::SolverMode::kReference);
  s.speedup = s.ref.stepsPerSec > 0.0 ? s.fast.stepsPerSec / s.ref.stepsPerSec : 0.0;
  return s;
}

std::string toJson(const DcSample& dc, const SweepSample& sweep, const AcSample& ac,
                   const NoiseSample& noise, const TranSample& tran, int failures) {
  std::ostringstream out;
  out.precision(10);
  out << "{\n  \"bench\": \"ext_sim\",\n  \"reps\": " << gSimReps
      << ",\n  \"dc\": {\"cold_p50_ms\": " << dc.p50Ms
      << ", \"cold_p99_ms\": " << dc.p99Ms
      << ", \"newton_iters_per_sec_fast\": " << dc.itersPerSecFast
      << ", \"newton_iters_per_sec_ref\": " << dc.itersPerSecRef
      << ", \"iters_ratio\": " << dc.itersRatio
      << "},\n  \"sweep\": {\"trials\": " << sweep.trials
      << ", \"warm_points_per_sec\": " << sweep.warmPointsPerSec
      << ", \"cold_points_per_sec\": " << sweep.coldPointsPerSec
      << ", \"speedup\": " << sweep.speedup << ", \"warm_hits\": " << sweep.warmHits
      << ", \"allocs_per_warm_solve\": " << sweep.allocsPerWarmSolve
      << ", \"allocs_per_cold_solve\": " << sweep.allocsPerColdSolve
      << ", \"alloc_ratio\": " << sweep.allocRatio
      << "},\n  \"ac\": {\"freq_points\": " << ac.freqPoints
      << ", \"excitations\": " << ac.excitations
      << ", \"fast_points_per_sec\": " << ac.fastPointsPerSec
      << ", \"ref_points_per_sec\": " << ac.refPointsPerSec
      << ", \"speedup\": " << ac.speedup
      << ", \"solver_allocs_per_point_fast\": " << ac.allocsPerPointFast
      << ", \"solver_allocs_per_point_ref\": " << ac.allocsPerPointRef
      << ", \"alloc_ratio\": " << ac.allocRatio
      << "},\n  \"noise\": {\"freq_points\": " << noise.freqPoints
      << ", \"fast_points_per_sec\": " << noise.fastPointsPerSec
      << ", \"ref_points_per_sec\": " << noise.refPointsPerSec
      << ", \"speedup\": " << noise.speedup
      << "},\n  \"tran\": {\"steps\": " << tran.steps
      << ", \"steps_per_sec_fast\": " << tran.fast.stepsPerSec
      << ", \"steps_per_sec_ref\": " << tran.ref.stepsPerSec
      << ", \"speedup\": " << tran.speedup
      << ", \"newton_iters_per_step_fast\": " << tran.fast.itersPerStep
      << ", \"newton_iters_per_step_ref\": " << tran.ref.itersPerStep
      << ", \"device_evals_per_step_fast\": " << tran.fast.evalsPerStep
      << ", \"device_evals_per_step_ref\": " << tran.ref.evalsPerStep
      << ", \"factorizations_per_step_fast\": " << tran.fast.factorizationsPerStep
      << ", \"unknowns_fast\": " << tran.fast.unknowns
      << ", \"unknowns_ref\": " << tran.ref.unknowns
      << "},\n  \"gates\": {\"ac_speedup_min\": 2.0, \"sweep_speedup_min\": 1.5,"
      << " \"alloc_ratio_max\": 0.5, \"iters_ratio_min\": 0.9,"
      << " \"noise_speedup_min\": 3.0, \"tran_speedup_min\": 1.5,"
      << " \"tran_evals_per_step_max\": " << kTranEvalsPerStepMax << ", \"pass\": "
      << (failures == 0 ? "true" : "false") << "}\n}\n";
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
  std::printf("cold DC    p50=%.3f ms  p99=%.3f ms  iters/s fast=%.3g ref=%.3g (%.2fx)\n",
              dc.p50Ms, dc.p99Ms, dc.itersPerSecFast, dc.itersPerSecRef, dc.itersRatio);
  std::printf("warm sweep %d trials  warm=%.3g pts/s cold=%.3g pts/s  speedup=%.2fx"
              "  hits=%ld  allocs/solve warm=%.0f cold=%.0f (%.2fx)\n",
              sweep.trials, sweep.warmPointsPerSec, sweep.coldPointsPerSec,
              sweep.speedup, sweep.warmHits, sweep.allocsPerWarmSolve,
              sweep.allocsPerColdSolve, sweep.allocRatio);
  std::printf("AC batch   %d freqs x %d exc  fast=%.3g pts/s ref=%.3g pts/s"
              "  speedup=%.2fx  solver allocs/pt fast=%.2f ref=%.2f (%.2fx)\n",
              ac.freqPoints, ac.excitations, ac.fastPointsPerSec, ac.refPointsPerSec,
              ac.speedup, ac.allocsPerPointFast, ac.allocsPerPointRef, ac.allocRatio);
  std::printf("noise      %d freqs  fast=%.3g pts/s ref=%.3g pts/s  speedup=%.2fx\n",
              noise.freqPoints, noise.fastPointsPerSec, noise.refPointsPerSec, noise.speedup);
  std::printf("transient  %d steps  fast=%.3g steps/s ref=%.3g steps/s  speedup=%.2fx"
              "  iters/step fast=%.2f ref=%.2f  evals/step fast=%.2f ref=%.1f"
              "  factorizations/step fast=%.2f  unknowns fast=%ld ref=%ld\n",
              tran.steps, tran.fast.stepsPerSec, tran.ref.stepsPerSec, tran.speedup,
              tran.fast.itersPerStep, tran.ref.itersPerStep, tran.fast.evalsPerStep,
              tran.ref.evalsPerStep, tran.fast.factorizationsPerStep, tran.fast.unknowns,
              tran.ref.unknowns);

  int failures = 0;
  if (ac.speedup < 2.0) {
    std::printf("ACCEPTANCE FAIL: AC batch speedup %.2fx < 2.0x\n", ac.speedup);
    ++failures;
  }
  if (sweep.speedup < 1.5) {
    std::printf("ACCEPTANCE FAIL: warm sweep speedup %.2fx < 1.5x\n", sweep.speedup);
    ++failures;
  }
  if (ac.allocRatio > 0.5) {
    std::printf("ACCEPTANCE FAIL: AC alloc ratio %.2f > 0.5\n", ac.allocRatio);
    ++failures;
  }
  if (sweep.allocRatio > 0.5) {
    std::printf("ACCEPTANCE FAIL: warm-solve alloc ratio %.2f > 0.5\n",
                sweep.allocRatio);
    ++failures;
  }
  if (dc.itersRatio < 0.9) {
    std::printf("ACCEPTANCE FAIL: fast Newton iters/sec %.2fx of reference < 0.9x\n",
                dc.itersRatio);
    ++failures;
  }
  if (noise.speedup < 3.0) {
    std::printf("ACCEPTANCE FAIL: noise speedup %.2fx < 3.0x\n", noise.speedup);
    ++failures;
  }
  if (tran.speedup < 1.5) {
    std::printf("ACCEPTANCE FAIL: transient speedup %.2fx < 1.5x\n", tran.speedup);
    ++failures;
  }
  if (tran.fast.evalsPerStep > kTranEvalsPerStepMax) {
    std::printf("ACCEPTANCE FAIL: transient device evaluations %.2f/step > %.0f\n",
                tran.fast.evalsPerStep, kTranEvalsPerStepMax);
    ++failures;
  }
  if (sweep.warmHits < sweep.trials) {
    std::printf("ACCEPTANCE FAIL: only %ld/%d warm-start hits\n", sweep.warmHits,
                sweep.trials);
    ++failures;
  }
  if (failures == 0) {
    std::printf("acceptance: AC >= 2x, sweep >= 1.5x, allocs <= 50%%, "
                "iters/sec >= 0.9x, noise >= 3x, transient >= 1.5x and <= %.0f "
                "evals/step -- all gates hold\n",
                kTranEvalsPerStepMax);
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
  sim::Simulator sim(work, Workload::technology(), *w.model,
                     w.options(sim::SolverMode::kFast));
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
  sim::Simulator sim(w.testbench, Workload::technology(), *w.model,
                     w.options(sim::SolverMode::kFast));
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
