#include "core/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/ota_topology.hpp"
#include "core/sweep.hpp"

namespace lo::core {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

// --- Registry. ---

TEST(TopologyRegistry, BuiltInsAreRegistered) {
  auto& reg = TopologyRegistry::instance();
  EXPECT_TRUE(reg.contains(kFoldedCascodeOtaTopologyName));
  EXPECT_TRUE(reg.contains(kTwoStageTopologyName));
  const auto names = reg.names();
  EXPECT_GE(names.size(), 2u);
}

TEST(TopologyRegistry, CreateKnownTopology) {
  const auto model = device::MosModel::create("ekv");
  for (const char* name : {kFoldedCascodeOtaTopologyName, kTwoStageTopologyName}) {
    const auto topo = TopologyRegistry::instance().create(name, kTech, *model);
    ASSERT_NE(topo, nullptr);
    EXPECT_EQ(topo->name(), name);
    EXPECT_FALSE(topo->criticalNets().empty());
    EXPECT_EQ(topo->parasiticSnapshot(), nullptr);  // No layout call yet.
  }
}

TEST(TopologyRegistry, UnknownTopologyThrowsWithNames) {
  const auto model = device::MosModel::create("ekv");
  try {
    (void)TopologyRegistry::instance().create("no_such_topology", kTech, *model);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The message names the bad key and lists the registered ones.
    EXPECT_NE(std::strstr(e.what(), "no_such_topology"), nullptr);
    EXPECT_NE(std::strstr(e.what(), kFoldedCascodeOtaTopologyName), nullptr);
  }
}

TEST(TopologyRegistry, CustomRegistrationRoundTrips) {
  auto& reg = TopologyRegistry::instance();
  reg.add("custom_test_topology",
          [](const tech::Technology& t, const device::MosModel& m) {
            return TopologyRegistry::instance().create(kTwoStageTopologyName, t, m);
          });
  EXPECT_TRUE(reg.contains("custom_test_topology"));
  const auto model = device::MosModel::create("ekv");
  const auto topo = reg.create("custom_test_topology", kTech, *model);
  EXPECT_EQ(topo->name(), kTwoStageTopologyName);
}

TEST(TopologyRegistry, DuplicateRegistrationIsRejected) {
  auto& reg = TopologyRegistry::instance();
  try {
    reg.add(kTwoStageTopologyName,
            [](const tech::Technology& t, const device::MosModel& m) {
              return TopologyRegistry::instance().create(kTwoStageTopologyName, t,
                                                         m);
            });
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::strstr(e.what(), kTwoStageTopologyName), nullptr);
    EXPECT_NE(std::strstr(e.what(), "already registered"), nullptr);
  }
  // The original factory survives the rejected overwrite attempt.
  const auto model = device::MosModel::create("ekv");
  EXPECT_EQ(reg.create(kTwoStageTopologyName, kTech, *model)->name(),
            kTwoStageTopologyName);
}

// --- Shared loop plumbing. ---

TEST(Engine, PolicyForMatchesTableOneCases) {
  const auto p1 = SynthesisEngine::policyFor(SizingCase::kCase1);
  EXPECT_FALSE(p1.diffusionCaps);
  const auto p2 = SynthesisEngine::policyFor(SizingCase::kCase2);
  EXPECT_TRUE(p2.diffusionCaps);
  EXPECT_FALSE(p2.exactDiffusion);
  for (SizingCase c : {SizingCase::kCase3, SizingCase::kCase4}) {
    const auto p = SynthesisEngine::policyFor(c);
    EXPECT_TRUE(p.diffusionCaps);
    EXPECT_TRUE(p.exactDiffusion);
    EXPECT_EQ(p.routingParasitics, nullptr);  // Fed back later by the loop.
  }
}

TEST(Engine, RelativeChangeIsWorstPerNetRatio) {
  EXPECT_DOUBLE_EQ(SynthesisEngine::relativeChange({1.0, 2.0}, {1.0, 2.0}), 0.0);
  EXPECT_NEAR(SynthesisEngine::relativeChange({1.0, 2.0}, {1.1, 2.0}), 0.1, 1e-12);
  // The largest per-net change dominates, not the average.
  EXPECT_NEAR(SynthesisEngine::relativeChange({1.0, 1.0, 1.0}, {1.01, 1.5, 1.0}), 0.5,
              1e-12);
}

TEST(Engine, SingleLayoutCallCannotConverge) {
  // Convergence needs two successive snapshots; one call must report
  // parasiticConverged == false but still finish the generation tail.
  EngineOptions opt;
  opt.maxLayoutCalls = 1;
  const SynthesisEngine engine(kTech, opt);
  const EngineResult r = engine.run(sizing::OtaSpecs{});
  EXPECT_EQ(r.layoutCalls, 1);
  EXPECT_FALSE(r.parasiticConverged);
  EXPECT_EQ(r.iterations.size(), 1u);
  EXPECT_GT(r.measured.gbwHz, 0.0);
}

TEST(Engine, ZeroToleranceNeverConverges) {
  EngineOptions opt;
  opt.convergenceTol = 0.0;
  opt.maxLayoutCalls = 4;
  const SynthesisEngine engine(kTech, opt);
  const EngineResult r = engine.run(sizing::OtaSpecs{});
  EXPECT_FALSE(r.parasiticConverged);
  EXPECT_EQ(r.layoutCalls, 4);  // Runs to the cap.
  EXPECT_EQ(r.iterations.size(), 4u);
}

// --- Convergence watchdog. ---

EngineIteration snapshot(std::vector<double> caps) {
  EngineIteration it;
  it.netCaps = std::move(caps);
  return it;
}

TEST(Engine, RelativeChangeSizeMismatchIsTotalChange) {
  // A changed critical-net set between snapshots must read as 100% change,
  // not as a comparison of the common prefix.
  EXPECT_DOUBLE_EQ(SynthesisEngine::relativeChange({1.0}, {1.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(SynthesisEngine::relativeChange({1.0, 2.0}, {}), 1.0);
}

TEST(ConvergenceWatchdog, EmptyHistoryIsConvergedWithoutLoop) {
  // Cases 1/2 never run the parasitic loop: nothing to converge, and the
  // report must say the loop never ran rather than claim a settled loop.
  const ConvergenceReport r = analyzeConvergence({}, false, 0.01);
  EXPECT_TRUE(r.converged());
  EXPECT_FALSE(r.loopRan);
  EXPECT_DOUBLE_EQ(r.worstResidual, 0.0);
  EXPECT_TRUE(r.callDeltas.empty());
  EXPECT_EQ(r.cycleLength, 0);
}

TEST(ConvergenceWatchdog, SettledLoopStaysConverged) {
  const std::vector<EngineIteration> history = {
      snapshot({1.0e-12}), snapshot({1.2e-12}), snapshot({1.2e-12})};
  const ConvergenceReport r = analyzeConvergence(history, true, 0.01);
  EXPECT_TRUE(r.converged());
  EXPECT_TRUE(r.loopRan);
  ASSERT_EQ(r.callDeltas.size(), 2u);
  EXPECT_DOUBLE_EQ(r.worstResidual, r.callDeltas.back());
}

TEST(ConvergenceWatchdog, AlternatingCapsReadAsPeriodTwoOscillation) {
  // A -> B -> A -> B: the loop revisits states instead of approaching one.
  const std::vector<EngineIteration> history = {
      snapshot({1.0e-12}), snapshot({2.0e-12}),
      snapshot({1.0e-12}), snapshot({2.0e-12})};
  const ConvergenceReport r = analyzeConvergence(history, false, 0.01);
  EXPECT_EQ(r.verdict, ConvergenceVerdict::kOscillating);
  EXPECT_EQ(r.cycleLength, 2);
  EXPECT_FALSE(r.converged());
  // The oscillation amplitude is the residual: |1-2|/1 = 1.0.
  EXPECT_DOUBLE_EQ(r.worstResidual, 1.0);
}

TEST(ConvergenceWatchdog, MonotoneGrowthReadsAsDrift) {
  const std::vector<EngineIteration> history = {
      snapshot({1.0e-12}), snapshot({2.0e-12}),
      snapshot({4.0e-12}), snapshot({8.0e-12})};
  const ConvergenceReport r = analyzeConvergence(history, false, 0.01);
  EXPECT_EQ(r.verdict, ConvergenceVerdict::kDrifting);
  EXPECT_EQ(r.cycleLength, 0);
  ASSERT_EQ(r.callDeltas.size(), 3u);
  EXPECT_DOUBLE_EQ(r.worstResidual, 1.0);  // Last step: |4-8|/4.
}

TEST(ConvergenceWatchdog, SingleSnapshotNeverLooksSettled) {
  // One snapshot carries no settling evidence: the residual pins to 1.0
  // and the verdict is drift, not convergence.
  const ConvergenceReport r =
      analyzeConvergence({snapshot({1.0e-12})}, false, 0.01);
  EXPECT_EQ(r.verdict, ConvergenceVerdict::kDrifting);
  EXPECT_DOUBLE_EQ(r.worstResidual, 1.0);
  EXPECT_TRUE(r.callDeltas.empty());
}

TEST(ConvergenceWatchdog, EngineResultCarriesTheVerdict) {
  // A converged real run reports kConverged with the loop's own deltas; a
  // zero-tolerance run that fell out of the cap reports a failure verdict.
  const SynthesisEngine engine(kTech, EngineOptions{});
  const EngineResult ok = engine.run(sizing::OtaSpecs{});
  EXPECT_EQ(ok.convergence.converged(), ok.parasiticConverged);
  EXPECT_TRUE(ok.convergence.loopRan);
  EXPECT_EQ(ok.convergence.callDeltas.size(), ok.iterations.size() - 1);

  EngineOptions strict;
  strict.convergenceTol = 0.0;
  strict.maxLayoutCalls = 4;
  const EngineResult stuck = SynthesisEngine(kTech, strict).run(sizing::OtaSpecs{});
  EXPECT_FALSE(stuck.convergence.converged());
  EXPECT_TRUE(stuck.convergence.loopRan);
  EXPECT_EQ(stuck.convergence.callDeltas.size(), stuck.iterations.size() - 1);
}

TEST(Engine, IterationsCarryAllCriticalNets) {
  const SynthesisEngine engine(kTech, EngineOptions{});
  const EngineResult r = engine.run(sizing::OtaSpecs{});
  ASSERT_GE(r.criticalNets.size(), 3u);
  for (const EngineIteration& it : r.iterations) {
    ASSERT_EQ(it.netCaps.size(), r.criticalNets.size());
    for (double cap : it.netCaps) EXPECT_GT(cap, 0.0);
    EXPECT_GT(it.primaryCurrent, 0.0);
    EXPECT_GT(it.pairWidth, 0.0);
  }
}

TEST(Engine, RegistryRunMatchesWrapperRun) {
  // The registry-driven overload and the explicit-topology overload must
  // produce identical numbers.
  EngineOptions opt;
  const SynthesisEngine engine(kTech, opt);
  const EngineResult viaRegistry = engine.run(sizing::OtaSpecs{});
  FoldedCascodeOtaTopology topology(kTech, engine.model());
  const EngineResult viaTopology = engine.run(topology, sizing::OtaSpecs{});
  EXPECT_DOUBLE_EQ(viaRegistry.measured.gbwHz, viaTopology.measured.gbwHz);
  EXPECT_DOUBLE_EQ(viaRegistry.predicted.dcGainDb, viaTopology.predicted.dcGainDb);
  EXPECT_EQ(viaRegistry.layoutCalls, viaTopology.layoutCalls);
}

TEST(Engine, TwoStageConvergenceWatchesCompensationNets) {
  // The multi-net criterion must include both amplifying nodes and the
  // Rz/Cc midpoint (regression: the old two-stage flow watched only
  // out + o1 summed into one number).
  EngineOptions opt;
  opt.topology = kTwoStageTopologyName;
  const SynthesisEngine engine(kTech, opt);
  sizing::OtaSpecs specs;
  specs.gbw = 30e6;
  const EngineResult r = engine.run(specs);
  EXPECT_TRUE(r.parasiticConverged);
  const auto& nets = r.criticalNets;
  for (const char* net : {"out", "o1", "rzm", "tail"}) {
    EXPECT_NE(std::find(nets.begin(), nets.end(), net), nets.end()) << net;
  }
  for (const EngineIteration& it : r.iterations) {
    EXPECT_EQ(it.netCaps.size(), nets.size());
  }
}

// --- Engine hooks (cancellation + stage timing). ---

TEST(EngineHooks, CancelRequestedAbortsBeforeAnyWork) {
  EngineOptions opt;
  opt.hooks.cancelRequested = [] { return true; };
  const SynthesisEngine engine(kTech, opt);
  EXPECT_THROW((void)engine.run(sizing::OtaSpecs{}), JobCancelled);
}

TEST(EngineHooks, OnStageReportsEveryLoopPhase) {
  EngineOptions opt;
  std::vector<std::string> stages;
  opt.hooks.onStage = [&stages](EngineStage stage, double seconds) {
    EXPECT_GE(seconds, 0.0);
    stages.push_back(engineStageName(stage));
  };
  const SynthesisEngine engine(kTech, opt);
  const EngineResult r = engine.run(sizing::OtaSpecs{});
  EXPECT_GT(r.measured.gbwHz, 0.0);
  ASSERT_FALSE(stages.empty());
  EXPECT_EQ(stages.front(), "sizing");
  for (const char* expected :
       {"sizing", "parasitic_layout", "generation", "extraction", "verification"}) {
    EXPECT_NE(std::find(stages.begin(), stages.end(), expected), stages.end())
        << expected;
  }
}

TEST(EngineHooks, HookedRunIsBitIdenticalToUnhooked) {
  // Observation must not perturb the numbers: the cache stores unhooked
  // results and serves them to hooked jobs.
  const EngineResult plain = SynthesisEngine(kTech, EngineOptions{}).run(sizing::OtaSpecs{});
  EngineOptions opt;
  opt.hooks.cancelRequested = [] { return false; };
  opt.hooks.onStage = [](EngineStage, double) {};
  const EngineResult hooked = SynthesisEngine(kTech, opt).run(sizing::OtaSpecs{});
  EXPECT_EQ(std::memcmp(&plain.measured, &hooked.measured,
                        sizeof(sizing::OtaPerformance)),
            0);
  EXPECT_EQ(std::memcmp(&plain.predicted, &hooked.predicted,
                        sizeof(sizing::OtaPerformance)),
            0);
  EXPECT_EQ(plain.layoutCalls, hooked.layoutCalls);
}

// --- Sweep driver. ---

std::vector<SweepJob> sweepJobs() {
  std::vector<SweepJob> jobs;
  for (double gbwMhz : {40.0, 65.0}) {
    for (tech::ProcessCorner corner :
         {tech::ProcessCorner::kTypical, tech::ProcessCorner::kSlow,
          tech::ProcessCorner::kFast}) {
      SweepJob job;
      job.label = "ota_" + std::to_string(static_cast<int>(gbwMhz)) + "_" +
                  tech::cornerName(corner);
      job.specs.gbw = gbwMhz * 1e6;
      job.corner = corner;
      jobs.push_back(job);
    }
  }
  for (double gbwMhz : {20.0, 30.0}) {
    SweepJob job;
    job.label = "two_stage_" + std::to_string(static_cast<int>(gbwMhz));
    job.options.topology = kTwoStageTopologyName;
    job.specs.gbw = gbwMhz * 1e6;
    jobs.push_back(job);
  }
  return jobs;  // 8 jobs.
}

TEST(SweepDriver, DeterministicAcrossThreadCounts) {
  const std::vector<SweepJob> jobs = sweepJobs();
  ASSERT_GE(jobs.size(), 8u);
  const auto serial = SweepDriver(kTech, 1).run(jobs);
  const auto threaded = SweepDriver(kTech, 4).run(jobs);
  ASSERT_EQ(serial.size(), jobs.size());
  ASSERT_EQ(threaded.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    SCOPED_TRACE(jobs[i].label);
    EXPECT_EQ(serial[i].index, i);
    EXPECT_EQ(threaded[i].index, i);
    EXPECT_EQ(serial[i].label, jobs[i].label);
    ASSERT_TRUE(serial[i].ok) << serial[i].error;
    ASSERT_TRUE(threaded[i].ok) << threaded[i].error;
    // Bit-for-bit: the performance records and convergence history must be
    // byte-identical regardless of scheduling.
    EXPECT_EQ(std::memcmp(&serial[i].result.measured, &threaded[i].result.measured,
                          sizeof(sizing::OtaPerformance)),
              0);
    EXPECT_EQ(std::memcmp(&serial[i].result.predicted, &threaded[i].result.predicted,
                          sizeof(sizing::OtaPerformance)),
              0);
    EXPECT_EQ(serial[i].result.layoutCalls, threaded[i].result.layoutCalls);
    ASSERT_EQ(serial[i].result.iterations.size(), threaded[i].result.iterations.size());
    for (std::size_t k = 0; k < serial[i].result.iterations.size(); ++k) {
      const auto& a = serial[i].result.iterations[k];
      const auto& b = threaded[i].result.iterations[k];
      ASSERT_EQ(a.netCaps.size(), b.netCaps.size());
      for (std::size_t n = 0; n < a.netCaps.size(); ++n) {
        EXPECT_DOUBLE_EQ(a.netCaps[n], b.netCaps[n]);
      }
    }
  }
}

TEST(SweepDriver, BadJobReportsErrorWithoutAbortingSweep) {
  std::vector<SweepJob> jobs;
  SweepJob good;
  good.label = "good";
  jobs.push_back(good);
  SweepJob bad;
  bad.label = "bad";
  bad.options.topology = "no_such_topology";
  jobs.push_back(bad);
  const auto outcomes = SweepDriver(kTech, 2).run(jobs);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_FALSE(outcomes[1].ok);
  EXPECT_NE(outcomes[1].error.find("no_such_topology"), std::string::npos);
}

TEST(SweepDriver, WorkerCountClampsToJobsAndFloorsAtOne) {
  const SweepDriver driver(kTech, 8);
  EXPECT_EQ(driver.workerCount(3), 3);
  EXPECT_EQ(driver.workerCount(100), 8);
  EXPECT_EQ(SweepDriver(kTech, -5).workerCount(0), 1);
}

}  // namespace
}  // namespace lo::core
