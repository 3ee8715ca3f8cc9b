// The post-layout verification tier end to end: the engine's
// kPostLayoutVerify stage on both topologies, the report's verdict logic,
// its serialization round trip, determinism, and the acFrom() simulator
// primitive the PSRR measurement rides on.
#include "verify/verify.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"
#include "service/scheduler.hpp"
#include "service/serialize.hpp"
#include "sim/simulator.hpp"

namespace lo {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

core::EngineOptions verifyEnabledOptions(const std::string& topology) {
  core::EngineOptions options;
  options.topology = topology;
  options.sizingCase = core::SizingCase::kCase2;  // Cheap: no parasitic loop.
  options.postLayoutVerify.enabled = true;
  options.postLayoutVerify.sweepPoints = 15;
  return options;
}

sizing::OtaSpecs specsFor(const std::string& topology) {
  sizing::OtaSpecs specs;
  if (topology == core::kTwoStageTopologyName) specs.gbw = 30e6;
  return specs;
}

void expectFullReport(const verify::VerificationReport& report) {
  ASSERT_TRUE(report.ran);
  // Every spec row is present, pre and post.
  for (const char* name :
       {"gbw_hz", "phase_margin_deg", "output_swing_low", "output_swing_high",
        "icmr_low", "icmr_high", "thd_percent", "psrr_db", "offset_mv"}) {
    ASSERT_NE(report.find(name), nullptr) << name;
  }
  EXPECT_GT(report.preLayout.gbwHz, 0.0);
  EXPECT_GT(report.postLayout.gbwHz, 0.0);
  for (const verify::ExtendedMeasures* m :
       {&report.preExtended, &report.postExtended}) {
    EXPECT_TRUE(std::isfinite(m->thdPercent));
    EXPECT_GE(m->thdPercent, 0.0);
    EXPECT_GT(m->psrrDb, 0.0);
    EXPECT_GT(m->outputSwingHigh, m->outputSwingLow);
    EXPECT_GT(m->icmrHigh, m->icmrLow);
    EXPECT_TRUE(std::isfinite(m->offsetMv));
  }
  // The unconstrained extended rows never fail on their own.
  EXPECT_FALSE(report.find("thd_percent")->constrained);
  EXPECT_FALSE(report.find("psrr_db")->constrained);
  EXPECT_FALSE(report.find("offset_mv")->constrained);
  EXPECT_TRUE(report.find("gbw_hz")->constrained);
}

TEST(PostLayoutVerify, ReportRunsOnFoldedCascode) {
  const core::SynthesisEngine engine(
      kTech, verifyEnabledOptions(core::kFoldedCascodeOtaTopologyName));
  const core::EngineResult result =
      engine.run(specsFor(core::kFoldedCascodeOtaTopologyName));
  expectFullReport(result.verification);
}

TEST(PostLayoutVerify, ReportRunsOnTwoStage) {
  const core::SynthesisEngine engine(
      kTech, verifyEnabledOptions(core::kTwoStageTopologyName));
  const core::EngineResult result = engine.run(specsFor(core::kTwoStageTopologyName));
  expectFullReport(result.verification);
  // Post-layout GBW moves below the schematic figure: annotation only adds
  // parasitics, never removes them.
  const verify::SpecDelta* gbw = result.verification.find("gbw_hz");
  EXPECT_LT(gbw->postLayout, gbw->preLayout);
}

TEST(PostLayoutVerify, DisabledByDefaultAndAbsentFromJson) {
  core::EngineOptions options;
  options.sizingCase = core::SizingCase::kCase2;
  const core::SynthesisEngine engine(kTech, options);
  const core::EngineResult result = engine.run(sizing::OtaSpecs{});
  EXPECT_FALSE(result.verification.ran);
  // Results from verification-free runs serialise exactly as before the
  // tier existed: no "verification" member at all.
  const std::string dump = service::toJson(result).dump();
  EXPECT_EQ(dump.find("\"verification\""), std::string::npos);
}

TEST(PostLayoutVerify, DeterministicAcrossRuns) {
  const core::EngineOptions options =
      verifyEnabledOptions(core::kFoldedCascodeOtaTopologyName);
  const sizing::OtaSpecs specs = specsFor(core::kFoldedCascodeOtaTopologyName);
  const core::SynthesisEngine engine(kTech, options);
  const std::string a = service::toJson(engine.run(specs)).dump();
  const std::string b = service::toJson(engine.run(specs)).dump();
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"verification\""), std::string::npos);
}

TEST(PostLayoutVerify, ToleranceFlipsVerdict) {
  const auto model = device::MosModel::create("ekv");
  core::FoldedCascodeOtaTopology topology(kTech, *model);
  core::EngineOptions options =
      verifyEnabledOptions(core::kFoldedCascodeOtaTopologyName);
  const core::SynthesisEngine engine(kTech, options);
  const sizing::OtaSpecs specs = specsFor(core::kFoldedCascodeOtaTopologyName);
  (void)engine.run(topology, specs);
  const verify::VerificationSetup setup = topology.verificationSetup();
  ASSERT_TRUE(setup.preLayout && setup.postLayout);

  // A sub-microvolt offset budget no real OTA meets: the offset row is now
  // constrained and fails, dragging the overall verdict down.
  sizing::OtaSpecs strict = specs;
  strict.offsetMaxMv = 1e-4;
  const verify::VerificationReport failing = verify::runVerification(
      kTech, *model, setup, strict, options.verifyOptions, options.postLayoutVerify);
  ASSERT_TRUE(failing.ran);
  const verify::SpecDelta* strictRow = failing.find("offset_mv");
  EXPECT_TRUE(strictRow->constrained);
  EXPECT_FALSE(strictRow->pass);
  EXPECT_FALSE(failing.pass);

  // A 100 mV budget passes; the row stays constrained.
  sizing::OtaSpecs loose = specs;
  loose.offsetMaxMv = 100.0;
  const verify::VerificationReport passing = verify::runVerification(
      kTech, *model, setup, loose, options.verifyOptions, options.postLayoutVerify);
  const verify::SpecDelta* looseRow = passing.find("offset_mv");
  EXPECT_TRUE(looseRow->constrained);
  EXPECT_TRUE(looseRow->pass);
}

TEST(PostLayoutVerify, RejectsUnusableSetupAndOptions) {
  const auto model = device::MosModel::create("ekv");
  const sizing::OtaSpecs specs;
  const sizing::VerifyOptions simOptions;
  verify::VerificationOptions options;
  options.enabled = true;

  verify::VerificationSetup unsupported;  // No instantiators.
  EXPECT_THROW(verify::runVerification(kTech, *model, unsupported, specs,
                                       simOptions, options),
               std::invalid_argument);

  core::FoldedCascodeOtaTopology topology(kTech, *model);
  core::EngineOptions engineOptions =
      verifyEnabledOptions(core::kFoldedCascodeOtaTopologyName);
  const core::SynthesisEngine engine(kTech, engineOptions);
  (void)engine.run(topology, specs);
  const verify::VerificationSetup setup = topology.verificationSetup();

  verify::VerificationOptions badFft = options;
  badFft.thdSamplesPerCycle = 60;  // 4 * 60 = 240, not a power of two.
  EXPECT_THROW(
      verify::runVerification(kTech, *model, setup, specs, simOptions, badFft),
      std::invalid_argument);

  verify::VerificationOptions badSweep = options;
  badSweep.sweepPoints = 2;
  EXPECT_THROW(
      verify::runVerification(kTech, *model, setup, specs, simOptions, badSweep),
      std::invalid_argument);
}

TEST(PostLayoutVerify, ReportJsonRoundTripIsExact) {
  verify::VerificationReport report;
  report.ran = true;
  report.pass = false;
  report.preLayout.gbwHz = 6.453234190871e7;
  report.postLayout.gbwHz = 6.221198700031e7;
  report.preExtended.thdPercent = 0.0123456789;
  report.preExtended.psrrDb = 61.7;
  report.preExtended.outputSwingLow = 0.6048;
  report.preExtended.outputSwingHigh = 2.6903;
  report.preExtended.icmrLow = 0.2785;
  report.preExtended.icmrHigh = 2.3357;
  report.preExtended.offsetMv = -1.5525;
  report.postExtended = report.preExtended;
  report.postExtended.thdPercent = 0.0123;
  verify::SpecDelta d;
  d.name = "gbw_hz";
  d.preLayout = report.preLayout.gbwHz;
  d.postLayout = report.postLayout.gbwHz;
  d.limit = 6.38e7;
  d.constrained = true;
  d.pass = false;
  report.deltas.push_back(d);

  const service::Json j = service::toJson(report);
  const std::string dump = j.dump();
  const verify::VerificationReport back =
      service::verificationFromJson(service::Json::parse(dump));
  EXPECT_EQ(back.ran, report.ran);
  EXPECT_EQ(back.pass, report.pass);
  EXPECT_EQ(back.preLayout.gbwHz, report.preLayout.gbwHz);
  EXPECT_EQ(back.preExtended.thdPercent, report.preExtended.thdPercent);
  ASSERT_EQ(back.deltas.size(), 1u);
  EXPECT_EQ(back.deltas[0].name, "gbw_hz");
  EXPECT_EQ(back.deltas[0].limit, d.limit);
  EXPECT_TRUE(back.deltas[0].constrained);
  EXPECT_FALSE(back.deltas[0].pass);
  // Bit-exact round trip: re-serialising reproduces the bytes.
  EXPECT_EQ(service::toJson(back).dump(), dump);
}

TEST(PostLayoutVerify, SchedulerResultsInvariantAcrossWorkerCounts) {
  service::JobRequest job;
  job.label = "plv";
  job.options = verifyEnabledOptions(core::kFoldedCascodeOtaTopologyName);
  job.specs = specsFor(core::kFoldedCascodeOtaTopologyName);

  std::string dumps[2];
  const int threads[2] = {1, 4};
  for (int i = 0; i < 2; ++i) {
    service::SchedulerOptions options;
    options.threads = threads[i];
    service::JobScheduler scheduler(kTech, options);
    const std::uint64_t id = scheduler.submit(job);
    const service::JobStatus status = scheduler.wait(id);
    ASSERT_EQ(status.state, service::JobState::kDone) << status.error;
    ASSERT_TRUE(status.result.verification.ran);
    dumps[i] = service::toJson(status.result).dump();
  }
  EXPECT_EQ(dumps[0], dumps[1]);
}

TEST(SimAcFrom, MatchesExplicitSupplyExcitationBitwise) {
  // acFrom(op, "VDD") must produce exactly the solve that ac() produces
  // when VDD is the only source with a non-zero AC magnitude -- same
  // matrix, same RHS, bit-identical solution.
  using circuit::Waveform;
  circuit::Circuit manual;
  {
    const auto in = manual.node("in"), out = manual.node("out"),
               vdd = manual.node("vdd");
    manual.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(1.0), 0.0);
    manual.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.0), 1.0);
    manual.addResistor("R1", vdd, out, 10e3);
    manual.addResistor("R2", out, in, 5e3);
    manual.addCapacitor("C1", out, circuit::kGround, 2e-12);
  }
  circuit::Circuit probed;
  {
    const auto in = probed.node("in"), out = probed.node("out"),
               vdd = probed.node("vdd");
    probed.addVSource("VIN", in, circuit::kGround, Waveform::makeDc(1.0), 0.0);
    probed.addVSource("VDD", vdd, circuit::kGround, Waveform::makeDc(3.0), 0.0);
    probed.addResistor("R1", vdd, out, 10e3);
    probed.addResistor("R2", out, in, 5e3);
    probed.addCapacitor("C1", out, circuit::kGround, 2e-12);
  }
  const auto model = device::MosModel::create("level1");
  sim::Simulator simManual(manual, kTech, *model);
  sim::Simulator simProbed(probed, kTech, *model);
  const auto acManual =
      simManual.ac(simManual.dcOperatingPoint(), 10.0, 1e9, 10);
  const auto acProbed =
      simProbed.acFrom(simProbed.dcOperatingPoint(), "VDD", 10.0, 1e9, 10);
  ASSERT_EQ(acManual.size(), acProbed.size());
  for (std::size_t i = 0; i < acManual.size(); ++i) {
    ASSERT_EQ(acManual[i].nodeV.size(), acProbed[i].nodeV.size());
    for (std::size_t n = 0; n < acManual[i].nodeV.size(); ++n) {
      EXPECT_EQ(acManual[i].nodeV[n], acProbed[i].nodeV[n])
          << "freq " << acManual[i].freq << " node " << n;
    }
  }
}

TEST(SimAcFrom, UnknownSourceThrows) {
  circuit::Circuit c;
  const auto in = c.node("in");
  c.addVSource("VIN", in, circuit::kGround, circuit::Waveform::makeDc(1.0), 1.0);
  c.addResistor("R1", in, circuit::kGround, 1e3);
  const auto model = device::MosModel::create("level1");
  sim::Simulator sim(c, kTech, *model);
  const sim::DcSolution op = sim.dcOperatingPoint();
  EXPECT_THROW((void)sim.acFrom(op, "VNOPE", 10.0, 1e6, 5),
               sim::SimulationError);
}

}  // namespace
}  // namespace lo
