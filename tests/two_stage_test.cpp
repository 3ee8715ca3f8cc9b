#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "core/two_stage_topology.hpp"
#include "layout/drc.hpp"
#include "layout/passives.hpp"

namespace lo {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

sizing::OtaSpecs twoStageSpecs() {
  sizing::OtaSpecs s;
  s.gbw = 30e6;  // A Miller OTA target this process reaches comfortably.
  return s;
}

// --- Passive generators. ---

TEST(Passives, CapacitorHitsTargetValue) {
  layout::CapacitorSpec spec;
  spec.farads = 1e-12;
  layout::CapacitorInfo info;
  const layout::Cell cell = layout::generateCapacitor(kTech, spec, &info);
  EXPECT_NEAR(info.drawnFarads, 1e-12, 0.03e-12);
  EXPECT_GT(info.bottomParasitic, 0.0);
  EXPECT_LT(info.bottomParasitic, 0.5e-12);  // Much smaller than the cap itself.
  EXPECT_EQ(cell.portsOn(spec.bottomNet).size(), 1u);
  EXPECT_EQ(cell.portsOn(spec.topNet).size(), 1u);
  const auto violations = layout::runDrc(kTech, cell.shapes);
  EXPECT_TRUE(violations.empty()) << layout::formatViolations(violations);
}

TEST(Passives, CapacitorAspectShapesThePlates) {
  layout::CapacitorSpec wide;
  wide.farads = 1e-12;
  wide.aspect = 4.0;
  layout::CapacitorInfo wi, si;
  (void)layout::generateCapacitor(kTech, wide, &wi);
  layout::CapacitorSpec square = wide;
  square.aspect = 1.0;
  (void)layout::generateCapacitor(kTech, square, &si);
  EXPECT_GT(static_cast<double>(wi.width) / wi.height,
            static_cast<double>(si.width) / si.height);
  EXPECT_NEAR(wi.drawnFarads, si.drawnFarads, 0.05e-12);
}

TEST(Passives, ResistorHitsTargetValue) {
  layout::ResistorSpec spec;
  spec.ohms = 1e3;
  layout::ResistorInfo info;
  const layout::Cell cell = layout::generateResistor(kTech, spec, &info);
  EXPECT_NEAR(info.drawnOhms, 1e3, 150.0);
  EXPECT_GT(info.segments, 0);
  EXPECT_EQ(cell.portsOn(spec.netA).size(), 1u);
  EXPECT_EQ(cell.portsOn(spec.netB).size(), 1u);
  const auto violations = layout::runDrc(kTech, cell.shapes);
  EXPECT_TRUE(violations.empty()) << layout::formatViolations(violations);
}

TEST(Passives, LongResistorSerpentines) {
  layout::ResistorSpec spec;
  spec.ohms = 20e3;  // 800 squares: must fold.
  layout::ResistorInfo info;
  (void)layout::generateResistor(kTech, spec, &info);
  EXPECT_GT(info.segments, 5);
  EXPECT_NEAR(info.drawnOhms, 20e3, 2e3);
}

TEST(Passives, RejectNonPositiveValues) {
  EXPECT_THROW((void)layout::generateCapacitor(kTech, {.farads = -1e-12}),
               std::invalid_argument);
  layout::ResistorSpec r;
  r.ohms = 0.0;
  EXPECT_THROW((void)layout::generateResistor(kTech, r), std::invalid_argument);
}

// --- Topology and sizing. ---

TEST(TwoStage, NetlistStructure) {
  circuit::Circuit c;
  circuit::TwoStageOtaDesign d;
  const circuit::TwoStageNodes nodes = circuit::instantiateTwoStage(c, d);
  EXPECT_EQ(c.mosfets.size(), 7u);
  EXPECT_EQ(c.resistors.size(), 1u);   // RZ.
  EXPECT_EQ(c.capacitors.size(), 2u);  // CC + CL.
  // Driver gate rides the first-stage output.
  EXPECT_EQ(c.findMos("MP6")->gate, nodes.o1);
  // Mirror diode.
  EXPECT_EQ(c.findMos("MP3")->gate, c.findMos("MP3")->drain);
}

TEST(TwoStage, SizerConvergesOnGbw) {
  const auto model = device::MosModel::create("ekv");
  sizing::TwoStageSizer sizer(kTech, *model);
  const auto r = sizer.size(twoStageSpecs(), sizing::SizingPolicy::case2());
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.predicted.gbwHz, 30e6, 30e6 * 0.01);
  EXPECT_GE(r.predicted.phaseMarginDeg, 64.0);
  EXPECT_GT(r.design.stage2Current, r.design.tailCurrent);
  EXPECT_GT(r.design.rz, 0.0);
}

TEST(TwoStage, GbwPastTheModelsRangeFailsInsteadOfNonFiniteFigures) {
  // Finite GBW targets whose gm target overflows or whose figures come out
  // 0/0: sizing must throw, naming the quantity, not return NaN figures.
  const auto model = device::MosModel::create("ekv");
  sizing::TwoStageSizer sizer(kTech, *model);
  for (const double gbw : {1e308, 1e-300}) {
    sizing::OtaSpecs specs = twoStageSpecs();
    specs.gbw = gbw;
    try {
      const auto r = sizer.size(specs, sizing::SizingPolicy::case1());
      ADD_FAILURE() << "gbw " << gbw << " sized, predicting a GBW of " << r.predicted.gbwHz;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find("TwoStageSizer: "), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(" is not finite"), std::string::npos)
          << e.what();
    }
  }
}

TEST(TwoStage, SnapshotAllSaturated) {
  const auto model = device::MosModel::create("ekv");
  sizing::TwoStageSizer sizer(kTech, *model);
  const auto r = sizer.size(twoStageSpecs(), sizing::SizingPolicy::case2());
  const auto s = sizer.snapshot(r.design, twoStageSpecs().inputCmMid());
  for (const device::MosOpPoint* op :
       {&s.pair, &s.mirror, &s.tail, &s.driver, &s.sink2}) {
    EXPECT_EQ(op->region, device::MosRegion::kSaturation);
  }
}

TEST(TwoStage, VerificationTracksPrediction) {
  const auto model = device::MosModel::create("ekv");
  sizing::TwoStageSizer sizer(kTech, *model);
  const auto r = sizer.size(twoStageSpecs(), sizing::SizingPolicy::case2());
  const auto m = sizing::measureAmplifier(
      kTech, *model, [&](circuit::Circuit& c) { circuit::instantiateTwoStage(c, r.design); },
      r.design.inputCm, r.design.vdd, nullptr);
  EXPECT_NEAR(m.dcGainDb, r.predicted.dcGainDb, 2.0);
  EXPECT_NEAR(m.gbwHz, r.predicted.gbwHz, r.predicted.gbwHz * 0.15);
  EXPECT_NEAR(m.phaseMarginDeg, r.predicted.phaseMarginDeg, 6.0);
  EXPECT_NEAR(m.powerMw, r.predicted.powerMw, r.predicted.powerMw * 0.15);
  EXPECT_LT(std::abs(m.offsetMv), 5.0);
}

// --- Layout and flow. ---

TEST(TwoStage, LayoutIsDrcCleanAndReportsPassives) {
  const auto model = device::MosModel::create("ekv");
  sizing::TwoStageSizer sizer(kTech, *model);
  const auto r = sizer.size(twoStageSpecs(), sizing::SizingPolicy::case2());
  const auto lay =
      layout::generateTwoStageLayout(kTech, r.design, layout::TwoStageLayoutOptions{}, true);
  EXPECT_NEAR(lay.ccInfo.drawnFarads, r.design.cc, r.design.cc * 0.05);
  EXPECT_NEAR(lay.rzInfo.drawnOhms, r.design.rz, r.design.rz * 0.25);
  EXPECT_EQ(lay.junctions.size(), 5u);
  // The Rz/Cc midpoint carries the bottom-plate parasitic.
  EXPECT_GT(lay.parasitics.capOn("rzm"), lay.ccInfo.bottomParasitic * 0.9);
  const auto violations = layout::runDrc(kTech, lay.cell.shapes);
  std::vector<layout::DrcViolation> shorts;
  for (const auto& v : violations) {
    if (v.detail.find("short") != std::string::npos) shorts.push_back(v);
  }
  EXPECT_TRUE(shorts.empty()) << layout::formatViolations(shorts);
}

TEST(TwoStage, FullFlowConvergesAndMeetsSpecShape) {
  const core::SynthesisEngine engine(kTech, core::EngineOptions{});
  core::TwoStageTopology topology(kTech, engine.model());
  const core::EngineResult r = engine.run(topology, twoStageSpecs());
  EXPECT_TRUE(r.parasiticConverged);
  EXPECT_LE(r.layoutCalls, 5);
  // Extracted simulation within 12% of the (compensated) target.
  EXPECT_NEAR(r.measured.gbwHz, 30e6, 30e6 * 0.12);
  EXPECT_GE(r.measured.phaseMarginDeg, 58.0);
  // Drawn passives replaced the ideal ones in the extracted design.
  EXPECT_NEAR(topology.extractedDesign().cc, topology.layout().ccInfo.drawnFarads,
              1e-18);
}

TEST(TwoStage, Case1MissesWithoutLayoutKnowledge) {
  core::EngineOptions c1;
  c1.topology = core::kTwoStageTopologyName;
  c1.sizingCase = core::SizingCase::kCase1;
  core::EngineOptions c4;
  c4.topology = core::kTwoStageTopologyName;
  const auto r1 = core::SynthesisEngine(kTech, c1).run(twoStageSpecs());
  const auto r4 = core::SynthesisEngine(kTech, c4).run(twoStageSpecs());
  // Case 4's extracted GBW must be at least as close to target as case 1's.
  EXPECT_LE(std::abs(r4.measured.gbwHz - 30e6), std::abs(r1.measured.gbwHz - 30e6) + 1e5);
  EXPECT_EQ(r1.layoutCalls, 0);
  EXPECT_GE(r4.layoutCalls, 2);
}

}  // namespace
}  // namespace lo
