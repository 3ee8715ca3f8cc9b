#include "layout/ota_layout.hpp"

#include <gtest/gtest.h>

#include "circuit/circuit.hpp"
#include "layout/drc.hpp"

namespace lo::layout {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

/// A plausibly sized OTA (exact sizing quality does not matter here).
circuit::FoldedCascodeOtaDesign testDesign() {
  circuit::FoldedCascodeOtaDesign d;
  auto setW = [](device::MosGeometry& g, double w, double l) {
    g.w = w;
    g.l = l;
  };
  setW(d.inputPair, 120e-6, 1e-6);
  setW(d.tail, 80e-6, 2e-6);
  setW(d.sink, 60e-6, 1.5e-6);
  setW(d.nCascode, 40e-6, 0.8e-6);
  setW(d.pSource, 90e-6, 1.5e-6);
  setW(d.pCascode, 70e-6, 0.8e-6);
  d.tailCurrent = 200e-6;
  d.cascodeCurrent = 110e-6;
  return d;
}

TEST(OtaLayout, ParasiticModeReportsEverything) {
  const OtaLayoutResult r =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, /*generateGeometry=*/false);
  // Fold plans for all six matched groups.
  EXPECT_EQ(r.foldPlans.size(), 6u);
  EXPECT_EQ(r.junctions.size(), 6u);
  // Parasitic mode keeps no geometry.
  EXPECT_TRUE(r.cell.shapes.empty());
  // The critical nets all have routing capacitance.
  for (const char* net : {"x1", "x2", "y1", "out", "tail"}) {
    EXPECT_GT(r.parasitics.capOn(net), 0.0) << net;
    EXPECT_LT(r.parasitics.capOn(net), 1e-12) << net;  // Sub-pF sanity.
  }
  // Floating well of the input pair shows up on the tail net.
  EXPECT_GT(r.parasitics.nets.at("tail").wellCap, 10e-15);
}

TEST(OtaLayout, DrainInternalPolicyGivesEvenFoldsEverywhere) {
  const OtaLayoutResult r =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, false);
  for (const auto& [group, plan] : r.foldPlans) {
    EXPECT_EQ(plan.nf % 2, 0) << circuit::otaGroupName(group);
  }
  // Junction check: drain area is the internal-strip value.
  const auto& nc = r.junctions.at(circuit::OtaGroup::kNCascode);
  EXPECT_LT(nc.ad, nc.as);
}

TEST(OtaLayout, SymmetricDevicesShareFoldCounts) {
  const OtaLayoutResult r =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, false);
  // Matched groups share one plan by construction; verify the floorplan kept
  // mirror positions symmetric: MP3C and MP4C have equal widths.
  const auto& fp = r.placement.floorplan;
  EXPECT_EQ(fp.leaves.at("MP3C").rect.width(), fp.leaves.at("MP4C").rect.width());
  EXPECT_EQ(fp.leaves.at("MP3").rect.width(), fp.leaves.at("MP4").rect.width());
  EXPECT_EQ(fp.leaves.at("MN1C").rect.width(), fp.leaves.at("MN2C").rect.width());
  EXPECT_EQ(fp.leaves.at("MP3C").tag, fp.leaves.at("MP4C").tag);
}

TEST(OtaLayout, ShapeConstraintChangesFloorplan) {
  LayoutOptions wide;
  wide.placer.shape = ShapeConstraint{};
  wide.placer.shape.aspectRatio = 3.0;
  LayoutOptions tall;
  tall.placer.shape = ShapeConstraint{};
  tall.placer.shape.aspectRatio = 0.4;
  const OtaLayoutResult rw = generateOtaLayout(kTech, testDesign(), wide, false);
  const OtaLayoutResult rt = generateOtaLayout(kTech, testDesign(), tall, false);
  const double ratioW = static_cast<double>(rw.width) / rw.height;
  const double ratioT = static_cast<double>(rt.width) / rt.height;
  EXPECT_GT(ratioW, ratioT);
}

TEST(OtaLayout, GenerationModeEmitsGeometryMatchingEstimate) {
  const OtaLayoutResult est =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, false);
  const OtaLayoutResult gen =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, true);
  EXPECT_FALSE(gen.cell.shapes.empty());
  // Same fold decisions in both modes.
  for (const auto& [group, plan] : est.foldPlans) {
    EXPECT_EQ(plan.nf, gen.foldPlans.at(group).nf) << circuit::otaGroupName(group);
  }
  // Identical parasitic reports: the parasitic mode is exact, not an
  // estimate (the paper's convergence criterion depends on this).
  for (const auto& [net, par] : est.parasitics.nets) {
    EXPECT_DOUBLE_EQ(par.totalCap(), gen.parasitics.capOn(net)) << net;
  }
}

TEST(OtaLayout, PairMatchingMetrics) {
  const OtaLayoutResult r =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, false);
  EXPECT_EQ(r.pairPlan.metrics[0].orientationImbalance, 0);
  EXPECT_EQ(r.pairPlan.metrics[1].orientationImbalance, 0);
  EXPECT_NEAR(r.pairPlan.metrics[0].centroidOffset, r.pairPlan.metrics[1].centroidOffset,
              1e-9);
  EXPECT_GE(r.pairPlan.dummyCount, 2);
}

TEST(OtaLayout, AlternatingAblationRaisesDrainCap) {
  LayoutOptions internal;
  LayoutOptions alternating;
  alternating.foldStyle = device::FoldStyle::kAlternating;
  const OtaLayoutResult ri = generateOtaLayout(kTech, testDesign(), internal, false);
  const OtaLayoutResult ra = generateOtaLayout(kTech, testDesign(), alternating, false);
  // The cascade devices' drain capacitance area must be no better (usually
  // worse) without the internal-drain policy.
  const auto& di = ri.junctions.at(circuit::OtaGroup::kNCascode);
  const auto& da = ra.junctions.at(circuit::OtaGroup::kNCascode);
  EXPECT_GE(da.ad / da.w, di.ad / di.w * 0.999);
}

TEST(OtaLayout, PlacementReportsConstraintDerivedRows) {
  const OtaLayoutResult r =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, false);
  // Fig. 5's three diffusion rows, bottom to top: NMOS core, the pair's
  // floating-well stack, the VDD PMOS row.
  ASSERT_EQ(r.placement.rows.size(), 3u);
  EXPECT_EQ(r.placement.rows[0].kind, RowKind::kNmos);
  EXPECT_EQ(r.placement.rows[0].items,
            (std::vector<std::string>{"MN1C", "SINK", "MN2C"}));
  EXPECT_EQ(r.placement.rows[1].kind, RowKind::kPmos);
  EXPECT_EQ(r.placement.rows[1].wellNet, "tail");
  EXPECT_EQ(r.placement.rows[1].items, (std::vector<std::string>{"PAIR"}));
  EXPECT_EQ(r.placement.rows[2].kind, RowKind::kPmos);
  EXPECT_EQ(r.placement.rows[2].wellNet, "vdd");
  EXPECT_EQ(r.placement.rows[2].items,
            (std::vector<std::string>{"MP3C", "MP3", "MP5", "MP4", "MP4C"}));
  EXPECT_GT(r.placement.scoreNm2, r.placement.floorplan.areaNm2());
}

TEST(OtaLayout, DeclaredPlacementPassesSymmetryAudit) {
  const OtaLayoutResult r = generateOtaLayout(kTech, testDesign(), LayoutOptions{}, false);
  const ConstraintSet constraints = otaPlacementConstraints(/*includeBias=*/false);
  const auto violations =
      auditSymmetry(constraints, r.placement.floorplan.leaves, kTech.rules.grid);
  EXPECT_TRUE(violations.empty()) << formatViolations(violations);
}

TEST(OtaLayout, SeededPlacerKeepsSymmetryAndNeverLoses) {
  LayoutOptions seeded;
  seeded.placer.search = RowSearch::kSeeded;
  seeded.placer.seed = 11;
  seeded.placer.candidates = 24;
  const OtaLayoutResult rd =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, false);
  const OtaLayoutResult rs = generateOtaLayout(kTech, testDesign(), seeded, false);
  EXPECT_LE(rs.placement.scoreNm2, rd.placement.scoreNm2);
  const auto& fp = rs.placement.floorplan;
  EXPECT_EQ(fp.leaves.at("MP3C").rect.width(), fp.leaves.at("MP4C").rect.width());
  const ConstraintSet constraints = otaPlacementConstraints(false);
  EXPECT_TRUE(auditSymmetry(constraints, fp.leaves, kTech.rules.grid).empty());
}

// Satellite requirement: the mirrored placement is electrically matched --
// the two symmetric cascode nets see the same routed wire resistance, so
// the annotated circuit carries equal RPAR_ elements on both sides.
TEST(OtaLayout, MirroredPlacementMatchesWireResistances) {
  const OtaLayoutResult r =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, /*generateGeometry=*/true);
  const double resX1 = r.parasitics.nets.at("x1").routingRes;
  const double resX2 = r.parasitics.nets.at("x2").routingRes;
  ASSERT_GT(resX1, 0.0);
  EXPECT_NEAR(resX1, resX2, 0.02 * resX1);

  circuit::Circuit c;
  (void)c.node("x1");
  (void)c.node("x2");
  annotateCircuit(c, r.parasitics, /*minSeriesRes=*/1e-6);
  double rparX1 = -1.0, rparX2 = -1.0;
  for (const auto& res : c.resistors) {
    if (res.name == "RPAR_x1") rparX1 = res.ohms;
    if (res.name == "RPAR_x2") rparX2 = res.ohms;
  }
  ASSERT_GT(rparX1, 0.0);
  ASSERT_GT(rparX2, 0.0);
  EXPECT_NEAR(rparX1, rparX2, 0.02 * rparX1);
}

TEST(OtaLayout, GeneratedLayoutHasNoShorts) {
  const OtaLayoutResult gen =
      generateOtaLayout(kTech, testDesign(), LayoutOptions{}, true);
  const auto violations = runDrc(kTech, gen.cell.shapes);
  std::vector<DrcViolation> shorts;
  for (const DrcViolation& v : violations) {
    if (v.detail.find("short") != std::string::npos) shorts.push_back(v);
  }
  EXPECT_TRUE(shorts.empty()) << formatViolations(shorts);
}

}  // namespace
}  // namespace lo::layout
