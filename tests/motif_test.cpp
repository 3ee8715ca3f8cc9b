#include "layout/mos_motif.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "layout/drc.hpp"
#include "tech/units.hpp"

namespace lo::layout {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

MosMotifSpec specFor(int nf, double w = 20e-6, double l = 1e-6,
                     device::FoldStyle style = device::FoldStyle::kDrainInternal) {
  MosMotifSpec spec;
  spec.plan = device::planFoldsExact(kTech.rules, w, nf, style);
  spec.drawnL = l;
  spec.terminalCurrent = 100e-6;
  return spec;
}

TEST(MosMotif, ShapeMatchesGeneratedBbox) {
  for (int nf : {1, 2, 3, 4, 6, 8}) {
    MosMotifSpec spec = specFor(nf);
    spec.emitWellAndSelect = false;  // motifShape describes the core device.
    MosMotifInfo genInfo;
    const Cell cell = generateMosMotif(kTech, spec, &genInfo);
    const MosMotifInfo est = motifShape(kTech, spec.plan, spec.drawnL, spec.terminalCurrent);
    const geom::Rect box = cell.bbox();
    EXPECT_EQ(box.width(), est.width) << "nf=" << nf;
    EXPECT_EQ(box.height(), est.height) << "nf=" << nf;
  }
}

TEST(MosMotif, StripCountsFollowFoldPlan) {
  const MosMotifInfo i4 = motifShape(kTech, specFor(4).plan, 1e-6);
  EXPECT_EQ(i4.drainStrips, 2);   // Even, internal drains.
  EXPECT_EQ(i4.sourceStrips, 3);
  const MosMotifInfo i5 =
      motifShape(kTech, specFor(5, 20e-6, 1e-6, device::FoldStyle::kAlternating).plan, 1e-6);
  EXPECT_EQ(i5.drainStrips, 3);
  EXPECT_EQ(i5.sourceStrips, 3);
}

TEST(MosMotif, PortsCoverAllTerminals) {
  MosMotifSpec spec = specFor(4);
  spec.drainNet = "D";
  spec.gateNet = "G";
  spec.sourceNet = "S";
  const Cell cell = generateMosMotif(kTech, spec);
  EXPECT_EQ(cell.portsOn("D").size(), 2u);  // nf/2 internal drain strips.
  EXPECT_EQ(cell.portsOn("S").size(), 3u);
  EXPECT_EQ(cell.portsOn("G").size(), 1u);
}

TEST(MosMotif, WidthGrowsWithFoldsHeightShrinksPerFinger) {
  // More folds: wider (more strips+gates) but each finger is shorter.
  const MosMotifInfo i2 = motifShape(kTech, specFor(2, 40e-6).plan, 1e-6);
  const MosMotifInfo i8 = motifShape(kTech, specFor(8, 40e-6).plan, 1e-6);
  EXPECT_GT(i8.width, i2.width);
  EXPECT_LT(i8.height, i2.height);
}

class MotifDrc : public ::testing::TestWithParam<int> {};

TEST_P(MotifDrc, GeneratedMotifIsDrcClean) {
  MosMotifSpec spec = specFor(GetParam());
  spec.type = GetParam() % 2 == 0 ? tech::MosType::kPmos : tech::MosType::kNmos;
  spec.emitWellAndSelect = true;
  const Cell cell = generateMosMotif(kTech, spec);
  const auto violations = runDrc(kTech, cell.shapes);
  EXPECT_TRUE(violations.empty()) << formatViolations(violations);
}

INSTANTIATE_TEST_SUITE_P(FoldSweep, MotifDrc, ::testing::Values(1, 2, 3, 4, 6, 8, 10));

TEST(MosMotif, ContactsScaleWithFingerWidth) {
  // A 40 um device in 2 fingers has 20 um fingers: room for many cuts.
  MosMotifInfo wide, narrow;
  (void)generateMosMotif(kTech, specFor(2, 40e-6), &wide);
  (void)generateMosMotif(kTech, specFor(8, 8e-6), &narrow);
  EXPECT_GT(wide.contactsPerStrip, 10);
  EXPECT_LE(narrow.contactsPerStrip, 2);
}

TEST(MosMotif, EmContactRequirementTracksCurrent) {
  MosMotifSpec lowI = specFor(2);
  lowI.terminalCurrent = 10e-6;
  MosMotifSpec highI = specFor(2);
  highI.terminalCurrent = 5e-3;
  MosMotifInfo a, b;
  (void)generateMosMotif(kTech, lowI, &a);
  (void)generateMosMotif(kTech, highI, &b);
  EXPECT_EQ(a.contactsRequired, 1);
  EXPECT_GT(b.contactsRequired, 4);
}

TEST(MosMotif, WellOnlyForPmos) {
  MosMotifSpec spec = specFor(2);
  spec.type = tech::MosType::kPmos;
  spec.bulkNet = "tailnet";
  const Cell pmos = generateMosMotif(kTech, spec);
  const auto isWell = [](const geom::Shape& s) { return s.layer == tech::Layer::kNWell; };
  ASSERT_EQ(std::ranges::count_if(pmos.shapes.shapes(), isWell), 1);
  EXPECT_EQ(std::ranges::find_if(pmos.shapes.shapes(), isWell)->net, "tailnet");

  spec.type = tech::MosType::kNmos;
  const Cell nmos = generateMosMotif(kTech, spec);
  EXPECT_TRUE(nmos.shapes.bbox(tech::Layer::kNWell).empty());
}

TEST(MosMotif, GateLengthSnapsUpToMinimum) {
  MosMotifSpec spec = specFor(2, 20e-6, 0.3e-6);  // Below the 0.6 um minimum.
  const Cell cell = generateMosMotif(kTech, spec);
  for (const geom::Shape& s : cell.shapes.shapes()) {
    if (s.layer != tech::Layer::kPoly) continue;
    EXPECT_GE(std::min(s.rect.width(), s.rect.height()), kTech.rules.polyMinWidth);
  }
}

}  // namespace
}  // namespace lo::layout
