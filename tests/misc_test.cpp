// Coverage for smaller public APIs not exercised elsewhere.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "layout/drc.hpp"
#include "layout/router.hpp"
#include "layout/writers.hpp"
#include "sim/measure.hpp"
#include "tech/technology.hpp"

namespace lo {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

TEST(Misc, RoutingTotalCapIncludesCoupling) {
  layout::RoutingResult r;
  r.nets.push_back({"a", 1000, 1e-4, 0.0, 5e-15, 0.0, 0});
  r.nets.push_back({"b", 1000, 1e-4, 0.0, 3e-15, 0.0, 0});
  r.coupling[{"a", "b"}] = 2e-15;
  EXPECT_DOUBLE_EQ(r.totalCapOn("a"), 7e-15);
  EXPECT_DOUBLE_EQ(r.totalCapOn("b"), 5e-15);
  EXPECT_DOUBLE_EQ(r.totalCapOn("missing"), 0.0);  // Unknown net: nothing.
  EXPECT_EQ(r.find("a")->trunkWidth, 1000);
  EXPECT_EQ(r.find("zz"), nullptr);
}

TEST(Misc, FormatViolationsIsReadable) {
  std::vector<layout::DrcViolation> v = {
      {"metal1.width", "too narrow", geom::Rect(0, 0, 10, 20)}};
  const std::string text = layout::formatViolations(v);
  EXPECT_NE(text.find("metal1.width"), std::string::npos);
  EXPECT_NE(text.find("too narrow"), std::string::npos);
  EXPECT_NE(text.find("(0,0)-(10,20)"), std::string::npos);
}

TEST(Misc, TechnologyFromFileErrors) {
  EXPECT_THROW((void)tech::Technology::fromFile("/no/such/file.tech"),
               tech::TechParseError);
  const std::string path = ::testing::TempDir() + "/mini.tech";
  layout::writeFile(path, "[tech]\nname = minimal\n");
  const tech::Technology t = tech::Technology::fromFile(path);
  std::filesystem::remove(path);
  EXPECT_EQ(t.name, "minimal");
  // Unset keys fall back to the generic 0.6 um defaults.
  EXPECT_EQ(t.rules.polyMinWidth, kTech.rules.polyMinWidth);
}

TEST(Misc, GdsFileWritesBinaryIntact) {
  geom::ShapeList shapes;
  shapes.add(tech::Layer::kMetal1, geom::Rect(0, 0, 1000, 1000));
  const std::string gds = layout::toGds(shapes);
  const std::string path = ::testing::TempDir() + "/mini.gds";
  layout::writeFile(path, gds);
  std::ifstream in(path, std::ios::binary);
  std::string back((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  std::filesystem::remove(path);
  EXPECT_EQ(back, gds);  // No newline translation corrupted the stream.
}

TEST(Misc, SvgScaleChangesCanvasSize) {
  geom::ShapeList shapes;
  shapes.add(tech::Layer::kPoly, geom::Rect(0, 0, 100000, 50000));
  const std::string small = layout::toSvg(shapes, 0.001);
  const std::string big = layout::toSvg(shapes, 0.01);
  EXPECT_LT(small.find("width"), big.size());
  EXPECT_NE(small, big);
}

TEST(Misc, MeasureGainAtEmptyCurve) {
  sim::AcCurve empty;
  EXPECT_DOUBLE_EQ(sim::gainAt(empty, 1e6), 0.0);
  EXPECT_DOUBLE_EQ(sim::dcGain(empty), 0.0);
}

TEST(Misc, CornerNamesCoverAllCorners) {
  std::set<std::string> names;
  for (tech::ProcessCorner c :
       {tech::ProcessCorner::kTypical, tech::ProcessCorner::kSlow,
        tech::ProcessCorner::kFast, tech::ProcessCorner::kSlowNFastP,
        tech::ProcessCorner::kFastNSlowP}) {
    names.insert(tech::cornerName(c));
  }
  EXPECT_EQ(names.size(), 5u);
}

TEST(Misc, ModelCardTemperatureHelpers) {
  const tech::MosModelCard& card = kTech.nmos;
  EXPECT_DOUBLE_EQ(card.vtoAt(card.tempRef), card.vto);
  EXPECT_LT(card.vtoAt(card.tempRef + 100.0), card.vto);
  EXPECT_DOUBLE_EQ(card.kpAt(card.tempRef), card.kp);
  EXPECT_LT(card.kpAt(card.tempRef + 100.0), card.kp);
  EXPECT_GT(card.kpAt(card.tempRef - 50.0), card.kp);
}

TEST(Misc, TechTextIncludesTemperatureKeys) {
  const std::string text = kTech.toText();
  EXPECT_NE(text.find("vto_temp_coeff"), std::string::npos);
  EXPECT_NE(text.find("plate_cap"), std::string::npos);
  const tech::Technology back = tech::Technology::parse(text);
  EXPECT_DOUBLE_EQ(back.nmos.vtoTempCoeff, kTech.nmos.vtoTempCoeff);
  EXPECT_DOUBLE_EQ(back.plateCapPerM2, kTech.plateCapPerM2);
}

TEST(Misc, GdsRoundTripPreservesGeometry) {
  geom::ShapeList shapes;
  shapes.add(tech::Layer::kMetal1, geom::Rect(0, 0, 1000, 2000));
  shapes.add(tech::Layer::kPoly, geom::Rect(-500, 100, 100, 700));
  shapes.add(tech::Layer::kNWell, geom::Rect(-2000, -2000, 5000, 5000));
  const layout::Cell dummy;
  const geom::ShapeList back = layout::fromGds(layout::toGds(shapes));
  ASSERT_EQ(back.size(), shapes.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.shapes()[i].layer, shapes.shapes()[i].layer) << i;
    EXPECT_EQ(back.shapes()[i].rect, shapes.shapes()[i].rect) << i;
  }
  EXPECT_THROW((void)layout::fromGds("garbage"), std::runtime_error);
}

TEST(Misc, GateEndcapRule) {
  geom::ShapeList shapes;
  // Proper gate: poly crosses the active with end caps.
  shapes.add(tech::Layer::kActive, geom::Rect(0, 0, 5000, 2000));
  shapes.add(tech::Layer::kNPlus, geom::Rect(-400, -400, 5400, 2400));
  shapes.add(tech::Layer::kPoly, geom::Rect(1000, -600, 1600, 2600));
  EXPECT_TRUE(layout::runDrc(kTech, shapes).empty())
      << layout::formatViolations(layout::runDrc(kTech, shapes));

  // Short end cap: flagged.
  geom::ShapeList bad;
  bad.add(tech::Layer::kActive, geom::Rect(0, 0, 5000, 2000));
  bad.add(tech::Layer::kNPlus, geom::Rect(-400, -400, 5400, 2400));
  bad.add(tech::Layer::kPoly, geom::Rect(1000, -200, 1600, 2200));
  const auto v = layout::runDrc(kTech, bad);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "gate.endcap");
}

TEST(Misc, ContactOverGateRule) {
  geom::ShapeList shapes;
  shapes.add(tech::Layer::kActive, geom::Rect(0, 0, 5000, 2000));
  shapes.add(tech::Layer::kNPlus, geom::Rect(-400, -400, 5400, 2400));
  shapes.add(tech::Layer::kPoly, geom::Rect(1000, -600, 1600, 2600));
  // A cut right on the gate (with legal enclosures so only the gate rule
  // fires).
  shapes.add(tech::Layer::kContact, geom::Rect(1100, 700, 1700, 1300));
  shapes.add(tech::Layer::kMetal1, geom::Rect(900, 500, 1900, 1500));
  const auto v = layout::runDrc(kTech, shapes);
  bool sawGateRule = false;
  for (const auto& x : v) sawGateRule |= x.rule == "contact.over_gate";
  EXPECT_TRUE(sawGateRule);
}

}  // namespace
}  // namespace lo
