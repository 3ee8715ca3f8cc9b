// Coverage for smaller public APIs not exercised elsewhere.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "layout/drc.hpp"
#include "layout/router.hpp"
#include "layout/writers.hpp"
#include "sim/measure.hpp"
#include "tech/technology.hpp"

namespace lo {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

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

/// Reads back a GDSII stream toGds() wrote (rectangular BOUNDARY elements
/// only): the reference the round trip checks toGds against.  Throws
/// std::runtime_error on malformed input or non-rectangular boundaries.
/// Net tags are not stored in GDS and come back empty.
geom::ShapeList fromGds(const std::string& stream) {
  geom::ShapeList shapes;
  std::size_t pos = 0;
  int currentLayer = -1;
  auto u16 = [&](std::size_t at) {
    return (static_cast<unsigned>(static_cast<unsigned char>(stream[at])) << 8) |
           static_cast<unsigned char>(stream[at + 1]);
  };
  auto i32 = [&](std::size_t at) {
    std::int32_t v = 0;
    for (int k = 0; k < 4; ++k) v = (v << 8) | static_cast<unsigned char>(stream[at + k]);
    return v;
  };
  while (pos + 4 <= stream.size()) {
    const std::size_t len = u16(pos);
    if (len < 4 || pos + len > stream.size()) {
      throw std::runtime_error("fromGds: malformed record length");
    }
    const unsigned char type = stream[pos + 2];
    if (type == 0x0d) {  // LAYER.
      currentLayer = static_cast<int>(u16(pos + 4));
    } else if (type == 0x10) {  // XY.
      const std::size_t n = (len - 4) / 8;
      if (n != 5) throw std::runtime_error("fromGds: only rectangles supported");
      const std::int32_t x0 = i32(pos + 4), y0 = i32(pos + 8);
      const std::int32_t x1 = i32(pos + 20), y1 = i32(pos + 24);
      tech::Layer layer = tech::Layer::kMetal1;
      bool found = false;
      for (tech::Layer l : tech::kAllLayers) {
        if (layout::gdsLayerNumber(l) == currentLayer) {
          layer = l;
          found = true;
        }
      }
      if (!found) throw std::runtime_error("fromGds: unknown layer number");
      shapes.add(layer, geom::Rect(x0, y0, x1, y1));
    }
    pos += len;
  }
  if (pos != stream.size()) throw std::runtime_error("fromGds: trailing bytes");
  return shapes;
}

TEST(Misc, GdsRoundTripPreservesGeometry) {
  geom::ShapeList shapes;
  shapes.add(tech::Layer::kMetal1, geom::Rect(0, 0, 1000, 2000));
  shapes.add(tech::Layer::kPoly, geom::Rect(-500, 100, 100, 700));
  shapes.add(tech::Layer::kNWell, geom::Rect(-2000, -2000, 5000, 5000));
  const layout::Cell dummy;
  const geom::ShapeList back = fromGds(layout::toGds(shapes));
  ASSERT_EQ(back.size(), shapes.size());
  for (std::size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back.shapes()[i].layer, shapes.shapes()[i].layer) << i;
    EXPECT_EQ(back.shapes()[i].rect, shapes.shapes()[i].rect) << i;
  }
  EXPECT_THROW((void)fromGds("garbage"), std::runtime_error);
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
