#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "layout/drc.hpp"
#include "layout/writers.hpp"

namespace lo::layout {
namespace {

using geom::Rect;
using tech::Layer;

const tech::Technology kTech = tech::Technology::generic060();

TEST(Drc, FlagsNarrowWire) {
  geom::ShapeList shapes;
  shapes.add(Layer::kMetal1, Rect(0, 0, 500, 5000));  // 500 < 800 min.
  const auto v = runDrc(kTech, shapes);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "metal1.width");
}

TEST(Drc, FlagsSpacingViolation) {
  geom::ShapeList shapes;
  shapes.add(Layer::kMetal1, Rect(0, 0, 1000, 1000), "a");
  shapes.add(Layer::kMetal1, Rect(1400, 0, 2400, 1000), "b");  // 400 < 800.
  const auto v = runDrc(kTech, shapes);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "metal1.spacing");
}

TEST(Drc, SameNetTouchingIsLegal) {
  geom::ShapeList shapes;
  shapes.add(Layer::kMetal1, Rect(0, 0, 1000, 1000), "a");
  shapes.add(Layer::kMetal1, Rect(1000, 0, 2000, 1000), "a");  // Abutting.
  EXPECT_TRUE(runDrc(kTech, shapes).empty());
}

TEST(Drc, DifferentNetOverlapIsShort) {
  geom::ShapeList shapes;
  shapes.add(Layer::kMetal1, Rect(0, 0, 1000, 1000), "a");
  shapes.add(Layer::kMetal1, Rect(500, 0, 1500, 1000), "b");
  const auto v = runDrc(kTech, shapes);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("short"), std::string::npos);
}

TEST(Drc, ContactNeedsEnclosures) {
  geom::ShapeList shapes;
  const tech::Nm cs = kTech.rules.contactSize;
  // Bare contact: missing both bottom layer and metal.
  shapes.add(Layer::kContact, Rect(0, 0, cs, cs));
  auto v = runDrc(kTech, shapes);
  EXPECT_EQ(v.size(), 2u);

  // Properly enclosed contact passes.
  geom::ShapeList good;
  good.add(Layer::kContact, Rect(0, 0, cs, cs));
  good.add(Layer::kActive, Rect(-200, -200, cs + 200, cs + 200));
  good.add(Layer::kNPlus, Rect(-900, -900, cs + 900, cs + 900));
  good.add(Layer::kMetal1, Rect(-200, -200, cs + 200, cs + 200));
  EXPECT_TRUE(runDrc(kTech, good).empty()) << formatViolations(runDrc(kTech, good));
}

TEST(Drc, WrongCutSizeFlagged) {
  geom::ShapeList shapes;
  shapes.add(Layer::kContact, Rect(0, 0, 700, 700));
  const auto v = runDrc(kTech, shapes);
  ASSERT_GE(v.size(), 1u);
  EXPECT_NE(v[0].detail.find("cut size"), std::string::npos);
}

TEST(Drc, PActiveRequiresWell) {
  geom::ShapeList shapes;
  shapes.add(Layer::kActive, Rect(0, 0, 2000, 2000));
  shapes.add(Layer::kPPlus, Rect(-400, -400, 2400, 2400));
  auto v = runDrc(kTech, shapes);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "nwell.enclosure");
  shapes.add(Layer::kNWell, Rect(-1200, -1200, 3200, 3200));
  EXPECT_TRUE(runDrc(kTech, shapes).empty());
}

TEST(Writers, SvgContainsRectsAndNets) {
  geom::ShapeList shapes;
  shapes.add(Layer::kMetal1, Rect(0, 0, 1000, 1000), "mynet");
  shapes.add(Layer::kPoly, Rect(2000, 0, 3000, 1000));
  const std::string svg = toSvg(shapes);
  EXPECT_NE(svg.find("<svg"), std::string::npos);
  EXPECT_NE(svg.find("mynet"), std::string::npos);
  // Two drawn rects + background.
  std::size_t count = 0, pos = 0;
  while ((pos = svg.find("<rect", pos)) != std::string::npos) {
    ++count;
    pos += 5;
  }
  EXPECT_EQ(count, 3u);
}

TEST(Writers, CifBoxesInCentimicrons) {
  geom::ShapeList shapes;
  shapes.add(Layer::kMetal1, Rect(0, 0, 1000, 2000));  // 100 x 200 cu, centre (50,100).
  const std::string cif = toCif(shapes, "CELL");
  EXPECT_NE(cif.find("L CMF;"), std::string::npos);
  EXPECT_NE(cif.find("B 100 200 50 100;"), std::string::npos);
  EXPECT_NE(cif.find("9 CELL;"), std::string::npos);
  EXPECT_NE(cif.find("E\n"), std::string::npos);
}

TEST(Writers, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/writer_test.svg";
  writeFile(path, "hello");
  std::ifstream in(path);
  std::string content;
  in >> content;
  EXPECT_EQ(content, "hello");
  EXPECT_THROW(writeFile("/nonexistent-dir/x.svg", "x"), std::runtime_error);
  std::filesystem::remove(path);
}

TEST(Writers, FailedWriteThrowsWithThePath) {
  // /dev/full accepts the open and fails every write with ENOSPC.
  if (!std::ifstream("/dev/full")) GTEST_SKIP() << "no /dev/full on this system";
  for (const std::size_t size : {std::size_t{1}, std::size_t{64} * 1024}) {
    SCOPED_TRACE(size);
    try {
      writeFile("/dev/full", std::string(size, 'x'));
      ADD_FAILURE() << "expected std::runtime_error";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
    }
  }
}

}  // namespace
}  // namespace lo::layout
