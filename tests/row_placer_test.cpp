#include "layout/row.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "layout/drc.hpp"
#include "tech/technology.hpp"

namespace lo::layout {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

RowItem item(std::string name, RowKind kind, std::vector<ShapeOption> options,
             std::vector<std::string> nets = {}, std::string wellNet = {},
             bool annex = false) {
  RowItem it;
  it.name = std::move(name);
  it.kind = kind;
  it.wellNet = std::move(wellNet);
  it.annex = annex;
  it.options = std::move(options);
  it.nets = std::move(nets);
  return it;
}

/// A small synthetic design: one matched NMOS row (mirror pair around a
/// centred stack, two free fillers, one annex leg), one unpinned NMOS
/// singleton that may hop in, and a PMOS load row.
struct Fixture {
  std::vector<RowItem> items;
  ConstraintSet constraints;

  Fixture() {
    const std::vector<ShapeOption> mirrorMenu = {{6000, 4000, 2}, {3000, 8000, 4}};
    items.push_back(item("L1", RowKind::kNmos, mirrorMenu, {"a"}));
    items.push_back(item("R1", RowKind::kNmos, mirrorMenu, {"a"}));
    items.push_back(item("S", RowKind::kNmos, {{4000, 4000, 0}}, {"a", "b"}));
    items.push_back(item("F1", RowKind::kNmos, {{2000, 4000, 0}}, {"a"}));
    items.push_back(item("F2", RowKind::kNmos, {{2000, 4000, 0}}, {"b"}));
    items.push_back(item("A", RowKind::kNmos, {{1500, 4000, 0}}, {"bias"}, {},
                         /*annex=*/true));
    items.push_back(item("U", RowKind::kNmos, {{2000, 3000, 0}}, {"b"}));
    items.push_back(
        item("P", RowKind::kPmos, {{9000, 3000, 0}, {4500, 6000, 1}}, {"b"}, "vdd"));

    constraints.add(PlacementConstraint::mirrorPair("L1", "R1"));
    constraints.add(PlacementConstraint::sameRow({"L1", "F1", "S", "F2", "R1", "A"}));
    constraints.add(PlacementConstraint::sameRow({"P"}));
    constraints.add(PlacementConstraint::symmetryAxis({"S"}));
    constraints.add(PlacementConstraint::proximity("S", "P", 2.0));
  }
};

std::string canon(const RowPlacement& p) {
  std::ostringstream out;
  out.precision(17);
  out << p.floorplan.width << 'x' << p.floorplan.height << ';';
  for (const auto& [name, leaf] : p.floorplan.leaves) {
    out << name << ':' << leaf.tag << ':' << leaf.rect.x0 << ',' << leaf.rect.y0 << ','
        << leaf.rect.x1 << ',' << leaf.rect.y1 << ';';
  }
  for (const RowAssignment& row : p.rows) {
    out << rowKindName(row.kind) << '[';
    for (const std::string& n : row.items) out << n << ',';
    out << row.band.lo << ':' << row.band.hi << ']';
  }
  out << p.estimatedWirelengthNm << '|' << p.scoreNm2 << '|' << p.candidatesEvaluated;
  return out.str();
}

TEST(RowPlacer, DeclaredModeRealisesDeclaredRowsBottomUp) {
  const Fixture f;
  const RowPlacer placer(kTech, f.items, f.constraints);
  RowPlacerOptions opt;
  const RowPlacement p = placer.place(opt);

  // Declared NMOS row, the unpinned NMOS singleton, then the PMOS row.
  ASSERT_EQ(p.rows.size(), 3u);
  EXPECT_EQ(p.rows[0].kind, RowKind::kNmos);
  EXPECT_EQ(p.rows[0].items,
            (std::vector<std::string>{"L1", "F1", "S", "F2", "R1", "A"}));
  EXPECT_EQ(p.rows[1].kind, RowKind::kNmos);
  EXPECT_EQ(p.rows[1].items, (std::vector<std::string>{"U"}));
  EXPECT_EQ(p.rows[2].kind, RowKind::kPmos);
  EXPECT_EQ(p.rows[2].wellNet, "vdd");

  // Rows stack bottom to top with room for routing between the bands.
  EXPECT_LT(p.rows[0].band.hi, p.rows[1].band.lo);
  EXPECT_LT(p.rows[1].band.hi, p.rows[2].band.lo);
  EXPECT_EQ(p.candidatesEvaluated, 1);
  EXPECT_GT(p.estimatedWirelengthNm, 0.0);
  EXPECT_DOUBLE_EQ(p.scoreNm2,
                   p.floorplan.areaNm2() + opt.wireCostNm * p.estimatedWirelengthNm);
}

TEST(RowPlacer, MirrorLockEqualisesFoldTags) {
  const Fixture f;
  const RowPlacer placer(kTech, f.items, f.constraints);
  for (RowSearch search : {RowSearch::kDeclared, RowSearch::kSeeded}) {
    RowPlacerOptions opt;
    opt.search = search;
    opt.candidates = 16;
    const RowPlacement p = placer.place(opt);
    EXPECT_EQ(p.tags.at("L1"), p.tags.at("R1"));
    EXPECT_EQ(p.floorplan.leaves.at("L1").rect.width(),
              p.floorplan.leaves.at("R1").rect.width());
  }
}

TEST(RowPlacer, ChannelsSurroundEveryRow) {
  const Fixture f;
  const RowPlacer placer(kTech, f.items, f.constraints);
  const RowPlacement p = placer.place(RowPlacerOptions{});
  const std::vector<Channel> channels = rowChannels(kTech, p, 20000);
  ASSERT_EQ(channels.size(), p.rows.size() + 1);
  EXPECT_EQ(channels.front().y1, p.rows.front().band.lo - kTech.rules.metal1Spacing);
  EXPECT_EQ(channels.front().y0, p.rows.front().band.lo - 20000);
  EXPECT_EQ(channels.back().y0, p.rows.back().band.hi + kTech.rules.metal1Spacing);
  for (std::size_t i = 0; i + 1 < channels.size(); ++i) {
    EXPECT_LE(channels[i].y1, channels[i + 1].y0);
  }
}

// Satellite requirement: the seeded search is reproducible -- the same
// constraints and seed give a byte-identical placement no matter how many
// evaluation threads run or how often it is repeated.
TEST(RowPlacer, SeededSearchIsDeterministicAcrossThreadCounts) {
  const Fixture f;
  const RowPlacer placer(kTech, f.items, f.constraints);
  RowPlacerOptions opt;
  opt.search = RowSearch::kSeeded;
  opt.seed = 7;
  opt.candidates = 64;

  opt.threads = 1;
  const std::string baseline = canon(placer.place(opt));
  EXPECT_EQ(canon(placer.place(opt)), baseline) << "repeat run diverged";
  for (int threads : {2, 8}) {
    opt.threads = threads;
    EXPECT_EQ(canon(placer.place(opt)), baseline) << "threads=" << threads;
  }
}

TEST(RowPlacer, SeededSearchNeverLosesToDeclared) {
  const Fixture f;
  const RowPlacer placer(kTech, f.items, f.constraints);
  RowPlacerOptions declared;
  const RowPlacement base = placer.place(declared);

  RowPlacerOptions seeded;
  seeded.search = RowSearch::kSeeded;
  seeded.seed = 7;
  seeded.candidates = 64;
  const RowPlacement best = placer.place(seeded);
  EXPECT_LE(best.scoreNm2, base.scoreNm2);
  // Duplicate draws are deduplicated, so the unique-candidate count sits
  // between the declared baseline and the full request.
  EXPECT_GT(best.candidatesEvaluated, 1);
  EXPECT_LE(best.candidatesEvaluated, 1 + 64);
}

TEST(RowPlacer, SeededWinnersStillHonourDeclaredSymmetry) {
  const Fixture f;
  const RowPlacer placer(kTech, f.items, f.constraints);
  RowPlacerOptions opt;
  opt.search = RowSearch::kSeeded;
  opt.candidates = 64;
  for (std::uint64_t seed : {1ull, 7ull, 42ull}) {
    opt.seed = seed;
    const RowPlacement p = placer.place(opt);
    EXPECT_TRUE(
        auditSymmetry(f.constraints, p.floorplan.leaves, kTech.rules.grid).empty())
        << "seed " << seed;
  }
}

TEST(RowPlacer, ConstructorRejectsMalformedInput) {
  // A row cannot mix NMOS and PMOS items.
  {
    std::vector<RowItem> items = {item("N", RowKind::kNmos, {{100, 100, 0}}),
                                  item("P", RowKind::kPmos, {{100, 100, 0}}, {}, "vdd")};
    ConstraintSet cs;
    cs.add(PlacementConstraint::sameRow({"N", "P"}));
    EXPECT_THROW(RowPlacer(kTech, items, cs), std::invalid_argument);
  }
  // PMOS items in one row must agree on the well net.
  {
    std::vector<RowItem> items = {item("P1", RowKind::kPmos, {{100, 100, 0}}, {}, "vdd"),
                                  item("P2", RowKind::kPmos, {{100, 100, 0}}, {}, "tail")};
    ConstraintSet cs;
    cs.add(PlacementConstraint::sameRow({"P1", "P2"}));
    EXPECT_THROW(RowPlacer(kTech, items, cs), std::invalid_argument);
  }
  // Every item needs a shape menu.
  {
    std::vector<RowItem> items = {item("N", RowKind::kNmos, {})};
    EXPECT_THROW(RowPlacer(kTech, items, ConstraintSet{}), std::invalid_argument);
  }
  // Item names must be unique.
  {
    std::vector<RowItem> items = {item("N", RowKind::kNmos, {{100, 100, 0}}),
                                  item("N", RowKind::kNmos, {{100, 100, 0}})};
    EXPECT_THROW(RowPlacer(kTech, items, ConstraintSet{}), std::invalid_argument);
  }
  // Constraints may only reference existing items.
  {
    std::vector<RowItem> items = {item("N", RowKind::kNmos, {{100, 100, 0}})};
    ConstraintSet cs;
    cs.add(PlacementConstraint::sameRow({"N", "GHOST"}));
    EXPECT_THROW(RowPlacer(kTech, items, cs), std::invalid_argument);
  }
}

TEST(RowPlacer, MergedWellsGroupByWellNetInFirstAppearanceOrder) {
  const std::vector<RowActive> actives = {
      {tech::MosType::kPmos, "vdd", {0, 100000, 50000, 200000}},
      {tech::MosType::kPmos, "tail", {0, 300000, 80000, 400000}},
      {tech::MosType::kPmos, "vdd", {60000, 100000, 120000, 200000}},
      {tech::MosType::kNmos, "", {0, 0, 50000, 50000}},
      {tech::MosType::kNmos, "", {60000, 0, 120000, 50000}},
  };
  const geom::ShapeList wells = mergedRowWells(kTech, actives);

  // Per well net, an N-well then its P+ select; the one N+ select last.
  const std::vector<geom::Shape>& shapes = wells.shapes();
  ASSERT_EQ(shapes.size(), 5u);
  EXPECT_EQ(shapes[0].layer, tech::Layer::kNWell);
  EXPECT_EQ(shapes[0].net, "vdd");
  const geom::Coord g = kTech.rules.nwellOverActive;
  EXPECT_EQ(shapes[0].rect, (geom::Rect{0 - g, 100000 - g, 120000 + g, 200000 + g}));
  EXPECT_EQ(shapes[1].layer, tech::Layer::kPPlus);
  EXPECT_EQ(shapes[2].layer, tech::Layer::kNWell);
  EXPECT_EQ(shapes[2].net, "tail");
  EXPECT_EQ(shapes[3].layer, tech::Layer::kPPlus);
  EXPECT_EQ(shapes[4].layer, tech::Layer::kNPlus);
  const geom::Coord s = kTech.rules.selectOverActive;
  EXPECT_EQ(shapes[4].rect, (geom::Rect{0 - s, 0 - s, 120000 + s, 50000 + s}));
}

// Satellite requirement: the DRC symmetry audit flags placements that
// break a declared MirrorPair / SymmetryAxis.
class SymmetryAudit : public ::testing::Test {
 protected:
  static constexpr geom::Coord kTol = 50;

  ConstraintSet constraints_;
  std::map<std::string, PlacedLeaf> leaves_;

  void SetUp() override {
    constraints_.add(PlacementConstraint::mirrorPair("L", "R"));
    constraints_.add(PlacementConstraint::symmetryAxis({"S"}));
    leaves_["L"] = {0, {0, 0, 1000, 2000}};
    leaves_["R"] = {0, {3000, 0, 4000, 2000}};
    leaves_["S"] = {0, {1500, 0, 2500, 2000}};
  }
};

TEST_F(SymmetryAudit, CleanMirroredPlacementPasses) {
  EXPECT_TRUE(auditSymmetry(constraints_, leaves_, kTol).empty());
}

TEST_F(SymmetryAudit, UnequalOutlinesFlagged) {
  leaves_["R"].rect = {3000, 0, 4200, 2000};  // 200 nm wider than L.
  const auto v = auditSymmetry(constraints_, leaves_, kTol);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "symmetry.mirror");
  EXPECT_NE(v[0].detail.find("outlines differ"), std::string::npos);
}

TEST_F(SymmetryAudit, PairSplitAcrossRowsFlagged) {
  leaves_["R"].rect = {3000, 2500, 4000, 4500};  // Moved to another row.
  const auto v = auditSymmetry(constraints_, leaves_, kTol);
  ASSERT_FALSE(v.empty());
  EXPECT_EQ(v[0].rule, "symmetry.mirror");
  EXPECT_NE(v[0].detail.find("different rows"), std::string::npos);
}

TEST_F(SymmetryAudit, AxisItemOffTheRowAxisFlagged) {
  leaves_["S"].rect = {1700, 0, 2700, 2000};  // Axis at 2200 vs the pair's 2000.
  const auto v = auditSymmetry(constraints_, leaves_, kTol);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "symmetry.axis");
  EXPECT_NE(v[0].detail.find("disagree on the symmetry axis"), std::string::npos);
}

TEST_F(SymmetryAudit, SkewWithinGridToleranceAccepted) {
  leaves_["S"].rect = {1510, 0, 2510, 2000};  // 10 nm off-axis: within grid.
  EXPECT_TRUE(auditSymmetry(constraints_, leaves_, kTol).empty());
}

TEST_F(SymmetryAudit, MissingItemReported) {
  leaves_.erase("R");
  const auto v = auditSymmetry(constraints_, leaves_, kTol);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].detail.find("not placed"), std::string::npos);
}

TEST_F(SymmetryAudit, ViolationsAppendToTheGeometricChecks) {
  leaves_["R"].rect = {3000, 0, 4200, 2000};
  const geom::ShapeList noShapes;
  auto v = runDrc(kTech, noShapes);
  const auto sym = auditSymmetry(constraints_, leaves_, kTech.rules.grid);
  v.insert(v.end(), sym.begin(), sym.end());
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "symmetry.mirror");
}

}  // namespace
}  // namespace lo::layout
