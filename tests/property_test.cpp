// Property-based and fuzz-style tests: deterministic pseudo-random inputs
// driving invariants that must hold for any input.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "core/engine.hpp"
#include "device/folding.hpp"
#include "layout/drc.hpp"
#include "layout/router.hpp"
#include "layout/slicing.hpp"

namespace lo {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

// --- Router fuzz: random port fields must route without shorts. ---

class RouterFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RouterFuzz, RandomPortFieldsRouteWithoutShorts) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> colDist(0, 11);
  std::uniform_int_distribution<int> netDist(0, 3);

  // Ports on a coarse grid inside two "rows"; pitch is comfortably legal.
  layout::Cell cell;
  geom::ShapeList portMetal;
  const char* nets[] = {"n0", "n1", "n2", "n3"};
  for (int row = 0; row < 2; ++row) {
    for (int k = 0; k < 8; ++k) {
      const geom::Coord x = colDist(rng) * 4000;
      const geom::Coord y = row * 40000 + (k % 2) * 6000;
      const geom::Rect port(x, y, x + 1000, y + 10000);
      // Skip overlapping placements (illegal input).
      bool clash = false;
      for (const geom::Shape& s : cell.shapes.shapes()) {
        if (s.rect.inflated(kTech.rules.metal1Spacing).overlaps(port)) clash = true;
      }
      if (clash) continue;
      const char* net = nets[netDist(rng)];
      cell.addPort(net, tech::Layer::kMetal1, port);
      cell.shapes.add(tech::Layer::kMetal1, port, net);
    }
  }

  // Rows occupy y in [0, 16000] and [40000, 56000].
  const std::vector<layout::Channel> channels = {
      {-30000, -kTech.rules.metal1Spacing},
      {16000 + kTech.rules.metal1Spacing, 40000 - kTech.rules.metal1Spacing},
      {56000 + kTech.rules.metal1Spacing, 86000}};
  const auto routing = layout::routeCell(
      kTech, cell, {{"n0", 1e-4}, {"n1", 0.0}, {"n2", 5e-4}, {"n3", 0.0}}, channels, true);

  geom::ShapeList all = cell.shapes;
  all.merge(routing.wires, geom::Orient::kR0, 0, 0);
  const auto violations = layout::runDrc(kTech, all);
  std::vector<layout::DrcViolation> shorts;
  for (const auto& v : violations) {
    if (v.detail.find("short") != std::string::npos) shorts.push_back(v);
  }
  EXPECT_TRUE(shorts.empty()) << layout::formatViolations(shorts);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterFuzz, ::testing::Range(1, 13));

// --- Device model invariants over a bias/geometry grid. ---

// The model name is a std::string, not a const char*: gtest prints a char
// pointer with its address, which would put a per-process address into the
// test's name.
class ModelGrid : public ::testing::TestWithParam<std::tuple<std::string, int>> {};

TEST_P(ModelGrid, InvariantsHoldAcrossTheGrid) {
  const auto model = device::MosModel::create(std::get<0>(GetParam()));
  std::mt19937 rng(std::get<1>(GetParam()));
  std::uniform_real_distribution<double> wDist(1e-6, 200e-6);
  std::uniform_real_distribution<double> lDist(0.6e-6, 5e-6);
  std::uniform_real_distribution<double> vDist(0.0, 3.3);

  for (int i = 0; i < 40; ++i) {
    device::MosGeometry geo;
    geo.w = wDist(rng);
    geo.l = lDist(rng);
    device::applyUnfoldedGeometry(kTech.rules, geo);
    const double vgs = vDist(rng), vds = vDist(rng);
    const double vbs = -vDist(rng) / 2;
    const auto op = model->evaluate(kTech.nmos, geo, vgs, vds, vbs);

    // Current and conductances are finite and correctly signed (deep
    // cutoff may leave sub-zeptoampere numerical residue).
    EXPECT_TRUE(std::isfinite(op.id));
    EXPECT_GE(op.id, -1e-18) << "NMOS with vds >= 0 conducts forward";
    EXPECT_GE(op.gm, 0.0);
    EXPECT_GT(op.gds, 0.0);
    EXPECT_GE(op.gmb, 0.0);
    // All capacitances positive and bounded by the gate oxide scale.
    const double coxTotal = kTech.nmos.cox() * geo.w * geo.l;
    for (double c : {op.cgs, op.cgd, op.cgb}) {
      EXPECT_GE(c, 0.0);
      EXPECT_LT(c, 2.0 * coxTotal + 1e-12);
    }
    EXPECT_GT(op.cdb, 0.0);
    EXPECT_GT(op.csb, 0.0);
    // Monotonicity spot check: more gate drive, no less current.
    const double id2 =
        model->currentNormalized(kTech.nmos, geo, vgs + 0.05, vds, vbs, 300.15);
    EXPECT_GE(id2 + 1e-18, op.id);
  }
}

INSTANTIATE_TEST_SUITE_P(ModelsAndSeeds, ModelGrid,
                         ::testing::Combine(::testing::Values(std::string("level1"),
                                                              std::string("ekv")),
                                            ::testing::Values(7, 11)));

// --- Slicing invariants on random trees. ---

class SlicingFuzz : public ::testing::TestWithParam<int> {};

TEST_P(SlicingFuzz, RandomTreesPlaceDisjointLeavesInsideTheOutline) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<int> sizeDist(500, 5000);
  std::uniform_int_distribution<int> kidsDist(2, 4);
  std::uniform_int_distribution<int> optsDist(1, 4);
  int leafId = 0;

  // Random tree of depth 3.
  std::function<std::unique_ptr<layout::SlicingNode>(int)> build =
      [&](int depth) -> std::unique_ptr<layout::SlicingNode> {
    if (depth == 0) {
      std::vector<layout::ShapeOption> opts;
      const int n = optsDist(rng);
      for (int i = 0; i < n; ++i) {
        opts.push_back({sizeDist(rng), sizeDist(rng), i});
      }
      return layout::SlicingNode::leaf("L" + std::to_string(leafId++), std::move(opts));
    }
    std::vector<std::unique_ptr<layout::SlicingNode>> kids;
    const int n = kidsDist(rng);
    for (int i = 0; i < n; ++i) kids.push_back(build(depth - 1));
    return (rng() % 2) ? layout::SlicingNode::row(std::move(kids), 100)
                       : layout::SlicingNode::column(std::move(kids), 100);
  };

  layout::SlicingTree tree(build(3));
  layout::ShapeConstraint c;
  c.aspectRatio = 1.0;
  const layout::FloorplanResult r = tree.optimize(c);

  ASSERT_EQ(static_cast<int>(r.leaves.size()), leafId);
  const geom::Rect outline(0, 0, r.width, r.height);
  std::vector<geom::Rect> rects;
  for (const auto& [name, leaf] : r.leaves) {
    EXPECT_TRUE(outline.containsRect(leaf.rect)) << name;
    rects.push_back(leaf.rect);
  }
  for (std::size_t i = 0; i < rects.size(); ++i) {
    for (std::size_t j = i + 1; j < rects.size(); ++j) {
      EXPECT_FALSE(rects[i].overlaps(rects[j]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlicingFuzz, ::testing::Range(100, 110));

// --- Technology text round trip preserves the whole flow result. ---

TEST(Integration, TechFileRoundTripPreservesFlowResult) {
  const tech::Technology reparsed = tech::Technology::parse(kTech.toText());
  const core::EngineOptions opt;
  const core::EngineResult a = core::SynthesisEngine(kTech, opt).run(sizing::OtaSpecs{});
  const core::EngineResult b =
      core::SynthesisEngine(reparsed, opt).run(sizing::OtaSpecs{});
  EXPECT_NEAR(a.measured.gbwHz, b.measured.gbwHz, a.measured.gbwHz * 1e-6);
  EXPECT_NEAR(a.measured.dcGainDb, b.measured.dcGainDb, 1e-6);
  EXPECT_EQ(a.layoutCalls, b.layoutCalls);
}

}  // namespace
}  // namespace lo
