#include <gtest/gtest.h>

#include "layout/extract.hpp"
#include "layout/router.hpp"
#include "tech/units.hpp"

namespace lo::layout {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

/// Cell with two ports on net "a" 100 um apart horizontally and two ports on
/// net "b" below them.
Cell twoNetCell() {
  Cell c;
  c.addPort("a", tech::Layer::kMetal1, geom::Rect(0, 50000, 1000, 51000));
  c.addPort("a", tech::Layer::kMetal1, geom::Rect(100000, 50000, 101000, 51000));
  c.addPort("b", tech::Layer::kMetal1, geom::Rect(0, 0, 1000, 1000));
  c.addPort("b", tech::Layer::kMetal1, geom::Rect(100000, 0, 101000, 1000));
  return c;
}

TEST(Router, TrunkLengthSpansPorts) {
  const Cell c = twoNetCell();
  const RoutingResult r = routeCell(kTech, c, {{"a", 0.0}}, false);
  ASSERT_EQ(r.nets.size(), 1u);
  EXPECT_NEAR(r.nets[0].trunkLength, 100e-6, 5e-6);
  // Minimum trunk width: via landing (cut + metal1 enclosure both sides).
  EXPECT_EQ(r.nets[0].trunkWidth,
            kTech.rules.via1Size + 2 * kTech.rules.metal1OverVia1);
  EXPECT_GT(r.nets[0].capToGround, 0.0);
}

TEST(Router, SinglePortNetsSkipped) {
  Cell c;
  c.addPort("solo", tech::Layer::kMetal1, geom::Rect(0, 0, 1000, 1000));
  const RoutingResult r = routeCell(kTech, c, {{"solo", 0.0}}, false);
  EXPECT_TRUE(r.nets.empty());
}

TEST(Router, EmWidensHighCurrentTrunk) {
  const Cell c = twoNetCell();
  const RoutingResult lo = routeCell(kTech, c, {{"a", 1e-6}}, false);
  const RoutingResult hi = routeCell(kTech, c, {{"a", 4e-3}}, false);
  EXPECT_GT(hi.nets[0].trunkWidth, lo.nets[0].trunkWidth);
  EXPECT_GE(hi.nets[0].trunkWidth, 4000);  // 4 mA at 1 mA/um.
  // Wider wire, more capacitance.
  EXPECT_GT(hi.nets[0].capToGround, lo.nets[0].capToGround);
}

TEST(Router, ConflictingTrunksGetSeparatedTracks) {
  // Nets "a" and "b" have overlapping x spans and nearby desired heights,
  // so their trunks must land on separated tracks.
  Cell c;
  for (int i = 0; i < 2; ++i) {
    const geom::Coord x = i * 80000;
    c.addPort("a", tech::Layer::kMetal1, geom::Rect(x, 10000, x + 1000, 11000));
    c.addPort("b", tech::Layer::kMetal1, geom::Rect(x, 12000, x + 1000, 13000));
  }
  const RoutingResult r = routeCell(kTech, c, {{"a", 0.0}, {"b", 0.0}}, true);
  ASSERT_EQ(r.nets.size(), 2u);
  // Emitted trunk rects (metal1, spanning the full port range) must not
  // violate metal1 spacing.
  std::vector<geom::Rect> trunkRects;
  for (const geom::Shape& s : r.wires.shapes()) {
    if (s.layer == tech::Layer::kMetal1 && s.rect.width() > 50000) trunkRects.push_back(s.rect);
  }
  ASSERT_EQ(trunkRects.size(), 2u);
  EXPECT_GE(trunkRects[0].distanceTo(trunkRects[1]), kTech.rules.metal1Spacing);
}

TEST(Router, CouplingReportedForAdjacentTrunks) {
  Cell c;
  for (int i = 0; i < 2; ++i) {
    const geom::Coord x = i * 200000;  // 200 um parallel run.
    c.addPort("a", tech::Layer::kMetal1, geom::Rect(x, 10000, x + 1000, 11000));
    c.addPort("b", tech::Layer::kMetal1, geom::Rect(x, 12000, x + 1000, 13000));
  }
  const RoutingResult r = routeCell(kTech, c, {{"a", 0.0}, {"b", 0.0}}, false);
  const auto key = std::make_pair(std::string("a"), std::string("b"));
  ASSERT_TRUE(r.coupling.count(key));
  // Of the order of 200 um * 0.07 fF/um, scaled by spacing: > 1 fF.
  EXPECT_GT(r.coupling.at(key), 1e-15);
  EXPECT_LT(r.coupling.at(key), 100e-15);
}

TEST(Router, GeometryModeEmitsDrcCompatibleWires) {
  const Cell c = twoNetCell();
  const RoutingResult r = routeCell(kTech, c, {{"a", 1e-3}, {"b", 0.0}}, true);
  EXPECT_FALSE(r.wires.empty());
  // Via cuts present for each branch.
  EXPECT_FALSE(r.wires.bbox(tech::Layer::kVia1).empty());
  // Parasitic mode produces identical electrical numbers.
  const RoutingResult rp = routeCell(kTech, c, {{"a", 1e-3}, {"b", 0.0}}, false);
  ASSERT_EQ(r.nets.size(), rp.nets.size());
  for (std::size_t i = 0; i < r.nets.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.nets[i].capToGround, rp.nets[i].capToGround);
  }
  EXPECT_TRUE(rp.wires.empty());
}

TEST(Extract, WellCapMatchesAreaPlusPerimeter) {
  const geom::Rect well(0, 0, 10000, 20000);  // 10 x 20 um.
  const double cap = wellCapOf(kTech, well);
  const double expected = 200e-12 * kTech.nwellCapAreaPerM2 + 60e-6 * kTech.nwellCapPerimPerM;
  EXPECT_NEAR(cap, expected, expected * 1e-9);
}

TEST(Extract, ReportSkipsAcGroundNets) {
  RoutingResult routing;
  routing.nets.push_back({"sig", 800, 1e-4, 0.0, 5e-15, 0});
  routing.nets.push_back({"vdd", 800, 1e-4, 0.0, 9e-15, 0});
  routing.coupling[{"sig", "vdd"}] = 2e-15;
  geom::ShapeList wells;
  wells.add(tech::Layer::kNWell, geom::Rect(0, 0, 10000, 10000), "tailn");
  const ParasiticReport rep = buildReport(kTech, routing, wells, {"vdd"});
  EXPECT_TRUE(rep.nets.count("sig"));
  EXPECT_FALSE(rep.nets.count("vdd"));
  // Coupling to AC ground folds into the signal net's ground cap.
  EXPECT_NEAR(rep.nets.at("sig").routingCap, 7e-15, 1e-21);
  EXPECT_GT(rep.nets.at("tailn").wellCap, 0.0);
}

TEST(Extract, CouplingBetweenSignalNetsKeptSymmetric) {
  RoutingResult routing;
  routing.nets.push_back({"x1", 800, 1e-4, 0.0, 1e-15, 0});
  routing.nets.push_back({"x2", 800, 1e-4, 0.0, 1e-15, 0});
  routing.coupling[{"x1", "x2"}] = 3e-15;
  const ParasiticReport rep = buildReport(kTech, routing, {}, {});
  EXPECT_DOUBLE_EQ(rep.nets.at("x1").coupling.at("x2"), 3e-15);
  EXPECT_DOUBLE_EQ(rep.nets.at("x2").coupling.at("x1"), 3e-15);
  EXPECT_DOUBLE_EQ(rep.nets.at("x1").totalCap(), 4e-15);
}

TEST(Extract, AnnotateSplitsNetWithSeriesResistance) {
  circuit::Circuit c;
  const auto x1 = c.node("x1");
  ParasiticReport rep;
  rep.nets["x1"].routingRes = 50.0;
  rep.nets["x1"].routingCap = 5e-15;
  annotateCircuit(c, rep);

  // The wire resistance becomes a series RPAR_ element to a tap node, and
  // the net's parasitic capacitance hangs off the tap (the far end of the
  // wire), not the original node.
  ASSERT_EQ(c.resistors.size(), 1u);
  EXPECT_EQ(c.resistors[0].name, "RPAR_x1");
  EXPECT_DOUBLE_EQ(c.resistors[0].ohms, 50.0);
  const auto tap = c.findNode("x1_rpar");
  ASSERT_TRUE(tap.has_value());
  EXPECT_EQ(c.resistors[0].a, x1);
  EXPECT_EQ(c.resistors[0].b, *tap);
  EXPECT_DOUBLE_EQ(c.explicitCapAt(*tap), 5e-15);
  EXPECT_DOUBLE_EQ(c.explicitCapAt(x1), 0.0);
}

TEST(Extract, AnnotateSkipsNegligibleSeriesResistance) {
  circuit::Circuit c;
  const auto x1 = c.node("x1");
  ParasiticReport rep;
  rep.nets["x1"].routingRes = 0.5;  // Below the 1-ohm default threshold.
  rep.nets["x1"].routingCap = 5e-15;
  annotateCircuit(c, rep);
  EXPECT_TRUE(c.resistors.empty());
  EXPECT_FALSE(c.findNode("x1_rpar").has_value());
  EXPECT_DOUBLE_EQ(c.explicitCapAt(x1), 5e-15);
}

TEST(Extract, AnnotateSeriesResistanceThresholdIsConfigurable) {
  circuit::Circuit c;
  (void)c.node("x1");
  ParasiticReport rep;
  rep.nets["x1"].routingRes = 0.5;
  annotateCircuit(c, rep, /*minSeriesRes=*/0.1);
  ASSERT_EQ(c.resistors.size(), 1u);
  EXPECT_DOUBLE_EQ(c.resistors[0].ohms, 0.5);
}

TEST(Extract, AnnotateCouplingAttachesToTapNodes) {
  circuit::Circuit c;
  (void)c.node("x1");
  (void)c.node("x2");
  ParasiticReport rep;
  rep.nets["x1"].routingRes = 20.0;
  rep.nets["x1"].coupling["x2"] = 2e-15;
  rep.nets["x2"].coupling["x1"] = 2e-15;
  annotateCircuit(c, rep);
  // x1 splits (20 ohm), x2 does not; the coupling cap runs tap-to-node.
  ASSERT_EQ(c.resistors.size(), 1u);
  ASSERT_EQ(c.capacitors.size(), 1u);
  const auto tap = c.findNode("x1_rpar");
  ASSERT_TRUE(tap.has_value());
  const auto x2 = *c.findNode("x2");
  EXPECT_TRUE((c.capacitors[0].a == *tap && c.capacitors[0].b == x2) ||
              (c.capacitors[0].a == x2 && c.capacitors[0].b == *tap));
}

TEST(Extract, AnnotateCircuitAddsLumpedCaps) {
  circuit::Circuit c;
  const auto x1 = c.node("x1"), x2 = c.node("x2");
  ParasiticReport rep;
  rep.nets["x1"].routingCap = 5e-15;
  rep.nets["x1"].coupling["x2"] = 2e-15;
  rep.nets["x2"].coupling["x1"] = 2e-15;
  rep.nets["x2"].wellCap = 7e-15;
  rep.nets["missing"].routingCap = 1e-15;  // Not in the circuit: ignored.
  annotateCircuit(c, rep);
  ASSERT_EQ(c.capacitors.size(), 3u);
  EXPECT_DOUBLE_EQ(c.explicitCapAt(x1), 5e-15 + 2e-15);
  EXPECT_DOUBLE_EQ(c.explicitCapAt(x2), 7e-15 + 2e-15);
}

}  // namespace
}  // namespace lo::layout
