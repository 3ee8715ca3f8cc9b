#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/engine.hpp"
#include "core/ota_topology.hpp"

namespace lo::core {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

/// One case-N engine run plus the topology instance that holds its sized
/// design, layout and extracted design.
struct CaseRun {
  explicit CaseRun(SizingCase c)
      : engine(kTech,
               [c] {
                 EngineOptions opt;
                 opt.sizingCase = c;
                 return opt;
               }()),
        topology(kTech, engine.model()),
        result(engine.run(topology, sizing::OtaSpecs{})) {}

  SynthesisEngine engine;
  FoldedCascodeOtaTopology topology;
  EngineResult result;
};

/// All four cases, computed once (deterministic, ~0.2 s total).
const CaseRun& caseRun(SizingCase c) {
  static const auto runs = [] {
    std::map<SizingCase, CaseRun> m;
    for (SizingCase sc : {SizingCase::kCase1, SizingCase::kCase2, SizingCase::kCase3,
                          SizingCase::kCase4}) {
      m.try_emplace(sc, sc);
    }
    return m;
  }();
  return runs.at(c);
}

/// Capacitance on the critical net `net` in iteration `it` of `r`.
double netCap(const EngineResult& r, const EngineIteration& it, const char* net) {
  const auto pos = std::find(r.criticalNets.begin(), r.criticalNets.end(), net);
  EXPECT_NE(pos, r.criticalNets.end()) << net;
  return pos == r.criticalNets.end()
             ? 0.0
             : it.netCaps.at(static_cast<std::size_t>(pos - r.criticalNets.begin()));
}

TEST(Flow, Case4ConvergesInFewLayoutCalls) {
  // Paper section 5: "Three calls of the layout tool were needed before
  // parasitic convergence."
  const EngineResult& r = caseRun(SizingCase::kCase4).result;
  EXPECT_TRUE(r.parasiticConverged);
  EXPECT_GE(r.layoutCalls, 2);
  EXPECT_LE(r.layoutCalls, 5);
  EXPECT_EQ(static_cast<int>(r.iterations.size()), r.layoutCalls);
}

TEST(Flow, Case4MeetsGbwInExtractedSimulation) {
  const sizing::OtaSpecs specs;
  const EngineResult& r = caseRun(SizingCase::kCase4).result;
  // Synthesised value on target, extracted simulation within a few percent.
  EXPECT_NEAR(r.predicted.gbwHz, specs.gbw, specs.gbw * 0.01);
  EXPECT_NEAR(r.measured.gbwHz, specs.gbw, specs.gbw * 0.04);
}

TEST(Flow, Case1MissesGbwWithoutLayoutKnowledge) {
  // Paper Table 1 case 1: GBW of the extracted netlist falls clearly below
  // the target when no layout capacitance was considered during sizing.
  const sizing::OtaSpecs specs;
  const EngineResult& r = caseRun(SizingCase::kCase1).result;
  EXPECT_LT(r.measured.gbwHz, specs.gbw * 0.96);
  EXPECT_EQ(r.layoutCalls, 0);  // No parasitic feedback in case 1.
}

TEST(Flow, Case4IsClosestToTarget) {
  const sizing::OtaSpecs specs;
  const double err4 =
      std::abs(caseRun(SizingCase::kCase4).result.measured.gbwHz - specs.gbw);
  for (SizingCase c : {SizingCase::kCase1, SizingCase::kCase2, SizingCase::kCase3}) {
    EXPECT_LT(err4, std::abs(caseRun(c).result.measured.gbwHz - specs.gbw) + 1e3)
        << sizingCaseName(c);
  }
}

TEST(Flow, Case2OverEstimationCostsGainAndCmrr) {
  // Paper: "other specifications like the input noise, the dc gain and the
  // output resistance could not be optimized" under the pessimistic cap
  // assumption.
  const EngineResult& r1 = caseRun(SizingCase::kCase1).result;
  const EngineResult& r2 = caseRun(SizingCase::kCase2).result;
  EXPECT_LT(r2.measured.dcGainDb, r1.measured.dcGainDb);
  EXPECT_LT(r2.measured.cmrrDb, r1.measured.cmrrDb);
  EXPECT_LT(r2.measured.outputResistanceMOhm, r1.measured.outputResistanceMOhm);
  EXPECT_GT(r2.measured.powerMw, r1.measured.powerMw);
}

TEST(Flow, PredictionTracksSimulationForCase4) {
  // The whole point: when sizing knows everything the layout will do, the
  // synthesised numbers match the extracted simulation.
  const EngineResult& r = caseRun(SizingCase::kCase4).result;
  EXPECT_NEAR(r.measured.dcGainDb, r.predicted.dcGainDb, 1.5);
  EXPECT_NEAR(r.measured.gbwHz, r.predicted.gbwHz, r.predicted.gbwHz * 0.04);
  EXPECT_NEAR(r.measured.powerMw, r.predicted.powerMw, r.predicted.powerMw * 0.03);
  EXPECT_NEAR(r.measured.outputResistanceMOhm, r.predicted.outputResistanceMOhm,
              r.predicted.outputResistanceMOhm * 0.06);
}

TEST(Flow, ExtractedDesignCarriesQuantisedFoldedGeometry) {
  const FoldedCascodeOtaTopology& topology = caseRun(SizingCase::kCase4).topology;
  for (circuit::OtaGroup g : circuit::kAllOtaGroups) {
    const device::MosGeometry& geo = topology.extractedDesign().geometry(g);
    EXPECT_GT(geo.nf, 1) << circuit::otaGroupName(g);
    EXPECT_GT(geo.ad, 0.0) << circuit::otaGroupName(g);
    // Fold-quantised width differs slightly from the designed width (the
    // paper's grid-snapping effect) but stays within one grid per finger.
    const double designed = topology.sizingResult().design.geometry(g).w;
    EXPECT_NEAR(geo.w, designed, geo.nf * 60e-9) << circuit::otaGroupName(g);
  }
}

TEST(Flow, IterationHistoryShowsParasiticSettling) {
  const EngineResult& r = caseRun(SizingCase::kCase4).result;
  ASSERT_GE(r.iterations.size(), 2u);
  // Later iterations change less than the first step.
  const auto& it = r.iterations;
  const double first = std::abs(netCap(r, it[1], "x1") - netCap(r, it[0], "x1"));
  const double last = std::abs(netCap(r, it.back(), "x1") -
                               netCap(r, it[it.size() - 2], "x1"));
  EXPECT_LE(last, first + 1e-18);
  for (const EngineIteration& i : it) {
    EXPECT_GT(netCap(r, i, "x1"), 0.0);
    EXPECT_GT(netCap(r, i, "tail"), 0.0);
    EXPECT_GT(i.primaryCurrent, 0.0);
  }
}

TEST(Flow, FoldPolicyAblationChangesLayoutStyle) {
  const SynthesisEngine engine(kTech, EngineOptions{});
  layout::LayoutOptions alternatingStyle;
  alternatingStyle.foldStyle = device::FoldStyle::kAlternating;
  FoldedCascodeOtaTopology internal(kTech, engine.model());
  FoldedCascodeOtaTopology alternating(kTech, engine.model(), alternatingStyle);
  const EngineResult ri = engine.run(internal, sizing::OtaSpecs{});
  const EngineResult ra = engine.run(alternating, sizing::OtaSpecs{});
  // Internal-drain policy: even folds everywhere.
  for (const auto& [g, plan] : internal.layout().foldPlans) {
    EXPECT_EQ(plan.nf % 2, 0) << circuit::otaGroupName(g);
  }
  // Both still meet GBW after compensation -- the methodology absorbs the
  // style change; the drain capacitance differs.
  const sizing::OtaSpecs specs;
  EXPECT_NEAR(ri.measured.gbwHz, specs.gbw, specs.gbw * 0.05);
  EXPECT_NEAR(ra.measured.gbwHz, specs.gbw, specs.gbw * 0.05);
}

}  // namespace
}  // namespace lo::core
