// Frozen figures, compared field by field with their goldens through
// testkit::diffJson at kRelTol:
//
//  * tests/goldens/table1.json: the paper's Table 1 (the folded-cascode
//    OTA at its four sizing cases) and the two-stage OTA at case 4, both at
//    the default specs;
//  * tests/goldens/ext_two_stage.json: bench/ext_two_stage's rows, the
//    two-stage OTA at cases 1, 2 and 4 and GBW 30 MHz;
//  * tests/goldens/ext_verify.json: bench/ext_verify's post-layout
//    verification reports, case 2 with the post-layout tier on at 41 sweep
//    points, on both topologies.
//
// Each engine run freezes its predicted and measured rows, the
// parasitic-mode layout calls and the convergence verdict.
//
//  * tests/goldens/layout.json: the layout program's outputs on fixed
//    designs of both topologies, in both modes, compared exactly: fold
//    plans, junctions, stack plans, the parasitic report, the floorplan,
//    the routed nets and digests of the drawn cell's CIF text and ports.
//
// golden_file.hpp says how a deliberate change regenerates them.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <string_view>

#include "core/engine.hpp"
#include "golden_file.hpp"
#include "layout/ota_layout.hpp"
#include "layout/two_stage_layout.hpp"
#include "layout/writers.hpp"
#include "service/cache.hpp"
#include "service/serialize.hpp"
#include "testkit/diff.hpp"

namespace lo {
namespace {

using service::Json;

const tech::Technology kTech = tech::Technology::generic060();

/// Relative tolerance per figure: loose enough for another compiler's
/// rounding, tight enough that any change to an algorithm shows.
constexpr double kRelTol = 1e-6;

Json runJson(const std::string& name, const core::EngineResult& r) {
  Json j = Json::object();
  j.set("name", name);
  j.set("layout_calls", r.layoutCalls);
  j.set("parasitic_converged", r.parasiticConverged);
  j.set("verdict", core::convergenceVerdictName(r.convergence.verdict));
  j.set("predicted", service::toJson(r.predicted));
  j.set("measured", service::toJson(r.measured));
  return j;
}

/// One engine run at `c` on `topology`, as a golden row.
Json engineRun(const char* topology, core::SizingCase c, const sizing::OtaSpecs& specs) {
  core::EngineOptions options;
  options.topology = topology;
  options.sizingCase = c;
  return runJson(std::string(topology) + "/" + core::sizingCaseName(c),
                 core::SynthesisEngine(kTech, options).run(specs));
}

/// `fresh` against the golden `file` at `relTol`, or the golden rewritten
/// from it.
void expectMatchesGolden(const std::string& file, const Json& fresh, double relTol = kRelTol) {
  if (golden::rewrite(file, [&] { return fresh; })) GTEST_SKIP() << "rewrote " << file;
  const auto diff = testkit::diffJson(golden::load(file), fresh, relTol);
  EXPECT_FALSE(diff.has_value()) << "golden vs this build: " << diff->describe();
}

TEST(FrozenFigures, Table1AndTwoStageCase4MatchTheGoldens) {
  Json runs = Json::array();
  for (const core::SizingCase c : {core::SizingCase::kCase1, core::SizingCase::kCase2,
                                   core::SizingCase::kCase3, core::SizingCase::kCase4}) {
    runs.push(engineRun(core::kFoldedCascodeOtaTopologyName, c, {}));
  }
  runs.push(engineRun(core::kTwoStageTopologyName, core::SizingCase::kCase4, {}));
  Json fresh = Json::object();
  fresh.set("runs", std::move(runs));
  expectMatchesGolden("table1.json", fresh);
}

TEST(FrozenFigures, ExtTwoStageRowsMatchTheGoldens) {
  sizing::OtaSpecs specs;
  specs.gbw = 30e6;
  Json runs = Json::array();
  for (const core::SizingCase c :
       {core::SizingCase::kCase1, core::SizingCase::kCase2, core::SizingCase::kCase4}) {
    runs.push(engineRun(core::kTwoStageTopologyName, c, specs));
  }
  Json fresh = Json::object();
  fresh.set("runs", std::move(runs));
  expectMatchesGolden("ext_two_stage.json", fresh);
}

TEST(FrozenFigures, ExtVerifyRowsMatchTheGoldens) {
  Json reports = Json::object();
  for (const char* topology :
       {core::kFoldedCascodeOtaTopologyName, core::kTwoStageTopologyName}) {
    core::EngineOptions options;
    options.topology = topology;
    options.sizingCase = core::SizingCase::kCase2;
    options.postLayoutVerify.enabled = true;
    options.postLayoutVerify.sweepPoints = 41;
    sizing::OtaSpecs specs;
    if (std::string(topology) == core::kTwoStageTopologyName) specs.gbw = 30e6;
    reports.set(topology,
                service::toJson(core::SynthesisEngine(kTech, options).run(specs).verification));
  }
  expectMatchesGolden("ext_verify.json", reports);
}

// --- The layout program, pinned bit for bit. ---

std::string digest(std::string_view text) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(service::ResultCache::fnv1a(text)));
  return hex;
}

template <typename... Values>
Json row(const Values&... values) {
  Json a = Json::array();
  (a.push(Json(values)), ...);
  return a;
}

Json object(std::initializer_list<std::pair<const char*, Json>> members) {
  Json j = Json::object();
  for (const auto& [key, value] : members) j.set(key, value);
  return j;
}

Json geometryJson(const device::MosGeometry& g) {
  return row(g.w, g.l, g.nf, g.ad, g.as, g.pd, g.ps);
}

Json stackPlanJson(const layout::StackPlan& p) {
  Json fingers = Json::array(), strips = Json::array(), metrics = Json::array();
  for (const layout::StackFinger& f : p.fingers) {
    fingers.push(std::to_string(f.device) + (f.currentLeftToRight ? ">" : "<"));
  }
  for (const std::string& net : p.stripNets) strips.push(net);
  for (const layout::StackDeviceMetrics& m : p.metrics) {
    metrics.push(row(m.fingers, m.internalDrainStrips, m.externalDrainStrips, m.centroidOffset,
                     m.orientationImbalance, geometryJson(m.junctions)));
  }
  return object({{"fingers", fingers}, {"strips", strips}, {"metrics", metrics},
                 {"dummies", p.dummyCount}});
}

const char* groupName(circuit::OtaGroup g) { return circuit::otaGroupName(g); }
const char* groupName(circuit::TwoStageGroup g) {
  static const char* const kNames[] = {"input_pair", "mirror", "tail", "driver", "sink2"};
  return kNames[static_cast<int>(g)];
}

/// What every layout result reports, in both modes.
template <typename Result>
Json layoutJson(const Result& r) {
  Json folds = Json::object(), junctions = Json::object(), parasitics = Json::object();
  for (const auto& [group, p] : r.foldPlans) {
    folds.set(groupName(group), row(p.nf, p.foldWidth, p.totalWidth, static_cast<int>(p.style),
                                    p.drainInternal));
  }
  for (const auto& [group, g] : r.junctions) junctions.set(groupName(group), geometryJson(g));
  for (const auto& [net, p] : r.parasitics.nets) {
    Json coupling = Json::object();
    for (const auto& [other, cap] : p.coupling) coupling.set(other, cap);
    parasitics.set(net, row(p.routingCap, p.wellCap, p.routingRes, coupling));
  }
  const layout::RowPlacement& placement = r.placement;
  Json leaves = Json::object(), rows = Json::array(), routed = Json::array();
  for (const auto& [name, leaf] : placement.floorplan.leaves) {
    const geom::Rect& b = leaf.rect;
    leaves.set(name, row(leaf.tag, b.x0, b.y0, b.x1, b.y1));
  }
  for (const layout::RowAssignment& a : placement.rows) {
    Json items = row(layout::rowKindName(a.kind), a.wellNet, a.spacing, a.band.lo, a.band.hi);
    for (const std::string& item : a.items) items.push(item);
    rows.push(std::move(items));
  }
  for (const layout::RoutedNet& n : r.routing.nets) {
    routed.push(row(n.net, n.trunkWidth, n.trunkLength, n.branchLength, n.capToGround,
                    n.resistanceOhm, n.viaCount));
  }
  std::string ports;
  for (const layout::Port& p : r.cell.ports) {
    ports += p.net + ' ' + std::to_string(static_cast<int>(p.layer)) + ' ' +
             std::to_string(p.rect.x0) + ' ' + std::to_string(p.rect.y0) + ' ' +
             std::to_string(p.rect.x1) + ' ' + std::to_string(p.rect.y1) + '\n';
  }
  return object({{"fold_plans", folds}, {"junctions", junctions}, {"parasitics", parasitics},
                 {"leaves", leaves}, {"rows", rows},
                 {"placement", row(placement.floorplan.width, placement.floorplan.height,
                                   placement.estimatedWirelengthNm, placement.scoreNm2,
                                   placement.candidatesEvaluated)},
                 {"routed_nets", routed}, {"outline", row(r.width, r.height)},
                 {"cif", digest(layout::toCif(r.cell.shapes))}, {"ports", digest(ports)}});
}

/// The variants every design is laid out with: the default options,
/// alternating folds, a height-capped shape offering three fold
/// candidates, and the seeded row search.
layout::LayoutOptions variantOptions(std::string_view variant) {
  layout::LayoutOptions o;
  if (variant == "alternating") o.foldStyle = device::FoldStyle::kAlternating;
  if (variant == "capped") {
    o.placer.shape = layout::ShapeConstraint{};
    o.placer.shape.maxHeight = 120000;
    o.maxFoldCandidates = 3;
  }
  if (variant == "seeded") {
    o.placer.search = layout::RowSearch::kSeeded;
    o.placer.seed = 3;
    o.placer.candidates = 24;
  }
  return o;
}

// One line of the golden per run, each topology's runs under its name.
TEST(FrozenFigures, LayoutProgramOutputs) {
  circuit::OtaBiasDesign bias;
  bias.nDiode = {.w = 8e-6, .l = 2e-6};
  bias.pDiode = {.w = 20e-6, .l = 2e-6};
  bias.nCascDiode = {.w = 4e-6, .l = 4e-6};
  bias.pCascDiode = {.w = 6e-6, .l = 4e-6};
  bias.biasCurrent = 10e-6;

  Json otaRuns = Json::object(), twoStageRuns = Json::object();
  for (const bool generate : {false, true}) {
    for (const auto& [name, k] : {std::pair{"a", 1.0}, std::pair{"b", 2.2}}) {
      // Two fixed designs per topology, the second 2.2 times as wide.
      circuit::FoldedCascodeOtaDesign ota;
      ota.inputPair = {.w = 120e-6 * k, .l = 1e-6};
      ota.tail = {.w = 80e-6 * k, .l = 2e-6};
      ota.sink = {.w = 60e-6 * k, .l = 1.5e-6};
      ota.nCascode = {.w = 40e-6 * k, .l = 0.8e-6};
      ota.pSource = {.w = 90e-6 * k, .l = 1.5e-6};
      ota.pCascode = {.w = 70e-6 * k, .l = 0.8e-6};
      ota.tailCurrent = 200e-6 * k;
      ota.cascodeCurrent = 110e-6 * k;
      circuit::TwoStageOtaDesign two;
      two.inputPair = {.w = 60e-6 * k, .l = 1e-6};
      two.mirror = {.w = 30e-6 * k, .l = 2e-6};
      two.tail = {.w = 40e-6 * k, .l = 2e-6};
      two.driver = {.w = 150e-6 * k, .l = 1e-6};
      two.sink2 = {.w = 100e-6 * k, .l = 2e-6};
      two.cc = 0.8e-12 * k;
      two.rz = 1.5e3 / k;
      two.tailCurrent = 100e-6 * k;
      two.stage2Current = 300e-6 * k;

      const std::string mode = generate ? "/generation" : "/parasitic";
      auto addOta = [&](const std::string& variant, const circuit::OtaBiasDesign* b) {
        const layout::OtaLayoutResult r =
            layout::generateOtaLayout(kTech, ota, variantOptions(variant), generate, b);
        Json j = layoutJson(r);
        j.set("pair", stackPlanJson(r.pairPlan));
        j.set("sink", stackPlanJson(r.sinkPlan));
        otaRuns.set(std::string(name) + "/" + (b ? "bias" : variant) + mode, std::move(j));
      };
      for (const char* variant : {"default", "alternating", "capped", "seeded"}) {
        addOta(variant, nullptr);
      }
      addOta("default", &bias);
      for (const char* variant : {"default", "alternating", "capped", "seeded"}) {
        const layout::TwoStageLayoutResult r =
            layout::generateTwoStageLayout(kTech, two, variantOptions(variant), generate);
        Json j = layoutJson(r);
        j.set("pair", stackPlanJson(r.pairPlan));
        j.set("passives", row(r.ccInfo.drawnFarads, r.ccInfo.bottomParasitic,
                              r.rzInfo.drawnOhms, r.rzInfo.parasiticCap, r.rzInfo.segments));
        twoStageRuns.set(std::string(name) + "/" + variant + mode, std::move(j));
      }
    }
  }
  expectMatchesGolden("layout.json", object({{"ota", otaRuns}, {"two_stage", twoStageRuns}}),
                      /*relTol=*/0.0);
}

}  // namespace
}  // namespace lo
