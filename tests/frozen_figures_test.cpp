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
// parasitic-mode layout calls and the convergence verdict.  golden_file.hpp
// says how a deliberate change regenerates them.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.hpp"
#include "golden_file.hpp"
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

/// `fresh` against the golden `file` at kRelTol, or the golden rewritten
/// from it.
void expectMatchesGolden(const std::string& file, const Json& fresh) {
  if (golden::rewrite(file, [&] { return fresh; })) GTEST_SKIP() << "rewrote " << file;
  const auto diff = testkit::diffJson(golden::load(file), fresh, kRelTol);
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

}  // namespace
}  // namespace lo
