// Frozen figures: the paper's Table 1 (the folded-cascode OTA at its four
// sizing cases) and the two-stage OTA at case 4, both at the default specs,
// compared field by field with tests/goldens/table1.json through
// testkit::diffJson.  Each run freezes its predicted and measured rows, the
// parasitic-mode layout calls and the convergence verdict.
//
// A change that moves a figure past kRelTol is either a bug or a deliberate
// move; a deliberate one regenerates the file from its own build,
//
//   LO_REGENERATE_GOLDENS=1 build/tests/test_frozen_figures
//
// (the test then reports itself skipped), and says which figures moved and
// why.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/engine.hpp"
#include "service/serialize.hpp"
#include "testkit/diff.hpp"

namespace lo {
namespace {

using service::Json;

const std::string kGoldenPath = std::string(LO_GOLDENS_DIR) + "/table1.json";

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

/// The five runs, one JSON line each.
std::string frozenRuns() {
  const tech::Technology tech = tech::Technology::generic060();
  std::string text = "{\"runs\":[\n";
  auto add = [&](const char* topology, core::SizingCase c) {
    core::EngineOptions options;
    options.topology = topology;
    options.sizingCase = c;
    const core::SynthesisEngine engine(tech, options);
    if (text.back() != '\n') text += ",\n";
    text += runJson(std::string(topology) + "/" + core::sizingCaseName(c),
                    engine.run(sizing::OtaSpecs{}))
                .dump();
  };
  for (const core::SizingCase c : {core::SizingCase::kCase1, core::SizingCase::kCase2,
                                   core::SizingCase::kCase3, core::SizingCase::kCase4}) {
    add(core::kFoldedCascodeOtaTopologyName, c);
  }
  add(core::kTwoStageTopologyName, core::SizingCase::kCase4);
  return text + "\n]}\n";
}

TEST(FrozenFigures, Table1AndTwoStageCase4MatchTheGoldens) {
  const std::string runs = frozenRuns();
  if (std::getenv("LO_REGENERATE_GOLDENS") != nullptr) {
    std::ofstream(kGoldenPath, std::ios::trunc) << runs;
    GTEST_SKIP() << "rewrote " << kGoldenPath;
  }
  std::ifstream in(kGoldenPath);
  ASSERT_TRUE(in) << "missing " << kGoldenPath;
  std::ostringstream golden;
  golden << in.rdbuf();
  const auto diff = testkit::diffJson(Json::parse(golden.str()), Json::parse(runs), kRelTol);
  EXPECT_FALSE(diff.has_value()) << "golden vs this build: " << diff->describe();
}

}  // namespace
}  // namespace lo
