// The benchmark's own tests: request generation, statistics and the output
// check.  Run with `bash jobbench/run.sh --tests`.
#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "jobbench.hpp"
#include "service/json.hpp"

namespace jobbench {
namespace {

using lo::service::Json;

std::vector<std::string> firstLines(Workload w, std::uint64_t seed, int exchanges) {
  RequestStream stream(w, seed);
  std::vector<std::string> lines = stream.jobLines();
  for (int i = 0; i < exchanges; ++i) {
    const std::optional<Exchange> ex = stream.next();
    if (!ex) break;
    lines.insert(lines.end(), ex->lines.begin(), ex->lines.end());
  }
  return lines;
}

TEST(RequestStream, SameSeedGivesByteIdenticalLines) {
  for (Workload w : {Workload::kSynthCold, Workload::kVerifyCase4, Workload::kRouterWarm}) {
    EXPECT_EQ(firstLines(w, 7, 60), firstLines(w, 7, 60)) << workloadName(w);
  }
}

TEST(RequestStream, DifferentSeedGivesDifferentLines) {
  for (Workload w : {Workload::kSynthCold, Workload::kVerifyCase4, Workload::kRouterWarm}) {
    EXPECT_NE(firstLines(w, 7, 60), firstLines(w, 8, 60)) << workloadName(w);
  }
}

TEST(RequestStream, ColdJobsAreDistinctAndRouterRoundsHaveFixedShapes) {
  RequestStream cold(Workload::kSynthCold, 3);
  std::set<std::string> keys;
  for (const std::string& line : cold.jobLines()) keys.insert(cacheKeyOfLine(line));
  EXPECT_EQ(keys.size(), cold.jobLines().size());

  RequestStream warm(Workload::kRouterWarm, 3);
  int jobs = 0;
  int sync = 0;
  for (int i = 0; i < 180; ++i) {
    const Exchange ex = *warm.next();
    jobs += static_cast<int>(ex.jobs.size());
    sync += ex.kind == Exchange::Kind::kSync ? 1 : 0;
    for (int index : ex.jobs) {
      EXPECT_GE(index, 0);
      EXPECT_LT(index, kRouterPoolSize);
    }
  }
  EXPECT_EQ(jobs, 240);  // Ten rounds of 16 sync + 4 sweep + 4 async jobs.
  EXPECT_EQ(sync, 160);
}

TEST(Statistics, NearestRankPercentile) {
  const std::vector<double> v = {15, 20, 35, 40, 50};
  EXPECT_EQ(percentile(v, 5), 15);
  EXPECT_EQ(percentile(v, 30), 20);
  EXPECT_EQ(percentile(v, 40), 20);
  EXPECT_EQ(percentile(v, 50), 35);
  EXPECT_EQ(percentile(v, 100), 50);
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  EXPECT_EQ(percentile(hundred, 90), 90);
  EXPECT_EQ(median({3.0}), 3.0);
  EXPECT_THROW((void)percentile({}, 50), std::invalid_argument);
}

TEST(Statistics, SelfTimeSubtractsTheUnionOfChildren) {
  // root [0,10]: children [1,3] and [2,5] overlap (union 4), [9,12] runs
  // past the parent (counts 1).  The [2,5] child has a grandchild [2,4].
  std::vector<Span> spans(5);
  spans[0] = {"exchange", -1, 0, 0.0, 10.0};
  spans[1] = {"protocol.decode", 0, 0, 1.0, 3.0};
  spans[2] = {"core.run", 0, 0, 2.0, 5.0};
  spans[3] = {"core.sizing", 2, 0, 2.0, 4.0};
  spans[4] = {"cache.insert", 0, 0, 9.0, 12.0};
  const std::vector<double> self = selfTimes(spans);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);
  EXPECT_DOUBLE_EQ(self[2], 1.0);
  EXPECT_DOUBLE_EQ(self[3], 2.0);
  EXPECT_DOUBLE_EQ(self[4], 3.0);
  EXPECT_EQ(layerOf("core.sizing"), "core");
  EXPECT_EQ(layerOf("exchange"), "exchange");
}

Json sampleResult() {
  return Json::parse(
      R"({"convergence":{"verdict":"converged"},)"
      R"("predicted":{"dc_gain_db":70.5,"gbw_hz":6.5e7,"offset_mv":0.0004},)"
      R"("measured":{"dc_gain_db":69.25,"gbw_hz":6.1e7,"offset_mv":0.2}})");
}

TEST(OutputCheck, AcceptsGoldenWithinToleranceAndRejectsPerturbedFigure) {
  const Json result = sampleResult();
  const GoldenSet set;  // 2% relative, 1e-3 absolute floor.
  const Golden golden = goldenOf(result);
  EXPECT_EQ(checkResult(result, "abc", "abc", &golden, &set), "");

  Golden near = golden;
  near.measured[1] *= 1.015;    // 1.5% off: inside the tolerance.
  near.predicted[2] = 0.0009;   // Tiny figure: inside the absolute floor.
  EXPECT_EQ(checkResult(result, "abc", "abc", &near, &set), "");

  Golden far = golden;
  far.measured[1] *= 1.03;  // One figure 3% off.
  const std::string why = checkResult(result, "abc", "abc", &far, &set);
  EXPECT_NE(why.find("measured figure 1"), std::string::npos) << why;
}

TEST(OutputCheck, GoldensSurviveACacheKeyChange) {
  // A change that moves figures within tolerance also bumps the cache
  // schema version, so every key changes.  The figures are still matched
  // by stream index, and the key is checked only against the live keyFor.
  const Json result = sampleResult();
  const GoldenSet set;
  Golden golden = goldenOf(result);
  golden.measured[0] *= 1.01;
  EXPECT_EQ(checkResult(result, "key-after-schema-bump", "key-after-schema-bump", &golden, &set),
            "");
}

TEST(OutputCheck, RejectsWrongKeyVerdictAndNonFiniteFigures) {
  const Json result = sampleResult();
  const GoldenSet set;
  Golden golden = goldenOf(result);
  EXPECT_NE(checkResult(result, "abd", "abc", &golden, &set), "");
  golden.converged = false;
  EXPECT_NE(checkResult(result, "abc", "abc", &golden, &set), "");
  const Json broken = Json::parse(
      R"({"convergence":{"verdict":"converged"},"predicted":{"gbw_hz":1e999},)"
      R"("measured":{"gbw_hz":1}})");
  EXPECT_NE(checkResult(broken, "abc", "abc", nullptr, nullptr), "");
  EXPECT_EQ(checkResult(result, "abc", "abc", nullptr, nullptr), "");
}

TEST(OutputCheck, SpecRuleFollowsTheExplorerFeasibility) {
  const Json request = Json::parse(R"({"spec":{"gbw":6.2e7,"phase_margin_deg":60}})");
  Json result = Json::parse(
      R"({"convergence":{"verdict":"converged"},)"
      R"("measured":{"gbw_hz":6.1e7,"phase_margin_deg":59}})");
  EXPECT_TRUE(meetsSpec(request, result));  // Both within 2% of spec.
  const Json slow = Json::parse(
      R"({"convergence":{"verdict":"converged"},)"
      R"("measured":{"gbw_hz":6.0e7,"phase_margin_deg":59}})");
  EXPECT_FALSE(meetsSpec(request, slow));
  const Json failedTier = Json::parse(
      R"({"convergence":{"verdict":"converged"},"verification":{"pass":false},)"
      R"("measured":{"gbw_hz":6.1e7,"phase_margin_deg":59}})");
  EXPECT_FALSE(meetsSpec(request, failedTier));
}

}  // namespace
}  // namespace jobbench
