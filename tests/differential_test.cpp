// The differential oracle over a seeded corpus: every route through the
// stack -- engine-direct, scheduler, cache-warm (through the on-disk JSON
// store), explore-cell -- must produce byte-identical canonical results,
// and the frozen path (tests/goldens/corpus.json, what the full-MNA solver
// answered) the same within its registered relTol; a fault-injected run
// must leave every job in a definite terminal state, reproducibly from the
// seed.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "golden_file.hpp"
#include "service/serialize.hpp"
#include "testkit/differential.hpp"
#include "testkit/faults.hpp"

namespace lo::testkit {
namespace {

using service::Json;

const tech::Technology kTech = tech::Technology::generic060();

/// The frozen corpus' tolerance: the transient the slew rate and THD come
/// from is held to its Newton tolerance, not to LU rounding.
constexpr double kFrozenRelTol = 1e-6;

/// One corpus golden entry: the point's label and its outcome.
Json outcomeJson(const std::string& label, const PathOutcome& outcome) {
  Json j = Json::object();
  j.set("label", label);
  j.set("ok", outcome.ok);
  if (outcome.ok) {
    j.set("result", service::toJson(outcome.result));
  } else {
    j.set("error", outcome.error);
  }
  return j;
}

/// The frozen path: each corpus point's outcome as the golden recorded it.
PathRunner frozenPath(const Json& golden) {
  std::map<std::string, PathOutcome> outcomes;
  for (const Json& entry : golden.items()) {
    PathOutcome& out = outcomes[entry.at("label").asString()];
    out.ok = entry.at("ok").asBool();
    if (out.ok) {
      out.result = service::resultFromJson(entry.at("result"));
      out.canonical = service::toJson(out.result).dump();
    } else {
      out.error = entry.at("error").asString();
    }
  }
  return [outcomes = std::move(outcomes)](const CorpusPoint& point) {
    if (const auto it = outcomes.find(point.label); it != outcomes.end()) return it->second;
    PathOutcome missing;
    missing.error = "no frozen outcome for " + point.label;
    return missing;
  };
}

class DifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lo_differential_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(DifferentialTest, FiftyPointCorpusAgreesByteForByteAcrossAllPaths) {
  service::SchedulerOptions options;
  options.threads = 1;  // Exact reproducibility: one deterministic schedule.
  options.cache.diskDir = dir_.string();
  service::JobScheduler scheduler(kTech, options);

  const std::vector<CorpusPoint> corpus = generateCorpus(1);
  ASSERT_GE(corpus.size(), 50u);
  const std::string file = "corpus.json";
  if (golden::rewrite(file, [&] {
        Json outcomes = Json::array();
        for (const CorpusPoint& point : corpus) {
          outcomes.push(outcomeJson(point.label, runEngineDirect(kTech, point)));
        }
        return outcomes;
      })) {
    GTEST_SKIP() << "rewrote " << file;
  }

  DifferentialDriver driver = standardDriver(scheduler);
  driver.registerPath("frozen", frozenPath(golden::load(file)), kFrozenRelTol);
  ASSERT_EQ(driver.pathNames(),
            (std::vector<std::string>{"engine_direct", "scheduler", "cache_warm",
                                      "explore_cell", "frozen"}));

  const DiffReport report = driver.run(corpus);
  EXPECT_EQ(report.points, static_cast<int>(corpus.size()));
  for (const PointReport& divergence : report.divergences) {
    ADD_FAILURE() << divergence.detail;
  }
  EXPECT_TRUE(report.allAgree());
}

TEST(DifferentialDriverApi, RejectsDuplicateAndNullPaths) {
  DifferentialDriver driver;
  driver.registerPath("p", [](const CorpusPoint&) { return PathOutcome{}; });
  EXPECT_THROW(
      driver.registerPath("p", [](const CorpusPoint&) { return PathOutcome{}; }),
      std::invalid_argument);
  EXPECT_THROW(driver.registerPath("q", nullptr), std::invalid_argument);
  EXPECT_THROW((void)driver.run({}), std::logic_error);  // One path only.
}

TEST(DifferentialDriverApi, PathRelTolLoosensOnlyThatPath) {
  // Three paths: the reference, a path whose gbw differs by 1e-8
  // relative and is registered to tolerate 1e-6, and the same result
  // registered exact.  Only the exact one may diverge.
  const auto outcome = [](double gbwHz) {
    PathOutcome out;
    out.ok = true;
    out.result.measured.gbwHz = gbwHz;
    out.canonical = service::toJson(out.result).dump();
    return out;
  };
  const std::vector<CorpusPoint> corpus = generateCorpus(1);
  const CorpusPoint& point = corpus.front();

  DifferentialDriver loose;
  loose.registerPath("ref", [&](const CorpusPoint&) { return outcome(1e6); });
  loose.registerPath("near", [&](const CorpusPoint&) { return outcome(1e6 * (1 + 1e-8)); },
                     1e-6);
  EXPECT_TRUE(loose.run({point}).allAgree());

  DifferentialDriver exact;
  exact.registerPath("ref", [&](const CorpusPoint&) { return outcome(1e6); });
  exact.registerPath("near", [&](const CorpusPoint&) { return outcome(1e6 * (1 + 1e-8)); });
  const DiffReport report = exact.run({point});
  ASSERT_EQ(report.divergences.size(), 1u);
  EXPECT_NE(report.divergences.front().detail.find("near vs ref"), std::string::npos);
}

/// One fault-injected pass over a small corpus; returns the terminal
/// (state, retries) sequence.  Fresh scheduler + fresh plan each call, so
/// with one worker the whole schedule is a pure function of the seed.
std::vector<std::string> faultedPass(const std::vector<CorpusPoint>& corpus,
                                     std::uint64_t seed) {
  FaultPlan plan(FaultPlanOptions::basic(seed));
  service::SchedulerOptions options;
  options.threads = 1;
  installSchedulerFaults(options, plan);
  service::JobScheduler scheduler(kTech, options);

  std::vector<std::uint64_t> ids;
  for (const CorpusPoint& point : corpus) {
    service::JobRequest request = point.toJobRequest();
    request.maxRetries = 1;
    ids.push_back(scheduler.submit(request));
  }
  std::vector<std::string> outcomes;
  for (const std::uint64_t id : ids) {
    const service::JobStatus status = scheduler.wait(id);
    EXPECT_TRUE(service::isTerminal(status.state));
    outcomes.push_back(std::string(service::jobStateName(status.state)) + "/" +
                       std::to_string(status.retries));
  }
  return outcomes;
}

TEST(DifferentialFaulted, EveryJobTerminatesAndTheRunReplaysFromTheSeed) {
  CorpusOptions corpusOptions;
  corpusOptions.size = 20;
  corpusOptions.cases = {core::SizingCase::kCase1, core::SizingCase::kCase2};
  const std::vector<CorpusPoint> corpus = generateCorpus(11, corpusOptions);

  const std::vector<std::string> first = faultedPass(corpus, 11);
  const std::vector<std::string> second = faultedPass(corpus, 11);
  EXPECT_EQ(first, second) << "fault schedule did not replay from the seed";

  // Under the basic plan some states beyond kDone should actually occur
  // (injected transients against maxRetries=1 fail some jobs); if not, the
  // plan never engaged and this test is vacuous.
  bool sawNonDone = false;
  for (const std::string& outcome : first) {
    sawNonDone |= outcome.rfind("done/0", 0) != 0;
  }
  EXPECT_TRUE(sawNonDone) << "no fault visibly engaged over 20 points";
}

}  // namespace
}  // namespace lo::testkit
