// The differential oracle over a seeded corpus: every route through the
// stack -- engine-direct, scheduler, cache-warm (through the on-disk JSON
// store), explore-cell -- must produce byte-identical canonical results
// (the reference-solver path within its registered relTol), and a
// fault-injected run must leave every job in a definite terminal state,
// reproducibly from the seed.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <vector>

#include "service/serialize.hpp"
#include "testkit/differential.hpp"
#include "testkit/faults.hpp"

namespace lo::testkit {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

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

  DifferentialDriver driver = standardDriver(scheduler);
  ASSERT_EQ(driver.pathNames(),
            (std::vector<std::string>{"engine_direct", "engine_reference_solver",
                                      "scheduler", "cache_warm", "explore_cell"}));

  const std::vector<CorpusPoint> corpus = generateCorpus(1);
  ASSERT_GE(corpus.size(), 50u);

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
