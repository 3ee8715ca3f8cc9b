#include "explore/explore.hpp"

#include <gtest/gtest.h>

#include "explore/export.hpp"
#include "explore/manager.hpp"
#include "explore/service_ops.hpp"
#include "service/protocol.hpp"

namespace lo::explore {
namespace {

using service::Json;

// ---------------------------------------------------------------------------
// Pareto archive
// ---------------------------------------------------------------------------

PointEval makePoint(const std::string& key, double power, double area,
                    double noise, bool feasible = true) {
  PointEval p;
  p.key = key;
  p.ok = true;
  p.feasible = feasible;
  p.powerMw = power;
  p.areaUm2 = area;
  p.noiseUv = noise;
  return p;
}

TEST(Pareto, DominanceDefinitions) {
  const auto objectives = allObjectives();
  const PointEval a = makePoint("a", 1.0, 10.0, 5.0);
  const PointEval b = makePoint("b", 2.0, 10.0, 5.0);
  const PointEval c = makePoint("c", 0.5, 20.0, 5.0);

  EXPECT_TRUE(ParetoArchive::weaklyDominates(a, a, objectives));
  EXPECT_TRUE(ParetoArchive::weaklyDominates(a, b, objectives));
  EXPECT_FALSE(ParetoArchive::weaklyDominates(b, a, objectives));
  // a and c trade power against area: neither dominates.
  EXPECT_FALSE(ParetoArchive::weaklyDominates(a, c, objectives));
  EXPECT_FALSE(ParetoArchive::weaklyDominates(c, a, objectives));
}

TEST(Pareto, DominanceRespectsObjectiveSubset) {
  const std::vector<Objective> powerOnly{Objective::kPowerMw};
  const PointEval a = makePoint("a", 1.0, 99.0, 99.0);
  const PointEval b = makePoint("b", 2.0, 1.0, 1.0);
  EXPECT_TRUE(ParetoArchive::weaklyDominates(a, b, powerOnly));
  EXPECT_FALSE(ParetoArchive::weaklyDominates(b, a, powerOnly));
}

TEST(Pareto, InsertKeepsOnlyNonDominatedFeasiblePoints) {
  ParetoArchive archive;
  EXPECT_TRUE(archive.insert(makePoint("a", 2.0, 10.0, 5.0)));
  // Dominated by a: rejected.
  EXPECT_FALSE(archive.insert(makePoint("b", 3.0, 11.0, 6.0)));
  // Duplicate objectives (weakly dominated): rejected.
  EXPECT_FALSE(archive.insert(makePoint("c", 2.0, 10.0, 5.0)));
  // Infeasible: rejected regardless of objectives.
  EXPECT_FALSE(archive.insert(makePoint("d", 0.1, 0.1, 0.1, false)));
  // Trade-off: accepted.
  EXPECT_TRUE(archive.insert(makePoint("e", 1.0, 20.0, 5.0)));
  // Dominates a: accepted, evicts a.
  EXPECT_TRUE(archive.insert(makePoint("f", 1.5, 9.0, 4.0)));

  const auto front = archive.front();
  ASSERT_EQ(front.size(), 2u);
  EXPECT_EQ(front[0].key, "e");  // Sorted by key.
  EXPECT_EQ(front[1].key, "f");
}

TEST(Pareto, FrontWeaklyDominatesQuery) {
  ParetoArchive archive;
  (void)archive.insert(makePoint("a", 1.0, 10.0, 5.0));
  const auto front = archive.front();
  EXPECT_TRUE(ParetoArchive::frontWeaklyDominates(
      front, makePoint("q", 2.0, 10.0, 5.0), archive.objectives()));
  EXPECT_FALSE(ParetoArchive::frontWeaklyDominates(
      front, makePoint("q", 0.5, 10.0, 5.0), archive.objectives()));
}

TEST(Pareto, RequirePostLayoutRejectsUnverifiedPoints) {
  ParetoArchive archive(allObjectives(), /*requirePostLayout=*/true);
  // Feasible but never re-confirmed post-layout: rejected.
  EXPECT_FALSE(archive.insert(makePoint("a", 1.0, 10.0, 5.0)));
  EXPECT_EQ(archive.size(), 0u);
  PointEval verified = makePoint("b", 2.0, 12.0, 6.0);
  verified.postLayoutPass = true;
  EXPECT_TRUE(archive.insert(verified));
  EXPECT_EQ(archive.size(), 1u);
  // The default archive keeps accepting unverified feasible points.
  ParetoArchive relaxed;
  EXPECT_TRUE(relaxed.insert(makePoint("a", 1.0, 10.0, 5.0)));
}

TEST(Pareto, ObjectiveNamesRoundTrip) {
  for (const Objective o : allObjectives()) {
    EXPECT_EQ(objectiveFromName(objectiveName(o)), o);
  }
  EXPECT_EQ(objectiveFromName("power"), Objective::kPowerMw);
  EXPECT_EQ(objectiveFromName("area"), Objective::kAreaUm2);
  EXPECT_EQ(objectiveFromName("noise"), Objective::kNoiseUv);
  EXPECT_THROW((void)objectiveFromName("speed"), std::invalid_argument);
  EXPECT_THROW(ParetoArchive(std::vector<Objective>{}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Spec space and grid machinery
// ---------------------------------------------------------------------------

ExploreSpace twoAxisSpace() {
  ExploreSpace space;
  space.axes.push_back({"gbw", 40e6, 80e6, 3});
  space.axes.push_back({"cload", 1e-12, 3e-12, 2});
  return space;
}

TEST(Space, ValidateRejectsDegenerateSpaces) {
  EXPECT_THROW(validateSpace(ExploreSpace{}), std::invalid_argument);

  ExploreSpace unknown;
  unknown.axes.push_back({"frequency", 0.0, 1.0, 2});
  EXPECT_THROW(validateSpace(unknown), std::invalid_argument);

  ExploreSpace inverted;
  inverted.axes.push_back({"gbw", 80e6, 40e6, 3});
  EXPECT_THROW(validateSpace(inverted), std::invalid_argument);

  ExploreSpace onePoint;
  onePoint.axes.push_back({"gbw", 40e6, 80e6, 1});
  EXPECT_THROW(validateSpace(onePoint), std::invalid_argument);

  ExploreSpace duplicate;
  duplicate.axes.push_back({"gbw", 40e6, 80e6, 2});
  duplicate.axes.push_back({"gbw", 40e6, 80e6, 2});
  EXPECT_THROW(validateSpace(duplicate), std::invalid_argument);

  EXPECT_NO_THROW(validateSpace(twoAxisSpace()));
}

TEST(Space, SeedGridIsRowMajorWithExactEndpoints) {
  const auto grid = seedGrid(twoAxisSpace());
  ASSERT_EQ(grid.size(), 6u);  // 3 x 2, last axis fastest.
  EXPECT_EQ(grid[0], (std::vector<double>{40e6, 1e-12}));
  EXPECT_EQ(grid[1], (std::vector<double>{40e6, 3e-12}));
  EXPECT_EQ(grid[2], (std::vector<double>{60e6, 1e-12}));
  EXPECT_EQ(grid[5], (std::vector<double>{80e6, 3e-12}));
}

TEST(Space, CoordKeyIsCanonicalAndInjective) {
  EXPECT_EQ(coordKey({40e6, 1e-12}), coordKey({40e6, 1e-12}));
  EXPECT_NE(coordKey({40e6, 1e-12}), coordKey({40e6, 2e-12}));
  EXPECT_NE(coordKey({1.0, 2.0}), coordKey({1.0}));
}

TEST(Space, SpecsAtOverridesOnlyTheAxisFields) {
  const ExploreSpace space = twoAxisSpace();
  const sizing::OtaSpecs specs = specsAt(space, {50e6, 2e-12});
  EXPECT_DOUBLE_EQ(specs.gbw, 50e6);
  EXPECT_DOUBLE_EQ(specs.cload, 2e-12);
  EXPECT_DOUBLE_EQ(specs.vdd, sizing::OtaSpecs{}.vdd);
  EXPECT_DOUBLE_EQ(specs.phaseMarginDeg, sizing::OtaSpecs{}.phaseMarginDeg);
}

TEST(Space, CellsCornersLatticeAndSplit) {
  const auto cells = seedCells(twoAxisSpace());
  ASSERT_EQ(cells.size(), 2u);  // (3-1) x (2-1) intervals.
  EXPECT_EQ(cells[0].lo, (std::vector<double>{40e6, 1e-12}));
  EXPECT_EQ(cells[0].hi, (std::vector<double>{60e6, 3e-12}));
  EXPECT_EQ(cells[1].lo, (std::vector<double>{60e6, 1e-12}));

  const auto corners = cellCorners(cells[0]);
  ASSERT_EQ(corners.size(), 4u);  // 2^2.
  EXPECT_EQ(corners[0], (std::vector<double>{40e6, 1e-12}));
  EXPECT_EQ(corners[3], (std::vector<double>{60e6, 3e-12}));

  const auto lattice = cellLattice(cells[0]);
  ASSERT_EQ(lattice.size(), 9u);  // 3^2 including corners.
  EXPECT_EQ(lattice[4], (std::vector<double>{50e6, 2e-12}));  // Centre.

  const auto children = splitCell(cells[0]);
  ASSERT_EQ(children.size(), 4u);  // 2^2.
  for (const Cell& child : children) {
    EXPECT_EQ(child.level, 1);
    for (std::size_t k = 0; k < child.lo.size(); ++k) {
      EXPECT_GE(child.lo[k], cells[0].lo[k]);
      EXPECT_LE(child.hi[k], cells[0].hi[k]);
      EXPECT_LT(child.lo[k], child.hi[k]);
    }
  }
}

// ---------------------------------------------------------------------------
// Explorer over a real scheduler (case 1 for speed; generous tolerance so
// the fast sizing case still counts as feasible).
// ---------------------------------------------------------------------------

ExploreSpace quickSpace() {
  ExploreSpace space;
  space.engineOptions.sizingCase = core::SizingCase::kCase1;
  space.axes.push_back({"gbw", 50e6, 65e6, 2});
  return space;
}

ExploreOptions quickOptions() {
  ExploreOptions options;
  options.budget = 5;
  options.maxRounds = 2;
  options.specTolerance = 0.2;
  return options;
}

class ExplorerTest : public ::testing::Test {
 protected:
  ExplorerTest() : scheduler_(tech::Technology::generic060(), singleThread()) {}
  static service::SchedulerOptions singleThread() {
    service::SchedulerOptions options;
    options.threads = 1;
    return options;
  }
  service::JobScheduler scheduler_;
};

TEST_F(ExplorerTest, SeedAndRefineUnderBudgetDeterministically) {
  Explorer first(scheduler_, quickSpace(), quickOptions());
  const ExploreResult a = first.run();

  EXPECT_GT(a.evaluations, 2);  // Seed (2) plus at least one refinement.
  EXPECT_LE(a.evaluations, quickOptions().budget);
  EXPECT_EQ(a.points.size(), static_cast<std::size_t>(a.evaluations));
  EXPECT_FALSE(a.front.empty());
  EXPECT_FALSE(a.seedFront.empty());
  EXPECT_GE(a.rounds, 1);

  // The final front weakly dominates the coarse-grid front.
  for (const PointEval& p : a.seedFront) {
    EXPECT_TRUE(ParetoArchive::frontWeaklyDominates(a.front, p,
                                                    quickOptions().objectives))
        << p.key;
  }

  // A second run on the warm scheduler is bit-identical: budget counts
  // distinct points whether or not they hit the cache.
  Explorer second(scheduler_, quickSpace(), quickOptions());
  const ExploreResult b = second.run();
  EXPECT_EQ(b.evaluations, a.evaluations);
  EXPECT_GT(b.cacheHits, 0);
  EXPECT_EQ(frontCsv(b, quickSpace()), frontCsv(a, quickSpace()));

  // Progress reached its terminal phase.
  EXPECT_EQ(second.progress().phase, ExplorePhase::kDone);
  EXPECT_EQ(second.progress().evaluated, b.evaluations);
}

TEST_F(ExplorerTest, BudgetIsAHardCeiling) {
  ExploreOptions options = quickOptions();
  options.budget = 1;  // Cannot even finish the 2-point seed grid.
  Explorer explorer(scheduler_, quickSpace(), options);
  const ExploreResult result = explorer.run();
  EXPECT_EQ(result.evaluations, 1);
  EXPECT_TRUE(result.budgetExhausted);
  EXPECT_EQ(result.rounds, 0);
}

TEST_F(ExplorerTest, InvalidSpaceAndBudgetThrow) {
  Explorer noAxes(scheduler_, ExploreSpace{}, quickOptions());
  EXPECT_THROW((void)noAxes.run(), std::invalid_argument);

  ExploreOptions zeroBudget = quickOptions();
  zeroBudget.budget = 0;
  Explorer broke(scheduler_, quickSpace(), zeroBudget);
  EXPECT_THROW((void)broke.run(), std::invalid_argument);
}

TEST_F(ExplorerTest, CsvExportHasAxisColumnsAndOneRowPerFrontPoint) {
  Explorer explorer(scheduler_, quickSpace(), quickOptions());
  const ExploreResult result = explorer.run();
  const std::string csv = frontCsv(result, quickSpace());
  EXPECT_EQ(csv.rfind("gbw,power_mw,area_um2,noise_uv,gbw_hz,", 0), 0u);
  std::size_t lines = 0;
  for (const char ch : csv) lines += ch == '\n';
  EXPECT_EQ(lines, result.front.size() + 1);  // Header + one per point.

  const Json j = frontJson(result, quickSpace(), quickOptions());
  EXPECT_EQ(j.at("front").items().size(), result.front.size());
  EXPECT_EQ(j.at("evaluations").asInt(), result.evaluations);
  EXPECT_EQ(j.at("axes").items().size(), 1u);
  // Every exported front member carries its convergence verdict (and only
  // converged points ever reach the front).
  for (const Json& point : j.at("front").items()) {
    EXPECT_TRUE(point.at("converged").asBool());
  }
}

TEST_F(ExplorerTest, UnconvergedPointsAreExcludedFromTheFront) {
  ExploreSpace space = quickSpace();
  // Case 4 runs the parasitic loop; a zero tolerance guarantees it falls
  // out of the call cap still moving, so the watchdog flags every point.
  space.engineOptions.sizingCase = core::SizingCase::kCase4;
  space.engineOptions.convergenceTol = 0.0;
  space.engineOptions.maxLayoutCalls = 2;
  Explorer explorer(scheduler_, space, quickOptions());
  const ExploreResult result = explorer.run();

  EXPECT_GT(result.evaluations, 0);
  EXPECT_TRUE(result.front.empty());
  for (const PointEval& p : result.points) {
    EXPECT_TRUE(p.ok) << p.error;       // The jobs themselves succeeded...
    EXPECT_FALSE(p.converged);          // ...but never reached a fixed point,
    EXPECT_FALSE(p.feasible) << p.key;  // so none may anchor the front.
  }
}

TEST_F(ExplorerTest, ManagerRunsInBackgroundAndReportsSnapshots) {
  ExploreManager manager(scheduler_);
  const std::uint64_t id = manager.start(quickSpace(), quickOptions());
  const ExploreManager::Outcome outcome = manager.wait(id);
  EXPECT_TRUE(outcome.ok) << outcome.error;
  EXPECT_FALSE(outcome.result.front.empty());

  const auto snapshots = manager.snapshots();
  ASSERT_EQ(snapshots.size(), 1u);
  EXPECT_EQ(snapshots[0].id, id);
  EXPECT_TRUE(snapshots[0].done);
  EXPECT_EQ(snapshots[0].progress.phase, ExplorePhase::kDone);

  EXPECT_THROW((void)manager.wait(999), std::invalid_argument);
}

TEST_F(ExplorerTest, ManagerSurfacesFailuresAsOutcomes) {
  ExploreManager manager(scheduler_);
  const std::uint64_t id = manager.start(ExploreSpace{}, quickOptions());
  const ExploreManager::Outcome outcome = manager.wait(id);
  EXPECT_FALSE(outcome.ok);
  EXPECT_FALSE(outcome.error.empty());
}

// ---------------------------------------------------------------------------
// Protocol ops
// ---------------------------------------------------------------------------

TEST(ExploreOps, SpaceAndOptionsParseFromJson) {
  const Json request = Json::parse(R"({
    "op": "explore", "case": "case2", "corner": "ss",
    "spec": {"vdd": 3.0},
    "axes": [{"field": "gbw", "lo": 4e7, "hi": 8e7, "points": 4}],
    "budget": 10, "max_rounds": 2, "tolerance": 0.1,
    "objectives": ["power", "noise"]})");
  const ExploreSpace space = spaceFromJson(request);
  EXPECT_EQ(space.engineOptions.sizingCase, core::SizingCase::kCase2);
  EXPECT_EQ(space.corner, tech::ProcessCorner::kSlow);
  EXPECT_DOUBLE_EQ(space.base.vdd, 3.0);
  ASSERT_EQ(space.axes.size(), 1u);
  EXPECT_EQ(space.axes[0].points, 4);

  const ExploreOptions options = optionsFromJson(request);
  EXPECT_EQ(options.budget, 10);
  EXPECT_EQ(options.maxRounds, 2);
  EXPECT_DOUBLE_EQ(options.specTolerance, 0.1);
  ASSERT_EQ(options.objectives.size(), 2u);
  EXPECT_EQ(options.objectives[0], Objective::kPowerMw);
  EXPECT_EQ(options.objectives[1], Objective::kNoiseUv);
  EXPECT_FALSE(options.requirePostLayout);  // Off unless requested.

  const ExploreOptions withPlv = optionsFromJson(Json::parse(
      R"({"budget": 4, "require_post_layout": true})"));
  EXPECT_TRUE(withPlv.requirePostLayout);
}

TEST(ExploreOps, ParsersRejectBadRequests) {
  EXPECT_THROW((void)spaceFromJson(Json::parse(R"({"op":"explore"})")),
               std::invalid_argument);
  EXPECT_THROW(
      (void)spaceFromJson(Json::parse(
          R"({"axes":[{"field":"nope","lo":0,"hi":1,"points":2}]})")),
      std::invalid_argument);
  EXPECT_THROW(
      (void)optionsFromJson(Json::parse(R"({"budget":-1})")),
      std::invalid_argument);
  EXPECT_THROW(
      (void)optionsFromJson(Json::parse(R"({"objectives":[]})")),
      std::invalid_argument);
}

TEST(ExploreOps, EndToEndOverTheProtocol) {
  service::SchedulerOptions schedulerOptions;
  schedulerOptions.threads = 1;
  service::JobScheduler scheduler(tech::Technology::generic060(), schedulerOptions);
  service::ServiceProtocol protocol(scheduler);
  ExploreManager manager(scheduler);
  installExploreOps(protocol, manager);

  const Json sync = Json::parse(protocol.handleLine(
      R"({"op":"explore","case":1,"budget":3,"max_rounds":1,"tolerance":0.2,)"
      R"("axes":[{"field":"gbw","lo":5e7,"hi":6.5e7,"points":2}],"csv":true})"));
  ASSERT_TRUE(sync.at("ok").asBool()) << sync.dump();
  EXPECT_EQ(sync.at("explore_id").asUint64(), 1u);
  EXPECT_FALSE(sync.at("front").items().empty());
  EXPECT_EQ(sync.at("csv").asString().rfind("gbw,power_mw", 0), 0u);

  // explore_result re-serves the finished exploration.
  const Json again = Json::parse(
      protocol.handleLine(R"({"op":"explore_result","explore_id":1})"));
  ASSERT_TRUE(again.at("ok").asBool());
  EXPECT_EQ(again.at("front").dump(), sync.at("front").dump());

  // The stats section lists it as done.
  const Json stats = Json::parse(protocol.handleLine(R"({"op":"stats"})"));
  const Json& explorations = stats.at("stats").at("explorations");
  ASSERT_EQ(explorations.items().size(), 1u);
  EXPECT_EQ(explorations.items()[0].at("phase").asString(), "done");

  // Bad requests answer structured errors through the protocol layer.
  const Json bad = Json::parse(protocol.handleLine(R"({"op":"explore"})"));
  EXPECT_FALSE(bad.at("ok").asBool(true));
  const Json unknownId = Json::parse(
      protocol.handleLine(R"({"op":"explore_result","explore_id":77})"));
  EXPECT_FALSE(unknownId.at("ok").asBool(true));
}

}  // namespace
}  // namespace lo::explore
