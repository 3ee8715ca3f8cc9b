// Tests for the lo_cluster layer: the consistent-hash ring's balance and
// stability properties, ShardProcess's POSIX lifecycle (spawn, round
// trip, EOF on death, timeout on wedge), and -- when a losynthd binary is
// available (LOSYNTHD_BIN, or the build-time default) -- a real
// multi-process ClusterRouter end to end: duplicate co-location, sweep
// partitioning, aggregated stats, structured errors, kill-one-shard
// revival, and the failure paths of sweep fan-out and multiplexed wait.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/process.hpp"
#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "service/json.hpp"

namespace lo::cluster {
namespace {

using service::Json;

// ---------------------------------------------------------------- ring --

TEST(ShardRingTest, SpreadsKeysAcrossEveryShard) {
  const int shards = 4;
  ShardRing ring(shards);
  std::map<int, int> perShard;
  const int keys = 2000;
  for (int i = 0; i < keys; ++i) {
    const int owner = ring.ownerOf("key-" + std::to_string(i));
    ASSERT_GE(owner, 0);
    ASSERT_LT(owner, shards);
    ++perShard[owner];
  }
  // 64 vnodes per shard keeps the split well away from degenerate; demand
  // every shard owns at least 5% of a uniform key population.
  for (int s = 0; s < shards; ++s) {
    EXPECT_GT(perShard[s], keys / 20) << "shard " << s << " owns almost nothing";
  }
}

TEST(ShardRingTest, RoutingIsStableAndDeterministic) {
  ShardRing ring(3);
  const std::vector<bool> allAlive(3, true);
  for (int i = 0; i < 200; ++i) {
    const std::string key = "job-" + std::to_string(i);
    EXPECT_EQ(ring.ownerOf(key), ring.ownerOf(key));
    // With everyone alive the route IS the owner.
    EXPECT_EQ(ring.routeOf(key, allAlive), ring.ownerOf(key));
  }
}

TEST(ShardRingTest, DeadShardMovesOnlyItsOwnKeys) {
  ShardRing ring(4);
  std::vector<bool> alive(4, true);
  alive[2] = false;
  int moved = 0;
  for (int i = 0; i < 1000; ++i) {
    const std::string key = "key-" + std::to_string(i);
    const int home = ring.ownerOf(key);
    const int route = ring.routeOf(key, alive);
    ASSERT_GE(route, 0);
    ASSERT_NE(route, 2);
    if (home == 2) {
      ++moved;
    } else {
      // The failure of shard 2 must be invisible to everyone else's keys.
      EXPECT_EQ(route, home);
    }
  }
  EXPECT_GT(moved, 0) << "shard 2 owned no keys at all";
}

TEST(ShardRingTest, AddShardMatchesARingBuiltAtThatSizeUpFront) {
  ShardRing grown(3);
  EXPECT_EQ(grown.addShard(), 3);
  const ShardRing built(4);
  // Elastic growth is deterministic: the grown ring is indistinguishable
  // from one constructed with four shards, so every router that performs
  // the same `add` sequence routes identically.
  for (int i = 0; i < 500; ++i) {
    const std::string key = "key-" + std::to_string(i);
    EXPECT_EQ(grown.ownerOf(key), built.ownerOf(key)) << key;
  }
}

TEST(ShardRingTest, AllDeadRoutesNowhereAndBadArgsThrow) {
  ShardRing ring(2);
  EXPECT_EQ(ring.routeOf("k", {false, false}), -1);
  EXPECT_THROW(ShardRing(0), std::invalid_argument);
  EXPECT_THROW(ShardRing(2, 0), std::invalid_argument);
  EXPECT_THROW((void)ring.routeOf("k", {true}), std::invalid_argument);
}

// ------------------------------------------------------------- process --

TEST(ShardProcessTest, EchoRoundTripThenCleanTerminate) {
  ShardProcess child;
  child.spawn({"sh", "-c", "while read line; do echo \"ack $line\"; done"});
  ASSERT_TRUE(child.running());
  ASSERT_TRUE(child.writeLine("hello"));
  std::string line;
  ASSERT_EQ(child.readLine(line, 10.0), ReadStatus::kOk);
  EXPECT_EQ(line, "ack hello");
  ASSERT_TRUE(child.writeLine("again"));
  ASSERT_EQ(child.readLine(line, 10.0), ReadStatus::kOk);
  EXPECT_EQ(line, "ack again");
  // terminate closes the child's stdin; the read loop ends and it exits.
  child.terminate(5.0);
  EXPECT_FALSE(child.running());
}

TEST(ShardProcessTest, DeathSurfacesAsEofNotAHang) {
  ShardProcess child;
  child.spawn({"sh", "-c", "read one; echo got; exit 0"});
  ASSERT_TRUE(child.writeLine("x"));
  std::string line;
  ASSERT_EQ(child.readLine(line, 10.0), ReadStatus::kOk);
  EXPECT_EQ(line, "got");
  // The child has exited; the next read must be an EOF, promptly.
  EXPECT_EQ(child.readLine(line, 10.0), ReadStatus::kEof);
}

TEST(ShardProcessTest, WedgedChildTimesOutAndKill9Reaps) {
  ShardProcess child;
  // exec, so the SIGKILL reaches the sleeper itself: a forked grandchild
  // would outlive sh and hold the test's inherited stderr open.
  child.spawn({"sh", "-c", "exec sleep 30"});
  std::string line;
  EXPECT_EQ(child.readLine(line, 0.2), ReadStatus::kTimeout);
  child.kill9();
  EXPECT_FALSE(child.running());
  EXPECT_FALSE(child.writeLine("dead"));
}

TEST(ShardProcessTest, ExecFailureIsAnImmediateEof) {
  ShardProcess child;
  child.spawn({"/nonexistent/definitely-not-a-binary"});
  std::string line;
  EXPECT_EQ(child.readLine(line, 10.0), ReadStatus::kEof);
}

// -------------------------------------------------------------- router --

#ifndef LOSYNTHD_BIN_PATH
#define LOSYNTHD_BIN_PATH ""
#endif

std::string losynthdBin() {
  if (const char* env = std::getenv("LOSYNTHD_BIN")) return env;
  return LOSYNTHD_BIN_PATH;
}

class ClusterRouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    bin_ = losynthdBin();
    if (bin_.empty() || !std::filesystem::exists(bin_)) {
      GTEST_SKIP() << "losynthd binary not available (set LOSYNTHD_BIN)";
    }
    scratch_ = std::filesystem::path(::testing::TempDir()) /
               ("cluster_router_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(scratch_);
  }

  void TearDown() override {
    if (!scratch_.empty()) std::filesystem::remove_all(scratch_);
  }

  RouterOptions makeOptions(int shards) const {
    RouterOptions options;
    options.workerArgv = {bin_, "--threads", "1"};
    options.shards = shards;
    options.journalRoot = (scratch_ / "journals").string();
    options.cacheDir = (scratch_ / "cache").string();
    options.requestTimeoutSeconds = 120.0;
    return options;
  }

  static Json call(ClusterRouter& router, const std::string& line) {
    return Json::parse(router.handleLine(line));
  }

  static std::string synthLine(int gbwMHz) {
    return R"({"op":"synthesize","case":1,"summary":true,"spec":{"gbw":)" +
           std::to_string(gbwMHz) + R"(e6}})";
  }

  /// A summary sweep of case-1 points, entry i labelled "g<gbws[i]>".
  static std::string sweepLine(const std::vector<int>& gbws) {
    Json jobs = Json::array();
    for (int gbw : gbws) {
      Json job = Json::object();
      job.set("case", 1);
      job.set("label", "g" + std::to_string(gbw));
      Json spec = Json::object();
      spec.set("gbw", static_cast<double>(gbw) * 1e6);
      job.set("spec", std::move(spec));
      jobs.push(std::move(job));
    }
    Json request = Json::object();
    request.set("op", "sweep");
    request.set("summary", true);
    request.set("jobs", std::move(jobs));
    return request.dump();
  }

  /// Each outcome's shard, after asserting it succeeded under its label.
  static std::vector<int> sweepShards(const Json& response,
                                      const std::vector<int>& gbws) {
    std::vector<int> shards;
    EXPECT_TRUE(response.at("ok").asBool()) << response.dump();
    const auto& outcomes = response.at("outcomes").items();
    EXPECT_EQ(outcomes.size(), gbws.size());
    for (std::size_t i = 0; i < outcomes.size() && i < gbws.size(); ++i) {
      EXPECT_TRUE(outcomes[i].at("ok").asBool()) << outcomes[i].dump();
      EXPECT_EQ(outcomes[i].at("label").asString(), "g" + std::to_string(gbws[i]));
      shards.push_back(outcomes[i].at("shard").asInt(-1));
    }
    return shards;
  }

  std::string bin_;
  std::filesystem::path scratch_;
};

TEST_F(ClusterRouterTest, DuplicatesLandOnTheSameShardAndHitItsCache) {
  ClusterRouter router(makeOptions(2));
  const Json first = call(router, synthLine(61));
  ASSERT_TRUE(first.at("ok").asBool()) << first.dump();
  EXPECT_EQ(first.at("state").asString(), "done");
  EXPECT_FALSE(first.at("cache_hit").asBool());
  ASSERT_FALSE(first.at("cache_key").asString().empty());
  // summary:true drops the heavy body but the result stays addressable.
  EXPECT_EQ(first.find("result"), nullptr);

  const Json second = call(router, synthLine(61));
  ASSERT_TRUE(second.at("ok").asBool()) << second.dump();
  EXPECT_TRUE(second.at("cache_hit").asBool());
  EXPECT_EQ(second.at("shard").asInt(-1), first.at("shard").asInt(-2));
  EXPECT_EQ(second.at("cache_key").asString(), first.at("cache_key").asString());
}

TEST_F(ClusterRouterTest, SweepPartitionsAcrossShardsAndKeepsRequestOrder) {
  ClusterRouter router(makeOptions(2));
  const std::vector<int> gbws{62, 63, 64, 62, 63, 64};
  const Json response = call(router, sweepLine(gbws));
  // Outcomes come back in request order: every label still matches.
  (void)sweepShards(response, gbws);
  const auto& outcomes = response.at("outcomes").items();
  ASSERT_EQ(outcomes.size(), 6u);
  std::set<std::uint64_t> ids;
  std::map<std::string, int> keyShard;
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    const Json& outcome = outcomes[i];
    ids.insert(outcome.at("id").asUint64());
    const std::string key = outcome.at("cache_key").asString();
    ASSERT_FALSE(key.empty());
    const int shard = outcome.at("shard").asInt(-1);
    const auto prior = keyShard.find(key);
    if (prior != keyShard.end()) {
      // A duplicated design point must have been computed on one shard.
      EXPECT_EQ(prior->second, shard);
    } else {
      keyShard[key] = shard;
    }
  }
  // Router ids are globally unique even though shards number independently.
  EXPECT_EQ(ids.size(), 6u);
  EXPECT_EQ(keyShard.size(), 3u);
}

TEST_F(ClusterRouterTest, AsyncAckThenWaitCrossesTheIdMap) {
  ClusterRouter router(makeOptions(2));
  const Json ack = call(
      router,
      R"({"op":"synthesize","async":true,"case":1,"spec":{"gbw":65e6}})");
  ASSERT_TRUE(ack.at("ok").asBool()) << ack.dump();
  const std::uint64_t id = ack.at("id").asUint64();
  ASSERT_GT(id, 0u);
  ASSERT_FALSE(ack.at("cache_key").asString().empty());

  Json wait = Json::object();
  wait.set("op", "wait");
  wait.set("id", id);
  wait.set("summary", true);
  const Json done = call(router, wait.dump());
  ASSERT_TRUE(done.at("ok").asBool()) << done.dump();
  EXPECT_EQ(done.at("id").asUint64(), id);
  EXPECT_EQ(done.at("state").asString(), "done");
  EXPECT_EQ(done.at("shard").asInt(-1), ack.at("shard").asInt(-2));

  const Json unknown = call(router, R"({"op":"wait","id":999999})");
  EXPECT_FALSE(unknown.at("ok").asBool());
}

TEST_F(ClusterRouterTest, UnknownOpAnswersTheStructuredShape) {
  ClusterRouter router(makeOptions(1));
  const Json response = call(router, R"({"op":"zap"})");
  ASSERT_FALSE(response.at("ok").asBool());
  const Json& error = response.at("error");
  ASSERT_TRUE(error.isObject()) << response.dump();
  EXPECT_EQ(error.at("code").asString(), "unknown_op");
  EXPECT_NE(error.at("message").asString().find("zap"), std::string::npos);
  bool sawSweep = false;
  for (const Json& op : error.at("known_ops").items()) {
    if (op.asString() == "sweep") sawSweep = true;
  }
  EXPECT_TRUE(sawSweep);
}

TEST_F(ClusterRouterTest, RegisteredOpsForwardToShardsWithoutRouterChanges) {
  // The router predates the "verify" op and has no handler for it; the
  // forwarding tail must land it on a shard, whose own registered handler
  // answers -- growing the protocol needs no router release.
  ClusterRouter router(makeOptions(1));
  const Json response = call(
      router, R"({"op":"verify","label":"fv","case":"case1","summary":true})");
  ASSERT_TRUE(response.at("ok").asBool()) << response.dump();
  EXPECT_EQ(response.at("state").asString(), "done");
  EXPECT_TRUE(response.at("post_layout_ran").asBool());
  EXPECT_TRUE(response.at("verification").isObject());
  EXPECT_GE(response.at("shard").asInt(-1), 0);

  // Shard-side failures come back as the shard's own error, stamped with
  // the shard that answered.
  const Json bad =
      call(router, R"({"op":"verify","label":"bad","spec":{"nope":1}})");
  EXPECT_FALSE(bad.at("ok").asBool());
  EXPECT_GE(bad.at("shard").asInt(-1), 0);
}

TEST_F(ClusterRouterTest, StatsAggregateClusterTotalsAndPerShardSections) {
  ClusterRouter router(makeOptions(2));
  ASSERT_TRUE(call(router, synthLine(66)).at("ok").asBool());
  ASSERT_TRUE(call(router, synthLine(67)).at("ok").asBool());

  const Json response = call(router, R"({"op":"stats"})");
  ASSERT_TRUE(response.at("ok").asBool()) << response.dump();
  const Json& stats = response.at("stats");
  EXPECT_GE(stats.at("cluster").at("jobs").at("submitted").asUint64(), 2u);
  EXPECT_NE(stats.at("shards").find("shard0"), nullptr);
  EXPECT_NE(stats.at("shards").find("shard1"), nullptr);
  EXPECT_EQ(stats.at("router").at("shards").asUint64(), 2u);
  EXPECT_EQ(stats.at("router").at("transport_errors").asUint64(), 0u);
}

TEST_F(ClusterRouterTest, KilledShardIsRevivedOnTheNextRequestItOwns) {
  ClusterRouter router(makeOptions(2));
  const Json first = call(router, synthLine(68));
  ASSERT_TRUE(first.at("ok").asBool()) << first.dump();
  const int shard = first.at("shard").asInt(-1);
  ASSERT_GE(shard, 0);

  router.killShard(shard);
  // The kill is asynchronous only in the narrow sense that the router has
  // not looked yet; the resend below forces it to look.
  const Json second = call(router, synthLine(68));
  ASSERT_TRUE(second.at("ok").asBool()) << second.dump();
  EXPECT_TRUE(second.at("cache_hit").asBool())
      << "the dead shard's result was lost: " << second.dump();
  EXPECT_EQ(router.restarts(), 1u);

  const Json health = call(router, R"({"op":"health"})");
  ASSERT_TRUE(health.at("ok").asBool());
  EXPECT_TRUE(health.at("health").at("cluster").at("all_alive").asBool())
      << health.dump();
}

TEST_F(ClusterRouterTest, SecondRapidDeathBacksOffAndReroutes) {
  RouterOptions options = makeOptions(2);
  options.restartBackoffBaseSeconds = 0.6;
  ClusterRouter router(options);
  const Json first = call(router, synthLine(68));
  ASSERT_TRUE(first.at("ok").asBool()) << first.dump();
  const int victim = first.at("shard").asInt(-1);
  ASSERT_GE(victim, 0);

  // First death in the streak: the revive is immediate.
  router.killShard(victim);
  const Json second = call(router, synthLine(68));
  ASSERT_TRUE(second.at("ok").asBool()) << second.dump();
  EXPECT_EQ(second.at("shard").asInt(-1), victim);
  EXPECT_EQ(router.restarts(), 1u);

  // Second death moments later: the revive is deferred by the backoff
  // (0.45--0.75s at base 0.6), so the victim's keys re-route to the
  // survivor, which peer-fills from the shared store.
  router.killShard(victim);
  const Json third = call(router, synthLine(68));
  ASSERT_TRUE(third.at("ok").asBool()) << third.dump();
  EXPECT_NE(third.at("shard").asInt(-1), victim);
  EXPECT_TRUE(third.at("cache_hit").asBool()) << third.dump();
  EXPECT_EQ(router.restarts(), 1u);
  EXPECT_GE(router.rerouted(), 1u);

  // Restart hygiene is health-visible: reason, bounded history, and the
  // remaining backoff window.
  const Json health = call(router, R"({"op":"health"})");
  ASSERT_TRUE(health.at("ok").asBool());
  const Json& entry =
      health.at("health").at("shards").at("shard" + std::to_string(victim));
  EXPECT_FALSE(entry.at("alive").asBool());
  EXPECT_TRUE(entry.at("member").asBool());
  EXPECT_FALSE(entry.at("last_restart_reason").asString().empty());
  EXPECT_GE(entry.at("restart_history").items().size(), 2u);
  EXPECT_GT(entry.at("backoff_seconds").asDouble(), 0.0) << entry.dump();

  // Past the backoff window the next owned request revives it again.
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));
  const Json fourth = call(router, synthLine(68));
  ASSERT_TRUE(fourth.at("ok").asBool()) << fourth.dump();
  EXPECT_EQ(fourth.at("shard").asInt(-1), victim);
  EXPECT_EQ(router.restarts(), 2u);
}

TEST_F(ClusterRouterTest, MultiplexedWaitResolvesManyIdsAcrossShards) {
  ClusterRouter router(makeOptions(2));
  std::vector<std::uint64_t> ids;
  for (int gbw : {71, 72, 73, 74}) {
    const Json ack =
        call(router, R"({"op":"synthesize","async":true,"case":1,"spec":{"gbw":)" +
                         std::to_string(gbw) + R"(e6}})");
    ASSERT_TRUE(ack.at("ok").asBool()) << ack.dump();
    ids.push_back(ack.at("id").asUint64());
  }

  // Scrambled order plus one unknown id: outcomes come back in request
  // order, each stamped with its router id; the unknown id fails alone
  // without poisoning the batch.
  Json wait = Json::object();
  wait.set("op", "wait");
  Json list = Json::array();
  for (const std::size_t i : {2u, 0u, 3u, 1u}) list.push(ids[i]);
  list.push(std::uint64_t{999999});
  wait.set("ids", std::move(list));
  const Json response = call(router, wait.dump());
  ASSERT_TRUE(response.at("ok").asBool()) << response.dump();
  const auto& outcomes = response.at("outcomes").items();
  ASSERT_EQ(outcomes.size(), 5u);
  const std::vector<std::uint64_t> expected{ids[2], ids[0], ids[3], ids[1]};
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_TRUE(outcomes[i].at("ok").asBool()) << outcomes[i].dump();
    EXPECT_EQ(outcomes[i].at("id").asUint64(), expected[i]);
    EXPECT_EQ(outcomes[i].at("state").asString(), "done");
  }
  EXPECT_FALSE(outcomes[4].at("ok").asBool());

  // An empty or missing ids array is a request error, not a crash.
  EXPECT_FALSE(call(router, R"({"op":"wait","ids":[]})").at("ok").asBool());
}

TEST_F(ClusterRouterTest, DrainMovesWorkAndResolvesItsIdsOnSurvivors) {
  ClusterRouter router(makeOptions(2));
  struct Tracked {
    std::uint64_t id = 0;
    int shard = -1;
  };
  std::vector<Tracked> jobs;
  for (int gbw : {75, 76, 77, 78, 79, 80}) {
    const Json ack =
        call(router, R"({"op":"synthesize","async":true,"case":1,"spec":{"gbw":)" +
                         std::to_string(gbw) + R"(e6}})");
    ASSERT_TRUE(ack.at("ok").asBool()) << ack.dump();
    jobs.push_back({ack.at("id").asUint64(), ack.at("shard").asInt(-1)});
  }
  const int victim = jobs.front().shard;

  Json drain = Json::object();
  drain.set("op", "drain");
  drain.set("shard", victim);
  const Json drained = call(router, drain.dump());
  ASSERT_TRUE(drained.at("ok").asBool()) << drained.dump();
  EXPECT_EQ(drained.at("drained").asInt(-1), victim);
  EXPECT_EQ(drained.at("members").asUint64(), 1u);
  EXPECT_EQ(router.drains(), 1u);

  // Every id resolves -- the ones mapped to the drained shard on its
  // inheritor, never as an error.  That is the satellite regression: a
  // wait/cancel across a drain must re-pin, not 404.
  for (const Tracked& job : jobs) {
    Json wait = Json::object();
    wait.set("op", "wait");
    wait.set("id", job.id);
    wait.set("summary", true);
    const Json done = call(router, wait.dump());
    ASSERT_TRUE(done.at("ok").asBool()) << done.dump();
    EXPECT_EQ(done.at("state").asString(), "done");
    EXPECT_NE(done.at("shard").asInt(-1), victim);
    EXPECT_EQ(done.at("id").asUint64(), job.id);
  }
  // Cancel of a drained-shard id: already done, so cancelled:false -- the
  // same answer its original shard would have given.
  Json cancel = Json::object();
  cancel.set("op", "cancel");
  cancel.set("id", jobs.front().id);
  const Json cancelled = call(router, cancel.dump());
  ASSERT_TRUE(cancelled.at("ok").asBool()) << cancelled.dump();
  EXPECT_FALSE(cancelled.at("cancelled").asBool());

  // A drained member is out of the ring but not "down": the cluster is
  // healthy at one member.
  const Json health = call(router, R"({"op":"health"})");
  const Json& cluster = health.at("health").at("cluster");
  EXPECT_EQ(cluster.at("members").asUint64(), 1u);
  EXPECT_TRUE(cluster.at("all_alive").asBool()) << health.dump();
  EXPECT_FALSE(health.at("health")
                   .at("shards")
                   .at("shard" + std::to_string(victim))
                   .at("member")
                   .asBool());

  // The last member must refuse to drain.
  Json last = Json::object();
  last.set("op", "drain");
  last.set("shard", 1 - victim);
  EXPECT_FALSE(call(router, last.dump()).at("ok").asBool());

  // Re-admission restores the two-member ring and the shard serves again.
  Json add = Json::object();
  add.set("op", "add");
  add.set("shard", victim);
  const Json added = call(router, add.dump());
  ASSERT_TRUE(added.at("ok").asBool()) << added.dump();
  EXPECT_EQ(added.at("members").asUint64(), 2u);
  EXPECT_EQ(router.adds(), 1u);
  ASSERT_TRUE(call(router, synthLine(81)).at("ok").asBool());
  EXPECT_TRUE(call(router, R"({"op":"health"})")
                  .at("health")
                  .at("cluster")
                  .at("all_alive")
                  .asBool());
}

TEST_F(ClusterRouterTest, AddGrowsTheRingWithABrandNewShard) {
  ClusterRouter router(makeOptions(2));
  const Json added = call(router, R"({"op":"add"})");
  ASSERT_TRUE(added.at("ok").asBool()) << added.dump();
  EXPECT_EQ(added.at("shard").asInt(-1), 2);
  EXPECT_EQ(added.at("members").asUint64(), 3u);
  EXPECT_EQ(router.shardCount(), 3);

  ASSERT_TRUE(call(router, synthLine(82)).at("ok").asBool());
  const Json health = call(router, R"({"op":"health"})");
  EXPECT_EQ(health.at("health").at("cluster").at("shards").asUint64(), 3u);
  EXPECT_TRUE(health.at("health").at("cluster").at("all_alive").asBool());
}

TEST_F(ClusterRouterTest, ExplorationFailsOverWhenItsShardCannotRevive) {
  RouterOptions options = makeOptions(2);
  options.restartDeadShards = false;  // Force the failover path.
  ClusterRouter router(options);
  const std::string exploreLine =
      R"({"op":"explore","async":true,"case":1,"budget":5,"max_rounds":2,)"
      R"("tolerance":0.2,"axes":[{"field":"gbw","lo":50e6,"hi":65e6,)"
      R"("points":2}]})";
  const Json ack = call(router, exploreLine);
  ASSERT_TRUE(ack.at("ok").asBool()) << ack.dump();
  const std::uint64_t exploreId = ack.at("explore_id").asUint64();
  const int victim = ack.at("shard").asInt(-1);
  ASSERT_GE(victim, 0);

  router.killShard(victim);
  Json resultReq = Json::object();
  resultReq.set("op", "explore_result");
  resultReq.set("explore_id", exploreId);
  const Json stormy = call(router, resultReq.dump());
  ASSERT_TRUE(stormy.at("ok").asBool()) << stormy.dump();
  EXPECT_NE(stormy.at("shard").asInt(-1), victim);
  ASSERT_FALSE(stormy.at("front").items().empty()) << stormy.dump();
  EXPECT_EQ(router.exploreFailovers(), 1u);

  // Determinism makes the failover invisible: a clean re-run of the same
  // request on the survivor reproduces the front exactly (cache_hit is
  // provenance, not content, so it is stripped before comparing).
  Json rerun = Json::parse(exploreLine);
  rerun.set("async", false);
  const Json clean = call(router, rerun.dump());
  ASSERT_TRUE(clean.at("ok").asBool()) << clean.dump();
  auto fingerprint = [](const Json& front) {
    Json scrubbed = Json::array();
    for (const Json& point : front.items()) {
      Json p = Json::object();
      for (const auto& [key, value] : point.members()) {
        if (key != "cache_hit") p.set(key, value);
      }
      scrubbed.push(std::move(p));
    }
    return scrubbed.dump();
  };
  EXPECT_EQ(fingerprint(stormy.at("front")), fingerprint(clean.at("front")));
}

// ------------------------------------------------- router failure paths --

TEST_F(ClusterRouterTest, SweepAfterAKillRevivesTheShardAndKeepsRequestOrder) {
  ClusterRouter router(makeOptions(2));
  const std::vector<int> gbws{62, 63, 64, 65, 66, 67};
  const std::vector<int> before = sweepShards(call(router, sweepLine(gbws)), gbws);
  ASSERT_EQ(std::set<int>(before.begin(), before.end()).size(), 2u)
      << "the sweep must span both shards";

  router.killShard(before.front());
  // The dead shard's sub-sweep fails mid-fan-out; the recovery pass
  // revives it and retries there, so ownership and order are unchanged.
  EXPECT_EQ(sweepShards(call(router, sweepLine(gbws)), gbws), before);
  EXPECT_EQ(router.restarts(), 1u);
}

TEST_F(ClusterRouterTest, SweepAfterAKillWithoutRestartsReroutesToTheSurvivor) {
  RouterOptions options = makeOptions(2);
  options.restartDeadShards = false;
  ClusterRouter router(options);
  const std::vector<int> gbws{62, 63, 64, 65, 66, 67};
  const std::vector<int> before = sweepShards(call(router, sweepLine(gbws)), gbws);
  ASSERT_EQ(std::set<int>(before.begin(), before.end()).size(), 2u)
      << "the sweep must span both shards";

  const int victim = before.front();
  router.killShard(victim);
  const std::vector<int> after = sweepShards(call(router, sweepLine(gbws)), gbws);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    // Survivor entries stay home; the victim's move to the survivor.
    EXPECT_NE(after[i], victim) << "entry " << i;
    if (before[i] != victim) {
      EXPECT_EQ(after[i], before[i]) << "entry " << i;
    }
  }
  EXPECT_EQ(router.restarts(), 0u);
  EXPECT_GE(router.rerouted(), 1u);
}

TEST_F(ClusterRouterTest, MultiplexedWaitRecyclesAWedgedShardAndResolvesEveryId) {
  RouterOptions options = makeOptions(2);
  options.requestTimeoutSeconds = 1.0;
  ClusterRouter router(options);
  Json ids = Json::array();
  std::map<std::uint64_t, int> owner;
  for (int gbw : {81, 82, 83, 84, 85, 86}) {
    const Json ack =
        call(router, R"({"op":"synthesize","async":true,"case":1,"spec":{"gbw":)" +
                         std::to_string(gbw) + R"(e6}})");
    ASSERT_TRUE(ack.at("ok").asBool()) << ack.dump();
    owner[ack.at("id").asUint64()] = ack.at("shard").asInt(-1);
    ids.push(ack.at("id").asUint64());
  }
  std::set<int> shards;
  for (const auto& [id, shard] : owner) shards.insert(shard);
  ASSERT_EQ(shards.size(), 2u) << "the jobs must span both shards";

  // Settle every job first, so only the wedge can hold an answer back.
  Json wait = Json::object();
  wait.set("op", "wait");
  wait.set("ids", ids);
  ASSERT_TRUE(call(router, wait.dump()).at("ok").asBool());

  const int wedged = owner.begin()->second;
  router.wedgeShard(wedged);
  const Json response = call(router, wait.dump());
  ASSERT_TRUE(response.at("ok").asBool()) << response.dump();
  const auto& outcomes = response.at("outcomes").items();
  ASSERT_EQ(outcomes.size(), owner.size());
  for (const Json& outcome : outcomes) {
    // Every id resolves, the wedged shard's ones included.
    ASSERT_TRUE(outcome.at("ok").asBool()) << outcome.dump();
    EXPECT_EQ(outcome.at("state").asString(), "done");
    const std::uint64_t id = outcome.at("id").asUint64();
    ASSERT_EQ(owner.count(id), 1u) << outcome.dump();
    if (owner.at(id) != wedged) {
      // The healthy shard answered its own ids over its own stream.
      EXPECT_EQ(outcome.at("shard").asInt(-1), owner.at(id)) << outcome.dump();
    }
  }

  const Json health = call(router, R"({"op":"health"})");
  const Json& entry =
      health.at("health").at("shards").at("shard" + std::to_string(wedged));
  EXPECT_EQ(entry.at("last_restart_reason").asString(), "request timeout (wedged)")
      << entry.dump();
  EXPECT_TRUE(entry.at("alive").asBool()) << entry.dump();
}

}  // namespace
}  // namespace lo::cluster
