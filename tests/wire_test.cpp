// Wire tests: the shipped losynthd and lorouter binaries driven over their
// stdin/stdout line protocol, every reply parsed as JSON.  Each case is one
// end-to-end scenario -- a cache hit, an exploration, kill -9 recovery,
// shutdown with jobs in flight, post-layout verification, a request nested
// deeper than the parser's cap, a journal record without an id, and on a
// router over real shards:
// kill-one-shard recovery, explore failover, drain under load and the
// summary and trace flags of a multi-id wait.
// tests/CMakeLists.txt registers each case under its own ctest name.
//
// Runs that end on stdin EOF go through runToEof, which also proves the
// daemon exits 0 there.  Runs that act mid-stream (kill a process, read a
// pid from health, drain the shard that owns a job) hold the daemon as a
// cluster::ShardProcess and read its exit code after the shutdown reply.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/process.hpp"
#include "service/journal.hpp"
#include "service/json.hpp"
#include "service/serialize.hpp"

namespace lo {
namespace {

using cluster::ReadStatus;
using cluster::ShardProcess;
using service::Json;

// Both paths come from tests/CMakeLists.txt.
const std::string kLosynthd = LOSYNTHD_BIN_PATH;
const std::string kLorouter = LOROUTER_BIN_PATH;

/// Longest wait for one reply; matches the routers' --request-timeout.
constexpr double kReplySeconds = 120.0;
/// A daemon told to shut down with jobs in flight must exit within this.
constexpr double kShutdownSeconds = 60.0;

Json parseReply(const std::string& line) {
  try {
    return Json::parse(line);
  } catch (const std::exception& e) {
    ADD_FAILURE() << "unparseable reply (" << e.what() << "): " << line;
    return Json();
  }
}

struct Transcript {
  std::vector<Json> replies;
  int exitCode = -1;  ///< -1 when a signal ended the process.
};

std::string shellQuoted(const std::string& arg) {
  std::string out = "'";
  for (char c : arg) out += c == '\'' ? std::string("'\\''") : std::string(1, c);
  return out + "'";
}

/// Run `argv` with `requests` on stdin, through to EOF: every stdout
/// line, parsed, and the exit code.  `input` holds the request file.
Transcript runToEof(const std::vector<std::string>& argv,
             const std::vector<std::string>& requests,
             const std::filesystem::path& input) {
  {
    std::ofstream out(input);
    for (const std::string& request : requests) out << request << '\n';
  }
  std::string command = "exec";
  for (const std::string& arg : argv) command += " " + shellQuoted(arg);
  command += " < " + shellQuoted(input.string());

  Transcript run;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) {
    ADD_FAILURE() << "popen failed: " << command;
    return run;
  }
  std::string line;
  for (int c; (c = std::fgetc(pipe)) != EOF;) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
      continue;
    }
    run.replies.push_back(parseReply(line));
    line.clear();
  }
  if (!line.empty()) run.replies.push_back(parseReply(line));
  const int status = ::pclose(pipe);
  run.exitCode = status >= 0 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return run;
}

/// A daemon driven mid-stream: one request line out, one parsed reply in.
class Daemon {
 public:
  explicit Daemon(const std::vector<std::string>& argv) { process_.spawn(argv); }

  void send(const std::string& line) { EXPECT_TRUE(process_.writeLine(line)) << line; }

  Json reply() {
    std::string line;
    const ReadStatus status = process_.readLine(line, kReplySeconds);
    if (status != ReadStatus::kOk) {
      ADD_FAILURE() << "no reply: " << (status == ReadStatus::kEof ? "EOF" : "timeout");
      return Json();
    }
    return parseReply(line);
  }

  void kill9() { process_.kill9(); }

  /// After the shutdown reply: no further output, then the exit code, or
  /// -1 if a signal ended the process or it is still up `seconds` later.
  int exitCode(double seconds) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::duration<double>(seconds);
    std::string extra;
    EXPECT_EQ(process_.readLine(extra, seconds), ReadStatus::kEof)
        << "output after the shutdown reply: " << extra;
    for (;;) {
      int status = 0;
      const pid_t reaped = ::waitpid(process_.pid(), &status, WNOHANG);
      if (reaped == process_.pid()) return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      if (reaped < 0 || std::chrono::steady_clock::now() > deadline) return -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }

 private:
  ShardProcess process_;
};

/// `count` case-1 synthesize requests at gbw = firstMHz, firstMHz+1, ...
/// MHz, each labelled `prefix` + its gbw in MHz.
std::vector<std::string> synthesizeLines(int firstMHz, int count, bool async,
                                         const std::string& prefix) {
  std::vector<std::string> lines;
  for (int gbw = firstMHz; gbw < firstMHz + count; ++gbw) {
    Json request = Json::object();
    request.set("op", "synthesize");
    if (async) request.set("async", true);
    request.set("case", 1);
    request.set("label", prefix + std::to_string(gbw));
    Json spec = Json::object();
    spec.set("gbw", gbw * 1e6);
    request.set("spec", std::move(spec));
    lines.push_back(request.dump());
  }
  return lines;
}

/// An exploration reply's front, each point without its cache_hit flag:
/// whether a point came from the cache is provenance, not content.
std::vector<std::string> frontContent(const Json& reply) {
  std::vector<std::string> points;
  for (const Json& point : reply.at("front").items()) {
    Json content = Json::object();
    for (const auto& [key, value] : point.members()) {
      if (key != "cache_hit") content.set(key, value);
    }
    points.push_back(content.dump());
  }
  return points;
}

/// The pid of router shard `shard`, read from a router health reply.
pid_t shardPid(const Json& health, int shard) {
  return static_cast<pid_t>(
      health.at("health").at("shards").at("shard" + std::to_string(shard)).at("pid").asInt());
}

class Wire : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(std::filesystem::exists(kLosynthd)) << "no losynthd at " << kLosynthd;
    ASSERT_TRUE(std::filesystem::exists(kLorouter)) << "no lorouter at " << kLorouter;
    scratch_ = std::filesystem::temp_directory_path() /
               ("lo_wire_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::remove_all(scratch_);
    std::filesystem::create_directories(scratch_);
  }

  void TearDown() override {
    if (!scratch_.empty()) std::filesystem::remove_all(scratch_);
  }

  [[nodiscard]] std::string dir(const std::string& name) const {
    return (scratch_ / name).string();
  }

  /// A router over `shards` losynthd shards with journals and a cache
  /// under the scratch directory, named by `prefix`.
  [[nodiscard]] std::vector<std::string> routerArgv(int shards, int threads,
                                                    const std::string& prefix,
                                                    bool noRestart = false) const {
    std::vector<std::string> argv = {kLorouter,
                                     "--worker", kLosynthd,
                                     "--shards", std::to_string(shards),
                                     "--threads", std::to_string(threads),
                                     "--journal-root", dir(prefix + "journals"),
                                     "--cache-dir", dir(prefix + "cache"),
                                     "--request-timeout", "120s"};
    if (noRestart) argv.push_back("--no-restart");
    return argv;
  }

  std::filesystem::path scratch_;
};

// A synthesize, its duplicate with the case named instead of numbered,
// and stats: both spellings share one cache key, so the duplicate is a
// hit and the cache counts one hit and one miss.
TEST_F(Wire, LosynthdSmoke) {
  const Transcript run = runToEof(
      {kLosynthd, "--threads", "1"},
      {R"({"op":"synthesize","topology":"folded_cascode_ota","case":1,"label":"smoke"})",
       R"({"op":"synthesize","topology":"folded_cascode_ota","case":"case1","label":"smoke"})",
       R"({"op":"stats"})"},
      scratch_ / "stdin");
  EXPECT_EQ(run.exitCode, 0);
  ASSERT_EQ(run.replies.size(), 3u);
  const Json& first = run.replies[0];
  EXPECT_TRUE(first.at("ok").asBool()) << first.dump();
  EXPECT_EQ(first.at("state").asString(), "done");
  EXPECT_FALSE(first.at("cache_hit").asBool(true));
  const Json& duplicate = run.replies[1];
  EXPECT_TRUE(duplicate.at("ok").asBool()) << duplicate.dump();
  EXPECT_EQ(duplicate.at("state").asString(), "done");
  EXPECT_TRUE(duplicate.at("cache_hit").asBool());
  const Json& cache = run.replies[2].at("stats").at("cache");
  EXPECT_EQ(cache.at("hits").asInt(-1), 1) << cache.dump();
  EXPECT_EQ(cache.at("misses").asInt(-1), 1) << cache.dump();
}

// An async exploration watched through stats and collected with
// explore_result; with four workers the scheduler runs points in parallel.
TEST_F(Wire, LosynthdExploreSmoke) {
  // Case 4 (full layout feedback) so the synthesised points meet their
  // specs; case 1's extracted GBW falls ~9% short and the whole grid would
  // be infeasible.
  const Transcript run = runToEof(
      {kLosynthd, "--threads", "4"},
      {R"({"op":"explore","async":true,"case":4,"budget":12,"max_rounds":1,"tolerance":0.05,)"
       R"("axes":[{"field":"gbw","lo":55e6,"hi":65e6,"points":2},)"
       R"({"field":"cload","lo":2e-12,"hi":3e-12,"points":2}]})",
       R"({"op":"stats"})", R"({"op":"explore_result","explore_id":1})",
       R"({"op":"stats"})"},
      scratch_ / "stdin");
  EXPECT_EQ(run.exitCode, 0);
  ASSERT_EQ(run.replies.size(), 4u);
  EXPECT_TRUE(run.replies[0].at("ok").asBool()) << run.replies[0].dump();
  EXPECT_EQ(run.replies[0].at("explore_id").asInt(), 1);
  const auto& running = run.replies[1].at("stats").at("explorations").items();
  ASSERT_FALSE(running.empty()) << run.replies[1].dump();
  EXPECT_EQ(running.front().at("id").asInt(), 1);
  EXPECT_TRUE(run.replies[2].at("ok").asBool()) << run.replies[2].dump();
  EXPECT_FALSE(run.replies[2].at("front").items().empty()) << run.replies[2].dump();
  const Json& stats = run.replies[3].at("stats");
  const auto& finished = stats.at("explorations").items();
  ASSERT_FALSE(finished.empty()) << run.replies[3].dump();
  EXPECT_EQ(finished.front().at("phase").asString(), "done");
  EXPECT_GE(stats.at("jobs").at("max_running").asInt(), 2);
}

// kill -9 after six durable async acks, then a reboot on the same journal
// and cache: the replayed backlog drains by itself and every identical
// resubmission is a cache hit -- nothing lost, nothing run twice.
TEST_F(Wire, LosynthdRecoverySmoke) {
  const std::vector<std::string> argv = {kLosynthd, "--threads", "1", "--journal",
                                         dir("journal"), "--cache-dir", dir("cache")};
  {
    Daemon daemon(argv);
    // Each ack follows its journal append, so once six are out the kill
    // cannot lose a submission.
    for (const std::string& line : synthesizeLines(41, 6, /*async=*/true, "r")) {
      daemon.send(line);
    }
    for (int n = 1; n <= 6; ++n) {
      const Json ack = daemon.reply();
      ASSERT_TRUE(ack.at("ok").asBool()) << "submission " << n << ": " << ack.dump();
    }
    daemon.kill9();
  }

  std::vector<std::string> requests = synthesizeLines(41, 6, /*async=*/false, "r");
  requests.push_back(R"({"op":"health"})");
  requests.push_back(R"({"op":"shutdown"})");
  const Transcript reboot = runToEof(argv, requests, scratch_ / "stdin");
  EXPECT_EQ(reboot.exitCode, 0);
  ASSERT_EQ(reboot.replies.size(), 8u);
  for (int n = 0; n < 6; ++n) {
    const Json& reply = reboot.replies[static_cast<std::size_t>(n)];
    EXPECT_TRUE(reply.at("ok").asBool()) << "resubmission " << n + 1 << ": " << reply.dump();
    EXPECT_TRUE(reply.at("cache_hit").asBool())
        << "resubmission " << n + 1 << " re-ran the engine: " << reply.dump();
  }
  const Json& journal = reboot.replies[6].at("health").at("journal");
  EXPECT_TRUE(journal.at("enabled").asBool()) << journal.dump();
  EXPECT_GT(journal.at("replayed_records").asInt(), 0) << journal.dump();
  EXPECT_EQ(journal.at("recovered_remaining").asInt(-1), 0) << journal.dump();
}

// A hand-written journal whose one frame checksums but holds a submitted
// record with no id: replay cuts it like a torn frame, so the daemon boots
// with no recovered job (an id-0 job no wait or cancel could address).
TEST_F(Wire, LosynthdCutsAJournalRecordWithoutAnId) {
  service::JournalRecord submitted;
  submitted.cacheKey = "handwritten";
  service::JobRequest job;
  job.label = "no-id";
  submitted.job = service::toJson(job);
  const Json full = submitted.toJson();
  Json record = Json::object();
  for (const auto& [key, value] : full.members()) {
    if (key != "id") record.set(key, value);
  }
  service::FramedLogOptions log;
  log.path = dir("journal") + "/journal.wal";
  service::FramedLog(log).rewrite({record.dump()});

  const Transcript boot =
      runToEof({kLosynthd, "--threads", "1", "--journal", dir("journal")},
               {R"({"op":"health"})", R"({"op":"shutdown"})"}, scratch_ / "stdin");
  EXPECT_EQ(boot.exitCode, 0);
  ASSERT_EQ(boot.replies.size(), 2u);
  const Json& journal = boot.replies[0].at("health").at("journal");
  EXPECT_TRUE(journal.at("enabled").asBool()) << journal.dump();
  EXPECT_EQ(journal.at("recovered_jobs").asInt(-1), 0) << journal.dump();
}

// Shutdown with slow case-4 jobs queued and running on two workers: the
// daemon acknowledges, drains and exits 0 within the bound.
TEST_F(Wire, LosynthdShutdownSmoke) {
  const auto start = std::chrono::steady_clock::now();
  Daemon daemon({kLosynthd, "--threads", "2"});
  const std::string head =
      R"({"op":"synthesize","topology":"folded_cascode_ota","case":4,"async":true,)"
      R"("label":"shutdown-smoke")";
  daemon.send(head + "}");
  for (const char* gbw : {"5.1e7", "5.2e7", "5.3e7", "5.4e7"}) {
    daemon.send(head + R"(,"spec":{"gbw":)" + gbw + "}}");
  }
  daemon.send(R"({"op":"shutdown"})");
  for (int n = 1; n <= 5; ++n) {
    const Json ack = daemon.reply();
    EXPECT_TRUE(ack.at("ok").asBool()) << "submission " << n << ": " << ack.dump();
  }
  EXPECT_TRUE(daemon.reply().at("shutting_down").asBool());
  const double left =
      kShutdownSeconds -
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_GT(left, 0.0) << "the replies alone took longer than " << kShutdownSeconds << " s";
  EXPECT_EQ(daemon.exitCode(left), 0)
      << "no clean exit within " << kShutdownSeconds << " s";
}

// One verify request runs the post-layout tier end to end and answers
// with the verdict fields; the duplicate is a cache hit.
TEST_F(Wire, LosynthdVerifySmoke) {
  const std::string request = R"({"op":"verify","label":"vsmoke","case":"case1","summary":true})";
  const Transcript run =
      runToEof({kLosynthd, "--threads", "1"}, {request, request}, scratch_ / "stdin");
  EXPECT_EQ(run.exitCode, 0);
  ASSERT_EQ(run.replies.size(), 2u);
  const Json& reply = run.replies[0];
  EXPECT_TRUE(reply.at("ok").asBool()) << reply.dump();
  EXPECT_EQ(reply.at("state").asString(), "done");
  EXPECT_TRUE(reply.at("post_layout_ran").asBool());
  EXPECT_EQ(reply.at("post_layout_pass").type(), Json::Type::kBool) << reply.dump();
  EXPECT_FALSE(reply.at("verification").at("deltas").items().empty()) << reply.dump();
  EXPECT_TRUE(run.replies[1].at("cache_hit").asBool()) << run.replies[1].dump();
}

// A router over three journalled shards; the shard owning job 1 is
// SIGKILLed from outside.  The same router absorbs the death: every
// resubmission is a cache hit and health shows the restart and replay.
TEST_F(Wire, LorouterRecoverySmoke) {
  Daemon router(routerArgv(3, 1, ""));
  for (const std::string& line : synthesizeLines(51, 8, /*async=*/true, "c")) {
    router.send(line);
  }
  router.send(R"({"op":"health"})");
  int victim = -1;
  for (int n = 1; n <= 8; ++n) {
    const Json ack = router.reply();
    ASSERT_TRUE(ack.at("ok").asBool()) << "submission " << n << ": " << ack.dump();
    ASSERT_EQ(ack.at("shard").type(), Json::Type::kNumber) << ack.dump();
    ASSERT_FALSE(ack.at("cache_key").asString().empty()) << ack.dump();
    if (n == 1) victim = ack.at("shard").asInt();
  }
  const pid_t victimPid = shardPid(router.reply(), victim);
  ASSERT_GT(victimPid, 0) << "no pid for shard " << victim;
  ::kill(victimPid, SIGKILL);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  for (const std::string& line : synthesizeLines(51, 8, /*async=*/false, "c")) {
    router.send(line);
  }
  router.send(R"({"op":"health"})");
  router.send(R"({"op":"shutdown"})");
  for (int n = 1; n <= 8; ++n) {
    const Json reply = router.reply();
    EXPECT_TRUE(reply.at("ok").asBool()) << "resubmission " << n << ": " << reply.dump();
    EXPECT_TRUE(reply.at("cache_hit").asBool())
        << "resubmission " << n << " re-ran the engine: " << reply.dump();
  }
  const Json health = router.reply().at("health");
  EXPECT_TRUE(health.at("cluster").at("all_alive").asBool()) << health.dump();
  EXPECT_EQ(health.at("cluster").at("restarts").asInt(), 1) << health.dump();
  bool replayed = false;
  for (const auto& shard : health.at("shards").members()) {
    replayed |= shard.second.at("replayed_records").asInt() > 0;
  }
  EXPECT_TRUE(replayed) << "no shard reports a journal replay: " << health.dump();
  EXPECT_TRUE(router.reply().at("shutting_down").asBool());
  EXPECT_EQ(router.exitCode(kReplySeconds), 0);
}

// kill -9 the shard that owns an in-flight exploration on a router that
// may not restart shards: the study completes on a survivor, with a front
// equal point for point and field for field to a clean reference run.
TEST_F(Wire, LorouterFailoverSmoke) {
  // Case 1 with a loose tolerance: fast, deterministic, non-empty front.
  const std::string explore =
      R"({"op":"explore","case":1,"budget":5,"max_rounds":2,"tolerance":0.2,)"
      R"("axes":[{"field":"gbw","lo":50e6,"hi":65e6,"points":2}]})";
  Json exploreAsync = Json::parse(explore);
  exploreAsync.set("async", true);

  const Transcript reference = runToEof(
      routerArgv(2, 2, "ref_"), {explore, R"({"op":"shutdown"})"}, scratch_ / "stdin");
  EXPECT_EQ(reference.exitCode, 0);
  ASSERT_EQ(reference.replies.size(), 2u);
  ASSERT_TRUE(reference.replies[0].at("ok").asBool()) << reference.replies[0].dump();
  const std::vector<std::string> referenceFront = frontContent(reference.replies[0]);
  ASSERT_FALSE(referenceFront.empty()) << reference.replies[0].dump();

  Daemon router(routerArgv(2, 2, "", /*noRestart=*/true));
  router.send(exploreAsync.dump());
  router.send(R"({"op":"health"})");
  const Json ack = router.reply();
  ASSERT_TRUE(ack.at("ok").asBool()) << ack.dump();
  const int victim = ack.at("shard").asInt(-1);
  const pid_t victimPid = shardPid(router.reply(), victim);
  ASSERT_GT(victimPid, 0) << "no pid for shard " << victim;
  ::kill(victimPid, SIGKILL);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  router.send(R"({"op":"explore_result","explore_id":)" +
              std::to_string(ack.at("explore_id").asInt()) + "}");
  router.send(R"({"op":"shutdown"})");
  const Json result = router.reply();
  ASSERT_TRUE(result.at("ok").asBool()) << result.dump();
  ASSERT_EQ(result.at("shard").type(), Json::Type::kNumber) << result.dump();
  EXPECT_NE(result.at("shard").asInt(), victim) << "the dead shard answered";
  EXPECT_EQ(frontContent(result), referenceFront);
  EXPECT_TRUE(router.reply().at("shutting_down").asBool());
  EXPECT_EQ(router.exitCode(kReplySeconds), 0);
}

// Drain the shard that owns in-flight work: one multiplexed wait resolves
// every id done, none on the drained shard; re-admission restores the ring.
TEST_F(Wire, LorouterDrainSmoke) {
  Daemon router(routerArgv(3, 1, ""));
  for (const std::string& line : synthesizeLines(61, 9, /*async=*/true, "d")) {
    router.send(line);
  }
  Json ids = Json::array();
  int victim = -1;
  for (int n = 1; n <= 9; ++n) {
    const Json ack = router.reply();
    ASSERT_TRUE(ack.at("ok").asBool()) << "submission " << n << ": " << ack.dump();
    ids.push(ack.at("id"));
    if (n == 1) victim = ack.at("shard").asInt(-1);
  }
  Json wait = Json::object();
  wait.set("op", "wait");
  wait.set("ids", std::move(ids));
  const std::string shard = std::to_string(victim);
  router.send(R"({"op":"drain","shard":)" + shard + "}");
  router.send(wait.dump());
  router.send(R"({"op":"health"})");
  router.send(R"({"op":"add","shard":)" + shard + "}");
  router.send(R"({"op":"shutdown"})");

  const Json drain = router.reply();
  EXPECT_TRUE(drain.at("ok").asBool()) << drain.dump();
  EXPECT_EQ(drain.at("drained").asInt(-1), victim) << drain.dump();
  EXPECT_EQ(drain.at("members").asInt(), 2) << drain.dump();

  const Json outcomes = router.reply();
  EXPECT_TRUE(outcomes.at("ok").asBool()) << outcomes.dump();
  int done = 0;
  for (const Json& outcome : outcomes.at("outcomes").items()) {
    done += outcome.at("state").asString() == "done" ? 1 : 0;
    EXPECT_NE(outcome.at("shard").asInt(-1), victim)
        << "the drained shard answered: " << outcome.dump();
  }
  EXPECT_EQ(done, 9) << "work lost across the drain: " << outcomes.dump();

  const Json cluster = router.reply().at("health").at("cluster");
  EXPECT_EQ(cluster.at("members").asInt(), 2) << cluster.dump();
  EXPECT_TRUE(cluster.at("all_alive").asBool()) << cluster.dump();

  const Json add = router.reply();
  EXPECT_TRUE(add.at("ok").asBool()) << add.dump();
  EXPECT_EQ(add.at("members").asInt(), 3) << add.dump();
  EXPECT_TRUE(router.reply().at("shutting_down").asBool());
  EXPECT_EQ(router.exitCode(kReplySeconds), 0);
}

// A multi-id wait through lorouter keeps the request's summary and trace
// flags for every id: summary outcomes carry no result body, traced ones
// carry their trace, like the single-id wait's.
TEST_F(Wire, LorouterWaitSummary) {
  std::vector<std::string> requests = synthesizeLines(71, 4, /*async=*/true, "w");
  // The router numbers its job ids from 1 in ack order.
  requests.push_back(R"({"op":"wait","ids":[1,2,3,4],"summary":true})");
  requests.push_back(R"({"op":"wait","ids":[1,2,3,4],"summary":true,"trace":true})");
  requests.push_back(R"({"op":"wait","id":1,"summary":true})");
  requests.push_back(R"({"op":"shutdown"})");
  const Transcript run = runToEof(routerArgv(2, 1, ""), requests, scratch_ / "stdin");
  EXPECT_EQ(run.exitCode, 0);
  ASSERT_EQ(run.replies.size(), 8u);
  for (int n = 0; n < 4; ++n) {
    const Json& ack = run.replies[static_cast<std::size_t>(n)];
    ASSERT_TRUE(ack.at("ok").asBool()) << ack.dump();
    EXPECT_EQ(ack.at("id").asInt(), n + 1) << ack.dump();
  }
  for (const std::size_t reply : {4u, 5u}) {
    const auto& outcomes = run.replies[reply].at("outcomes").items();
    ASSERT_EQ(outcomes.size(), 4u) << run.replies[reply].dump();
    for (const Json& outcome : outcomes) {
      EXPECT_TRUE(outcome.at("ok").asBool()) << outcome.dump();
      EXPECT_EQ(outcome.at("state").asString(), "done") << outcome.dump();
      EXPECT_EQ(outcome.find("result"), nullptr) << "summary wait sent a result: " << outcome.dump();
      EXPECT_EQ(outcome.find("trace") != nullptr, reply == 5u) << outcome.dump();
    }
  }
  EXPECT_EQ(run.replies[6].find("result"), nullptr) << run.replies[6].dump();
  EXPECT_TRUE(run.replies[7].at("shutting_down").asBool());
}

// A request line opening 200,000 nested arrays must not overflow the
// parser's stack: both binaries refuse it with ok:false, then answer
// health and exit 0 at EOF.
TEST_F(Wire, DeepNestingIsRefusedOverTheWire) {
  // Hostile lines: 200,000 levels of nesting, and numbers a double cannot
  // hold or the field's integer type cannot (each was an undefined cast).
  const std::vector<std::string> hostile = {
      R"({"op":"stats","x":)" + std::string(200000, '['),
      R"({"op":"wait","id":1e999})",
      R"({"op":"wait","id":-1})",
      R"({"op":"synthesize","case":"case1","priority":1e30})",
  };
  for (const bool router : {false, true}) {
    SCOPED_TRACE(router ? "lorouter" : "losynthd");
    const std::vector<std::string> argv =
        router ? routerArgv(1, 1, "") : std::vector<std::string>{kLosynthd, "--threads", "1"};
    std::vector<std::string> lines = hostile;
    if (router) lines.push_back(R"({"op":"drain","shard":1e30})");
    lines.push_back(R"({"op":"health"})");
    const Transcript run = runToEof(argv, lines, scratch_ / "stdin");
    EXPECT_EQ(run.exitCode, 0);
    ASSERT_EQ(run.replies.size(), lines.size());
    for (std::size_t i = 0; i + 1 < lines.size(); ++i) {
      EXPECT_FALSE(run.replies[i].at("ok").asBool(true))
          << lines[i].substr(0, 60) << " -> " << run.replies[i].dump();
    }
    EXPECT_TRUE(run.replies.back().at("ok").asBool()) << run.replies.back().dump();
    EXPECT_TRUE(run.replies.back().at("health").isObject()) << run.replies.back().dump();
  }
}

}  // namespace
}  // namespace lo
