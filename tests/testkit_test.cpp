// lo_testkit unit tests: fault-plan determinism, seeded generators, the
// structured diff, each injection seam end to end, the soak harness over a
// scripted target, and short in-process soaks.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <set>
#include <string>
#include <vector>

#include "service/serialize.hpp"
#include "testkit/diff.hpp"
#include "testkit/faults.hpp"
#include "testkit/generators.hpp"
#include "testkit/soak.hpp"

namespace lo::testkit {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

// ---------------------------------------------------------------- faults --

TEST(FaultPlan, DecisionsAreAPureFunctionOfSeedSiteAndIndex) {
  FaultPlanOptions options = FaultPlanOptions::basic(42);
  const FaultPlan a(options);
  const FaultPlan b(options);
  int fired = 0;
  for (const FaultSite site : allFaultSites()) {
    for (std::uint64_t op = 0; op < 1000; ++op) {
      EXPECT_EQ(a.fires(site, op), b.fires(site, op));
      fired += a.fires(site, op) ? 1 : 0;
    }
  }
  // 5 sites x 1000 ops at 10%: the firing count sits near 500.
  EXPECT_GT(fired, 300);
  EXPECT_LT(fired, 700);

  // A different seed draws a different schedule.
  const FaultPlan c(FaultPlanOptions::basic(43));
  int differing = 0;
  for (std::uint64_t op = 0; op < 1000; ++op) {
    differing += a.fires(FaultSite::kEngineTransient, op) !=
                         c.fires(FaultSite::kEngineTransient, op)
                     ? 1
                     : 0;
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultPlan, ExplicitOpsFireRegardlessOfRateAndAreRecorded) {
  FaultPlanOptions options;  // rate 0, no sites: nothing fires by chance.
  options.explicitOps[FaultSite::kEngineTransient] = {2, 5};
  FaultPlan plan(options);

  std::vector<std::uint64_t> firedAt;
  for (std::uint64_t op = 0; op < 8; ++op) {
    if (plan.shouldFire(FaultSite::kEngineTransient)) firedAt.push_back(op);
    EXPECT_FALSE(plan.shouldFire(FaultSite::kCacheWrite));
  }
  EXPECT_EQ(firedAt, (std::vector<std::uint64_t>{2, 5}));
  EXPECT_EQ(plan.operations(FaultSite::kEngineTransient), 8u);
  EXPECT_EQ(plan.fired(FaultSite::kEngineTransient), 2u);
  EXPECT_EQ(plan.firedTotal(), 2u);
  ASSERT_EQ(plan.events().size(), 2u);
  EXPECT_EQ(plan.events()[0].opIndex, 2u);
  EXPECT_EQ(plan.events()[1].opIndex, 5u);
}

TEST(FaultPlan, PresetsParseAndUnknownNamesThrow) {
  const FaultPlanOptions basic = FaultPlanOptions::preset("basic", 9);
  EXPECT_EQ(basic.seed, 9u);
  EXPECT_DOUBLE_EQ(basic.rate, 0.1);
  // Every recoverable site — the two one-shot crash sites stay opt-in, or
  // the blanket rate would kill every soak in its first seconds.
  EXPECT_EQ(basic.sites.size(), allFaultSites().size() - 2);
  EXPECT_FALSE(basic.sites.count(FaultSite::kJournalTornWrite));
  EXPECT_FALSE(basic.sites.count(FaultSite::kProcessKill));

  const FaultPlanOptions torn = FaultPlanOptions::preset("journal_torn_write", 9);
  EXPECT_EQ(torn.sites.size(), 1u);
  EXPECT_TRUE(torn.sites.count(FaultSite::kJournalTornWrite));

  const FaultPlanOptions none = FaultPlanOptions::preset("none", 9);
  EXPECT_TRUE(none.sites.empty());
  EXPECT_DOUBLE_EQ(none.rate, 0.0);

  EXPECT_THROW((void)FaultPlanOptions::preset("chaotic", 9),
               std::invalid_argument);
}

// ------------------------------------------------------------ generators --

TEST(Generators, CorpusIsAPureFunctionOfItsSeed) {
  const std::vector<CorpusPoint> a = generateCorpus(7);
  const std::vector<CorpusPoint> b = generateCorpus(7);
  ASSERT_EQ(a.size(), 50u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].label, b[i].label);
    // Bit-identical inputs, checked through the canonical cache-key text.
    EXPECT_EQ(service::ResultCache::canonicalText(a[i].options, a[i].specs,
                                                  a[i].corner, "print"),
              service::ResultCache::canonicalText(b[i].options, b[i].specs,
                                                  b[i].corner, "print"));
  }

  const std::vector<CorpusPoint> other = generateCorpus(8);
  int differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    differing += a[i].label != other[i].label ? 1 : 0;
  }
  EXPECT_GT(differing, 0);
}

TEST(Generators, CorpusCoversTopologiesCornersAndStaysDistinct) {
  const std::vector<CorpusPoint> corpus = generateCorpus(1);
  std::set<std::string> topologies, keys;
  bool sawNonTypical = false;
  for (const CorpusPoint& point : corpus) {
    topologies.insert(point.options.topology);
    keys.insert(service::ResultCache::canonicalText(point.options, point.specs,
                                                    point.corner, "print"));
    sawNonTypical |= point.corner != tech::ProcessCorner::kTypical;
  }
  EXPECT_EQ(topologies.size(), 2u) << "both registered topologies drawn";
  EXPECT_EQ(keys.size(), corpus.size()) << "every corpus point is distinct";
  EXPECT_TRUE(sawNonTypical);
}

TEST(Generators, ToJobRequestCarriesTheIdentityFields) {
  CorpusOptions one;
  one.size = 1;
  const CorpusPoint point = generateCorpus(3, one).front();
  const service::JobRequest request = point.toJobRequest();
  EXPECT_EQ(request.label, point.label);
  EXPECT_FALSE(request.bypassCache);
  EXPECT_EQ(request.options.topology, point.options.topology);
  EXPECT_EQ(request.specs.gbw, point.specs.gbw);
  EXPECT_EQ(request.corner, point.corner);
}

// ------------------------------------------------------------------ diff --

TEST(DiffJson, ReportsTheFirstDivergingFieldWithItsPath) {
  core::EngineResult a;
  a.predicted.gbwHz = 65e6;
  a.measured.gbwHz = 64.5e6;
  core::EngineResult b = a;
  b.measured.gbwHz = 64.5e6 * (1.0 + 1e-6);

  EXPECT_FALSE(diffResults(a, a).has_value());

  const auto diff = diffResults(a, b);
  ASSERT_TRUE(diff.has_value());
  EXPECT_NE(diff->path.find("gbw"), std::string::npos) << diff->path;
  EXPECT_NEAR(diff->relError, 1e-6, 1e-9);
  EXPECT_NE(diff->describe().find(diff->path), std::string::npos);

  // A tolerance wider than the divergence accepts it; a tighter one does not.
  EXPECT_FALSE(diffResults(a, b, 1e-3).has_value());
  EXPECT_TRUE(diffResults(a, b, 1e-9).has_value());
}

TEST(DiffJson, CatchesTypeArityAndMissingKeyDrift) {
  const service::Json num(1.5);
  const service::Json text(std::string("1.5"));
  ASSERT_TRUE(diffJson(num, text).has_value());

  service::Json arrA = service::Json::array();
  arrA.push(service::Json(1.0));
  service::Json arrB = service::Json::array();
  arrB.push(service::Json(1.0));
  arrB.push(service::Json(2.0));
  const auto arity = diffJson(arrA, arrB);
  ASSERT_TRUE(arity.has_value());

  service::Json objA = service::Json::object();
  objA.set("x", 1.0);
  service::Json objB = service::Json::object();
  objB.set("y", 1.0);
  const auto keys = diffJson(objA, objB);
  ASSERT_TRUE(keys.has_value());
}

// ------------------------------------------------------- injection seams --

service::JobRequest cheapJob(const std::string& label, double gbw = 65e6) {
  service::JobRequest job;
  job.label = label;
  job.options.sizingCase = core::SizingCase::kCase1;
  job.specs.gbw = gbw;
  return job;
}

TEST(FaultInjection, ThreeInjectedEngineFailuresReportRetriesEqualsThree) {
  FaultPlanOptions faultOptions;
  faultOptions.explicitOps[FaultSite::kEngineTransient] = {0, 1, 2};
  FaultPlan plan(faultOptions);

  service::SchedulerOptions options;
  options.threads = 1;
  installSchedulerFaults(options, plan);
  service::JobScheduler scheduler(kTech, options);

  service::JobRequest job = cheapJob("injected-thrice");
  job.maxRetries = 3;
  const service::JobStatus status = scheduler.wait(scheduler.submit(job));
  EXPECT_EQ(status.state, service::JobState::kDone) << status.error;
  EXPECT_EQ(status.attempts, 4);
  EXPECT_EQ(status.retries, 3);
  EXPECT_EQ(plan.fired(FaultSite::kEngineTransient), 3u);
}

TEST(FaultInjection, StageTransientFiresMidEngineAndRetries) {
  FaultPlanOptions faultOptions;
  // Stage operation #1: the first attempt survives its first stage, then
  // dies between stages -- after real engine work already happened.
  faultOptions.explicitOps[FaultSite::kStageTransient] = {1};
  FaultPlan plan(faultOptions);

  service::SchedulerOptions options;
  options.threads = 1;
  service::JobScheduler scheduler(kTech, options);

  service::JobRequest job = cheapJob("mid-stage", 66e6);
  installEngineFaults(job.options, plan);
  job.maxRetries = 1;
  const service::JobStatus status = scheduler.wait(scheduler.submit(job));
  EXPECT_EQ(status.state, service::JobState::kDone) << status.error;
  EXPECT_EQ(status.retries, 1);
  EXPECT_EQ(plan.fired(FaultSite::kStageTransient), 1u);
}

TEST(FaultInjection, DeadlineOverrunExpiresTheJob) {
  FaultPlanOptions faultOptions;
  faultOptions.explicitOps[FaultSite::kDeadlineOverrun] = {0};
  FaultPlan plan(faultOptions);

  service::SchedulerOptions options;
  options.threads = 1;
  installSchedulerFaults(options, plan);
  service::JobScheduler scheduler(kTech, options);

  service::JobRequest job = cheapJob("overrun", 67e6);
  job.deadlineSeconds = 0.01;  // Far shorter than the injected sleep.
  const service::JobStatus status = scheduler.wait(scheduler.submit(job));
  EXPECT_EQ(status.state, service::JobState::kExpired);
  EXPECT_EQ(plan.fired(FaultSite::kDeadlineOverrun), 1u);
}

TEST(FaultInjection, TruncatedResponseLeavesTheDaemonStateIntact) {
  FaultPlanOptions faultOptions;
  faultOptions.explicitOps[FaultSite::kResponseTruncate] = {0};
  FaultPlan plan(faultOptions);

  service::JobScheduler scheduler(kTech, service::SchedulerOptions{});
  service::ServiceProtocol protocol(scheduler);
  installProtocolFaults(protocol, plan);

  const std::string truncated = protocol.handleLine(
      R"({"op":"synthesize","case":1,"async":true,"label":"cut"})");
  EXPECT_THROW((void)service::Json::parse(truncated), std::exception);

  // The daemon's side of the operation still happened: the job exists and
  // the next (clean) response reports it.
  const std::string stats = protocol.handleLine(R"({"op":"stats"})");
  const service::Json parsed = service::Json::parse(stats);
  EXPECT_EQ(parsed.at("stats").at("jobs").at("submitted").asUint64(), 1u);
  (void)scheduler.wait(1);
}

// ------------------------------------------------------------------ soak --

/// A scripted line target: every submission is acknowledged, job 2 is
/// unknown to every wait, and "jobs.submitted" counts the lines answered
/// until the client loop's 40 are past, then reads 0.
struct ScriptedMode final : SoakMode {
  ScriptedMode() {
    options.clients = 1;
    options.maxRequestsPerClient = 40;
    options.durationSeconds = 30.0;
    mix = {.asyncSubmit = 50, .wait = 30};
    CorpusOptions corpus;
    corpus.size = 2;
    pool = generateCorpus(3, corpus);
    monotoneCounters = {"jobs.submitted"};
    target = [this](const std::string& line) -> std::string {
      const int n = ++lines;
      const service::Json request = service::Json::parse(line);
      const std::string op = request.at("op").asString();
      if (op == "synthesize") return R"({"ok":true,"id":)" + std::to_string(++acks) + "}";
      if (op == "wait" && request.at("id").asUint64() == 2) {
        return R"({"ok":false,"error":"unknown job"})";
      }
      if (op == "wait") return R"({"ok":true,"state":"done"})";
      ++probes;
      return R"({"ok":true,"stats":{"jobs":{"submitted":)" + std::to_string(n <= 40 ? n : 0) +
             "}}}";
    };
  }
  void finish(SoakReport& /*report*/) override {}

  std::atomic<int> lines{0};
  std::atomic<int> acks{0};
  std::atomic<int> probes{0};
};

TEST(Soak, HarnessReportsLostJobsAndFallingCounters) {
  ScriptedMode mode;
  const SoakReport report = runSoak(mode);
  EXPECT_EQ(report.requests, 40u);
  ASSERT_GE(mode.acks.load(), 2);
  ASSERT_GE(mode.probes.load(), 3);
  EXPECT_EQ(report.trackedJobs, static_cast<std::uint64_t>(mode.acks.load()));
  // Every other ack settles "done"; job 2 is lost, and said so.
  EXPECT_EQ(report.terminalStates.at("done"), report.trackedJobs - 1);
  // Only the probes after the client loop can read 0: the drain is sampled.
  bool lost = false, fell = false;
  for (const std::string& v : report.violations) {
    lost |= v.rfind("job 2 was lost", 0) == 0;
    fell |= v.rfind("monotonicity: jobs.submitted fell", 0) == 0 && v.ends_with(" to 0");
  }
  EXPECT_TRUE(lost) << report.toJson().dump();
  EXPECT_TRUE(fell) << report.toJson().dump();
}

TEST(Soak, ShortCappedRunHoldsEveryInvariant) {
  SoakOptions options;
  options.seed = 5;
  options.clients = 2;
  options.schedulerThreads = 2;
  options.durationSeconds = 30.0;  // The cap ends the soak, not the clock.
  options.maxRequestsPerClient = 25;
  options.faults = FaultPlanOptions::basic(5);
  options.cacheDir =
      (std::filesystem::temp_directory_path() /
       ("lo_testkit_soak_" + std::to_string(::getpid())))
          .string();

  ServiceSoak mode(kTech, options);
  const SoakReport report = runSoak(mode);
  std::filesystem::remove_all(options.cacheDir);

  EXPECT_TRUE(report.ok()) << report.toJson().dump();
  EXPECT_EQ(report.requests, 50u);  // 2 clients x 25, exact under the cap.
  const service::Json json = report.toJson();
  EXPECT_TRUE(json.at("ok").asBool());
  EXPECT_EQ(json.at("requests").asUint64(), report.requests);
}

TEST(Soak, CleanPlanRunsErrorFreeAndBasicPlanFiresFaults) {
  // Four clients capped at 40 requests each on two workers, once with no
  // fault plan and once under `basic`.
  SoakOptions options;
  options.seed = 1;
  options.clients = 4;
  options.schedulerThreads = 2;
  options.durationSeconds = 30.0;  // The cap ends the soak, not the clock.
  options.maxRequestsPerClient = 40;

  options.faults = FaultPlanOptions::none(options.seed);
  ServiceSoak clean(kTech, options);
  const SoakReport cleanReport = runSoak(clean);
  EXPECT_TRUE(cleanReport.ok()) << cleanReport.toJson().dump();
  EXPECT_EQ(cleanReport.transportErrors, 0u);
  EXPECT_EQ(cleanReport.requests, 160u);  // 4 clients x 40, exact under the cap.

  options.faults = FaultPlanOptions::basic(options.seed);
  ServiceSoak faulted(kTech, options);
  const SoakReport faultedReport = runSoak(faulted);
  EXPECT_TRUE(faultedReport.ok()) << faultedReport.toJson().dump();
  EXPECT_EQ(faultedReport.requests, 160u);
  EXPECT_FALSE(faulted.findings().faultsFired.empty());
}

TEST(Soak, CrashRecoveryPhaseLosesAndDuplicatesNothing) {
  SoakOptions options;
  options.seed = 11;
  options.clients = 2;
  options.schedulerThreads = 2;
  options.durationSeconds = 30.0;
  options.maxRequestsPerClient = 20;
  const std::string scratch =
      (std::filesystem::temp_directory_path() /
       ("lo_testkit_recovery_" + std::to_string(::getpid())))
          .string();
  options.cacheDir = scratch + "/cache";
  options.journalDir = scratch + "/journal";
  // The crash mid-run is deterministic, not probabilistic: an explicit
  // process_kill op freezes the journal partway through the request load.
  options.faults.seed = 11;
  options.faults.rate = 0.0;
  options.faults.explicitOps[FaultSite::kProcessKill] = {13};

  ServiceSoak mode(kTech, options);
  const SoakReport report = runSoak(mode);
  std::filesystem::remove_all(scratch);

  EXPECT_TRUE(report.ok()) << report.toJson().dump();
  const RecoveryReport& recovery = mode.findings().recovery;
  ASSERT_TRUE(recovery.ran);
  EXPECT_TRUE(recovery.crashed);
  // Every pending job was accounted for, one way or the other.
  EXPECT_EQ(recovery.servedFromCache + recovery.reRun, recovery.pendingAtBoot);
  if (recovery.pendingAtBoot > 0) {
    EXPECT_GE(recovery.compactions, 1u);
  }
  const service::Json json = report.toJson();
  EXPECT_TRUE(json.at("recovery").at("crashed").asBool());
}

TEST(Soak, TornWritePresetSurvivesRecovery) {
  SoakOptions options;
  options.seed = 23;
  options.clients = 2;
  options.schedulerThreads = 2;
  options.durationSeconds = 30.0;
  options.maxRequestsPerClient = 15;
  const std::string scratch =
      (std::filesystem::temp_directory_path() /
       ("lo_testkit_torn_" + std::to_string(::getpid())))
          .string();
  options.cacheDir = scratch + "/cache";
  options.journalDir = scratch + "/journal";
  options.faults = FaultPlanOptions::journalTorn(23);

  ServiceSoak mode(kTech, options);
  const SoakReport report = runSoak(mode);
  std::filesystem::remove_all(scratch);

  EXPECT_TRUE(report.ok()) << report.toJson().dump();
  const RecoveryReport& recovery = mode.findings().recovery;
  ASSERT_TRUE(recovery.ran);
  // The torn append froze the journal; the reboot truncated the half-frame
  // and recovered what the log still held.
  EXPECT_TRUE(recovery.crashed);
  EXPECT_TRUE(recovery.tornTail);
  EXPECT_EQ(recovery.servedFromCache + recovery.reRun, recovery.pendingAtBoot);
}

}  // namespace
}  // namespace lo::testkit
