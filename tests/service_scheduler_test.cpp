#include "service/scheduler.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "service/serialize.hpp"

namespace lo::service {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

JobRequest fastJob(const std::string& label, double gbwMhz = 65.0) {
  JobRequest job;
  job.label = label;
  // Case 1 skips the parasitic loop: the cheapest real end-to-end run.
  job.options.sizingCase = core::SizingCase::kCase1;
  job.specs.gbw = gbwMhz * 1e6;
  return job;
}

/// A job that reaches the worker but fails instantly inside the engine
/// (unknown topology), so ordering / queue tests stay cheap.
JobRequest stubJob(const std::string& label, int priority = 0) {
  JobRequest job;
  job.label = label;
  job.options.topology = "no_such_topology";
  job.priority = priority;
  return job;
}

/// Lets a test hold the single worker inside a designated job while it
/// arranges the queue behind it.
struct Gate {
  std::mutex mutex;
  std::condition_variable cv;
  bool open = false;
  bool entered = false;

  void release() {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      open = true;
    }
    cv.notify_all();
  }
  void waitUntilEntered() {
    std::unique_lock<std::mutex> lock(mutex);
    cv.wait(lock, [this] { return entered; });
  }
  void enterAndWait() {
    std::unique_lock<std::mutex> lock(mutex);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
  }
};

TEST(SchedulerBatch, MatchesSweepDriverBitForBit) {
  std::vector<JobRequest> requests(2);
  requests[0].label = "ota";
  requests[0].corner = tech::ProcessCorner::kFast;
  requests[1].label = "two_stage";
  requests[1].options.topology = core::kTwoStageTopologyName;
  requests[1].specs.gbw = 30e6;
  JobScheduler scheduler(kTech, SchedulerOptions{});
  const auto statuses = scheduler.runBatch(requests);

  ASSERT_EQ(statuses.size(), requests.size());
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    SCOPED_TRACE(statuses[i].label);
    ASSERT_EQ(statuses[i].state, JobState::kDone) << statuses[i].error;
    // The reference: a direct engine run at the job's corner.
    const tech::Technology corner = kTech.atCorner(requests[i].corner);
    const core::EngineResult direct =
        core::SynthesisEngine(corner, requests[i].options).run(requests[i].specs);
    EXPECT_EQ(std::memcmp(&statuses[i].result.measured, &direct.measured,
                          sizeof(sizing::OtaPerformance)),
              0);
    EXPECT_EQ(std::memcmp(&statuses[i].result.predicted, &direct.predicted,
                          sizeof(sizing::OtaPerformance)),
              0);
    EXPECT_EQ(statuses[i].result.layoutCalls, direct.layoutCalls);
  }
}

TEST(SchedulerCache, DuplicateSubmissionsAreServedByteIdentically) {
  SchedulerOptions options;
  options.threads = 1;  // Sequential: later duplicates find the cache warm.
  JobScheduler scheduler(kTech, options);
  const auto statuses =
      scheduler.runBatch({fastJob("first"), fastJob("dup1"), fastJob("dup2")});

  ASSERT_EQ(statuses.size(), 3u);
  for (const JobStatus& status : statuses) {
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
  }
  EXPECT_FALSE(statuses[0].cacheHit);
  EXPECT_TRUE(statuses[1].cacheHit);
  EXPECT_TRUE(statuses[2].cacheHit);

  // The Table-1-grade determinism claim: a cache hit is byte-identical to
  // the cold run, down to the serialised JSON.
  const std::string cold = toJson(statuses[0].result).dump();
  EXPECT_EQ(toJson(statuses[1].result).dump(), cold);
  EXPECT_EQ(toJson(statuses[2].result).dump(), cold);

  const CacheStats stats = scheduler.cacheStats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 2u);
  EXPECT_EQ(stats.inserts, 1u);
}

TEST(SchedulerCache, BypassCacheForcesFreshRuns) {
  SchedulerOptions options;
  options.threads = 1;
  std::atomic<int> engineRuns{0};
  options.preRunHook = [&engineRuns](const JobRequest&, int) { ++engineRuns; };
  JobScheduler scheduler(kTech, options);
  JobRequest job = fastJob("nocache");
  job.bypassCache = true;
  const auto statuses = scheduler.runBatch({job, job});
  ASSERT_EQ(statuses[0].state, JobState::kDone);
  ASSERT_EQ(statuses[1].state, JobState::kDone);
  EXPECT_FALSE(statuses[1].cacheHit);
  EXPECT_EQ(engineRuns.load(), 2);
}

TEST(SchedulerCoalescing, ConcurrentDuplicatesRunTheEngineOnce) {
  Gate gate;
  std::atomic<int> engineRuns{0};
  SchedulerOptions options;
  options.threads = 4;
  options.preRunHook = [&](const JobRequest&, int) {
    ++engineRuns;
    gate.enterAndWait();  // Hold the leader until all duplicates queued up.
  };
  JobScheduler scheduler(kTech, options);

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(scheduler.submit(fastJob("dup")));
  gate.waitUntilEntered();
  // Wait until the other three workers popped their jobs and parked as
  // waiters on the leader (parked jobs count as coalesced immediately).
  while (scheduler.metrics().coalesced < 3) std::this_thread::yield();
  gate.release();

  std::string leaderJson;
  int hits = 0;
  for (const std::uint64_t id : ids) {
    const JobStatus status = scheduler.wait(id);
    ASSERT_EQ(status.state, JobState::kDone) << status.error;
    const std::string json = toJson(status.result).dump();
    if (leaderJson.empty()) leaderJson = json;
    EXPECT_EQ(json, leaderJson);
    if (status.cacheHit) ++hits;
  }
  EXPECT_EQ(engineRuns.load(), 1);  // Single-flight: one real run.
  EXPECT_EQ(hits, 3);
  EXPECT_EQ(scheduler.metrics().coalesced, 3u);
}

TEST(SchedulerPriority, HigherPriorityOvertakesFifo) {
  Gate gate;
  std::vector<std::string> runOrder;
  std::mutex orderMutex;
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [&](const JobRequest& request, int) {
    {
      const std::lock_guard<std::mutex> lock(orderMutex);
      runOrder.push_back(request.label);
    }
    if (request.label == "blocker") gate.enterAndWait();
  };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t blocker = scheduler.submit(stubJob("blocker"));
  gate.waitUntilEntered();  // Worker is pinned; everything below stays queued.
  const std::uint64_t low = scheduler.submit(stubJob("low", 0));
  const std::uint64_t urgent = scheduler.submit(stubJob("urgent", 10));
  gate.release();

  (void)scheduler.wait(blocker);
  (void)scheduler.wait(low);
  (void)scheduler.wait(urgent);
  ASSERT_EQ(runOrder.size(), 3u);
  EXPECT_EQ(runOrder[0], "blocker");
  EXPECT_EQ(runOrder[1], "urgent");  // Priority 10 overtakes the earlier submit.
  EXPECT_EQ(runOrder[2], "low");
}

TEST(SchedulerCancel, QueuedJobDiesWithoutRunning) {
  Gate gate;
  std::atomic<int> engineRuns{0};
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [&](const JobRequest& request, int) {
    ++engineRuns;
    if (request.label == "blocker") gate.enterAndWait();
  };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t blocker = scheduler.submit(stubJob("blocker"));
  gate.waitUntilEntered();
  const std::uint64_t victim = scheduler.submit(fastJob("victim"));
  EXPECT_TRUE(scheduler.cancel(victim));
  gate.release();

  (void)scheduler.wait(blocker);
  const JobStatus status = scheduler.wait(victim);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_EQ(status.attempts, 0);
  EXPECT_EQ(engineRuns.load(), 1);  // Only the blocker entered the engine.
  EXPECT_EQ(scheduler.metrics().cancelled, 1u);
}

TEST(SchedulerCancel, RunningJobAbortsAtTheNextEnginePoll) {
  Gate gate;
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [&](const JobRequest&, int) { gate.enterAndWait(); };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t id = scheduler.submit(fastJob("victim"));
  gate.waitUntilEntered();           // The job is now running (pre-engine).
  EXPECT_TRUE(scheduler.cancel(id)); // Sets the flag the engine will poll.
  gate.release();

  const JobStatus status = scheduler.wait(id);
  EXPECT_EQ(status.state, JobState::kCancelled);
  EXPECT_FALSE(scheduler.cancel(id));  // Already terminal.
}

TEST(SchedulerDeadline, ExpiresBeforeRunning) {
  Gate gate;
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [&](const JobRequest& request, int) {
    if (request.label == "blocker") gate.enterAndWait();
  };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t blocker = scheduler.submit(stubJob("blocker"));
  gate.waitUntilEntered();
  JobRequest doomed = fastJob("doomed");
  doomed.deadlineSeconds = 0.001;
  const std::uint64_t id = scheduler.submit(doomed);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  gate.release();

  (void)scheduler.wait(blocker);
  const JobStatus status = scheduler.wait(id);
  EXPECT_EQ(status.state, JobState::kExpired);
  EXPECT_NE(status.error.find("deadline"), std::string::npos);
  EXPECT_EQ(scheduler.metrics().expired, 1u);
}

TEST(SchedulerDeadline, OneTooFarToCountNeverExpires) {
  // Deadlines past the clock's range are capped, not cast: an overflowing
  // cast would land the deadline in the past and expire the job unrun.
  SchedulerOptions options;
  options.threads = 1;
  JobScheduler scheduler(kTech, options);
  for (const double seconds : {1e30, std::numeric_limits<double>::infinity()}) {
    JobRequest job = stubJob("far");
    job.deadlineSeconds = seconds;
    const JobStatus status = scheduler.wait(scheduler.submit(job));
    EXPECT_EQ(status.state, JobState::kFailed) << seconds << ": " << status.error;
    EXPECT_NE(status.error.find("no_such_topology"), std::string::npos) << status.error;
  }
  EXPECT_EQ(scheduler.metrics().expired, 0u);
}

TEST(SchedulerRetry, TransientFailuresRetryUpToBudget) {
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [](const JobRequest& request, int attempt) {
    if (request.label == "flaky" && attempt <= 2) {
      throw TransientError("backend hiccup");
    }
  };
  JobScheduler scheduler(kTech, options);

  JobRequest flaky = fastJob("flaky");
  flaky.maxRetries = 2;
  const JobStatus ok = scheduler.wait(scheduler.submit(flaky));
  EXPECT_EQ(ok.state, JobState::kDone) << ok.error;
  EXPECT_EQ(ok.attempts, 3);  // Two transient failures, then success.
  EXPECT_EQ(scheduler.metrics().retries, 2u);

  JobRequest exhausted = fastJob("flaky", 40.0);  // Distinct cache key.
  exhausted.label = "flaky";
  exhausted.maxRetries = 1;
  const JobStatus failed = scheduler.wait(scheduler.submit(exhausted));
  EXPECT_EQ(failed.state, JobState::kFailed);
  EXPECT_NE(failed.error.find("retries exhausted"), std::string::npos);
}

TEST(SchedulerRetry, RetryCountIsSurfacedInTheStatus) {
  SchedulerOptions options;
  options.threads = 1;
  options.preRunHook = [](const JobRequest& request, int attempt) {
    if (request.label == "thrice" && attempt <= 3) {
      throw TransientError("injected fault: engine_transient");
    }
  };
  JobScheduler scheduler(kTech, options);

  JobRequest job = fastJob("thrice");
  job.maxRetries = 3;
  const JobStatus status = scheduler.wait(scheduler.submit(job));
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_EQ(status.attempts, 4);  // Three injected failures, then success.
  EXPECT_EQ(status.retries, 3);
  EXPECT_EQ(scheduler.metrics().retries, 3u);
}

TEST(SchedulerRetry, RetryBudgetIsClampedToTheSchedulerLimit) {
  SchedulerOptions options;
  options.threads = 1;
  options.maxRetryLimit = 2;
  std::atomic<int> attempts{0};
  options.preRunHook = [&attempts](const JobRequest&, int) {
    ++attempts;
    throw TransientError("always down");  // Never lets an attempt through.
  };
  JobScheduler scheduler(kTech, options);

  JobRequest hostile = fastJob("hostile");
  hostile.maxRetries = 1000000;  // A client cannot pin a worker forever.
  const JobStatus status = scheduler.wait(scheduler.submit(hostile));
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_EQ(status.retries, 2);
  EXPECT_EQ(attempts.load(), 3);  // 1 + the clamped retry budget.
}

TEST(SchedulerQueue, BoundedSubmissionRejectsOverflow) {
  Gate gate;
  SchedulerOptions options;
  options.threads = 1;
  options.maxQueueDepth = 1;
  options.preRunHook = [&](const JobRequest&, int) { gate.enterAndWait(); };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t running = scheduler.submit(stubJob("running"));
  gate.waitUntilEntered();  // Popped: the queue itself is empty again.
  (void)scheduler.submit(stubJob("queued"));
  EXPECT_THROW((void)scheduler.submit(stubJob("overflow")), QueueFullError);
  gate.release();
  (void)scheduler.wait(running);
}

TEST(SchedulerAdmission, OverloadShedsLowestPriorityWork) {
  Gate gate;
  SchedulerOptions options;
  options.threads = 1;
  options.maxQueueDepth = 4;
  options.shedWatermark = 0.5;  // Shed depth: 2 of 4.
  options.preRunHook = [&](const JobRequest&, int) { gate.enterAndWait(); };
  JobScheduler scheduler(kTech, options);

  const std::uint64_t running = scheduler.submit(stubJob("running"));
  gate.waitUntilEntered();  // Popped: only the two below stay queued.
  const std::uint64_t keep = scheduler.submit(stubJob("keep", 1));
  const std::uint64_t victimId = scheduler.submit(stubJob("victim", 0));

  // At the watermark: higher-priority work displaces the lowest queued job.
  const std::uint64_t vip = scheduler.submit(stubJob("vip", 5));
  const JobStatus victim = scheduler.wait(victimId);
  EXPECT_EQ(victim.state, JobState::kShed);
  EXPECT_NE(victim.error.find("displaced"), std::string::npos);
  EXPECT_EQ(scheduler.metrics().shed, 1u);

  // Nothing strictly lower-priority remains to displace: the submission is
  // pushed back with a structured retry hint, catchable as the legacy
  // QueueFullError too.
  try {
    (void)scheduler.submit(stubJob("turned-away", 1));
    FAIL() << "expected OverloadedError";
  } catch (const OverloadedError& e) {
    EXPECT_EQ(e.queueDepth(), 2u);
    EXPECT_GE(e.retryAfterMs(), 100);
    EXPECT_LE(e.retryAfterMs(), 30000);
  }
  EXPECT_THROW((void)scheduler.submit(stubJob("legacy", 1)), QueueFullError);
  EXPECT_EQ(scheduler.metrics().overloadRejections, 2u);

  gate.release();
  (void)scheduler.wait(running);
  (void)scheduler.wait(keep);
  (void)scheduler.wait(vip);
}

TEST(SchedulerBreaker, OpensAfterConsecutiveFailuresThenReopensOnBadProbe) {
  SchedulerOptions options;
  options.threads = 1;
  options.breakerFailureThreshold = 2;
  options.breakerResetSeconds = 0.05;
  JobScheduler scheduler(kTech, options);

  (void)scheduler.wait(scheduler.submit(stubJob("f1")));
  (void)scheduler.wait(scheduler.submit(stubJob("f2")));
  // Two consecutive non-transient failures: the topology's breaker is open.
  try {
    (void)scheduler.submit(stubJob("rejected"));
    FAIL() << "expected CircuitOpenError";
  } catch (const CircuitOpenError& e) {
    EXPECT_EQ(e.topology(), "no_such_topology");
    EXPECT_GE(e.retryAfterMs(), 1);
  }
  EXPECT_EQ(scheduler.metrics().breakerOpens, 1u);
  EXPECT_EQ(scheduler.metrics().breakerRejections, 1u);
  // Healthy topologies are unaffected: breakers are per-topology.
  EXPECT_EQ(scheduler.wait(scheduler.submit(fastJob("healthy"))).state,
            JobState::kDone);

  // After the reset window one half-open probe gets through; its failure
  // slams the breaker shut again.
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(scheduler.wait(scheduler.submit(stubJob("probe"))).state,
            JobState::kFailed);
  EXPECT_THROW((void)scheduler.submit(stubJob("still-open")), CircuitOpenError);
  EXPECT_EQ(scheduler.metrics().breakerOpens, 2u);
}

TEST(SchedulerBreaker, SuccessfulProbeClosesTheBreaker) {
  std::atomic<bool> poison{true};
  SchedulerOptions options;
  options.threads = 1;
  options.breakerFailureThreshold = 1;
  options.breakerResetSeconds = 0.05;
  options.preRunHook = [&](const JobRequest&, int) {
    if (poison.load()) throw std::runtime_error("injected engine failure");
  };
  JobScheduler scheduler(kTech, options);

  EXPECT_EQ(scheduler.wait(scheduler.submit(fastJob("poisoned"))).state,
            JobState::kFailed);
  EXPECT_THROW((void)scheduler.submit(fastJob("while-open", 66.0)),
               CircuitOpenError);

  poison.store(false);
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(scheduler.wait(scheduler.submit(fastJob("probe", 67.0))).state,
            JobState::kDone);
  // The good probe closed the breaker: submissions flow freely again.
  EXPECT_EQ(scheduler.wait(scheduler.submit(fastJob("after", 68.0))).state,
            JobState::kDone);
}

TEST(SchedulerHealth, SnapshotCoversQueueBreakersAndJournal) {
  SchedulerOptions options;
  options.threads = 2;
  options.maxQueueDepth = 8;
  options.shedWatermark = 0.5;
  options.breakerFailureThreshold = 3;
  JobScheduler scheduler(kTech, options);
  (void)scheduler.wait(scheduler.submit(stubJob("fail")));

  const HealthSnapshot h = scheduler.health();
  EXPECT_EQ(h.queueLimit, 8u);
  EXPECT_EQ(h.shedDepth, 4u);
  EXPECT_EQ(h.workers, 2);
  EXPECT_EQ(h.queueDepth, 0u);
  EXPECT_FALSE(h.overloaded);
  EXPECT_FALSE(h.journal.enabled);  // No --journal: the section says so.
  ASSERT_EQ(h.breakers.size(), 1u);
  EXPECT_EQ(h.breakers[0].topology, "no_such_topology");
  EXPECT_EQ(h.breakers[0].state, "closed");
  EXPECT_EQ(h.breakers[0].consecutiveFailures, 1);
  EXPECT_EQ(h.breakers[0].opens, 0u);
}

TEST(SchedulerErrors, EngineFailureIsReportedNotThrown) {
  JobScheduler scheduler(kTech, SchedulerOptions{});
  const JobStatus status = scheduler.wait(scheduler.submit(stubJob("bad")));
  EXPECT_EQ(status.state, JobState::kFailed);
  EXPECT_NE(status.error.find("no_such_topology"), std::string::npos);
  EXPECT_EQ(scheduler.metrics().failed, 1u);
}

TEST(SchedulerErrors, UnknownIdsAreHandled) {
  JobScheduler scheduler(kTech, SchedulerOptions{});
  EXPECT_THROW((void)scheduler.wait(12345), std::invalid_argument);
  EXPECT_FALSE(scheduler.cancel(12345));
  EXPECT_FALSE(scheduler.status(12345).has_value());
}

TEST(SchedulerTrace, StagesAndTimingsAreRecorded) {
  SchedulerOptions options;
  options.threads = 1;
  JobScheduler scheduler(kTech, options);
  const JobStatus status = scheduler.wait(scheduler.submit(fastJob("traced")));
  ASSERT_EQ(status.state, JobState::kDone) << status.error;
  ASSERT_FALSE(status.trace.stages.empty());
  EXPECT_EQ(status.trace.stages.front().stage, "sizing");
  bool sawVerification = false;
  for (const StageTiming& st : status.trace.stages) {
    EXPECT_GE(st.seconds, 0.0);
    if (st.stage == "verification") sawVerification = true;
  }
  EXPECT_TRUE(sawVerification);
  EXPECT_GT(status.trace.runSeconds, 0.0);

  // A cache hit reports no engine stages.
  const JobStatus hit = scheduler.wait(scheduler.submit(fastJob("traced")));
  EXPECT_TRUE(hit.cacheHit);
  EXPECT_TRUE(hit.trace.stages.empty());

  const MetricsSnapshot metrics = scheduler.metrics();
  EXPECT_GT(metrics.stageSeconds.at("verification"), 0.0);
  EXPECT_EQ(metrics.stageCalls.at("generation"), 1u);
}

/// Everything status()/wait() report, serialised.
std::string statusText(const JobStatus& status) {
  Json out = Json::object();
  out.set("id", status.id);
  out.set("label", status.label);
  out.set("state", jobStateName(status.state));
  out.set("cache_key", status.cacheKey);
  out.set("cache_hit", status.cacheHit);
  out.set("coalesced", status.coalesced);
  out.set("recovered", status.recovered);
  out.set("attempts", status.attempts);
  out.set("retries", status.retries);
  out.set("error", status.error);
  out.set("result", toJson(status.result));
  out.set("trace", traceToJson(status.id, status.label, jobStateName(status.state),
                               status.cacheHit, status.attempts, status.retries,
                               status.trace));
  return out.dump();
}

TEST(SchedulerMemory, FinishedJobsServedFromTheStoreAnswerByteIdentically) {
  // An engine-run job whose result is durable on disk keeps only a
  // compact record; status() and wait() re-read its result by key.  With
  // a one-entry memory tier the first job's result is on disk only by the
  // time it is asked for again, and re-serving it moves no cache stats.
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("lo_sched_archive_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    SchedulerOptions options;
    options.threads = 1;
    options.cache.capacity = 1;
    options.cache.diskDir = dir.string();
    JobScheduler scheduler(kTech, options);
    const JobRequest first = fastJob("first");
    const std::uint64_t id = scheduler.submit(first);
    const JobStatus original = scheduler.wait(id);
    ASSERT_EQ(original.state, JobState::kDone) << original.error;
    EXPECT_FALSE(original.cacheHit);
    // The engine's own answer, independent of any record the scheduler kept.
    const core::SynthesisEngine engine(kTech, first.options);
    EXPECT_EQ(toJson(original.result).dump(), toJson(engine.run(first.specs)).dump());

    for (const double gbwMhz : {55.0, 60.0, 70.0}) {
      ASSERT_EQ(scheduler.wait(scheduler.submit(fastJob("later", gbwMhz))).state,
                JobState::kDone);
    }
    const CacheStats before = scheduler.cacheStats();
    EXPECT_EQ(statusText(scheduler.wait(id)), statusText(original));
    const std::optional<JobStatus> snapshot = scheduler.status(id);
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_EQ(statusText(*snapshot), statusText(original));
    EXPECT_FALSE(scheduler.cancel(id));  // Terminal, archived or not.

    const CacheStats after = scheduler.cacheStats();
    EXPECT_EQ(after.hits, before.hits);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.diskHits, before.diskHits);
    EXPECT_EQ(after.inserts, before.inserts);
    EXPECT_EQ(after.evictions, before.evictions);
  }
  std::filesystem::remove_all(dir);
}

/// A scheduler whose hook holds a worker inside every job labelled "gate"
/// until the current cycle's Gate opens.
class GatedScheduler {
 public:
  explicit GatedScheduler(SchedulerOptions options) {
    options.preRunHook = [this](const JobRequest& request, int) {
      if (request.label == "gate") gate_->enterAndWait();
    };
    scheduler_.emplace(kTech, std::move(options));
  }

  JobScheduler* operator->() { return &*scheduler_; }

  /// Submits `target` behind `holder` (labelled "gate"), then waits for it
  /// from this thread while the worker is still held; after 20 ms another
  /// thread runs `act` and opens the gate.  The status is the live
  /// record's snapshot as the job finishes.
  JobStatus finishLive(const JobRequest& target,
                       const std::function<void(std::uint64_t)>& act = {},
                       const JobRequest& holder = stubJob("gate")) {
    Gate gate;
    gate_ = &gate;
    const std::uint64_t held = scheduler_->submit(holder);
    gate.waitUntilEntered();
    const std::uint64_t id = scheduler_->submit(target);
    std::thread actor([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      if (act) act(id);
      gate.release();
    });
    const JobStatus live = scheduler_->wait(id);
    actor.join();
    (void)scheduler_->wait(held);
    return live;
  }

 private:
  Gate* gate_ = nullptr;
  std::optional<JobScheduler> scheduler_;
};

TEST(SchedulerMemory, EveryKindOfFinishedJobAnswersAsItsLiveRecordDid) {
  // A job leaves the live table when it finishes; its finished record
  // must answer status() and wait() exactly as the live record answered
  // the waiter that saw it finish, after its result left the memory tier.
  const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                    ("lo_sched_kinds_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  {
    SchedulerOptions options;
    options.threads = 1;
    options.maxQueueDepth = 4;
    options.shedWatermark = 0.5;  // Shed depth: 2 of 4.
    options.cache.capacity = 1;
    options.cache.diskDir = (dir / "store").string();
    GatedScheduler store(options);

    SchedulerOptions faulty = options;
    faulty.cache.diskDir = (dir / "faulty").string();
    faulty.cache.diskWriteFault = [](const std::string&) { return true; };
    GatedScheduler failedWrites(faulty);

    SchedulerOptions memoryOnly = options;
    memoryOnly.cache.diskDir.clear();
    GatedScheduler memory(memoryOnly);

    SchedulerOptions pair = options;
    pair.threads = 2;
    pair.cache.diskDir = (dir / "pair").string();  // The leader must run the engine.
    GatedScheduler coalescing(pair);

    struct Finished {
      const char* kind;
      GatedScheduler* scheduler;
      JobStatus live;
    };
    std::vector<Finished> finished;
    const auto add = [&finished](const char* kind, GatedScheduler& scheduler,
                                 const JobStatus& live) {
      finished.push_back({kind, &scheduler, live});
    };
    add("engine run", store, store.finishLive(fastJob("engine")));
    add("memory hit", store, store.finishLive(fastJob("memory hit")));
    ASSERT_EQ(store->wait(store->submit(fastJob("evictor", 55.0))).state,
              JobState::kDone);
    add("disk hit", store, store.finishLive(fastJob("disk hit")));
    JobRequest bypass = fastJob("bypass");
    bypass.bypassCache = true;
    add("bypass-cache job", store, store.finishLive(bypass));
    add("failed", store, store.finishLive(stubJob("failed")));
    add("cancelled", store, store.finishLive(stubJob("cancelled"), [&](std::uint64_t id) {
          EXPECT_TRUE(store->cancel(id));
        }));
    JobRequest doomed = fastJob("expired", 60.0);
    doomed.deadlineSeconds = 0.001;
    add("expired", store, store.finishLive(doomed));
    add("shed", store, store.finishLive(stubJob("shed"), [&](std::uint64_t) {
          (void)store->submit(stubJob("filler", 1));
          (void)store->submit(stubJob("vip", 5));
        }));
    add("coalesced follower", coalescing,
        coalescing.finishLive(
            fastJob("follower"),
            [&](std::uint64_t) {
              while (coalescing->metrics().coalesced < 1) std::this_thread::yield();
            },
            fastJob("gate")));
    add("memory-only engine run", memory, memory.finishLive(fastJob("engine")));
    add("memory-only hit", memory, memory.finishLive(fastJob("hit")));
    add("failed-write engine run", failedWrites,
        failedWrites.finishLive(fastJob("engine")));
    add("hit on a failed write", failedWrites, failedWrites.finishLive(fastJob("hit")));

    const JobState expected[] = {
        JobState::kDone,   JobState::kDone,      JobState::kDone,    JobState::kDone,
        JobState::kFailed, JobState::kCancelled, JobState::kExpired, JobState::kShed,
        JobState::kDone,   JobState::kDone,      JobState::kDone,    JobState::kDone,
        JobState::kDone};
    ASSERT_EQ(finished.size(), std::size(expected));
    for (GatedScheduler* scheduler : {&store, &failedWrites, &memory, &coalescing}) {
      (*scheduler)->cache().clear();  // Every result leaves the memory tier.
    }
    for (std::size_t i = 0; i < finished.size(); ++i) {
      const Finished& f = finished[i];
      SCOPED_TRACE(f.kind);
      EXPECT_EQ(f.live.state, expected[i]) << f.live.error;
      const std::string live = statusText(f.live);
      EXPECT_EQ(statusText((*f.scheduler)->wait(f.live.id)), live);
      const std::optional<JobStatus> status = (*f.scheduler)->status(f.live.id);
      ASSERT_TRUE(status.has_value());
      EXPECT_EQ(statusText(*status), live);
      EXPECT_FALSE((*f.scheduler)->cancel(f.live.id));
    }
    EXPECT_TRUE(finished[1].live.cacheHit);
    EXPECT_TRUE(finished[2].live.cacheHit);
    EXPECT_TRUE(finished[8].live.coalesced);
    EXPECT_EQ(store->cacheStats().diskHits, 1u);
  }
  std::filesystem::remove_all(dir);
}

TEST(SchedulerMemory, OnlyResultsTheStoreCannotGiveBackOutliveIt) {
  // Each input finishes a job, then the store loses its entry and the
  // memory tier is dropped.  A job whose result the store held says so;
  // one whose result only its own record could hold still answers done.
  const JobRequest reference = fastJob("reference");
  const std::string answer =
      toJson(core::SynthesisEngine(kTech, reference.options).run(reference.specs))
          .dump();
  struct Input {
    const char* kind;
    bool disk;        ///< The cache has a disk store.
    bool writeFault;  ///< Every store write fails.
    bool lost;        ///< The reply must say the store lost the result.
  };
  for (const Input& in : {Input{"cache hit", true, false, true},
                          Input{"coalesced follower", true, false, true},
                          Input{"bypass-cache job", true, false, false},
                          Input{"memory-only cache hit", false, false, false},
                          Input{"hit on a failed store write", true, true, false}}) {
    SCOPED_TRACE(in.kind);
    const std::string kind = in.kind;
    const std::filesystem::path dir = std::filesystem::temp_directory_path() /
                                      ("lo_sched_loss_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    SchedulerOptions options;
    options.threads = 2;
    options.cache.capacity = 1;
    if (in.disk) options.cache.diskDir = dir.string();
    if (in.writeFault) {
      options.cache.diskWriteFault = [](const std::string&) { return true; };
    }
    {
      GatedScheduler scheduler(options);
      std::uint64_t id = 0;
      if (kind == "coalesced follower") {
        id = scheduler
                 .finishLive(
                     fastJob("follower"),
                     [&](std::uint64_t) {
                       while (scheduler->metrics().coalesced < 1) {
                         std::this_thread::yield();
                       }
                     },
                     fastJob("gate"))
                 .id;
      } else if (kind == "bypass-cache job") {
        JobRequest job = fastJob("bypass");
        job.bypassCache = true;
        id = scheduler->submit(job);
      } else {
        ASSERT_EQ(scheduler->wait(scheduler->submit(fastJob("first"))).state,
                  JobState::kDone);
        id = scheduler->submit(fastJob("hit"));
      }
      const JobStatus done = scheduler->wait(id);
      ASSERT_EQ(done.state, JobState::kDone) << done.error;
      EXPECT_EQ(done.cacheHit, kind != "bypass-cache job");

      std::filesystem::remove_all(dir);
      scheduler->cache().clear();
      const std::optional<JobStatus> status = scheduler->status(id);
      ASSERT_TRUE(status.has_value());
      for (const JobStatus& after : {scheduler->wait(id), *status}) {
        if (in.lost) {
          EXPECT_EQ(after.state, JobState::kFailed);
          EXPECT_NE(after.error.find("is no longer in the store"), std::string::npos)
              << after.error;
        } else {
          ASSERT_EQ(after.state, JobState::kDone) << after.error;
          EXPECT_EQ(toJson(after.result).dump(), answer);
        }
      }
    }
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace lo::service
