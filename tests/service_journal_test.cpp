// Crash-safety tests for the write-ahead job journal and the scheduler's
// restart recovery: replay idempotence, torn-tail tolerance, finished-job
// replay served from the cache without an engine run, the
// kill-mid-batch -> restart -> all-jobs-accounted-for contract, and seeded
// fuzzing of both journals' decoders (frames and records).
#include "service/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "explore/session_journal.hpp"
#include "fuzz_edits.hpp"
#include "service/scheduler.hpp"
#include "service/serialize.hpp"
#include "testkit/generators.hpp"

namespace lo::service {
namespace {

const tech::Technology kTech = tech::Technology::generic060();

/// A fresh scratch directory per test, removed again when the test ends.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((std::filesystem::temp_directory_path() /
              ("lo_journal_test_" + name + "_" + std::to_string(::getpid())))
                 .string()) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string path;
};

JournalOptions dirOptions(const std::string& dir) {
  JournalOptions options;
  options.dir = dir;
  return options;
}

JobRequest fastJob(const std::string& label, double gbwMhz = 65.0) {
  JobRequest job;
  job.label = label;
  // Case 1 skips the parasitic loop: the cheapest real end-to-end run.
  job.options.sizingCase = core::SizingCase::kCase1;
  job.specs.gbw = gbwMhz * 1e6;
  return job;
}

JournalRecord submittedRecord(std::uint64_t id, const std::string& label) {
  JournalRecord rec;
  rec.type = JournalRecordType::kSubmitted;
  rec.id = id;
  rec.cacheKey = "key" + std::to_string(id);
  rec.job = toJson(fastJob(label));
  return rec;
}

JournalRecord finishedRecord(std::uint64_t id, const std::string& state) {
  JournalRecord rec;
  rec.type = JournalRecordType::kFinished;
  rec.id = id;
  rec.state = state;
  return rec;
}

TEST(JobJournal, RoundTripsRecordsAndDigestsPending) {
  const ScratchDir dirScratch("roundtrip");
  const std::string& dir = dirScratch.path;
  {
    JobJournal journal(dirOptions(dir));
    (void)journal.replay();
    journal.append(submittedRecord(1, "a"));
    journal.append(submittedRecord(2, "b"));
    JournalRecord started;
    started.type = JournalRecordType::kStarted;
    started.id = 1;
    started.attempt = 1;
    journal.append(started);
    journal.append(finishedRecord(1, "done"));
    EXPECT_EQ(journal.appended(), 4u);
  }

  JobJournal journal(dirOptions(dir));
  const JournalReplay replay = journal.replay();
  EXPECT_EQ(replay.records.size(), 4u);
  EXPECT_FALSE(replay.tornTail);
  EXPECT_EQ(replay.finished, 1u);
  EXPECT_EQ(replay.maxId, 2u);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].id, 2u);
  EXPECT_EQ(replay.pending[0].cacheKey, "key2");
  // The serialised request survives the round trip.
  const JobRequest restored = jobRequestFromJson(replay.pending[0].job);
  EXPECT_EQ(restored.label, "b");
  EXPECT_EQ(restored.options.sizingCase, core::SizingCase::kCase1);
}

TEST(JobJournal, RecordWithoutANumericIdIsUndecodable) {
  // An id that is missing or not a number must not default to job 0.
  Json withId = submittedRecord(3, "c").toJson();
  Json stringId = Json::object();
  for (const auto& [key, value] : withId.members()) {
    stringId.set(key, key == "id" ? Json("3") : value);
  }
  Json missing = Json::object();
  for (const auto& [key, value] : withId.members()) {
    if (key != "id") missing.set(key, value);
  }
  EXPECT_THROW((void)JournalRecord::fromJson(missing), std::invalid_argument);
  EXPECT_THROW((void)JournalRecord::fromJson(stringId), std::invalid_argument);
  EXPECT_EQ(JournalRecord::fromJson(withId).id, 3u);

  // On replay such a frame is cut like a torn one, with all that follows.
  const ScratchDir dirScratch("no_id");
  FramedLogOptions log;
  log.path = dirScratch.path + "/journal.wal";
  FramedLog(log).rewrite({submittedRecord(1, "a").toJson().dump(), missing.dump(),
                          submittedRecord(2, "b").toJson().dump()});
  JobJournal journal(dirOptions(dirScratch.path));
  const JournalReplay replay = journal.replay();
  EXPECT_TRUE(replay.tornTail);
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].id, 1u);
}

TEST(JobJournal, DoubleReplayIsIdempotent) {
  const ScratchDir dirScratch("idempotent");
  const std::string& dir = dirScratch.path;
  JobJournal journal(dirOptions(dir));
  (void)journal.replay();
  journal.append(submittedRecord(1, "a"));
  journal.append(submittedRecord(2, "b"));
  journal.append(finishedRecord(2, "failed"));

  const JournalReplay first = journal.replay();
  const JournalReplay second = journal.replay();
  EXPECT_EQ(first.records.size(), second.records.size());
  ASSERT_EQ(first.pending.size(), second.pending.size());
  ASSERT_EQ(first.pending.size(), 1u);
  EXPECT_EQ(first.pending[0].id, second.pending[0].id);
  EXPECT_EQ(first.maxId, second.maxId);
  EXPECT_EQ(first.pending[0].job.dump(), second.pending[0].job.dump());
}

TEST(JobJournal, ToleratesAndTruncatesTornFinalRecord) {
  const ScratchDir dirScratch("torn");
  const std::string& dir = dirScratch.path;
  {
    JobJournal journal(dirOptions(dir));
    (void)journal.replay();
    journal.append(submittedRecord(1, "a"));
    journal.append(submittedRecord(2, "b"));
  }
  // Tear the tail: drop the final 5 bytes, as a SIGKILL mid-append would.
  const std::string path =
      (std::filesystem::path(dir) / "journal.wal").string();
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 5);

  JobJournal journal(dirOptions(dir));
  const JournalReplay replay = journal.replay();
  EXPECT_TRUE(replay.tornTail);
  EXPECT_GT(replay.truncatedBytes, 0u);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].id, 1u);

  // After truncation the log is clean: appends land on a frame boundary
  // and a second replay sees no tear.
  journal.append(submittedRecord(3, "c"));
  const JournalReplay again = journal.replay();
  EXPECT_FALSE(again.tornTail);
  EXPECT_EQ(again.records.size(), 2u);
  EXPECT_EQ(again.pending.size(), 2u);
}

TEST(JobJournal, TornWriteFaultLeavesReplayableLog) {
  const ScratchDir dirScratch("torn_fault");
  const std::string& dir = dirScratch.path;
  std::atomic<int> appends{0};
  JournalOptions options = dirOptions(dir);
  // The third append tears mid-frame and freezes the journal.
  options.tornWriteFault = [&appends] { return ++appends == 3; };
  {
    JobJournal journal(options);
    (void)journal.replay();
    journal.append(submittedRecord(1, "a"));
    journal.append(submittedRecord(2, "b"));
    journal.append(finishedRecord(1, "done"));  // Torn.
    EXPECT_TRUE(journal.frozen());
    journal.append(finishedRecord(2, "done"));  // Silently dropped.
    EXPECT_EQ(journal.appended(), 2u);
  }

  JobJournal journal(dirOptions(dir));
  const JournalReplay replay = journal.replay();
  EXPECT_TRUE(replay.tornTail);
  EXPECT_EQ(replay.records.size(), 2u);
  // Neither job has a surviving terminal record: both replay as pending.
  EXPECT_EQ(replay.pending.size(), 2u);
}

TEST(JobJournal, AppendFailureTruncatesBackToGoodBoundary) {
  const ScratchDir dirScratch("short_write");
  const std::string& dir = dirScratch.path;
  std::atomic<int> appends{0};
  JournalOptions options = dirOptions(dir);
  // The second append suffers a transient short write (half a frame lands,
  // as an ENOSPC would leave).
  options.shortWriteFault = [&appends] { return ++appends == 2; };
  JobJournal journal(options);
  (void)journal.replay();
  journal.append(submittedRecord(1, "a"));
  EXPECT_THROW(journal.append(submittedRecord(2, "b")), std::runtime_error);
  // Transient failure, not a crash: the journal stays usable, and the torn
  // bytes were truncated away so the next acknowledged append lands on a
  // clean frame boundary instead of behind a frame replay stops at.
  EXPECT_FALSE(journal.frozen());
  journal.append(finishedRecord(1, "done"));
  const JournalReplay replay = journal.replay();
  EXPECT_FALSE(replay.tornTail);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[1].type, JournalRecordType::kFinished);
  EXPECT_TRUE(replay.pending.empty());
}

TEST(JobJournal, StaleMagicResetsInsteadOfMisparsing) {
  const ScratchDir dirScratch("magic");
  const std::string& dir = dirScratch.path;
  {
    std::ofstream out(std::filesystem::path(dir) / "journal.wal",
                      std::ios::binary);
    out << "not a journal at all";
  }
  JobJournal journal(dirOptions(dir));
  const JournalReplay replay = journal.replay();
  EXPECT_TRUE(replay.records.empty());
  EXPECT_FALSE(replay.tornTail);  // A reset, not a torn tail.
  // The journal is usable after the reset.
  journal.append(submittedRecord(1, "a"));
  EXPECT_EQ(journal.replay().records.size(), 1u);
}

TEST(JobJournal, CompactKeepsOnlyLiveRecords) {
  const ScratchDir dirScratch("compact");
  const std::string& dir = dirScratch.path;
  JobJournal journal(dirOptions(dir));
  (void)journal.replay();
  journal.append(submittedRecord(1, "a"));
  journal.append(finishedRecord(1, "done"));
  journal.append(submittedRecord(2, "b"));
  EXPECT_EQ(journal.recordsInLog(), 3u);

  journal.compact({submittedRecord(2, "b")});
  EXPECT_EQ(journal.recordsInLog(), 1u);
  EXPECT_EQ(journal.compactions(), 1u);
  const JournalReplay replay = journal.replay();
  ASSERT_EQ(replay.pending.size(), 1u);
  EXPECT_EQ(replay.pending[0].id, 2u);
}

TEST(SchedulerJournal, CleanShutdownLeavesEmptyJournal) {
  const ScratchDir dirScratch("clean_shutdown");
  const std::string& dir = dirScratch.path;
  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  {
    JobScheduler scheduler(kTech, options);
    const JobStatus status = scheduler.wait(scheduler.submit(fastJob("a")));
    EXPECT_EQ(status.state, JobState::kDone);
  }
  // The destructor compacts a fully-terminal job set down to nothing.
  const JournalReplay replay = JobJournal::replayFile(
      (std::filesystem::path(dir) / "journal.wal").string());
  EXPECT_TRUE(replay.pending.empty());
  EXPECT_TRUE(replay.records.empty());

  // A reboot on the empty journal recovers nothing.
  JobScheduler rebooted(kTech, options);
  EXPECT_EQ(rebooted.health().journal.recoveredJobs, 0u);
}

TEST(SchedulerJournal, CleanShutdownPreservesUnfinishedJobsForRecovery) {
  const ScratchDir dirScratch("shutdown_preserve");
  const std::string& dir = dirScratch.path;
  std::atomic<bool> hold{true};
  std::atomic<bool> entered{false};

  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  // Pin the single worker so no job can complete before the destructor
  // runs -- otherwise a fast job could legitimately finish and compact
  // away, and the test would race the machine.  Once released, the held
  // job enters its engine run with cancellation already requested and
  // aborts at the first stage check, so it stays preserved too.
  options.preRunHook = [&hold, &entered](const JobRequest&, int) {
    entered = true;
    while (hold) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  std::vector<std::uint64_t> ids;
  std::thread releaser;
  {
    JobScheduler scheduler(kTech, options);
    for (int i = 0; i < 3; ++i) {
      ids.push_back(scheduler.submit(fastJob("q" + std::to_string(i),
                                             60.0 + i)));
    }
    while (!entered) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    // The destructor joins the pinned worker; release it from outside
    // once shutdown is underway.
    releaser = std::thread([&hold] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      hold = false;
    });
  }  // Clean shutdown with the whole batch unfinished.
  releaser.join();

  // Every acknowledged job is accounted for: finished in the log, or kept
  // live for the next boot -- never silently erased by the shutdown
  // compaction.
  const std::string path =
      (std::filesystem::path(dir) / "journal.wal").string();
  const JournalReplay replay = JobJournal::replayFile(path);
  std::set<std::uint64_t> pending;
  for (const JournalRecord& rec : replay.pending) pending.insert(rec.id);
  std::set<std::uint64_t> finished;
  for (const JournalRecord& rec : replay.records) {
    if (rec.type == JournalRecordType::kFinished) finished.insert(rec.id);
  }
  for (const std::uint64_t id : ids) {
    EXPECT_TRUE(pending.count(id) > 0 || finished.count(id) > 0)
        << "job " << id << " vanished from the journal at clean shutdown";
  }
  // The pinned worker drained nothing: the running head and the queued
  // tail must all have been preserved.
  EXPECT_EQ(pending.size(), 3u);

  // A reboot on the same journal recovers exactly the preserved jobs and
  // finishes them.
  JobScheduler rebooted(kTech, options);
  EXPECT_EQ(rebooted.health().journal.recoveredJobs, pending.size());
  for (const std::uint64_t id : pending) {
    const JobStatus status = rebooted.wait(id);
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_TRUE(status.recovered);
  }
}

TEST(SchedulerJournal, SubmitJournalFailureDoesNotShedQueuedVictim) {
  const ScratchDir dirScratch("shed_append_fail");
  const std::string& dir = dirScratch.path;
  std::atomic<bool> hold{true};
  std::atomic<bool> entered{false};
  std::atomic<bool> failNext{false};

  SchedulerOptions options;
  options.threads = 1;
  options.maxQueueDepth = 4;
  options.shedWatermark = 0.5;  // Shed depth: 2.
  options.journal.dir = dir;
  options.journal.shortWriteFault = [&failNext] {
    return failNext.exchange(false);
  };
  // Pin the single worker so the queue cannot drain underneath the test.
  options.preRunHook = [&hold, &entered](const JobRequest&, int) {
    entered = true;
    while (hold) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  };

  {
    JobScheduler scheduler(kTech, options);
    (void)scheduler.submit(fastJob("blocker", 60.0));
    while (!entered) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    (void)scheduler.submit(fastJob("low1", 61.0));
    const std::uint64_t victimId = scheduler.submit(fastJob("low2", 62.0));

    // The queue sits at the watermark; a higher-priority submission would
    // displace low2 -- but its journal append fails, so the submission is
    // rejected and the victim must survive untouched.
    JobRequest high = fastJob("high", 63.0);
    high.priority = 5;
    failNext = true;
    EXPECT_THROW((void)scheduler.submit(high), std::runtime_error);
    ASSERT_TRUE(scheduler.status(victimId).has_value());
    EXPECT_EQ(scheduler.status(victimId)->state, JobState::kQueued);
    EXPECT_EQ(scheduler.metrics().shed, 0u);

    // With the journal healthy again the same submission is admitted and
    // the displacement actually happens.
    (void)scheduler.submit(high);
    EXPECT_EQ(scheduler.status(victimId)->state, JobState::kShed);
    EXPECT_EQ(scheduler.metrics().shed, 1u);

    hold = false;
  }
}

TEST(SchedulerJournal, KillMidBatchRestartAccountsForEveryJob) {
  const ScratchDir dirScratch("kill_mid_batch");
  const std::string& dir = dirScratch.path;
  const ScratchDir cacheDirScratch("kill_mid_batch_cache");
  const std::string& cacheDir = cacheDirScratch.path;

  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  options.cache.diskDir = cacheDir;

  std::vector<std::uint64_t> ids;
  {
    JobScheduler scheduler(kTech, options);
    for (int i = 0; i < 4; ++i) {
      ids.push_back(scheduler.submit(fastJob("job" + std::to_string(i),
                                             60.0 + i)));
    }
    // The "SIGKILL": from here on nothing reaches the journal -- the four
    // submitted records are the log's final word.  The in-process daemon
    // still finishes the batch, so every result lands in the disk cache.
    scheduler.journal()->simulateCrash();
    for (const std::uint64_t id : ids) {
      EXPECT_EQ(scheduler.wait(id).state, JobState::kDone);
    }
  }  // Destructor compaction is skipped: the journal is frozen.

  // Restart on the same directories.  The engine must never run: every
  // replayed job's result already survived in the content-addressed cache.
  std::atomic<int> engineRuns{0};
  SchedulerOptions bootOptions = options;
  bootOptions.journal.tornWriteFault = nullptr;
  bootOptions.preRunHook = [&engineRuns](const JobRequest&, int) {
    ++engineRuns;
  };
  JobScheduler rebooted(kTech, bootOptions);

  const HealthSnapshot boot = rebooted.health();
  EXPECT_EQ(boot.journal.recoveredJobs, 4u);

  std::set<std::uint64_t> seen;
  for (const std::uint64_t id : ids) {
    const JobStatus status = rebooted.wait(id);  // Original ids survive.
    EXPECT_EQ(status.state, JobState::kDone) << status.error;
    EXPECT_TRUE(status.cacheHit);
    EXPECT_TRUE(status.recovered);
    seen.insert(status.id);
  }
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(engineRuns.load(), 0);

  // The drained backlog triggered a compaction: no journal lag remains.
  const HealthSnapshot drained = rebooted.health();
  EXPECT_GE(drained.journal.compactions, 1u);
  EXPECT_EQ(drained.journal.recoveredRemaining, 0u);
  EXPECT_EQ(drained.journal.lag, 0u);
}

TEST(SchedulerJournal, CrashBeforeResultsRerunsTheEngine) {
  const ScratchDir dirScratch("rerun");
  const std::string& dir = dirScratch.path;
  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  // No disk cache: after the crash nothing durable holds the result, so
  // recovery must actually re-run the engine.
  std::uint64_t id = 0;
  {
    JobScheduler scheduler(kTech, options);
    scheduler.journal()->simulateCrash();
    id = scheduler.submit(fastJob("volatile"));
    (void)scheduler.wait(id);
  }
  // simulateCrash happened before the submit: the submitted record never
  // reached the log, so this scenario needs its own pre-crash submit.
  const JournalReplay replay = JobJournal::replayFile(
      (std::filesystem::path(dir) / "journal.wal").string());
  EXPECT_TRUE(replay.pending.empty());

  // Now the real scenario: submit, then crash, then restart.
  {
    JobScheduler scheduler(kTech, options);
    id = scheduler.submit(fastJob("volatile"));
    scheduler.journal()->simulateCrash();
    (void)scheduler.wait(id);
  }
  std::atomic<int> engineRuns{0};
  SchedulerOptions bootOptions = options;
  bootOptions.preRunHook = [&engineRuns](const JobRequest&, int) {
    ++engineRuns;
  };
  JobScheduler rebooted(kTech, bootOptions);
  const JobStatus status = rebooted.wait(id);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_TRUE(status.recovered);
  EXPECT_EQ(engineRuns.load(), 1);
}

TEST(SchedulerJournal, TwoPendingRecordsForOneIdRecoverOneJob) {
  const ScratchDir dirScratch("duplicate_pending");
  const std::string& dir = dirScratch.path;
  {
    // The same id submitted twice at different priorities: two queue
    // positions if both were taken, the second one stale once the job ran.
    JobJournal journal(dirOptions(dir));
    (void)journal.replay();
    for (const int priority : {1, 9}) {
      JobRequest job = fastJob("twice");
      job.priority = priority;
      JournalRecord rec = submittedRecord(5, "twice");
      rec.job = toJson(job);
      journal.append(rec);
    }
  }
  SchedulerOptions options;
  options.threads = 1;
  options.journal.dir = dir;
  JobScheduler rebooted(kTech, options);
  EXPECT_EQ(rebooted.health().journal.recoveredJobs, 1u);
  const JobStatus status = rebooted.wait(5);
  EXPECT_EQ(status.state, JobState::kDone) << status.error;
  EXPECT_TRUE(status.recovered);
  // A later job queues behind any stale slot for id 5; the worker reaches
  // it and the recovered backlog reads drained.
  EXPECT_EQ(rebooted.wait(rebooted.submit(fastJob("after", 61.0))).state, JobState::kDone);
  EXPECT_EQ(rebooted.health().journal.recoveredRemaining, 0u);
}

// ---------------------------------------------------------------------------
// Seeded fuzzing of the journal decoders: FramedLog frames, then the job and
// explore-session record codecs over them
// ---------------------------------------------------------------------------

std::string readBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

void writeBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A real job log's payloads: submitted, started and finished records of
/// jobs whose requests carry testkit::SpecGen specs.
std::vector<std::string> jobLogPayloads() {
  testkit::SpecGen gen(23);
  std::vector<std::string> payloads;
  for (std::uint64_t id = 1; id <= 6; ++id) {
    JobRequest job = fastJob("fuzz-" + std::to_string(id));
    job.specs = gen.specs(id % 2 ? "folded_cascode_ota" : "two_stage");
    job.priority = static_cast<int>(id);
    JournalRecord submitted;
    submitted.id = id;
    submitted.cacheKey = "key" + std::to_string(id);
    submitted.job = toJson(job);
    payloads.push_back(submitted.toJson().dump());
    JournalRecord started;
    started.type = JournalRecordType::kStarted;
    started.id = id;
    started.attempt = 1;
    payloads.push_back(started.toJson().dump());
    if (id % 3 != 0) payloads.push_back(finishedRecord(id, "done").toJson().dump());
  }
  return payloads;
}

/// A real session log's payloads: started explorations over SpecGen specs,
/// their progress and some finishes, one session handed off (started twice).
std::vector<std::string> sessionLogPayloads() {
  testkit::SpecGen gen(29);
  std::vector<std::string> payloads;
  for (std::uint64_t id = 1; id <= 4; ++id) {
    Json request = Json::parse(
        R"({"op":"explore","case":1,"budget":5,)"
        R"("axes":[{"field":"gbw","lo":50e6,"hi":65e6,"points":2}]})");
    request.set("spec", toJson(gen.specs("two_stage")));
    explore::SessionRecord started;
    started.id = id;
    started.request = request;
    payloads.push_back(started.toJson().dump());
    if (id == 2) payloads.push_back(started.toJson().dump());
    explore::SessionRecord progress;
    progress.type = explore::SessionRecordType::kProgress;
    progress.id = id;
    progress.evaluated = 3;
    progress.frontSize = 2;
    progress.frontDigest = 0x0123456789abcdefull * id;
    payloads.push_back(progress.toJson().dump());
    if (id % 2 != 0) {
      explore::SessionRecord finished = progress;
      finished.type = explore::SessionRecordType::kFinished;
      finished.ok = id != 3;
      finished.error = finished.ok ? "" : "budget exhausted";
      payloads.push_back(finished.toJson().dump());
    }
  }
  return payloads;
}

/// Byte-level damage to a log: flip, drop or repeat bytes, truncate, or set
/// one frame's length field to 0, to one past the payload cap, or to
/// 0xFFFFFFFF.  `frames` holds each frame's offset in `bytes`.
std::string mutateLogBytes(std::string bytes, const std::vector<std::size_t>& frames,
                           std::mt19937_64& rng) {
  if (rng() % 5 != 0) return damageBytes(std::move(bytes), rng);
  static const std::uint32_t kLengths[] = {0u, (16u << 20) + 1u, 0xFFFFFFFFu};
  const std::uint32_t length = kLengths[rng() % std::size(kLengths)];
  const std::size_t frame = frames[rng() % frames.size()];
  for (int i = 0; i < 4; ++i) {
    bytes[frame + static_cast<std::size_t>(i)] = static_cast<char>(length >> (8 * i));
  }
  return bytes;
}

/// `payload` with one member or item replaced by a number the record layer
/// must not cast blindly (1e999, -1, 1e30), by a value of another type, or
/// dropped.
std::string mutateRecord(const std::string& payload, std::mt19937_64& rng) {
  long target = static_cast<long>(rng() % 24);
  std::string text =
      editNth(Json::parse(payload), target, [&rng](const Json& old) -> std::optional<Json> {
        switch (rng() % 5) {
          case 0: return Json("@1e999@");  // Spliced in as a bare token below.
          case 1: return Json(-1);
          case 2: return Json(1e30);
          case 3: return old.type() == Json::Type::kString ? Json(7) : Json("swapped");
          default: return std::nullopt;
        }
      }).dump();
  const std::string token = "\"@1e999@\"";
  for (std::size_t at; (at = text.find(token)) != std::string::npos;) {
    text.replace(at, token.size(), "1e999");
  }
  return text;
}

/// Everything a digest (JournalReplay or explore::SessionReplay) holds, as text.
template <typename Replay>
std::string digestText(const Replay& r) {
  std::string text = std::to_string(r.maxId) + "/" + std::to_string(r.finished) + ":";
  for (const auto& rec : r.records) text += rec.toJson().dump() + "\n";
  for (const auto& rec : r.pending) text += "pending " + std::to_string(rec.id) + "\n";
  return text;
}

/// One journal codec under the fuzzer: `Journal` is JobJournal or
/// explore::SessionJournal, whose log file in its directory is `walName`.
template <typename Journal, typename Options>
struct JournalFuzz {
  std::vector<std::string> payloads;
  std::string walName;

  /// `frames` laid out as FramedLog writes them after `magic`: a u32
  /// length, a u64 FNV-1a checksum and the payload each.
  static std::string logBytes(const std::string& magic,
                              const std::vector<std::string>& frames) {
    std::string bytes = magic;
    for (const std::string& payload : frames) {
      const std::uint64_t sum = ResultCache::fnv1a(payload);
      for (int i = 0; i < 4; ++i) bytes += static_cast<char>(payload.size() >> (8 * i));
      for (int i = 0; i < 8; ++i) bytes += static_cast<char>(sum >> (8 * i));
      bytes += payload;
    }
    return bytes;
  }

  /// Runs `inputs` seeded mutations, counting in `shortened` the replays
  /// that stopped short of the full log.
  void run(std::uint64_t seed, int inputs, const std::string& dir, int& shortened) const {
    const std::string wal = dir + "/" + walName;
    const std::string log = dir + "/pristine.wal";
    std::filesystem::remove(log);
    FramedLogOptions written;
    written.path = log;
    FramedLog(written).rewrite(payloads);
    const std::string pristine = readBytes(log);
    const std::string magic = pristine.substr(0, 8);
    ASSERT_EQ(logBytes(magic, payloads), pristine);
    std::vector<std::size_t> frames;
    for (std::size_t at = 8, i = 0; i < payloads.size(); ++i) {
      frames.push_back(at);
      at += 12 + payloads[i].size();
    }
    const std::vector<std::string> decoded = recordsOf(Journal::replayFile(log));
    EXPECT_EQ(decoded.size(), payloads.size());

    std::mt19937_64 rng(seed);
    for (int input = 0; input < inputs; ++input) {
      SCOPED_TRACE("seed " + std::to_string(seed) + " input " + std::to_string(input));
      // Which frame a record-level edit hits; SIZE_MAX for byte damage.
      std::size_t edited = SIZE_MAX;
      std::vector<std::string> edits = payloads;
      if (rng() % 2 == 0) {
        writeBytes(wal, mutateLogBytes(pristine, frames, rng));
      } else {
        edited = static_cast<std::size_t>(rng() % payloads.size());
        edits[edited] = mutateRecord(payloads[edited], rng);
        writeBytes(wal, logBytes(magic, edits));  // Re-checksummed.
      }

      const auto replay = Journal::replayFile(wal);
      const std::vector<std::string> records = recordsOf(replay);
      // An intact prefix: every record before the damage decodes as it was
      // written; past it, only an accepted record edit keeps the rest.
      const std::size_t stop = std::min(edited, records.size());
      for (std::size_t i = 0; i < stop; ++i) ASSERT_EQ(records[i], decoded[i]) << i;
      if (edited == SIZE_MAX) {
        ASSERT_LE(records.size(), decoded.size());
      } else if (records.size() != edited) {  // The edited record was accepted.
        ASSERT_EQ(records.size(), decoded.size()) << edits[edited];
        for (std::size_t i = edited + 1; i < records.size(); ++i) {
          ASSERT_EQ(records[i], decoded[i]) << i;
        }
      }
      if (records.size() < decoded.size()) ++shortened;

      // Replaying truncates the damage away; a second replay of the
      // truncated file finds the same digest and nothing left to cut.
      Options options;
      options.dir = dir;
      Journal journal(options);
      const auto first = journal.replay();
      const auto second = journal.replay();
      EXPECT_EQ(digestText(first), digestText(replay));
      EXPECT_EQ(digestText(second), digestText(first));
      EXPECT_FALSE(second.tornTail);
      EXPECT_EQ(second.truncatedBytes, 0u);
      EXPECT_EQ(Journal::replayFile(wal).truncatedBytes, 0u);
    }
  }

  template <typename Replay>
  static std::vector<std::string> recordsOf(const Replay& replay) {
    std::vector<std::string> out;
    for (const auto& rec : replay.records) out.push_back(rec.toJson().dump());
    return out;
  }
};

using JobLogFuzz = JournalFuzz<JobJournal, JournalOptions>;
using SessionLogFuzz =
    JournalFuzz<explore::SessionJournal, explore::SessionJournalOptions>;

TEST(JournalFuzz, MutatedJobLogsReplayAnIntactPrefix) {
  const ScratchDir dir("fuzz_jobs");
  const JobLogFuzz fuzz{jobLogPayloads(), "journal.wal"};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    // Both outcomes occur, so neither check is vacuous.
    int shortened = 0;
    fuzz.run(seed, 150, dir.path, shortened);
    EXPECT_GT(shortened, 0);
    EXPECT_LT(shortened, 150);
  }
}

TEST(JournalFuzz, MutatedSessionLogsReplayAnIntactPrefix) {
  const ScratchDir dir("fuzz_sessions");
  const SessionLogFuzz fuzz{sessionLogPayloads(), "explore.wal"};
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    int shortened = 0;
    fuzz.run(seed, 150, dir.path, shortened);
    EXPECT_GT(shortened, 0);
    EXPECT_LT(shortened, 150);
  }
}

TEST(JournalFuzz, MutationsAreDeterministicPerSeed) {
  const std::vector<std::string> payloads = jobLogPayloads();
  const auto mutations = [&payloads](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> out;
    for (int i = 0; i < 50; ++i) {
      const std::size_t at = static_cast<std::size_t>(i) % payloads.size();
      out.push_back(mutateRecord(payloads[at], rng));
    }
    return out;
  };
  EXPECT_EQ(mutations(7), mutations(7));
  EXPECT_NE(mutations(7), mutations(8));
}

}  // namespace
}  // namespace lo::service
