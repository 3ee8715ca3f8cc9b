#include "service/scheduler.hpp"

#include <algorithm>
#include <cmath>

#include "service/serialize.hpp"

namespace lo::service {

namespace {

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

constexpr const char* breakerStateName(int state) {
  switch (state) {
    case 0: return "closed";
    case 1: return "open";
    case 2: return "half_open";
  }
  return "?";
}

}  // namespace

JobScheduler::JobScheduler(tech::Technology baseTech, SchedulerOptions options)
    : baseTech_(std::move(baseTech)),
      techPrint_(ResultCache::techFingerprint(baseTech_)),
      options_(std::move(options)),
      cache_(options_.cache) {
  if (!options_.traceLogPath.empty()) {
    traceLog_.open(options_.traceLogPath, std::ios::app);
  }
  if (!options_.journal.dir.empty()) {
    journal_ = std::make_unique<JobJournal>(options_.journal);
    replayJournal();  // Before the workers exist: no locking subtleties.
  }
  int threads = options_.threads;
  if (threads <= 0) {
    threads = static_cast<int>(std::thread::hardware_concurrency());
    if (threads <= 0) threads = 1;
  }
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { workerLoop(); });
  }
}

JobScheduler::~JobScheduler() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    // Queued and parked jobs will never run; running jobs are asked to
    // abort at their next cancellation poll.  In memory they finish as
    // cancelled so blocked wait() callers unblock -- but with a journal
    // attached these jobs were acknowledged and are still owed an answer,
    // so their terminal records are withheld from the log and the compact
    // below keeps them live for the next boot to recover (the --journal
    // restart contract).  A user-cancelled running job is not preserved:
    // the client asked for it to die.
    for (auto& [id, rec] : jobs_) {
      if (rec->state == JobState::kQueued) {
        ready_.erase({-rec->request.priority, id});
        rec->preserveInJournal = journal_ != nullptr;
        finishLocked(rec, JobState::kCancelled, "scheduler shut down");
      } else if (rec->state == JobState::kRunning) {
        if (!rec->cancelRequested) {
          rec->preserveInJournal = journal_ != nullptr;
        }
        rec->cancelRequested = true;
      }
    }
    waiters_.clear();
  }
  workCv_.notify_all();
  for (std::thread& t : workers_) t.join();
  if (journal_) {
    // Compact down to the jobs this shutdown interrupted (a running job
    // that still completed was journalled normally and is excluded); a
    // fully-drained scheduler compacts to an empty log.
    std::vector<JournalRecord> live;
    for (const auto& [id, rec] : jobs_) {
      if (!rec->preserveInJournal || rec->state != JobState::kCancelled) {
        continue;
      }
      JournalRecord record;
      record.type = JournalRecordType::kSubmitted;
      record.id = rec->id;
      record.cacheKey = rec->cacheKey;
      record.job = toJson(rec->request);
      live.push_back(std::move(record));
    }
    try {
      journal_->compact(live);
    } catch (const std::exception&) {
      // A failed compaction leaves the old log; replay handles it.
    }
  }
}

void JobScheduler::replayJournal() {
  const JournalReplay replay = journal_->replay();
  replayedRecords_ = replay.records.size();
  tornTailRecovered_ = replay.tornTail;
  for (const JournalRecord& pending : replay.pending) {
    JobRequest request;
    try {
      request = jobRequestFromJson(pending.job);
    } catch (const std::exception&) {
      continue;  // A record from a newer/older schema: drop, don't crash.
    }
    auto rec = std::make_shared<JobRecord>();
    rec->id = pending.id;
    rec->request = std::move(request);
    rec->request.maxRetries =
        std::clamp(rec->request.maxRetries, 0, options_.maxRetryLimit);
    rec->submitted = Clock::now();
    // Deadlines restart from recovery: the dead process's clock is gone,
    // and punishing a job for downtime it didn't cause helps nobody.
    if (rec->request.deadlineSeconds > 0) {
      rec->hasDeadline = true;
      rec->deadline =
          rec->submitted + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(
                                   rec->request.deadlineSeconds));
    }
    if (!rec->request.bypassCache) {
      // Recompute rather than trust the record: the technology may have
      // changed between restarts, and the key must match what lookup uses.
      rec->cacheKey = ResultCache::keyFor(rec->request.options,
                                          rec->request.specs,
                                          rec->request.corner, techPrint_);
    }
    rec->recovered = true;
    const std::uint64_t id = rec->id;
    const int priority = rec->request.priority;
    jobs_.emplace(id, std::move(rec));
    ready_.insert({-priority, id});
    ++queued_;
    ++recoveredJobs_;
    metrics_.onSubmit();
  }
  recoveredRemaining_ = recoveredJobs_;
  if (replay.maxId >= nextId_) nextId_ = replay.maxId + 1;
  if (recoveredRemaining_ == 0 && replayedRecords_ > 0) {
    // Nothing pending: drop the finished history now instead of waiting
    // for a drain that will never come.
    compactJournalLocked();
  }
}

std::uint64_t JobScheduler::submit(JobRequest request) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (stopping_) throw std::runtime_error("scheduler is shutting down");

  auto rec = std::make_shared<JobRecord>();
  rec->id = nextId_++;
  rec->request = std::move(request);
  rec->request.maxRetries =
      std::clamp(rec->request.maxRetries, 0, options_.maxRetryLimit);
  rec->submitted = Clock::now();
  if (rec->request.deadlineSeconds > 0) {
    rec->hasDeadline = true;
    rec->deadline = rec->submitted + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(
                                             rec->request.deadlineSeconds));
  }
  if (!rec->request.bypassCache) {
    rec->cacheKey = ResultCache::keyFor(rec->request.options, rec->request.specs,
                                        rec->request.corner, techPrint_);
  }
  // Admission decides first (and may pick a shed victim), but the victim
  // is only displaced after the incoming job's submitted record is
  // durably journalled: a failed append rejects the submission without
  // having destroyed queued work for an admission that never happened.
  const RecordPtr victim = admitLocked(rec->request, *rec);
  try {
    appendJournalLocked(JournalRecordType::kSubmitted, *rec);
  } catch (...) {
    releaseProbeLocked(*rec);
    throw;
  }
  if (victim != nullptr) shedVictimLocked(victim, rec->request.priority);
  const std::uint64_t id = rec->id;
  const int priority = rec->request.priority;
  jobs_.emplace(id, std::move(rec));
  ready_.insert({-priority, id});
  ++queued_;
  metrics_.onSubmit();
  workCv_.notify_one();
  return id;
}

std::size_t JobScheduler::shedDepthLocked() const {
  const double frac = std::clamp(options_.shedWatermark, 0.0, 1.0);
  const auto depth = static_cast<std::size_t>(
      std::ceil(frac * static_cast<double>(options_.maxQueueDepth)));
  return std::clamp<std::size_t>(depth, 1, options_.maxQueueDepth);
}

int JobScheduler::retryAfterMsLocked() const {
  // ETA for the queue to drain one slot: average run time times depth over
  // the pool width.  No history yet -> assume a quarter second per job.
  const MetricsSnapshot m = metrics_.snapshot();
  const std::uint64_t ran = m.completed + m.failed + m.expired;
  double avgRun = ran > 0 ? m.totalRunSeconds / static_cast<double>(ran) : 0.25;
  if (!(avgRun > 0)) avgRun = 0.25;
  const double pool = std::max<std::size_t>(workers_.empty() ? 1 : workers_.size(), 1);
  const double etaMs = avgRun * static_cast<double>(queued_ + 1) / pool * 1000.0;
  return static_cast<int>(std::clamp(etaMs, 100.0, 30000.0));
}

JobScheduler::RecordPtr JobScheduler::findShedVictimLocked(int priority) const {
  if (ready_.empty()) return nullptr;  // Everything queued is parked on a leader.
  // ready_ orders by (-priority, id): rbegin() is the lowest priority, and
  // within that class the newest arrival -- the job that loses least.
  const auto victim = std::prev(ready_.end());
  const RecordPtr rec = jobs_.at(victim->second);
  if (rec->request.priority >= priority) return nullptr;  // Only shed downward.
  return rec;
}

void JobScheduler::shedVictimLocked(const RecordPtr& victim, int priority) {
  ready_.erase({-victim->request.priority, victim->id});
  if (queued_ > 0) --queued_;
  finishLocked(victim, JobState::kShed,
               "shed: displaced by priority " + std::to_string(priority) +
                   " work under overload");
}

void JobScheduler::releaseProbeLocked(JobRecord& rec) {
  if (!rec.breakerProbe) return;
  breakers_[rec.request.options.topology].probeInFlight = false;
  rec.breakerProbe = false;
}

JobScheduler::RecordPtr JobScheduler::admitLocked(const JobRequest& request,
                                                  JobRecord& rec) {
  // Circuit breaker first: an open breaker refuses even when the queue is
  // empty, because the work is known-doomed.
  if (options_.breakerFailureThreshold > 0) {
    Breaker& b = breakers_[request.options.topology];
    switch (b.state) {
      case Breaker::State::kClosed:
        break;
      case Breaker::State::kOpen: {
        const auto resetAt =
            b.openedAt + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(
                                 options_.breakerResetSeconds));
        if (Clock::now() >= resetAt) {
          b.state = Breaker::State::kHalfOpen;
          b.probeInFlight = true;
          rec.breakerProbe = true;
          break;
        }
        ++b.rejections;
        metrics_.onBreakerRejected();
        const double remainMs =
            std::chrono::duration<double, std::milli>(resetAt - Clock::now())
                .count();
        throw CircuitOpenError(
            request.options.topology,
            static_cast<int>(std::clamp(remainMs, 100.0, 3600000.0)));
      }
      case Breaker::State::kHalfOpen:
        if (!b.probeInFlight) {
          b.probeInFlight = true;
          rec.breakerProbe = true;
          break;
        }
        ++b.rejections;
        metrics_.onBreakerRejected();
        throw CircuitOpenError(request.options.topology, retryAfterMsLocked());
    }
  }

  if (queued_ < shedDepthLocked()) return nullptr;
  // Past the watermark: admit only by displacing strictly-lower-priority
  // queued work; otherwise push back with a retry hint.
  const RecordPtr victim = findShedVictimLocked(request.priority);
  if (victim == nullptr) {
    // The probe slot must not leak when admission fails downstream.
    releaseProbeLocked(rec);
    metrics_.onOverloadRejected();
    throw OverloadedError(queued_, retryAfterMsLocked());
  }
  return victim;
}

void JobScheduler::appendJournalLocked(JournalRecordType type,
                                       const JobRecord& rec) {
  if (!journal_) return;
  JournalRecord record;
  record.type = type;
  record.id = rec.id;
  record.cacheKey = rec.cacheKey;
  record.attempt = rec.attempts;
  if (type == JournalRecordType::kSubmitted) {
    record.job = toJson(rec.request);
  } else if (type == JournalRecordType::kFinished) {
    record.state = jobStateName(rec.state);
  }
  // Only the submission needs an fsync before it returns -- that is the
  // ack clients rely on, and it is the one append on the submit path.
  // Lifecycle records from the workers are flushed but not fsynced, so
  // finishing a job never serializes the whole scheduler (this runs under
  // mutex_) on disk-flush latency; losing a tail of them at power loss
  // merely re-enqueues finished work that the content-addressed cache
  // then serves without an engine re-run.
  if (type == JournalRecordType::kSubmitted) {
    journal_->append(record, /*durable=*/true);
    return;
  }
  try {
    journal_->append(record, /*durable=*/false);
  } catch (const std::exception&) {
    // Advisory record on a worker/finish path: a transient append failure
    // must not kill the thread.  The journal already truncated back to a
    // clean boundary; at worst the next boot re-enqueues a finished job
    // and serves it from the cache.
  }
}

void JobScheduler::compactJournalLocked() {
  if (!journal_) return;
  std::vector<JournalRecord> live;
  for (const auto& [id, rec] : jobs_) {
    if (isTerminal(rec->state)) continue;
    JournalRecord record;
    record.type = JournalRecordType::kSubmitted;
    record.id = rec->id;
    record.cacheKey = rec->cacheKey;
    record.job = toJson(rec->request);
    live.push_back(std::move(record));
  }
  journal_->compact(live);
}

void JobScheduler::workerLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    workCv_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (stopping_) return;

    const auto it = ready_.begin();
    const std::uint64_t id = it->second;
    ready_.erase(it);
    if (queued_ > 0) --queued_;
    const RecordPtr rec = jobs_.at(id);
    rec->trace.queueSeconds = secondsSince(rec->submitted);

    if (rec->cancelRequested) {
      finishLocked(rec, JobState::kCancelled, "cancelled before start");
      continue;
    }
    if (deadlinePassed(*rec)) {
      finishLocked(rec, JobState::kExpired, "deadline expired before start");
      continue;
    }

    if (!rec->cacheKey.empty()) {
      // Single-flight: if an identical job is already running, park this
      // one until the leader publishes its result.
      const auto leader = inflight_.find(rec->cacheKey);
      if (leader != inflight_.end()) {
        waiters_[rec->cacheKey].push_back(id);
        ++queued_;
        rec->coalesced = true;
        metrics_.onCoalesced();
        continue;
      }
      inflight_[rec->cacheKey] = id;
    }

    rec->state = JobState::kRunning;
    ++running_;
    metrics_.onRunning(running_);
    runJob(rec, lock);  // Unlocks for the engine run, relocks before returning.
  }
}

void JobScheduler::runJob(const RecordPtr& rec, std::unique_lock<std::mutex>& lock) {
  const JobRequest request = rec->request;  // Stable copy for unlocked use.
  const std::string key = rec->cacheKey;
  lock.unlock();

  const auto runStart = Clock::now();
  enum class Outcome { kOk, kFailed, kAborted } outcome = Outcome::kFailed;
  core::EngineResult result;
  std::string error;
  bool fromCache = false;
  bool durable = false;  ///< The result reached the disk store.
  std::vector<std::pair<core::EngineStage, double>> stages;

  if (!key.empty()) {
    if (std::optional<core::EngineResult> hit = cache_.lookup(key)) {
      result = std::move(*hit);
      fromCache = true;
      outcome = Outcome::kOk;
    }
  }

  if (!fromCache) {
    core::EngineOptions engineOptions = request.options;
    engineOptions.hooks.cancelRequested = [this, rec] {
      {
        const std::lock_guard<std::mutex> guard(mutex_);
        if (rec->cancelRequested) return true;
      }
      return deadlinePassed(*rec);
    };
    engineOptions.hooks.onStage = [&stages, upstream = request.options.hooks.onStage](
                                      core::EngineStage stage, double seconds) {
      stages.emplace_back(stage, seconds);
      if (upstream) upstream(stage, seconds);
    };

    for (int attempt = 1;; ++attempt) {
      {
        const std::lock_guard<std::mutex> guard(mutex_);
        rec->attempts = attempt;
        appendJournalLocked(attempt == 1 ? JournalRecordType::kStarted
                                         : JournalRecordType::kRetried,
                            *rec);
      }
      try {
        if (options_.preRunHook) options_.preRunHook(request, attempt);
        // SweepDriver's isolation pattern: a private Technology at the
        // job's corner and a private MosModel inside the engine.
        const tech::Technology jobTech = baseTech_.atCorner(request.corner);
        const core::SynthesisEngine engine(jobTech, engineOptions);
        result = engine.run(request.specs);
        outcome = Outcome::kOk;
      } catch (const core::JobCancelled&) {
        outcome = Outcome::kAborted;
      } catch (const TransientError& e) {
        if (attempt <= request.maxRetries) {
          {
            const std::lock_guard<std::mutex> guard(mutex_);
            ++rec->retries;
          }
          metrics_.onRetry();
          continue;
        }
        error = std::string("transient failure, retries exhausted: ") + e.what();
        outcome = Outcome::kFailed;
        {
          const std::lock_guard<std::mutex> guard(mutex_);
          rec->transientFailure = true;  // Doesn't count against the breaker.
        }
      } catch (const std::exception& e) {
        error = e.what();
        outcome = Outcome::kFailed;
      }
      break;
    }

    if (outcome == Outcome::kOk && !key.empty()) {
      durable = cache_.insert(key, result);  // Disk write-through stays off the lock.
    }
  }

  lock.lock();
  rec->trace.runSeconds = secondsSince(runStart);
  for (const auto& [stage, seconds] : stages) {
    rec->trace.stages.push_back({core::engineStageName(stage), seconds});
  }
  rec->cacheHit = fromCache;
  if (outcome == Outcome::kOk) {
    rec->result = result;
    finishLocked(rec, JobState::kDone, "");
    if (!key.empty()) {
      inflight_.erase(key);
      completeWaitersLocked(key, result);
    }
    if (durable) archiveLocked(*rec, std::move(stages));
  } else {
    if (outcome == Outcome::kAborted) {
      // The engine aborted via the cancellation hook: distinguish an
      // explicit cancel from a deadline expiry.
      const JobState state = rec->cancelRequested ? JobState::kCancelled
                                                  : JobState::kExpired;
      finishLocked(rec, state,
                   state == JobState::kExpired ? "deadline expired mid-run" : "");
    } else {
      finishLocked(rec, JobState::kFailed, error);
    }
    if (!key.empty()) {
      inflight_.erase(key);
      requeueWaitersLocked(key);
    }
  }
}

void JobScheduler::finishLocked(const RecordPtr& rec, JobState state,
                                const std::string& error) {
  if (isTerminal(rec->state)) return;
  if (rec->state == JobState::kRunning && running_ > 0) --running_;
  rec->state = state;
  if (!error.empty()) rec->error = error;
  metrics_.onFinish(jobStateName(state), rec->trace);
  breakerOnFinishLocked(rec, state);
  if (!(rec->preserveInJournal && state == JobState::kCancelled)) {
    // A shutdown-interrupted job keeps its submitted record live in the
    // log instead of being marked terminal: the next boot re-enqueues it.
    appendJournalLocked(state == JobState::kCancelled
                            ? JournalRecordType::kCancelled
                            : JournalRecordType::kFinished,
                        *rec);
  }
  if (rec->recovered && recoveredRemaining_ > 0 && --recoveredRemaining_ == 0) {
    // The replayed backlog has drained: fold the journal down to whatever
    // is still live so it never grows across restarts.
    compactJournalLocked();
  }
  if (traceLog_.is_open()) {
    const std::lock_guard<std::mutex> guard(traceMutex_);
    traceLog_ << traceToJson(rec->id, rec->request.label, jobStateName(state),
                             rec->cacheHit, rec->attempts, rec->retries,
                             rec->trace)
                     .dump()
              << "\n";
    traceLog_.flush();
  }
  doneCv_.notify_all();
}

void JobScheduler::completeWaitersLocked(const std::string& key,
                                         const core::EngineResult& result) {
  const auto it = waiters_.find(key);
  if (it == waiters_.end()) return;
  for (const std::uint64_t id : it->second) {
    const auto found = jobs_.find(id);
    if (found == jobs_.end()) continue;
    const RecordPtr& rec = found->second;
    if (isTerminal(rec->state)) continue;  // Cancelled while parked.
    if (queued_ > 0) --queued_;
    rec->cacheHit = true;
    rec->result = result;
    rec->trace.runSeconds = 0.0;
    finishLocked(rec, JobState::kDone, "");
  }
  waiters_.erase(it);
}

void JobScheduler::requeueWaitersLocked(const std::string& key) {
  const auto it = waiters_.find(key);
  if (it == waiters_.end()) return;
  // The leader produced no result: every parked duplicate goes back to the
  // ready queue and runs (or coalesces again) on its own.
  for (const std::uint64_t id : it->second) {
    const auto found = jobs_.find(id);
    if (found == jobs_.end() || isTerminal(found->second->state)) continue;
    ready_.insert({-found->second->request.priority, id});
  }
  waiters_.erase(it);
  workCv_.notify_all();
}

void JobScheduler::breakerOnFinishLocked(const RecordPtr& rec, JobState state) {
  if (options_.breakerFailureThreshold <= 0) return;
  const auto it = breakers_.find(rec->request.options.topology);
  Breaker* b = it == breakers_.end() ? nullptr : &it->second;
  if (rec->breakerProbe) {
    if (b != nullptr) b->probeInFlight = false;
    rec->breakerProbe = false;
  }
  if (b == nullptr) {
    if (state != JobState::kFailed) return;
    b = &breakers_[rec->request.options.topology];
  }
  if (state == JobState::kDone) {
    b->consecutiveFailures = 0;
    b->state = Breaker::State::kClosed;
  } else if (state == JobState::kFailed && !rec->transientFailure) {
    ++b->consecutiveFailures;
    if (b->state == Breaker::State::kHalfOpen ||
        b->consecutiveFailures >= options_.breakerFailureThreshold) {
      if (b->state != Breaker::State::kOpen) {
        ++b->opens;
        metrics_.onBreakerOpened();
      }
      b->state = Breaker::State::kOpen;
      b->openedAt = Clock::now();
    }
  }
  // Cancelled / expired / shed jobs are no evidence about the topology.
}

std::string JobScheduler::cacheKeyFor(const JobRequest& request) const {
  if (request.bypassCache) return {};
  return ResultCache::keyFor(request.options, request.specs, request.corner,
                             techPrint_);
}

JobStatus JobScheduler::snapshotLocked(const JobRecord& rec) const {
  JobStatus status;
  status.id = rec.id;
  status.label = rec.request.label;
  status.state = rec.state;
  status.cacheKey = rec.cacheKey;
  status.cacheHit = rec.cacheHit;
  status.coalesced = rec.coalesced;
  status.attempts = rec.attempts;
  status.retries = rec.retries;
  status.error = rec.error;
  status.recovered = rec.recovered;
  status.result = rec.result;
  status.trace = rec.trace;
  return status;
}

void JobScheduler::archiveLocked(const JobRecord& rec,
                                 std::vector<std::pair<core::EngineStage, double>> stages) {
  // Copies, not moves: a wait() that already holds this record snapshots
  // it after the lock is released.
  ArchivedJob job;
  job.label = rec.request.label;
  job.cacheKey = rec.cacheKey;
  job.error = rec.error;
  job.queueSeconds = rec.trace.queueSeconds;
  job.runSeconds = rec.trace.runSeconds;
  job.stages = std::move(stages);
  job.state = rec.state;
  job.cacheHit = rec.cacheHit;
  job.coalesced = rec.coalesced;
  job.recovered = rec.recovered;
  job.attempts = rec.attempts;
  job.retries = rec.retries;
  archived_.emplace(rec.id, std::move(job));
  jobs_.erase(rec.id);
}

JobStatus JobScheduler::archivedStatus(std::uint64_t id, const ArchivedJob& job) const {
  JobStatus status;
  status.id = id;
  status.label = job.label;
  status.state = job.state;
  status.cacheKey = job.cacheKey;
  status.cacheHit = job.cacheHit;
  status.coalesced = job.coalesced;
  status.attempts = job.attempts;
  status.retries = job.retries;
  status.error = job.error;
  status.recovered = job.recovered;
  status.trace.queueSeconds = job.queueSeconds;
  status.trace.runSeconds = job.runSeconds;
  for (const auto& [stage, seconds] : job.stages) {
    status.trace.stages.push_back({core::engineStageName(stage), seconds});
  }
  if (std::optional<core::EngineResult> result = cache_.peek(job.cacheKey)) {
    status.result = std::move(*result);
  } else {
    // The store lost the entry (removed or damaged since the job ran):
    // say so rather than answer with an empty result.
    status.state = JobState::kFailed;
    status.error = "result for cache key " + job.cacheKey + " is no longer in the store";
  }
  return status;
}

JobStatus JobScheduler::wait(std::uint64_t id) const {
  ArchivedJob archived;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) {
      const RecordPtr rec = it->second;
      doneCv_.wait(lock, [&rec] { return isTerminal(rec->state); });
      return snapshotLocked(*rec);
    }
    const auto a = archived_.find(id);
    if (a == archived_.end()) {
      throw std::invalid_argument("unknown job id " + std::to_string(id));
    }
    archived = a->second;
  }
  return archivedStatus(id, archived);
}

std::optional<JobStatus> JobScheduler::status(std::uint64_t id) const {
  ArchivedJob archived;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(id);
    if (it != jobs_.end()) return snapshotLocked(*it->second);
    const auto a = archived_.find(id);
    if (a == archived_.end()) return std::nullopt;
    archived = a->second;
  }
  return archivedStatus(id, archived);
}

bool JobScheduler::cancel(std::uint64_t id) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = jobs_.find(id);
  if (it == jobs_.end()) return false;  // Unknown, or archived (terminal).
  const RecordPtr& rec = it->second;
  if (isTerminal(rec->state)) return false;
  rec->cancelRequested = true;
  if (rec->state == JobState::kQueued) {
    ready_.erase({-rec->request.priority, id});
    if (!rec->cacheKey.empty()) {
      const auto w = waiters_.find(rec->cacheKey);
      if (w != waiters_.end()) {
        w->second.erase(std::remove(w->second.begin(), w->second.end(), id),
                        w->second.end());
      }
    }
    if (queued_ > 0) --queued_;
    finishLocked(rec, JobState::kCancelled, "cancelled before start");
  }
  return true;
}

std::vector<JobStatus> JobScheduler::runBatch(
    const std::vector<JobRequest>& requests) {
  std::vector<std::uint64_t> ids;
  ids.reserve(requests.size());
  for (const JobRequest& request : requests) ids.push_back(submit(request));
  std::vector<JobStatus> statuses;
  statuses.reserve(ids.size());
  for (const std::uint64_t id : ids) statuses.push_back(wait(id));
  return statuses;
}

std::size_t JobScheduler::queueDepth() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return queued_;
}

std::size_t JobScheduler::runningCount() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return running_;
}

HealthSnapshot JobScheduler::health() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  HealthSnapshot h;
  h.queueDepth = queued_;
  h.queueLimit = options_.maxQueueDepth;
  h.shedDepth = shedDepthLocked();
  h.running = running_;
  h.workers = static_cast<int>(workers_.size());
  h.overloaded = queued_ >= h.shedDepth;
  for (const auto& [topology, b] : breakers_) {
    BreakerSnapshot s;
    s.topology = topology;
    s.state = breakerStateName(static_cast<int>(b.state));
    s.consecutiveFailures = b.consecutiveFailures;
    s.opens = b.opens;
    s.rejections = b.rejections;
    h.breakers.push_back(std::move(s));
  }
  if (journal_) {
    h.journal.enabled = true;
    h.journal.recordsInLog = journal_->recordsInLog();
    std::uint64_t live = 0;
    for (const auto& [id, rec] : jobs_) {
      if (!isTerminal(rec->state)) ++live;
    }
    h.journal.liveJobs = live;
    h.journal.lag =
        h.journal.recordsInLog > live ? h.journal.recordsInLog - live : 0;
    h.journal.replayedRecords = replayedRecords_;
    h.journal.recoveredJobs = recoveredJobs_;
    h.journal.recoveredRemaining = recoveredRemaining_;
    h.journal.compactions = journal_->compactions();
    h.journal.tornTailRecovered = tornTailRecovered_;
  }
  return h;
}

}  // namespace lo::service
