#include "testkit/soak.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <set>
#include <sstream>
#include <thread>

#include "core/topology.hpp"
#include "service/serialize.hpp"

namespace lo::testkit {

namespace {

using Clock = std::chrono::steady_clock;
using service::Json;

Clock::time_point after(double s) {
  return Clock::now() +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

/// The daemon configuration both the soaked and the recovered scheduler
/// boot with; the soaked one additionally carries the fault plan.
constexpr std::size_t kCacheCapacity = 64;
service::SchedulerOptions daemonOptions(const SoakOptions& options) {
  service::SchedulerOptions s;
  s.threads = options.schedulerThreads;
  s.maxQueueDepth = 512;
  s.cache.diskDir = options.cacheDir;
  s.cache.capacity = kCacheCapacity;
  s.journal.dir = options.journalDir;
  return s;
}

/// The member of `root` at the dotted `path` (null when absent).
const Json& member(const Json& root, const std::string& path) {
  const Json* node = &root;
  std::istringstream parts(path);
  for (std::string part; std::getline(parts, part, '.');) node = &node->at(part);
  return *node;
}

}  // namespace

Json SoakReport::toJson() const {
  Json out = Json::object();
  out.set("ok", ok());
  out.set("requests", requests);
  out.set("rejected", rejected);
  out.set("transport_errors", transportErrors);
  out.set("tracked_jobs", trackedJobs);
  out.set("elapsed_seconds", elapsedSeconds);

  Json states = Json::object();
  for (const auto& [state, count] : terminalStates) states.set(state, count);
  out.set("terminal_states", std::move(states));
  for (const auto& [key, value] : extra.members()) out.set(key, value);

  Json viol = Json::array();
  for (const std::string& v : violations) viol.push(v);
  out.set("violations", std::move(viol));
  return out;
}

Json synthesizeRequest(const CorpusPoint& point) {
  Json req = Json::object();
  req.set("op", "synthesize");
  req.set("label", point.label);
  req.set("topology", point.options.topology);
  req.set("case", core::sizingCaseName(point.options.sizingCase));
  req.set("spec", service::toJson(point.specs));
  req.set("corner", tech::cornerName(point.corner));
  return req;
}

Json SoakMode::send(const std::string& line) {
  try {
    return Json::parse(target(line));
  } catch (const std::exception&) {
    ++transportErrors;
    return Json();
  }
}

SoakReport runSoak(SoakMode& mode) {
  const SoakOptions& options = mode.options;
  const RequestMix& mix = mode.mix;
  SoakReport report;
  std::mutex mutex;       // report and highWater
  std::mutex probeMutex;  // one stats probe at a time, checked in order
  std::map<std::string, std::uint64_t> highWater;

  const auto started = Clock::now();
  mode.begin(report);
  const auto stopAt = after(options.durationSeconds);

  // Every line goes through mode.send.  An answer that does not parse is
  // a transport error, but the daemon's side of the operation still
  // happened (a submitted job keeps its id), which mode.idle() accounts for.
  const auto wait = [&](std::uint64_t id) {
    Json req = Json::object();
    req.set("op", "wait");
    req.set("id", id);
    if (mix.summary) req.set("summary", true);
    return mode.send(req.dump());
  };
  // Tally a wait response; false when it did not settle the job.
  const auto settles = [&](const Json& response) {
    if (!response.isObject() || !response.at("ok").asBool()) return false;
    const std::lock_guard<std::mutex> lock(mutex);
    ++report.terminalStates[response.at("state").asString("unknown")];
    return true;
  };
  // One stats probe at a time, so samples are checked in the order the
  // target answered them.  `attempts` > 1 resends a truncated answer.
  const auto probe = [&](int attempts) {
    const std::lock_guard<std::mutex> probing(probeMutex);
    Json response;
    for (int i = 0; i < attempts && !response.isObject(); ++i) {
      response = mode.send(R"({"op":"stats"})");
    }
    if (!response.isObject() || !response.at("ok").asBool()) return;
    const std::lock_guard<std::mutex> lock(mutex);
    for (const std::string& path : mode.monotoneCounters) {
      const std::uint64_t now = member(response.at("stats"), path).asUint64();
      std::uint64_t& last = highWater[path];
      if (now < last) {
        report.violations.push_back("monotonicity: " + path + " fell from " +
                                    std::to_string(last) + " to " + std::to_string(now));
      }
      last = std::max(last, now);
    }
  };
  // The probes after the client loop: every counter's last word.
  constexpr int kLastProbeAttempts = 8;

  const auto client = [&](int c) {
    SpecGen gen(options.seed * 7919 + static_cast<std::uint64_t>(c));
    std::vector<std::uint64_t> mine;  // This client's unsettled acks.
    const auto point = [&]() -> const CorpusPoint& {
      return mode.pool[static_cast<std::size_t>(
          gen.pick(static_cast<int>(mode.pool.size())))];
    };
    int sent = 0;
    for (; Clock::now() < stopAt &&
           (options.maxRequestsPerClient == 0 || sent < options.maxRequestsPerClient);
         ++sent) {
      int dice = gen.pick(100);
      if (mine.empty() && dice < mix.asyncSubmit + mix.wait + mix.cancel) dice = 0;
      if (dice < mix.asyncSubmit) {
        Json req = synthesizeRequest(point());
        req.set("async", true);
        if (mix.maxRetries > 0) req.set("max_retries", mix.maxRetries);
        if (mix.deadlineFraction > 0.0 && gen.uniform(0.0, 1.0) < mix.deadlineFraction) {
          req.set("deadline_seconds", mix.deadlineSeconds);
        }
        const Json ack = mode.send(req.dump());
        if (ack.isObject()) {
          const bool accepted = ack.at("ok").asBool();
          if (accepted) mine.push_back(ack.at("id").asUint64());
          const std::lock_guard<std::mutex> lock(mutex);
          ++(accepted ? report.trackedJobs : report.rejected);
        }
      } else if ((dice -= mix.asyncSubmit) < mix.wait) {
        const std::uint64_t id = mine.back();
        mine.pop_back();
        const Json response = wait(id);
        if (!settles(response)) {
          mine.push_back(id);  // Waited for again, by the drain at the latest.
          const std::lock_guard<std::mutex> lock(mutex);
          if (response.isObject()) ++report.rejected;
        }
      } else if ((dice -= mix.wait) < mix.cancel) {
        Json req = Json::object();
        req.set("op", "cancel");
        req.set("id", mine[static_cast<std::size_t>(
                          gen.pick(static_cast<int>(mine.size())))]);
        (void)mode.send(req.dump());
      } else if ((dice -= mix.cancel) < mix.syncSubmit) {
        Json req = synthesizeRequest(point());
        if (mix.summary) req.set("summary", true);
        const Json response = mode.send(req.dump());
        if (response.isObject() && !response.at("ok").asBool()) {
          const std::lock_guard<std::mutex> lock(mutex);
          ++report.rejected;
        }
      } else {
        probe(1);
      }
    }

    // Drain: every id this client was acknowledged must reach a terminal
    // state before the deadline.  A wait is idempotent, so a truncated
    // answer is simply retried.
    const auto drainDeadline = after(options.drainTimeoutSeconds);
    while (!mine.empty() && Clock::now() < drainDeadline) {
      const std::uint64_t id = mine.back();
      const Json response = wait(id);
      if (settles(response)) {
        mine.pop_back();
      } else if (response.isObject()) {
        const std::lock_guard<std::mutex> lock(mutex);
        report.violations.push_back("job " + std::to_string(id) +
                                    " was lost: " + response.dump());
        mine.pop_back();
      }
    }
    if (!mode.monotoneCounters.empty()) probe(kLastProbeAttempts);
    const std::lock_guard<std::mutex> lock(mutex);
    report.requests += static_cast<std::uint64_t>(sent);
    if (!mine.empty()) {
      report.violations.push_back("drain timed out with " + std::to_string(mine.size()) +
                                  " job(s) outstanding");
    }
  };

  std::vector<std::thread> clients;
  clients.reserve(static_cast<std::size_t>(options.clients));
  for (int c = 0; c < options.clients; ++c) clients.emplace_back(client, c);
  for (std::thread& t : clients) t.join();
  const auto idleDeadline = after(options.drainTimeoutSeconds);
  while (!mode.idle() && Clock::now() < idleDeadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  if (!mode.monotoneCounters.empty()) probe(kLastProbeAttempts);

  mode.finish(report);
  report.transportErrors = mode.transportErrors.load();
  report.elapsedSeconds = std::chrono::duration<double>(Clock::now() - started).count();
  return report;
}

ServiceSoak::ServiceSoak(tech::Technology technology, SoakOptions soakOptions)
    : technology_(std::move(technology)), plan_(soakOptions.faults) {
  options = std::move(soakOptions);
  service::SchedulerOptions schedulerOptions = daemonOptions(options);
  installSchedulerFaults(schedulerOptions, plan_);
  if (!options.journalDir.empty()) installJournalFaults(schedulerOptions, plan_);
  scheduler_ = std::make_unique<service::JobScheduler>(technology_, schedulerOptions);
  protocol_ = std::make_unique<service::ServiceProtocol>(*scheduler_);
  installProtocolFaults(*protocol_, plan_);

  target = [this](const std::string& line) {
    if (scheduler_->journal() != nullptr && plan_.shouldFire(FaultSite::kProcessKill)) {
      // The simulated SIGKILL: from here on nothing reaches the journal,
      // exactly as if the process had died between two request lines.
      // The in-process daemon keeps serving (the soak's invariants still
      // apply); the recovery phase replays whatever the frozen log claims
      // is unfinished.
      scheduler_->journal()->simulateCrash();
    }
    return protocol_->handleLine(line);
  };
  mix = {.asyncSubmit = 65, .wait = 20, .cancel = 8,
         .maxRetries = 2, .deadlineFraction = 0.2, .deadlineSeconds = 0.03};

  // Cheap cases only, so a short soak still turns over many jobs.
  CorpusOptions corpus;
  corpus.size = options.poolSize;
  corpus.cases = {core::SizingCase::kCase1, core::SizingCase::kCase2};
  pool = generateCorpus(options.seed, corpus);

  monotoneCounters = {"jobs.submitted", "jobs.completed", "jobs.failed",
                      "jobs.cancelled", "jobs.expired",   "jobs.retries",
                      "jobs.coalesced", "jobs.max_running", "cache.hits",
                      "cache.misses",   "cache.inserts",  "cache.evictions"};
}

bool ServiceSoak::idle() {
  const service::MetricsSnapshot m = scheduler_->metrics();
  return m.completed + m.failed + m.cancelled + m.expired + m.shed == m.submitted &&
         scheduler_->queueDepth() == 0 && scheduler_->runningCount() == 0;
}

void ServiceSoak::finish(SoakReport& report) {
  Findings& s = findings_;
  s.metrics = scheduler_->metrics();
  s.cache = scheduler_->cacheStats();
  for (const FaultSite site : allFaultSites()) {
    const std::uint64_t count = plan_.fired(site);
    if (count > 0) s.faultsFired[faultSiteName(site)] = count;
  }

  // Invariant: no lost jobs at the scheduler, including those whose ack
  // was truncated before a client saw the id.
  if (!idle()) {
    const service::MetricsSnapshot& m = s.metrics;
    report.violations.push_back(
        "lost jobs: submitted=" + std::to_string(m.submitted) + " terminal=" +
        std::to_string(m.completed + m.failed + m.cancelled + m.expired + m.shed) +
        " queued=" + std::to_string(scheduler_->queueDepth()) +
        " running=" + std::to_string(scheduler_->runningCount()) +
        " after the drain timeout");
  }

  // Invariant: cache accounting.  Memory-tier inserts come from engine
  // runs after a miss or from disk-hit promotions, never anywhere else.
  const service::CacheStats& cache = s.cache;
  if (cache.inserts > cache.misses + cache.diskHits) {
    report.violations.push_back(
        "cache accounting: inserts (" + std::to_string(cache.inserts) +
        ") > misses (" + std::to_string(cache.misses) + ") + disk hits (" +
        std::to_string(cache.diskHits) + ")");
  }
  if (cache.evictions > cache.inserts) {
    report.violations.push_back("cache accounting: evictions > inserts");
  }
  if (cache.diskHits > cache.hits) {
    report.violations.push_back("cache accounting: disk hits > hits");
  }
  if (scheduler_->cache().size() > kCacheCapacity) {
    report.violations.push_back("cache memory tier exceeded its capacity");
  }

  // Without response faults there is no excuse for a transport error.
  if (options.faults.sites.count(FaultSite::kResponseTruncate) == 0 &&
      options.faults.explicitOps.count(FaultSite::kResponseTruncate) == 0 &&
      transportErrors > 0) {
    report.violations.push_back("transport errors without response faults");
  }

  if (!options.journalDir.empty()) recover(report);

  Json faults = Json::object();
  for (const auto& [site, count] : s.faultsFired) faults.set(site, count);
  report.extra.set("faults_fired", std::move(faults));
  const RecoveryReport& recovery = s.recovery;
  if (recovery.ran) {
    Json rec = Json::object();
    rec.set("crashed", recovery.crashed);
    rec.set("replayed_records", recovery.replayedRecords);
    rec.set("pending_at_boot", recovery.pendingAtBoot);
    rec.set("served_from_cache", recovery.servedFromCache);
    rec.set("re_run", recovery.reRun);
    rec.set("compactions", recovery.compactions);
    rec.set("torn_tail", recovery.tornTail);
    report.extra.set("recovery", std::move(rec));
  }
  report.extra.set("stats", metricsToJson(s.metrics, s.cache, 0, 0, 0));
}

// Recovery phase: tear the daemon down and boot a fresh one on the same
// journal + cache directories, then hold it to crash-safety's contract:
//   * zero lost -- every job the dead daemon's log still owes reaches a
//     definite terminal state after replay;
//   * zero duplicated -- the engine never re-runs a cache key whose
//     result already survived on disk (exactly-once at the key level);
//   * the journal compacts once the replayed backlog drains.
void ServiceSoak::recover(SoakReport& report) {
  RecoveryReport& recovery = findings_.recovery;
  recovery.ran = true;
  recovery.crashed = scheduler_->journal()->frozen();
  const std::string logPath = scheduler_->journal()->logPath();
  protocol_.reset();
  scheduler_.reset();  // A frozen journal skips the shutdown compaction.

  const service::JournalReplay digest = service::JobJournal::replayFile(logPath);
  recovery.pendingAtBoot = digest.pending.size();
  recovery.tornTail = digest.tornTail;

  // Keys whose results already survived on the disk cache: re-running
  // the engine for one of these would be a duplicated result.
  std::set<std::string> durableKeys;
  if (!options.cacheDir.empty()) {
    for (const service::JournalRecord& rec : digest.pending) {
      if (rec.cacheKey.empty()) continue;
      if (std::filesystem::exists(std::filesystem::path(options.cacheDir) /
                                  (rec.cacheKey + ".json"))) {
        durableKeys.insert(rec.cacheKey);
      }
    }
  }

  const std::string techPrint = service::ResultCache::techFingerprint(technology_);
  std::mutex violationsMutex;
  service::SchedulerOptions bootOptions = daemonOptions(options);
  bootOptions.preRunHook = [&](const service::JobRequest& request, int) {
    const std::string key = service::ResultCache::keyFor(
        request.options, request.specs, request.corner, techPrint);
    if (durableKeys.count(key) > 0) {
      const std::lock_guard<std::mutex> lock(violationsMutex);
      report.violations.push_back("duplicated result: the engine re-ran cache key " +
                                  key + " whose result already survived the crash");
    }
  };

  service::JobScheduler recovered(technology_, bootOptions);
  recovery.replayedRecords = recovered.health().journal.replayedRecords;

  const auto recoverDeadline = after(options.drainTimeoutSeconds);
  while (Clock::now() < recoverDeadline) {
    const service::HealthSnapshot h = recovered.health();
    if (h.journal.recoveredRemaining == 0 && h.queueDepth == 0 && h.running == 0) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (const service::JournalRecord& rec : digest.pending) {
    const auto status = recovered.status(rec.id);
    if (!status.has_value() || !service::isTerminal(status->state)) {
      const std::lock_guard<std::mutex> lock(violationsMutex);
      report.violations.push_back(
          "lost after recovery: journalled job " + std::to_string(rec.id) +
          " never reached a terminal state in the restarted daemon");
      continue;
    }
    ++(status->cacheHit ? recovery.servedFromCache : recovery.reRun);
  }

  recovery.compactions = recovered.health().journal.compactions;
  if (recovery.pendingAtBoot > 0 && recovery.compactions == 0) {
    const std::lock_guard<std::mutex> lock(violationsMutex);
    report.violations.push_back(
        "journal never compacted after the replayed backlog drained");
  }
}

}  // namespace lo::testkit
