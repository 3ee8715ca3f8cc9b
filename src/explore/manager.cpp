#include "explore/manager.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "explore/service_ops.hpp"

namespace lo::explore {

namespace {

/// Finished sessions tolerated in the log before it is rewritten down to
/// the still-running ones.
constexpr std::uint64_t kCompactEvery = 8;

}  // namespace

ExploreManager::ExploreManager(service::JobScheduler& scheduler,
                               std::string journalDir)
    : scheduler_(scheduler) {
  if (journalDir.empty()) return;
  SessionJournalOptions jopts;
  jopts.dir = std::move(journalDir);
  journal_ = std::make_unique<SessionJournal>(std::move(jopts));
  const SessionReplay replay = journal_->replay();
  nextId_ = replay.maxId + 1;
  for (const SessionRecord& pending : replay.pending) {
    try {
      ExploreSpace space = spaceFromJson(pending.request);
      ExploreOptions options = optionsFromJson(pending.request);
      startSession(std::move(space), std::move(options), pending.id,
                   /*recovering=*/true);
      ++recovered_;
    } catch (const std::exception&) {
      // A started record whose request no longer parses cannot be re-run;
      // leave it in the log (compaction will eventually drop it) rather
      // than refuse to boot.
    }
  }
}

ExploreManager::~ExploreManager() {
  // Snapshot the records, then join outside the lock: the worker threads
  // take the lock to publish their outcome.
  std::vector<std::shared_ptr<Record>> records;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [id, rec] : records_) records.push_back(rec);
  }
  for (auto& rec : records) {
    if (rec->thread.joinable()) rec->thread.join();
  }
}

std::uint64_t ExploreManager::start(ExploreSpace space, ExploreOptions options) {
  return startSession(std::move(space), std::move(options), /*fixedId=*/0,
                      /*recovering=*/false);
}

std::uint64_t ExploreManager::startSession(ExploreSpace space,
                                           ExploreOptions options,
                                           std::uint64_t fixedId,
                                           bool recovering) {
  auto rec = std::make_shared<Record>();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    rec->id = fixedId != 0 ? fixedId : nextId_++;
    nextId_ = std::max(nextId_, rec->id + 1);
    records_[rec->id] = rec;
  }

  Explorer::ProgressCallback onProgress;
  if (journal_ != nullptr) {
    rec->startedRequest = exploreRequestJson(space, options);
    const std::uint64_t id = rec->id;
    onProgress = [this, id](const ExploreProgress& p,
                            const std::vector<std::string>& frontKeys) {
      SessionRecord crumb;
      crumb.type = SessionRecordType::kProgress;
      crumb.id = id;
      crumb.evaluated = p.evaluated;
      crumb.frontSize = static_cast<int>(frontKeys.size());
      crumb.frontDigest = frontDigestOf(frontKeys);
      try {
        // Breadcrumbs are non-durable observability, never worth failing
        // the exploration over.
        journal_->append(crumb, /*durable=*/false);
      } catch (const std::exception&) {
      }
    };
  }
  rec->explorer = std::make_unique<Explorer>(
      scheduler_, std::move(space), std::move(options), std::move(onProgress));

  if (journal_ != nullptr && !recovering) {
    // Durable before the thread launches: once start() returns an id to a
    // client, no crash may forget the session.
    SessionRecord started;
    started.type = SessionRecordType::kStarted;
    started.id = rec->id;
    started.request = rec->startedRequest;
    journal_->append(started, /*durable=*/true);
  }

  rec->thread = std::thread([this, rec] {
    ExploreResult result;
    std::string error;
    bool ok = true;
    try {
      result = rec->explorer->run();
    } catch (const std::exception& e) {
      ok = false;
      error = e.what();
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      rec->result = std::move(result);
      rec->error = std::move(error);
      rec->ok = ok;
      rec->done = true;
    }
    journalFinish(rec);
    doneCv_.notify_all();
  });
  return rec->id;
}

void ExploreManager::journalFinish(const std::shared_ptr<Record>& rec) {
  if (journal_ == nullptr) return;
  SessionRecord fin;
  fin.type = SessionRecordType::kFinished;
  fin.id = rec->id;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    fin.ok = rec->ok;
    fin.error = rec->error;
    fin.evaluated = rec->result.evaluations;
    fin.frontSize = static_cast<int>(rec->result.front.size());
    std::vector<std::string> frontKeys;
    for (const PointEval& p : rec->result.front) frontKeys.push_back(p.key);
    fin.frontDigest = frontDigestOf(frontKeys);
  }
  try {
    journal_->append(fin, /*durable=*/true);
  } catch (const std::exception&) {
    // A full disk must not turn a finished exploration into a failure; at
    // worst the session re-runs (as cache hits) on the next boot.
  }
  compactIfDue();
}

void ExploreManager::compactIfDue() {
  std::vector<SessionRecord> live;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (++finishedSinceCompact_ < kCompactEvery) return;
    finishedSinceCompact_ = 0;
    for (const auto& [id, rec] : records_) {
      if (rec->done) continue;
      SessionRecord started;
      started.type = SessionRecordType::kStarted;
      started.id = id;
      started.request = rec->startedRequest;
      live.push_back(std::move(started));
    }
  }
  try {
    journal_->compact(live);
  } catch (const std::exception&) {
    // Compaction is an optimisation; the un-compacted log stays correct.
  }
}

ExploreManager::Outcome ExploreManager::wait(std::uint64_t id) const {
  std::shared_ptr<Record> rec;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = records_.find(id);
    if (it == records_.end()) {
      throw std::invalid_argument("unknown exploration id " + std::to_string(id));
    }
    rec = it->second;
    doneCv_.wait(lock, [&] { return rec->done; });
  }
  Outcome out;
  out.id = id;
  out.ok = rec->ok;
  out.error = rec->error;
  out.result = rec->result;
  out.space = rec->explorer->space();
  out.options = rec->explorer->options();
  return out;
}

std::vector<ExploreManager::Snapshot> ExploreManager::snapshots() const {
  std::vector<std::shared_ptr<Record>> records;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, rec] : records_) records.push_back(rec);
  }
  std::vector<Snapshot> out;
  out.reserve(records.size());
  for (const auto& rec : records) {
    Snapshot s;
    s.id = rec->id;
    s.progress = rec->explorer->progress();
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      s.done = rec->done;
      s.ok = rec->ok;
      s.error = rec->error;
    }
    out.push_back(std::move(s));
  }
  return out;
}

}  // namespace lo::explore
