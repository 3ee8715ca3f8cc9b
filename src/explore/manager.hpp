// ExploreManager: named, background explorations for the daemon.
//
// Each start() spawns one thread that drives an Explorer to completion
// over the shared JobScheduler (the per-point parallelism lives in the
// scheduler's worker pool, so one manager thread per exploration is
// cheap).  The daemon's `explore` op starts or waits on explorations and
// the `stats` op reports live snapshots of every one.
//
// With a journal directory, the manager write-ahead-logs every session
// through SessionJournal: the request durably before launch, progress
// breadcrumbs per batch, a durable terminal record at completion.  On
// construction it replays the log and restarts every pending session under
// its original id -- the explorer's (space, options) determinism plus the
// result cache make the restart a fast-forward to where the dead process
// stopped, with a byte-identical front.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "explore/explore.hpp"
#include "explore/session_journal.hpp"

namespace lo::explore {

class ExploreManager {
 public:
  /// The scheduler must outlive the manager.  A non-empty journalDir
  /// enables session durability: pending sessions found in the journal are
  /// restarted (under their original ids) before the constructor returns.
  explicit ExploreManager(service::JobScheduler& scheduler,
                          std::string journalDir = {});
  ~ExploreManager();  ///< Joins every exploration thread.

  ExploreManager(const ExploreManager&) = delete;
  ExploreManager& operator=(const ExploreManager&) = delete;

  /// Launch an exploration in the background; returns its id immediately.
  /// Space/option validation happens on the worker thread -- a degenerate
  /// space surfaces as a failed outcome, not a throw.  When journalling is
  /// on, the session's started record is durable before this returns.
  std::uint64_t start(ExploreSpace space, ExploreOptions options);

  struct Outcome {
    std::uint64_t id = 0;
    bool ok = false;
    std::string error;  ///< Exception text when !ok.
    ExploreResult result;
    ExploreSpace space;      ///< For exporters, which need the axes.
    ExploreOptions options;
  };

  /// Block until the exploration finishes; throws std::invalid_argument on
  /// an unknown id.
  [[nodiscard]] Outcome wait(std::uint64_t id) const;

  struct Snapshot {
    std::uint64_t id = 0;
    ExploreProgress progress;
    bool done = false;
    bool ok = false;
    std::string error;
  };

  /// Live view of every exploration ever started, ordered by id.
  [[nodiscard]] std::vector<Snapshot> snapshots() const;

  [[nodiscard]] bool journalEnabled() const { return journal_ != nullptr; }
  /// Valid only when journalEnabled().
  [[nodiscard]] const SessionJournal* journal() const { return journal_.get(); }
  /// Pending sessions restarted from the journal at construction.
  [[nodiscard]] std::uint64_t recoveredSessions() const { return recovered_; }

 private:
  struct Record {
    std::uint64_t id = 0;
    std::unique_ptr<Explorer> explorer;
    std::thread thread;
    bool done = false;
    bool ok = false;
    std::string error;
    ExploreResult result;
    service::Json startedRequest;  ///< For compaction (journalled sessions).
  };

  /// Shared start path; fixedId != 0 re-launches a recovered session under
  /// its original id, and `recovering` skips the started append (the
  /// original record is already durable in the log).
  std::uint64_t startSession(ExploreSpace space, ExploreOptions options,
                             std::uint64_t fixedId, bool recovering);
  void journalFinish(const std::shared_ptr<Record>& rec);
  void compactIfDue();

  service::JobScheduler& scheduler_;
  std::unique_ptr<SessionJournal> journal_;
  std::uint64_t recovered_ = 0;
  mutable std::mutex mutex_;
  mutable std::condition_variable doneCv_;
  std::map<std::uint64_t, std::shared_ptr<Record>> records_;
  std::uint64_t nextId_ = 1;
  std::uint64_t finishedSinceCompact_ = 0;
};

}  // namespace lo::explore
