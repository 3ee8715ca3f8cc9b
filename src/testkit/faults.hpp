// Deterministic fault injection for the synthesis stack.
//
// A FaultPlan is a pure function from (seed, site, operation index) to
// "fire / don't fire": the decision for operation #k at a site is fixed by
// the seed alone, so a fault schedule replays identically across runs no
// matter how threads interleave -- only the *assignment* of indices to
// operations depends on arrival order.  Under a single-threaded scheduler
// the whole schedule is exactly reproducible, which is what the
// differential oracle runs; the soak runner uses the same plan under
// concurrency, where the invariants it checks are order-independent.
//
// The plan plugs into the production seams added for it:
//   * service::SchedulerOptions::preRunHook   -> kEngineTransient (throws
//     TransientError before an attempt), kDeadlineOverrun (sleeps so a
//     deadline lapses mid-run);
//   * core::EngineHooks::onStageStart         -> kStageTransient (throws
//     TransientError between engine stages, after real work happened);
//   * service::CacheOptions::diskWriteFault   -> kCacheWrite (the on-disk
//     store write fails, leaving a truncated entry);
//   * service::ServiceProtocol response seam  -> kResponseTruncate (the
//     daemon's response line is cut mid-JSON).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "service/protocol.hpp"
#include "service/scheduler.hpp"

namespace lo::testkit {

enum class FaultSite {
  kEngineTransient,   ///< TransientError thrown before an engine attempt.
  kStageTransient,    ///< TransientError thrown between engine stages.
  kDeadlineOverrun,   ///< Sleep before the attempt so deadlines lapse.
  kCacheWrite,        ///< On-disk cache store write fails (truncated file).
  kResponseTruncate,  ///< Daemon response line truncated mid-JSON.
  kJournalTornWrite,  ///< Journal append writes half a frame and freezes.
  kProcessKill,       ///< Simulated SIGKILL: the journal stops recording.
};

[[nodiscard]] constexpr const char* faultSiteName(FaultSite s) {
  switch (s) {
    case FaultSite::kEngineTransient: return "engine_transient";
    case FaultSite::kStageTransient: return "stage_transient";
    case FaultSite::kDeadlineOverrun: return "deadline_overrun";
    case FaultSite::kCacheWrite: return "cache_write";
    case FaultSite::kResponseTruncate: return "response_truncate";
    case FaultSite::kJournalTornWrite: return "journal_torn_write";
    case FaultSite::kProcessKill: return "process_kill";
  }
  return "?";
}

/// Every injectable site, in enum order.
[[nodiscard]] const std::vector<FaultSite>& allFaultSites();

struct FaultPlanOptions {
  std::uint64_t seed = 1;
  /// Per-operation firing probability at every enabled site.
  double rate = 0.0;
  /// Sites the rate applies to (empty = none; explicitOps still fire).
  std::set<FaultSite> sites;
  /// Exact 0-based operation indices that fire regardless of the rate --
  /// the way unit tests pin a fault onto "the third engine attempt".
  std::map<FaultSite, std::vector<std::uint64_t>> explicitOps;

  /// The standard `--faults basic` plan: every recoverable site enabled at
  /// 10%.  The crash sites (kJournalTornWrite, kProcessKill) stay off --
  /// the first firing freezes the journal for good, which is a dedicated
  /// scenario, not background noise.
  [[nodiscard]] static FaultPlanOptions basic(std::uint64_t seed);
  /// No faults at all (the identity plan).
  [[nodiscard]] static FaultPlanOptions none(std::uint64_t seed = 1);
  /// The `--faults journal_torn_write` plan: only the journal torn-write
  /// site, at 25% -- the first firing tears a frame mid-append.
  [[nodiscard]] static FaultPlanOptions journalTorn(std::uint64_t seed);
  /// Parse a CLI name: "basic", "none" or "journal_torn_write"; throws
  /// std::invalid_argument.
  [[nodiscard]] static FaultPlanOptions preset(const std::string& name,
                                               std::uint64_t seed);
};

/// One fired fault, for post-run reporting.
struct FaultEvent {
  FaultSite site = FaultSite::kEngineTransient;
  std::uint64_t opIndex = 0;
};

class FaultPlan {
 public:
  explicit FaultPlan(FaultPlanOptions options = {});

  /// The pure decision function: does operation #opIndex at `site` fire?
  /// Depends only on (seed, site, opIndex); thread-free and replayable.
  [[nodiscard]] bool fires(FaultSite site, std::uint64_t opIndex) const;

  /// Assign the next operation index for `site` and decide; records the
  /// event when it fires.  Thread-safe.
  bool shouldFire(FaultSite site);

  [[nodiscard]] const FaultPlanOptions& options() const { return options_; }
  /// Operations seen at `site` so far.
  [[nodiscard]] std::uint64_t operations(FaultSite site) const;
  /// Faults fired at `site` so far.
  [[nodiscard]] std::uint64_t fired(FaultSite site) const;
  /// Total faults fired across all sites.
  [[nodiscard]] std::uint64_t firedTotal() const;
  [[nodiscard]] std::vector<FaultEvent> events() const;

 private:
  FaultPlanOptions options_;
  mutable std::mutex mutex_;
  std::map<FaultSite, std::uint64_t> next_;
  std::map<FaultSite, std::uint64_t> fired_;
  std::vector<FaultEvent> events_;
};

/// Chain the plan's scheduler-side faults onto options.preRunHook
/// (kEngineTransient, kDeadlineOverrun) and its cache-store fault onto
/// options.cache.diskWriteFault (kCacheWrite).  Existing hooks keep
/// running first.  The plan must outlive every scheduler built from the
/// options.
void installSchedulerFaults(service::SchedulerOptions& options, FaultPlan& plan);

/// Arm kStageTransient on a single job's engine hooks: onStageStart throws
/// service::TransientError when the plan fires, which the scheduler's
/// retry path handles like any backend hiccup.
void installEngineFaults(core::EngineOptions& options, FaultPlan& plan);

/// Arm kResponseTruncate on the protocol: fired responses are cut to half
/// length (mid-JSON), exercising client transport-error handling while the
/// daemon's own state advances normally.
void installProtocolFaults(service::ServiceProtocol& protocol, FaultPlan& plan);

/// Arm kJournalTornWrite on the scheduler's write-ahead journal: a fired
/// append writes only the first half of its frame and freezes the journal,
/// byte-for-byte what a SIGKILL mid-append leaves behind.  Requires
/// options.journal.dir to be set.
void installJournalFaults(service::SchedulerOptions& options, FaultPlan& plan);

}  // namespace lo::testkit
