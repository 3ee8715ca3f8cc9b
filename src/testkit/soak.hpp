// One soak harness for the line protocol.
//
// runSoak drives a mode's line target -- any function from a request line
// to a response line -- with N client threads over a small seeded pool of
// distinct design points, so duplicate submissions engage coalescing and
// the result cache.  Then it drains: every id a client was acknowledged
// is waited on until it reports a terminal state.  The client loop, the
// drain and the report are shared; a mode brings its target, its request
// mix (as data) and the checks only it can make.  The modes are
// ServiceSoak (below, in process) and cluster::ClusterSoak
// (cluster/soak.hpp, a router over real losynthd shards).
//
// Invariants checked in every mode:
//
//   * no lost jobs -- every acknowledged id reaches a terminal state
//     through wait before the drain deadline (a bounded drain);
//   * stats monotonicity -- the mode's counters never decrease across the
//     stats responses the clients receive, plus one probe at the end of
//     each client's drain and one once the mode is idle.
//
// Violations come back as human-readable strings in the report; an empty
// list is a pass.  tools/lostress is the CLI over both modes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "service/json.hpp"
#include "service/metrics.hpp"
#include "testkit/faults.hpp"
#include "testkit/generators.hpp"

namespace lo::testkit {

/// One request line in, one response line out.
using LineTarget = std::function<std::string(const std::string&)>;

/// The requests a mode's clients send, in percent of draws; the remainder
/// are stats requests.  A wait or cancel drawn while the client holds no
/// acknowledged id becomes an async submission.
struct RequestMix {
  int asyncSubmit = 0;
  int wait = 0;
  int cancel = 0;
  int syncSubmit = 0;
  /// Async submissions carry max_retries (when > 0), and deadlineFraction
  /// of them a deadline of deadlineSeconds.
  int maxRetries = 0;
  double deadlineFraction = 0.0;
  double deadlineSeconds = 0.0;
  /// Waits and synchronous submissions ask for the summary form.
  bool summary = false;
};

struct SoakOptions {
  std::uint64_t seed = 1;
  int clients = 4;
  int schedulerThreads = 2;
  double durationSeconds = 5.0;
  /// Per-client request cap; 0 = duration-limited only.
  int maxRequestsPerClient = 0;
  /// Distinct design points the clients draw from (small, so duplicates
  /// exercise coalescing and the cache).
  int poolSize = 12;
  FaultPlanOptions faults;
  std::string cacheDir;  ///< Optional on-disk store; empty = memory only.
  /// Write-ahead journal directory; set, the in-process soak arms the
  /// crash sites (kProcessKill freezes the journal mid-run,
  /// kJournalTornWrite tears an append) and finishes with the recovery
  /// phase.  Empty = journalling off, no recovery phase.
  std::string journalDir;
  double drainTimeoutSeconds = 60.0;
};

/// What the post-crash restart found and did (journalDir soaks only).
struct RecoveryReport {
  bool ran = false;      ///< A recovery phase executed.
  bool crashed = false;  ///< The journal actually froze during phase 1.
  std::uint64_t replayedRecords = 0;  ///< Intact frames read at reboot.
  std::uint64_t pendingAtBoot = 0;    ///< Jobs the dead daemon still owed.
  std::uint64_t servedFromCache = 0;  ///< Pending jobs answered without re-running.
  std::uint64_t reRun = 0;            ///< Pending jobs that needed the engine.
  std::uint64_t compactions = 0;
  bool tornTail = false;  ///< The reboot truncated a torn final frame.
};

/// What every mode reports.  A mode's own findings live on the mode, and
/// their JSON members in `extra`.
struct SoakReport {
  std::uint64_t requests = 0;         ///< Protocol lines sent by clients.
  std::uint64_t rejected = 0;         ///< {"ok":false} responses (queue full, ...).
  std::uint64_t transportErrors = 0;  ///< Unparseable (truncated) responses.
  std::uint64_t trackedJobs = 0;      ///< Ids the clients were acknowledged.
  std::map<std::string, std::uint64_t> terminalStates;  ///< Over tracked jobs.
  /// Members the mode's finish() adds to toJson()'s object.
  service::Json extra = service::Json::object();
  std::vector<std::string> violations;
  double elapsedSeconds = 0.0;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// Full report as JSON (what lostress prints).
  [[nodiscard]] service::Json toJson() const;
};

/// What a mode plugs into the harness: the target and the data the shared
/// client loop reads, plus hooks for the mode's own setup and checks.
/// Modes' targets capture `this`, so a mode is neither copied nor moved.
struct SoakMode {
  SoakMode() = default;
  SoakMode(const SoakMode&) = delete;
  SoakMode& operator=(const SoakMode&) = delete;
  virtual ~SoakMode() = default;

  SoakOptions options;
  /// Called from every client thread at once.
  LineTarget target;
  RequestMix mix;
  /// Distinct design points the clients draw from.
  std::vector<CorpusPoint> pool;
  /// Counters under a stats response's "stats" member, as dotted paths
  /// ("jobs.submitted"), that must never decrease.
  std::vector<std::string> monotoneCounters;

  /// Before the clients start.
  virtual void begin(SoakReport& /*report*/) {}
  /// After the clients' drain, the harness waits (up to the drain
  /// deadline) until this holds, then takes its last stats sample.
  [[nodiscard]] virtual bool idle() { return true; }
  /// After the drain: the mode's own checks and report members.
  virtual void finish(SoakReport& report) = 0;

  /// One line through `target`, parsed.  An answer that does not parse is
  /// a transport error: it is counted and comes back null.  Thread-safe.
  [[nodiscard]] service::Json send(const std::string& line);
  /// Transport errors so far; runSoak copies the total into the report.
  std::atomic<std::uint64_t> transportErrors{0};
};

/// Run the clients against `mode`, drain, and check.
[[nodiscard]] SoakReport runSoak(SoakMode& mode);

/// A synchronous synthesize request for `point`; callers add the extras.
[[nodiscard]] service::Json synthesizeRequest(const CorpusPoint& point);

/// The in-process mode: the JobScheduler + ServiceProtocol pair losynthd
/// serves, built from the options, with the fault plan armed at every seam
/// (transient engine errors, deadline overruns, cache-store write
/// failures, truncated responses, journal crashes).  Its clients send
/// async submissions with tight deadlines and retries, waits, cancels and
/// stats.  It adds these invariants:
///
///   * scheduler accounting -- submitted == done + failed + cancelled +
///     expired + shed, with the queue empty and nothing running, so jobs
///     whose ack was truncated count too;
///   * cache accounting -- inserts <= misses + disk hits, evictions <=
///     inserts, disk hits <= hits, and the memory tier within capacity;
///   * transport errors only when response truncation is armed;
///   * with journalDir, a recovery phase: a second daemon boots on the
///     same journal + cache directories, nothing is lost, nothing is
///     re-run whose result survived, and the journal compacts.
class ServiceSoak final : public SoakMode {
 public:
  ServiceSoak(tech::Technology technology, SoakOptions soakOptions);

  [[nodiscard]] bool idle() override;
  void finish(SoakReport& report) override;

  /// What the in-process daemon did, filled by finish().
  struct Findings {
    service::MetricsSnapshot metrics;
    service::CacheStats cache;
    std::map<std::string, std::uint64_t> faultsFired;  ///< Site name -> count.
    RecoveryReport recovery;
  };
  [[nodiscard]] const Findings& findings() const { return findings_; }

 private:
  void recover(SoakReport& report);

  tech::Technology technology_;
  Findings findings_;
  FaultPlan plan_;
  std::unique_ptr<service::JobScheduler> scheduler_;
  std::unique_ptr<service::ServiceProtocol> protocol_;
};

}  // namespace lo::testkit
