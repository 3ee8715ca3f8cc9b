// ClusterRouter: the shard-routing front-end of the losynthd cluster.
//
// Speaks the same line-JSON protocol as a single losynthd and fans the
// work out over N worker daemons (ShardProcess children), so a client
// cannot tell the difference between one daemon and a cluster -- except
// for the added "shard" attribution in responses and the per-shard
// sections in stats/health.
//
// Routing.  synthesize/sweep jobs route by consistent-hashing the job's
// content-addressed ResultCache key (ring.hpp) -- the router derives the
// exact key the shard's scheduler will (service::parseJobRequest +
// ResultCache::keyFor over the same technology), so every duplicate of a
// design point lands on the same shard and that shard's in-memory cache
// and single-flight coalescing absorb it.  no_cache jobs and explorations
// hash their raw request text instead.  Sweeps are partitioned into
// per-shard sub-sweeps sent in one exchange (below) and the outcomes are
// reassembled in request order.
//
// Shard I/O.  The router has no threads.  Every request it sends a shard
// -- routed forwards, sweep fan-out, multi-id waits, drain's settle waits,
// stats/health fan-out and the polite shutdowns -- goes through one
// primitive, exchange(): it pipelines a batch of lines to their shards
// and, in one poll(2) loop, writes what each (non-blocking) pipe takes
// and reads what each holds, pairing answers with requests first-in
// first-out per shard.  No stream of any length can fill both pipes of a
// shard and block the router.  A shard's oldest unanswered request gets
// requestTimeoutSeconds (a sub-sweep one per entry) from the shard's
// previous answer, so a wedged shard is caught after one timeout and holds
// back only its own requests.  Only the boot health check in spawnShard
// talks to a pipe directly.
//
// Failure model.  A shard fails an exchange four ways, each recorded as
// its restart reason: "write failed (pipe closed)", "eof (process died)",
// "garbage on the pipe" (an unparseable line would mis-pair every later
// answer) and "request timeout (wedged)".  Each way the router kills the
// shard, hands the unanswered requests back to the handler and respawns
// the shard on the same --journal directory -- the reboot replays both
// write-ahead logs, so every job the dead shard had acknowledged is
// re-enqueued under its original id and every exploration it owned
// restarts under its original id.  Respawns after the first failure back
// off exponentially with seeded jitter (restart hygiene: a crash-looping
// binary must not be respawned in a hot loop), except that a cluster with
// no other live shard force-revives immediately.  While a shard stays
// down (backoff or restart budget), its key ranges re-route to the next
// live member on the ring, which peer-fills from the shared on-disk cache
// store rather than recomputing anything a dead shard already finished.
//
// Failover.  Router job and explore ids are pinned routes that remember
// their routing key and an async resubmit line.  wait/cancel and
// explore_result share one path: forward, revive and retry once on a
// dead pipe, and re-pin to a survivor when the shard stays down or forgot
// the id (the resubmission is a cache hit or journal coalesce, not a
// second run).  A re-run exploration's front is byte-identical to what
// the dead shard would have produced: the explorer is deterministic per
// (space, options) and the cache is shared.
//
// Membership.  `drain` removes a shard from the ring gracefully: new keys
// stop routing to it, its in-flight jobs are waited out, its explore
// sessions re-pin to the inheriting members, then the worker is shut
// down.  `add` re-admits a drained shard or grows the ring by a brand-new
// one (only the captured key ranges move; the shared store warms the new
// member on first miss).
//
// Job ids.  Shard-local ids would collide across shards, so the router
// issues its own id space for synthesize/sweep acks and maps them back on
// wait/cancel; explorations get the same treatment.  A `wait` with an
// "ids" array sends every id's wait (with the request's summary/trace
// flags) in one exchange, so a wedged shard cannot stall waits destined
// for healthy ones; ids left unanswered resolve through the single-id
// path afterwards.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "cluster/process.hpp"
#include "cluster/ring.hpp"
#include "service/json.hpp"
#include "tech/technology.hpp"

namespace lo::cluster {

struct RouterOptions {
  /// Worker command: losynthd binary plus pass-through flags (--threads,
  /// --queue-depth, --tech, ...).  --journal / --cache-dir are appended
  /// per shard from journalRoot / cacheDir.
  std::vector<std::string> workerArgv;
  int shards = 2;
  int vnodesPerShard = 64;
  /// Per-shard write-ahead journal at <journalRoot>/shard<i> ("" = off).
  /// Each shard recovers independently: a restart replays only its own log.
  std::string journalRoot;
  /// Shared on-disk result store handed to every shard ("" = off).  This
  /// is the peer-fill channel: a miss on shard A consults the store before
  /// computing, so results computed on other shards are never recomputed.
  std::string cacheDir;
  /// Must match the workers' --tech, or the router's keys (and therefore
  /// its routing) would diverge from the shards' cache keys.
  tech::Technology technology = tech::Technology::generic060();
  /// Per-request ceiling before a shard is declared wedged and recycled.
  double requestTimeoutSeconds = 300.0;
  /// Respawn dead shards (journal replay) instead of only re-routing.
  bool restartDeadShards = true;
  int maxRestartsPerShard = 16;
  /// Restart backoff: the first revive after a death is immediate (so a
  /// one-off kill heals on the next request), the n-th consecutive death
  /// waits base * 2^(n-1) seconds, capped at max, jittered +-25% from the
  /// seeded RNG so a fleet of routers does not thunder in phase.  A death
  /// after `restartBackoffMaxSeconds` of healthy uptime resets the streak.
  double restartBackoffBaseSeconds = 0.05;
  double restartBackoffMaxSeconds = 5.0;
  std::uint64_t backoffJitterSeed = 0x105F;
};

class ClusterRouter {
 public:
  /// Spawns and health-checks every shard; throws if any fails to boot.
  explicit ClusterRouter(RouterOptions options);
  ~ClusterRouter();

  ClusterRouter(const ClusterRouter&) = delete;
  ClusterRouter& operator=(const ClusterRouter&) = delete;

  /// Handle one request line; always returns a single-line JSON response.
  /// Not thread-safe: serialise calls (the serve loop is single-threaded).
  [[nodiscard]] std::string handleLine(const std::string& line);

  [[nodiscard]] bool shutdownRequested() const { return shutdown_; }

  /// Serve line-by-line until EOF or shutdown; flushes after every line.
  void serve(std::istream& in, std::ostream& out);

  [[nodiscard]] int shardCount() const { return static_cast<int>(shards_.size()); }
  [[nodiscard]] pid_t shardPid(int shard) const;
  /// SIGKILL a shard from outside the protocol -- the soak/test fault
  /// site.  The router notices on the next request routed to it.
  void killShard(int shard);
  /// SIGSTOP a shard -- the chaos harness's wedge fault.  The shard stays
  /// "up" but answers nothing; the router's request timeout declares it
  /// wedged, kill9s it (SIGKILL works on a stopped process) and revives.
  void wedgeShard(int shard);

  /// Total successful shard restarts so far (soak invariant input).
  [[nodiscard]] std::uint64_t restarts() const;
  /// Total requests that had to leave their home shard.
  [[nodiscard]] std::uint64_t rerouted() const { return rerouted_; }
  /// Jobs and explorations re-pinned to a survivor after their shard died
  /// past its restart budget (or was drained).
  [[nodiscard]] std::uint64_t jobFailovers() const { return jobFailovers_; }
  [[nodiscard]] std::uint64_t exploreFailovers() const { return exploreFailovers_; }
  [[nodiscard]] std::uint64_t drains() const { return drains_; }
  [[nodiscard]] std::uint64_t adds() const { return adds_; }
  /// Current ring members (undrained shards).
  [[nodiscard]] int memberCount() const;

 private:
  struct Shard {
    std::unique_ptr<ShardProcess> process;
    std::vector<std::string> argv;
    bool alive = false;
    /// False after `drain`: not in the ring, not revived, not counted in
    /// all_alive.  `add` re-admits.
    bool member = true;
    int restarts = 0;
    std::uint64_t routedJobs = 0;
    std::uint64_t transportErrors = 0;
    /// Journal replay figures reported by the shard's health op at its
    /// most recent (re)boot -- the cluster-visible recovery evidence.
    std::uint64_t lastReplayedRecords = 0;
    std::uint64_t lastRecoveredJobs = 0;
    /// Restart hygiene: why it last died, the recent death reasons
    /// (bounded), when the backoff allows the next respawn, and the
    /// consecutive-death streak driving the exponent.
    std::string lastRestartReason;
    std::vector<std::string> restartHistory;
    double nextRestartAt = 0.0;
    int backoffStreak = 0;
    double lastReviveAt = 0.0;
  };

  /// A router id (job or exploration) pinned to a shard, plus everything
  /// needed to re-pin it to a survivor when that shard is unrecoverable:
  /// the consistent-hash key and an async resubmission of the original
  /// request (a cache hit or coalesce on the inheritor, never a second
  /// engine run).
  struct Route {
    int shard = -1;
    std::uint64_t localId = 0;
    std::string key;
    std::string resubmitLine;
    bool exploration = false;  ///< An explore_id, not a job id.
    bool terminal = false;     ///< Observed in a terminal state (drain skips it).
  };

  /// One request line for one shard and, after exchange(), its answer --
  /// empty when the shard died, wedged or answered garbage first.
  struct Call {
    int shard = -1;
    std::string line;
    double weight = 1.0;  ///< Request timeouts it may take (a sub-sweep: its entries).
    std::optional<service::Json> reply{};
  };

  /// Thrown internally for cluster-level failures; becomes a structured
  /// {"error":{"code":...}} response.
  struct RouterError {
    std::string code;
    std::string message;
  };

  [[nodiscard]] service::Json handle(const service::Json& request,
                                     const std::string& rawLine);
  [[nodiscard]] service::Json handleSynthesize(const service::Json& request,
                                               const std::string& rawLine);
  [[nodiscard]] service::Json handleSweep(const service::Json& request);
  [[nodiscard]] service::Json handleWaitOrCancel(const service::Json& request,
                                                 const std::string& op);
  [[nodiscard]] service::Json handleMultiWait(const service::Json& request);
  [[nodiscard]] service::Json handleExplore(const service::Json& request,
                                            const std::string& rawLine);
  [[nodiscard]] service::Json handleExploreResult(const service::Json& request);
  [[nodiscard]] service::Json handleDrain(const service::Json& request);
  [[nodiscard]] service::Json handleAdd(const service::Json& request);
  [[nodiscard]] service::Json handleStats();
  [[nodiscard]] service::Json handleHealth();
  [[nodiscard]] service::Json handleShutdown();
  [[nodiscard]] service::Json forwardToAnyShard(const std::string& rawLine);

  /// The routing key for one synthesize/sweep entry: the job's cache key,
  /// or a hash key over the entry text for no_cache jobs.
  [[nodiscard]] std::string routingKeyFor(const service::Json& entry) const;

  /// Pick the live member shard for `key`, reviving its home shard first
  /// if that is down (respecting backoff; a cluster with nothing else
  /// alive force-revives).  Throws RouterError{"no_live_shards"} when
  /// nothing can serve.  Counts a reroute when the answer is not home.
  [[nodiscard]] int routeLive(const std::string& key);

  /// The router's one shard-I/O primitive: pipeline every call's line to
  /// its shard, interleave non-blocking writes with reads of every
  /// involved pipe in one poll(2) loop and pair answers with calls
  /// first-in first-out per shard.  A shard's oldest unanswered call gets
  /// requestTimeoutSeconds per unit of its weight, counted from the
  /// shard's previous answer (or the start).  A failed write, EOF, an
  /// unparseable line or a missed deadline marks the shard dead with that
  /// reason and leaves its unanswered calls without a reply.  Calls to
  /// shards that are not alive stay unanswered.
  void exchange(std::vector<Call>& calls);
  /// One call's exchange.
  [[nodiscard]] std::optional<service::Json> ask(int shard, std::string line);
  /// `line` to every live member in one exchange; index s is shard s's reply.
  [[nodiscard]] std::vector<std::optional<service::Json>> askMembers(
      const std::string& line);
  /// ask() with revive-and-retry until the route is exhausted.  Returns
  /// the serving shard and its response.
  [[nodiscard]] std::pair<int, service::Json> forwardRouted(
      const std::string& key, const std::string& line);

  void markDead(int shard, const std::string& reason);
  /// Respawn a dead member shard (journal replay) within the restart
  /// budget and -- unless ignoreBackoff -- past its backoff deadline;
  /// true when the shard is a live member afterwards.
  [[nodiscard]] bool reviveShard(int shard, bool ignoreBackoff = false);
  void spawnShard(int shard);  ///< Throws on spawn/health-check failure.
  /// The worker argv for shard `s` (journal dir, shared cache appended).
  [[nodiscard]] std::vector<std::string> buildShardArgv(int shard) const;

  [[nodiscard]] std::vector<bool> routableMask() const;  ///< alive && member.
  /// Issue a router id for `route` from its kind's id space.
  [[nodiscard]] std::uint64_t pin(Route route);
  /// Re-issue an ok job ack's shard-local id under a router id pinned to
  /// `shard`, and stamp the shard.
  void stampJob(service::Json& response, int shard, const std::string& key,
                const service::Json& request);
  /// Re-pin `route` whose shard is unrecoverable: resubmit async on the
  /// ring, remap, count a job or explore failover.
  void repin(std::uint64_t routerId, Route& route);
  /// A pinned shard's answer under the router id, stamped with `shard`;
  /// notes terminal states so drains skip settled jobs.
  [[nodiscard]] service::Json settle(std::uint64_t routerId, Route& route,
                                     int shard, service::Json reply);
  /// Resolve a wait/cancel/explore_result on a pinned id: forward with the
  /// local id, revive and retry once on a dead pipe, and re-pin when the
  /// shard stays down or forgot the id.
  [[nodiscard]] service::Json resolvePinned(std::uint64_t routerId, Route& route,
                                            service::Json request);
  [[nodiscard]] double nowSeconds() const;

  RouterOptions options_;
  std::string techPrint_;
  ShardRing ring_;
  std::vector<Shard> shards_;
  bool shutdown_ = false;

  std::uint64_t nextJobId_ = 1;
  std::uint64_t nextExploreId_ = 1;
  std::unordered_map<std::uint64_t, Route> jobRoute_;
  std::unordered_map<std::uint64_t, Route> exploreRoute_;
  std::uint64_t rerouted_ = 0;
  std::uint64_t jobFailovers_ = 0;
  std::uint64_t exploreFailovers_ = 0;
  std::uint64_t drains_ = 0;
  std::uint64_t adds_ = 0;
  std::mt19937_64 backoffRng_;
};

}  // namespace lo::cluster
