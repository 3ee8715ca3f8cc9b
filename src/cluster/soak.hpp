// The cluster mode of the soak harness (testkit/soak.hpp).
//
// The clients send async submissions, summary waits, synchronous summary
// submissions and stats through a ClusterRouter over real losynthd
// shards, so the soak crosses the full process boundary.  The router is
// single-threaded by contract: the target serialises every line under one
// mutex, and the soak's concurrency lives in the shards.  With
// killOneShard set, one shard is SIGKILLed at killAtFraction of the run,
// outside that mutex, so it may die in the middle of a request; the
// soak's whole point is that nobody upstairs notices.
//
// Invariants this mode adds to the harness's own:
//
//   * every response parses, and none is a rejection -- shard death is
//     absorbed by restart + journal replay + re-route, never surfaced;
//   * exactly-once at the cache-key level -- after the drain, every pool
//     point resubmitted synchronously answers cache_hit:true (whatever a
//     dead shard owed was finished once, by replay or by a peer);
//   * kill evidence -- with killOneShard or chaos, the router logged >= 1
//     restart, and every shard is alive again at the end.
//
// Monotonicity covers the cluster's job counters only without faults: a
// restarted shard's counters legitimately reset to zero.
//
// Chaos mode (`chaos`) layers a seeded schedule on top: at deterministic
// request-count indices the mode SIGKILLs a shard, SIGSTOP-wedges one, or
// drains one under load and re-admits it, while an async exploration
// started before the clients rides through the storm.  It must still
// deliver its full front, byte-identical to a clean equal-budget re-run.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <sys/types.h>

#include "cluster/router.hpp"
#include "testkit/soak.hpp"

namespace lo::cluster {

struct ClusterSoakOptions {
  /// SIGKILL one shard at killAtFraction of the soak duration.
  bool killOneShard = false;
  double killAtFraction = 0.4;
  /// Seeded chaos schedule: kill -9, SIGSTOP wedge and drain/re-add
  /// events fire at deterministic request-count indices, and an async
  /// exploration runs through the storm (see the header comment).
  bool chaos = false;
  /// Chaos schedule RNG seed; 0 derives one from the soak's seed.
  std::uint64_t chaosSeed = 0;
  /// Fault events in the schedule (kill/wedge/drain rotate).
  int chaosEvents = 4;
  /// Shard layout, worker argv and restart policy; the soak options'
  /// journalDir and cacheDir become its journalRoot and cacheDir.
  RouterOptions router;
};

class ClusterSoak final : public testkit::SoakMode {
 public:
  ClusterSoak(testkit::SoakOptions soakOptions, ClusterSoakOptions clusterOptions);
  ~ClusterSoak() override;

  void begin(testkit::SoakReport& report) override;
  void finish(testkit::SoakReport& report) override;

  /// What the faults did, filled by finish().
  struct Findings {
    int killedShard = -1;               ///< Which shard the kill shot.
    std::uint64_t restarts = 0;         ///< Router restart count at the end.
    std::uint64_t rerouted = 0;         ///< Requests served off their home shard.
    std::uint64_t resubmittedHits = 0;  ///< Pool points answering cache_hit:true.
    std::uint64_t chaosKills = 0;       ///< SIGKILL events fired.
    std::uint64_t chaosWedges = 0;      ///< SIGSTOP wedge events fired.
    std::uint64_t chaosDrains = 0;      ///< Drains executed under load.
    std::uint64_t chaosAdds = 0;        ///< Drained shards re-admitted.
    std::uint64_t jobFailovers = 0;     ///< Jobs re-pinned to survivors.
    std::uint64_t exploreFailovers = 0; ///< Explorations re-pinned.
    /// Chaos exploration's front matched the clean re-run byte for byte.
    bool exploreFrontMatched = false;
  };
  [[nodiscard]] const Findings& findings() const { return findings_; }

 private:
  struct ChaosEvent {
    std::uint64_t atRequest = 0;
    int kind = 0;  ///< 0 = kill, 1 = drain + re-add, 2 = wedge.
    std::uint64_t pick = 0;
  };

  /// The fault thread: the timed kill and the chaos schedule.
  void injectFaults();
  void fire(const ChaosEvent& event);  ///< Under mutex_.

  ClusterSoakOptions clusterOptions_;
  ClusterRouter router_;
  std::mutex mutex_;  ///< Serialises the router.
  std::atomic<std::uint64_t> lines_{0};  ///< Lines routed so far.
  std::vector<ChaosEvent> schedule_;
  std::uint64_t exploreId_ = 0;
  pid_t killPid_ = -1;  ///< The timed kill's victim, taken in begin().
  std::chrono::steady_clock::time_point start_;
  /// Written by the fault thread, read after it joins.
  Findings findings_;
  std::vector<std::string> faultViolations_;
  std::thread faults_;
};

}  // namespace lo::cluster
