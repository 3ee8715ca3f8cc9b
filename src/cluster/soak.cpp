#include "cluster/soak.hpp"

#include <csignal>
#include <random>

namespace lo::cluster {

namespace {

using service::Json;
using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Case 4 for the same reason as the explore smoke: its grid is feasible,
/// so the front is non-trivial.
constexpr const char* kExploreLine =
    R"({"op":"explore","async":true,"case":4,"budget":12,"max_rounds":1,)"
    R"("tolerance":0.05,"axes":[{"field":"gbw","lo":55e6,"hi":65e6,)"
    R"("points":2},{"field":"cload","lo":2e-12,"hi":3e-12,"points":2}]})";

/// A front with per-point provenance stripped: `cache_hit` says where a
/// value came from (cold run vs warm replay), not what it is, so the
/// byte-identical failover comparison must ignore it.
std::string frontFingerprint(const Json& front) {
  Json scrubbed = Json::array();
  for (const Json& point : front.items()) {
    Json p = Json::object();
    for (const auto& [key, value] : point.members()) {
      if (key != "cache_hit") p.set(key, value);
    }
    scrubbed.push(std::move(p));
  }
  return scrubbed.dump();
}

/// The router a soak boots: the soak's journal and cache directories.
RouterOptions soakRouter(const testkit::SoakOptions& soak, RouterOptions router) {
  router.journalRoot = soak.journalDir;
  router.cacheDir = soak.cacheDir;
  return router;
}

}  // namespace

ClusterSoak::ClusterSoak(testkit::SoakOptions soakOptions,
                         ClusterSoakOptions clusterOptions)
    : clusterOptions_(std::move(clusterOptions)),
      router_(soakRouter(soakOptions, clusterOptions_.router)) {
  options = std::move(soakOptions);
  target = [this](const std::string& line) {
    const std::lock_guard<std::mutex> lock(mutex_);
    lines_.fetch_add(1, std::memory_order_relaxed);
    return router_.handleLine(line);
  };
  mix = {.asyncSubmit = 60, .wait = 25, .syncSubmit = 10, .summary = true};
  testkit::CorpusOptions corpus;
  corpus.size = options.poolSize;
  pool = testkit::generateCorpus(options.seed, corpus);
  if (!clusterOptions_.killOneShard && !clusterOptions_.chaos) {
    monotoneCounters = {"cluster.jobs.submitted", "cluster.jobs.completed"};
  }

  if (clusterOptions_.killOneShard && router_.shardCount() > 0) {
    findings_.killedShard = static_cast<int>(options.seed) % router_.shardCount();
  }
  // The chaos schedule: each event fires once the routed line count
  // crosses its (seeded, deterministic) index.  Kinds rotate so every run
  // covers kill -9, SIGSTOP wedge and drain-under-load; the shard choice
  // comes from the same RNG stream.
  if (clusterOptions_.chaos) {
    std::mt19937_64 chaosRng(clusterOptions_.chaosSeed != 0
                                 ? clusterOptions_.chaosSeed
                                 : options.seed ^ 0x9E3779B97F4A7C15ULL);
    // Kill and drain lead the rotation: a wedge stalls the clients for a
    // full request timeout, so in a short run everything scheduled after
    // one may never fire.
    std::uint64_t at = 6 + chaosRng() % 6;
    for (int k = 0; k < clusterOptions_.chaosEvents; ++k) {
      ChaosEvent event;
      event.atRequest = at;
      event.kind = k % 3;
      event.pick = chaosRng();
      schedule_.push_back(event);
      at += 10 + chaosRng() % 10;
    }
  }
}

ClusterSoak::~ClusterSoak() {
  if (faults_.joinable()) faults_.join();
}

void ClusterSoak::begin(testkit::SoakReport& report) {
  start_ = Clock::now();
  if (findings_.killedShard >= 0) killPid_ = router_.shardPid(findings_.killedShard);
  // Chaos mode: start an async exploration before the clients so the
  // whole fault schedule plays out underneath a live session.
  if (clusterOptions_.chaos) {
    const Json ack = send(kExploreLine);
    if (ack.at("ok").asBool()) {
      exploreId_ = ack.at("explore_id").asUint64();
    } else {
      report.violations.push_back("chaos: explore submission failed: " + ack.dump());
    }
  }
  if (clusterOptions_.killOneShard || !schedule_.empty()) {
    faults_ = std::thread([this] { injectFaults(); });
  }
}

void ClusterSoak::injectFaults() {
  bool killPending = findings_.killedShard >= 0;
  const double killAt = options.durationSeconds * clusterOptions_.killAtFraction;
  std::size_t next = 0;
  while (killPending || (next < schedule_.size() &&
                         secondsSince(start_) < options.durationSeconds + 1.0)) {
    if (killPending && secondsSince(start_) >= killAt) {
      // SIGKILL off the router's mutex, so the shard may die mid-request
      // and the router finds out via EOF.  Only chaos events restart a
      // shard before this, so under chaos the kill reads the live pid at
      // a request boundary instead of the one begin() took.
      if (clusterOptions_.chaos) {
        const std::lock_guard<std::mutex> lock(mutex_);
        router_.killShard(findings_.killedShard);
      } else if (killPid_ > 0) {  // 0 and -1 would signal whole groups.
        ::kill(killPid_, SIGKILL);
      }
      killPending = false;
    } else if (next < schedule_.size() &&
               lines_.load(std::memory_order_relaxed) >= schedule_[next].atRequest) {
      // Under the router's mutex, so an event lands *between* requests --
      // a deterministic op boundary, not a random instant mid-write.
      const std::lock_guard<std::mutex> lock(mutex_);
      fire(schedule_[next++]);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
}

void ClusterSoak::fire(const ChaosEvent& event) {
  const int victim =
      static_cast<int>(event.pick % static_cast<std::uint64_t>(router_.shardCount()));
  if (event.kind == 0) {
    router_.killShard(victim);
    ++findings_.chaosKills;
    return;
  }
  if (event.kind == 2) {
    router_.wedgeShard(victim);
    ++findings_.chaosWedges;
    return;
  }
  const auto membership = [&](const char* op) {
    Json req = Json::object();
    req.set("op", op);
    req.set("shard", victim);
    try {
      return Json::parse(router_.handleLine(req.dump()));
    } catch (const service::JsonParseError&) {
      return Json();
    }
  };
  // A refused drain (last member standing, already drained) is a legal
  // no-op; an accepted one must re-admit cleanly.
  if (!membership("drain").at("ok").asBool()) return;
  ++findings_.chaosDrains;
  const Json added = membership("add");
  if (added.at("ok").asBool()) {
    ++findings_.chaosAdds;
  } else {
    faultViolations_.push_back("chaos: re-admitting drained shard " +
                               std::to_string(victim) + " failed: " + added.dump());
  }
}

void ClusterSoak::finish(testkit::SoakReport& report) {
  if (faults_.joinable()) faults_.join();
  report.violations.insert(report.violations.end(), faultViolations_.begin(),
                           faultViolations_.end());

  // Chaos exploration invariants: the session that lived through the
  // fault schedule must deliver its full front (no lost explore budget),
  // and that front must be byte-identical to a clean, equal-budget re-run
  // of the same request -- failover is invisible in the result.
  if (exploreId_ != 0) {
    Json resultReq = Json::object();
    resultReq.set("op", "explore_result");
    resultReq.set("explore_id", exploreId_);
    const Json stormy = send(resultReq.dump());
    const Json* stormyFront = stormy.find("front");
    if (!stormy.at("ok").asBool() || stormyFront == nullptr ||
        stormyFront->items().empty()) {
      report.violations.push_back(
          "chaos: the exploration lost its front to the fault schedule: " +
          stormy.dump());
    } else {
      Json rerun = Json::parse(kExploreLine);
      rerun.set("async", false);
      const Json clean = send(rerun.dump());
      const Json* cleanFront = clean.find("front");
      if (cleanFront == nullptr ||
          frontFingerprint(*stormyFront) != frontFingerprint(*cleanFront)) {
        report.violations.push_back(
            "chaos: the failed-over front diverged from a clean re-run of "
            "the same request");
      } else {
        findings_.exploreFrontMatched = true;
      }
    }
  }

  // Exactly-once at the cache-key level: whatever the cluster ran -- or a
  // dead shard owed and a reboot replayed -- each pool point is now in the
  // cache, so a fresh synchronous pass must be all hits and no reruns.
  for (const testkit::CorpusPoint& point : pool) {
    Json req = testkit::synthesizeRequest(point);
    req.set("summary", true);
    const Json response = send(req.dump());
    if (response.at("ok").asBool() && response.at("cache_hit").asBool()) {
      ++findings_.resubmittedHits;
    } else {
      report.violations.push_back("pool point \"" + point.label +
                                  "\" was not a cache hit after the soak: " +
                                  response.dump());
    }
  }

  Json health = send(R"({"op":"health"})");
  const auto fullyAlive = [](const Json& h) {
    return h.at("ok").asBool() && h.at("health").at("cluster").at("all_alive").asBool();
  };
  if (clusterOptions_.chaos) {
    // Late chaos faults can leave a member inside its (short) restart
    // backoff window; "stats" revives dead members, so probe until the
    // membership heals or the grace runs out.
    const auto healStart = Clock::now();
    while (!fullyAlive(health) && secondsSince(healStart) < 10.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      (void)send(R"({"op":"stats"})");
      health = send(R"({"op":"health"})");
    }
  }
  if (!fullyAlive(health)) {
    report.violations.push_back("cluster is not fully alive after the soak: " +
                                health.dump());
  }

  if (clusterOptions_.killOneShard && router_.restarts() == 0) {
    report.violations.push_back(
        "a shard was SIGKILLed but the router never restarted anything");
  }
  if (findings_.chaosKills + findings_.chaosWedges > 0 && router_.restarts() == 0) {
    report.violations.push_back(
        "chaos killed or wedged shards but the router never restarted any");
  }
  if (transportErrors > 0) {
    report.violations.push_back(std::to_string(transportErrors.load()) +
                                " unparseable response(s) from the router");
  }
  if (report.rejected > 0) {
    report.violations.push_back(
        std::to_string(report.rejected) +
        " request(s) answered {\"ok\":false}: shard failure leaked through");
  }

  Findings& f = findings_;
  f.restarts = router_.restarts();
  f.rerouted = router_.rerouted();
  f.jobFailovers = router_.jobFailovers();
  f.exploreFailovers = router_.exploreFailovers();
  Json& out = report.extra;
  out.set("killed_shard", f.killedShard);
  out.set("restarts", f.restarts);
  out.set("rerouted", f.rerouted);
  out.set("resubmitted_hits", f.resubmittedHits);
  out.set("chaos_kills", f.chaosKills);
  out.set("chaos_wedges", f.chaosWedges);
  out.set("chaos_drains", f.chaosDrains);
  out.set("chaos_adds", f.chaosAdds);
  out.set("job_failovers", f.jobFailovers);
  out.set("explore_failovers", f.exploreFailovers);
  out.set("explore_front_matched", f.exploreFrontMatched);
}

}  // namespace lo::cluster
