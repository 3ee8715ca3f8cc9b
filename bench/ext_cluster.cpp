// Cluster scaling snapshot: lorouter's shard-routed fan-out against a
// single losynthd.
//
// Measurements, written to BENCH_cluster.json under examples/out/:
//   * cold scaling: a sweep of distinct, never-computed points through a
//     1-shard and an N-shard cluster (one worker thread per shard, fresh
//     points for every repetition), best of 5 -- the acceptance gate
//     demands >= 2x at 4 shards, because only cold points make the shards
//     do real work.  The ring's own ceiling rides along: cold points over
//     the most any one shard owns, so a slow run can be told apart from
//     an unbalanced ring;
//   * warm router overhead: a duplicate-heavy summary sweep over a small
//     pool of already-cached points through the same two widths -- the
//     router's JSON, pipe and cache-hit cost per job, reported without a
//     gate;
//   * routing overhead: microseconds per job for the router's key
//     derivation + ring lookup (the only per-job serial work the router
//     adds on the request path);
//   * peer-fill: a fresh N-shard cluster pointed at an already-warm
//     shared store must answer the whole sweep with zero cache misses --
//     every shard's first touch of a key promotes from the shared disk
//     store instead of recomputing (second acceptance gate).
//
// Needs a losynthd binary: --losynthd=PATH or the LOSYNTHD_BIN env var
// (CI passes the freshly built one).  Without it the cluster phases are
// skipped and the exit is 0, so the micro benchmarks stay usable alone.
//
// CI runs: ext_cluster --losynthd=... --cluster-jobs=600
//          --benchmark_filter=none
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "layout/writers.hpp"
#include "service/cache.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "tech/technology.hpp"

namespace {

using namespace lo;
using service::Json;

std::string gLosynthd;   // --losynthd= or LOSYNTHD_BIN.
int gJobs = 2000;        // Sweep size; CI passes a smaller one.
int gPool = 8;           // Distinct design points behind those jobs.
int gShards = 4;         // Cluster width for the scaling measurement.
constexpr int kColdPoints = 32;  // Distinct cold points per timed repetition.
constexpr int kReps = 5;

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// A case-1 folded-cascode point at `gbwMHz`: cheap to synthesise, and
/// points that differ only in GBW are distinct under the cache key.
Json case1Entry(double gbwMHz) {
  Json spec = Json::object();
  spec.set("gbw", gbwMHz * 1e6);
  Json job = Json::object();
  job.set("case", 1);
  job.set("spec", std::move(spec));
  return job;
}

/// The pool entry for slot `i`: 71 MHz and up.
Json poolEntry(int i) { return case1Entry(71.0 + i); }

/// Cold point `k` of timed repetition `slot`: between 40 and 64 MHz, never
/// in the pool and never shared between repetitions.  Slots interleave
/// over the same GBW range, so every repetition at every width
/// synthesises an equally hard set.
Json coldEntry(int slot, int k) {
  return case1Entry(40.0 + 24.0 / (kColdPoints * 2 * kReps) * (k * 2 * kReps + slot));
}

/// A summary sweep over `entries`.  summary:true keeps the responses small
/// -- results stay addressable by cache_key -- so the measurement is job
/// turnaround, not result-body serialisation.
std::string sweepOf(Json entries) {
  Json request = Json::object();
  request.set("op", "sweep");
  request.set("summary", true);
  request.set("jobs", std::move(entries));
  return request.dump();
}

/// A duplicate-heavy summary sweep: `jobs` entries drawn round-robin from
/// the pool.
std::string sweepLine(int jobs) {
  Json arr = Json::array();
  for (int i = 0; i < jobs; ++i) arr.push(poolEntry(i % gPool));
  return sweepOf(std::move(arr));
}

/// One sweep of kColdPoints never-computed points per repetition at cluster
/// width index `width` (0 or 1).
std::vector<std::string> coldSweepLines(int width) {
  std::vector<std::string> lines;
  for (int rep = 0; rep < kReps; ++rep) {
    Json arr = Json::array();
    for (int k = 0; k < kColdPoints; ++k) arr.push(coldEntry(width * kReps + rep, k));
    lines.push_back(sweepOf(std::move(arr)));
  }
  return lines;
}

/// Routers run in the cluster's shipping configuration: shared disk store
/// (peer-fill) plus per-shard write-ahead journals (crash recovery).  Each
/// worker runs one scheduler thread, so N shards compute on at most N
/// cores and the cold speedup measures sharding, not intra-shard
/// threading.  `tag` keeps each phase's journals separate.
cluster::RouterOptions routerOptions(int shards, const std::string& cacheDir,
                                     const std::string& journalTag) {
  cluster::RouterOptions options;
  options.workerArgv = {gLosynthd, "--threads", "1"};
  options.shards = shards;
  options.cacheDir = cacheDir;
  options.journalRoot = cacheDir + "_journal_" + journalTag;
  options.requestTimeoutSeconds = 600.0;
  return options;
}

struct Throughput {
  int shards = 0;
  double bestSeconds = 0.0;
  double jobsPerSecond = 0.0;
};

/// Best of the repetitions (one sweep each, `jobs` entries) through a
/// fresh 1-shard and a fresh gShards-shard cluster; lines[w] holds width
/// w's sweeps.  Repetitions alternate between the two widths, so host
/// speed drifting over the run hits both alike.  On the warm sweep,
/// repetition 1 peer-fills each shard's memory tier from the shared
/// store; the rest are pure warm hits, which is what best-of captures.
std::array<Throughput, 2> measureThroughput(
    const std::string& cacheDir, const std::string& tag, int jobs,
    const std::array<std::vector<std::string>, 2>& lines) {
  std::array<Throughput, 2> t{{{1, 1e18, 0.0}, {gShards, 1e18, 0.0}}};
  std::array<cluster::ClusterRouter, 2> routers{
      cluster::ClusterRouter(routerOptions(1, cacheDir, tag + "1")),
      cluster::ClusterRouter(routerOptions(gShards, cacheDir, tag + std::to_string(gShards)))};
  for (std::size_t rep = 0; rep < lines[0].size(); ++rep) {
    for (std::size_t w = 0; w < t.size(); ++w) {
      const auto start = std::chrono::steady_clock::now();
      const std::string response = routers[w].handleLine(lines[w][rep]);
      const double seconds = secondsSince(start);
      const Json parsed = Json::parse(response);
      if (!parsed.at("ok").asBool() ||
          parsed.at("outcomes").items().size() != static_cast<std::size_t>(jobs)) {
        std::fprintf(stderr, "ext_cluster: %s sweep failed at %d shard(s)\n",
                     tag.c_str(), t[w].shards);
        std::exit(1);
      }
      t[w].bestSeconds = std::min(t[w].bestSeconds, seconds);
    }
  }
  for (Throughput& w : t) w.jobsPerSecond = static_cast<double>(jobs) / w.bestSeconds;
  return t;
}

/// The shard `ring` gives sweep entry `entry`, as the router derives it:
/// the canonical cache key, then the consistent-hash lookup.
int homeShard(const cluster::ShardRing& ring, const Json& entry) {
  static const std::string techPrint =
      service::ResultCache::techFingerprint(tech::Technology::generic060());
  const service::JobRequest job = service::parseJobRequest(entry);
  return ring.ownerOf(
      service::ResultCache::keyFor(job.options, job.specs, job.corner, techPrint));
}

/// Microseconds per job of router-side serial key work: canonical cache
/// key derivation plus the consistent-hash lookup.
double measureRoutingMicros() {
  cluster::ShardRing ring(gShards);
  std::vector<Json> entries;
  for (int i = 0; i < gPool; ++i) entries.push_back(poolEntry(i));
  const int reps = 20000;
  int sink = 0;
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) {
    sink += homeShard(ring, entries[static_cast<std::size_t>(i % gPool)]);
  }
  benchmark::DoNotOptimize(sink);
  return secondsSince(start) / reps * 1e6;
}

/// The cold gate's compute-bound ceiling at gShards: the timed cold points
/// over the most the ring gives any one shard.
double ringCeiling() {
  const cluster::ShardRing ring(gShards);
  std::vector<int> owned(static_cast<std::size_t>(gShards), 0);
  for (int rep = 0; rep < kReps; ++rep) {
    for (int k = 0; k < kColdPoints; ++k) {
      ++owned[static_cast<std::size_t>(homeShard(ring, coldEntry(kReps + rep, k)))];
    }
  }
  return static_cast<double>(kReps * kColdPoints) /
         *std::max_element(owned.begin(), owned.end());
}

struct PeerFill {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t diskHits = 0;
};

/// A fresh N-shard cluster on the warm store: every key's first touch on
/// each shard must promote from disk (hit + disk_hit), never recompute.
PeerFill measurePeerFill(const std::string& cacheDir, const std::string& line) {
  cluster::ClusterRouter router(routerOptions(gShards, cacheDir, "peerfill"));
  const Json sweep = Json::parse(router.handleLine(line));
  if (!sweep.at("ok").asBool()) {
    std::fprintf(stderr, "ext_cluster: peer-fill sweep failed\n");
    std::exit(1);
  }
  const Json stats = Json::parse(router.handleLine(R"({"op":"stats"})"));
  const Json& cache = stats.at("stats").at("cluster").at("cache");
  PeerFill p;
  p.hits = cache.at("hits").asUint64();
  p.misses = cache.at("misses").asUint64();
  p.diskHits = cache.at("disk_hits").asUint64();
  return p;
}

/// Seconds from SIGKILLing the shard that owns a batch of in-flight jobs
/// to every job answering through one multiplexed wait: death detection,
/// respawn, journal replay, and the answers themselves.  The store is
/// warm, so this isolates the recovery machinery from synthesis cost.
double measureFailoverSeconds(const std::string& cacheDir) {
  cluster::ClusterRouter router(routerOptions(2, cacheDir, "failover"));
  Json ids = Json::array();
  int victim = -1;
  for (int i = 0; i < gPool; ++i) {
    Json job = poolEntry(i);
    job.set("op", "synthesize");
    job.set("async", true);
    job.set("summary", true);
    const Json ack = Json::parse(router.handleLine(job.dump()));
    if (!ack.at("ok").asBool()) {
      std::fprintf(stderr, "ext_cluster: failover submission failed\n");
      std::exit(1);
    }
    if (i == 0) victim = ack.at("shard").asInt(-1);
    ids.push(ack.at("id").asUint64());
  }
  router.killShard(victim);
  Json wait = Json::object();
  wait.set("op", "wait");
  wait.set("summary", true);
  wait.set("ids", std::move(ids));
  const auto start = std::chrono::steady_clock::now();
  const Json done = Json::parse(router.handleLine(wait.dump()));
  const double seconds = secondsSince(start);
  if (!done.at("ok").asBool() ||
      done.at("outcomes").items().size() != static_cast<std::size_t>(gPool)) {
    std::fprintf(stderr, "ext_cluster: multiplexed wait failed after the kill\n");
    std::exit(1);
  }
  for (const Json& outcome : done.at("outcomes").items()) {
    if (!outcome.at("ok").asBool()) {
      std::fprintf(stderr, "ext_cluster: a job was lost across the failover\n");
      std::exit(1);
    }
  }
  return seconds;
}

/// Seconds for "drain" to take the shard owning in-flight work out of the
/// ring: waiting out its jobs, re-pinning, and shutting the worker down.
/// Afterwards every id must still resolve -- the zero-loss gate.
double measureDrainSeconds(const std::string& cacheDir) {
  cluster::ClusterRouter router(routerOptions(3, cacheDir, "drainbench"));
  Json ids = Json::array();
  int victim = -1;
  for (int i = 0; i < gPool; ++i) {
    Json job = poolEntry(i);
    job.set("op", "synthesize");
    job.set("async", true);
    job.set("summary", true);
    const Json ack = Json::parse(router.handleLine(job.dump()));
    if (!ack.at("ok").asBool()) {
      std::fprintf(stderr, "ext_cluster: drain submission failed\n");
      std::exit(1);
    }
    if (i == 0) victim = ack.at("shard").asInt(-1);
    ids.push(ack.at("id").asUint64());
  }
  Json drain = Json::object();
  drain.set("op", "drain");
  drain.set("shard", victim);
  const auto start = std::chrono::steady_clock::now();
  const Json drained = Json::parse(router.handleLine(drain.dump()));
  const double seconds = secondsSince(start);
  if (!drained.at("ok").asBool()) {
    std::fprintf(stderr, "ext_cluster: drain under load failed\n");
    std::exit(1);
  }
  Json wait = Json::object();
  wait.set("op", "wait");
  wait.set("summary", true);
  wait.set("ids", std::move(ids));
  const Json done = Json::parse(router.handleLine(wait.dump()));
  if (!done.at("ok").asBool()) {
    std::fprintf(stderr, "ext_cluster: wait failed after the drain\n");
    std::exit(1);
  }
  for (const Json& outcome : done.at("outcomes").items()) {
    if (!outcome.at("ok").asBool()) {
      std::fprintf(stderr, "ext_cluster: a job was lost across the drain\n");
      std::exit(1);
    }
  }
  return seconds;
}

int runSnapshot() {
  if (gLosynthd.empty() || !std::filesystem::exists(gLosynthd)) {
    std::printf("ext_cluster: SKIP cluster phases (no losynthd; pass "
                "--losynthd=PATH or set LOSYNTHD_BIN)\n");
    return 0;
  }

  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("ext_cluster_" + std::to_string(::getpid()));
  std::filesystem::remove_all(scratch);
  const std::string store = (scratch / "store").string();
  const std::string line = sweepLine(gJobs);

  // Warm the shared store once through a 1-shard cluster: after this,
  // every pool point is on disk and no later phase recomputes anything.
  {
    cluster::ClusterRouter warmer(routerOptions(1, store, "warm"));
    const Json warm = Json::parse(warmer.handleLine(sweepLine(gPool)));
    if (!warm.at("ok").asBool()) {
      std::fprintf(stderr, "ext_cluster: warm phase failed\n");
      return 1;
    }
  }

  const auto cold =
      measureThroughput(store, "cold", kColdPoints, {coldSweepLines(0), coldSweepLines(1)});
  const double speedup = cold[1].jobsPerSecond / cold[0].jobsPerSecond;
  const double ceiling = ringCeiling();
  const std::vector<std::string> warmLines(kReps, line);
  const auto warm = measureThroughput(store, "warm", gJobs, {warmLines, warmLines});
  const double routingMicros = measureRoutingMicros();
  const PeerFill peer = measurePeerFill(store, line);
  const double failoverSeconds = measureFailoverSeconds(store);
  const double drainSeconds = measureDrainSeconds(store);
  std::filesystem::remove_all(scratch);

  // The speedup gate is bounded by the machine: N single-threaded shards
  // can only compute concurrently on N cores.  Demand the full 2x on any
  // box with 4+ cores (multi-core CI included -- even narrower than the
  // cluster, four cores leave enough parallel slack for 2x over one shard)
  // and degrade only on genuinely narrow boxes.  Both the measured and
  // required numbers land in the JSON so the trajectory is comparable
  // across hosts.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  const double requiredSpeedup =
      cores >= static_cast<unsigned>(gShards) || cores >= 4 ? 2.0
      : cores >= 2                                          ? 1.75
                                                            : 1.0;

  const auto printRows = [](const std::array<Throughput, 2>& widths) {
    std::printf("%8s %12s %14s\n", "shards", "best s", "jobs/s");
    for (const Throughput& t : widths) {
      std::printf("%8d %12.3f %14.0f\n", t.shards, t.bestSeconds, t.jobsPerSecond);
    }
  };
  std::printf("\n=== ext_cluster: %d distinct cold points per sweep, best of %d ===\n",
              kColdPoints, kReps);
  printRows(cold);
  std::printf("speedup: %.2fx at %d shards (ring ceiling %.2fx)\n", speedup, gShards,
              ceiling);
  std::printf("\n--- router overhead: %d warm duplicate-heavy jobs over %d pool "
              "points (no gate) ---\n",
              gJobs, gPool);
  printRows(warm);
  std::printf("routing overhead: %.2f us/job (key + ring, serial in the router)\n",
              routingMicros);
  std::printf("peer-fill: hits=%llu disk_hits=%llu misses=%llu\n",
              static_cast<unsigned long long>(peer.hits),
              static_cast<unsigned long long>(peer.diskHits),
              static_cast<unsigned long long>(peer.misses));
  std::printf("failover recovery: %.3f s (kill -9 to all %d jobs answered)\n",
              failoverSeconds, gPool);
  std::printf("drain under load: %.3f s (shard out of the ring, zero loss)\n",
              drainSeconds);

  std::ostringstream out;
  out.precision(6);
  const auto rows = [&out](const std::array<Throughput, 2>& widths) {
    for (const Throughput& t : widths) {
      out << "    {\"shards\": " << t.shards << ", \"best_s\": " << t.bestSeconds
          << ", \"jobs_per_s\": " << t.jobsPerSecond << "}"
          << (&t == &widths[0] ? ",\n" : "\n  ],\n");
    }
  };
  out << "{\n  \"bench\": \"ext_cluster\",\n  \"cold_points\": " << kColdPoints
      << ",\n  \"shards\": " << gShards << ",\n  \"cold_samples\": [\n";
  rows(cold);
  out << "  \"speedup\": " << speedup << ",\n  \"ring_ceiling\": " << ceiling
      << ",\n  \"required_speedup\": " << requiredSpeedup
      << ",\n  \"hardware_concurrency\": " << cores
      << ",\n  \"warm_jobs\": " << gJobs << ",\n  \"warm_pool\": " << gPool
      << ",\n  \"warm_samples\": [\n";
  rows(warm);
  out << "  \"routing_us_per_job\": " << routingMicros
      << ",\n  \"peer_fill\": {\"hits\": " << peer.hits
      << ", \"disk_hits\": " << peer.diskHits << ", \"misses\": " << peer.misses
      << "},\n  \"failover_recovery_s\": " << failoverSeconds
      << ",\n  \"drain_s\": " << drainSeconds << "\n}\n";
  const std::string path = layout::outputPath("BENCH_cluster.json");
  layout::writeFile(path, out.str());
  std::printf("wrote %s\n", path.c_str());

  int failures = 0;
  if (speedup < requiredSpeedup) {
    std::printf("ACCEPTANCE FAIL: %.2fx aggregate cold throughput at %d shards "
                "(>= %.1fx required on %u core(s); the ring allows %.2fx)\n",
                speedup, gShards, requiredSpeedup, cores, ceiling);
    ++failures;
  }
  if (peer.misses != 0) {
    std::printf("ACCEPTANCE FAIL: %llu cache miss(es) against a fully warm "
                "shared store -- peer-fill recomputed work\n",
                static_cast<unsigned long long>(peer.misses));
    ++failures;
  }
  if (failures == 0) {
    std::printf("acceptance: %.2fx at %d shards (>= %.1fx on %u core(s)), "
                "zero misses on peer-fill\n",
                speedup, gShards, requiredSpeedup, cores);
  }
  return failures;
}

void BM_RingLookup(benchmark::State& state) {
  cluster::ShardRing ring(static_cast<int>(state.range(0)));
  int i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.ownerOf("0123456789abcd" + std::to_string(i++ & 1023)));
  }
}
BENCHMARK(BM_RingLookup)->Arg(2)->Arg(4)->Arg(16);

void BM_RoutingKey(benchmark::State& state) {
  const tech::Technology technology = tech::Technology::generic060();
  const std::string techPrint = service::ResultCache::techFingerprint(technology);
  const Json entry = poolEntry(0);
  for (auto _ : state) {
    const service::JobRequest job = service::parseJobRequest(entry);
    benchmark::DoNotOptimize(service::ResultCache::keyFor(
        job.options, job.specs, job.corner, techPrint));
  }
}
BENCHMARK(BM_RoutingKey)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
#ifdef LOSYNTHD_BIN_PATH
  gLosynthd = LOSYNTHD_BIN_PATH;  // Baked-in sibling build; overridable below.
#endif
  if (const char* env = std::getenv("LOSYNTHD_BIN")) gLosynthd = env;
  // Strip our own flags before google-benchmark sees (and rejects) them.
  int outArgc = 0;
  for (int i = 0; i < argc; ++i) {
    const auto eat = [&](const char* flag, auto apply) {
      if (std::strncmp(argv[i], flag, std::strlen(flag)) == 0) {
        apply(argv[i] + std::strlen(flag));
        return true;
      }
      return false;
    };
    if (eat("--losynthd=", [](const char* v) { gLosynthd = v; })) continue;
    if (eat("--cluster-jobs=", [](const char* v) { gJobs = std::atoi(v); })) continue;
    if (eat("--cluster-pool=", [](const char* v) { gPool = std::atoi(v); })) continue;
    if (eat("--cluster-shards=", [](const char* v) { gShards = std::atoi(v); })) continue;
    argv[outArgc++] = argv[i];
  }
  argc = outArgc;
  if (gJobs <= 0 || gPool <= 0 || gShards <= 0) {
    std::fprintf(stderr, "bad --cluster-jobs/--cluster-pool/--cluster-shards\n");
    return 2;
  }

  const int failures = runSnapshot();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return failures == 0 ? 0 : 1;
}
