// lostress: concurrent soak of the synthesis service under a fault plan.
//
// Spins up an in-process daemon (the exact JobScheduler + ServiceProtocol
// objects losynthd serves) and hammers it with N client threads speaking
// the line protocol -- async submissions over a small pool of distinct
// design points, waits, cancellations, stats -- while a seeded fault plan
// injects transient engine errors, deadline overruns, cache-store write
// failures and truncated responses.  At the end the invariants from
// testkit/soak.hpp are checked: no lost jobs, stats monotonicity, cache
// hit accounting, bounded drain.  Exit 0 on a clean run, 1 on any
// violation; the full report prints as JSON on stdout.
//
//   $ lostress --seed 1 --faults basic --duration 10s --clients 4
//
// Flags:
//   --seed N             fault-plan and workload seed (default 1)
//   --faults NAME        plan preset: "basic" (recoverable sites @ 10%),
//                        "journal_torn_write" (torn journal appends) or "none"
//   --duration T         wall-clock soak length, e.g. 10s or 2.5 (seconds)
//   --clients N          client threads (default 4)
//   --threads N          scheduler workers (default 2)
//   --pool N             distinct design points clients draw from (default 12)
//   --max-requests N     per-client request cap, 0 = duration-only (default 0)
//   --cache-dir PATH     on-disk result store for the run
//   --journal-dir PATH   write-ahead job journal; arms the crash sites and
//                        adds a kill -> restart -> replay recovery phase
//   --tech PATH          technology file (default: built-in generic060)
//
// Cluster mode (--worker): instead of an in-process daemon, the same soak
// boots a ClusterRouter over real losynthd child shards and drives it
// through the line protocol; cluster/soak.hpp lists its invariants.
//
//   $ lostress --worker ./losynthd --shards 3 --kill-shard --duration 5s
//              --journal-dir /tmp/ls/journal --cache-dir /tmp/ls/cache
//
//   --worker PATH        losynthd binary: switches to cluster mode
//   --shards N           worker shards behind the router (default 2)
//   --kill-shard         SIGKILL one shard mid-soak; the run must absorb it
//                        (requires --journal-dir for the replay)
//   --chaos SEED         seeded chaos schedule: kill -9, SIGSTOP wedges and
//                        drain/re-add events at deterministic request
//                        indices, with an async exploration riding through
//                        the storm (its front must match a clean re-run
//                        byte for byte); SEED 0 derives one from --seed
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/soak.hpp"
#include "tech/technology.hpp"
#include "testkit/soak.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seed N] [--faults basic|none|journal_torn_write]\n"
               "          [--duration T] [--clients N] [--threads N] [--pool N]\n"
               "          [--max-requests N] [--cache-dir PATH]\n"
               "          [--journal-dir PATH] [--tech PATH]\n"
               "          [--worker LOSYNTHD [--shards N] [--kill-shard]\n"
               "           [--chaos SEED]]\n",
               argv0);
}

/// "10s", "2.5s" or a bare number of seconds.
double parseDuration(const std::string& text) {
  std::string digits = text;
  if (!digits.empty() && digits.back() == 's') digits.pop_back();
  char* end = nullptr;
  const double v = std::strtod(digits.c_str(), &end);
  if (end == digits.c_str() || *end != '\0' || v < 0.0) {
    std::fprintf(stderr, "lostress: bad duration \"%s\"\n", text.c_str());
    std::exit(2);
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lo;

  testkit::SoakOptions options;
  std::string faultsName = "none";
  std::string techPath;
  std::string workerBin;
  int shards = 2;
  bool killShard = false;
  bool chaos = false;
  std::uint64_t chaosSeed = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seed") options.seed = std::stoull(value());
    else if (arg == "--faults") faultsName = value();
    else if (arg == "--duration") options.durationSeconds = parseDuration(value());
    else if (arg == "--clients") options.clients = std::stoi(value());
    else if (arg == "--threads") options.schedulerThreads = std::stoi(value());
    else if (arg == "--pool") options.poolSize = std::stoi(value());
    else if (arg == "--max-requests") options.maxRequestsPerClient = std::stoi(value());
    else if (arg == "--cache-dir") options.cacheDir = value();
    else if (arg == "--journal-dir") options.journalDir = value();
    else if (arg == "--tech") techPath = value();
    else if (arg == "--worker") workerBin = value();
    else if (arg == "--shards") shards = std::stoi(value());
    else if (arg == "--kill-shard") killShard = true;
    else if (arg == "--chaos") {
      chaos = true;
      chaosSeed = std::stoull(value());
    }
    else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }

  try {
    const auto u = [](std::uint64_t v) { return static_cast<unsigned long long>(v); };
    testkit::SoakReport report;
    const auto summarize = [&] {
      std::printf("%s\n", report.toJson().dump().c_str());
      std::fprintf(stderr,
                   "lostress: %llu requests from %d clients in %.2fs, %llu jobs "
                   "tracked (%llu rejected), %zu violation(s)\n",
                   u(report.requests), options.clients, report.elapsedSeconds,
                   u(report.trackedJobs), u(report.rejected), report.violations.size());
    };
    if (!workerBin.empty()) {
      cluster::ClusterSoakOptions clusterOptions;
      clusterOptions.killOneShard = killShard;
      clusterOptions.chaos = chaos;
      clusterOptions.chaosSeed = chaosSeed;
      clusterOptions.router.shards = shards;
      if (chaos) {
        // Wedged shards stall a request for the full timeout; keep the
        // chaos run snappy and let backoff jitter follow the chaos seed.
        clusterOptions.router.requestTimeoutSeconds = 3.0;
        if (chaosSeed != 0) clusterOptions.router.backoffJitterSeed = chaosSeed;
      }
      clusterOptions.router.workerArgv = {workerBin, "--threads",
                                          std::to_string(options.schedulerThreads)};
      if (!techPath.empty()) {
        clusterOptions.router.technology = tech::Technology::fromFile(techPath);
        clusterOptions.router.workerArgv.push_back("--tech");
        clusterOptions.router.workerArgv.push_back(techPath);
      }

      cluster::ClusterSoak mode(options, std::move(clusterOptions));
      report = testkit::runSoak(mode);
      summarize();
      std::fprintf(stderr,
                   "lostress: cluster: %d shard(s), %llu restart(s), %llu rerouted\n",
                   shards, u(mode.findings().restarts), u(mode.findings().rerouted));
    } else {
      options.faults = testkit::FaultPlanOptions::preset(faultsName, options.seed);
      const tech::Technology technology = techPath.empty()
                                              ? tech::Technology::generic060()
                                              : tech::Technology::fromFile(techPath);
      testkit::ServiceSoak mode(technology, options);
      report = testkit::runSoak(mode);
      summarize();
      const testkit::ServiceSoak::Findings& found = mode.findings();
      std::uint64_t faults = 0;
      for (const auto& [site, n] : found.faultsFired) faults += n;
      std::fprintf(stderr, "lostress: %llu shed, %llu faults fired\n",
                   u(found.metrics.shed), u(faults));
      const testkit::RecoveryReport& recovery = found.recovery;
      if (recovery.ran) {
        std::fprintf(stderr,
                     "lostress: recovery: crashed=%d replayed=%llu pending=%llu "
                     "cache_served=%llu re_run=%llu compactions=%llu torn_tail=%d\n",
                     recovery.crashed ? 1 : 0, u(recovery.replayedRecords),
                     u(recovery.pendingAtBoot), u(recovery.servedFromCache),
                     u(recovery.reRun), u(recovery.compactions), recovery.tornTail ? 1 : 0);
      }
    }
    for (const std::string& v : report.violations) {
      std::fprintf(stderr, "lostress: VIOLATION: %s\n", v.c_str());
    }
    return report.ok() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lostress: fatal: %s\n", e.what());
    return 1;
  }
}
