// jobbench: the benchmark program.  Normally started through run.sh,
// which builds the servers first:
//
//   jobbench --tools DIR --work DIR --goldens DIR
//            --workload synth_cold|verify_case4|router_warm --seed N
//            --seconds S --trace 0|1
//   jobbench ... --workload W --seed N --write-goldens COUNT
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1 an
// untraced run over part of the time (for the outside-the-layers gap), then
// the per-layer ledger of the traced replay.  The last stdout line is the
// JSON result.
#include <signal.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>

#include "jobbench.hpp"

namespace {

using namespace jobbench;

/// Share of --seconds the traced run spends on its untraced phase; the
/// replay of those same requests (which re-runs verification analysis by
/// analysis) takes most of the rest.
constexpr double kTracedUntracedShare = 0.3;

std::string unitOf(const std::string& name) {
  const auto ends = [&](const char* suffix) {
    const std::string s(suffix);
    return name.size() >= s.size() && name.compare(name.size() - s.size(), s.size(), s) == 0;
  };
  if (ends("_us")) return "us";
  if (ends("_ms")) return "ms";
  if (ends("_kb")) return "KiB";
  if (ends("_ratio") || ends("_coverage") || name.rfind("share.", 0) == 0 ||
      name.rfind("ledger.", 0) == 0) {
    return "ratio";
  }
  return "count";
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// JSON has no NaN or infinity: such a metric prints as 0 and makes the
/// run incorrect.
void printResult(bool correct, int attempted, int failed,
                 const std::vector<std::pair<std::string, double>>& metrics,
                 const std::vector<std::string>& units) {
  for (const auto& [name, value] : metrics) {
    if (!std::isfinite(value)) {
      std::printf("metric %s is not finite\n", name.c_str());
      correct = false;
    }
  }
  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    out += (i ? ", \"" : "\"") + metrics[i].first + "\": {\"value\": " +
           number(metrics[i].second) + ", \"unit\": \"" + units[i] + "\"}";
  }
  std::printf("%s}}\n", out.c_str());
}

void printChecks(const RunConfig& c, const E2eResult& r) {
  if (r.haveGoldens) {
    std::printf("output check: %d job(s) compared against the goldens of seed %llu\n",
                r.goldenChecked, static_cast<unsigned long long>(c.seed));
  } else {
    std::printf("output check: seed %llu has no goldens; only state, cache keys and finite "
                "figures were checked\n",
                static_cast<unsigned long long>(c.seed));
  }
  for (const std::string& why : r.failures) std::printf("check failed: %s\n", why.c_str());
}

int run(int argc, char** argv) {
  RunConfig c;
  int trace = 0;
  int writeGoldens = 0;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      const std::optional<Workload> w = workloadFromName(value);
      if (!w) throw std::invalid_argument("unknown workload " + value);
      c.workload = *w;
      haveWorkload = true;
    } else if (arg == "--seed") {
      c.seed = std::stoull(value);
    } else if (arg == "--seconds") {
      c.seconds = std::stod(value);
    } else if (arg == "--trace") {
      trace = std::stoi(value);
    } else if (arg == "--tools") {
      c.toolsDir = value;
    } else if (arg == "--work") {
      c.workDir = value;
    } else if (arg == "--goldens") {
      c.goldenDir = value;
    } else if (arg == "--write-goldens") {
      writeGoldens = std::stoi(value);
    } else {
      throw std::invalid_argument("unknown flag " + arg);
    }
  }
  if (!haveWorkload || c.toolsDir.empty() || c.workDir.empty() || c.goldenDir.empty() ||
      !(c.seconds > 0)) {
    throw std::invalid_argument("need --workload, --tools, --work, --goldens, --seconds > 0");
  }
  if (writeGoldens > 0) {
    generateGoldens(c, writeGoldens);
    std::printf("wrote %s\n", goldenPath(c.goldenDir, c.workload, c.seed).c_str());
    return 0;
  }

  // Every process of the run -- the client, the servers it forks and the
  // traced replay -- inherits this pin.
  std::string calibration;
  const std::vector<int> ranked = rankCpus(calibration);
  if (!ranked.empty()) {
    c.cpu = ranked.front();
    if (!pinTo(c.cpu)) throw std::runtime_error("cannot pin the client");
  }
  std::printf("cpu: every process on %d (calibration: %s)\n", c.cpu,
              calibration.empty() ? "affinity unavailable" : calibration.c_str());

  if (trace == 0) {
    const E2eResult r = runEndToEnd(c, c.seconds);
    const double p50 = percentile(r.latencyMs, 50);
    const double p90 = percentile(r.latencyMs, 90);
    const std::size_t beyond =
        static_cast<std::size_t>(std::count_if(r.latencyMs.begin(), r.latencyMs.end(),
                                               [&](double v) { return v > p90; }));
    std::printf("%s seed %llu: %zu jobs in %d exchanges over %.2f s; p50 %.4f ms, p90 %.4f "
                "ms (%zu samples beyond p90)\n",
                workloadName(c.workload), static_cast<unsigned long long>(c.seed),
                r.latencyMs.size(), r.exchanges, r.timedSeconds, p50, p90, beyond);
    const double jobs = static_cast<double>(r.latencyMs.size());
    std::printf("calibration kernel %.4f ms median; raw (unscaled): setup %.4f ms, p50 %.4f ms, "
                "p90 %.4f ms, %.2f jobs/s, %.3f server cpu ms/job\n",
                r.calibrationSeconds * 1e3, r.raw.setupSeconds * 1e3,
                percentile(r.raw.latencyMs, 50), percentile(r.raw.latencyMs, 90),
                jobs / r.raw.timedSeconds, r.raw.serverCpuSeconds * 1e3 / jobs);
    printChecks(c, r);
    const std::vector<std::pair<std::string, double>> metrics = {
        {"setup_s", r.setupSeconds},
        {"job_p50_ms", p50},
        {"job_p90_ms", p90},
        {"jobs_per_s", jobs / r.timedSeconds},
        {"cpu_ms_per_job", r.serverCpuSeconds * 1e3 / jobs},
        {"peak_rss_mb", r.peakRssMb},
        {"ok_ratio", static_cast<double>(r.attempted - r.failed) / r.attempted},
    };
    printResult(r.problems == 0, r.attempted, r.failed, metrics,
                {"s", "ms", "ms", "1/s", "ms", "MB", "ratio"});
    return 0;
  }

  const E2eResult r = runEndToEnd(c, c.seconds * kTracedUntracedShare);
  printChecks(c, r);
  // The replay's spans are raw times, so the gap compares against the raw p50.
  const TracedResult t = runTraced(c, r.exchanges, percentile(r.raw.latencyMs, 50));
  for (const std::string& line : t.ledger) std::printf("%s\n", line.c_str());
  std::vector<std::string> units;
  for (const auto& [name, value] : t.metrics) {
    std::printf("  %-28s %14.6g %s\n", name.c_str(), value, unitOf(name).c_str());
    units.push_back(unitOf(name));
  }
  for (const std::string& why : t.defects) std::printf("ledger defect: %s\n", why.c_str());
  printResult(r.problems == 0 && t.failed == 0 && t.defects.empty(), r.attempted + t.attempted,
              r.failed + t.failed, t.metrics, units);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "jobbench: %s\n", e.what());
    return 1;
  }
}
