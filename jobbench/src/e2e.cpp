// The untraced end-to-end run: spawn the serving processes, drive one
// closed-loop client over their pipes, check every reply.
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "jobbench.hpp"

namespace jobbench {

using lo::service::Json;

namespace {

/// A set-up takes a few ms and its time wanders with the host (process
/// creation, fresh directories), so a run takes the median of many.
constexpr int kSetupRepetitions = 101;
/// p90 needs at least ten samples beyond it.
constexpr int kMinTimedJobs = 100;
/// Peak RSS is read when the timed phase ends or after this many jobs,
/// whichever comes first: router_warm's servers grow with every job served,
/// so a fixed job count keeps the figure independent of throughput.
constexpr int kRssCheckpointJobs = 20000;
/// The CPU's speed is sampled between exchanges this often.
constexpr double kCalibrationPeriodSeconds = 0.05;
/// A window is scaled by the median kernel sample of itself and this many
/// windows on each side.  One ~1 ms sample is noisy on a busy host, and
/// scaling each job by a single sample carried that noise into the tail:
/// on verify_case4, where every job is a window of its own, the scaled p90
/// spread by 16% over ten seeds while the raw p90 spread by 6%.  Nine
/// samples span about half a second on router_warm and about two seconds
/// on verify_case4, shorter than the drift the scaling follows.
constexpr std::size_t kKernelNeighbours = 4;

std::vector<std::string> serverArgv(const RunConfig& c, const std::string& dir) {
  const std::string losynthd = c.toolsDir + "/losynthd";
  if (c.workload == Workload::kRouterWarm) {
    // No --journal-root: a journalled shard fsyncs every submission, and a
    // warm hit is short enough that the disk's latency, which other writers
    // on the host move several-fold, would set the job time.
    return {c.toolsDir + "/lorouter", "--worker", losynthd,
            "--shards", std::to_string(kRouterShards), "--threads", "1",
            "--cache-capacity", std::to_string(kRouterCacheCapacity),
            "--cache-dir", dir + "/cache"};
  }
  return {losynthd, "--threads", "1", "--journal", dir + "/journal",
          "--cache-dir", dir + "/cache"};
}

/// Reply-level checks shared by every request shape.
std::string outcomeProblem(const Json& outcome, const std::string& expectedKey,
                           bool expectHit) {
  if (!outcome.at("ok").asBool()) return "not ok: " + outcome.at("error").dump();
  if (outcome.at("state").asString() != "done") {
    return "state " + outcome.at("state").asString();
  }
  if (outcome.at("cache_key").asString() != expectedKey) {
    return "cache_key " + outcome.at("cache_key").asString() + " != derived " + expectedKey;
  }
  if (expectHit && !outcome.at("cache_hit").asBool()) return "warm job missed the cache";
  return "";
}

}  // namespace

E2eResult runEndToEnd(const RunConfig& config, double seconds) {
  namespace fs = std::filesystem;
  E2eResult r;
  RequestStream stream(config.workload, config.seed);
  const std::vector<std::string>& jobLines = stream.jobLines();
  const std::optional<GoldenSet> goldens =
      loadGoldens(config.goldenDir, config.workload, config.seed);
  r.haveGoldens = goldens.has_value();
  const auto goldenFor = [&](int index) -> const Golden* {
    if (!goldens || index >= static_cast<int>(goldens->jobs.size())) return nullptr;
    return &goldens->jobs[static_cast<std::size_t>(index)];
  };
  // Every problem is reported (the first few by reason); `failed` counts
  // jobs with at least one.
  const auto note = [&r](const std::string& why) {
    ++r.problems;
    if (r.failures.size() < 5) r.failures.push_back(why);
  };

  const std::string runDir = config.workDir + "/e2e-" + workloadName(config.workload) +
                             "-" + std::to_string(config.seed) + "-" +
                             std::to_string(::getpid());
  fs::remove_all(runDir);
  fs::create_directories(runDir);
  const std::string serverLog = runDir + "/servers.log";

  // The timed phase is cut into windows of kCalibrationPeriodSeconds.  At
  // each window boundary, while the servers are idle, the kernel samples
  // the CPU's speed.  Time spent checking replies, calibrating or setting
  // up is excluded from the windows.
  struct Window {
    double kernelSeconds = 0.0;
    double wall = 0.0;       ///< Raw wall time, checking excluded.
    double serverCpu = 0.0;  ///< Raw CPU seconds of the serving processes.
    std::size_t firstJob = 0;  ///< Index of its first latency in r.raw.latencyMs.
  };
  std::vector<Window> windows;

  // Set-up: spawn on fresh journal/store directories until the first ok
  // health reply.  The first set-up's instance serves the run.  The others
  // are spread over the timed phase, one at a window boundary while the
  // servers are idle: the host's speed drifts within seconds, so set-ups
  // bunched at the start would see another host than the jobs do.  Each is
  // scaled like the window it starts.
  std::vector<std::pair<double, std::size_t>> setups;  // Raw seconds, window.
  const auto setUp = [&] {
    const std::string dir = runDir + "/setup" + std::to_string(setups.size());
    const double t0 = nowSeconds();
    auto instance = std::make_unique<Server>(serverArgv(config, dir), serverLog, config.cpu);
    instance->send(R"({"op":"health"})");
    const Json health = Json::parse(instance->receive(60.0));
    const double t1 = nowSeconds();
    if (!health.at("ok").asBool()) throw std::runtime_error("health reply not ok");
    setups.emplace_back(t1 - t0, windows.empty() ? 0 : windows.size() - 1);
    return std::make_pair(std::move(instance), dir);
  };
  const auto extraSetUp = [&] {
    auto [instance, dir] = setUp();
    instance->stop();
    fs::remove_all(dir);
  };
  std::unique_ptr<Server> server = setUp().first;
  const std::vector<pid_t> pids = server->processTree();

  // router_warm: synthesize the pool (untimed) and record every result.
  std::vector<std::string> keys(jobLines.size());
  std::vector<std::string> poolResults(jobLines.size());
  if (config.workload == Workload::kRouterWarm) {
    for (std::size_t i = 0; i < jobLines.size(); ++i) keys[i] = cacheKeyOfLine(jobLines[i]);
    server->send(sweepLine(jobLines, /*summary=*/false));
    const Json reply = Json::parse(server->receive());
    const std::vector<Json>& outcomes = reply.at("outcomes").items();
    if (outcomes.size() != jobLines.size()) throw std::runtime_error("prefill sweep lost jobs");
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const int index = static_cast<int>(i);
      std::string why = outcomeProblem(outcomes[i], keys[i], false);
      if (why.empty()) {
        why = checkResult(outcomes[i].at("result"), keys[i], keys[i], goldenFor(index),
                          goldens ? &*goldens : nullptr);
        r.goldenChecked += goldenFor(index) != nullptr ? 1 : 0;
      }
      if (!why.empty()) note("pool job " + std::to_string(i) + ": " + why);
      poolResults[i] = outcomes[i].at("result").dump();
    }
  }

  const auto serverCpu = [&pids] {
    double total = 0.0;
    for (const pid_t pid : pids) total += cpuSeconds(pid);
    return total;
  };
  double windowStart = 0.0;
  double windowCpu = 0.0;
  double offClock = 0.0;  // Checking time inside the current window.
  const double phaseStart = nowSeconds();
  const double deadline = phaseStart + seconds;
  const auto closeWindow = [&] {
    const double t = nowSeconds();
    const double cpu = serverCpu();
    if (!windows.empty()) {
      windows.back().wall = t - windowStart - offClock;
      windows.back().serverCpu = cpu - windowCpu;
    }
    Window next;
    next.kernelSeconds = calibrationSeconds();
    next.firstJob = r.raw.latencyMs.size();
    windows.push_back(next);
    if (static_cast<double>(setups.size()) <
        kSetupRepetitions * std::min(1.0, (t - phaseStart) / seconds)) {
      extraSetUp();
    }
    windowCpu = cpu;
    offClock = 0.0;
    windowStart = nowSeconds();
  };
  closeWindow();
  while (nowSeconds() < deadline || static_cast<int>(r.raw.latencyMs.size()) < kMinTimedJobs) {
    std::optional<Exchange> ex = stream.next();
    if (!ex) break;
    std::vector<double> jobStart(ex->jobs.size());
    std::vector<std::string> replies;
    if (ex->kind == Exchange::Kind::kAsync) {
      std::vector<std::uint64_t> ids;
      for (std::size_t j = 0; j < ex->lines.size(); ++j) {
        jobStart[j] = nowSeconds();
        server->send(ex->lines[j]);
        replies.push_back(server->receive());
        ids.push_back(Json::parse(replies.back()).at("id").asUint64());
      }
      server->send(asyncWaitLine(ids));
    } else {
      std::fill(jobStart.begin(), jobStart.end(), nowSeconds());
      server->send(ex->lines.front());
    }
    replies.push_back(server->receive());
    const double done = nowSeconds();
    for (const double t : jobStart) r.raw.latencyMs.push_back((done - t) * 1e3);
    r.attempted += static_cast<int>(ex->jobs.size());
    ++r.exchanges;
    if (r.peakRssMb == 0.0 && r.attempted >= kRssCheckpointJobs) {
      for (const pid_t pid : pids) r.peakRssMb += peakRssMb(pid);
    }

    // Output check, off the clock like the calibration: excluded from
    // latency and throughput.
    std::vector<bool> bad(ex->jobs.size(), false);
    const auto fail = [&](std::size_t job, const std::string& why) {
      bad[job] = true;
      note(why);
    };
    const Json last = Json::parse(replies.back());
    if (config.workload != Workload::kRouterWarm) {
      const int index = ex->jobs.front();
      const std::string expected = cacheKeyOfLine(ex->lines.front());
      std::string why = outcomeProblem(last, expected, false);
      if (why.empty()) {
        why = checkResult(last.at("result"), last.at("cache_key").asString(), expected,
                          goldenFor(index), goldens ? &*goldens : nullptr);
        r.goldenChecked += goldenFor(index) != nullptr ? 1 : 0;
      }
      if (!why.empty()) fail(0, "job " + std::to_string(index) + ": " + why);
    } else {
      std::vector<Json> outcomes;
      if (ex->kind == Exchange::Kind::kSync) {
        outcomes.push_back(last);
      } else if (last.at("ok").asBool()) {
        outcomes = last.at("outcomes").items();
      }
      if (outcomes.size() != ex->jobs.size()) {
        bad.assign(bad.size(), true);
        note("exchange returned " + std::to_string(outcomes.size()) + " outcomes for " +
             std::to_string(ex->jobs.size()) + " jobs");
      }
      for (std::size_t j = 0; j + 1 < replies.size(); ++j) {  // async acks
        const Json ack = Json::parse(replies[j]);
        const std::string& key = keys[static_cast<std::size_t>(ex->jobs[j])];
        if (!ack.at("ok").asBool() || ack.at("cache_key").asString() != key) {
          fail(j, "async ack for pool job " + std::to_string(ex->jobs[j]) + " is wrong");
        }
      }
      for (std::size_t j = 0; j < outcomes.size() && j < ex->jobs.size(); ++j) {
        const auto index = static_cast<std::size_t>(ex->jobs[j]);
        std::string why = outcomeProblem(outcomes[j], keys[index], true);
        const Json* result = outcomes[j].find("result");
        if (why.empty() && ex->kind == Exchange::Kind::kSweep && result != nullptr) {
          why = "summary sweep carried a result body";
        }
        if (why.empty() && ex->kind != Exchange::Kind::kSweep &&
            (result == nullptr || result->dump() != poolResults[index])) {
          why = "hit is not byte-identical to the prefill result";
        }
        if (!why.empty()) fail(j, "pool job " + std::to_string(index) + ": " + why);
      }
    }
    r.failed += static_cast<int>(std::count(bad.begin(), bad.end(), true));
    offClock += nowSeconds() - done;
    if (nowSeconds() - windowStart >= kCalibrationPeriodSeconds) closeWindow();
  }
  closeWindow();
  if (r.peakRssMb == 0.0) {
    for (const pid_t pid : pids) r.peakRssMb += peakRssMb(pid);
  }
  // A phase cut short by a cold stream running out leaves set-ups to do.
  while (static_cast<int>(setups.size()) < kSetupRepetitions) extraSetUp();
  server->stop();

  // Scale each window by the median kernel sample of the windows around
  // it (see kKernelNeighbours).
  std::vector<double> speed(windows.size());
  std::vector<double> kernels;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    std::vector<double> near;
    const std::size_t from = i > kKernelNeighbours ? i - kKernelNeighbours : 0;
    for (std::size_t j = from; j < windows.size() && j <= i + kKernelNeighbours; ++j) {
      near.push_back(windows[j].kernelSeconds);
    }
    speed[i] = kReferenceCalibrationSeconds / median(near);
    kernels.push_back(windows[i].kernelSeconds);
  }
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const std::size_t end =
        i + 1 < windows.size() ? windows[i + 1].firstJob : r.raw.latencyMs.size();
    for (std::size_t j = windows[i].firstJob; j < end; ++j) {
      r.latencyMs.push_back(r.raw.latencyMs[j] * speed[i]);
    }
    r.timedSeconds += windows[i].wall * speed[i];
    r.raw.timedSeconds += windows[i].wall;
    r.serverCpuSeconds += windows[i].serverCpu * speed[i];
    r.raw.serverCpuSeconds += windows[i].serverCpu;
  }
  std::vector<double> setupTimes;
  std::vector<double> rawSetupTimes;
  for (const auto& [rawSeconds, window] : setups) {
    setupTimes.push_back(rawSeconds * speed[window]);
    rawSetupTimes.push_back(rawSeconds);
  }
  r.setupSeconds = median(setupTimes);
  r.raw.setupSeconds = median(rawSetupTimes);
  r.calibrationSeconds = median(kernels);
  fs::remove_all(runDir);
  return r;
}

}  // namespace jobbench
