// Extension benchmark: the synthesis job service under duplicate-heavy
// load (the sweep-with-overlapping-inputs pattern that motivates the
// content-addressed cache).
//
// A 16-job batch with 4 distinct design points (each repeated 4x) runs
// three ways:
//   cold  -- empty cache; single-flight coalescing still collapses the
//            in-flight duplicates, so each distinct point runs once;
//   warm  -- same scheduler again; every job is a cache hit;
//   disk  -- a fresh scheduler pointed at the cold run's on-disk store;
//            every job is a disk hit.
// The checks: warm throughput must be >= 10x cold, and every run must
// return byte-identical results (FNV hash over the canonical JSON).
//
// Worker scaling: an 11-job grid of distinct (topology, GBW, corner)
// points -- the folded cascode at 40/65/90 MHz x tt/ss/ff plus the
// two-stage at 20/30 MHz -- runs through runBatch on a fresh scheduler
// at 1 worker and at hardware concurrency.  The speed-up is reported,
// not gated (a container may expose one core); the two runs must agree
// bit for bit.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "service/scheduler.hpp"
#include "service/serialize.hpp"

namespace {

using namespace lo;
using namespace lo::service;

std::vector<JobRequest> makeBatch() {
  std::vector<JobRequest> unique;
  {
    JobRequest job;
    job.label = "ota_40MHz_tt";
    job.specs.gbw = 40e6;
    unique.push_back(job);
  }
  {
    JobRequest job;
    job.label = "ota_65MHz_tt";
    unique.push_back(job);
  }
  {
    JobRequest job;
    job.label = "ota_65MHz_ss";
    job.corner = tech::ProcessCorner::kSlow;
    unique.push_back(job);
  }
  {
    JobRequest job;
    job.label = "two_stage_30MHz_tt";
    job.options.topology = core::kTwoStageTopologyName;
    job.specs.gbw = 30e6;
    unique.push_back(job);
  }
  std::vector<JobRequest> batch;
  for (int repeat = 0; repeat < 4; ++repeat) {
    for (const JobRequest& job : unique) batch.push_back(job);
  }
  return batch;  // 16 jobs, 4 distinct.
}

std::vector<std::uint64_t> resultHashes(const std::vector<JobStatus>& statuses) {
  std::vector<std::uint64_t> hashes;
  hashes.reserve(statuses.size());
  for (const JobStatus& status : statuses) {
    hashes.push_back(status.state == JobState::kDone
                         ? ResultCache::fnv1a(toJson(status.result).dump())
                         : 0);
  }
  return hashes;
}

double secondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::vector<JobRequest> makeScalingGrid() {
  std::vector<JobRequest> jobs;
  for (double gbwMhz : {40.0, 65.0, 90.0}) {
    for (tech::ProcessCorner corner :
         {tech::ProcessCorner::kTypical, tech::ProcessCorner::kSlow,
          tech::ProcessCorner::kFast}) {
      JobRequest job;
      job.label = std::string("ota_") + std::to_string(static_cast<int>(gbwMhz)) +
                  "MHz_" + tech::cornerName(corner);
      job.specs.gbw = gbwMhz * 1e6;
      job.corner = corner;
      jobs.push_back(job);
    }
  }
  for (double gbwMhz : {20.0, 30.0}) {
    JobRequest job;
    job.label = std::string("two_stage_") + std::to_string(static_cast<int>(gbwMhz)) +
                "MHz_tt";
    job.options.topology = core::kTwoStageTopologyName;
    job.specs.gbw = gbwMhz * 1e6;
    jobs.push_back(job);
  }
  return jobs;
}

bool bitIdentical(const std::vector<JobStatus>& a, const std::vector<JobStatus>& b) {
  if (a.size() != b.size() || resultHashes(a) != resultHashes(b)) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].state != b[i].state || a[i].label != b[i].label) return false;
    if (std::memcmp(&a[i].result.measured, &b[i].result.measured,
                    sizeof(sizing::OtaPerformance)) != 0) {
      return false;
    }
  }
  return true;
}

bool runServiceStudy() {
  const tech::Technology technology = tech::Technology::generic060();
  const std::vector<JobRequest> batch = makeBatch();

  const std::filesystem::path diskDir =
      std::filesystem::temp_directory_path() / "lo_ext_service_cache";
  std::filesystem::remove_all(diskDir);

  SchedulerOptions options;
  options.cache.diskDir = diskDir.string();

  std::printf("\n=== Synthesis service: duplicate-heavy batch (%zu jobs, %zu distinct) ===\n",
              batch.size(), batch.size() / 4);

  const auto timeBatch = [&](JobScheduler& scheduler, std::vector<JobStatus>& out) {
    const auto start = std::chrono::steady_clock::now();
    out = scheduler.runBatch(batch);
    return secondsSince(start);
  };

  std::vector<JobStatus> cold, warm, disk;
  double tCold = 0, tWarm = 0, tDisk = 0;
  MetricsSnapshot coldMetrics;
  CacheStats coldCache;
  {
    JobScheduler scheduler(technology, options);
    tCold = timeBatch(scheduler, cold);
    coldMetrics = scheduler.metrics();
    coldCache = scheduler.cacheStats();
    tWarm = timeBatch(scheduler, warm);
  }
  {
    JobScheduler scheduler(technology, options);  // Fresh memory, same disk.
    tDisk = timeBatch(scheduler, disk);
  }

  bool ok = true;
  for (const auto* phase : {&cold, &warm, &disk}) {
    for (const JobStatus& status : *phase) {
      if (status.state != JobState::kDone) {
        std::printf("JOB FAILED: %s: %s\n", status.label.c_str(),
                    status.error.c_str());
        ok = false;
      }
    }
  }

  const auto coldHashes = resultHashes(cold);
  const bool warmIdentical = coldHashes == resultHashes(warm);
  const bool diskIdentical = coldHashes == resultHashes(disk);
  const double speedup = tWarm > 0 ? tCold / tWarm : 0;

  std::printf("cold:  %.3f s  (%zu engine runs, %llu coalesced duplicates)\n",
              tCold, cold.size() - static_cast<std::size_t>(coldMetrics.coalesced) -
                         static_cast<std::size_t>(coldCache.hits),
              static_cast<unsigned long long>(coldMetrics.coalesced));
  std::printf("warm:  %.5f s  -> speed-up %.0fx (require >= 10x)\n", tWarm, speedup);
  std::printf("disk:  %.5f s  (fresh process, on-disk store)\n", tDisk);
  std::printf("warm results byte-identical to cold: %s\n",
              warmIdentical ? "yes" : "NO -- BUG");
  std::printf("disk results byte-identical to cold: %s\n",
              diskIdentical ? "yes" : "NO -- BUG");

  std::filesystem::remove_all(diskDir);
  return ok && warmIdentical && diskIdentical && speedup >= 10.0;
}

bool runScalingStudy() {
  const tech::Technology technology = tech::Technology::generic060();
  const std::vector<JobRequest> jobs = makeScalingGrid();
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());

  std::printf("\n=== Worker scaling: %zu distinct jobs, %u cores ===\n", jobs.size(),
              cores);

  // A fresh scheduler per run: an empty cache, so both runs compute.
  const auto timeRun = [&](unsigned threads, std::vector<JobStatus>& out) {
    SchedulerOptions options;
    options.threads = static_cast<int>(threads);
    JobScheduler scheduler(technology, options);
    const auto start = std::chrono::steady_clock::now();
    out = scheduler.runBatch(jobs);
    return secondsSince(start);
  };

  std::vector<JobStatus> serial, threaded;
  const double tSerial = timeRun(1, serial);
  const double tThreaded = timeRun(cores, threaded);

  bool ok = true;
  std::printf("%-22s %8s %10s %10s %10s %8s\n", "job", "calls", "GBW MHz", "PM deg",
              "power mW", "conv");
  for (const JobStatus& s : serial) {
    if (s.state != JobState::kDone) {
      std::printf("%-22s FAILED: %s\n", s.label.c_str(), s.error.c_str());
      ok = false;
      continue;
    }
    std::printf("%-22s %8d %10.1f %10.1f %10.2f %8s\n", s.label.c_str(),
                s.result.layoutCalls, s.result.measured.gbwHz / 1e6,
                s.result.measured.phaseMarginDeg, s.result.measured.powerMw,
                s.result.parasiticConverged ? "yes" : "n/a");
  }

  const bool deterministic = bitIdentical(serial, threaded);
  std::printf("\n1 thread: %.2f s, %u threads: %.2f s  (speed-up %.1fx)\n", tSerial,
              cores, tThreaded, tSerial / tThreaded);
  std::printf("deterministic across thread counts: %s\n",
              deterministic ? "yes (bit-identical)" : "NO -- BUG");
  return ok && deterministic;
}

void BM_WarmBatch(benchmark::State& state) {
  const tech::Technology technology = tech::Technology::generic060();
  const std::vector<JobRequest> batch = makeBatch();
  JobScheduler scheduler(technology, SchedulerOptions{});
  (void)scheduler.runBatch(batch);  // Prime the cache once.
  for (auto _ : state) {
    const auto statuses = scheduler.runBatch(batch);
    benchmark::DoNotOptimize(statuses);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch.size()));
}
BENCHMARK(BM_WarmBatch)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_SweepThreads(benchmark::State& state) {
  const tech::Technology technology = tech::Technology::generic060();
  std::vector<JobRequest> jobs = makeScalingGrid();
  for (JobRequest& job : jobs) job.bypassCache = true;  // Every pass computes.
  SchedulerOptions options;
  options.threads = static_cast<int>(state.range(0));
  JobScheduler scheduler(technology, options);
  for (auto _ : state) {
    const auto statuses = scheduler.runBatch(jobs);
    benchmark::DoNotOptimize(statuses);
  }
}
BENCHMARK(BM_SweepThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  const bool cacheOk = runServiceStudy();
  const bool scalingOk = runScalingStudy();
  const bool ok = cacheOk && scalingOk;
  std::printf("ext_service acceptance: %s\n", ok ? "PASS" : "FAIL");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
