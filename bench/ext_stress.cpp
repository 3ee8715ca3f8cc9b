// Extension benchmark: the service stack under concurrent fault-injected
// load (the lostress soak as an acceptance study).
//
// Two short soaks run over the in-process daemon, both with 4 client
// threads on a 2-worker scheduler:
//   clean    -- no fault plan; every invariant must hold and no transport
//               errors may occur;
//   faulted  -- the `basic` plan (every site at 10%): transient engine
//               errors, deadline overruns, cache-store write failures and
//               truncated responses all fire, and the invariants must
//               STILL hold -- no lost jobs, monotone stats, coherent cache
//               accounting, bounded drain.
// Both soaks cap each client at a fixed request count, so the workload --
// and the clean soak's request total -- is reproducible from the seed.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "tech/technology.hpp"
#include "testkit/soak.hpp"

namespace {

using namespace lo;

testkit::SoakOptions baseOptions() {
  testkit::SoakOptions options;
  options.seed = 1;
  options.clients = 4;
  options.schedulerThreads = 2;
  options.durationSeconds = 30.0;  // Generous; the request cap ends the soak.
  options.maxRequestsPerClient = 40;
  return options;
}

void printReport(const char* name, const testkit::SoakReport& report,
                 const testkit::ServiceSoak& soak) {
  std::uint64_t faults = 0;
  for (const auto& [site, count] : soak.findings().faultsFired) faults += count;
  std::printf("%-8s %5llu requests in %.2fs (%.0f req/s), %llu jobs, "
              "%llu faults, %llu transport errors, %zu violation(s)\n",
              name, static_cast<unsigned long long>(report.requests),
              report.elapsedSeconds,
              report.elapsedSeconds > 0 ? static_cast<double>(report.requests) /
                                              report.elapsedSeconds
                                        : 0.0,
              static_cast<unsigned long long>(report.trackedJobs),
              static_cast<unsigned long long>(faults),
              static_cast<unsigned long long>(report.transportErrors),
              report.violations.size());
  for (const std::string& v : report.violations) {
    std::printf("  VIOLATION: %s\n", v.c_str());
  }
}

bool runStressStudy() {
  const tech::Technology technology = tech::Technology::generic060();

  std::printf("\n=== Service soak: 4 clients x 40 requests, 2 workers ===\n");

  testkit::SoakOptions clean = baseOptions();
  clean.faults = testkit::FaultPlanOptions::none(clean.seed);
  testkit::ServiceSoak cleanSoak(technology, clean);
  const testkit::SoakReport cleanReport = testkit::runSoak(cleanSoak);
  printReport("clean:", cleanReport, cleanSoak);

  testkit::SoakOptions faulted = baseOptions();
  faulted.faults = testkit::FaultPlanOptions::basic(faulted.seed);
  testkit::ServiceSoak faultedSoak(technology, faulted);
  const testkit::SoakReport faultedReport = testkit::runSoak(faultedSoak);
  printReport("faulted:", faultedReport, faultedSoak);

  const std::uint64_t expected =
      static_cast<std::uint64_t>(clean.clients) *
      static_cast<std::uint64_t>(clean.maxRequestsPerClient);
  const bool requestsExact = cleanReport.requests == expected &&
                             faultedReport.requests == expected;
  std::printf("request totals reproducible from the cap (%llu each): %s\n",
              static_cast<unsigned long long>(expected),
              requestsExact ? "yes" : "NO -- BUG");
  std::printf("faults actually fired under the basic plan: %s\n",
              faultedSoak.findings().faultsFired.empty() ? "NO -- BUG" : "yes");

  const bool ok = cleanReport.ok() && cleanReport.transportErrors == 0 &&
                  faultedReport.ok() && !faultedSoak.findings().faultsFired.empty() &&
                  requestsExact;
  std::printf("ext_stress acceptance: %s\n", ok ? "PASS" : "FAIL");
  return ok;
}

void BM_FaultDecision(benchmark::State& state) {
  const testkit::FaultPlan plan(testkit::FaultPlanOptions::basic(1));
  std::uint64_t op = 0, fired = 0;
  for (auto _ : state) {
    fired += plan.fires(testkit::FaultSite::kEngineTransient, op++) ? 1 : 0;
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultDecision);

}  // namespace

int main(int argc, char** argv) {
  const bool ok = runStressStudy();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return ok ? 0 : 1;
}
