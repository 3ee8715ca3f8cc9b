// jobbench: the job-level benchmark of the synthesis service.
//
// One closed-loop client drives losynthd / lorouter over their stdin/stdout
// pipes with seeded request streams (e2e.cpp); a separate traced run replays
// the same requests in-process through each layer's public calls and turns
// the spans into a per-layer ledger (traced.cpp).  README.md in this
// directory explains the workloads and metrics.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace jobbench {

// ---------------------------------------------------------------- workloads

enum class Workload { kSynthCold, kVerifyCase4, kRouterWarm };

[[nodiscard]] const char* workloadName(Workload w);
[[nodiscard]] std::optional<Workload> workloadFromName(const std::string& name);

/// Per-shard in-memory result tier of router_warm: smaller than a shard's
/// share of the pool, so the skewed draw also exercises disk-store hits.
inline constexpr int kRouterShards = 2;
inline constexpr int kRouterPoolSize = 48;
inline constexpr int kRouterCacheCapacity = 16;

/// One closed-loop exchange: its request lines go out one at a time, each
/// after the previous reply, and its final reply completes all of its jobs.
struct Exchange {
  enum class Kind {
    kSync,   ///< One synchronous synthesize.
    kSweep,  ///< One summary sweep; every entry completes with its reply.
    kAsync,  ///< Async synthesizes, then one multiplexed wait on their ids.
  };
  Kind kind = Kind::kSync;
  /// The request lines.  kAsync holds only the submissions: the wait line
  /// needs the ids the acks return (asyncWaitLine).
  std::vector<std::string> lines;
  /// Per job: the index of its line in RequestStream::jobLines().
  std::vector<int> jobs;
};

/// The seeded request stream of one workload: a pure function of
/// (workload, seed), so untraced and traced runs send the same bytes.
class RequestStream {
 public:
  RequestStream(Workload workload, std::uint64_t seed);

  /// Every distinct job line: the cold jobs in stream order, or the
  /// router_warm pool that set-up synthesizes.
  [[nodiscard]] const std::vector<std::string>& jobLines() const { return jobLines_; }
  /// The next exchange; nullopt once a cold stream runs out of points.
  [[nodiscard]] std::optional<Exchange> next();

 private:
  Workload workload_;
  std::vector<std::string> jobLines_;
  std::size_t cursor_ = 0;
  std::uint64_t rng_ = 0;  ///< splitmix64 state for router_warm draws.
  int round_ = 0;          ///< Position inside the fixed router_warm round.
  [[nodiscard]] int drawPoolIndex();
};

/// {"op":"wait","ids":[...]} over the ids an async exchange's acks returned.
[[nodiscard]] std::string asyncWaitLine(const std::vector<std::uint64_t>& ids);
/// A summary sweep over the given job lines (each a synthesize request).
[[nodiscard]] std::string sweepLine(const std::vector<std::string>& jobLines,
                                    bool summary);

/// The result-cache key a shard derives for a synthesize line
/// (service::parseJobRequest + ResultCache::keyFor, generic060 technology).
[[nodiscard]] std::string cacheKeyOfLine(const std::string& line);

// ------------------------------------------------------------- statistics

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.
[[nodiscard]] double percentile(std::vector<double> values, double p);
[[nodiscard]] double median(std::vector<double> values);

/// One traced interval.  `parent` indexes the enclosing span (-1 = root);
/// `job` groups every span of one exchange (and its side roots).
struct Span {
  const char* name = "";
  int parent = -1;
  int job = -1;
  double start = 0.0;  ///< Seconds on a steady clock.
  double end = 0.0;

  [[nodiscard]] double seconds() const { return end - start; }
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers.
[[nodiscard]] std::vector<double> selfTimes(const std::vector<Span>& spans);

/// The layer a span belongs to: its name up to the first '.'.
[[nodiscard]] std::string layerOf(const char* name);

// ------------------------------------------------------------ output check

/// Frozen per-job figures of one (workload, seed): Table-1 predicted and
/// measured rows, the convergence verdict and the post-layout verdict.  A
/// golden is matched to its job by index in the seeded stream.  It holds no
/// cache key: keys hash the cache schema version, which a change that moves
/// the figures within tolerance must bump.
struct Golden {
  bool converged = false;
  int postLayoutPass = -1;  ///< -1 = the tier did not run.
  std::vector<double> predicted;
  std::vector<double> measured;
};

struct GoldenSet {
  /// A figure matches when |got - golden| <= relTolerance * max(|got|,
  /// |golden|), or <= absFloor in the figure's own unit (near-zero figures
  /// such as offsets).  Stated in the file beside the figures.  2% is the
  /// explorer's spec tolerance: the bound a faster simulator that stops
  /// being bit-identical to the reference must stay within.
  double relTolerance = 0.02;
  double absFloor = 1e-3;
  std::vector<Golden> jobs;  ///< Indexed like RequestStream::jobLines().
};

[[nodiscard]] std::string goldenPath(const std::string& dir, Workload w,
                                     std::uint64_t seed);
[[nodiscard]] std::optional<GoldenSet> loadGoldens(const std::string& dir,
                                                   Workload w, std::uint64_t seed);
void writeGoldens(const std::string& path, Workload w, std::uint64_t seed,
                  const GoldenSet& set);
[[nodiscard]] Golden goldenOf(const lo::service::Json& result);

/// Check one done job's serialized result: finite figures, the cache key
/// derived live for its request, and -- with a golden -- every figure
/// within tolerance and the same verdicts.  Returns "" when it passes, else
/// the first reason.
[[nodiscard]] std::string checkResult(const lo::service::Json& result,
                                      const std::string& cacheKey,
                                      const std::string& expectedKey,
                                      const Golden* golden, const GoldenSet* set);

/// The explorer's feasibility rule on a serialized result: converged,
/// measured GBW and phase margin within (1 - 2%) of the request's spec,
/// and the post-layout verdict where that tier ran.
[[nodiscard]] bool meetsSpec(const lo::service::Json& request,
                             const lo::service::Json& result);

// --------------------------------------------------------- server processes

/// A server (losynthd or lorouter) behind its stdin/stdout pipes.  The
/// destructor stops it; stop() also reaps any shard children it left.
class Server {
 public:
  /// Starts `argv` pinned to `cpu` (inherited by any child it forks); -1
  /// leaves the affinity alone.
  Server(const std::vector<std::string>& argv, const std::string& stderrPath, int cpu);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void send(const std::string& line);
  /// One response line; throws on EOF or after `timeoutSeconds`.
  [[nodiscard]] std::string receive(double timeoutSeconds = 170.0);
  /// The server pid plus its live child processes (a router's shards).
  [[nodiscard]] std::vector<pid_t> processTree() const;
  /// Close stdin, wait for the exit (SIGKILL after a grace period), then
  /// make sure no child process of it outlives it.
  void stop();

 private:
  pid_t pid_ = -1;
  int in_ = -1;
  int out_ = -1;
  std::string buffer_;
};

/// Wall time of a fixed floating-point kernel (~1 ms): the speed of the
/// CPU it runs on right now.
[[nodiscard]] double calibrationSeconds();

/// The CPUs this process may run on, fastest first, judged by the
/// calibration kernel on each; empty when affinity is unavailable.  The
/// vCPUs of a shared VM differ in speed (a busy SMT sibling on the host),
/// and the scheduler would otherwise move the servers between them from run
/// to run.  `report` lists every CPU's calibration time.
[[nodiscard]] std::vector<int> rankCpus(std::string& report);

/// Restrict the calling thread (and what it forks later) to `cpu`.
/// Returns false when the kernel refuses.
bool pinTo(int cpu);

/// utime + stime of a live process, in seconds (/proc/<pid>/stat).
[[nodiscard]] double cpuSeconds(pid_t pid);
/// Peak resident set (VmHWM) of a live process, in MiB.
[[nodiscard]] double peakRssMb(pid_t pid);
[[nodiscard]] double nowSeconds();

// ---------------------------------------------------------------- the runs

struct RunConfig {
  Workload workload = Workload::kSynthCold;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  std::string toolsDir;   ///< Holds losynthd and lorouter.
  std::string workDir;    ///< Scratch root for journals and stores.
  std::string goldenDir;
  /// The fastest CPU.  The client, every serving process (a router and its
  /// shards too) and the traced replay all run on it; -1 when affinity is
  /// unavailable.  Processes spread over several vCPUs of a shared VM wait
  /// on cross-CPU wake-ups and on vCPUs that drift in speed independently,
  /// which no single kernel sample tracks.
  int cpu = -1;
};

/// End-to-end times are reported at a reference CPU speed: each raw time
/// is scaled by (this / the median calibration kernel time sampled around
/// it).  The vCPUs of a shared VM drift in speed by tens of percent within
/// minutes; the kernel, sampled on the CPU every process of the run is
/// pinned to, tracks that drift, so scaled figures compare across runs and
/// commits.
inline constexpr double kReferenceCalibrationSeconds = 1e-3;

struct E2eResult {
  // Reference-CPU figures.
  double setupSeconds = 0.0;  ///< Median over the set-up repetitions.
  std::vector<double> latencyMs;
  double timedSeconds = 0.0;  ///< Timed-phase wall time minus the client's own checking.
  double serverCpuSeconds = 0.0;
  /// The same figures unscaled.
  struct {
    double setupSeconds = 0.0;
    std::vector<double> latencyMs;
    double timedSeconds = 0.0;
    double serverCpuSeconds = 0.0;
  } raw;
  double peakRssMb = 0.0;
  /// Median calibrationSeconds() over the timed phase's samples.
  double calibrationSeconds = 0.0;
  int attempted = 0;
  int failed = 0;           ///< Jobs not ok/done, or failing the output check.
  int problems = 0;         ///< Every failed check, prefill included.
  int exchanges = 0;        ///< Exchanges completed in the timed phase.
  int goldenChecked = 0;    ///< Jobs compared against goldens.
  bool haveGoldens = false;
  std::vector<std::string> failures;  ///< First few reasons.
};

[[nodiscard]] E2eResult runEndToEnd(const RunConfig& config, double seconds);

/// Per-layer metrics (name -> value) plus the ledger text.
struct TracedResult {
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> ledger;
  int attempted = 0;
  int failed = 0;
  /// Why the ledger cannot be trusted: a metric without samples or not
  /// finite, or self times covering under 90% of traced job time.  Any
  /// entry makes the run incorrect.
  std::vector<std::string> defects;
};

[[nodiscard]] TracedResult runTraced(const RunConfig& config, int exchanges,
                                     double untracedP50Ms);

/// Run the first `count` job lines of (workload, seed) in-process and
/// freeze their figures as goldens.
void generateGoldens(const RunConfig& config, int count);

}  // namespace jobbench
