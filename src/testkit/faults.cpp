#include "testkit/faults.hpp"

#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

namespace lo::testkit {

namespace {

/// splitmix64: a few rounds of strong mixing, so consecutive operation
/// indices decide independently.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Sleep length of a kDeadlineOverrun firing [s].
constexpr double kOverrunSeconds = 0.05;

}  // namespace

const std::vector<FaultSite>& allFaultSites() {
  static const std::vector<FaultSite> kSites = {
      FaultSite::kEngineTransient, FaultSite::kStageTransient,
      FaultSite::kDeadlineOverrun, FaultSite::kCacheWrite,
      FaultSite::kResponseTruncate, FaultSite::kJournalTornWrite,
      FaultSite::kProcessKill};
  return kSites;
}

FaultPlanOptions FaultPlanOptions::basic(std::uint64_t seed) {
  FaultPlanOptions options;
  options.seed = seed;
  options.rate = 0.1;
  for (const FaultSite site : allFaultSites()) options.sites.insert(site);
  // The two crash sites are one-shot by nature (the first firing freezes
  // the journal), so the blanket rate would make every soak die in its
  // first seconds.  They stay opt-in via explicitOps / journal_torn etc.
  options.sites.erase(FaultSite::kJournalTornWrite);
  options.sites.erase(FaultSite::kProcessKill);
  return options;
}

FaultPlanOptions FaultPlanOptions::none(std::uint64_t seed) {
  FaultPlanOptions options;
  options.seed = seed;
  return options;
}

FaultPlanOptions FaultPlanOptions::journalTorn(std::uint64_t seed) {
  FaultPlanOptions options;
  options.seed = seed;
  options.rate = 0.25;
  options.sites.insert(FaultSite::kJournalTornWrite);
  return options;
}

FaultPlanOptions FaultPlanOptions::preset(const std::string& name,
                                          std::uint64_t seed) {
  if (name == "basic") return basic(seed);
  if (name == "none") return none(seed);
  if (name == "journal_torn_write") return journalTorn(seed);
  throw std::invalid_argument("unknown fault preset \"" + name +
                              "\" (basic, none, journal_torn_write)");
}

FaultPlan::FaultPlan(FaultPlanOptions options) : options_(std::move(options)) {}

bool FaultPlan::fires(FaultSite site, std::uint64_t opIndex) const {
  const auto explicitOps = options_.explicitOps.find(site);
  if (explicitOps != options_.explicitOps.end()) {
    for (const std::uint64_t op : explicitOps->second) {
      if (op == opIndex) return true;
    }
  }
  if (options_.rate <= 0.0 || options_.sites.count(site) == 0) return false;
  const std::uint64_t h = mix64(options_.seed ^ mix64(
      (static_cast<std::uint64_t>(site) << 56) ^ opIndex));
  // Top 53 bits -> uniform double in [0, 1).
  const double u = static_cast<double>(h >> 11) * 0x1p-53;
  return u < options_.rate;
}

bool FaultPlan::shouldFire(FaultSite site) {
  std::uint64_t opIndex = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    opIndex = next_[site]++;
  }
  if (!fires(site, opIndex)) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  ++fired_[site];
  events_.push_back({site, opIndex});
  return true;
}

std::uint64_t FaultPlan::operations(FaultSite site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = next_.find(site);
  return it == next_.end() ? 0 : it->second;
}

std::uint64_t FaultPlan::fired(FaultSite site) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = fired_.find(site);
  return it == fired_.end() ? 0 : it->second;
}

std::uint64_t FaultPlan::firedTotal() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::vector<FaultEvent> FaultPlan::events() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

void installSchedulerFaults(service::SchedulerOptions& options, FaultPlan& plan) {
  options.preRunHook = [&plan, upstream = std::move(options.preRunHook)](
                           const service::JobRequest& request, int attempt) {
    if (upstream) upstream(request, attempt);
    if (plan.shouldFire(FaultSite::kDeadlineOverrun)) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kOverrunSeconds));
    }
    if (plan.shouldFire(FaultSite::kEngineTransient)) {
      throw service::TransientError("injected fault: engine_transient");
    }
  };
  options.cache.diskWriteFault =
      [&plan, upstream = std::move(options.cache.diskWriteFault)](
          const std::string& key) {
        const bool upstreamFired = upstream && upstream(key);
        return plan.shouldFire(FaultSite::kCacheWrite) || upstreamFired;
      };
}

void installJournalFaults(service::SchedulerOptions& options, FaultPlan& plan) {
  if (options.journal.dir.empty()) {
    throw std::invalid_argument(
        "installJournalFaults: options.journal.dir is empty (journalling off)");
  }
  options.journal.tornWriteFault =
      [&plan, upstream = std::move(options.journal.tornWriteFault)]() {
        const bool upstreamFired = upstream && upstream();
        return plan.shouldFire(FaultSite::kJournalTornWrite) || upstreamFired;
      };
}

void installEngineFaults(core::EngineOptions& options, FaultPlan& plan) {
  options.hooks.onStageStart =
      [&plan, upstream = std::move(options.hooks.onStageStart)](
          core::EngineStage stage) {
        if (upstream) upstream(stage);
        if (plan.shouldFire(FaultSite::kStageTransient)) {
          throw service::TransientError(
              std::string("injected fault: stage_transient at ") +
              core::engineStageName(stage));
        }
      };
}

void installProtocolFaults(service::ServiceProtocol& protocol, FaultPlan& plan) {
  protocol.setResponseTransform([&plan](std::string line) {
    if (plan.shouldFire(FaultSite::kResponseTruncate)) {
      line.resize(line.size() / 2);
    }
    return line;
  });
}

}  // namespace lo::testkit
