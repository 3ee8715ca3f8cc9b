#include <cmath>
#include <stdexcept>

#include "core/topology.hpp"
#include "jobbench.hpp"
#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/serialize.hpp"
#include "testkit/generators.hpp"

namespace jobbench {

namespace core = lo::core;
using lo::service::Json;

namespace {

// Cold streams are far longer than any run consumes at today's job cost,
// so a several-fold faster engine still sees only distinct points.
constexpr int kSynthColdStreamJobs = 4000;
constexpr int kVerifyCase4StreamJobs = 1500;

// router_warm's fixed round: sixteen synchronous synthesizes, one summary
// sweep of four and one async group of four.  Of its 24 jobs two thirds
// are synchronous, so the job median falls well inside the synchronous
// mode (one fsync'd submission each) and p90 inside the batch shapes,
// never on a boundary between request shapes, where it would jump.
constexpr int kRoundExchanges = 18;
constexpr int kSyncPerRound = 16;
constexpr int kBatchJobs = 4;
// Draw skew: P(rank r) proportional to 1 / (r + 1)^0.8 -- the hottest
// point takes 13% of draws, the top five 41%.
constexpr double kZipfExponent = 0.8;

std::string synthesizeLine(const lo::testkit::CorpusPoint& p, bool postLayoutVerify) {
  Json request = Json::object();
  request.set("op", "synthesize");
  request.set("label", p.label);
  request.set("topology", p.options.topology);
  request.set("case", lo::core::sizingCaseName(p.options.sizingCase));
  request.set("spec", lo::service::toJson(p.specs));
  request.set("corner", lo::tech::cornerName(p.corner));
  if (postLayoutVerify) request.set("post_layout_verify", true);
  return request.dump();
}

/// Point `i` of a stream whose shape is fixed by index -- topologies
/// alternate, cases cycle 1,1,2,2,3,4 -- while its spec and corner (one in
/// four non-typical) come from the seed.  Every prefix of such a stream has
/// the same mix of shapes, whose latencies differ several-fold, so the job
/// median does not move with the mix a seed or a run length happens to get.
lo::testkit::CorpusPoint fixedShapePoint(lo::testkit::SpecGen& gen, int i,
                                         const std::string& prefix) {
  static const core::SizingCase cases[] = {core::SizingCase::kCase1, core::SizingCase::kCase1,
                                           core::SizingCase::kCase2, core::SizingCase::kCase2,
                                           core::SizingCase::kCase3, core::SizingCase::kCase4};
  lo::testkit::CorpusPoint p;
  p.options.topology =
      i % 2 == 0 ? core::kFoldedCascodeOtaTopologyName : core::kTwoStageTopologyName;
  p.options.sizingCase = cases[(i / 2) % 6];
  p.specs = gen.specs(p.options.topology);
  p.corner = gen.corner();
  p.label = prefix + std::to_string(i) + ":" + p.options.topology + "/" +
            core::sizingCaseName(p.options.sizingCase) + "/" + lo::tech::cornerName(p.corner);
  return p;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

const char* workloadName(Workload w) {
  switch (w) {
    case Workload::kSynthCold: return "synth_cold";
    case Workload::kVerifyCase4: return "verify_case4";
    case Workload::kRouterWarm: return "router_warm";
  }
  return "?";
}

std::optional<Workload> workloadFromName(const std::string& name) {
  for (Workload w : {Workload::kSynthCold, Workload::kVerifyCase4, Workload::kRouterWarm}) {
    if (name == workloadName(w)) return w;
  }
  return std::nullopt;
}

RequestStream::RequestStream(Workload workload, std::uint64_t seed)
    : workload_(workload), rng_(seed ^ 0x6A6F6262656E6368ULL) {
  lo::testkit::SpecGen gen(seed);
  switch (workload) {
    case Workload::kSynthCold:
      for (int i = 0; i < kSynthColdStreamJobs; ++i) {
        jobLines_.push_back(synthesizeLine(fixedShapePoint(gen, i, "corpus"), false));
      }
      return;
    case Workload::kVerifyCase4: {
      lo::testkit::CorpusOptions options;
      options.size = kVerifyCase4StreamJobs;
      options.cases = {lo::core::SizingCase::kCase4};
      // Both topologies, folded cascode weighted 4:1.  Their post-layout
      // jobs form two modes (traced: ~210 vs ~135 ms) with a sparse low
      // tail of folded jobs between them.  At 2:1 the job median fell in
      // that tail and moved by 15% between runs of one seed; at 4:1 it
      // sits near the folded mode's 37th percentile, where jobs are dense.
      options.topologies = {lo::core::kFoldedCascodeOtaTopologyName,
                            lo::core::kFoldedCascodeOtaTopologyName,
                            lo::core::kFoldedCascodeOtaTopologyName,
                            lo::core::kFoldedCascodeOtaTopologyName,
                            lo::core::kTwoStageTopologyName};
      for (const lo::testkit::CorpusPoint& p : lo::testkit::generateCorpus(seed, options)) {
        jobLines_.push_back(synthesizeLine(p, true));
      }
      return;
    }
    case Workload::kRouterWarm:
      // The skewed draw ranks pool indices, so the hottest points have the
      // same topology and case (hence about the same result size) on every
      // seed, and the job median does not move with which shapes a seed
      // happens to make hot.
      for (int i = 0; i < kRouterPoolSize; ++i) {
        jobLines_.push_back(synthesizeLine(fixedShapePoint(gen, i, "pool"), false));
      }
      return;
  }
}

int RequestStream::drawPoolIndex() {
  static const std::vector<double> cdf = [] {
    std::vector<double> c(kRouterPoolSize);
    double total = 0.0;
    for (int r = 0; r < kRouterPoolSize; ++r) {
      total += 1.0 / std::pow(r + 1.0, kZipfExponent);
      c[static_cast<std::size_t>(r)] = total;
    }
    for (double& v : c) v /= total;
    return c;
  }();
  const double u = static_cast<double>(splitmix64(rng_) >> 11) * 0x1.0p-53;
  for (int r = 0; r < kRouterPoolSize; ++r) {
    if (u < cdf[static_cast<std::size_t>(r)]) return r;
  }
  return kRouterPoolSize - 1;
}

std::optional<Exchange> RequestStream::next() {
  Exchange ex;
  if (workload_ != Workload::kRouterWarm) {
    if (cursor_ >= jobLines_.size()) return std::nullopt;
    ex.jobs.push_back(static_cast<int>(cursor_));
    ex.lines.push_back(jobLines_[cursor_++]);
    return ex;
  }
  const int slot = round_++ % kRoundExchanges;
  if (slot < kSyncPerRound) {
    const int index = drawPoolIndex();
    ex.jobs.push_back(index);
    ex.lines.push_back(jobLines_[static_cast<std::size_t>(index)]);
    return ex;
  }
  std::vector<std::string> entries;
  for (int j = 0; j < kBatchJobs; ++j) {
    const int index = drawPoolIndex();
    ex.jobs.push_back(index);
    entries.push_back(jobLines_[static_cast<std::size_t>(index)]);
  }
  if (slot == kSyncPerRound) {
    ex.kind = Exchange::Kind::kSweep;
    ex.lines.push_back(sweepLine(entries, /*summary=*/true));
  } else {
    ex.kind = Exchange::Kind::kAsync;
    for (const std::string& entry : entries) {
      Json request = Json::parse(entry);
      request.set("async", true);
      ex.lines.push_back(request.dump());
    }
  }
  return ex;
}

std::string asyncWaitLine(const std::vector<std::uint64_t>& ids) {
  Json list = Json::array();
  for (const std::uint64_t id : ids) list.push(id);
  Json request = Json::object();
  request.set("op", "wait");
  request.set("ids", std::move(list));
  return request.dump();
}

std::string sweepLine(const std::vector<std::string>& jobLines, bool summary) {
  Json jobs = Json::array();
  for (const std::string& line : jobLines) jobs.push(Json::parse(line));
  Json request = Json::object();
  request.set("op", "sweep");
  if (summary) request.set("summary", true);
  request.set("jobs", std::move(jobs));
  return request.dump();
}

std::string cacheKeyOfLine(const std::string& line) {
  static const std::string techPrint =
      lo::service::ResultCache::techFingerprint(lo::tech::Technology::generic060());
  const lo::service::JobRequest job = lo::service::parseJobRequest(Json::parse(line));
  return lo::service::ResultCache::keyFor(job.options, job.specs, job.corner, techPrint);
}

}  // namespace jobbench
