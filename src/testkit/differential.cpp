#include "testkit/differential.hpp"

#include <algorithm>
#include <stdexcept>

#include "explore/diffpath.hpp"
#include "service/serialize.hpp"

namespace lo::testkit {

namespace {

PathOutcome outcomeFromStatus(const service::JobStatus& status) {
  PathOutcome out;
  out.ok = status.state == service::JobState::kDone;
  out.cacheHit = status.cacheHit;
  if (out.ok) {
    out.result = status.result;
    out.canonical = service::toJson(status.result).dump();
  } else {
    out.error = status.error.empty() ? service::jobStateName(status.state)
                                     : status.error;
  }
  return out;
}

/// Compare `candidate` against the reference path's outcome; empty string
/// when they agree.
std::string compareOutcomes(const std::string& refName, const PathOutcome& ref,
                            const std::string& name, const PathOutcome& candidate,
                            double relTol) {
  if (ref.ok != candidate.ok) {
    return name + " " + (candidate.ok ? "succeeded" : "failed (" +
                         candidate.error + ")") + " but " + refName + " " +
           (ref.ok ? "succeeded" : "failed (" + ref.error + ")");
  }
  if (!ref.ok) {
    if (ref.error != candidate.error) {
      return name + " error \"" + candidate.error + "\" != " + refName +
             " error \"" + ref.error + "\"";
    }
    return {};
  }
  if (ref.canonical == candidate.canonical) return {};
  if (relTol > 0.0) {
    const auto d = diffResults(ref.result, candidate.result, relTol);
    if (!d) return {};  // Within tolerance.
    return name + " vs " + refName + ": " + d->describe();
  }
  const auto d = diffResults(ref.result, candidate.result, 0.0);
  return name + " vs " + refName + ": " +
         (d ? d->describe() : "serialisations differ");
}

}  // namespace

void DifferentialDriver::registerPath(std::string name, PathRunner runner, double relTol) {
  if (!runner) {
    throw std::invalid_argument("null runner for path \"" + name + "\"");
  }
  for (const Path& existing : paths_) {
    if (existing.name == name) {
      throw std::invalid_argument("path \"" + name + "\" is already registered");
    }
  }
  paths_.push_back({std::move(name), std::move(runner), relTol});
}

std::vector<std::string> DifferentialDriver::pathNames() const {
  std::vector<std::string> names;
  names.reserve(paths_.size());
  for (const Path& path : paths_) names.push_back(path.name);
  return names;
}

DiffReport DifferentialDriver::run(const std::vector<CorpusPoint>& corpus,
                                   double relTol) const {
  if (paths_.size() < 2) {
    throw std::logic_error("differential driver needs at least two paths");
  }
  DiffReport report;
  for (const CorpusPoint& point : corpus) {
    PointReport pr;
    pr.label = point.label;
    for (const Path& path : paths_) {
      pr.outcomes.emplace_back(path.name, path.runner(point));
    }
    pr.agree = true;
    const auto& [refName, ref] = pr.outcomes.front();
    for (std::size_t i = 1; i < pr.outcomes.size(); ++i) {
      const std::string detail =
          compareOutcomes(refName, ref, pr.outcomes[i].first, pr.outcomes[i].second,
                          std::max(relTol, paths_[i].relTol));
      if (!detail.empty()) {
        pr.agree = false;
        pr.detail = pr.label + ": " + detail;
        break;
      }
    }
    ++report.points;
    if (pr.agree) {
      ++report.agreements;
    } else {
      report.divergences.push_back(std::move(pr));
    }
  }
  return report;
}

DifferentialDriver standardDriver(service::JobScheduler& scheduler) {
  DifferentialDriver driver;

  driver.registerPath("engine_direct", [&scheduler](const CorpusPoint& point) {
    PathOutcome out;
    try {
      const tech::Technology jobTech =
          scheduler.baseTechnology().atCorner(point.corner);
      const core::SynthesisEngine engine(jobTech, point.options);
      out.result = engine.run(point.specs);
      out.canonical = service::toJson(out.result).dump();
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  });

  // The same direct engine run forced onto the simulator's
  // pre-optimization reference solve path.  DC, AC and noise are
  // bit-identical across solver modes; the folded transient parts from the
  // full-MNA one at LU rounding, far inside the Newton tolerance, so every
  // figure it feeds (slew rate, THD) is held to kReferenceSolverRelTol.
  constexpr double kReferenceSolverRelTol = 1e-6;
  driver.registerPath("engine_reference_solver", [&scheduler](const CorpusPoint& point) {
    PathOutcome out;
    try {
      const tech::Technology jobTech =
          scheduler.baseTechnology().atCorner(point.corner);
      core::EngineOptions options = point.options;
      options.verifyOptions.referenceSolver = true;
      options.postLayoutVerify.referenceSolver = true;
      const core::SynthesisEngine engine(jobTech, options);
      out.result = engine.run(point.specs);
      out.canonical = service::toJson(out.result).dump();
      out.ok = true;
    } catch (const std::exception& e) {
      out.error = e.what();
    }
    return out;
  }, kReferenceSolverRelTol);

  driver.registerPath("scheduler", [&scheduler](const CorpusPoint& point) {
    const std::uint64_t id = scheduler.submit(point.toJobRequest());
    return outcomeFromStatus(scheduler.wait(id));
  });

  driver.registerPath("cache_warm", [&scheduler](const CorpusPoint& point) {
    // With an on-disk store, drop the memory tier first so this hit
    // round-trips through the JSON serialisation on disk.
    if (!scheduler.cache().options().diskDir.empty()) {
      scheduler.cache().clear();
    }
    const std::uint64_t id = scheduler.submit(point.toJobRequest());
    return outcomeFromStatus(scheduler.wait(id));
  });

  driver.registerPath("explore_cell", [&scheduler](const CorpusPoint& point) {
    PathOutcome out;
    const explore::PointEval eval = explore::evaluateSinglePoint(
        scheduler, point.options, point.specs, point.corner);
    out.ok = eval.ok;
    out.cacheHit = eval.cacheHit;
    if (!eval.ok) {
      out.error = eval.error;
      return out;
    }
    // The explorer evaluated the point through the scheduler, so the
    // result sits in the cache under the point's content-addressed key --
    // unless the explorer's spec reconstruction drifted, which is exactly
    // the divergence this path exists to catch.
    const std::string key = service::ResultCache::keyFor(
        point.options, point.specs, point.corner,
        service::ResultCache::techFingerprint(scheduler.baseTechnology()));
    if (auto hit = scheduler.cache().lookup(key)) {
      out.result = std::move(*hit);
      out.canonical = service::toJson(out.result).dump();
    } else {
      out.ok = false;
      out.error = "explore_cell evaluated a different cache key than the "
                  "point's canonical key";
    }
    return out;
  });

  return driver;
}

}  // namespace lo::testkit
