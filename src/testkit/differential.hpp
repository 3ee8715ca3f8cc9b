// The differential oracle: one corpus, every path, byte-identical results.
//
// The paper's claim -- sizing against estimated parasitics converges to
// what the generated layout exhibits -- only survives scaling if every
// route through the stack computes the same numbers.  This driver runs
// each corpus point through a set of named paths and requires them to
// agree exactly:
//
//   engine_direct  a private SynthesisEngine, no service layer at all;
//   scheduler      a JobScheduler submission (worker pool, job isolation);
//   cache_warm     the same submission served back from the result cache
//                  (via the on-disk JSON store when the scheduler has one,
//                  so the serialisation round trip is part of the check);
//   explore_cell   a budget-1 exploration anchored at the point, so the
//                  explorer's space/coordinate machinery is on the hook
//                  for reproducing the exact specs.
//
// Agreement means: all paths succeed with byte-identical canonical JSON
// (or, for a path registered with a relTol, numbers within it), or all
// paths fail with the same error text.  On divergence the report
// carries testkit::FieldDiff's first-diverging-field description instead
// of a bare "bytes differ".  Extra paths register through registerPath();
// the corpus test adds "frozen", the corpus' committed outcomes, within a
// relTol.
#pragma once

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "service/scheduler.hpp"
#include "testkit/diff.hpp"
#include "testkit/generators.hpp"

namespace lo::testkit {

/// What one path produced for one corpus point.
struct PathOutcome {
  bool ok = false;
  std::string error;      ///< Failure text when !ok.
  std::string canonical;  ///< toJson(result).dump() when ok.
  core::EngineResult result;
  bool cacheHit = false;
};

using PathRunner = std::function<PathOutcome(const CorpusPoint&)>;

/// Per-point verdict: every path's outcome plus the first divergence.
struct PointReport {
  std::string label;
  bool agree = false;
  std::string detail;  ///< Human-readable first divergence (empty if agree).
  std::vector<std::pair<std::string, PathOutcome>> outcomes;
};

struct DiffReport {
  int points = 0;
  int agreements = 0;
  std::vector<PointReport> divergences;
  [[nodiscard]] bool allAgree() const {
    return points > 0 && agreements == points;
  }
};

class DifferentialDriver {
 public:
  /// Register a path; order of registration is comparison order (the first
  /// path is the reference).  relTol > 0 lets this path's numbers differ
  /// from the reference's by that relative amount (testkit::diffResults).
  /// Throws std::invalid_argument on a duplicate name or a null runner.
  void registerPath(std::string name, PathRunner runner, double relTol = 0.0);

  [[nodiscard]] std::vector<std::string> pathNames() const;

  /// Run every corpus point through every path.  Byte identity is
  /// demanded except where a path registered its own relTol.
  [[nodiscard]] DiffReport run(const std::vector<CorpusPoint>& corpus) const;

 private:
  struct Path {
    std::string name;
    PathRunner runner;
    double relTol = 0.0;
  };
  std::vector<Path> paths_;
};

/// One SynthesisEngine run of `point` at its corner of `base`, no service
/// layer at all: the engine_direct path.
[[nodiscard]] PathOutcome runEngineDirect(const tech::Technology& base,
                                          const CorpusPoint& point);

/// The four standard paths over one scheduler.  The scheduler should be
/// single-threaded and cold for exact reproducibility; when it has an
/// on-disk store the cache_warm path reads through it (memory tier
/// cleared), otherwise it serves from memory.
[[nodiscard]] DifferentialDriver standardDriver(service::JobScheduler& scheduler);

}  // namespace lo::testkit
