// Pareto archive for the design-space explorer.
//
// Every evaluated design point carries the three layout-aware objectives
// the paper's flow produces for free -- power (supply current x VDD),
// layout area (slicing-tree bounding box) and integrated input-referred
// noise -- plus a feasibility verdict (the measured performance meets the
// specs the point was synthesised for).  The archive keeps the set of
// feasible points no other feasible point weakly dominates; insertion is
// thread-safe so a daemon can snapshot the front mid-exploration.
#pragma once

#include <mutex>
#include <string>
#include <vector>

#include "sizing/ota_spec.hpp"

namespace lo::explore {

/// Objectives the archive can minimise; the caller selects a subset.
enum class Objective { kPowerMw, kAreaUm2, kNoiseUv };

[[nodiscard]] constexpr const char* objectiveName(Objective o) {
  switch (o) {
    case Objective::kPowerMw: return "power_mw";
    case Objective::kAreaUm2: return "area_um2";
    case Objective::kNoiseUv: return "noise_uv";
  }
  return "?";
}

/// "power" / "power_mw" / "area" / ... -> Objective; throws on anything else.
[[nodiscard]] Objective objectiveFromName(const std::string& name);

/// The default objective set: the full power / area / noise trade-off.
[[nodiscard]] std::vector<Objective> allObjectives();

/// One evaluated design point: where it sits in the spec space, whether
/// the synthesis met its specs, and the objective values.
struct PointEval {
  std::string key;             ///< Canonical coordinate key (space.hpp).
  std::vector<double> coords;  ///< Axis values, aligned with the space's axes.
  bool ok = false;             ///< Synthesis job reached "done".
  bool converged = false;      ///< Parasitic loop reached a fixed point.
  bool feasible = false;       ///< ok && converged && performance meets specs.
  bool postLayoutPass = false; ///< Post-layout verification ran and passed.
  bool cacheHit = false;       ///< Served from the result cache.
  std::string error;           ///< Failure text when !ok.

  double powerMw = 0.0;
  double areaUm2 = 0.0;
  double noiseUv = 0.0;
  // Context for reports (not objectives).
  double gbwHz = 0.0;
  double phaseMarginDeg = 0.0;
  double slewRateVPerUs = 0.0;

  [[nodiscard]] double objective(Objective o) const {
    switch (o) {
      case Objective::kPowerMw: return powerMw;
      case Objective::kAreaUm2: return areaUm2;
      case Objective::kNoiseUv: return noiseUv;
    }
    return 0.0;
  }
};

class ParetoArchive {
 public:
  /// `requirePostLayout` additionally rejects points whose post-layout
  /// verification tier did not run or did not pass, so the front only ever
  /// contains designs the extracted netlist re-confirmed.
  explicit ParetoArchive(std::vector<Objective> objectives = allObjectives(),
                         bool requirePostLayout = false);

  /// a is no worse than b on every selected objective.
  [[nodiscard]] static bool weaklyDominates(const PointEval& a, const PointEval& b,
                                            const std::vector<Objective>& objectives);

  /// Offer a point.  Infeasible points and points weakly dominated by a
  /// current member are rejected; an accepted point evicts every member it
  /// dominates.  Returns true when the point entered the archive.
  bool insert(const PointEval& p);

  /// Current non-dominated feasible set, sorted by key (deterministic).
  [[nodiscard]] std::vector<PointEval> front() const;

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] const std::vector<Objective>& objectives() const {
    return objectives_;
  }

  /// True when some member of `front` weakly dominates `p` -- the bench's
  /// "refined front dominates the coarse front" acceptance check.
  [[nodiscard]] static bool frontWeaklyDominates(const std::vector<PointEval>& front,
                                                 const PointEval& p,
                                                 const std::vector<Objective>& objectives);

 private:
  std::vector<Objective> objectives_;
  bool requirePostLayout_ = false;
  mutable std::mutex mutex_;
  std::vector<PointEval> points_;  ///< Kept sorted by key.
};

}  // namespace lo::explore
