#include "explore/pareto.hpp"

#include <algorithm>
#include <stdexcept>

namespace lo::explore {

Objective objectiveFromName(const std::string& name) {
  for (const Objective o :
       {Objective::kPowerMw, Objective::kAreaUm2, Objective::kNoiseUv}) {
    if (name == objectiveName(o)) return o;
  }
  if (name == "power") return Objective::kPowerMw;
  if (name == "area") return Objective::kAreaUm2;
  if (name == "noise") return Objective::kNoiseUv;
  throw std::invalid_argument("unknown objective \"" + name +
                              "\" (power, area, noise)");
}

std::vector<Objective> allObjectives() {
  return {Objective::kPowerMw, Objective::kAreaUm2, Objective::kNoiseUv};
}

ParetoArchive::ParetoArchive(std::vector<Objective> objectives,
                             bool requirePostLayout)
    : objectives_(std::move(objectives)), requirePostLayout_(requirePostLayout) {
  if (objectives_.empty()) {
    throw std::invalid_argument("ParetoArchive needs at least one objective");
  }
}

bool ParetoArchive::weaklyDominates(const PointEval& a, const PointEval& b,
                                    const std::vector<Objective>& objectives) {
  for (const Objective o : objectives) {
    if (a.objective(o) > b.objective(o)) return false;
  }
  return true;
}

bool ParetoArchive::insert(const PointEval& p) {
  if (!p.feasible) return false;
  if (requirePostLayout_ && !p.postLayoutPass) return false;
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const PointEval& q : points_) {
    if (weaklyDominates(q, p, objectives_)) return false;
  }
  points_.erase(std::remove_if(points_.begin(), points_.end(),
                               [&](const PointEval& q) {
                                 return weaklyDominates(p, q, objectives_);
                               }),
                points_.end());
  const auto pos = std::lower_bound(
      points_.begin(), points_.end(), p,
      [](const PointEval& a, const PointEval& b) { return a.key < b.key; });
  points_.insert(pos, p);
  return true;
}

std::vector<PointEval> ParetoArchive::front() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return points_;
}

std::size_t ParetoArchive::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return points_.size();
}

bool ParetoArchive::frontWeaklyDominates(const std::vector<PointEval>& front,
                                         const PointEval& p,
                                         const std::vector<Objective>& objectives) {
  for (const PointEval& q : front) {
    if (weaklyDominates(q, p, objectives)) return true;
  }
  return false;
}

}  // namespace lo::explore
