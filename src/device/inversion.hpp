// Model-inversion helpers used by the knowledge-based sizing procedures.
//
// COMDIAC fixes each transistor's operating point (effective gate drive and
// drain current) and derives geometry from it (paper, section 4).  These
// routines invert the device model for the quantities the design plans need:
// channel width for a target current and gate bias for a target current.
#pragma once

#include <optional>

#include "device/mos_model.hpp"

namespace lo::device {

/// Width [m] such that the device carries |id| = `targetId` at the given
/// bias.  Exploits the strict W-proportionality of both models (one scaling
/// step, then a verification refinement).  `geo` supplies L and the junction
/// geometry template; its W is used as the starting point.  Throws
/// std::invalid_argument unless `targetId` is finite and > 0.
[[nodiscard]] double widthForCurrent(const MosModel& model, const tech::MosModelCard& card,
                                     MosGeometry geo, double targetId, double vgs,
                                     double vds, double vbs, double tempK = 300.15);

/// Polarity-normalised gate-source voltage at which the device carries
/// |id| = `targetId`.  Safeguarded Newton on log|id| over the bracket
/// [0, vmax], using the gm each model call returns; a step that leaves the
/// bracket or fails to halve against the step before last is a bisection
/// step.  `start` seeds the iteration (a nearby earlier answer); one
/// outside (0, vmax) is ignored.  Throws std::invalid_argument unless
/// `targetId` is finite and > 0, and std::runtime_error if the current at
/// vmax is not finite or is below the target.
[[nodiscard]] double vgsForCurrent(const MosModel& model, const tech::MosModelCard& card,
                                   const MosGeometry& geo, double targetId, double vds,
                                   double vbs, double vmax, double tempK = 300.15,
                                   std::optional<double> start = std::nullopt);

}  // namespace lo::device
