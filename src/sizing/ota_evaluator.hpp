// Analytic performance evaluation of a folded-cascode OTA design.
//
// This is COMDIAC's "performance is then evaluated using predefined
// equations" step (paper, section 4): every small-signal parameter comes
// from the same device model the simulator uses, and the equations are the
// standard folded-cascode expressions.  The amount of parasitic capacitance
// included follows the SizingPolicy (Table 1 cases 1-4).
#pragma once

#include "circuit/ota.hpp"
#include "device/mos_model.hpp"
#include "sizing/ota_spec.hpp"
#include "tech/technology.hpp"

namespace lo::sizing {

/// Estimated DC picture: one op point per matched group plus node voltages.
struct OtaOpSnapshot {
  device::MosOpPoint pair, tail, sink, nCasc, pSrc, pCasc;
  double vtail = 0.0;  ///< Common source of the input pair.
  double vx = 0.0;     ///< Folding nodes x1/x2.
  double vy = 0.0;     ///< Mirror node y1.
  double vz = 0.0;     ///< Sources of the PMOS cascodes.
  double vout = 0.0;   ///< Assumed output level (input common mode).
};

/// Node capacitance budget under a policy (used for poles and GBW).
struct OtaCapBudget {
  double out = 0.0;  ///< Total at the output node including the load.
  double x = 0.0;    ///< At each folding node.
  double y = 0.0;    ///< At the mirror node.
  double z = 0.0;    ///< At each PMOS cascode source.
};

class OtaEvaluator {
 public:
  OtaEvaluator(const tech::Technology& t, const device::MosModel& model)
      : tech_(t), model_(model) {}

  /// Solve the approximate DC picture by model inversion (fixed-point on
  /// the folding and cascode source nodes, each solve starting from the
  /// previous iteration's VGS).
  [[nodiscard]] OtaOpSnapshot snapshot(const circuit::FoldedCascodeOtaDesign& design,
                                       double inputCm) const;

  /// Capacitance budget under the policy, from the snapshot's device caps
  /// (junction caps already reflect the geometry in the design, which the
  /// sizer prepared per the policy) plus routing/coupling if provided.
  [[nodiscard]] OtaCapBudget capBudget(const circuit::FoldedCascodeOtaDesign& design,
                                       const OtaOpSnapshot& snap,
                                       const SizingPolicy& policy) const;

  /// Full Table-1 row predicted analytically from the design's snapshot at
  /// the specs' mid input common mode (solved once, by the caller).
  [[nodiscard]] OtaPerformance evaluate(const circuit::FoldedCascodeOtaDesign& design,
                                        const OtaOpSnapshot& snap,
                                        const SizingPolicy& policy) const;

 private:
  const tech::Technology& tech_;
  const device::MosModel& model_;
};

}  // namespace lo::sizing
