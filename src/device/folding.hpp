// Transistor folding and diffusion-capacitance geometry.
//
// Implements the paper's capacitance reduction factor F (Fig. 2): folding a
// transistor into Nf fingers shares source/drain diffusion strips between
// fingers, so the effective diffusion width on a terminal becomes
// Weff = F * W with
//
//         | 1/2              Nf even, terminal on internal strips only   (a)
//     F = | (Nf + 2) / 2Nf   Nf even, terminal on external strips        (b)
//         | (Nf + 1) / 2Nf   Nf odd                                      (c)
//
// and F = 1 for an unfolded device.  The layout tool exploits case (a) by
// choosing even fold counts and connecting the sensitive net (usually the
// drain) to the internal strips.
#pragma once

#include "device/mos_op.hpp"
#include "tech/design_rules.hpp"

namespace lo::device {

/// How the fold planner assigns the drain terminal to diffusion strips.
enum class FoldStyle {
  kDrainInternal,  ///< Even Nf preferred; drain on shared strips (case a).
  kDrainExternal,  ///< Drain on the outer strips (case b / c).
  kAlternating,    ///< No preference; first strip is a source.
};

/// A fully decided fold plan for one transistor.
struct FoldPlan {
  int nf = 1;                 ///< Number of fingers.
  double foldWidth = 0.0;     ///< Width of each finger [m] (grid-snapped).
  double totalWidth = 0.0;    ///< nf * foldWidth; may differ slightly from
                              ///< the requested W because of grid snapping
                              ///< (the paper notes the resulting offset).
  FoldStyle style = FoldStyle::kDrainInternal;
  bool drainInternal = true;  ///< True when no drain strip is external.
};

/// The paper's capacitance reduction factor F for a terminal of a device
/// folded Nf times.  `internal` selects case (a) vs (b) for even Nf; it is
/// ignored for odd Nf (case c applies to both terminals).
[[nodiscard]] double capReductionFactor(int nf, DiffusionPosition position);

/// Exact per-terminal junction geometry (AD/AS/PD/PS) of a folded device.
///
/// Strip extents come from the design rules: an external strip carries a
/// contact row and is rules.contactedDiffusionExtent() wide; an internal
/// strip shared between two gates is rules.sharedContactedDiffusionExtent()
/// wide.  Perimeters exclude the gate edges (standard extraction
/// convention).  Populates geo.ad/as/pd/ps from geo.w/geo.l and the plan.
void applyDiffusionGeometry(const tech::DesignRules& rules, const FoldPlan& plan,
                            MosGeometry& geo);

/// Decide a fold plan for a device of drawn width `w` so that each finger is
/// no wider than `maxFoldWidth`, honouring the requested style (even fold
/// counts for kDrainInternal) and snapping finger widths to the layout grid.
[[nodiscard]] FoldPlan planFolds(const tech::DesignRules& rules, double w,
                                 double maxFoldWidth, FoldStyle style);

/// Fold plan with an explicit finger count (used when the area optimiser has
/// already chosen Nf from the shape functions).
[[nodiscard]] FoldPlan planFoldsExact(const tech::DesignRules& rules, double w, int nf,
                                      FoldStyle style);

/// Default single-fold geometry used before any layout information exists
/// (first sizing pass: "one fold per transistor, only diffusion
/// capacitances").  Both terminals get a full contacted strip.
void applyUnfoldedGeometry(const tech::DesignRules& rules, MosGeometry& geo);

}  // namespace lo::device
