// The folded-cascode OTA's layout declaration (paper Figs. 4/5): what it
// draws, fed to the one layout program (layout/row_layout.hpp).  The
// topology declares its matching intent (otaPlacementConstraints) and the
// generic RowPlacer (layout/row.hpp) realises rows, symmetry and fold
// selection from those constraints.  With the default declared search the
// placer compiles the constraints into the Fig. 5 floorplan:
//   top row    : MP3C | MP3 | MP5 | MP4 | MP4C      (PMOS, shared VDD well)
//   middle row : MP1/MP2 common-centroid stack with end dummies
//                (own floating well tied to the tail node)
//   bottom row : MN1C | MN5-MN6 interdigitated stack | MN2C
#pragma once

#include <map>

#include "circuit/ota.hpp"
#include "layout/row_layout.hpp"

namespace lo::layout {

/// The OTA's declared matching intent: the input pair fuses common-centroid
/// into the PAIR stack, MN5/MN6 interdigitate into SINK, the cascodes
/// mirror about the core axis, and the three diffusion rows of Fig. 5 are
/// declared with the bias legs (when `includeBias`) riding their rows'
/// right ends.
[[nodiscard]] ConstraintSet otaPlacementConstraints(bool includeBias);

/// The layout program's outputs, with fold plans and junctions keyed by
/// device group.
struct OtaLayoutResult : RowLayout {
  std::map<circuit::OtaGroup, device::FoldPlan> foldPlans;
  /// Exact per-device junction geometry (AD/AS/PD/PS) as drawn; for stacked
  /// groups this includes diffusion sharing between neighbours.
  std::map<circuit::OtaGroup, device::MosGeometry> junctions;
  StackPlan pairPlan;  ///< Matching metrics of the input pair.
  StackPlan sinkPlan;  ///< Matching metrics of MN5/MN6.
};

/// Run the layout program on the OTA.  `generateGeometry` selects the
/// mode.  When `bias` is given, the bias-generator devices are drawn too:
/// the NMOS legs join the bottom row, the PMOS legs the top row, and the
/// bias nets are routed (their parasitics then appear in the report).
[[nodiscard]] OtaLayoutResult generateOtaLayout(const tech::Technology& t,
                                                const circuit::FoldedCascodeOtaDesign& design,
                                                const LayoutOptions& options,
                                                bool generateGeometry,
                                                const circuit::OtaBiasDesign* bias = nullptr);

}  // namespace lo::layout
