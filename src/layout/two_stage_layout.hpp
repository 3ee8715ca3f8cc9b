// The two-stage Miller OTA's layout declaration: the second topology fed
// to the one layout program (layout/row_layout.hpp), passives included.
// The topology declares its matching intent (twoStagePlacementConstraints)
// and the RowPlacer realises the rows.  The declared backend reproduces
// this floorplan:
//   top row    : MP3-MP4 mirror stack (PMOS, shared VDD well) | MP6 motif
//   middle row : CC plate capacitor | RZ poly serpentine
//   bottom row : MN5 (tail) | MN1/MN2 common-centroid stack | MN7
#pragma once

#include <map>

#include "circuit/two_stage.hpp"
#include "layout/row_layout.hpp"

namespace lo::layout {

/// The two-stage OTA's declared matching intent: the input pair and the
/// current mirror each fuse common-centroid into a stack, the three
/// diffusion/passive rows are declared bottom to top, and the Miller
/// compensation network (CC, RZ) stays tightly coupled.
[[nodiscard]] ConstraintSet twoStagePlacementConstraints();

/// The layout program's outputs, with fold plans and junctions keyed by
/// device group.
struct TwoStageLayoutResult : RowLayout {
  std::map<circuit::TwoStageGroup, device::FoldPlan> foldPlans;
  std::map<circuit::TwoStageGroup, device::MosGeometry> junctions;
  StackPlan pairPlan;
  CapacitorInfo ccInfo;
  ResistorInfo rzInfo;
};

/// Run the layout program on the two-stage OTA.  `generateGeometry`
/// selects the mode.
[[nodiscard]] TwoStageLayoutResult generateTwoStageLayout(
    const tech::Technology& t, const circuit::TwoStageOtaDesign& design,
    const LayoutOptions& options, bool generateGeometry);

}  // namespace lo::layout
