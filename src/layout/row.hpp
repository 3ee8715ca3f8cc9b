// Row-based placement over height-quantized primitives.
//
// Analog placement after the slicing era is row-disciplined (arXiv
// 2606.21767): devices become height-quantized row primitives -- every
// item's shape menu is grid-snapped by the motif/stack generators -- and
// the placer decides row assignment and in-row ordering instead of
// arbitrary cuts.  This module is the generic middle of the layout
// pipeline: the layout program (layout/row_layout.hpp) turns a topology's
// declaration into *items* (motifs, matched stacks, passives) and
// *constraints* (layout/constraints.hpp), the RowPlacer
// finds an arrangement that satisfies the constraints, and the existing
// slicing-tree shape-function optimiser (layout/slicing.hpp) remains the
// evaluation backend that picks each item's fold alternative and packs
// the rows.
//
// Two search modes:
//   * kDeclared -- rows and in-row orders exactly as the SameRow
//     constraints declare them.  This compiles to the same slicing tree
//     the hand-written generators used to build (PMOS rows share a
//     sub-column separated by well gaps, mixed transitions get the
//     well-clearance gap) and therefore reproduces their floorplans
//     byte-for-byte.
//   * kSeeded -- a deterministic seeded search over in-row orderings
//     (mirror pairs permute as units around the symmetry axis, free items
//     redistribute to the row ends) and row re-assignment of unpinned
//     items, scored by area plus estimated wirelength; candidates that
//     break a declared symmetry are rejected by the DRC symmetry audit.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "layout/constraints.hpp"
#include "layout/router.hpp"
#include "layout/slicing.hpp"
#include "tech/technology.hpp"

namespace lo::layout {

enum class RowKind { kNmos, kPmos, kPassive };

[[nodiscard]] const char* rowKindName(RowKind kind);

/// One placeable unit: a transistor motif, a matched stack or a passive.
struct RowItem {
  std::string name;
  RowKind kind = RowKind::kNmos;
  /// PMOS items: the net their well ties to.  Consecutive PMOS rows with
  /// different well nets are separated by the well-spacing gap; items in
  /// one row must agree on the well.
  std::string wellNet;
  /// Tag-along devices (bias-generator legs): pinned at the row's right
  /// end in declared order and excluded from the row's routing band.
  bool annex = false;
  /// Height-quantized shape menu, one entry per legal fold alternative.
  std::vector<ShapeOption> options;
  /// Nets the item's ports touch, for the wirelength estimate.
  std::vector<std::string> nets;
};

/// Vertical extent of a row's core items (annex items excluded), used to
/// carve the routing channels between rows.
struct RowBand {
  geom::Coord lo = 0;
  geom::Coord hi = 0;
};

struct RowAssignment {
  RowKind kind = RowKind::kNmos;
  std::string wellNet;
  geom::Coord spacing = 0;
  std::vector<std::string> items;  ///< Final left-to-right order.
  RowBand band;
};

enum class RowSearch {
  kDeclared,  ///< Constraint-declared rows/orders (legacy-exact backend).
  kSeeded,    ///< Seeded deterministic search for better arrangements.
};

struct RowPlacerOptions {
  ShapeConstraint shape;
  RowSearch search = RowSearch::kDeclared;
  std::uint64_t seed = 1;
  int candidates = 96;    ///< Search candidates beyond the declared one.
  int threads = 1;        ///< Parallel candidate evaluation (result is
                          ///< independent of the thread count).
  /// Cost of one nm of estimated wire in nm^2 of equivalent area -- the
  /// footprint of a ~50 nm strip per default; raise to trade area for
  /// shorter wires.
  double wireCostNm = 50.0;
};

struct RowPlacement {
  FloorplanResult floorplan;
  std::map<std::string, int> tags;  ///< Chosen fold alternative per item.
  std::vector<RowAssignment> rows;  ///< Bottom to top.
  double estimatedWirelengthNm = 0.0;
  double scoreNm2 = 0.0;            ///< area + wireCostNm * wirelength.
  int candidatesEvaluated = 0;
};

class RowPlacer {
 public:
  /// Validates the constraints against the item names (throws
  /// std::invalid_argument on violations, mixed-kind rows or
  /// disagreeing wells within a row).
  RowPlacer(const tech::Technology& t, std::vector<RowItem> items,
            ConstraintSet constraints);

  [[nodiscard]] RowPlacement place(const RowPlacerOptions& options) const;

 private:
  const tech::Technology& tech_;
  std::vector<RowItem> items_;
  ConstraintSet constraints_;
};

/// Routing channels around the placed rows: one band below the bottom row,
/// one between each pair of adjacent rows and one above the top row,
/// inset by the metal1 spacing rule; the outer bands extend `margin`.
[[nodiscard]] std::vector<Channel> rowChannels(const tech::Technology& t,
                                               const RowPlacement& placement,
                                               geom::Coord margin);

/// One placed item's active-area footprint, for merged well generation.
struct RowActive {
  tech::MosType type = tech::MosType::kNmos;
  std::string wellNet;  ///< PMOS: the net the well ties to.
  geom::Rect active;
};

/// Merged wells and selects, the row discipline's well-sharing rule: PMOS
/// actives grouped by well net get one N-well (net-tagged, for the
/// floating-well capacitance extraction) plus a P+ select each; all NMOS
/// actives share one N+ select.  Group order follows first appearance.
[[nodiscard]] geom::ShapeList mergedRowWells(const tech::Technology& t,
                                             const std::vector<RowActive>& actives);

}  // namespace lo::layout
