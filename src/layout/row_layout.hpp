// The layout program: one procedural pipeline for every topology.
//
// The paper's CAIRO is one layout language: a single motif generator
// builds every transistor, and the same program runs in parasitic
// calculation mode and in generation mode (section 3).  Here a topology
// only declares what it draws (RowLayoutDecl): its folded motifs, its
// matched stacks, its bias legs, its passives, its placement constraints,
// the nets to route with their DC currents, and how far the outer routing
// channels reach.  generateRowLayout runs the same steps on every
// declaration:
//   1. shape menus: every fold candidate of every motif and stack;
//   2. row placement under the declared constraints (layout/row.hpp);
//   3. fold plans and exact junction geometry for the chosen folds;
//   4. drawing, in a fixed order: core motifs, stacks, bias legs,
//      passives.  The order of the shapes, ports and merged wells follows
//      it, and so do the routing and the written mask files;
//   5. merged wells and selects, routing channels, routing;
//   6. the parasitic report, wells and the passives' substrate parasitics
//      included, and in generation mode the assembled cell.
//
// Two modes:
//   * parasitic calculation mode: area optimisation picks every fold
//     count under the shape constraint, wire positions and widths are
//     fully determined and all capacitances are reported, but no geometry
//     is kept;
//   * generation mode: additionally keeps the full mask geometry.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "device/folding.hpp"
#include "layout/cell.hpp"
#include "layout/constraints.hpp"
#include "layout/extract.hpp"
#include "layout/passives.hpp"
#include "layout/router.hpp"
#include "layout/row.hpp"
#include "layout/stack.hpp"
#include "tech/technology.hpp"

namespace lo::layout {

struct LayoutOptions {
  /// Fold-parity policy: kDrainInternal realises the paper's capacitance
  /// trick ("all transistor folds are chosen such that drains are internal
  /// diffusions"); kAlternating is the ablation baseline.
  device::FoldStyle foldStyle = device::FoldStyle::kDrainInternal;
  int maxFoldCandidates = 6;  ///< Fold alternatives offered per device.
  /// Row placement: the shape constraint (square by default) and the
  /// search.  kDeclared reproduces the declared floorplan exactly; kSeeded
  /// searches constraint-satisfying alternatives.
  RowPlacerOptions placer{.shape{.aspectRatio = 1.0, .maxWidth{}, .maxHeight{}}};
};

/// A transistor drawn as one folded motif.
struct MotifDecl {
  std::string name;
  tech::MosType type = tech::MosType::kNmos;
  device::MosGeometry geometry;  ///< Total W and drawn L.
  double current = 0.0;          ///< |ID| [A]: contact counts, wire widths.
  std::string drain, gate, source, bulk;
};

/// A matched group drawn as one stack.  The matching constraint named
/// `name` gives the device names and the pattern; `devices` gives their
/// drain and gate nets and currents, in the constraint's order.
struct StackDecl {
  std::string name;
  tech::MosType type = tech::MosType::kNmos;
  device::MosGeometry geometry;  ///< W and drawn L of each device.
  std::string source, dummyGate, bulk;
  std::vector<StackDevice> devices;
};

/// Everything a topology tells the layout program.
struct RowLayoutDecl {
  std::string cellName;
  ConstraintSet constraints;
  std::vector<MotifDecl> motifs;    ///< Folded under the options' policy.
  std::vector<StackDecl> stacks;
  std::vector<MotifDecl> biasLegs;  ///< One alternating fold each, riding
                                    ///< their rows' right ends.
  std::vector<CapacitorSpec> capacitors;
  std::vector<ResistorSpec> resistors;
  std::vector<NetRequest> nets;     ///< Routed nets with their DC currents.
  geom::Coord channelMargin = 0;    ///< Reach of the outer channels [nm].
};

/// Everything the sizing tool is told after a layout call (paper section 2:
/// transistor layout style, routing and coupling parasitics, well sizes).
/// Per-item maps are keyed by the declared item names.
struct RowLayout {
  std::map<std::string, device::FoldPlan> itemFoldPlans;
  /// Exact junction geometry (AD/AS/PD/PS) as drawn; a stack's entry is
  /// its first device's, diffusion sharing between neighbours included.
  std::map<std::string, device::MosGeometry> itemJunctions;
  std::map<std::string, StackPlan> stackPlans;
  std::map<std::string, CapacitorInfo> capacitors;
  std::map<std::string, ResistorInfo> resistors;
  ParasiticReport parasitics;
  geom::Coord width = 0;
  geom::Coord height = 0;
  RowPlacement placement;  ///< Row placer outcome (floorplan, rows, score).
  RoutingResult routing;
  Cell cell;               ///< Geometry; empty in parasitic mode.
};

/// Run the layout program on a declaration.  `generateGeometry` selects
/// the mode.  Throws std::invalid_argument when a stack has no matching
/// constraint over its devices, or when the placer rejects the items.
[[nodiscard]] RowLayout generateRowLayout(const tech::Technology& t,
                                          const RowLayoutDecl& decl,
                                          const LayoutOptions& options,
                                          bool generateGeometry);

}  // namespace lo::layout
