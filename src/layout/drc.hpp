// Geometric design-rule checker.
//
// Validates the generators' output against the Technology rules: minimum
// widths, same-layer spacing (net-aware: touching shapes of one net are a
// connection, overlapping shapes of different nets are a short), contact and
// via enclosures, and well / select enclosure of active.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "geom/geometry.hpp"
#include "layout/constraints.hpp"
#include "layout/slicing.hpp"
#include "tech/technology.hpp"

namespace lo::layout {

struct DrcViolation {
  std::string rule;       ///< e.g. "metal1.width", "poly.spacing".
  std::string detail;
  geom::Rect where;
};

/// Checks: minimum widths, same-layer net-aware spacing, contact/via size
/// and enclosures, select/well enclosure of active, gate end-cap extension
/// (poly crossing active must stick out by polyEndcap on both sides) and
/// no contact cut over a gate region.
///
/// Run all checks; returns every violation found (empty = clean).
[[nodiscard]] std::vector<DrcViolation> runDrc(const tech::Technology& t,
                                               const geom::ShapeList& shapes);

/// Symmetry audit over a placed floorplan: every MirrorPair must mirror
/// about its row's vertical axis (equal outlines, same y extent) and every
/// SymmetryAxis item must be centred on that axis, within `tolerance`
/// (pass the layout grid).  Items sharing a row are found by overlapping
/// y extents, so rows with tag-along devices still audit their matched
/// core.  Violations use rules "symmetry.mirror" / "symmetry.axis".
[[nodiscard]] std::vector<DrcViolation> auditSymmetry(
    const ConstraintSet& constraints, const std::map<std::string, PlacedLeaf>& leaves,
    geom::Coord tolerance);

/// Render a violation list for logs/tests.
[[nodiscard]] std::string formatViolations(const std::vector<DrcViolation>& violations);

}  // namespace lo::layout
