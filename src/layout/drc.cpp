#include "layout/drc.hpp"

#include <cstdlib>
#include <sstream>

namespace lo::layout {

namespace {

using geom::Rect;
using geom::Shape;
using tech::Layer;

void checkWidths(const std::vector<Shape>& shapes, Layer layer,
                 tech::Nm minWidth, const char* ruleName,
                 std::vector<DrcViolation>& out) {
  for (const Shape& s : shapes) {
    if (s.layer != layer) continue;
    if (std::min(s.rect.width(), s.rect.height()) < minWidth) {
      out.push_back({ruleName, "shape narrower than minimum width", s.rect});
    }
  }
}

void checkSpacing(const std::vector<Shape>& shapes, Layer layer, tech::Nm minSpacing,
                  const char* ruleName, std::vector<DrcViolation>& out) {
  std::vector<const Shape*> onLayer;
  for (const Shape& s : shapes) {
    if (s.layer == layer) onLayer.push_back(&s);
  }
  for (std::size_t i = 0; i < onLayer.size(); ++i) {
    for (std::size_t j = i + 1; j < onLayer.size(); ++j) {
      const Shape& a = *onLayer[i];
      const Shape& b = *onLayer[j];
      const bool sameNet = !a.net.empty() && a.net == b.net;
      if (a.rect.overlaps(b.rect)) {
        if (!a.net.empty() && !b.net.empty() && a.net != b.net) {
          out.push_back({ruleName, "short between nets " + a.net + " and " + b.net,
                         a.rect.intersected(b.rect)});
        }
        continue;  // Same-net overlap is a connection.
      }
      const geom::Coord d = a.rect.distanceTo(b.rect);
      if (d == 0) continue;  // Touching: connected (same net) or legal abutment.
      if (d < minSpacing && !sameNet) {
        out.push_back({ruleName, "spacing " + std::to_string(d) + " < minimum",
                       a.rect.merged(b.rect)});
      }
    }
  }
}

void checkCutEnclosure(const std::vector<Shape>& shapes, Layer cutLayer, tech::Nm cutSize,
                       const std::vector<std::pair<Layer, tech::Nm>>& anyOf,
                       const std::vector<std::pair<Layer, tech::Nm>>& allOf,
                       const char* ruleName, std::vector<DrcViolation>& out) {
  auto enclosedBy = [&](const Rect& cut, Layer layer, tech::Nm margin) {
    const Rect need = cut.inflated(margin);
    for (const Shape& s : shapes) {
      if (s.layer == layer && s.rect.containsRect(need)) return true;
    }
    return false;
  };
  for (const Shape& s : shapes) {
    if (s.layer != cutLayer) continue;
    if (s.rect.width() != cutSize || s.rect.height() != cutSize) {
      out.push_back({ruleName, "cut is not the fixed cut size", s.rect});
      continue;
    }
    bool any = anyOf.empty();
    for (const auto& [layer, margin] : anyOf) {
      if (enclosedBy(s.rect, layer, margin)) {
        any = true;
        break;
      }
    }
    if (!any) out.push_back({ruleName, "cut lacks bottom-layer enclosure", s.rect});
    for (const auto& [layer, margin] : allOf) {
      if (!enclosedBy(s.rect, layer, margin)) {
        out.push_back({ruleName, "cut lacks required enclosure", s.rect});
      }
    }
  }
}

void checkActiveEnclosures(const tech::Technology& t, const std::vector<Shape>& shapes,
                           std::vector<DrcViolation>& out) {
  auto enclosed = [&](const Rect& rect, Layer layer, tech::Nm margin) {
    const Rect need = rect.inflated(margin);
    for (const Shape& s : shapes) {
      if (s.layer == layer && s.rect.containsRect(need)) return true;
    }
    return false;
  };
  for (const Shape& s : shapes) {
    if (s.layer != Layer::kActive) continue;
    const bool inPplus = enclosed(s.rect, Layer::kPPlus, t.rules.selectOverActive);
    const bool inNplus = enclosed(s.rect, Layer::kNPlus, t.rules.selectOverActive);
    if (!inPplus && !inNplus) {
      out.push_back({"select.enclosure", "active without select implant", s.rect});
    }
    if (inPplus && !enclosed(s.rect, Layer::kNWell, t.rules.nwellOverActive)) {
      out.push_back({"nwell.enclosure", "P-active outside N-well", s.rect});
    }
  }
}

void checkGates(const tech::Technology& t, const std::vector<Shape>& shapes,
                std::vector<DrcViolation>& out) {
  // Gather gate regions (poly over active) and check the end-cap rule.
  std::vector<Rect> gates;
  for (const Shape& p : shapes) {
    if (p.layer != Layer::kPoly) continue;
    for (const Shape& a : shapes) {
      if (a.layer != Layer::kActive || !p.rect.overlaps(a.rect)) continue;
      const Rect gate = p.rect.intersected(a.rect);
      gates.push_back(gate);
      const tech::Nm endcap = t.rules.polyEndcap;
      // The poly must fully cross the active in one direction and stick out
      // by the end cap on both of those sides.
      const bool crossesVertically = p.rect.y0 <= a.rect.y0 - endcap &&
                                     p.rect.y1 >= a.rect.y1 + endcap;
      const bool crossesHorizontally = p.rect.x0 <= a.rect.x0 - endcap &&
                                       p.rect.x1 >= a.rect.x1 + endcap;
      if (!crossesVertically && !crossesHorizontally) {
        out.push_back({"gate.endcap", "gate poly lacks the end-cap extension", gate});
      }
    }
  }
  // No contact cut may land on a gate.
  for (const Shape& s : shapes) {
    if (s.layer != Layer::kContact) continue;
    for (const Rect& gate : gates) {
      if (s.rect.overlaps(gate)) {
        out.push_back({"contact.over_gate", "contact cut over a gate region",
                       s.rect.intersected(gate)});
      }
    }
  }
}

}  // namespace

std::vector<DrcViolation> runDrc(const tech::Technology& t, const geom::ShapeList& shapes) {
  const tech::DesignRules& r = t.rules;
  const std::vector<Shape>& all = shapes.shapes();
  std::vector<DrcViolation> out;

  checkWidths(all, Layer::kPoly, r.polyMinWidth, "poly.width", out);
  checkWidths(all, Layer::kActive, r.activeMinWidth, "active.width", out);
  checkWidths(all, Layer::kMetal1, r.metal1MinWidth, "metal1.width", out);
  checkWidths(all, Layer::kMetal2, r.metal2MinWidth, "metal2.width", out);

  checkSpacing(all, Layer::kPoly, r.polySpacing, "poly.spacing", out);
  checkSpacing(all, Layer::kActive, r.activeSpacing, "active.spacing", out);
  checkSpacing(all, Layer::kMetal1, r.metal1Spacing, "metal1.spacing", out);
  checkSpacing(all, Layer::kMetal2, r.metal2Spacing, "metal2.spacing", out);
  checkSpacing(all, Layer::kNWell, r.nwellSpacing, "nwell.spacing", out);

  checkCutEnclosure(all, Layer::kContact, r.contactSize,
                    {{Layer::kActive, r.activeOverContact},
                     {Layer::kPoly, r.polyOverContact}},
                    {{Layer::kMetal1, r.metal1OverContact}}, "contact.enclosure", out);
  checkCutEnclosure(all, Layer::kVia1, r.via1Size, {},
                    {{Layer::kMetal1, r.metal1OverVia1},
                     {Layer::kMetal2, r.metal2OverVia1}},
                    "via1.enclosure", out);

  checkActiveEnclosures(t, all, out);
  checkGates(t, all, out);
  return out;
}

namespace {

/// Do two placed leaves share a row?  Row nodes centre their children
/// vertically, so same-row items always overlap in y while distinct rows
/// are separated by at least the inter-row gap.
bool sameBand(const geom::Rect& a, const geom::Rect& b) {
  return a.y0 <= b.y1 && b.y0 <= a.y1;
}

}  // namespace

std::vector<DrcViolation> auditSymmetry(const ConstraintSet& constraints,
                                        const std::map<std::string, PlacedLeaf>& leaves,
                                        geom::Coord tolerance) {
  using geom::Coord;
  using geom::Rect;
  std::vector<DrcViolation> out;

  /// 2*axis-x of each symmetric element (doubled to stay integral), with
  /// the rect that defines its row membership.
  struct AxisMark {
    Coord axis2 = 0;
    Rect rect;
    std::string source;
  };
  std::vector<AxisMark> marks;

  auto placed = [&](const PlacementConstraint& c,
                    const std::string& name) -> const Rect* {
    auto it = leaves.find(name);
    if (it == leaves.end()) {
      out.push_back({c.describe(), "item '" + name + "' is not placed",
                     Rect{}});
      return nullptr;
    }
    return &it->second.rect;
  };

  for (const PlacementConstraint& c : constraints.all()) {
    if (c.kind == ConstraintKind::kMirrorPair && c.items.size() == 2) {
      const Rect* a = placed(c, c.items[0]);
      const Rect* b = placed(c, c.items[1]);
      if (!a || !b) continue;
      if (!sameBand(*a, *b)) {
        out.push_back({"symmetry.mirror",
                       c.describe() + ": items sit in different rows", a->merged(*b)});
        continue;
      }
      if (std::abs(a->width() - b->width()) > tolerance ||
          std::abs(a->y0 - b->y0) > tolerance || std::abs(a->y1 - b->y1) > tolerance) {
        out.push_back({"symmetry.mirror",
                       c.describe() + ": outlines differ beyond tolerance",
                       a->merged(*b)});
        continue;
      }
      // Both orderings of the pair about the common axis agree once the
      // widths match; record the midpoint.
      marks.push_back({a->x0 + b->x1, a->merged(*b), c.describe()});
    } else if (c.kind == ConstraintKind::kSymmetryAxis) {
      for (const std::string& name : c.items) {
        const Rect* r = placed(c, name);
        if (!r) continue;
        marks.push_back({r->x0 + r->x1, *r, c.describe() + " item " + name});
      }
    }
  }

  // Every symmetric element in one row must agree on the axis.
  for (std::size_t i = 0; i < marks.size(); ++i) {
    for (std::size_t j = i + 1; j < marks.size(); ++j) {
      if (!sameBand(marks[i].rect, marks[j].rect)) continue;
      if (std::abs(marks[i].axis2 - marks[j].axis2) > 2 * tolerance) {
        out.push_back({"symmetry.axis",
                       marks[i].source + " and " + marks[j].source +
                           " disagree on the symmetry axis by " +
                           std::to_string(std::abs(marks[i].axis2 - marks[j].axis2) / 2) +
                           " nm",
                       marks[i].rect.merged(marks[j].rect)});
      }
    }
  }
  return out;
}

std::string formatViolations(const std::vector<DrcViolation>& violations) {
  std::ostringstream os;
  for (const DrcViolation& v : violations) {
    os << v.rule << ": " << v.detail << " @ (" << v.where.x0 << "," << v.where.y0 << ")-("
       << v.where.x1 << "," << v.where.y1 << ")\n";
  }
  return os.str();
}

}  // namespace lo::layout
