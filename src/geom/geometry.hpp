// Integer-nanometre rectilinear geometry for the layout system.
//
// All layout shapes are axis-aligned rectangles on symbolic layers.  Using
// integer coordinates makes grid snapping, DRC and area bookkeeping exact.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "tech/layers.hpp"

namespace lo::geom {

using Coord = std::int64_t;  ///< Position / distance in nanometres.

struct Point {
  Coord x = 0;
  Coord y = 0;
  friend bool operator==(const Point&, const Point&) = default;
  [[nodiscard]] Point operator+(Point o) const { return {x + o.x, y + o.y}; }
  [[nodiscard]] Point operator-(Point o) const { return {x - o.x, y - o.y}; }
};

/// Axis-aligned rectangle, half-open semantics are NOT used: [x0,x1]x[y0,y1]
/// with x0 <= x1 and y0 <= y1 after normalize().
struct Rect {
  Coord x0 = 0, y0 = 0, x1 = 0, y1 = 0;

  Rect() = default;
  Rect(Coord ax0, Coord ay0, Coord ax1, Coord ay1) : x0(ax0), y0(ay0), x1(ax1), y1(ay1) {
    normalize();
  }

  friend bool operator==(const Rect&, const Rect&) = default;

  void normalize() {
    if (x0 > x1) std::swap(x0, x1);
    if (y0 > y1) std::swap(y0, y1);
  }

  [[nodiscard]] Coord width() const { return x1 - x0; }
  [[nodiscard]] Coord height() const { return y1 - y0; }
  [[nodiscard]] bool empty() const { return width() == 0 || height() == 0; }
  [[nodiscard]] Point center() const { return {(x0 + x1) / 2, (y0 + y1) / 2}; }
  [[nodiscard]] double areaNm2() const {
    return static_cast<double>(width()) * static_cast<double>(height());
  }
  /// Area in square metres.
  [[nodiscard]] double areaM2() const { return areaNm2() * 1e-18; }
  /// Perimeter in metres.
  [[nodiscard]] double perimeterM() const {
    return 2.0 * static_cast<double>(width() + height()) * 1e-9;
  }

  [[nodiscard]] Rect translated(Coord dx, Coord dy) const {
    return {x0 + dx, y0 + dy, x1 + dx, y1 + dy};
  }
  [[nodiscard]] Rect inflated(Coord d) const { return {x0 - d, y0 - d, x1 + d, y1 + d}; }

  [[nodiscard]] bool contains(Point p) const {
    return p.x >= x0 && p.x <= x1 && p.y >= y0 && p.y <= y1;
  }
  [[nodiscard]] bool containsRect(const Rect& r) const {
    return r.x0 >= x0 && r.x1 <= x1 && r.y0 >= y0 && r.y1 <= y1;
  }
  /// True if the interiors overlap (touching edges do not count).
  [[nodiscard]] bool overlaps(const Rect& r) const {
    return x0 < r.x1 && r.x0 < x1 && y0 < r.y1 && r.y0 < y1;
  }
  /// True if the rectangles overlap or share boundary.
  [[nodiscard]] bool touches(const Rect& r) const {
    return x0 <= r.x1 && r.x0 <= x1 && y0 <= r.y1 && r.y0 <= y1;
  }

  /// Bounding box of the union.
  [[nodiscard]] Rect merged(const Rect& r) const {
    return {std::min(x0, r.x0), std::min(y0, r.y0), std::max(x1, r.x1), std::max(y1, r.y1)};
  }

  /// Intersection; empty() rect when disjoint.
  [[nodiscard]] Rect intersected(const Rect& r) const {
    const Coord ix0 = std::max(x0, r.x0), iy0 = std::max(y0, r.y0);
    const Coord ix1 = std::min(x1, r.x1), iy1 = std::min(y1, r.y1);
    if (ix0 >= ix1 || iy0 >= iy1) return Rect{};
    Rect out;
    out.x0 = ix0; out.y0 = iy0; out.x1 = ix1; out.y1 = iy1;
    return out;
  }

  /// Minimum axis-aligned separation between two disjoint rects (0 if they
  /// touch or overlap).  Used by the DRC spacing checks.
  [[nodiscard]] Coord distanceTo(const Rect& r) const {
    const Coord dx = std::max<Coord>({r.x0 - x1, x0 - r.x1, 0});
    const Coord dy = std::max<Coord>({r.y0 - y1, y0 - r.y1, 0});
    // Rectilinear rules measure euclidean corner-to-corner only when both
    // separations are non-zero; we use the max-norm convention common in
    // lambda rules: the spacing violation is on the larger of the two axes
    // only if the projections overlap, otherwise the diagonal distance.
    if (dx == 0) return dy;
    if (dy == 0) return dx;
    return std::max(dx, dy);
  }
};

/// One rectangle on a symbolic layer, optionally tagged with the net name it
/// belongs to (used by the extractor).
struct Shape {
  tech::Layer layer = tech::Layer::kMetal1;
  Rect rect;
  std::string net;  ///< Empty when the shape is not net-tagged.
};

/// Eight rectilinear orientations (GDSII-style R0..R270 and mirrored).
enum class Orient : std::uint8_t { kR0, kR90, kR180, kR270, kMX, kMY, kMXR90, kMYR90 };

/// Apply an orientation about the origin.
[[nodiscard]] Point apply(Orient o, Point p);
/// Apply an orientation about the origin to a rect (result normalised).
[[nodiscard]] Rect apply(Orient o, const Rect& r);

/// A bag of shapes; the unit of composition for layout cells.
class ShapeList {
 public:
  void add(tech::Layer layer, const Rect& r, std::string net = {}) {
    if (!r.empty()) shapes_.push_back({layer, r, std::move(net)});
  }
  void add(const Shape& s) {
    if (!s.rect.empty()) shapes_.push_back(s);
  }
  /// Append all of `other`, transformed by `o` then translated by (dx, dy).
  void merge(const ShapeList& other, Orient o = Orient::kR0, Coord dx = 0, Coord dy = 0);

  [[nodiscard]] const std::vector<Shape>& shapes() const { return shapes_; }
  [[nodiscard]] bool empty() const { return shapes_.empty(); }
  [[nodiscard]] std::size_t size() const { return shapes_.size(); }

  /// Bounding box across all layers; empty Rect if no shapes.
  [[nodiscard]] Rect bbox() const;
  /// Bounding box restricted to one layer; empty Rect if none.
  [[nodiscard]] Rect bbox(tech::Layer layer) const;

  /// Total drawn area on a layer [m^2], counting overlaps twice (the
  /// generators avoid overlapping same-layer shapes on purpose).
  [[nodiscard]] double drawnAreaM2(tech::Layer layer) const;

  void clear() { shapes_.clear(); }

 private:
  std::vector<Shape> shapes_;
};

}  // namespace lo::geom
