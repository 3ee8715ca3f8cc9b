#include "geom/geometry.hpp"

namespace lo::geom {

Point apply(Orient o, Point p) {
  switch (o) {
    case Orient::kR0: return p;
    case Orient::kR90: return {-p.y, p.x};
    case Orient::kR180: return {-p.x, -p.y};
    case Orient::kR270: return {p.y, -p.x};
    case Orient::kMX: return {p.x, -p.y};
    case Orient::kMY: return {-p.x, p.y};
    case Orient::kMXR90: return {-p.y, -p.x};
    case Orient::kMYR90: return {p.y, p.x};
  }
  return p;
}

Rect apply(Orient o, const Rect& r) {
  const Point a = apply(o, Point{r.x0, r.y0});
  const Point b = apply(o, Point{r.x1, r.y1});
  return Rect{a.x, a.y, b.x, b.y};  // Constructor normalises.
}

void ShapeList::merge(const ShapeList& other, Orient o, Coord dx, Coord dy) {
  shapes_.reserve(shapes_.size() + other.shapes_.size());
  for (const Shape& s : other.shapes_) {
    Shape t = s;
    t.rect = apply(o, s.rect).translated(dx, dy);
    shapes_.push_back(std::move(t));
  }
}

Rect ShapeList::bbox() const {
  if (shapes_.empty()) return Rect{};
  Rect box = shapes_.front().rect;
  for (const Shape& s : shapes_) box = box.merged(s.rect);
  return box;
}

Rect ShapeList::bbox(tech::Layer layer) const {
  Rect box;
  bool first = true;
  for (const Shape& s : shapes_) {
    if (s.layer != layer) continue;
    box = first ? s.rect : box.merged(s.rect);
    first = false;
  }
  return first ? Rect{} : box;
}

double ShapeList::drawnAreaM2(tech::Layer layer) const {
  double area = 0.0;
  for (const Shape& s : shapes_) {
    if (s.layer == layer) area += s.rect.areaM2();
  }
  return area;
}

}  // namespace lo::geom
