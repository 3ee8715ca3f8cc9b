#include "geom/geometry.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace lo::geom {
namespace {

using tech::Layer;

TEST(Rect, ConstructorNormalises) {
  const Rect r(10, 20, 0, 5);
  EXPECT_EQ(r.x0, 0);
  EXPECT_EQ(r.y0, 5);
  EXPECT_EQ(r.x1, 10);
  EXPECT_EQ(r.y1, 20);
  EXPECT_EQ(r.width(), 10);
  EXPECT_EQ(r.height(), 15);
}

TEST(Rect, AreaAndPerimeterInSi) {
  const Rect r(0, 0, 1000, 2000);  // 1 um x 2 um
  EXPECT_DOUBLE_EQ(r.areaM2(), 2e-12);
  EXPECT_DOUBLE_EQ(r.perimeterM(), 6e-6);
}

TEST(Rect, OverlapsVsTouches) {
  const Rect a(0, 0, 10, 10);
  const Rect b(10, 0, 20, 10);  // Shares an edge.
  const Rect c(5, 5, 15, 15);   // Overlaps a.
  const Rect d(11, 0, 20, 10);  // Disjoint from a.
  EXPECT_FALSE(a.overlaps(b));
  EXPECT_TRUE(a.touches(b));
  EXPECT_TRUE(a.overlaps(c));
  EXPECT_FALSE(a.overlaps(d));
  EXPECT_FALSE(a.touches(d));
}

TEST(Rect, IntersectionAndMerge) {
  const Rect a(0, 0, 10, 10);
  const Rect b(5, 5, 20, 20);
  const Rect i = a.intersected(b);
  EXPECT_EQ(i, Rect(5, 5, 10, 10));
  EXPECT_EQ(a.merged(b), Rect(0, 0, 20, 20));
  EXPECT_TRUE(a.intersected(Rect(50, 50, 60, 60)).empty());
}

TEST(Rect, DistanceBetweenDisjointRects) {
  const Rect a(0, 0, 10, 10);
  EXPECT_EQ(a.distanceTo(Rect(15, 0, 20, 10)), 5);   // Horizontal gap.
  EXPECT_EQ(a.distanceTo(Rect(0, 17, 10, 20)), 7);   // Vertical gap.
  EXPECT_EQ(a.distanceTo(Rect(13, 14, 20, 20)), 4);  // Diagonal: max-norm.
  EXPECT_EQ(a.distanceTo(Rect(5, 5, 20, 20)), 0);    // Overlapping.
}

TEST(Orient, RotationsMapPointsCorrectly) {
  const Point p{3, 1};
  EXPECT_EQ(apply(Orient::kR0, p), (Point{3, 1}));
  EXPECT_EQ(apply(Orient::kR90, p), (Point{-1, 3}));
  EXPECT_EQ(apply(Orient::kR180, p), (Point{-3, -1}));
  EXPECT_EQ(apply(Orient::kR270, p), (Point{1, -3}));
  EXPECT_EQ(apply(Orient::kMX, p), (Point{3, -1}));
  EXPECT_EQ(apply(Orient::kMY, p), (Point{-3, 1}));
}

TEST(Orient, RectTransformNormalises) {
  const Rect r(0, 0, 10, 4);
  const Rect rot = apply(Orient::kR90, r);
  EXPECT_EQ(rot.width(), 4);
  EXPECT_EQ(rot.height(), 10);
  EXPECT_LE(rot.x0, rot.x1);
}

TEST(Orient, FourQuarterTurnsAreIdentity) {
  Point p{7, -2};
  Point q = p;
  for (int i = 0; i < 4; ++i) q = apply(Orient::kR90, q);
  EXPECT_EQ(q, p);
}

TEST(ShapeList, AddSkipsEmptyRects) {
  ShapeList sl;
  sl.add(Layer::kMetal1, Rect(0, 0, 0, 10));
  EXPECT_TRUE(sl.empty());
  sl.add(Layer::kMetal1, Rect(0, 0, 5, 10));
  EXPECT_EQ(sl.size(), 1u);
}

TEST(ShapeList, BboxPerLayerAndOverall) {
  ShapeList sl;
  sl.add(Layer::kMetal1, Rect(0, 0, 10, 10));
  sl.add(Layer::kPoly, Rect(20, 20, 30, 40));
  EXPECT_EQ(sl.bbox(), Rect(0, 0, 30, 40));
  EXPECT_EQ(sl.bbox(Layer::kPoly), Rect(20, 20, 30, 40));
  EXPECT_TRUE(sl.bbox(Layer::kMetal2).empty());
}

TEST(ShapeList, MergeAppliesTransformThenTranslation) {
  ShapeList child;
  child.add(Layer::kMetal1, Rect(0, 0, 10, 4), "netA");
  ShapeList parent;
  parent.merge(child, Orient::kR90, 100, 200);
  ASSERT_EQ(parent.size(), 1u);
  const Shape& s = parent.shapes()[0];
  EXPECT_EQ(s.rect, Rect(96, 200, 100, 210));
  EXPECT_EQ(s.net, "netA");
}

TEST(ShapeList, NetAndLayerQueries) {
  ShapeList sl;
  sl.add(Layer::kMetal1, Rect(0, 0, 10, 10), "vdd");
  sl.add(Layer::kMetal1, Rect(20, 0, 30, 10), "gnd");
  sl.add(Layer::kPoly, Rect(0, 0, 5, 5), "vdd");
  EXPECT_EQ(sl.bbox(Layer::kMetal1), Rect(0, 0, 30, 10));
  EXPECT_EQ(sl.bbox(Layer::kPoly), Rect(0, 0, 5, 5));
  EXPECT_TRUE(sl.bbox(Layer::kMetal2).empty());
  EXPECT_EQ(std::ranges::count_if(sl.shapes(), [](const Shape& s) { return s.net == "vdd"; }),
            2);
  EXPECT_DOUBLE_EQ(sl.drawnAreaM2(Layer::kMetal1), 2.0e-16);
}

}  // namespace
}  // namespace lo::geom
