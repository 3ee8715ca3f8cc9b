#include "layout/constraints.hpp"

#include <gtest/gtest.h>

#include "layout/ota_layout.hpp"
#include "layout/two_stage_layout.hpp"

namespace lo::layout {
namespace {

std::vector<std::string> detailsOf(const std::vector<ConstraintViolation>& violations) {
  std::vector<std::string> out;
  out.reserve(violations.size());
  for (const ConstraintViolation& v : violations) out.push_back(v.detail);
  return out;
}

bool anyDetailContains(const std::vector<ConstraintViolation>& violations,
                       const std::string& needle) {
  for (const ConstraintViolation& v : violations) {
    if (v.detail.find(needle) != std::string::npos) return true;
  }
  return false;
}

TEST(Constraints, DescribeNamesKindGroupAndItems) {
  EXPECT_EQ(PlacementConstraint::mirrorPair("A", "B").describe(), "mirror_pair(A, B)");
  EXPECT_EQ(PlacementConstraint::commonCentroid("PAIR", {"M1", "M2"}).describe(),
            "common_centroid(PAIR: M1, M2)");
  EXPECT_EQ(PlacementConstraint::sameRow({"A", "B", "C"}).describe(),
            "same_row(A, B, C)");
}

TEST(Constraints, ValidSetPassesValidation) {
  ConstraintSet cs;
  cs.add(PlacementConstraint::commonCentroid("PAIR", {"M1", "M2"}));
  cs.add(PlacementConstraint::mirrorPair("A", "B"));
  cs.add(PlacementConstraint::sameRow({"A", "PAIR", "B"}));
  cs.add(PlacementConstraint::symmetryAxis({"PAIR"}));
  cs.add(PlacementConstraint::proximity("A", "B", 2.0));
  const std::vector<std::string> items = {"A", "B", "PAIR"};
  EXPECT_TRUE(validateConstraints(cs, &items).empty());
  EXPECT_NO_THROW(requireValidConstraints(cs, &items));
}

TEST(Constraints, CatchesStructuralViolations) {
  ConstraintSet cs;
  cs.add(PlacementConstraint::mirrorPair("A", "A"));          // Self mirror.
  cs.add(PlacementConstraint::commonCentroid("S", {"M1", "M2", "M3"}));  // Three devices.
  cs.add(PlacementConstraint::interdigitate("T", {"M1", "M4"}));  // M1 fused twice.
  cs.add(PlacementConstraint::sameRow({"A", "A"}));           // Duplicate in the row.
  cs.add(PlacementConstraint::proximity("A", "B", -1.0));     // Bad weight.
  const std::vector<ConstraintViolation> violations = validateConstraints(cs);
  EXPECT_TRUE(anyDetailContains(violations, "cannot mirror itself"));
  EXPECT_TRUE(anyDetailContains(violations, "exactly two devices"));
  EXPECT_TRUE(anyDetailContains(violations, "already fused into"));
  EXPECT_TRUE(anyDetailContains(violations, "duplicate item 'A'"));
  EXPECT_TRUE(anyDetailContains(violations, "weight must be positive"));
}

TEST(Constraints, CatchesUnknownItemsWhenNamesGiven) {
  ConstraintSet cs;
  cs.add(PlacementConstraint::sameRow({"A", "GHOST"}));
  const std::vector<std::string> items = {"A"};
  const auto violations = validateConstraints(cs, &items);
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(anyDetailContains(violations, "unknown item 'GHOST'"));
  // Without names the same set is structurally fine.
  EXPECT_TRUE(validateConstraints(cs).empty());
}

TEST(Constraints, MirrorPairMayNotSpanTwoRows) {
  ConstraintSet cs;
  cs.add(PlacementConstraint::mirrorPair("A", "B"));
  cs.add(PlacementConstraint::sameRow({"A"}));
  cs.add(PlacementConstraint::sameRow({"B"}));
  const auto violations = validateConstraints(cs);
  ASSERT_FALSE(violations.empty());
  EXPECT_TRUE(anyDetailContains(violations, "spans two rows"));
}

TEST(Constraints, ItemInTwoMirrorPairsFlagged) {
  ConstraintSet cs;
  cs.add(PlacementConstraint::mirrorPair("A", "B"));
  cs.add(PlacementConstraint::mirrorPair("B", "C"));
  EXPECT_TRUE(anyDetailContains(validateConstraints(cs), "already belongs to"));
}

TEST(Constraints, RequireThrowsWithEveryViolationListed) {
  ConstraintSet cs;
  cs.add(PlacementConstraint::mirrorPair("A", "A"));
  cs.add(PlacementConstraint::proximity("A", "B", 0.0));
  try {
    requireValidConstraints(cs);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("cannot mirror itself"), std::string::npos) << msg;
    EXPECT_NE(msg.find("weight must be positive"), std::string::npos) << msg;
  }
}

TEST(Constraints, QueriesExposeLocksMatchingAndAxis) {
  ConstraintSet cs;
  cs.add(PlacementConstraint::mirrorPair("L", "R"));
  cs.add(PlacementConstraint::commonCentroid("PAIR", {"M1", "M2"}));
  cs.add(PlacementConstraint::symmetryAxis({"PAIR", "S"}));
  cs.add(PlacementConstraint::symmetryAxis({"S"}));  // Duplicate mention.

  const auto locks = cs.mirrorLocks();
  ASSERT_EQ(locks.size(), 1u);
  EXPECT_EQ(locks.at("R"), "L");

  const PlacementConstraint* matching = cs.matchingFor("PAIR");
  ASSERT_NE(matching, nullptr);
  EXPECT_EQ(matching->kind, ConstraintKind::kCommonCentroid);
  EXPECT_EQ(cs.matchingFor("NOPE"), nullptr);

  EXPECT_EQ(cs.axisItems(), (std::vector<std::string>{"PAIR", "S"}));
  EXPECT_EQ(cs.ofKind(ConstraintKind::kSymmetryAxis).size(), 2u);
}

// The built-in topologies' declared intent must itself validate -- this is
// what the engine checks before the first layout call.
TEST(Constraints, BuiltInTopologyDeclarationsAreValid) {
  for (bool bias : {false, true}) {
    const ConstraintSet ota = otaPlacementConstraints(bias);
    EXPECT_TRUE(validateConstraints(ota).empty()) << "bias=" << bias;
    EXPECT_GE(ota.size(), 9u);
  }
  const ConstraintSet twoStage = twoStagePlacementConstraints();
  EXPECT_TRUE(validateConstraints(twoStage).empty());
  ASSERT_NE(twoStage.matchingFor("MIRROR"), nullptr);
  EXPECT_EQ(twoStage.matchingFor("MIRROR")->items,
            (std::vector<std::string>{"MP3", "MP4"}));
  EXPECT_TRUE(detailsOf(validateConstraints(twoStage)).empty());
}

}  // namespace
}  // namespace lo::layout
