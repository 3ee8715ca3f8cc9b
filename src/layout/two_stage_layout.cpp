#include "layout/two_stage_layout.hpp"

namespace lo::layout {

namespace {

using circuit::TwoStageGroup;
using circuit::TwoStageOtaDesign;
using tech::MosType;

/// The item whose fold plan and junctions each group reports.
const std::pair<TwoStageGroup, const char*> kGroupItems[] = {
    {TwoStageGroup::kInputPair, "PAIR"}, {TwoStageGroup::kMirror, "MIRROR"},
    {TwoStageGroup::kTail, "MN5"},       {TwoStageGroup::kDriver, "MP6"},
    {TwoStageGroup::kSink2, "MN7"},
};

RowLayoutDecl twoStageDeclaration(const TwoStageOtaDesign& d) {
  RowLayoutDecl decl;
  decl.cellName = "TWO_STAGE";
  decl.constraints = twoStagePlacementConstraints();
  auto motif = [&](const char* name, TwoStageGroup g, MosType type, const char* drain,
                   const char* gate, const char* source) {
    return MotifDecl{name, type, d.geometry(g), circuit::twoStageGroupCurrent(d, g),
                     drain, gate, source, source};
  };
  decl.motifs = {
      motif("MN5", TwoStageGroup::kTail, MosType::kNmos, "tail", "vbn", "gnd"),
      motif("MN7", TwoStageGroup::kSink2, MosType::kNmos, "out", "vbn", "gnd"),
      motif("MP6", TwoStageGroup::kDriver, MosType::kPmos, "out", "o1", "vdd"),
  };
  const double iHalf = d.tailCurrent / 2;
  decl.stacks = {
      {"PAIR", MosType::kNmos, d.inputPair, "tail", "gnd", "",
       {{.drainNet = "d1", .gateNet = "inn", .current = iHalf},
        {.drainNet = "o1", .gateNet = "inp", .current = iHalf}}},
      {"MIRROR", MosType::kPmos, d.mirror, "vdd", "vdd", "vdd",
       {{.drainNet = "d1", .gateNet = "d1", .current = iHalf},
        {.drainNet = "o1", .gateNet = "d1", .current = iHalf}}},
  };
  // CC's bottom plate sits on the Rz side: its substrate parasitic loads
  // the midpoint, not the output.
  CapacitorSpec cc;
  cc.name = "CC";
  cc.farads = d.cc;
  cc.bottomNet = "rzm";
  cc.topNet = "out";
  cc.aspect = 2.0;
  decl.capacitors = {cc};
  ResistorSpec rz;
  rz.name = "RZ";
  rz.ohms = d.rz;
  rz.netA = "o1";
  rz.netB = "rzm";
  decl.resistors = {rz};
  decl.nets = {
      {"tail", d.tailCurrent}, {"d1", iHalf},  {"o1", iHalf},   {"out", d.stage2Current},
      {"rzm", 0.0},            {"inp", 0.0},   {"inn", 0.0},    {"vbn", 0.0},
      {"vdd", d.supplyCurrent()}, {"gnd", d.supplyCurrent()},
  };
  decl.channelMargin = 16000;
  return decl;
}

}  // namespace

ConstraintSet twoStagePlacementConstraints() {
  ConstraintSet cs;
  cs.add(PlacementConstraint::commonCentroid("PAIR", {"MN1", "MN2"}));
  cs.add(PlacementConstraint::commonCentroid("MIRROR", {"MP3", "MP4"}));
  // Three rows, bottom to top: diffusion, passives, diffusion-in-well.
  cs.add(PlacementConstraint::sameRow({"MN5", "PAIR", "MN7"}));
  cs.add(PlacementConstraint::sameRow({"CC", "RZ"}));
  cs.add(PlacementConstraint::sameRow({"MIRROR", "MP6"}));
  // The Miller compensation network stays tightly coupled.
  cs.add(PlacementConstraint::proximity("CC", "RZ"));
  return cs;
}

TwoStageLayoutResult generateTwoStageLayout(const tech::Technology& t,
                                            const TwoStageOtaDesign& design,
                                            const LayoutOptions& options,
                                            bool generateGeometry) {
  TwoStageLayoutResult r;
  static_cast<RowLayout&>(r) =
      generateRowLayout(t, twoStageDeclaration(design), options, generateGeometry);
  for (const auto& [group, item] : kGroupItems) {
    r.foldPlans[group] = r.itemFoldPlans.at(item);
    r.junctions[group] = r.itemJunctions.at(item);
  }
  r.pairPlan = r.stackPlans.at("PAIR");
  r.ccInfo = r.capacitors.at("CC");
  r.rzInfo = r.resistors.at("RZ");
  return r;
}

}  // namespace lo::layout
