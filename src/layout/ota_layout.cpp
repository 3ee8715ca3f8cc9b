#include "layout/ota_layout.hpp"

namespace lo::layout {

namespace {

using circuit::FoldedCascodeOtaDesign;
using circuit::OtaBiasDesign;
using circuit::OtaGroup;
using tech::MosType;

/// Bias-generator legs (drawn only when a bias design is given), each tied
/// to the rail its source sits on.
struct BiasLeg {
  const char* name;
  MosType type;
  const char *drain, *gate, *source;
  const device::MosGeometry OtaBiasDesign::* geometry;
};
const BiasLeg kBiasLegs[] = {
    {"MNB1", MosType::kNmos, "vbn", "vbn", "gnd", &OtaBiasDesign::nDiode},
    {"MNB2", MosType::kNmos, "vp1", "vbn", "gnd", &OtaBiasDesign::nDiode},
    {"MNB3", MosType::kNmos, "vc1", "vc1", "gnd", &OtaBiasDesign::nCascDiode},
    {"MNB5", MosType::kNmos, "vc3", "vbn", "gnd", &OtaBiasDesign::nDiode},
    {"MPB1", MosType::kPmos, "vp1", "vp1", "vdd", &OtaBiasDesign::pDiode},
    {"MPB4", MosType::kPmos, "vc1", "vp1", "vdd", &OtaBiasDesign::pDiode},
    {"MPB2", MosType::kPmos, "vc3", "vc3", "vdd", &OtaBiasDesign::pCascDiode},
};

/// The item whose fold plan and junctions each group reports.
const std::pair<OtaGroup, const char*> kGroupItems[] = {
    {OtaGroup::kInputPair, "PAIR"}, {OtaGroup::kTail, "MP5"},
    {OtaGroup::kSink, "SINK"},      {OtaGroup::kNCascode, "MN1C"},
    {OtaGroup::kPSource, "MP3"},    {OtaGroup::kPCascode, "MP3C"},
};

RowLayoutDecl otaDeclaration(const FoldedCascodeOtaDesign& d, const OtaBiasDesign* bias) {
  RowLayoutDecl decl;
  decl.cellName = "OTA";
  decl.constraints = otaPlacementConstraints(bias != nullptr);
  auto motif = [&](const char* name, OtaGroup g, MosType type, const char* drain,
                   const char* gate, const char* source, const char* bulk) {
    return MotifDecl{name, type, d.geometry(g), circuit::otaGroupCurrent(d, g),
                     drain, gate, source, bulk};
  };
  // Fig. 5's top row, then the bottom row's cascodes.
  decl.motifs = {
      motif("MP3C", OtaGroup::kPCascode, MosType::kPmos, "y1", "vc3", "z1", "vdd"),
      motif("MP3", OtaGroup::kPSource, MosType::kPmos, "z1", "y1", "vdd", "vdd"),
      motif("MP5", OtaGroup::kTail, MosType::kPmos, "tail", "vp1", "vdd", "vdd"),
      motif("MP4", OtaGroup::kPSource, MosType::kPmos, "z2", "y1", "vdd", "vdd"),
      motif("MP4C", OtaGroup::kPCascode, MosType::kPmos, "out", "vc3", "z2", "vdd"),
      motif("MN1C", OtaGroup::kNCascode, MosType::kNmos, "y1", "vc1", "x1", "gnd"),
      motif("MN2C", OtaGroup::kNCascode, MosType::kNmos, "out", "vc1", "x2", "gnd"),
  };
  // The pair's dummies are held off at VDD and its floating well rides the
  // tail node.
  decl.stacks = {
      {"PAIR", MosType::kPmos, d.inputPair, "tail", "vdd", "tail",
       {{.drainNet = "x1", .gateNet = "inp", .current = d.tailCurrent / 2},
        {.drainNet = "x2", .gateNet = "inn", .current = d.tailCurrent / 2}}},
      {"SINK", MosType::kNmos, d.sink, "gnd", "gnd", "",
       {{.drainNet = "x1", .gateNet = "vbn", .current = d.sinkCurrent()},
        {.drainNet = "x2", .gateNet = "vbn", .current = d.sinkCurrent()}}},
  };
  const double iBias = bias ? bias->biasCurrent : 0.0;
  if (bias) {
    for (const BiasLeg& b : kBiasLegs) {
      decl.biasLegs.push_back(
          {b.name, b.type, bias->*b.geometry, iBias, b.drain, b.gate, b.source, b.source});
    }
  }
  const double iSink = d.sinkCurrent();
  const double iCasc = d.cascodeCurrent;
  decl.nets = {
      {"tail", d.tailCurrent}, {"x1", iSink},  {"x2", iSink},  {"y1", iCasc},
      {"z1", iCasc},           {"z2", iCasc},  {"out", iCasc},
      {"vdd", d.supplyCurrent() + 4.0 * iBias},
      {"gnd", d.supplyCurrent() + 4.0 * iBias}, {"inp", 0.0},   {"inn", 0.0},
      {"vp1", iBias},          {"vbn", iBias}, {"vc1", iBias}, {"vc3", iBias},
  };
  // Outer channels host every trunk that cannot sit between rows; with the
  // bias generator present up to ~10 tracks stack up there.
  decl.channelMargin = 26000;
  return decl;
}

}  // namespace

ConstraintSet otaPlacementConstraints(bool includeBias) {
  ConstraintSet cs;
  // Matched groups fuse into stack items.
  cs.add(PlacementConstraint::commonCentroid("PAIR", {"MP1", "MP2"}));
  cs.add(PlacementConstraint::interdigitate("SINK", {"MN5", "MN6"}));
  // The cascode legs mirror about the core's vertical axis.
  cs.add(PlacementConstraint::mirrorPair("MN1C", "MN2C"));
  cs.add(PlacementConstraint::mirrorPair("MP3C", "MP4C"));
  cs.add(PlacementConstraint::mirrorPair("MP3", "MP4"));
  // Fig. 5's three diffusion rows, bottom to top; the bias legs ride the
  // right ends of the outer rows.
  std::vector<std::string> bottom = {"MN1C", "SINK", "MN2C"};
  std::vector<std::string> top = {"MP3C", "MP3", "MP5", "MP4", "MP4C"};
  if (includeBias) {
    for (const BiasLeg& b : kBiasLegs) {
      (b.type == MosType::kNmos ? bottom : top).push_back(b.name);
    }
  }
  cs.add(PlacementConstraint::sameRow(std::move(bottom)));
  cs.add(PlacementConstraint::sameRow({"PAIR"}));
  cs.add(PlacementConstraint::sameRow(std::move(top)));
  // The matched stacks and the tail sit on the symmetry axis, and the
  // pair's drains want short wires down to the sink.
  cs.add(PlacementConstraint::symmetryAxis({"PAIR", "SINK", "MP5"}));
  cs.add(PlacementConstraint::proximity("PAIR", "SINK"));
  return cs;
}

OtaLayoutResult generateOtaLayout(const tech::Technology& t,
                                  const FoldedCascodeOtaDesign& design,
                                  const LayoutOptions& options, bool generateGeometry,
                                  const OtaBiasDesign* bias) {
  OtaLayoutResult r;
  static_cast<RowLayout&>(r) =
      generateRowLayout(t, otaDeclaration(design, bias), options, generateGeometry);
  for (const auto& [group, item] : kGroupItems) {
    r.foldPlans[group] = r.itemFoldPlans.at(item);
    r.junctions[group] = r.itemJunctions.at(item);
  }
  r.pairPlan = r.stackPlans.at("PAIR");
  r.sinkPlan = r.stackPlans.at("SINK");
  return r;
}

}  // namespace lo::layout
