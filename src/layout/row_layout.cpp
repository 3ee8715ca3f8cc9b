#include "layout/row_layout.hpp"

#include <stdexcept>

#include "layout/mos_motif.hpp"
#include "tech/units.hpp"

namespace lo::layout {

namespace {

using device::FoldPlan;
using device::FoldStyle;
using geom::Rect;

/// Fold counts offered for a device of width `w`: even counts under the
/// internal-drain policy, every count otherwise, while each finger stays
/// at least the minimum active width.
std::vector<int> foldCandidates(const tech::Technology& t, double w, FoldStyle style,
                                int maxCandidates) {
  const double minW = nmToMeters(t.rules.activeMinWidth);
  const int step = style == FoldStyle::kDrainInternal ? 2 : 1;
  std::vector<int> out;
  for (int nf = step; static_cast<int>(out.size()) < maxCandidates; nf += step) {
    if (w / nf < minW) break;
    out.push_back(nf);
  }
  if (out.empty()) out.push_back(step);
  return out;
}

RowItem mosItem(const std::string& name, tech::MosType type, const std::string& bulk) {
  RowItem it;
  it.name = name;
  it.kind = type == tech::MosType::kPmos ? RowKind::kPmos : RowKind::kNmos;
  if (type == tech::MosType::kPmos) it.wellNet = bulk;
  return it;
}

/// The stack a declaration draws at `fingers` folds per device.
StackSpec stackSpec(const StackDecl& s, const PlacementConstraint& matching, int fingers) {
  StackSpec spec;
  spec.name = s.name;
  spec.type = s.type;
  spec.unitWidth = s.geometry.w / fingers;
  spec.drawnL = s.geometry.l;
  spec.sourceNet = s.source;
  spec.dummyGateNet = s.dummyGate;
  spec.bulkNet = s.bulk;
  spec.devices = s.devices;
  for (std::size_t i = 0; i < spec.devices.size(); ++i) {
    spec.devices[i].name = matching.items[i];
    spec.devices[i].fingers = fingers;
  }
  spec.pattern = matching.kind == ConstraintKind::kCommonCentroid
                     ? StackPattern::kCommonCentroid
                     : StackPattern::kInterdigitated;
  spec.emitWellAndSelect = false;
  return spec;
}

}  // namespace

RowLayout generateRowLayout(const tech::Technology& t, const RowLayoutDecl& decl,
                            const LayoutOptions& options, bool generateGeometry) {
  RowLayout result;

  // --- Passives are drawn up front: their outline is their one shape. ---
  std::vector<Cell> passives;
  for (const CapacitorSpec& c : decl.capacitors) {
    passives.push_back(generateCapacitor(t, c, &result.capacitors[c.name]));
  }
  for (const ResistorSpec& r : decl.resistors) {
    passives.push_back(generateResistor(t, r, &result.resistors[r.name]));
  }

  // --- Shape menus and row items. ---
  std::vector<const PlacementConstraint*> matchings;
  for (const StackDecl& s : decl.stacks) {
    const PlacementConstraint* c = decl.constraints.matchingFor(s.name);
    if (!c || c->items.size() != s.devices.size()) {
      throw std::invalid_argument("stack '" + s.name +
                                  "' needs a matching constraint over its devices");
    }
    matchings.push_back(c);
  }
  std::vector<RowItem> items;
  for (const MotifDecl& m : decl.motifs) {
    RowItem it = mosItem(m.name, m.type, m.bulk);
    for (int nf : foldCandidates(t, m.geometry.w, options.foldStyle, options.maxFoldCandidates)) {
      const FoldPlan plan = device::planFoldsExact(t.rules, m.geometry.w, nf, options.foldStyle);
      const MosMotifInfo info = motifShape(t, plan, m.geometry.l, m.current);
      it.options.push_back({info.width, info.height, nf});
    }
    it.nets = {m.drain, m.gate, m.source};
    items.push_back(std::move(it));
  }
  for (std::size_t i = 0; i < decl.stacks.size(); ++i) {
    const StackDecl& s = decl.stacks[i];
    RowItem it = mosItem(s.name, s.type, s.bulk);
    for (int nf : foldCandidates(t, s.geometry.w, FoldStyle::kDrainInternal,
                                 options.maxFoldCandidates)) {
      const StackExtents e = stackExtents(t, stackSpec(s, *matchings[i], nf));
      it.options.push_back({e.width, e.height, nf});
    }
    for (const StackDevice& d : s.devices) {
      it.nets.push_back(d.drainNet);
      it.nets.push_back(d.gateNet);
    }
    it.nets.push_back(s.source);
    items.push_back(std::move(it));
  }
  // Bias legs are small: a single fold is enough.
  auto legPlan = [&](const MotifDecl& m) {
    return device::planFoldsExact(t.rules, m.geometry.w, 1, FoldStyle::kAlternating);
  };
  for (const MotifDecl& m : decl.biasLegs) {
    RowItem it = mosItem(m.name, m.type, m.bulk);
    it.annex = true;
    const MosMotifInfo info = motifShape(t, legPlan(m), m.geometry.l, m.current);
    it.options = {{info.width, info.height, 1}};
    it.nets = {m.drain, m.gate, m.source};
    items.push_back(std::move(it));
  }
  for (const Cell& cell : passives) {
    RowItem it;
    it.name = cell.name;
    it.kind = RowKind::kPassive;
    const Rect box = cell.bbox();
    it.options = {{box.width(), box.height(), 0}};
    for (const Port& p : cell.ports) it.nets.push_back(p.net);
    items.push_back(std::move(it));
  }

  // --- Constraint-driven row placement. ---
  result.placement =
      RowPlacer(t, std::move(items), decl.constraints).place(options.placer);
  const FloorplanResult& fp = result.placement.floorplan;
  const std::map<std::string, int>& tags = result.placement.tags;
  result.width = fp.width;
  result.height = fp.height;

  // --- Fold plans, junctions and drawing (ports are needed even in
  // parasitic mode). ---
  Cell assembly;
  assembly.name = decl.cellName;
  std::vector<RowActive> actives;
  auto place = [&](const Cell& child) {
    const Rect& where = fp.leaves.at(child.name).rect;
    const Rect box = child.bbox();
    const geom::Coord dx = where.x0 - box.x0, dy = where.y0 - box.y0;
    assembly.place(child, geom::Orient::kR0, dx, dy);
    return child.shapes.bbox(tech::Layer::kActive).translated(dx, dy);
  };
  auto placeMos = [&](const Cell& child, tech::MosType type, const std::string& bulk) {
    actives.push_back({type, bulk, place(child)});
  };
  auto drawMotif = [&](const MotifDecl& m, const FoldPlan& plan) {
    result.itemFoldPlans[m.name] = plan;
    device::MosGeometry& j = result.itemJunctions[m.name] = m.geometry;
    device::applyDiffusionGeometry(t.rules, plan, j);
    MosMotifSpec spec;
    spec.name = m.name;
    spec.type = m.type;
    spec.plan = plan;
    spec.drawnL = m.geometry.l;
    spec.terminalCurrent = m.current;
    spec.drainNet = m.drain;
    spec.gateNet = m.gate;
    spec.sourceNet = m.source;
    spec.bulkNet = m.bulk;
    spec.emitWellAndSelect = false;
    placeMos(generateMosMotif(t, spec), m.type, m.bulk);
  };
  for (const MotifDecl& m : decl.motifs) {
    drawMotif(m, device::planFoldsExact(t.rules, m.geometry.w, tags.at(m.name),
                                        options.foldStyle));
  }
  for (std::size_t i = 0; i < decl.stacks.size(); ++i) {
    const StackDecl& s = decl.stacks[i];
    const int nf = tags.at(s.name);
    const StackSpec spec = stackSpec(s, *matchings[i], nf);
    StackPlan& plan = result.stackPlans[s.name] = planStack(spec);
    fillStackJunctions(t.rules, spec, plan);
    result.itemJunctions[s.name] = plan.metrics[0].junctions;
    FoldPlan& fold = result.itemFoldPlans[s.name];
    fold.nf = nf;
    fold.foldWidth = spec.unitWidth;
    fold.totalWidth = fold.foldWidth * nf;
    placeMos(generateStack(t, spec), s.type, s.bulk);
  }
  for (const MotifDecl& m : decl.biasLegs) drawMotif(m, legPlan(m));
  for (const Cell& cell : passives) (void)place(cell);

  // --- Merged wells and selects per row ("exact well sizes"), routing in
  // the channels between and around the rows, and the report. ---
  const geom::ShapeList wells = mergedRowWells(t, actives);
  result.routing = routeCell(t, assembly, decl.nets,
                             rowChannels(t, result.placement, decl.channelMargin),
                             generateGeometry);
  result.parasitics = buildReport(t, result.routing, wells, {"vdd"});
  // The passives' substrate parasitics join the report.
  for (const CapacitorSpec& c : decl.capacitors) {
    result.parasitics.nets[c.bottomNet].routingCap += result.capacitors.at(c.name).bottomParasitic;
  }
  for (const ResistorSpec& r : decl.resistors) {
    const double half = result.resistors.at(r.name).parasiticCap / 2.0;
    result.parasitics.nets[r.netA].routingCap += half;
    result.parasitics.nets[r.netB].routingCap += half;
  }

  if (generateGeometry) {
    assembly.shapes.merge(wells, geom::Orient::kR0, 0, 0);
    assembly.shapes.merge(result.routing.wires, geom::Orient::kR0, 0, 0);
    result.cell = std::move(assembly);
    const Rect box = result.cell.bbox();
    result.width = box.width();
    result.height = box.height();
  }
  return result;
}

}  // namespace lo::layout
