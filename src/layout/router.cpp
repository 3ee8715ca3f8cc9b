#include "layout/router.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "tech/units.hpp"

namespace lo::layout {

namespace {

using geom::Coord;
using geom::Rect;
using tech::Layer;

/// One horizontal trunk: a net's wire within one routing channel.
struct Trunk {
  std::string net;
  std::size_t netIdx = 0;   ///< Index into the per-net result array.
  int channel = -1;         ///< Channel index; -1 = unconstrained.
  Coord y = 0;              ///< Centre line.
  tech::Nm width = 0;
  Coord x0 = 0, x1 = 0;     ///< Port span (extended later for risers/nudges).
  double current = 0.0;
  std::vector<geom::Point> taps;
};

bool xSpansOverlap(Coord a0, Coord a1, Coord b0, Coord b1) { return a0 <= b1 && b0 <= a1; }

}  // namespace

RoutingResult routeCell(const tech::Technology& t, const Cell& cell,
                        const std::vector<NetRequest>& nets,
                        const std::vector<Channel>& channels, bool emitGeometry) {
  const tech::DesignRules& r = t.rules;
  RoutingResult result;

  const tech::Nm viaLandM1 = r.via1Size + 2 * r.metal1OverVia1;
  const tech::Nm viaLandM2 = r.via1Size + 2 * r.metal2OverVia1;
  const tech::LayerElectrical& m1 = t.layer(Layer::kMetal1);
  const tech::LayerElectrical& m2 = t.layer(Layer::kMetal2);

  auto nearestChannel = [&](Coord y) -> int {
    int best = -1;
    Coord bestDist = std::numeric_limits<Coord>::max();
    for (std::size_t c = 0; c < channels.size(); ++c) {
      const Coord clamped = std::clamp(y, channels[c].y0, channels[c].y1);
      const Coord dist = std::abs(clamped - y);
      if (dist < bestDist) {
        bestDist = dist;
        best = static_cast<int>(c);
      }
    }
    return best;
  };

  // --- Build trunks: one per (net, nearest channel of its ports). ---
  std::vector<Trunk> trunks;
  struct NetRisers {
    std::vector<std::size_t> trunkIdx;  ///< Trunks of this net, if > 1 a riser joins them.
  };
  std::vector<NetRisers> perNet;

  for (const NetRequest& req : nets) {
    const std::vector<Port> ports = cell.portsOn(req.net);
    if (ports.size() < 2) continue;
    const std::size_t netIdx = result.nets.size();
    RoutedNet rn;
    rn.net = req.net;
    result.nets.push_back(rn);
    perNet.push_back({});

    // Cluster taps by nearest channel.
    std::map<int, std::vector<geom::Point>> clusters;
    for (const Port& p : ports) {
      const geom::Point c = p.rect.center();
      clusters[nearestChannel(c.y)].push_back(c);
    }
    for (auto& [ch, taps] : clusters) {
      Trunk tr;
      tr.net = req.net;
      tr.netIdx = netIdx;
      tr.channel = ch;
      tr.current = req.current;
      tr.width = std::max(t.wireWidthForCurrent(Layer::kMetal1, req.current), viaLandM1);
      Coord ySum = 0;
      tr.x0 = taps.front().x;
      tr.x1 = tr.x0;
      for (const geom::Point& p : taps) {
        tr.x0 = std::min(tr.x0, p.x);
        tr.x1 = std::max(tr.x1, p.x);
        ySum += p.y;
      }
      Coord y = r.snapNearest(ySum / static_cast<Coord>(taps.size()));
      if (ch >= 0) {
        y = std::clamp(y, channels[ch].y0 + tr.width / 2, channels[ch].y1 - tr.width / 2);
      }
      tr.y = y;
      tr.taps = std::move(taps);
      perNet[netIdx].trunkIdx.push_back(trunks.size());
      trunks.push_back(std::move(tr));
    }
  }

  // --- Risers: nets spanning several channels get a vertical metal2 wire in
  // a reserved corridor left of the core; every cluster trunk extends to it.
  const Coord coreLeft = cell.shapes.empty() ? 0 : cell.bbox().x0;
  Coord riserCursor = coreLeft - r.metal2Spacing;
  struct Riser {
    std::size_t netIdx = 0;
    Coord x = 0;
    tech::Nm width = 0;
    Coord y0 = 0, y1 = 0;
  };
  std::vector<Riser> risers;
  for (std::size_t n = 0; n < perNet.size(); ++n) {
    if (perNet[n].trunkIdx.size() < 2) continue;
    Riser ri;
    ri.netIdx = n;
    ri.width = std::max(
        t.wireWidthForCurrent(Layer::kMetal2, trunks[perNet[n].trunkIdx[0]].current),
        viaLandM2);
    riserCursor -= ri.width;  // Right edge at previous cursor; centre below.
    ri.x = riserCursor + ri.width / 2;
    riserCursor -= r.metal2Spacing;
    ri.y0 = std::numeric_limits<Coord>::max();
    ri.y1 = std::numeric_limits<Coord>::min();
    for (std::size_t ti : perNet[n].trunkIdx) {
      trunks[ti].x0 = std::min(trunks[ti].x0, ri.x);
      ri.y0 = std::min(ri.y0, trunks[ti].y);
      ri.y1 = std::max(ri.y1, trunks[ti].y);
    }
    risers.push_back(ri);
  }

  // Branch metal2 width per trunk, needed both for the track pitch (so
  // branches arriving from opposite sides clear each other vertically) and
  // for the branch emission below.
  std::vector<tech::Nm> trunkBranchWidth(trunks.size());
  for (std::size_t i = 0; i < trunks.size(); ++i) {
    const double branchCurrent =
        trunks[i].current / std::max<std::size_t>(1, trunks[i].taps.size());
    trunkBranchWidth[i] =
        std::max(t.wireWidthForCurrent(Layer::kMetal2, branchCurrent), viaLandM2);
  }

  // --- Track packing per channel (never overflow into a cell row). ---
  // Track order within a channel follows the side the net enters from:
  // bottom-entering nets take the lowest tracks, top-entering nets the
  // highest, mixed nets sit in between.  This keeps the vertical branches of
  // different nets from overlapping inside the channel (the classic
  // channel-routing side ordering), so nearby columns never clash.
  auto sideOf = [&](const Trunk& tr) {
    if (tr.channel < 0) return 1;
    bool below = false, above = false;
    for (const geom::Point& p : tr.taps) {
      (p.y < channels[tr.channel].y0 ? below : above) = true;
    }
    if (below && !above) return 0;
    if (above && !below) return 2;
    return 1;
  };
  std::vector<std::size_t> order(trunks.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const int sa = sideOf(trunks[a]), sb = sideOf(trunks[b]);
    if (trunks[a].channel != trunks[b].channel) return trunks[a].channel < trunks[b].channel;
    if (sa != sb) return sa < sb;
    return trunks[a].y < trunks[b].y;
  });
  // Conflict test: spans inflated by the branch clearance so that nearby
  // (but non-overlapping) spans still stack on distinct tracks.
  const Coord spanMargin = 3000;
  for (std::size_t oi = 0; oi < order.size(); ++oi) {
    Trunk& tr = trunks[order[oi]];
    Coord yMin = tr.channel >= 0 ? channels[tr.channel].y0 + tr.width / 2
                                 : std::numeric_limits<Coord>::min() / 2;
    for (std::size_t oj = 0; oj < oi; ++oj) {
      const Trunk& prev = trunks[order[oj]];
      if (prev.channel != tr.channel ||
          !xSpansOverlap(tr.x0 - spanMargin, tr.x1 + spanMargin, prev.x0, prev.x1)) {
        continue;
      }
      const Coord trunkGap = (tr.width + prev.width) / 2 + r.metal1Spacing;
      // Branches ending on the two tracks approach each other end-on; keep
      // the metal2 spacing between their end caps as well.
      const Coord branchGap = (trunkBranchWidth[order[oi]] + trunkBranchWidth[order[oj]]) / 2 +
                              r.metal2Spacing;
      yMin = std::max(yMin, prev.y + std::max(trunkGap, branchGap));
    }
    // Compact from the channel bottom; unconstrained trunks float at their
    // desired height and only bump on conflicts.
    tr.y = r.snapUp(tr.channel >= 0 ? yMin : std::max(tr.y, yMin));
  }
  // Riser extents follow the final trunk heights.
  for (Riser& ri : risers) {
    ri.y0 = std::numeric_limits<Coord>::max();
    ri.y1 = std::numeric_limits<Coord>::min();
    for (std::size_t ti : perNet[ri.netIdx].trunkIdx) {
      ri.y0 = std::min(ri.y0, trunks[ti].y);
      ri.y1 = std::max(ri.y1, trunks[ti].y);
    }
  }

  // --- Branches: vertical metal2 from each tap to its cluster trunk. ---
  struct Branch {
    std::size_t trunkIdx = 0;
    Coord portX = 0, portY = 0;
    Coord x = 0;
    tech::Nm width = 0;
    Coord y0 = 0, y1 = 0;
    int viaCuts = 1;
  };
  std::vector<Branch> branches;
  for (std::size_t i = 0; i < trunks.size(); ++i) {
    const Trunk& tr = trunks[i];
    const double branchCurrent = tr.current / std::max<std::size_t>(1, tr.taps.size());
    const tech::Nm bw = trunkBranchWidth[i];
    const int cuts = std::max(
        1,
        static_cast<int>(std::ceil(std::abs(branchCurrent) / std::max(t.via1MaxAmp, 1e-12))));
    for (const geom::Point& tap : tr.taps) {
      Branch b;
      b.trunkIdx = i;
      b.portX = tap.x;
      b.portY = tap.y;
      b.x = tap.x;
      b.width = bw;
      b.y0 = std::min(tap.y, tr.y);
      b.y1 = std::max(tap.y, tr.y);
      b.viaCuts = cuts;
      branches.push_back(b);
    }
  }

  // Column separation: nudge branches right until all different-net metal2
  // columns keep spacing and every port-level metal1 footprint (via landing
  // + stub) clears other footprints and foreign cell metal1.
  auto portFootprint = [&](const Branch& b) {
    const Coord x0 = std::min(b.portX, b.x) - viaLandM1 / 2;
    const Coord x1 = b.x + viaLandM1 / 2;
    return Rect(x0, b.portY - viaLandM1 / 2, x1, b.portY + viaLandM1 / 2);
  };
  std::vector<const geom::Shape*> cellM1;
  for (const geom::Shape& s : cell.shapes.shapes()) {
    if (s.layer == Layer::kMetal1) cellM1.push_back(&s);
  }
  // Safety valve: a branch that has drifted this far from its port is stuck
  // (e.g. two foreign ports in one column); freeze it rather than walk the
  // stub across the whole die.  The DRC will flag the residual conflict.
  const Coord maxNudge = 20000;
  auto frozen = [&](const Branch& b) { return b.x - b.portX > maxNudge; };
  for (int pass = 0; pass < 40; ++pass) {
    bool moved = false;
    for (std::size_t i = 0; i < branches.size(); ++i) {
      for (std::size_t j = i + 1; j < branches.size(); ++j) {
        Branch& a = branches[i];
        Branch& b = branches[j];
        if (trunks[a.trunkIdx].net == trunks[b.trunkIdx].net) continue;
        Branch& mover = (a.y1 - a.y0) <= (b.y1 - b.y0) ? a : b;
        const Branch& still = (&mover == &a) ? b : a;
        if (frozen(mover)) continue;
        // Vertical ranges padded by the end-cap extension (width/2 each)
        // plus the spacing rule: segments that merely come close vertically
        // still need the horizontal clearance.
        const Coord pad = (a.width + b.width) / 2 + r.metal2Spacing;
        if (a.y0 < b.y1 + pad && b.y0 < a.y1 + pad) {
          const Coord need = (a.width + b.width) / 2 + r.metal2Spacing;
          if (std::abs(a.x - b.x) < need) {
            mover.x = r.snapUp(still.x + need);
            moved = true;
            continue;
          }
        }
        const Rect fa = portFootprint(a);
        const Rect fb = portFootprint(b);
        if (fa.overlaps(fb) || fa.distanceTo(fb) < r.metal1Spacing) {
          mover.x = r.snapUp(mover.x + r.metal1Spacing + viaLandM1);
          moved = true;
        }
      }
      Branch& b = branches[i];
      const std::string& net = trunks[b.trunkIdx].net;
      for (const geom::Shape* s : cellM1) {
        if (s->net == net) continue;
        if (frozen(b)) break;
        const Rect f = portFootprint(b);
        if (f.overlaps(s->rect) || f.distanceTo(s->rect) < r.metal1Spacing) {
          b.x = r.snapUp(std::max(b.x, s->rect.x1 + r.metal1Spacing + viaLandM1 / 2));
          moved = true;
        }
      }
    }
    if (!moved) break;
  }

  // --- Emit trunks. ---
  for (std::size_t i = 0; i < trunks.size(); ++i) {
    const Trunk& tr = trunks[i];
    RoutedNet& rn = result.nets[tr.netIdx];
    Coord bx0 = tr.x0, bx1 = tr.x1;
    for (const Branch& b : branches) {
      if (b.trunkIdx != i) continue;
      bx0 = std::min(bx0, b.x);
      bx1 = std::max(bx1, b.x);
    }
    const Coord tx0 = bx0 - viaLandM1 / 2;
    const Coord tx1 = std::max(bx1 + viaLandM1 / 2, tx0 + viaLandM1);
    rn.trunkWidth = std::max(rn.trunkWidth, tr.width);
    rn.trunkLength += nmToMeters(tx1 - tx0);
    rn.capToGround +=
        nmToMeters(tx1 - tx0) * (nmToMeters(tr.width) * m1.capAreaPerM2 + 2.0 * m1.capFringePerM);
    // Sheet resistance of the trunk run (squares = length / width).
    rn.resistanceOhm +=
        static_cast<double>(tx1 - tx0) / tr.width * m1.sheetResOhmSq;
    if (emitGeometry) {
      result.wires.add(Layer::kMetal1,
                       Rect(tx0, tr.y - tr.width / 2, tx1, tr.y + tr.width / 2), tr.net);
    }
  }

  // --- Emit risers with via stacks at each trunk crossing. ---
  auto emitViaStack = [&](const std::string& net, int viaCuts, Coord cx, Coord cy) {
    const Coord vs = r.via1Size;
    const Coord rowW = viaCuts * vs + (viaCuts - 1) * r.via1Spacing;
    for (int k = 0; k < viaCuts; ++k) {
      const Coord vx = cx - rowW / 2 + k * (vs + r.via1Spacing);
      result.wires.add(Layer::kVia1, Rect(vx, cy - vs / 2, vx + vs, cy + vs / 2));
    }
    result.wires.add(Layer::kMetal1,
                     Rect(cx - rowW / 2 - r.metal1OverVia1, cy - vs / 2 - r.metal1OverVia1,
                          cx + rowW / 2 + r.metal1OverVia1, cy + vs / 2 + r.metal1OverVia1),
                     net);
    result.wires.add(Layer::kMetal2,
                     Rect(cx - rowW / 2 - r.metal2OverVia1, cy - vs / 2 - r.metal2OverVia1,
                          cx + rowW / 2 + r.metal2OverVia1, cy + vs / 2 + r.metal2OverVia1),
                     net);
  };
  for (const Riser& ri : risers) {
    RoutedNet& rn = result.nets[ri.netIdx];
    const std::string& net = rn.net;
    const double len = nmToMeters(ri.y1 - ri.y0);
    rn.branchLength += len;
    rn.capToGround +=
        len * (nmToMeters(ri.width) * m2.capAreaPerM2 + 2.0 * m2.capFringePerM);
    if (emitGeometry && ri.y1 > ri.y0) {
      const Coord half = ri.width / 2;
      result.wires.add(Layer::kMetal2,
                       Rect(ri.x - half, ri.y0 - half, ri.x + half, ri.y1 + half), net);
      for (std::size_t ti : perNet[ri.netIdx].trunkIdx) {
        emitViaStack(net, 1, ri.x, trunks[ti].y);
        rn.viaCount += 1;
      }
    }
  }

  // --- Emit branches with via stacks at both ends. ---
  for (const Branch& b : branches) {
    const Trunk& tr = trunks[b.trunkIdx];
    RoutedNet& rn = result.nets[tr.netIdx];
    const double len = nmToMeters(b.y1 - b.y0);
    rn.branchLength += len;
    rn.capToGround += len * (nmToMeters(b.width) * m2.capAreaPerM2 + 2.0 * m2.capFringePerM);
    rn.viaCount += 2 * b.viaCuts;
    // Worst-case series path: keep the most resistive branch (sheet run
    // plus its two via stacks in parallel cuts).
    const double branchRes = static_cast<double>(b.y1 - b.y0) / b.width * m2.sheetResOhmSq +
                             2.0 * t.contactResOhm / b.viaCuts;
    rn.resistanceOhm = std::max(rn.resistanceOhm, branchRes);
    const Coord stub = b.x - b.portX;
    if (stub > 0) {
      rn.capToGround += nmToMeters(stub) *
                        (nmToMeters(viaLandM1) * m1.capAreaPerM2 + 2.0 * m1.capFringePerM);
    }
    if (emitGeometry) {
      const Coord half = b.width / 2;
      if (b.y1 > b.y0) {
        result.wires.add(Layer::kMetal2,
                         Rect(b.x - half, b.y0 - half, b.x + half, b.y1 + half), tr.net);
      }
      if (stub > 0) {
        result.wires.add(Layer::kMetal1,
                         Rect(b.portX, b.portY - viaLandM1 / 2, b.x + viaLandM1 / 2,
                              b.portY + viaLandM1 / 2),
                         tr.net);
      }
      emitViaStack(tr.net, b.viaCuts, b.x, b.portY);
      emitViaStack(tr.net, b.viaCuts, b.x, tr.y);
    }
  }

  // --- Coupling: parallel trunks within a channel, and adjacent risers. ---
  for (std::size_t i = 0; i < trunks.size(); ++i) {
    for (std::size_t j = i + 1; j < trunks.size(); ++j) {
      const Trunk& a = trunks[i];
      const Trunk& b = trunks[j];
      if (a.net == b.net || !xSpansOverlap(a.x0, a.x1, b.x0, b.x1)) continue;
      const Coord edgeGap = std::abs(a.y - b.y) - (a.width + b.width) / 2;
      if (edgeGap <= 0 || edgeGap > 4 * r.metal1Spacing) continue;
      const Coord overlap = std::min(a.x1, b.x1) - std::max(a.x0, b.x0);
      if (overlap <= 0) continue;
      const double scale = static_cast<double>(r.metal1Spacing) / edgeGap;
      const double cap = nmToMeters(overlap) * m1.capCouplePerM * std::min(scale, 1.0);
      auto key = a.net < b.net ? std::make_pair(a.net, b.net) : std::make_pair(b.net, a.net);
      result.coupling[key] += cap;
    }
  }
  for (std::size_t i = 0; i < risers.size(); ++i) {
    for (std::size_t j = i + 1; j < risers.size(); ++j) {
      const Riser& a = risers[i];
      const Riser& b = risers[j];
      const std::string& na = result.nets[a.netIdx].net;
      const std::string& nb = result.nets[b.netIdx].net;
      if (na == nb) continue;
      const Coord edgeGap = std::abs(a.x - b.x) - (a.width + b.width) / 2;
      if (edgeGap <= 0 || edgeGap > 4 * r.metal2Spacing) continue;
      const Coord overlap = std::min(a.y1, b.y1) - std::max(a.y0, b.y0);
      if (overlap <= 0) continue;
      const double scale = static_cast<double>(r.metal2Spacing) / edgeGap;
      const double cap = nmToMeters(overlap) * m2.capCouplePerM * std::min(scale, 1.0);
      auto key = na < nb ? std::make_pair(na, nb) : std::make_pair(nb, na);
      result.coupling[key] += cap;
    }
  }
  return result;
}

}  // namespace lo::layout
