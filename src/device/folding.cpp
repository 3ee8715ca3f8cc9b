#include "device/folding.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tech/units.hpp"

namespace lo::device {

double capReductionFactor(int nf, DiffusionPosition position) {
  if (nf < 1) throw std::invalid_argument("capReductionFactor: nf must be >= 1");
  if (nf == 1) return 1.0;
  const double n = nf;
  if (nf % 2 == 0) {
    return position == DiffusionPosition::kInternal ? 0.5 : (n + 2.0) / (2.0 * n);
  }
  return (n + 1.0) / (2.0 * n);
}

namespace {

/// Numbers of internal and external diffusion strips owned by a terminal.
struct StripCount {
  int internal = 0;
  int external = 0;
};

struct StripSplit {
  StripCount drain;
  StripCount source;
};

StripSplit splitStrips(int nf, bool drainInternal) {
  StripSplit s;
  if (nf == 1) {
    s.drain = {0, 1};
    s.source = {0, 1};
  } else if (nf % 2 == 0) {
    // nf+1 strips; the terminal that starts the sequence owns both ends.
    if (drainInternal) {
      s.drain = {nf / 2, 0};
      s.source = {nf / 2 - 1, 2};
    } else {
      s.drain = {nf / 2 - 1, 2};
      s.source = {nf / 2, 0};
    }
  } else {
    // Odd nf: both terminals own (nf+1)/2 strips, exactly one external each.
    s.drain = {(nf + 1) / 2 - 1, 1};
    s.source = {(nf + 1) / 2 - 1, 1};
  }
  return s;
}

}  // namespace

void applyDiffusionGeometry(const tech::DesignRules& rules, const FoldPlan& plan,
                            MosGeometry& geo) {
  geo.nf = plan.nf;
  geo.w = plan.totalWidth;
  const double wf = plan.foldWidth;
  const double eExt = nmToMeters(rules.contactedDiffusionExtent());
  const double eInt = nmToMeters(rules.sharedContactedDiffusionExtent());

  const StripSplit s = splitStrips(plan.nf, plan.drainInternal);
  auto area = [&](const StripCount& c) {
    return (c.internal * eInt + c.external * eExt) * wf;
  };
  auto perim = [&](const StripCount& c) {
    // Internal strip: two strip ends.  External strip: two ends + the outer
    // edge parallel to the gate.  Gate-adjacent edges are excluded.
    return c.internal * 2.0 * eInt + c.external * (2.0 * eExt + wf);
  };
  geo.ad = area(s.drain);
  geo.as = area(s.source);
  geo.pd = perim(s.drain);
  geo.ps = perim(s.source);
}

FoldPlan planFoldsExact(const tech::DesignRules& rules, double w, int nf, FoldStyle style) {
  if (nf < 1) throw std::invalid_argument("planFoldsExact: nf must be >= 1");
  FoldPlan plan;
  plan.nf = nf;
  plan.style = style;
  // Snap the finger width to the layout grid; the tiny resulting width change
  // is the grid-quantisation effect the paper blames for the residual offset
  // voltage after folding (Table 1, case 2 note).
  const tech::Nm wfNm =
      std::max(rules.activeMinWidth,
               rules.snapNearest(static_cast<tech::Nm>(std::llround(w / nf * 1e9))));
  plan.foldWidth = nmToMeters(wfNm);
  plan.totalWidth = plan.foldWidth * nf;
  plan.drainInternal = (style == FoldStyle::kDrainInternal) && (nf % 2 == 0);
  return plan;
}

FoldPlan planFolds(const tech::DesignRules& rules, double w, double maxFoldWidth,
                   FoldStyle style) {
  if (w <= 0.0 || maxFoldWidth <= 0.0) {
    throw std::invalid_argument("planFolds: width arguments must be positive");
  }
  int nf = static_cast<int>(std::ceil(w / maxFoldWidth));
  if (style == FoldStyle::kDrainInternal) {
    // Internal drains need an even finger count (paper Fig. 2, case a); use
    // at least two fingers so the drain has an internal strip at all.
    nf = std::max(2, nf + (nf % 2));
  }
  // Never let a finger fall below the minimum active width.
  const double minW = nmToMeters(rules.activeMinWidth);
  while (nf > 1 && w / nf < minW) {
    nf -= (style == FoldStyle::kDrainInternal && nf > 2) ? 2 : 1;
  }
  nf = std::max(1, nf);
  return planFoldsExact(rules, w, nf, style);
}

void applyUnfoldedGeometry(const tech::DesignRules& rules, MosGeometry& geo) {
  FoldPlan plan;
  plan.nf = 1;
  plan.style = FoldStyle::kAlternating;
  plan.drainInternal = false;
  plan.foldWidth = geo.w;
  plan.totalWidth = geo.w;
  applyDiffusionGeometry(rules, plan, geo);
}

}  // namespace lo::device
