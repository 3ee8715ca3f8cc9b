#include "sizing/ota_sizer.hpp"

#include <algorithm>
#include <cmath>

#include "device/folding.hpp"
#include "device/inversion.hpp"
#include "tech/units.hpp"

namespace lo::sizing {

namespace {

using circuit::FoldedCascodeOtaDesign;
using circuit::OtaGroup;

/// Width and drain current of a device that realises `targetGm` at a fixed
/// gate drive (gm is proportional to W at fixed veff, so one scaling step).
struct GmAtVeff {
  double w = 0.0;
  double id = 0.0;
  double vgs = 0.0;  ///< Normalised gate-source voltage.
};

GmAtVeff sizeForGmAtVeff(const device::MosModel& model, const tech::MosModelCard& card,
                         double targetGm, double veff, double length, double tempK) {
  const double vth = model.threshold(card, 0.0);
  const double vgs = vth + veff;
  const double vds = veff + 0.3;  // Comfortably saturated.
  device::MosGeometry ref;
  ref.w = 10e-6;
  ref.l = length;
  const device::MosOpPoint op = model.evaluateNormalized(card, ref, vgs, vds, 0.0, tempK);
  GmAtVeff out;
  out.w = ref.w * targetGm / op.gm;
  out.id = std::abs(op.id) * out.w / ref.w;
  out.vgs = vgs;
  return out;
}

}  // namespace

void OtaSizer::applyJunctionPolicy(const SizingPolicy& policy, OtaGroup group,
                                   device::MosGeometry& geo) const {
  if (!policy.diffusionCaps) {
    // Case 1: the sizing run pretends junctions are free.
    geo.ad = geo.as = geo.pd = geo.ps = 0.0;
    return;
  }
  const auto it = policy.junctionTemplates.find(group);
  if (policy.exactDiffusion && it != policy.junctionTemplates.end() && it->second.w > 0) {
    // Cases 3/4: scale the layout-reported junction figures with width
    // (exact for areas at a fixed fold count; perimeters are nearly
    // proportional because strip extents dominate).
    const device::MosGeometry& tpl = it->second;
    const double k = geo.w / tpl.w;
    geo.nf = tpl.nf;
    geo.ad = tpl.ad * k;
    geo.as = tpl.as * k;
    geo.pd = tpl.pd * k;
    geo.ps = tpl.ps * k;
    return;
  }
  // Case 2 (and the very first pass of cases 3/4, before any layout call):
  // pessimistic single-fold junctions.
  device::applyUnfoldedGeometry(tech_.rules, geo);
}

void OtaSizer::buildDesign(const OtaSpecs& specs, const SizingPolicy& policy,
                           const OperatingChoices& choices, double gm1,
                           double cascodeRatio, FoldedCascodeOtaDesign& d) const {
  const double temp = tech_.temperature;
  const tech::MosModelCard& nmos = tech_.nmos;
  const tech::MosModelCard& pmos = tech_.pmos;

  d.vdd = specs.vdd;
  d.cload = specs.cload;
  d.inputCm = specs.inputCmMid();

  // Input pair from the gm target.
  const auto pairChoice = choices.of(OtaGroup::kInputPair);
  const GmAtVeff pair = sizeForGmAtVeff(model_, pmos, gm1, pairChoice.veff,
                                        pairChoice.length, temp);
  d.inputPair.w = pair.w;
  d.inputPair.l = pairChoice.length;
  d.tailCurrent = 2.0 * pair.id;
  d.cascodeCurrent = cascodeRatio * d.tailCurrent;
  // A spec past the models' range overflows here or in the widths below:
  // fail naming the quantity rather than hand it to the inversions.
  requireFinite("OtaSizer", {{"input pair gm target", gm1},
                             {"input pair width", d.inputPair.w},
                             {"tail current", d.tailCurrent},
                             {"cascode current", d.cascodeCurrent}});

  // Remaining groups by current at their fixed gate drive.
  auto sizeGroup = [&](OtaGroup g, const tech::MosModelCard& card, double current,
                       device::MosGeometry& geo) {
    const auto gc = choices.of(g);
    geo.l = gc.length;
    const double vth = model_.threshold(card, 0.0);
    geo.w = device::widthForCurrent(model_, card, geo, current, vth + gc.veff,
                                    gc.veff + 0.3, 0.0, temp);
  };
  sizeGroup(OtaGroup::kTail, pmos, d.tailCurrent, d.tail);
  sizeGroup(OtaGroup::kSink, nmos, d.sinkCurrent(), d.sink);
  sizeGroup(OtaGroup::kNCascode, nmos, d.cascodeCurrent, d.nCascode);
  sizeGroup(OtaGroup::kPSource, pmos, d.cascodeCurrent, d.pSource);
  sizeGroup(OtaGroup::kPCascode, pmos, d.cascodeCurrent, d.pCascode);
  requireFinite("OtaSizer", {{"tail width", d.tail.w},
                             {"sink width", d.sink.w},
                             {"NMOS cascode width", d.nCascode.w},
                             {"PMOS source width", d.pSource.w},
                             {"PMOS cascode width", d.pCascode.w}});

  // Junction knowledge per the policy.
  for (OtaGroup g : circuit::kAllOtaGroups) applyJunctionPolicy(policy, g, d.geometry(g));

  // Bias voltages from model inversion on the final geometries.
  const double vgsTail =
      device::vgsForCurrent(model_, pmos, d.tail, d.tailCurrent, 0.5, 0.0, specs.vdd, temp);
  d.vp1 = specs.vdd - vgsTail;
  d.vbn = device::vgsForCurrent(model_, nmos, d.sink, d.sinkCurrent(), 0.5, 0.0,
                                specs.vdd, temp);
  // Folding node held one saturation margin above the sink.
  const double vxTarget = choices.of(OtaGroup::kSink).veff + 0.1;
  d.vc1 = vxTarget + device::vgsForCurrent(model_, nmos, d.nCascode, d.cascodeCurrent, 0.5,
                                           -vxTarget, specs.vdd, temp);
  const double vzTarget = specs.vdd - (choices.of(OtaGroup::kPSource).veff + 0.1);
  d.vc3 = vzTarget - device::vgsForCurrent(model_, pmos, d.pCascode, d.cascodeCurrent, 0.5,
                                           -(specs.vdd - vzTarget), specs.vdd, temp);
}

circuit::OtaBiasDesign designOtaBias(const tech::Technology& t,
                                     const device::MosModel& model,
                                     const FoldedCascodeOtaDesign& d) {
  const double temp = t.temperature;
  circuit::OtaBiasDesign b;
  b.biasCurrent = std::clamp(d.cascodeCurrent / 8.0, 2e-6, 20e-6);

  // Mirror legs: scaled copies of the devices they bias.
  b.nDiode = d.sink;
  b.nDiode.w = std::max(d.sink.w * b.biasCurrent / d.sinkCurrent(), 1e-6);
  device::applyUnfoldedGeometry(t.rules, b.nDiode);
  b.pDiode = d.tail;
  b.pDiode.w = std::max(d.tail.w * b.biasCurrent / d.tailCurrent, 1e-6);
  device::applyUnfoldedGeometry(t.rules, b.pDiode);

  // Cascode-bias diodes: one device whose VGS at the reference current is
  // the designed level (large gate drive, so the width comes out small).
  b.nCascDiode.l = d.nCascode.l;
  b.nCascDiode.w = 2e-6;
  b.nCascDiode.w = device::widthForCurrent(model, t.nmos, b.nCascDiode, b.biasCurrent,
                                           d.vc1, d.vc1, 0.0, temp);
  device::applyUnfoldedGeometry(t.rules, b.nCascDiode);
  b.pCascDiode.l = d.pCascode.l;
  b.pCascDiode.w = 2e-6;
  b.pCascDiode.w = device::widthForCurrent(model, t.pmos, b.pCascDiode, b.biasCurrent,
                                           d.vdd - d.vc3, d.vdd - d.vc3, 0.0, temp);
  device::applyUnfoldedGeometry(t.rules, b.pCascDiode);
  return b;
}

SizingResult OtaSizer::size(const OtaSpecs& specs, const SizingPolicy& policy,
                            OperatingChoices choices) const {
  SizingResult result;
  double cascodeRatio = 0.5;
  double cout = 1.3 * specs.cload;  // Bootstrap estimate for the first pass.
  // Corrects the difference between the gm target (sized at a nominal bias)
  // and the gm the device actually shows at the solved operating point.
  double gmScale = 1.0;

  FoldedCascodeOtaDesign d;
  for (int outer = 0; outer < 20; ++outer) {
    ++result.gbwIterations;
    const double gm1 = 2.0 * M_PI * specs.gbw * cout * gmScale;
    buildDesign(specs, policy, choices, gm1, cascodeRatio, d);

    // Phase-margin loop: more folded-branch current first, then larger gate
    // drives on the non-input devices (smaller, faster devices).  Excess
    // margin is trimmed back so the design lands just above the target and
    // no power is wasted.  Each design is solved once: the last snapshot is
    // of the design the loop leaves, so the GBW check below reuses it, and
    // as the design does not change after that check, its row is the
    // prediction.
    OtaOpSnapshot snap;
    for (int inner = 0;; ++inner) {
      snap = evaluator_.snapshot(d, specs.inputCmMid());
      result.predicted = evaluator_.evaluate(d, snap, policy);
      requireFinite("OtaSizer", result.predicted);
      const double pm = result.predicted.phaseMarginDeg;
      if (inner == 30) break;
      if (pm < specs.phaseMarginDeg) {
        ++result.pmIterations;
        if (cascodeRatio < 1.0) {
          cascodeRatio = std::min(1.0, cascodeRatio * 1.12);
        } else {
          for (OtaGroup g : {OtaGroup::kSink, OtaGroup::kNCascode, OtaGroup::kPSource,
                             OtaGroup::kPCascode}) {
            choices.of(g).veff = std::min(0.6, choices.of(g).veff * 1.06);
          }
        }
      } else if (pm > specs.phaseMarginDeg + 3.0 && cascodeRatio > 0.40) {
        ++result.pmIterations;
        cascodeRatio = std::max(0.40, cascodeRatio * 0.93);
      } else {
        break;
      }
      buildDesign(specs, policy, choices, gm1, cascodeRatio, d);
    }

    // Re-estimate the GBW capacitance budget and the realised GBW;
    // converged when both are stable on target.
    const double coutNew = evaluator_.capBudget(d, snap, policy).out;
    const double gbwError = result.predicted.gbwHz / specs.gbw - 1.0;
    if (std::abs(coutNew - cout) < 2e-3 * cout && std::abs(gbwError) < 5e-3) {
      result.converged = true;
      cout = coutNew;
      break;
    }
    gmScale *= specs.gbw / result.predicted.gbwHz;
    cout = coutNew;
  }

  result.design = d;
  result.finalChoices = choices;
  return result;
}

}  // namespace lo::sizing
