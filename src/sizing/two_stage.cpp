#include "sizing/two_stage.hpp"

#include <algorithm>
#include <cmath>
#include <complex>
#include <optional>

#include "device/folding.hpp"
#include "device/inversion.hpp"
#include "tech/units.hpp"

namespace lo::sizing {

namespace {

using circuit::TwoStageGroup;
using circuit::TwoStageOtaDesign;

/// Junction knowledge per the policy: nothing (case 1), pessimistic single
/// fold (case 2 and the first pass of 3/4), or the layout-reported figures
/// rescaled with width (cases 3/4 after the first layout call).
void applyJunctionPolicy(const tech::Technology& t, const SizingPolicy& policy,
                         TwoStageGroup group, device::MosGeometry& geo) {
  if (!policy.diffusionCaps) {
    geo.ad = geo.as = geo.pd = geo.ps = 0.0;
    return;
  }
  const auto it = policy.twoStageTemplates.find(group);
  if (policy.exactDiffusion && it != policy.twoStageTemplates.end() && it->second.w > 0) {
    const device::MosGeometry& tpl = it->second;
    const double k = geo.w / tpl.w;
    geo.nf = tpl.nf;
    geo.ad = tpl.ad * k;
    geo.as = tpl.as * k;
    geo.pd = tpl.pd * k;
    geo.ps = tpl.ps * k;
    return;
  }
  device::applyUnfoldedGeometry(t.rules, geo);
}

}  // namespace

TwoStageSnapshot TwoStageSizer::snapshot(const TwoStageOtaDesign& d, double inputCm) const {
  const double temp = tech_.temperature;
  const tech::MosModelCard& nmos = tech_.nmos;
  const tech::MosModelCard& pmos = tech_.pmos;
  TwoStageSnapshot s;
  s.vout = inputCm;

  const double iPair = d.tailCurrent / 2.0;
  // Tail-node fixed point: the pair's VGS depends on its own source voltage
  // through the body effect.  Each solve starts from the previous VGS.
  double vtail = 0.2;
  std::optional<double> vgs1;
  for (int i = 0; i < 6; ++i) {
    vgs1 = device::vgsForCurrent(model_, nmos, d.inputPair, iPair, 1.0, -vtail, d.vdd, temp,
                                 vgs1);
    vtail = std::max(inputCm - *vgs1, 0.05);
  }
  s.vtail = vtail;
  const double vgs3 =
      device::vgsForCurrent(model_, pmos, d.mirror, iPair, 0.5, 0.0, d.vdd, temp);
  s.vd1 = d.vdd - vgs3;

  s.pair = model_.evaluate(nmos, d.inputPair, inputCm - s.vtail, s.vd1 - s.vtail,
                           -s.vtail, temp);
  s.mirror = model_.evaluate(pmos, d.mirror, s.vd1 - d.vdd, s.vd1 - d.vdd, 0.0, temp);
  s.tail = model_.evaluate(nmos, d.tail, d.vbn, s.vtail, 0.0, temp);
  s.driver = model_.evaluate(pmos, d.driver, s.vd1 - d.vdd, s.vout - d.vdd, 0.0, temp);
  s.sink2 = model_.evaluate(nmos, d.sink2, d.vbn, s.vout, 0.0, temp);
  return s;
}

OtaPerformance TwoStageSizer::evaluate(const TwoStageOtaDesign& d, const OtaSpecs& specs,
                                       const SizingPolicy& policy) const {
  const TwoStageSnapshot s = snapshot(d, specs.inputCmMid());
  auto routing = [&](const char* net) {
    return policy.routingParasitics ? policy.routingParasitics->capOn(net) : 0.0;
  };

  OtaPerformance p;
  const double gm1 = s.pair.gm;
  const double gm6 = s.driver.gm;

  // Load at the output and at the first-stage output.
  const double cOut = d.cload + s.driver.cdb + s.driver.cgd + s.sink2.cdb + s.sink2.cgd +
                      routing("out");
  const double cO1 = s.pair.cdb + s.pair.cgd + s.mirror.cdb + s.mirror.cgd +
                     s.driver.cgs + routing("o1");

  // Exact small-signal solution of the compensated two-stage network
  // (nodes: o1, Rz/Cc midpoint, out).  Still a predefined-equation model --
  // just solved instead of approximated by separated poles, because the
  // nulling network couples them too strongly for textbook formulas.
  const double g1 = s.pair.gds + s.mirror.gds;
  const double g2 = s.driver.gds + s.sink2.gds;
  const double gz = 1.0 / d.rz;
  const double cgd6 = s.driver.cgd;
  // Mirror pole-zero doublet: half the input current arrives through the
  // diode node d1, delayed by w3 = gm3 / C(d1).
  const double cD1 = s.mirror.cgs * 2.0 + s.mirror.cdb + s.pair.cdb + s.pair.cgd +
                     routing("d1");
  const double w3 = s.mirror.gm / std::max(cD1, 1e-18);
  auto transfer = [&](double f) {
    using C = std::complex<double>;
    const C jw{0.0, 2.0 * M_PI * f};
    // Unknowns: v(o1), v(mid), v(out).  Input: first stage pushes -gm1*vin
    // into o1 (vin = 1), filtered by the mirror doublet.
    const C inj = C(-gm1) * (C(1.0) + jw / (2.0 * w3)) / (C(1.0) + jw / w3);
    C a[3][3] = {{C(g1 + gz) + jw * (cO1 + cgd6), C(-gz), -jw * cgd6},
                 {C(-gz), C(gz) + jw * d.cc, -jw * d.cc},
                 {C(gm6) - jw * cgd6, -jw * d.cc, C(g2) + jw * (cOut + d.cc + cgd6)}};
    C b[3] = {inj, C(0), C(0)};
    // Gaussian elimination, 3x3.
    for (int col = 0; col < 3; ++col) {
      int piv = col;
      for (int r = col + 1; r < 3; ++r) {
        if (std::abs(a[r][col]) > std::abs(a[piv][col])) piv = r;
      }
      std::swap(a[col], a[piv]);
      std::swap(b[col], b[piv]);
      for (int r = col + 1; r < 3; ++r) {
        const C f2 = a[r][col] / a[col][col];
        for (int k = col; k < 3; ++k) a[r][k] -= f2 * a[col][k];
        b[r] -= f2 * b[col];
      }
    }
    for (int r = 2; r >= 0; --r) {
      for (int k = r + 1; k < 3; ++k) b[r] -= a[r][k] * b[k];
      b[r] /= a[r][r];
    }
    return b[2];  // v(out).
  };

  // Find the unity crossing on a log grid, then the phase margin there.
  const double fu0 = gm1 / (2.0 * M_PI * d.cc);
  double fu = 0.0;
  double fLo = fu0 / 30.0, fHi = fu0 * 30.0;
  double prevF = fLo, prevMag = std::abs(transfer(fLo));
  for (int i = 1; i <= 160; ++i) {
    const double f = fLo * std::pow(fHi / fLo, i / 160.0);
    const double mag = std::abs(transfer(f));
    if (prevMag >= 1.0 && mag < 1.0) {
      const double t = std::log(prevMag) / std::log(prevMag / mag);
      fu = prevF * std::pow(f / prevF, t);
      break;
    }
    prevF = f;
    prevMag = mag;
  }
  if (fu <= 0.0) fu = fu0;
  const std::complex<double> h0 = transfer(1.0);
  const std::complex<double> hu = transfer(fu);
  double phaseShift = std::arg(hu) - std::arg(h0);
  while (phaseShift > 0) phaseShift -= 2.0 * M_PI;
  p.gbwHz = fu;
  p.phaseMarginDeg = 180.0 + phaseShift * 180.0 / M_PI;

  const double ro1 = 1.0 / (s.pair.gds + s.mirror.gds);
  const double ro2 = 1.0 / (s.driver.gds + s.sink2.gds);
  const double adm = gm1 * ro1 * gm6 * ro2;
  p.dcGainDb = 20.0 * std::log10(adm);
  p.outputResistanceMOhm = ro2 / 1e6;

  p.slewRateVPerUs =
      std::min(d.tailCurrent / d.cc, d.stage2Current / (cOut + d.cc)) / 1e6;

  const double rTail = 1.0 / s.tail.gds;
  p.cmrrDb = 20.0 * std::log10(2.0 * s.mirror.gm * rTail * gm1 * ro1);

  p.offsetMv = 0.0;  // Balanced by construction (driver biased off the mirror VGS).

  const double thermal =
      2.0 * (s.pair.thermalNoisePsd + s.mirror.thermalNoisePsd) / (gm1 * gm1);
  const double flicker =
      2.0 * (s.pair.flickerCoeff + s.mirror.flickerCoeff) / (gm1 * gm1);
  p.thermalNoiseDensityNv = std::sqrt(thermal + flicker / kThermalSpotHz) * 1e9;
  p.flickerNoiseUv = std::sqrt(thermal + flicker / kFlickerSpotHz) * 1e6;
  const double fHigh = std::min(fu, kNoiseBandHighHz);
  p.inputNoiseUv =
      std::sqrt(thermal * fHigh + flicker * std::log(fHigh / kNoiseBandLowHz)) * 1e6;

  // PSRR at DC: the second stage's source sits on VDD, so supply ripple
  // appears at the output attenuated only by gds6/(gds6+gds7); rejection is
  // the differential gain against that path.
  p.psrrDb = 20.0 * std::log10(adm / std::max(s.driver.gds * ro2, 1e-9));

  const double stepV = 0.4;
  const double tSlew = stepV / (p.slewRateVPerUs * 1e6);
  const double tLin = 4.6 / (2.0 * M_PI * fu);
  p.settlingTimeNs = (tSlew + tLin) * 1e9;

  p.powerMw = d.supplyCurrent() * d.vdd * 1e3;
  return p;
}

void TwoStageSizer::buildDesign(const OtaSpecs& specs, const SizingPolicy& policy,
                                const TwoStageChoices& choices, double gm1,
                                double stage2Ratio, TwoStageOtaDesign& d) const {
  const double temp = tech_.temperature;
  const tech::MosModelCard& nmos = tech_.nmos;
  const tech::MosModelCard& pmos = tech_.pmos;

  d.vdd = specs.vdd;
  d.cload = specs.cload;
  d.inputCm = specs.inputCmMid();
  d.cc = choices.ccOverCl * specs.cload;

  // Input pair from gm1 at the chosen gate drive.
  {
    const double vth = model_.threshold(nmos, 0.0);
    device::MosGeometry ref;
    ref.w = 10e-6;
    ref.l = choices.inputPair.length;
    const device::MosOpPoint op = model_.evaluateNormalized(
        nmos, ref, vth + choices.inputPair.veff, choices.inputPair.veff + 0.3, 0.0, temp);
    d.inputPair.w = ref.w * gm1 / op.gm;
    d.inputPair.l = choices.inputPair.length;
    d.tailCurrent = 2.0 * std::abs(op.id) * d.inputPair.w / ref.w;
  }
  d.stage2Current = stage2Ratio * d.tailCurrent;
  // A spec past the models' range overflows here or in the widths below:
  // fail naming the quantity rather than hand it to the inversions.
  requireFinite("TwoStageSizer", {{"input pair gm target", gm1},
                                  {"input pair width", d.inputPair.w},
                                  {"tail current", d.tailCurrent},
                                  {"stage-2 current", d.stage2Current}});

  auto sizeGroup = [&](const tech::MosModelCard& card,
                       const OperatingChoices::GroupChoice& gc, double current,
                       device::MosGeometry& geo) {
    geo.l = gc.length;
    const double vth = model_.threshold(card, 0.0);
    geo.w = device::widthForCurrent(model_, card, geo, current, vth + gc.veff,
                                    gc.veff + 0.3, 0.0, temp);
  };
  sizeGroup(pmos, choices.mirror, d.tailCurrent / 2.0, d.mirror);
  sizeGroup(nmos, choices.tail, d.tailCurrent, d.tail);
  // The second-stage sink shares the tail's gate line (vbn): size it for
  // the stage-2 current at that exact gate voltage so the mirror ratio is
  // embodied in the widths.
  {
    const double vgsTail = model_.threshold(nmos, 0.0) + choices.tail.veff;
    d.sink2.l = choices.sink2.length;
    d.sink2.w = device::widthForCurrent(model_, nmos, d.sink2, d.stage2Current, vgsTail,
                                        choices.tail.veff + 0.3, 0.0, temp);
  }
  // Driver gate rides the mirror node: its VGS is the mirror's VGS, so its
  // width follows from the stage-2 current at that drive (this also nulls
  // the systematic offset).
  {
    const double vgs3 = device::vgsForCurrent(model_, pmos, d.mirror, d.tailCurrent / 2.0,
                                              0.5, 0.0, specs.vdd, temp);
    d.driver.l = choices.driver.length;
    d.driver.w = device::widthForCurrent(model_, pmos, d.driver, d.stage2Current, vgs3,
                                         vgs3 + 0.3, 0.0, temp);
  }
  requireFinite("TwoStageSizer", {{"mirror width", d.mirror.w},
                                  {"tail width", d.tail.w},
                                  {"stage-2 sink width", d.sink2.w},
                                  {"driver width", d.driver.w}});

  for (TwoStageGroup g : circuit::kAllTwoStageGroups) {
    applyJunctionPolicy(tech_, policy, g, d.geometry(g));
  }

  d.vbn = device::vgsForCurrent(model_, nmos, d.tail, d.tailCurrent, 0.3, 0.0, specs.vdd,
                                temp);
  // Nulling resistor slightly past 1/gm6 pushes the zero into the left half
  // plane where it helps the phase.
  const TwoStageSnapshot s = snapshot(d, specs.inputCmMid());
  d.rz = 1.25 / std::max(s.driver.gm, 1e-6);
}

TwoStageSizingResult TwoStageSizer::size(const OtaSpecs& specs, const SizingPolicy& policy,
                                         TwoStageChoices choices) const {
  TwoStageSizingResult result;
  double stage2Ratio = 2.5;
  double gmScale = 1.0;

  TwoStageOtaDesign d;
  for (int outer = 0; outer < 20; ++outer) {
    ++result.gbwIterations;
    const double gm1 = 2.0 * M_PI * specs.gbw * (choices.ccOverCl * specs.cload) * gmScale;
    buildDesign(specs, policy, choices, gm1, stage2Ratio, d);

    // Each design is evaluated once: the loop's last row is of the design
    // it leaves, which the GBW check reads, and as the design does not
    // change after that check, the row is the prediction.
    for (int inner = 0;; ++inner) {
      result.predicted = evaluate(d, specs, policy);
      requireFinite("TwoStageSizer", result.predicted);
      const double pm = result.predicted.phaseMarginDeg;
      if (inner == 25) break;
      if (pm < specs.phaseMarginDeg) {
        ++result.pmIterations;
        stage2Ratio = std::min(12.0, stage2Ratio * 1.15);
      } else if (pm > specs.phaseMarginDeg + 4.0 && stage2Ratio > 1.2) {
        ++result.pmIterations;
        stage2Ratio = std::max(1.2, stage2Ratio * 0.92);
      } else {
        break;
      }
      buildDesign(specs, policy, choices, gm1, stage2Ratio, d);
    }

    const double gbwError = result.predicted.gbwHz / specs.gbw - 1.0;
    if (std::abs(gbwError) < 5e-3) {
      result.converged = true;
      break;
    }
    gmScale *= specs.gbw / result.predicted.gbwHz;
  }

  result.design = d;
  return result;
}

}  // namespace lo::sizing
