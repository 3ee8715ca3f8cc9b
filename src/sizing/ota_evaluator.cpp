#include "sizing/ota_evaluator.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "device/inversion.hpp"
#include "tech/units.hpp"

namespace lo::sizing {

namespace {

using circuit::FoldedCascodeOtaDesign;

double atanDeg(double x) { return std::atan(x) * 180.0 / M_PI; }

}  // namespace

OperatingChoices::GroupChoice& OperatingChoices::of(circuit::OtaGroup g) {
  using circuit::OtaGroup;
  switch (g) {
    case OtaGroup::kInputPair: return inputPair;
    case OtaGroup::kTail: return tail;
    case OtaGroup::kSink: return sink;
    case OtaGroup::kNCascode: return nCascode;
    case OtaGroup::kPSource: return pSource;
    case OtaGroup::kPCascode: return pCascode;
  }
  return inputPair;
}

const OperatingChoices::GroupChoice& OperatingChoices::of(circuit::OtaGroup g) const {
  return const_cast<OperatingChoices*>(this)->of(g);
}

void requireFinite(const char* who,
                   std::initializer_list<std::pair<const char*, double>> figures) {
  for (const auto& [name, value] : figures) {
    if (!std::isfinite(value)) {
      throw std::runtime_error(std::string(who) + ": " + name + " is not finite (" +
                               std::to_string(value) + ")");
    }
  }
}

void requireFinite(const char* who, const OtaPerformance& p) {
  requireFinite(who, {{"predicted DC gain", p.dcGainDb},
                      {"predicted GBW", p.gbwHz},
                      {"predicted phase margin", p.phaseMarginDeg},
                      {"predicted slew rate", p.slewRateVPerUs},
                      {"predicted CMRR", p.cmrrDb},
                      {"predicted offset", p.offsetMv},
                      {"predicted output resistance", p.outputResistanceMOhm},
                      {"predicted input noise", p.inputNoiseUv},
                      {"predicted thermal noise density", p.thermalNoiseDensityNv},
                      {"predicted flicker noise", p.flickerNoiseUv},
                      {"predicted power", p.powerMw},
                      {"predicted PSRR", p.psrrDb},
                      {"predicted settling time", p.settlingTimeNs}});
}

OtaOpSnapshot OtaEvaluator::snapshot(const FoldedCascodeOtaDesign& d, double inputCm) const {
  const double temp = tech_.temperature;
  const tech::MosModelCard& nmos = tech_.nmos;
  const tech::MosModelCard& pmos = tech_.pmos;
  const double iPair = d.tailCurrent / 2.0;
  const double iCasc = d.cascodeCurrent;

  OtaOpSnapshot s;
  s.vout = inputCm;

  // Input pair: bulk tied to source, so no body effect on VGS.
  const double vgs1 =
      device::vgsForCurrent(model_, pmos, d.inputPair, iPair, 1.0, 0.0, d.vdd, temp);
  s.vtail = inputCm + vgs1;

  // Folding node: fixed point through the NMOS cascode bias.  Each solve
  // starts from the previous iteration's VGS, which the loop barely moves.
  double vx = 0.3;
  std::optional<double> vgsNc;
  for (int i = 0; i < 6; ++i) {
    vgsNc = device::vgsForCurrent(model_, nmos, d.nCascode, iCasc,
                                  std::max(s.vout - vx, 0.2), -vx, d.vdd, temp, vgsNc);
    vx = d.vc1 - *vgsNc;
    vx = std::max(vx, 0.05);
  }
  s.vx = vx;

  // Mirror node (gates of MP3/MP4 at their own drain loop).
  const double vgsPs =
      device::vgsForCurrent(model_, pmos, d.pSource, iCasc, 1.0, 0.0, d.vdd, temp);
  s.vy = d.vdd - vgsPs;

  // PMOS cascode sources, warm-started the same way.
  double vz = d.vdd - 0.3;
  std::optional<double> vgsPc;
  for (int i = 0; i < 6; ++i) {
    vgsPc = device::vgsForCurrent(model_, pmos, d.pCascode, iCasc, std::max(vz - s.vout, 0.2),
                                  -(d.vdd - vz), d.vdd, temp, vgsPc);
    vz = d.vc3 + *vgsPc;
    vz = std::min(vz, d.vdd - 0.05);
  }
  s.vz = vz;

  // Operating points at the solved node voltages.
  s.pair = model_.evaluate(pmos, d.inputPair, inputCm - s.vtail, s.vx - s.vtail, 0.0, temp);
  s.tail = model_.evaluate(pmos, d.tail, d.vp1 - d.vdd, s.vtail - d.vdd, 0.0, temp);
  s.sink = model_.evaluate(nmos, d.sink, d.vbn, s.vx, 0.0, temp);
  s.nCasc = model_.evaluate(nmos, d.nCascode, d.vc1 - s.vx, s.vout - s.vx, -s.vx, temp);
  s.pSrc = model_.evaluate(pmos, d.pSource, s.vy - d.vdd, s.vz - d.vdd, 0.0, temp);
  s.pCasc =
      model_.evaluate(pmos, d.pCascode, d.vc3 - s.vz, s.vout - s.vz, d.vdd - s.vz, temp);
  return s;
}

OtaCapBudget OtaEvaluator::capBudget(const FoldedCascodeOtaDesign& d,
                                     const OtaOpSnapshot& s,
                                     const SizingPolicy& policy) const {
  auto routing = [&](const char* net) {
    return policy.routingParasitics ? policy.routingParasitics->capOn(net) : 0.0;
  };
  OtaCapBudget c;
  c.out = d.cload + s.nCasc.cdb + s.nCasc.cgd + s.pCasc.cdb + s.pCasc.cgd + routing("out");
  c.x = s.pair.cdb + s.pair.cgd + s.sink.cdb + s.sink.cgd + s.nCasc.csb + s.nCasc.cgs +
        routing("x1");
  c.y = s.nCasc.cdb + s.nCasc.cgd + s.pCasc.cdb + s.pCasc.cgd + 2.0 * s.pSrc.cgs +
        2.0 * s.pSrc.cgd + routing("y1");
  c.z = s.pSrc.cdb + s.pSrc.cgd + s.pCasc.csb + s.pCasc.cgs + routing("z1");
  return c;
}

OtaPerformance OtaEvaluator::evaluate(const FoldedCascodeOtaDesign& d,
                                      const OtaOpSnapshot& s,
                                      const SizingPolicy& policy) const {
  const OtaCapBudget c = capBudget(d, s, policy);

  OtaPerformance p;
  const double gm1 = s.pair.gm;

  // Unity-gain frequency and phase margin: output pole dominant, folding
  // node and PMOS-cascode-source poles, mirror pole-zero doublet.  The
  // non-dominant poles also depress the magnitude near the crossing, so the
  // true unity frequency is found by a short fixed-point iteration.
  const double fu0 = gm1 / (2.0 * M_PI * c.out);
  const double fp2 = (s.nCasc.gm + s.nCasc.gmb) / (2.0 * M_PI * c.x);
  const double fp3 = s.pSrc.gm / (2.0 * M_PI * c.y);
  const double fp4 = (s.pCasc.gm + s.pCasc.gmb) / (2.0 * M_PI * c.z);
  double fu = fu0;
  for (int i = 0; i < 6; ++i) {
    const double k2 = (1.0 + std::pow(fu / fp2, 2.0)) * (1.0 + std::pow(fu / fp4, 2.0)) *
                      (1.0 + std::pow(fu / fp3, 2.0)) /
                      (1.0 + std::pow(fu / (2.0 * fp3), 2.0));
    fu = fu0 / std::sqrt(k2);  // k2 is the squared magnitude excess.
  }
  double pm = 90.0 - atanDeg(fu / fp2) - atanDeg(fu / fp4);
  pm -= atanDeg(fu / fp3) - atanDeg(fu / (2.0 * fp3));  // Mirror doublet.
  p.gbwHz = fu;
  p.phaseMarginDeg = pm;

  // DC gain through the cascoded output resistance.
  const double roNc = 1.0 / s.nCasc.gds;
  const double roX = 1.0 / (s.sink.gds + s.pair.gds);
  const double rDown = roNc + roX + (s.nCasc.gm + s.nCasc.gmb) * roNc * roX;
  const double roPc = 1.0 / s.pCasc.gds;
  const double roPs = 1.0 / s.pSrc.gds;
  const double rUp = roPc + roPs + (s.pCasc.gm + s.pCasc.gmb) * roPc * roPs;
  const double rout = rUp * rDown / (rUp + rDown);
  const double adm = gm1 * rout;
  p.dcGainDb = 20.0 * std::log10(adm);
  p.outputResistanceMOhm = rout / 1e6;

  // Slew rate: the tail current (or what the folded branch can absorb).
  p.slewRateVPerUs = std::min(d.tailCurrent, 2.0 * d.cascodeCurrent) / c.out / 1e6;

  // CMRR: tail impedance conversion attenuated by the mirror accuracy.
  const double rTail = 1.0 / s.tail.gds;
  const double mirrorError = s.pSrc.gds / s.pSrc.gm;
  p.cmrrDb = 20.0 * std::log10(2.0 * gm1 * rTail / mirrorError);

  // Systematic offset: the input shift that moves the output from the
  // mirror-node equilibrium to the assumed output level.
  p.offsetMv = (s.vy - s.vout) / adm * 1e3;

  // Noise: pair, sinks and mirror sources dominate; input-referred.
  const double thermal =
      2.0 * (s.pair.thermalNoisePsd + s.sink.thermalNoisePsd + s.pSrc.thermalNoisePsd) /
      (gm1 * gm1);
  const double flicker =
      2.0 * (s.pair.flickerCoeff + s.sink.flickerCoeff + s.pSrc.flickerCoeff) / (gm1 * gm1);
  p.thermalNoiseDensityNv = std::sqrt(thermal + flicker / kThermalSpotHz) * 1e9;
  p.flickerNoiseUv = std::sqrt(thermal + flicker / kFlickerSpotHz) * 1e6;
  // Integrated input-referred noise over the amplifier band (1 Hz .. fu).
  const double fHigh = std::min(fu, kNoiseBandHighHz);
  const double meanSquare =
      thermal * fHigh + flicker * std::log(fHigh / kNoiseBandLowHz);
  p.inputNoiseUv = std::sqrt(meanSquare) * 1e6;

  // PSRR at DC: two supply paths compete.  Through the cascoded upper
  // branch the ripple is attenuated by Rout/rUp; through the tail source
  // (whose gate bias is ground-referenced) the ripple modulates the tail
  // current like a common-mode input, cancelled by the mirror up to its
  // accuracy.  The worse (smaller) rejection dominates.
  const double psrrCascode = gm1 * rUp;
  const double psrrTail = 2.0 * gm1 * s.pair.gm / (s.tail.gm * mirrorError * gm1);
  p.psrrDb = 20.0 * std::log10(std::min(psrrCascode, psrrTail));

  // Settling: one slewing interval plus a few closed-loop time constants.
  const double stepV = 0.4;
  const double tSlew = stepV / (p.slewRateVPerUs * 1e6);
  const double tLin = 4.6 / (2.0 * M_PI * fu);  // ln(100) time constants.
  p.settlingTimeNs = (tSlew + tLin) * 1e9;

  p.powerMw = d.supplyCurrent() * d.vdd * 1e3;
  return p;
}

}  // namespace lo::sizing
