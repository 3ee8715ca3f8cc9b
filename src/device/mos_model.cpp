#include "device/mos_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "tech/units.hpp"

namespace lo::device {

namespace {

/// Partial derivatives with respect to the normalised (vgs, vds, vbs).
struct Grad {
  double g = 0.0, d = 0.0, b = 0.0;
};
Grad operator+(Grad x, Grad y) { return {x.g + y.g, x.d + y.d, x.b + y.b}; }
Grad operator-(Grad x, Grad y) { return {x.g - y.g, x.d - y.d, x.b - y.b}; }
Grad operator*(double k, Grad x) { return {k * x.g, k * x.d, k * x.b}; }

/// A value with its slope along its one argument.
struct Slope {
  double v = 0.0;
  double dv = 0.0;
};

/// Softplus with scale `a`: smooth max(x, 0) that tends to x for x >> a.
/// The slope d/dx is the logistic function of x / a.
Slope softplus(double x, double a) {
  const double r = x / a;
  if (r > 40.0) return {x, 1.0};
  if (r < -40.0) return {0.0, 0.0};
  const double e = std::exp(r);
  return {a * std::log1p(e), e / (1.0 + e)};
}

/// Junction capacitance with reverse bias `vr` (>= 0 reverse); clamps the
/// forward-bias singularity at half the built-in potential.
double junctionCap(double c0, double vr, double pb, double m) {
  const double x = std::max(1.0 - (-vr) / pb, 0.5);  // vr < 0 means forward bias.
  return c0 / std::pow(x, m);
}

}  // namespace

// ---------------------------------------------------------------------------
// Base class: symmetry handling, derivatives, capacitances, noise.
// ---------------------------------------------------------------------------

MosConductance MosModel::normalizedCurrent(const tech::MosModelCard& card,
                                          const MosGeometry& geo, double vgs, double vds,
                                          double vbs, double tempK) const {
  if (vds >= 0.0) return forwardCurrent(card, geo, vgs, vds, vbs, tempK);
  // Source/drain symmetry: with vds < 0 the drain acts as the source, so
  // i(vgs, vds, vbs) = -f(vgs - vds, -vds, vbs - vds) and the chain rule
  // folds every forward partial into d/dvds.
  const MosConductance f = forwardCurrent(card, geo, vgs - vds, -vds, vbs - vds, tempK);
  return {-f.id, -f.gm, f.gm + f.gds + f.gmb, -f.gmb};
}

double MosModel::currentNormalized(const tech::MosModelCard& card, const MosGeometry& geo,
                                   double vgs, double vds, double vbs, double tempK) const {
  return normalizedCurrent(card, geo, vgs, vds, vbs, tempK).id;
}

double MosModel::drainCurrent(const tech::MosModelCard& card, const MosGeometry& geo,
                              double vgs, double vds, double vbs, double tempK) const {
  const double p = card.polarity();
  return p * currentNormalized(card, geo, p * vgs, p * vds, p * vbs, tempK);
}

MosConductance MosModel::conductances(const tech::MosModelCard& card, const MosGeometry& geo,
                                      double vgs, double vds, double vbs,
                                      double tempK) const {
  const double p = card.polarity();
  const MosConductance n = normalizedCurrent(card, geo, p * vgs, p * vds, p * vbs, tempK);
  // The magnitudes are polarity independent.  Clamp to the conductance
  // floor the Newton stamps rely on (gds > 0 keeps every drain node tied).
  return {p * n.id, std::max(n.gm, 0.0), std::max(n.gds, 1e-15), std::max(n.gmb, 0.0)};
}

MosOpPoint MosModel::evaluate(const tech::MosModelCard& card, const MosGeometry& geo,
                              double vgs, double vds, double vbs, double tempK) const {
  const double p = card.polarity();
  const double nvgs = p * vgs, nvds = p * vds, nvbs = p * vbs;

  MosOpPoint op;
  op.vgs = vgs;
  op.vds = vds;
  op.vbs = vbs;
  const MosConductance g = conductances(card, geo, vgs, vds, vbs, tempK);
  op.id = g.id;
  op.gm = g.gm;
  op.gds = g.gds;
  op.gmb = g.gmb;

  const double vthN = threshold(card, std::min(nvbs, card.phi - 0.05));
  op.vth = p * vthN;
  op.veff = nvgs - vthN;
  op.vdsat = saturationVoltage(card, nvgs, nvbs, tempK);

  const double vt = kBoltzmann * tempK / kElectronCharge;
  if (op.veff < -3.0 * vt) {
    op.region = MosRegion::kCutoff;
  } else if (op.veff < 3.0 * vt) {
    op.region = MosRegion::kWeak;
  } else if (nvds < op.vdsat) {
    op.region = MosRegion::kTriode;
  } else {
    op.region = MosRegion::kSaturation;
  }

  // --- Meyer gate capacitances + overlaps. ---
  const double leff = card.leff(geo.l);
  const double coxTotal = card.cox() * geo.w * leff;
  const double ovlS = card.cgso * geo.w;
  const double ovlD = card.cgdo * geo.w;
  const double ovlB = card.cgbo * geo.l;
  switch (op.region) {
    case MosRegion::kCutoff:
    case MosRegion::kWeak:
      op.cgs = ovlS;
      op.cgd = ovlD;
      op.cgb = coxTotal + ovlB;
      break;
    case MosRegion::kTriode:
      op.cgs = 0.5 * coxTotal + ovlS;
      op.cgd = 0.5 * coxTotal + ovlD;
      op.cgb = ovlB;
      break;
    case MosRegion::kSaturation:
      op.cgs = (2.0 / 3.0) * coxTotal + ovlS;
      op.cgd = ovlD;
      op.cgb = ovlB;
      break;
  }

  // --- Junction capacitances (reverse bias increases with drain voltage). ---
  const double vrSb = -nvbs;            // reverse bias source-bulk
  const double vrDb = -(nvbs - nvds);   // reverse bias drain-bulk
  op.csb = junctionCap(card.cj * geo.as, vrSb, card.pb, card.mj) +
           junctionCap(card.cjsw * geo.ps, vrSb, card.pb, card.mjsw);
  op.cdb = junctionCap(card.cj * geo.ad, vrDb, card.pb, card.mj) +
           junctionCap(card.cjsw * geo.pd, vrDb, card.pb, card.mjsw);

  // --- Noise. ---
  // Thermal: 4kT*(2/3)*gm in saturation, 4kT*gds-like channel conductance in
  // triode; take the larger so the expression covers both regions.
  const double kT4 = 4.0 * kBoltzmann * tempK;
  op.thermalNoisePsd = kT4 * std::max((2.0 / 3.0) * op.gm, op.gds * (op.region == MosRegion::kTriode ? 1.0 : 0.0));
  // Flicker: SPICE convention KF * |ID|^AF / (Cox * Leff^2) / f.
  const double absId = std::abs(op.id);
  op.flickerCoeff = card.kf * std::pow(std::max(absId, 1e-15), card.af) /
                    (card.cox() * leff * leff);
  return op;
}

std::unique_ptr<MosModel> MosModel::create(std::string_view name) {
  if (name == "level1") return std::make_unique<Level1Model>();
  if (name == "ekv") return std::make_unique<EkvModel>();
  throw std::invalid_argument("unknown MOS model: " + std::string(name));
}

// ---------------------------------------------------------------------------
// Level 1.
// ---------------------------------------------------------------------------

double Level1Model::threshold(const tech::MosModelCard& card, double vbs) const {
  const double phiEff = std::max(card.phi - vbs, 0.05);
  return card.vto + card.gamma * (std::sqrt(phiEff) - std::sqrt(card.phi));
}

double Level1Model::saturationVoltage(const tech::MosModelCard& card, double vgs,
                                      double vbs, double tempK) const {
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double veff = vgs - threshold(card, vbs);
  return softplus(veff, card.slopeFactor * vt).v;
}

MosConductance Level1Model::forwardCurrent(const tech::MosModelCard& card,
                                           const MosGeometry& geo, double vgs, double vds,
                                           double vbs, double tempK) const {
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double nvt = card.slopeFactor * vt;
  const double phiEff = std::max(card.phi - vbs, 0.05);
  const double vth = card.vtoAt(tempK) +
                     card.gamma * (std::sqrt(phiEff) - std::sqrt(card.phi));
  const double veff = vgs - vth;
  // Body effect d veff / d vbs (zero once phiEff sits on its clamp).
  const double dVeffDvbs =
      card.phi - vbs > 0.05 ? card.gamma / (2.0 * std::sqrt(phiEff)) : 0.0;
  // Smooth gate drive: equals veff in strong inversion, exponential below
  // threshold, keeping Newton iterations well conditioned near cutoff.
  const Slope q = softplus(veff, nvt);
  const double leff = card.leff(geo.l);
  const double beta = card.kpAt(tempK) / (1.0 + card.theta * q.v) * geo.w / leff;
  const double dBetaDq = -beta * card.theta / (1.0 + card.theta * q.v);
  // Smooth triode-to-saturation transition through an effective vds that
  // saturates at q (k = 6 keeps the error near the knee around 1%).
  const double qFloor = std::max(q.v, 1e-9);
  const double ratio = vds / qFloor;
  const double s = 1.0 + std::pow(ratio, 6.0);
  const double root = std::pow(s, 1.0 / 6.0);
  const double vdse = vds / root;
  const double ratio2 = ratio * ratio;
  const double dVdseDratio = -vds * ratio2 * ratio2 * ratio / (s * root);
  const double dVdseDq = q.v > 1e-9 ? dVdseDratio * (-ratio / qFloor) : 0.0;
  const double dVdseDvds = 1.0 / root + dVdseDratio / qFloor;
  const double va = card.earlyPerMeter * leff;
  const double clm = 1.0 + vds / va;
  const double core = (q.v - 0.5 * vdse) * vdse;

  MosConductance out;
  // Written out in the value's original operation order, so id keeps its bits.
  out.id = beta * (q.v - 0.5 * vdse) * vdse * (1.0 + vds / va);
  const double dIdq = (dBetaDq * core + beta * (vdse + (q.v - vdse) * dVdseDq)) * clm;
  const double dIdVeff = dIdq * q.dv;
  out.gm = dIdVeff;
  out.gds = beta * (q.v - vdse) * dVdseDvds * clm + beta * core / va;
  out.gmb = dIdVeff * dVeffDvbs;
  return out;
}

// ---------------------------------------------------------------------------
// EKV.
// ---------------------------------------------------------------------------

namespace {

/// Pinch-off voltage with its slope d vp / d vg.
Slope pinchOffSlope(const tech::MosModelCard& card, double vg) {
  const double sqrtPhi = std::sqrt(card.phi);
  const double vgp = vg - card.vto + card.phi + card.gamma * sqrtPhi;
  if (vgp <= 0.0) return {-card.phi, 0.0};
  const double half = card.gamma / 2.0;
  const double root = std::sqrt(vgp + half * half);
  return {vgp - card.phi - card.gamma * (root - half), 1.0 - card.gamma / (2.0 * root)};
}

/// Slope factor with its slope d n / d vp.
Slope slopeFactorSlope(const tech::MosModelCard& card, double vp) {
  const double arg = std::max(card.phi + vp, 0.1);
  const double root = std::sqrt(arg);
  return {1.0 + card.gamma / (2.0 * root),
          card.phi + vp > 0.1 ? -card.gamma / (4.0 * root * arg) : 0.0};
}

/// l(v) = ln(1 + exp(v / 2)) with its slope: the EKV interpolation
/// function is F(v) = l^2, so sqrt(F) = l and dF/dv = 2 l dl/dv.
Slope ekvRoot(double v) {
  const Slope l = softplus(v / 2.0, 1.0);
  return {l.v, 0.5 * l.dv};
}

}  // namespace

double EkvModel::pinchOff(const tech::MosModelCard& card, double vg) {
  return pinchOffSlope(card, vg).v;
}

double EkvModel::slopeFactorAt(const tech::MosModelCard& card, double vp) {
  return slopeFactorSlope(card, vp).v;
}

double EkvModel::threshold(const tech::MosModelCard& card, double vbs) const {
  const double phiEff = std::max(card.phi - vbs, 0.05);
  return card.vto + card.gamma * (std::sqrt(phiEff) - std::sqrt(card.phi));
}

double EkvModel::saturationVoltage(const tech::MosModelCard& card, double vgs,
                                   double vbs, double tempK) const {
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double vg = vgs - vbs;
  const double vs = -vbs;
  const double vp = pinchOff(card, vg);
  const double lf = ekvRoot((vp - vs) / vt).v;
  const double iff = lf * lf;
  return vt * (2.0 * std::sqrt(iff) + 4.0);
}

MosConductance EkvModel::forwardCurrent(const tech::MosModelCard& card,
                                        const MosGeometry& geo, double vgs, double vds,
                                        double vbs, double tempK) const {
  const double vt = kBoltzmann * tempK / kElectronCharge;
  // Bulk-referenced node voltages; the pinch-off uses the temperature-
  // shifted threshold.  Each carries its gradient in (vgs, vds, vbs).
  const double vg = vgs - vbs + (card.vto - card.vtoAt(tempK));
  const double vs = -vbs;
  const double vd = vds - vbs;
  const Grad gVs{0.0, 0.0, -1.0};
  const Grad gVd{0.0, 1.0, -1.0};

  const Slope vp = pinchOffSlope(card, vg);
  const Grad gVp{vp.dv, 0.0, -vp.dv};
  const Slope n = slopeFactorSlope(card, vp.v);
  const double leff = card.leff(geo.l);
  const double drive = std::max(vp.v - vs, 0.0);
  const Grad gDrive = vp.v - vs > 0.0 ? gVp - gVs : Grad{};
  const double beta = card.kpAt(tempK) / (1.0 + card.theta * drive) * geo.w / leff;
  const Grad gBeta = (-beta * card.theta / (1.0 + card.theta * drive)) * gDrive;
  const double ispec = 2.0 * n.v * beta * vt * vt;
  const Grad gIspec = (2.0 * vt * vt) * ((n.dv * beta) * gVp + n.v * gBeta);

  const Slope lf = ekvRoot((vp.v - vs) / vt);
  const Slope lr = ekvRoot((vp.v - vd) / vt);
  const double iff = lf.v * lf.v;
  const double irr = lr.v * lr.v;
  const Grad gLf = (lf.dv / vt) * (gVp - gVs);
  const Grad gLr = (lr.dv / vt) * (gVp - gVd);
  double id = ispec * (iff - irr);
  const Grad gId = (iff - irr) * gIspec + (2.0 * ispec) * (lf.v * gLf - lr.v * gLr);

  // Channel-length modulation on the saturated excess drain voltage.
  const double vdsat = vt * (2.0 * std::sqrt(iff) + 4.0);
  const double va = card.earlyPerMeter * leff;
  const Slope excess = softplus(vds - vdsat, 2.0 * vt);
  const double clm = 1.0 + excess.v / va;
  const Grad gClm = (excess.dv / va) * (Grad{0.0, 1.0, 0.0} - (2.0 * vt) * gLf);
  const Grad g = clm * gId + id * gClm;
  id *= clm;
  return {id, g.g, g.d, g.b};
}

}  // namespace lo::device
