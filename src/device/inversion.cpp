#include "device/inversion.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "tech/units.hpp"

namespace lo::device {

double widthForCurrent(const MosModel& model, const tech::MosModelCard& card,
                       MosGeometry geo, double targetId, double vgs, double vds,
                       double vbs, double tempK) {
  if (targetId <= 0.0) throw std::invalid_argument("widthForCurrent: targetId must be > 0");
  // Both models are strictly proportional to W, so one scaling step suffices;
  // a second pass guards against future models with W-dependent terms.
  for (int pass = 0; pass < 2; ++pass) {
    const double id = std::abs(model.currentNormalized(card, geo, vgs, vds, vbs, tempK));
    if (id <= 0.0) {
      throw std::runtime_error("widthForCurrent: device off at the requested bias");
    }
    geo.w = std::max(geo.w * targetId / id, 0.1e-6);
  }
  return geo.w;
}

double vgsForCurrent(const MosModel& model, const tech::MosModelCard& card,
                     const MosGeometry& geo, double targetId, double vds, double vbs,
                     double vmax, double tempK) {
  if (targetId <= 0.0) throw std::invalid_argument("vgsForCurrent: targetId must be > 0");
  double lo = 0.0, hi = vmax;
  const double iHi = std::abs(model.currentNormalized(card, geo, hi, vds, vbs, tempK));
  if (iHi < targetId) {
    throw std::runtime_error("vgsForCurrent: target current unreachable at vmax");
  }
  for (int i = 0; i < 80; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double id = std::abs(model.currentNormalized(card, geo, mid, vds, vbs, tempK));
    double& side = id < targetId ? lo : hi;
    // Bracket at double resolution (~55 steps): every later step would
    // repeat this one exactly, so stopping leaves the result unchanged.
    if (side == mid) break;
    side = mid;
  }
  return 0.5 * (lo + hi);
}

GmSizing sizeForGm(const MosModel& model, const tech::MosModelCard& card, MosGeometry geo,
                   double targetGm, double targetId, double vds, double vbs,
                   double tempK) {
  if (targetGm <= 0.0 || targetId <= 0.0) {
    throw std::invalid_argument("sizeForGm: targets must be > 0");
  }
  const double vt = kBoltzmann * tempK / kElectronCharge;
  const double vth = model.threshold(card, std::min(vbs, card.phi - 0.05));
  // Square-law seed: veff = 2 ID / gm, clamped into a physical window.
  double veff = std::clamp(2.0 * targetId / targetGm, 3.0 * vt, 1.5);

  GmSizing out;
  for (int iter = 0; iter < 40; ++iter) {
    const double vgs = vth + veff;
    geo.w = widthForCurrent(model, card, geo, targetId, vgs, vds, vbs, tempK);
    const MosOpPoint op = model.evaluate(card, geo, vgs, vds, vbs, tempK);
    out.w = geo.w;
    out.vgs = vgs;
    out.gm = op.gm;
    const double err = op.gm / targetGm;
    if (std::abs(err - 1.0) < 1e-6) break;
    // At fixed ID, gm falls as veff rises; scale veff by the gm excess.
    veff = std::clamp(veff * err, 3.0 * vt, 1.5);
  }
  return out;
}

}  // namespace lo::device
