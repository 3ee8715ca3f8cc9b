#include "device/inversion.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace lo::device {

namespace {

/// Refuses a target current that is not a finite positive number (NaN
/// fails every comparison, so it is caught by the first test too).
void requireTarget(const char* who, double targetId) {
  if (!(targetId > 0.0) || !std::isfinite(targetId)) {
    throw std::invalid_argument(std::string(who) + ": targetId must be finite and > 0");
  }
}

}  // namespace

double widthForCurrent(const MosModel& model, const tech::MosModelCard& card,
                       MosGeometry geo, double targetId, double vgs, double vds,
                       double vbs, double tempK) {
  requireTarget("widthForCurrent", targetId);
  // Both models are strictly proportional to W, so one scaling step suffices;
  // a second pass guards against future models with W-dependent terms.
  for (int pass = 0; pass < 2; ++pass) {
    const double id = std::abs(model.currentNormalized(card, geo, vgs, vds, vbs, tempK));
    if (!(id > 0.0)) {
      throw std::runtime_error("widthForCurrent: device off at the requested bias");
    }
    geo.w = std::max(geo.w * targetId / id, 0.1e-6);
  }
  return geo.w;
}

double vgsForCurrent(const MosModel& model, const tech::MosModelCard& card,
                     const MosGeometry& geo, double targetId, double vds, double vbs,
                     double vmax, double tempK, std::optional<double> start) {
  requireTarget("vgsForCurrent", targetId);
  const double p = card.polarity();
  const double logTarget = std::log(targetId);
  // f(v) = log|id(v)| - log(targetId) and its slope gm / |id|, both from one
  // model call at the polarity-normalised gate bias v.  In log space the
  // current is close to linear below threshold and concave above it, so
  // Newton steps stay well scaled from nanoamps to milliamps.
  double f = 0.0, df = 0.0;
  auto evaluate = [&](double v) {
    const MosConductance c = model.conductances(card, geo, p * v, p * vds, p * vbs, tempK);
    const double id = std::abs(c.id);
    f = std::log(id) - logTarget;
    df = c.gm / id;
    return id;
  };
  const double idMax = evaluate(vmax);
  if (!std::isfinite(idMax)) {
    throw std::runtime_error("vgsForCurrent: device current at vmax is not finite");
  }
  if (idMax < targetId) {
    throw std::runtime_error("vgsForCurrent: target current unreachable at vmax");
  }

  // rtsafe (Numerical Recipes): f(lo) < 0 <= f(hi) throughout; f(0) is
  // taken to be negative, as a device at zero gate drive is off.  A Newton
  // step is taken only if it lands inside the bracket and is at most half
  // the step before the last one; otherwise the bracket is bisected.
  double v = vmax;  // f and df hold the values at v.
  if (start && *start > 0.0 && *start < vmax) {
    v = *start;
    evaluate(v);
  }
  double lo = 0.0, hi = vmax;
  double dx = vmax, dxOld = vmax;  // Lengths of the last two steps.
  for (int step = 0; step < 100; ++step) {
    if (f == 0.0) return v;
    (f < 0.0 ? lo : hi) = v;
    const double newton = f / df;  // Not finite when gm or id is 0.
    const bool useNewton = std::isfinite(newton) && v - newton >= lo && v - newton <= hi &&
                           2.0 * std::abs(newton) <= dxOld;
    dxOld = dx;
    const double prev = v;
    if (useNewton) {
      dx = std::abs(newton);
      v -= newton;
    } else {
      dx = 0.5 * (hi - lo);
      v = lo + dx;
    }
    if (v == prev || dx <= 1e-12 * v) return v;
    evaluate(v);
  }
  return v;
}

}  // namespace lo::device
