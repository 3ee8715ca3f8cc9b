#include "sim/measure.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace lo::sim {

AcCurve curveAt(const std::vector<AcPoint>& ac, circuit::NodeId node) {
  AcCurve c;
  c.freq.reserve(ac.size());
  c.h.reserve(ac.size());
  for (const AcPoint& p : ac) {
    c.freq.push_back(p.freq);
    c.h.push_back(p.at(node));
  }
  return c;
}

double toDb(double magnitude) { return 20.0 * std::log10(std::max(magnitude, 1e-30)); }

double dcGain(const AcCurve& curve) {
  return curve.h.empty() ? 0.0 : std::abs(curve.h.front());
}

std::vector<double> unwrappedPhaseDeg(const AcCurve& curve) {
  std::vector<double> out;
  out.reserve(curve.size());
  double prev = 0.0;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    double ph = std::arg(curve.h[i]) * 180.0 / M_PI;
    if (i > 0) {
      while (ph - prev > 180.0) ph -= 360.0;
      while (ph - prev < -180.0) ph += 360.0;
    }
    out.push_back(ph);
    prev = ph;
  }
  return out;
}

double unityGainFrequency(const AcCurve& curve) {
  for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
    const double m0 = std::abs(curve.h[i]);
    const double m1 = std::abs(curve.h[i + 1]);
    if (m0 >= 1.0 && m1 < 1.0) {
      // Log-log interpolation between the bracketing points.
      const double l0 = std::log10(m0), l1 = std::log10(m1);
      const double t = l0 / (l0 - l1);
      return curve.freq[i] * std::pow(curve.freq[i + 1] / curve.freq[i], t);
    }
  }
  return 0.0;
}

double phaseMarginDeg(const AcCurve& curve) {
  const double fu = unityGainFrequency(curve);
  if (fu <= 0.0) return 180.0;
  const std::vector<double> phase = unwrappedPhaseDeg(curve);
  // Normalise so that the low-frequency phase is 0 (inverting gains report
  // margins relative to their own DC phase).
  const double ref = phase.front();
  for (std::size_t i = 0; i + 1 < curve.size(); ++i) {
    if (curve.freq[i] <= fu && fu <= curve.freq[i + 1]) {
      const double t = std::log(fu / curve.freq[i]) /
                       std::log(curve.freq[i + 1] / curve.freq[i]);
      const double ph = phase[i] + t * (phase[i + 1] - phase[i]) - ref;
      return 180.0 + ph;
    }
  }
  return 180.0;
}

SlewRates slewRates(const std::vector<TranPoint>& tran, circuit::NodeId node,
                    double tStart, double tStop) {
  SlewRates out;
  if (tran.size() < 2 || tStop <= tStart) return out;
  bool sawInterval = false;
  for (std::size_t i = 0; i + 1 < tran.size(); ++i) {
    const double t0 = tran[i].time, t1 = tran[i + 1].time;
    if (t0 < tStart || t1 > tStop || t1 <= t0) continue;
    const double dv = tran[i + 1].nodeV[node] - tran[i].nodeV[node];
    const double slope = dv / (t1 - t0);
    if (!std::isfinite(slope)) continue;
    sawInterval = true;
    out.rising = std::max(out.rising, slope);
    out.falling = std::max(out.falling, -slope);
  }
  if (!sawInterval) {
    // Degenerate window: the step is coarser than [tStart, tStop], so no
    // interval lies entirely inside it.  Fall back to intervals merely
    // overlapping the window -- a coarse transient then reports the
    // bounding slope instead of a silent 0/0.
    for (std::size_t i = 0; i + 1 < tran.size(); ++i) {
      const double t0 = tran[i].time, t1 = tran[i + 1].time;
      if (t1 <= t0 || t1 < tStart || t0 > tStop) continue;
      const double dv = tran[i + 1].nodeV[node] - tran[i].nodeV[node];
      const double slope = dv / (t1 - t0);
      if (!std::isfinite(slope)) continue;
      out.rising = std::max(out.rising, slope);
      out.falling = std::max(out.falling, -slope);
    }
  }
  return out;
}

std::vector<double> tailSamples(const std::vector<TranPoint>& tran,
                                circuit::NodeId node, std::size_t count) {
  if (tran.size() < count) {
    throw std::invalid_argument("tailSamples: transient has " +
                                std::to_string(tran.size()) + " points, need " +
                                std::to_string(count));
  }
  std::vector<double> out;
  out.reserve(count);
  for (std::size_t i = tran.size() - count; i < tran.size(); ++i) {
    out.push_back(tran[i].nodeV[node]);
  }
  return out;
}

}  // namespace lo::sim
