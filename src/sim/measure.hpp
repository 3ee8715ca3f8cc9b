// Measurement utilities over simulator outputs: Bode quantities (DC gain,
// unity-gain bandwidth, phase margin) from AC sweeps and slew rate from
// transient waveforms.  These are the raw measurements behind Table 1.
#pragma once

#include <complex>
#include <vector>

#include "sim/simulator.hpp"

namespace lo::sim {

/// A single-node transfer function extracted from an AC sweep.
struct AcCurve {
  std::vector<double> freq;
  std::vector<std::complex<double>> h;

  [[nodiscard]] std::size_t size() const { return freq.size(); }
};

/// Extract H(f) = V(node)/V(reference excitation) from an AC run (the run
/// already contains the excitation, so this is just the node voltage).
[[nodiscard]] AcCurve curveAt(const std::vector<AcPoint>& ac, circuit::NodeId node);

[[nodiscard]] double toDb(double magnitude);

/// Magnitude of the first point (taken as the DC/low-frequency gain).
[[nodiscard]] double dcGain(const AcCurve& curve);

/// Unwrapped phase in degrees at index i (continuous across the sweep,
/// starting from the principal value of the first point).
[[nodiscard]] std::vector<double> unwrappedPhaseDeg(const AcCurve& curve);

/// Frequency where |H| crosses 1, log-interpolated; 0 if it never does.
[[nodiscard]] double unityGainFrequency(const AcCurve& curve);

/// Phase margin: 180 + phase(H) at the unity crossing [degrees]; returns
/// 180 when the curve never reaches unity.
[[nodiscard]] double phaseMarginDeg(const AcCurve& curve);

/// Maximum rising and falling slopes of a node's transient waveform [V/s].
struct SlewRates {
  double rising = 0.0;   ///< Max positive dV/dt.
  double falling = 0.0;  ///< Max negative dV/dt (magnitude).
};
[[nodiscard]] SlewRates slewRates(const std::vector<TranPoint>& tran, circuit::NodeId node,
                                  double tStart = 0.0, double tStop = 1e12);

/// The last `count` samples of a node's transient waveform, oldest first
/// (the steady-state slice the THD measurement hands to the FFT).  Throws
/// std::invalid_argument when the transient is shorter than `count`.
[[nodiscard]] std::vector<double> tailSamples(const std::vector<TranPoint>& tran,
                                              circuit::NodeId node, std::size_t count);

}  // namespace lo::sim
