// MOS device geometry and DC operating-point records.
//
// MosGeometry carries everything layout-dependent about a device instance:
// drawn W/L, the fold plan, and the source/drain diffusion area/perimeter
// figures the junction-capacitance model needs.  MosOpPoint is the full
// small-signal picture at a bias point; it is produced identically by the
// sizing tool and the simulator (shared model code).
#pragma once

#include <string>

namespace lo::device {

/// Which side of a folded transistor a diffusion terminal occupies.
/// Internal diffusions are shared between two gate fingers and have roughly
/// half the capacitance per unit width (paper, Fig. 2 discussion).
enum class DiffusionPosition {
  kInternal,  ///< Terminal uses only shared (inter-finger) strips.
  kExternal,  ///< Terminal uses the two outer strips as well.
};

/// Physical geometry of one MOS instance as the layout determines it.
struct MosGeometry {
  double w = 10e-6;   ///< Total drawn channel width [m] (sum over folds).
  double l = 1e-6;    ///< Drawn channel length [m].
  int nf = 1;         ///< Number of folds (gate fingers), >= 1.

  // Junction geometry (set by the fold planner or defaulted for nf = 1).
  double ad = 0.0;    ///< Drain diffusion area [m^2].
  double as = 0.0;    ///< Source diffusion area [m^2].
  double pd = 0.0;    ///< Drain diffusion sidewall perimeter [m] (gate edge excluded).
  double ps = 0.0;    ///< Source diffusion sidewall perimeter [m].

  /// Width per fold [m].
  [[nodiscard]] double foldWidth() const { return w / nf; }
};

enum class MosRegion { kCutoff, kWeak, kTriode, kSaturation };

[[nodiscard]] constexpr const char* regionName(MosRegion r) {
  switch (r) {
    case MosRegion::kCutoff: return "cutoff";
    case MosRegion::kWeak: return "weak";
    case MosRegion::kTriode: return "triode";
    case MosRegion::kSaturation: return "saturation";
  }
  return "?";
}

/// Drain current and its conductances at one bias point: the part of an
/// operating point a Newton iteration needs.  Same sign conventions as
/// MosOpPoint (real-polarity `id`, positive-magnitude conductances).
struct MosConductance {
  double id = 0.0;   ///< Drain terminal current [A].
  double gm = 0.0;   ///< d id / d vgs [S].
  double gds = 0.0;  ///< d id / d vds [S].
  double gmb = 0.0;  ///< d id / d vbs [S].
};

/// Complete DC + small-signal operating point of one MOS device.
/// Sign conventions follow the device polarity: `id` is the current into the
/// drain terminal (negative for PMOS in normal operation).
struct MosOpPoint {
  double id = 0.0;     ///< Drain terminal current [A].
  double vgs = 0.0;    ///< Applied gate-source voltage [V].
  double vds = 0.0;    ///< Applied drain-source voltage [V].
  double vbs = 0.0;    ///< Applied bulk-source voltage [V].
  double vth = 0.0;    ///< Threshold voltage at this bias [V] (signed).
  double veff = 0.0;   ///< Effective gate drive |VGS| - |VTH| [V].
  double vdsat = 0.0;  ///< Saturation voltage [V] (magnitude).
  MosRegion region = MosRegion::kCutoff;

  // Small-signal conductances (all positive magnitudes) [S].
  double gm = 0.0;
  double gds = 0.0;
  double gmb = 0.0;

  // Small-signal capacitances [F] (intrinsic + overlap for the gate ones,
  // bias-dependent junction for the bulk ones).
  double cgs = 0.0;
  double cgd = 0.0;
  double cgb = 0.0;
  double cdb = 0.0;
  double csb = 0.0;

  // Noise power spectral densities referred to a drain-source current
  // source: thermal is white [A^2/Hz]; flicker is flickerCoeff / f.
  double thermalNoisePsd = 0.0;
  double flickerCoeff = 0.0;

  /// gm / ID efficiency [1/V]; 0 if the device is off.
  [[nodiscard]] double gmOverId() const {
    const double absId = id < 0 ? -id : id;
    return absId > 0.0 ? gm / absId : 0.0;
  }
};

}  // namespace lo::device
