// Verification-by-simulation interface (paper, section 4: "A verification
// interface has also been developed which controls a verification-by-
// simulation process").
//
// Builds the measurement testbenches around an amplifier (optionally
// annotated with extracted parasitics), runs the lospice simulator, and
// fills the same OtaPerformance record the analytic evaluator produces --
// the two sides of every Table 1 column.
//
// Testbench: the amplifier sits in DC unity feedback through a 1 GOhm / 1 F
// network that is transparent at DC and open at any measured frequency, so
// one operating point serves the open-loop AC, CMRR, output-resistance and
// noise measurements.  Slew rate uses a hard unity-feedback connection and
// a +/-0.4 V input step.
//
// The measurement core is topology independent: any amplifier that exposes
// "inp" / "inn" / "out" nodes and a supply source named "VDD" can be
// measured through measureAmplifier(); OtaVerifier and verifyTwoStage are
// the two packaged instances.
#pragma once

#include <functional>

#include "circuit/ota.hpp"
#include "circuit/two_stage.hpp"
#include "device/mos_model.hpp"
#include "layout/extract.hpp"
#include "sim/simulator.hpp"
#include "sizing/ota_spec.hpp"
#include "tech/technology.hpp"

namespace lo::sizing {

struct VerifyOptions {
  double fStart = 10.0;
  double fStop = 1e9;
  int pointsPerDecade = 12;
  double tranStep = 0.5e-9;
  double tranStop = 500e-9;
  double stepAmplitude = 0.4;  ///< Input step for the slew-rate test [V].
  /// Run the simulator's pre-optimization reference solve path instead of
  /// the fast one.  Both are bit-identical (the golden solver tests prove
  /// it), so this changes speed, never results -- which is why it is
  /// deliberately excluded from serialization and cache keys.
  bool referenceSolver = false;
};

/// Adds the amplifier under test to the circuit.  Must create nodes named
/// "inp", "inn", "out" and a supply V source named "VDD".
using AmpInstantiateFn = std::function<void(circuit::Circuit&)>;

/// Measure every Table 1 row by simulation for an arbitrary amplifier.
[[nodiscard]] OtaPerformance measureAmplifier(const tech::Technology& t,
                                              const device::MosModel& model,
                                              const AmpInstantiateFn& instantiate,
                                              double inputCm, double vdd,
                                              const layout::ParasiticReport* parasitics,
                                              const VerifyOptions& options = {});

/// The generic AC testbench (exposed for tests and Monte Carlo).
[[nodiscard]] circuit::Circuit buildAmpAcTestbench(const AmpInstantiateFn& instantiate,
                                                   double inputCm,
                                                   const layout::ParasiticReport* parasitics,
                                                   double diffAcMag, double cmAcMag,
                                                   double routProbeAcMag);

/// The slew-rate testbench: the amplifier in hard unity feedback driven by
/// a +/- options.stepAmplitude / 2 input pulse (exposed for benches).
[[nodiscard]] circuit::Circuit buildAmpSlewTestbench(const AmpInstantiateFn& instantiate,
                                                     double inputCm,
                                                     const layout::ParasiticReport* parasitics,
                                                     const VerifyOptions& options);

class OtaVerifier {
 public:
  OtaVerifier(const tech::Technology& t, const device::MosModel& model,
              VerifyOptions options = {})
      : tech_(t), model_(model), options_(options) {}

  /// Measure the folded-cascode OTA.  When `parasitics` is given, its lumped
  /// capacitances are added to the netlists (extracted-netlist simulation);
  /// the design's device geometries should already carry the extracted
  /// junction figures in that case.
  [[nodiscard]] OtaPerformance verify(const circuit::FoldedCascodeOtaDesign& design,
                                      const layout::ParasiticReport* parasitics) const;

  /// The AC testbench (differential excitation) for external inspection.
  [[nodiscard]] circuit::Circuit buildAcTestbench(
      const circuit::FoldedCascodeOtaDesign& design,
      const layout::ParasiticReport* parasitics, double diffAcMag, double cmAcMag,
      double routProbeAcMag) const;

 private:
  const tech::Technology& tech_;
  const device::MosModel& model_;
  VerifyOptions options_;
};

/// Usable voltage window measured by sweeping the unity-gain buffer.
struct RangeMeasurement {
  double low = 0.0;
  double high = 0.0;
  [[nodiscard]] double span() const { return high - low; }
};

/// Sweep the buffer's input across the rails and report the window where
/// the output tracks within `trackingTolerance`.  This is the intersection
/// of the input common-mode range and the output swing (the two range specs
/// of the paper's Table 1 caption); outside it some device leaves
/// saturation.
[[nodiscard]] RangeMeasurement measureUsableRange(const tech::Technology& t,
                                                  const device::MosModel& model,
                                                  const AmpInstantiateFn& instantiate,
                                                  double vdd,
                                                  double trackingTolerance = 0.02);

/// Measure the two-stage Miller OTA with the same testbenches.
[[nodiscard]] OtaPerformance verifyTwoStage(const tech::Technology& t,
                                            const device::MosModel& model,
                                            const circuit::TwoStageOtaDesign& design,
                                            const layout::ParasiticReport* parasitics,
                                            const VerifyOptions& options = {});

/// Replace the design's device geometries with the exact per-device
/// junction figures the layout tool extracted (fold-quantised widths
/// included -- the source of the paper's residual offset).
[[nodiscard]] circuit::FoldedCascodeOtaDesign applyExtractedGeometry(
    circuit::FoldedCascodeOtaDesign design,
    const std::map<circuit::OtaGroup, device::MosGeometry>& junctions);

/// Two-stage variant: the drawn passives (plate capacitor, poly serpentine)
/// replace the ideal CC / RZ values alongside the junction figures.
[[nodiscard]] circuit::TwoStageOtaDesign applyExtractedGeometry(
    circuit::TwoStageOtaDesign design,
    const std::map<circuit::TwoStageGroup, device::MosGeometry>& junctions,
    double drawnCc, double drawnRz);

}  // namespace lo::sizing
