// Monte-Carlo statistical verification (paper section 4: the verification
// interface "permits to undergo statistical analysis to check the
// reliability of the synthesized circuit").
//
// Each sample draws independent threshold-voltage and transconductance
// mismatch for every transistor (Pelgrom-style, sigma scaled by 1/sqrt(WL)),
// re-solves the DC operating point of the unity-feedback testbench for the
// input-referred offset, and measures the DC gain.  The matched-pair layout
// machinery in src/layout controls the systematic part of these numbers;
// this models the random part.
#pragma once

#include "circuit/ota.hpp"
#include "device/mos_model.hpp"
#include "layout/extract.hpp"
#include "sizing/ota_spec.hpp"
#include "tech/technology.hpp"

namespace lo::sizing {

struct MonteCarloOptions {
  int samples = 50;
  /// Pelgrom threshold mismatch coefficient A_vt [V*m]: sigma(Vto) of one
  /// device = avt / sqrt(W * L).
  double avt = 9e-9;  // 9 mV*um, typical for a 0.6 um process.
  /// Relative transconductance mismatch coefficient A_beta [m]:
  /// sigma(kp)/kp = abeta / sqrt(W * L).
  double abeta = 20e-9;  // 2 %*um.
  unsigned seed = 1;
};

struct MonteCarloResult {
  int samples = 0;
  int failures = 0;  ///< DC operating points that did not converge.
  double offsetMeanMv = 0.0;
  double offsetSigmaMv = 0.0;
  double gainMeanDb = 0.0;
  double gainSigmaDb = 0.0;
  std::vector<double> offsetsMv;
  std::vector<double> gainsDb;
};

/// Run the analysis on the OTA design (optionally parasitic-annotated), at
/// the technology's temperature like the sizers and the verification.
[[nodiscard]] MonteCarloResult runMonteCarlo(const tech::Technology& t,
                                             const device::MosModel& model,
                                             const circuit::FoldedCascodeOtaDesign& design,
                                             const layout::ParasiticReport* parasitics,
                                             MonteCarloOptions options = {});

}  // namespace lo::sizing
