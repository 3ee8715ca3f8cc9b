// MOS transistor models.
//
// Two models are provided behind one interface:
//   * Level1  - Shichman-Hodges square law with body effect, mobility
//     degradation, length-scaled Early voltage and a smooth subthreshold
//     tail (the classic SPICE levels 1-3 family the paper's tool supports).
//   * Ekv     - an EKV-style all-region charge model (the "advanced model"
//     counterpart of the paper's BSIM3v3/MM9 support).
//
// Both the sizing tool (src/sizing) and the simulator (src/sim) evaluate
// devices exclusively through this interface, reproducing the paper's key
// accuracy claim: "Accuracy with respect to simulation is greatly improved
// by using the same transistor models implemented in the latter."
#pragma once

#include <memory>
#include <string_view>

#include "device/mos_op.hpp"
#include "tech/model_card.hpp"

namespace lo::device {

class MosModel {
 public:
  virtual ~MosModel() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Threshold voltage magnitude at bulk-source bias `vbs` (normalised,
  /// i.e. vbs is <= 0 in normal operation for both polarities).
  [[nodiscard]] virtual double threshold(const tech::MosModelCard& card, double vbs) const = 0;

  /// Drain current of a polarity-normalised device (NMOS conventions,
  /// arbitrary vds sign handled by source/drain symmetry).  [A]
  [[nodiscard]] double currentNormalized(const tech::MosModelCard& card,
                                         const MosGeometry& geo, double vgs, double vds,
                                         double vbs, double tempK) const;

  /// Drain terminal current with real polarity: pass actual terminal
  /// voltages; PMOS returns negative current in normal operation.  [A]
  [[nodiscard]] double drainCurrent(const tech::MosModelCard& card, const MosGeometry& geo,
                                    double vgs, double vds, double vbs,
                                    double tempK = 300.15) const;

  /// Drain current plus gm/gds/gmb from the analytic derivatives of the
  /// current equation (actual terminal voltages, as evaluate()).  Exactly
  /// the id/gm/gds/gmb evaluate() reports, without its capacitances,
  /// region or noise: what a Newton iteration needs.
  [[nodiscard]] MosConductance conductances(const tech::MosModelCard& card,
                                            const MosGeometry& geo, double vgs, double vds,
                                            double vbs, double tempK = 300.15) const;

  /// Full DC + small-signal operating point (conductances() plus Meyer
  /// gate capacitances, bias-dependent junction capacitances, thermal +
  /// flicker noise PSDs).
  [[nodiscard]] MosOpPoint evaluate(const tech::MosModelCard& card, const MosGeometry& geo,
                                    double vgs, double vds, double vbs,
                                    double tempK = 300.15) const;

  /// evaluate() with polarity-normalised voltages (positive for a conducting
  /// device of either type); the returned op still carries real signs.
  [[nodiscard]] MosOpPoint evaluateNormalized(const tech::MosModelCard& card,
                                              const MosGeometry& geo, double vgs,
                                              double vds, double vbs,
                                              double tempK = 300.15) const {
    const double p = card.polarity();
    return evaluate(card, geo, p * vgs, p * vds, p * vbs, tempK);
  }

  /// Factory: "level1" or "ekv"; throws std::invalid_argument otherwise.
  [[nodiscard]] static std::unique_ptr<MosModel> create(std::string_view name);

 protected:
  /// Forward-mode current (vds >= 0, polarity-normalised) [A] with its
  /// unclamped partial derivatives d/dvgs, d/dvds, d/dvbs [S] in gm, gds,
  /// gmb, propagated alongside the value (forward-mode differentiation).
  [[nodiscard]] virtual MosConductance forwardCurrent(const tech::MosModelCard& card,
                                                      const MosGeometry& geo, double vgs,
                                                      double vds, double vbs,
                                                      double tempK) const = 0;

  /// Saturation voltage of the normalised device at this bias [V].
  [[nodiscard]] virtual double saturationVoltage(const tech::MosModelCard& card,
                                                 double vgs, double vbs,
                                                 double tempK) const = 0;

 private:
  /// currentNormalized() with its unclamped partial derivatives.
  [[nodiscard]] MosConductance normalizedCurrent(const tech::MosModelCard& card,
                                                 const MosGeometry& geo, double vgs,
                                                 double vds, double vbs, double tempK) const;
};

/// SPICE-level-1-class square-law model.
class Level1Model final : public MosModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "level1"; }
  [[nodiscard]] double threshold(const tech::MosModelCard& card, double vbs) const override;

 protected:
  [[nodiscard]] MosConductance forwardCurrent(const tech::MosModelCard& card,
                                              const MosGeometry& geo, double vgs, double vds,
                                              double vbs, double tempK) const override;
  [[nodiscard]] double saturationVoltage(const tech::MosModelCard& card, double vgs,
                                         double vbs, double tempK) const override;
};

/// EKV-style all-region model.
class EkvModel final : public MosModel {
 public:
  [[nodiscard]] std::string_view name() const override { return "ekv"; }
  [[nodiscard]] double threshold(const tech::MosModelCard& card, double vbs) const override;

  /// Pinch-off voltage VP for a bulk-referenced gate voltage [V].
  [[nodiscard]] static double pinchOff(const tech::MosModelCard& card, double vg);
  /// Slope factor n at pinch-off voltage vp.
  [[nodiscard]] static double slopeFactorAt(const tech::MosModelCard& card, double vp);

 protected:
  [[nodiscard]] MosConductance forwardCurrent(const tech::MosModelCard& card,
                                              const MosGeometry& geo, double vgs, double vds,
                                              double vbs, double tempK) const override;
  [[nodiscard]] double saturationVoltage(const tech::MosModelCard& card, double vgs,
                                         double vbs, double tempK) const override;
};

}  // namespace lo::device
