// Specifications, operating-point choices and performance records for the
// folded-cascode OTA synthesis (Table 1 of the paper).
#pragma once

#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <utility>

#include "circuit/ota.hpp"
#include "circuit/two_stage.hpp"
#include "device/mos_op.hpp"
#include "layout/extract.hpp"

namespace lo::sizing {

/// Input specifications (paper, Table 1 caption).
struct OtaSpecs {
  double vdd = 3.3;
  double gbw = 65e6;             ///< Gain-bandwidth product target [Hz].
  double phaseMarginDeg = 65.0;
  double cload = 3e-12;
  double inputCmLow = 0.55;      ///< Input common-mode range [V].
  double inputCmHigh = 1.84;
  double outputLow = 0.51;       ///< Output voltage range [V].
  double outputHigh = 2.31;
  // Extended spec surface judged by the post-layout verification tier.
  // 0 means "unconstrained" (the measurement is still reported).
  double thdMaxPercent = 0.0;    ///< Max THD at the verify tone [%].
  double psrrMinDb = 0.0;        ///< Min low-frequency supply rejection [dB].
  double offsetMaxMv = 0.0;      ///< Max |input-referred offset| [mV].

  [[nodiscard]] double inputCmMid() const { return 0.5 * (inputCmLow + inputCmHigh); }
};

/// The fixed per-group operating points COMDIAC starts from: "The dc
/// operating point of all transistors is fixed at the beginning of the
/// sizing process ... the effective gate-source voltage VGS - VTH is held
/// constant" (paper, section 4).
struct OperatingChoices {
  struct GroupChoice {
    double veff = 0.2;  ///< |VGS| - |VTH| [V].
    double length = 1e-6;
  };
  GroupChoice inputPair{0.16, 1.0e-6};
  GroupChoice tail{0.25, 2.0e-6};
  GroupChoice sink{0.30, 1.5e-6};
  GroupChoice nCascode{0.22, 0.8e-6};
  GroupChoice pSource{0.30, 1.5e-6};
  GroupChoice pCascode{0.25, 0.8e-6};

  [[nodiscard]] GroupChoice& of(circuit::OtaGroup g);
  [[nodiscard]] const GroupChoice& of(circuit::OtaGroup g) const;
};

/// How much layout knowledge the sizing run uses: the four cases of Table 1.
struct SizingPolicy {
  /// Consider source/drain junction capacitance at all (off in case 1).
  bool diffusionCaps = true;
  /// Junction geometry source: false = pessimistic single-fold estimate
  /// (case 2); true = exact folded geometry fed back by the layout tool
  /// (cases 3 and 4, via junctionTemplates).
  bool exactDiffusion = false;
  /// Routing / coupling / well capacitance report from the layout tool
  /// (case 4); null otherwise.
  const layout::ParasiticReport* routingParasitics = nullptr;
  /// Per-group junction geometry templates from the last layout call; the
  /// sizer rescales areas/perimeters linearly with width (exact at fixed
  /// fold count).  Empty until the layout tool has been called.
  std::map<circuit::OtaGroup, device::MosGeometry> junctionTemplates;
  /// Same, for the two-stage topology's groups.
  std::map<circuit::TwoStageGroup, device::MosGeometry> twoStageTemplates;

  [[nodiscard]] static SizingPolicy case1() {
    SizingPolicy p;
    p.diffusionCaps = false;
    return p;
  }
  [[nodiscard]] static SizingPolicy case2() { return SizingPolicy{}; }
};

/// Every row of Table 1.
struct OtaPerformance {
  double dcGainDb = 0.0;
  double gbwHz = 0.0;
  double phaseMarginDeg = 0.0;
  double slewRateVPerUs = 0.0;
  double cmrrDb = 0.0;
  double offsetMv = 0.0;
  double outputResistanceMOhm = 0.0;
  double inputNoiseUv = 0.0;             ///< Integrated 1 Hz - 100 MHz.
  double thermalNoiseDensityNv = 0.0;    ///< Input-referred at 1 MHz [nV/rtHz].
  double flickerNoiseUv = 0.0;           ///< Input-referred at 100 Hz [uV/rtHz].
  double powerMw = 0.0;
  double psrrDb = 0.0;           ///< Positive-supply rejection at DC.
  double settlingTimeNs = 0.0;   ///< 1% settling after the slew step.
};

/// Throws std::runtime_error naming the first of `figures` that is NaN or
/// infinite.  A finite spec can still drive a design plan past the models'
/// range (a 1e30 Hz GBW target); that sizing must fail, not answer with
/// non-finite figures.
void requireFinite(const char* who,
                   std::initializer_list<std::pair<const char*, double>> figures);

/// The same over every figure of a predicted row.
void requireFinite(const char* who, const OtaPerformance& predicted);

/// Frequency at which the flicker figure of OtaPerformance is quoted.
inline constexpr double kFlickerSpotHz = 100.0;
/// Frequency at which the thermal density is quoted.
inline constexpr double kThermalSpotHz = 1e6;
/// Band over which the total input noise is integrated.
inline constexpr double kNoiseBandLowHz = 1.0;
inline constexpr double kNoiseBandHighHz = 100e6;

}  // namespace lo::sizing
