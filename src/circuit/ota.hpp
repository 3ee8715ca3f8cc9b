// Folded-cascode OTA topology (paper Fig. 4).
//
// PMOS input pair MP1/MP2 fed by tail source MP5, folding into NMOS sinks
// MN5/MN6, NMOS cascodes MN1C/MN2C, and a cascoded PMOS current-mirror load
// MP3/MP4 + MP3C/MP4C whose mirror node drives the MP3/MP4 gates; the
// output is taken at the MP4C/MN2C junction.  The input pair sits in its
// own N-well tied to the tail node (kills body effect, adds the floating
// well capacitance the paper's extraction step reports).
#pragma once

#include <array>
#include <string>

#include "circuit/circuit.hpp"

namespace lo::circuit {

/// Matched-group identifiers; every device in a group shares geometry.
enum class OtaGroup { kInputPair, kTail, kSink, kNCascode, kPSource, kPCascode };
inline constexpr std::array<OtaGroup, 6> kAllOtaGroups = {
    OtaGroup::kInputPair, OtaGroup::kTail,    OtaGroup::kSink,
    OtaGroup::kNCascode,  OtaGroup::kPSource, OtaGroup::kPCascode,
};

[[nodiscard]] constexpr const char* otaGroupName(OtaGroup g) {
  switch (g) {
    case OtaGroup::kInputPair: return "input_pair";
    case OtaGroup::kTail: return "tail";
    case OtaGroup::kSink: return "sink";
    case OtaGroup::kNCascode: return "n_cascode";
    case OtaGroup::kPSource: return "p_source";
    case OtaGroup::kPCascode: return "p_cascode";
  }
  return "?";
}

/// Complete electrical design of the OTA: geometries per matched group,
/// bias voltages, supplies and load.  Produced by the sizing tool, consumed
/// by the netlist builder and the layout generator.
struct FoldedCascodeOtaDesign {
  device::MosGeometry inputPair;  ///< MP1 = MP2.
  device::MosGeometry tail;       ///< MP5.
  device::MosGeometry sink;       ///< MN5 = MN6.
  device::MosGeometry nCascode;   ///< MN1C = MN2C.
  device::MosGeometry pSource;    ///< MP3 = MP4.
  device::MosGeometry pCascode;   ///< MP3C = MP4C.

  // Bias node voltages (to ground).
  double vp1 = 2.2;  ///< Tail gate.
  double vbn = 1.0;  ///< Sink gates.
  double vc1 = 1.6;  ///< NMOS cascode gates.
  double vc3 = 1.8;  ///< PMOS cascode gates.

  double vdd = 3.3;
  double cload = 3e-12;
  double inputCm = 1.2;  ///< Nominal input common-mode voltage.

  // Branch currents decided by the sizing plan [A].
  double tailCurrent = 200e-6;
  double cascodeCurrent = 100e-6;  ///< Current in each folded branch.

  [[nodiscard]] device::MosGeometry& geometry(OtaGroup g);
  [[nodiscard]] const device::MosGeometry& geometry(OtaGroup g) const;

  /// Sink branch current: tail/2 recombines with the folded branch.
  [[nodiscard]] double sinkCurrent() const { return tailCurrent / 2.0 + cascodeCurrent; }
  /// Total supply current (no bias generator modelled).
  [[nodiscard]] double supplyCurrent() const { return tailCurrent + 2.0 * cascodeCurrent; }
};

/// Node handles returned by instantiateOta.
struct OtaNodes {
  NodeId vdd, inp, inn, out, tail, x1, x2, y1;
};

/// Add the OTA (11 transistors), its bias voltage sources, the VDD supply
/// source (named "VDD<prefix>") and the load capacitor to `c`.  Node names
/// get `prefix` appended so multiple instances can coexist.
OtaNodes instantiateOta(Circuit& c, const FoldedCascodeOtaDesign& design,
                        const std::string& prefix = "");

/// Transistor-level bias generator: diode/mirror legs fed by one reference
/// current that regenerate vbn, vp1, vc1 and vc3 so they track the process
/// (fixed ideal bias voltages fall apart at cross corners; see
/// sizing::designOtaBias).
struct OtaBiasDesign {
  device::MosGeometry nDiode;     ///< MNB1/MNB2/MNB5: vbn diode + mirror legs.
  device::MosGeometry pDiode;     ///< MPB1/MPB4: vp1 diode + mirror leg.
  device::MosGeometry nCascDiode; ///< MNB3: large-VGS diode producing vc1.
  device::MosGeometry pCascDiode; ///< MPB2: large-VGS diode producing vdd - vc3.
  double biasCurrent = 5e-6;      ///< Reference current per leg [A].

  /// Supply current of the generator (four Ib legs).
  [[nodiscard]] double supplyCurrent() const { return 4.0 * biasCurrent; }
};

/// Add the OTA plus the bias generator (the four bias voltage sources are
/// replaced by the generator's nodes; an ideal current reference "IREF"
/// remains, as is standard practice).
OtaNodes instantiateOtaWithBias(Circuit& c, const FoldedCascodeOtaDesign& design,
                                const OtaBiasDesign& bias,
                                const std::string& prefix = "");

/// DC current each device of a group carries in the balanced state [A]
/// (magnitudes; used for electromigration wire sizing in the layout).
[[nodiscard]] double otaGroupCurrent(const FoldedCascodeOtaDesign& design, OtaGroup g);

}  // namespace lo::circuit
