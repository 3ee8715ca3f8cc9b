// Two-stage Miller-compensated OTA -- the second topology of the tool.
//
// The paper stresses that COMDIAC's hierarchy of building-block routines
// "simplifies the addition of new topologies" (section 4); this topology
// exercises that claim end to end: its own design plan (src/sizing), its
// own layout program (src/layout) including a plate capacitor for the
// Miller compensation, and the same flow machinery.
//
// Schematic (classic five-transistor first stage + common-source second):
//   MN1/MN2  NMOS input pair (gates inp/inn), sources at the tail node
//   MP3/MP4  PMOS mirror load (MP3 diode-connected), drains = pair drains
//   MN5      NMOS tail current source (gate vbn)
//   MP6      PMOS second-stage driver (gate = first-stage output, node o1)
//   MN7      NMOS second-stage sink (gate vbn, mirrors the tail)
//   CC + RZ  Miller compensation with nulling resistor from o1 to out
#pragma once

#include <array>

#include "circuit/circuit.hpp"

namespace lo::circuit {

enum class TwoStageGroup { kInputPair, kMirror, kTail, kDriver, kSink2 };
inline constexpr std::array<TwoStageGroup, 5> kAllTwoStageGroups = {
    TwoStageGroup::kInputPair, TwoStageGroup::kMirror, TwoStageGroup::kTail,
    TwoStageGroup::kDriver, TwoStageGroup::kSink2,
};

struct TwoStageOtaDesign {
  device::MosGeometry inputPair;  ///< MN1 = MN2.
  device::MosGeometry mirror;     ///< MP3 = MP4.
  device::MosGeometry tail;       ///< MN5.
  device::MosGeometry driver;     ///< MP6.
  device::MosGeometry sink2;      ///< MN7.

  double cc = 0.8e-12;    ///< Miller compensation capacitor [F].
  double rz = 1e3;        ///< Nulling resistor [ohm].
  double vbn = 1.0;       ///< Tail / sink bias voltage.

  double vdd = 3.3;
  double cload = 3e-12;
  double inputCm = 1.2;

  double tailCurrent = 100e-6;
  double stage2Current = 300e-6;

  [[nodiscard]] device::MosGeometry& geometry(TwoStageGroup g);
  [[nodiscard]] const device::MosGeometry& geometry(TwoStageGroup g) const;

  [[nodiscard]] double supplyCurrent() const { return tailCurrent + stage2Current; }
};

struct TwoStageNodes {
  NodeId vdd, inp, inn, out, tail, o1, d1;
};

/// Add the amplifier (7 transistors + CC/RZ), its bias source, the VDD
/// supply source and the load capacitor to `c`.
TwoStageNodes instantiateTwoStage(Circuit& c, const TwoStageOtaDesign& d,
                                  const std::string& prefix = "");

/// Balanced-state DC current of each device in a group [A].
[[nodiscard]] double twoStageGroupCurrent(const TwoStageOtaDesign& d, TwoStageGroup g);

}  // namespace lo::circuit
