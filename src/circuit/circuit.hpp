// Flat netlist representation shared by the sizing tool, the layout
// extractor and the simulator.
//
// Node 0 is always ground ("0" and "gnd" both map to it).  Devices are plain
// structs in per-type vectors; the simulator walks these directly, which
// keeps the MNA assembly simple and fast.
#pragma once

#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "device/mos_op.hpp"
#include "tech/model_card.hpp"

namespace lo::circuit {

using NodeId = int;
inline constexpr NodeId kGround = 0;

/// Time-domain waveform of an independent source.
struct Waveform {
  enum class Kind { kDc, kPulse, kSin };
  Kind kind = Kind::kDc;
  double dc = 0.0;
  // PULSE(v1 v2 delay rise fall width period)
  double v1 = 0.0, v2 = 0.0, delay = 0.0, rise = 1e-9, fall = 1e-9, width = 1e-3,
         period = 2e-3;
  // SIN(offset amplitude freq)
  double offset = 0.0, amplitude = 0.0, freq = 1e3;

  [[nodiscard]] static Waveform makeDc(double value) {
    Waveform w;
    w.dc = value;
    return w;
  }
  [[nodiscard]] static Waveform makePulse(double v1, double v2, double delay, double rise,
                                          double fall, double width, double period);
  [[nodiscard]] static Waveform makeSin(double offset, double amplitude, double freq);

  /// Instantaneous value at time t (kDc returns dc for all t).
  [[nodiscard]] double at(double t) const;
  /// Value used for the DC operating point.
  [[nodiscard]] double dcValue() const;
};

struct Mos {
  std::string name;
  NodeId drain = kGround, gate = kGround, source = kGround, bulk = kGround;
  tech::MosType type = tech::MosType::kNmos;
  device::MosGeometry geo;
  double mult = 1.0;      ///< Parallel device multiplier.
  double vtoDelta = 0.0;  ///< Per-device threshold mismatch [V] (Monte Carlo).
  double kpScale = 1.0;   ///< Per-device transconductance mismatch factor.
};

struct Resistor {
  std::string name;
  NodeId a = kGround, b = kGround;
  double ohms = 1e3;
};

struct Capacitor {
  std::string name;
  NodeId a = kGround, b = kGround;
  double farads = 1e-12;
};

struct VSource {
  std::string name;
  NodeId pos = kGround, neg = kGround;
  Waveform wave;
  double acMag = 0.0;    ///< AC analysis magnitude [V].
  double acPhase = 0.0;  ///< AC analysis phase [degrees].
};

struct ISource {
  std::string name;
  NodeId pos = kGround, neg = kGround;  ///< Current flows pos -> neg through the source.
  Waveform wave;
  double acMag = 0.0;
};

/// Voltage-controlled voltage source: V(pos,neg) = gain * V(cp,cn).
struct Vcvs {
  std::string name;
  NodeId pos = kGround, neg = kGround, cp = kGround, cn = kGround;
  double gain = 1.0;
};

class Circuit {
 public:
  Circuit() { nodeNames_ = {"0"}; }

  std::string title = "untitled";

  /// Find-or-create a named node.  "0" and "gnd" are ground.
  NodeId node(const std::string& name);
  /// Look up an existing node; nullopt if absent.
  [[nodiscard]] std::optional<NodeId> findNode(const std::string& name) const;
  [[nodiscard]] const std::string& nodeName(NodeId id) const { return nodeNames_.at(id); }
  /// Number of nodes including ground.
  [[nodiscard]] int nodeCount() const { return static_cast<int>(nodeNames_.size()); }

  Mos& addMos(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
              tech::MosType type, const device::MosGeometry& geo, double mult = 1.0);
  Resistor& addResistor(std::string name, NodeId a, NodeId b, double ohms);
  Capacitor& addCapacitor(std::string name, NodeId a, NodeId b, double farads);
  VSource& addVSource(std::string name, NodeId pos, NodeId neg, Waveform wave,
                      double acMag = 0.0, double acPhase = 0.0);
  ISource& addISource(std::string name, NodeId pos, NodeId neg, Waveform wave,
                      double acMag = 0.0);
  Vcvs& addVcvs(std::string name, NodeId pos, NodeId neg, NodeId cp, NodeId cn,
                double gain);

  [[nodiscard]] Mos* findMos(const std::string& name);
  [[nodiscard]] VSource* findVSource(const std::string& name);
  [[nodiscard]] Capacitor* findCapacitor(const std::string& name);

  /// Total capacitance attached between `node` and any other node by
  /// explicit capacitor elements.
  [[nodiscard]] double explicitCapAt(NodeId node) const;

  std::vector<Mos> mosfets;
  std::vector<Resistor> resistors;
  std::vector<Capacitor> capacitors;
  std::vector<VSource> vsources;
  std::vector<ISource> isources;
  std::vector<Vcvs> vcvs;

 private:
  std::vector<std::string> nodeNames_;
  std::unordered_map<std::string, NodeId> nodesByName_{{"0", 0}, {"gnd", 0}};
};

}  // namespace lo::circuit
