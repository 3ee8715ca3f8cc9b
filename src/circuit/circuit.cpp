#include "circuit/circuit.hpp"

#include <stdexcept>

namespace lo::circuit {

Waveform Waveform::makePulse(double v1, double v2, double delay, double rise, double fall,
                             double width, double period) {
  Waveform w;
  w.kind = Kind::kPulse;
  w.v1 = v1;
  w.v2 = v2;
  w.delay = delay;
  w.rise = rise > 0 ? rise : 1e-12;
  w.fall = fall > 0 ? fall : 1e-12;
  w.width = width;
  w.period = period;
  w.dc = v1;
  return w;
}

Waveform Waveform::makeSin(double offset, double amplitude, double freq) {
  Waveform w;
  w.kind = Kind::kSin;
  w.offset = offset;
  w.amplitude = amplitude;
  w.freq = freq;
  w.dc = offset;
  return w;
}

double Waveform::at(double t) const {
  switch (kind) {
    case Kind::kDc:
      return dc;
    case Kind::kPulse: {
      if (t < delay) return v1;
      double tt = t - delay;
      if (period > 0) tt = std::fmod(tt, period);
      if (tt < rise) return v1 + (v2 - v1) * tt / rise;
      tt -= rise;
      if (tt < width) return v2;
      tt -= width;
      if (tt < fall) return v2 + (v1 - v2) * tt / fall;
      return v1;
    }
    case Kind::kSin:
      return offset + amplitude * std::sin(2.0 * M_PI * freq * t);
  }
  return dc;
}

double Waveform::dcValue() const {
  switch (kind) {
    case Kind::kDc: return dc;
    case Kind::kPulse: return v1;
    case Kind::kSin: return offset;
  }
  return dc;
}

NodeId Circuit::node(const std::string& name) {
  auto it = nodesByName_.find(name);
  if (it != nodesByName_.end()) return it->second;
  const NodeId id = static_cast<NodeId>(nodeNames_.size());
  nodeNames_.push_back(name);
  nodesByName_.emplace(name, id);
  return id;
}

std::optional<NodeId> Circuit::findNode(const std::string& name) const {
  auto it = nodesByName_.find(name);
  if (it == nodesByName_.end()) return std::nullopt;
  return it->second;
}

Mos& Circuit::addMos(std::string name, NodeId d, NodeId g, NodeId s, NodeId b,
                     tech::MosType type, const device::MosGeometry& geo, double mult) {
  Mos m;
  m.name = std::move(name);
  m.drain = d;
  m.gate = g;
  m.source = s;
  m.bulk = b;
  m.type = type;
  m.geo = geo;
  m.mult = mult;
  mosfets.push_back(std::move(m));
  return mosfets.back();
}

Resistor& Circuit::addResistor(std::string name, NodeId a, NodeId b, double ohms) {
  if (ohms <= 0) throw std::invalid_argument("resistor must have positive resistance");
  resistors.push_back({std::move(name), a, b, ohms});
  return resistors.back();
}

Capacitor& Circuit::addCapacitor(std::string name, NodeId a, NodeId b, double farads) {
  if (farads < 0) throw std::invalid_argument("capacitor must be non-negative");
  capacitors.push_back({std::move(name), a, b, farads});
  return capacitors.back();
}

VSource& Circuit::addVSource(std::string name, NodeId pos, NodeId neg, Waveform wave,
                             double acMag, double acPhase) {
  vsources.push_back({std::move(name), pos, neg, wave, acMag, acPhase});
  return vsources.back();
}

ISource& Circuit::addISource(std::string name, NodeId pos, NodeId neg, Waveform wave,
                             double acMag) {
  isources.push_back({std::move(name), pos, neg, wave, acMag});
  return isources.back();
}

Vcvs& Circuit::addVcvs(std::string name, NodeId pos, NodeId neg, NodeId cp, NodeId cn,
                       double gain) {
  vcvs.push_back({std::move(name), pos, neg, cp, cn, gain});
  return vcvs.back();
}

Mos* Circuit::findMos(const std::string& name) {
  for (Mos& m : mosfets) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

VSource* Circuit::findVSource(const std::string& name) {
  for (VSource& v : vsources) {
    if (v.name == name) return &v;
  }
  return nullptr;
}

Capacitor* Circuit::findCapacitor(const std::string& name) {
  for (Capacitor& c : capacitors) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

double Circuit::explicitCapAt(NodeId node) const {
  double total = 0.0;
  for (const Capacitor& c : capacitors) {
    if (c.a == node || c.b == node) total += c.farads;
  }
  return total;
}

}  // namespace lo::circuit
