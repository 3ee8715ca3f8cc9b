#include "circuit/spice_io.hpp"

#include <cmath>
#include <sstream>

namespace lo::circuit {

std::string formatSpiceNumber(double value) {
  if (value == 0.0) return "0";
  struct Scale {
    double mult;
    const char* suffix;
  };
  static constexpr Scale kScales[] = {
      {1e12, "t"}, {1e9, "g"}, {1e6, "meg"}, {1e3, "k"}, {1.0, ""},
      {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"}, {1e-12, "p"}, {1e-15, "f"},
  };
  const double mag = std::abs(value);
  for (const Scale& s : kScales) {
    if (mag >= s.mult * 0.999999) {
      std::ostringstream os;
      os << value / s.mult << s.suffix;
      return os.str();
    }
  }
  std::ostringstream os;
  os << value;
  return os.str();
}

std::string writeNetlist(const Circuit& c) {
  std::ostringstream os;
  os << "* " << c.title << "\n";
  auto nn = [&](NodeId n) { return c.nodeName(n); };
  for (const Mos& m : c.mosfets) {
    os << m.name << " " << nn(m.drain) << " " << nn(m.gate) << " " << nn(m.source) << " "
       << nn(m.bulk) << " " << (m.type == tech::MosType::kNmos ? "nmos" : "pmos")
       << " W=" << formatSpiceNumber(m.geo.w) << " L=" << formatSpiceNumber(m.geo.l)
       << " NF=" << m.geo.nf << " AD=" << formatSpiceNumber(m.geo.ad)
       << " AS=" << formatSpiceNumber(m.geo.as) << " PD=" << formatSpiceNumber(m.geo.pd)
       << " PS=" << formatSpiceNumber(m.geo.ps) << " M=" << m.mult << "\n";
  }
  for (const Resistor& r : c.resistors) {
    os << r.name << " " << nn(r.a) << " " << nn(r.b) << " " << formatSpiceNumber(r.ohms)
       << "\n";
  }
  for (const Capacitor& cap : c.capacitors) {
    os << cap.name << " " << nn(cap.a) << " " << nn(cap.b) << " "
       << formatSpiceNumber(cap.farads) << "\n";
  }
  auto writeWave = [&](std::ostream& out, const Waveform& w) {
    switch (w.kind) {
      case Waveform::Kind::kDc:
        out << " DC " << formatSpiceNumber(w.dc);
        break;
      case Waveform::Kind::kPulse:
        out << " PULSE(" << formatSpiceNumber(w.v1) << " " << formatSpiceNumber(w.v2) << " "
            << formatSpiceNumber(w.delay) << " " << formatSpiceNumber(w.rise) << " "
            << formatSpiceNumber(w.fall) << " " << formatSpiceNumber(w.width) << " "
            << formatSpiceNumber(w.period) << ")";
        break;
      case Waveform::Kind::kSin:
        out << " SIN(" << formatSpiceNumber(w.offset) << " "
            << formatSpiceNumber(w.amplitude) << " " << formatSpiceNumber(w.freq) << ")";
        break;
    }
  };
  for (const VSource& v : c.vsources) {
    os << v.name << " " << nn(v.pos) << " " << nn(v.neg);
    writeWave(os, v.wave);
    if (v.acMag != 0.0) os << " AC " << formatSpiceNumber(v.acMag) << " " << v.acPhase;
    os << "\n";
  }
  for (const ISource& i : c.isources) {
    os << i.name << " " << nn(i.pos) << " " << nn(i.neg);
    writeWave(os, i.wave);
    if (i.acMag != 0.0) os << " AC " << formatSpiceNumber(i.acMag);
    os << "\n";
  }
  for (const Vcvs& e : c.vcvs) {
    os << e.name << " " << nn(e.pos) << " " << nn(e.neg) << " " << nn(e.cp) << " "
       << nn(e.cn) << " " << e.gain << "\n";
  }
  os << ".end\n";
  return os.str();
}

}  // namespace lo::circuit
