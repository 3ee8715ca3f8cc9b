#include "circuit/spice_io.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <string_view>

namespace lo::circuit {

namespace {

/// The shortest text that reads back as `value`.
std::string shortest(double value) {
  char buf[32];
  return std::string(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace

std::string formatSpiceNumber(double value) {
  if (value == 0.0) return "0";
  if (!std::isfinite(value)) return shortest(value);
  // The shortest round-trip digits, then the decimal point moved in the
  // text to the suffix's power of 1000: no rounding, no lost digits.
  char buf[32];
  const std::string_view text(
      buf, std::to_chars(buf, buf + sizeof buf, value, std::chars_format::scientific).ptr);
  const std::size_t e = text.find('e');
  int exponent = 0;
  std::from_chars(&text[e + (text[e + 1] == '+' ? 2 : 1)], text.data() + text.size(), exponent);
  if (exponent < -15) return shortest(value);  // Below femto: plain text.
  const int scale = std::min(12, exponent >= 0 ? exponent / 3 * 3 : -((2 - exponent) / 3) * 3);
  static constexpr const char* kSuffixes[] = {"f", "p", "n", "u", "m", "", "k", "meg", "g", "t"};
  std::string digits;
  for (const char c : text.substr(0, e)) {
    if (c >= '0' && c <= '9') digits += c;
  }
  const std::size_t whole = static_cast<std::size_t>(exponent - scale) + 1;
  if (digits.size() < whole) digits.append(whole - digits.size(), '0');
  std::string out = value < 0.0 ? "-" : "";
  out += digits.substr(0, whole);
  if (digits.size() > whole) out += "." + digits.substr(whole);
  return out + kSuffixes[scale / 3 + 5];
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
       << " PS=" << formatSpiceNumber(m.geo.ps) << " M=" << shortest(m.mult) << "\n";
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
    if (v.acMag != 0.0) {
      os << " AC " << formatSpiceNumber(v.acMag) << " " << shortest(v.acPhase);
    }
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
       << nn(e.cn) << " " << shortest(e.gain) << "\n";
  }
  os << ".end\n";
  return os.str();
}

}  // namespace lo::circuit
