#include "circuit/spice_io.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

namespace lo::circuit {

namespace {

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

/// Split a card into tokens; '(' and ')' become separators so that
/// "PULSE(0 1 0" parses as PULSE ( 0 1 0.
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  };
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == '(' || c == ')' || c == ',') {
      flush();
    } else {
      cur.push_back(c);
    }
  }
  flush();
  return out;
}

/// The multiplier an SI suffix stands for.  Suffixes must match exactly:
/// "3meg" scales, "3megx" (or "5kk", "1m5") is an error rather than
/// silently parsing as the recognised prefix.
double suffixScale(std::string_view suffix, std::string_view token) {
  if (suffix.empty()) return 1.0;
  if (suffix == "meg") return 1e6;
  if (suffix.size() == 1) {
    switch (suffix.front()) {
      case 'f': return 1e-15;
      case 'p': return 1e-12;
      case 'n': return 1e-9;
      case 'u': return 1e-6;
      case 'm': return 1e-3;
      case 'k': return 1e3;
      case 'g': return 1e9;
      case 't': return 1e12;
      default: break;
    }
  }
  throw NetlistParseError("bad number suffix: '" + std::string(token) + "'");
}

}  // namespace

double parseSpiceNumber(std::string_view token) {
  const std::string t = lower(token);
  std::size_t pos = 0;
  double value = 0.0;
  try {
    value = std::stod(t, &pos);
  } catch (const std::exception&) {
    throw NetlistParseError("bad number: '" + std::string(token) + "'");
  }
  value *= suffixScale(std::string_view(t).substr(pos), token);
  // std::stod accepts "nan" and "inf" and rejects literals that overflow or
  // underflow; a suffix must not scale a value into either range.
  if (!std::isnormal(value) && value != 0.0) {
    throw NetlistParseError("number not finite or out of range: '" + std::string(token) +
                            "'");
  }
  return value;
}

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

namespace {

// Range checks for element values.  The thrown messages carry no line;
// parseNetlist appends it to every error a card raises.
double positive(double value, const char* what) {
  if (!(value > 0.0)) throw NetlistParseError(std::string(what) + " must be positive");
  return value;
}

double nonNegative(double value, const char* what) {
  if (!(value >= 0.0)) {
    throw NetlistParseError(std::string(what) + " must be non-negative");
  }
  return value;
}

int foldCount(double value) {
  if (!(value >= 1.0 && value <= std::numeric_limits<int>::max() &&
        value == std::floor(value))) {
    throw NetlistParseError("NF must be a positive integer");
  }
  return static_cast<int>(value);
}

/// Parse "DC v | AC mag [phase] | PULSE(...) | SIN(...)" source tail.
void parseSourceTail(const std::vector<std::string>& tok, std::size_t i, Waveform& wave,
                     double& acMag, double& acPhase) {
  auto isNumber = [](const std::string& s) {
    return !s.empty() && (std::isdigit(static_cast<unsigned char>(s[0])) || s[0] == '-' ||
                          s[0] == '+' || s[0] == '.');
  };
  while (i < tok.size()) {
    const std::string key = lower(tok[i]);
    if (key == "dc") {
      if (i + 1 >= tok.size()) throw NetlistParseError("DC needs a value");
      wave = Waveform::makeDc(parseSpiceNumber(tok[i + 1]));
      i += 2;
    } else if (key == "ac") {
      if (i + 1 >= tok.size()) throw NetlistParseError("AC needs a magnitude");
      acMag = parseSpiceNumber(tok[i + 1]);
      i += 2;
      if (i < tok.size() && isNumber(tok[i])) {
        acPhase = parseSpiceNumber(tok[i]);
        ++i;
      }
    } else if (key == "pulse") {
      if (i + 7 >= tok.size()) throw NetlistParseError("PULSE needs 7 values");
      wave = Waveform::makePulse(parseSpiceNumber(tok[i + 1]), parseSpiceNumber(tok[i + 2]),
                                 parseSpiceNumber(tok[i + 3]), parseSpiceNumber(tok[i + 4]),
                                 parseSpiceNumber(tok[i + 5]), parseSpiceNumber(tok[i + 6]),
                                 parseSpiceNumber(tok[i + 7]));
      i += 8;
    } else if (key == "sin") {
      if (i + 3 >= tok.size()) throw NetlistParseError("SIN needs 3 values");
      wave = Waveform::makeSin(parseSpiceNumber(tok[i + 1]), parseSpiceNumber(tok[i + 2]),
                               parseSpiceNumber(tok[i + 3]));
      i += 4;
    } else if (isNumber(tok[i])) {
      // Bare value means DC.
      wave = Waveform::makeDc(parseSpiceNumber(tok[i]));
      ++i;
    } else {
      throw NetlistParseError("unexpected token '" + tok[i] + "'");
    }
  }
}

/// Add the element on one tokenized card; `head` is tok[0] lower-cased.
void addCard(Circuit& c, const std::vector<std::string>& tok, const std::string& head) {
  const std::string& name = tok[0];
  switch (head[0]) {
    case 'm': {
      if (tok.size() < 6) throw NetlistParseError("MOS card too short");
      const NodeId d = c.node(tok[1]), g = c.node(tok[2]), s = c.node(tok[3]),
                   b = c.node(tok[4]);
      const std::string model = lower(tok[5]);
      tech::MosType type;
      if (model == "nmos" || model.starts_with("nmos")) type = tech::MosType::kNmos;
      else if (model == "pmos" || model.starts_with("pmos")) type = tech::MosType::kPmos;
      else throw NetlistParseError("unknown MOS model '" + tok[5] + "'");
      device::MosGeometry geo;
      double mult = 1.0;
      for (std::size_t i = 6; i < tok.size(); ++i) {
        const std::size_t eq = tok[i].find('=');
        if (eq == std::string::npos) throw NetlistParseError("expected key=value");
        const std::string key = lower(tok[i].substr(0, eq));
        const double val = parseSpiceNumber(tok[i].substr(eq + 1));
        if (key == "w") geo.w = positive(val, "W");
        else if (key == "l") geo.l = positive(val, "L");
        else if (key == "nf") geo.nf = foldCount(val);
        else if (key == "ad") geo.ad = nonNegative(val, "AD");
        else if (key == "as") geo.as = nonNegative(val, "AS");
        else if (key == "pd") geo.pd = nonNegative(val, "PD");
        else if (key == "ps") geo.ps = nonNegative(val, "PS");
        else if (key == "m") mult = positive(val, "M");
        else throw NetlistParseError("unknown MOS parameter '" + key + "'");
      }
      c.addMos(name, d, g, s, b, type, geo, mult);
      break;
    }
    case 'r': {
      if (tok.size() < 4) throw NetlistParseError("R card too short");
      c.addResistor(name, c.node(tok[1]), c.node(tok[2]),
                    positive(parseSpiceNumber(tok[3]), "resistance"));
      break;
    }
    case 'c': {
      if (tok.size() < 4) throw NetlistParseError("C card too short");
      c.addCapacitor(name, c.node(tok[1]), c.node(tok[2]),
                     nonNegative(parseSpiceNumber(tok[3]), "capacitance"));
      break;
    }
    case 'v': {
      if (tok.size() < 3) throw NetlistParseError("V card too short");
      Waveform wave;
      double acMag = 0.0, acPhase = 0.0;
      parseSourceTail(tok, 3, wave, acMag, acPhase);
      c.addVSource(name, c.node(tok[1]), c.node(tok[2]), wave, acMag, acPhase);
      break;
    }
    case 'i': {
      if (tok.size() < 3) throw NetlistParseError("I card too short");
      Waveform wave;
      double acMag = 0.0, acPhase = 0.0;
      parseSourceTail(tok, 3, wave, acMag, acPhase);
      c.addISource(name, c.node(tok[1]), c.node(tok[2]), wave, acMag);
      break;
    }
    case 'e': {
      if (tok.size() < 6) throw NetlistParseError("E card too short");
      c.addVcvs(name, c.node(tok[1]), c.node(tok[2]), c.node(tok[3]), c.node(tok[4]),
                parseSpiceNumber(tok[5]));
      break;
    }
    default:
      throw NetlistParseError("unknown element type");
  }
}

}  // namespace

Circuit parseNetlist(std::string_view text) {
  Circuit c;
  std::size_t pos = 0;
  int lineNo = 0;
  bool firstLine = true;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string line(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++lineNo;

    // SPICE convention: the first line is the title.
    if (firstLine) {
      firstLine = false;
      if (!line.empty() && line[0] == '*') {
        c.title = line.substr(1);
        // Trim leading whitespace from the title.
        c.title.erase(0, c.title.find_first_not_of(" \t"));
        continue;
      }
    }
    if (line.empty() || line[0] == '*') continue;
    const std::vector<std::string> tok = tokenize(line);
    if (tok.empty()) continue;
    const std::string head = lower(tok[0]);
    if (head == ".end" || head == ".ends") break;
    if (head[0] == '.') continue;  // Ignore other dot cards.
    try {
      addCard(c, tok, head);
    } catch (const NetlistParseError& e) {
      throw NetlistParseError(std::string(e.what()) + ": line " + std::to_string(lineNo) +
                              ": " + line);
    }
  }
  return c;
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
