#include "tech/technology.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "tech/units.hpp"

namespace lo::tech {

double MosModelCard::cox() const { return kEps0 * kEpsrSiO2 / tox; }

double MosModelCard::kpAt(double tempK) const {
  return kp * std::pow(tempK / tempRef, mobilityExponent);
}

Nm Technology::minWireWidth(Layer l) const {
  switch (l) {
    case Layer::kPoly: return rules.polyMinWidth;
    case Layer::kMetal1: return rules.metal1MinWidth;
    case Layer::kMetal2: return rules.metal2MinWidth;
    default: throw std::invalid_argument("minWireWidth: not a routing layer");
  }
}

Nm Technology::wireWidthForCurrent(Layer l, double amps) const {
  const double limit = layer(l).emMaxAmpPerM;
  Nm width = minWireWidth(l);
  if (limit > 0.0 && amps > 0.0) {
    const Nm emWidth = metersToNm(std::abs(amps) / limit);
    width = std::max(width, emWidth);
  }
  return rules.snapUp(width);
}

int Technology::contactsForCurrent(double amps) const {
  if (contactMaxAmp <= 0.0 || amps <= 0.0) return 1;
  return std::max(1, static_cast<int>(std::ceil(std::abs(amps) / contactMaxAmp)));
}

Technology Technology::generic060() {
  Technology t;
  t.name = "generic060";
  // Design rules: defaults in DesignRules are already the 0.6 um set.

  // NMOS card.
  t.nmos.name = "nmos060";
  t.nmos.type = MosType::kNmos;
  t.nmos.vto = 0.75;
  t.nmos.kp = 110e-6;
  t.nmos.gamma = 0.55;
  t.nmos.phi = 0.70;
  t.nmos.earlyPerMeter = 8.0e6;   // VA = 8 V/um * L
  t.nmos.tox = 14e-9;
  t.nmos.ld = 50e-9;
  t.nmos.theta = 0.15;
  t.nmos.cj = 0.65e-3;
  t.nmos.cjsw = 0.40e-9;
  t.nmos.mj = 0.50;
  t.nmos.mjsw = 0.33;
  t.nmos.pb = 0.9;
  t.nmos.cgso = 0.12e-9;
  t.nmos.cgdo = 0.12e-9;
  t.nmos.cgbo = 0.10e-9;
  t.nmos.kf = 2.0e-27;
  t.nmos.af = 1.0;
  t.nmos.slopeFactor = 1.3;

  // PMOS card.
  t.pmos = t.nmos;
  t.pmos.name = "pmos060";
  t.pmos.type = MosType::kPmos;
  t.pmos.vto = 0.85;
  t.pmos.kp = 38e-6;
  t.pmos.gamma = 0.45;
  t.pmos.earlyPerMeter = 12.0e6;
  t.pmos.cj = 0.85e-3;
  t.pmos.cjsw = 0.45e-9;
  t.pmos.mjsw = 0.35;
  t.pmos.kf = 0.6e-27;

  // Layer electricals.
  auto& poly = t.layer(Layer::kPoly);
  poly.capAreaPerM2 = 0.09e-3;
  poly.capFringePerM = 0.05e-9;
  poly.capCouplePerM = 0.04e-9;
  poly.sheetResOhmSq = 25.0;
  poly.emMaxAmpPerM = 0.3e3;  // 0.3 mA/um: poly is a poor current carrier.

  auto& m1 = t.layer(Layer::kMetal1);
  m1.capAreaPerM2 = 0.030e-3;
  m1.capFringePerM = 0.080e-9;
  m1.capCouplePerM = 0.085e-9;
  m1.sheetResOhmSq = 0.07;
  m1.emMaxAmpPerM = 1.0e3;  // 1 mA/um.

  auto& m2 = t.layer(Layer::kMetal2);
  m2.capAreaPerM2 = 0.020e-3;
  m2.capFringePerM = 0.060e-9;
  m2.capCouplePerM = 0.070e-9;
  m2.sheetResOhmSq = 0.04;
  m2.emMaxAmpPerM = 1.0e3;

  auto& act = t.layer(Layer::kActive);
  act.sheetResOhmSq = 80.0;

  return t;
}

Technology Technology::generic100() {
  Technology t = generic060();
  t.name = "generic100";
  // Scale geometry by 5/3 and degrade the electrical figures accordingly.
  auto scale = [](Nm v) { return v * 5 / 3; };
  DesignRules& r = t.rules;
  r.polyMinWidth = scale(r.polyMinWidth);
  r.polySpacing = scale(r.polySpacing);
  r.polyEndcap = scale(r.polyEndcap);
  r.activeMinWidth = scale(r.activeMinWidth);
  r.activeSpacing = scale(r.activeSpacing);
  r.activeToWell = scale(r.activeToWell);
  r.contactSize = scale(r.contactSize);
  r.contactSpacing = scale(r.contactSpacing);
  r.contactToGate = scale(r.contactToGate);
  r.metal1MinWidth = scale(r.metal1MinWidth);
  r.metal1Spacing = scale(r.metal1Spacing);
  r.metal2MinWidth = scale(r.metal2MinWidth);
  r.metal2Spacing = scale(r.metal2Spacing);
  r.nwellOverActive = scale(r.nwellOverActive);
  r.nwellSpacing = scale(r.nwellSpacing);

  t.nmos.tox = 20e-9;
  t.nmos.kp = 75e-6;
  t.nmos.vto = 0.85;
  t.nmos.earlyPerMeter = 6.0e6;
  t.pmos.tox = 20e-9;
  t.pmos.kp = 26e-6;
  t.pmos.vto = 0.95;
  t.pmos.earlyPerMeter = 9.0e6;
  return t;
}

namespace {

// ---- Tech file serialisation / parsing ----
//
// Format: "[section]" headers with "key = value" lines; '#' starts a comment.
// Sections: [tech], [rules], [layer <name>], [model nmos], [model pmos].

struct KeyWriter {
  std::ostringstream out;
  void section(std::string_view s) { out << "[" << s << "]\n"; }
  void kv(std::string_view k, double v) { out << k << " = " << v << "\n"; }
  void kv(std::string_view k, std::int64_t v) { out << k << " = " << v << "\n"; }
  void kv(std::string_view k, const std::string& v) { out << k << " = " << v << "\n"; }
};

void writeCard(KeyWriter& w, const MosModelCard& c) {
  w.kv("name", c.name);
  w.kv("vto", c.vto);
  w.kv("kp", c.kp);
  w.kv("gamma", c.gamma);
  w.kv("phi", c.phi);
  w.kv("early_per_meter", c.earlyPerMeter);
  w.kv("tox", c.tox);
  w.kv("ld", c.ld);
  w.kv("theta", c.theta);
  w.kv("cj", c.cj);
  w.kv("cjsw", c.cjsw);
  w.kv("mj", c.mj);
  w.kv("mjsw", c.mjsw);
  w.kv("pb", c.pb);
  w.kv("cgso", c.cgso);
  w.kv("cgdo", c.cgdo);
  w.kv("cgbo", c.cgbo);
  w.kv("kf", c.kf);
  w.kv("af", c.af);
  w.kv("slope_factor", c.slopeFactor);
  w.kv("vto_temp_coeff", c.vtoTempCoeff);
  w.kv("mobility_exponent", c.mobilityExponent);
}

bool setCardKey(MosModelCard& c, std::string_view key, std::string_view value) {
  auto num = [&] {
    try {
      return std::stod(std::string(value));
    } catch (const std::exception&) {
      throw TechParseError("bad model value '" + std::string(value) + "'");
    }
  };
  if (key == "name") { c.name = std::string(value); return true; }
  if (key == "vto") { c.vto = num(); return true; }
  if (key == "kp") { c.kp = num(); return true; }
  if (key == "gamma") { c.gamma = num(); return true; }
  if (key == "phi") { c.phi = num(); return true; }
  if (key == "early_per_meter") { c.earlyPerMeter = num(); return true; }
  if (key == "tox") { c.tox = num(); return true; }
  if (key == "ld") { c.ld = num(); return true; }
  if (key == "theta") { c.theta = num(); return true; }
  if (key == "cj") { c.cj = num(); return true; }
  if (key == "cjsw") { c.cjsw = num(); return true; }
  if (key == "mj") { c.mj = num(); return true; }
  if (key == "mjsw") { c.mjsw = num(); return true; }
  if (key == "pb") { c.pb = num(); return true; }
  if (key == "cgso") { c.cgso = num(); return true; }
  if (key == "cgdo") { c.cgdo = num(); return true; }
  if (key == "cgbo") { c.cgbo = num(); return true; }
  if (key == "kf") { c.kf = num(); return true; }
  if (key == "af") { c.af = num(); return true; }
  if (key == "slope_factor") { c.slopeFactor = num(); return true; }
  if (key == "vto_temp_coeff") { c.vtoTempCoeff = num(); return true; }
  if (key == "mobility_exponent") { c.mobilityExponent = num(); return true; }
  return false;
}

struct RuleEntry {
  std::string_view key;
  Nm DesignRules::* member;
};

constexpr RuleEntry kRuleEntries[] = {
    {"grid", &DesignRules::grid},
    {"poly_min_width", &DesignRules::polyMinWidth},
    {"poly_spacing", &DesignRules::polySpacing},
    {"poly_endcap", &DesignRules::polyEndcap},
    {"active_min_width", &DesignRules::activeMinWidth},
    {"active_spacing", &DesignRules::activeSpacing},
    {"active_to_well", &DesignRules::activeToWell},
    {"contact_size", &DesignRules::contactSize},
    {"contact_spacing", &DesignRules::contactSpacing},
    {"contact_to_gate", &DesignRules::contactToGate},
    {"active_over_contact", &DesignRules::activeOverContact},
    {"poly_over_contact", &DesignRules::polyOverContact},
    {"metal1_over_contact", &DesignRules::metal1OverContact},
    {"via1_size", &DesignRules::via1Size},
    {"via1_spacing", &DesignRules::via1Spacing},
    {"metal1_over_via1", &DesignRules::metal1OverVia1},
    {"metal2_over_via1", &DesignRules::metal2OverVia1},
    {"metal1_min_width", &DesignRules::metal1MinWidth},
    {"metal1_spacing", &DesignRules::metal1Spacing},
    {"metal2_min_width", &DesignRules::metal2MinWidth},
    {"metal2_spacing", &DesignRules::metal2Spacing},
    {"nwell_over_active", &DesignRules::nwellOverActive},
    {"nwell_spacing", &DesignRules::nwellSpacing},
    {"select_over_active", &DesignRules::selectOverActive},
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) s.remove_suffix(1);
  return s;
}

}  // namespace

std::string Technology::toText() const {
  KeyWriter w;
  w.section("tech");
  w.kv("name", name);
  w.kv("nominal_vdd", nominalVdd);
  w.kv("temperature", temperature);
  w.kv("contact_max_amp", contactMaxAmp);
  w.kv("via1_max_amp", via1MaxAmp);
  w.kv("contact_res_ohm", contactResOhm);
  w.kv("nwell_cap_area", nwellCapAreaPerM2);
  w.kv("nwell_cap_perim", nwellCapPerimPerM);
  w.kv("plate_cap", plateCapPerM2);

  w.section("rules");
  for (const RuleEntry& e : kRuleEntries) w.kv(e.key, rules.*(e.member));

  for (Layer l : kAllLayers) {
    const LayerElectrical& le = layer(l);
    w.section(std::string("layer ") + std::string(layerName(l)));
    w.kv("cap_area", le.capAreaPerM2);
    w.kv("cap_fringe", le.capFringePerM);
    w.kv("cap_couple", le.capCouplePerM);
    w.kv("sheet_res", le.sheetResOhmSq);
    w.kv("em_max_amp_per_m", le.emMaxAmpPerM);
  }

  w.section("model nmos");
  writeCard(w, nmos);
  w.section("model pmos");
  writeCard(w, pmos);
  return w.out.str();
}

Technology Technology::atCorner(ProcessCorner corner) const {
  Technology t = *this;
  auto slow = [](MosModelCard& c) {
    c.vto *= 1.08;
    c.kp *= 0.88;
  };
  auto fast = [](MosModelCard& c) {
    c.vto *= 0.92;
    c.kp *= 1.12;
  };
  switch (corner) {
    case ProcessCorner::kTypical: break;
    case ProcessCorner::kSlow: slow(t.nmos); slow(t.pmos); break;
    case ProcessCorner::kFast: fast(t.nmos); fast(t.pmos); break;
    case ProcessCorner::kSlowNFastP: slow(t.nmos); fast(t.pmos); break;
    case ProcessCorner::kFastNSlowP: fast(t.nmos); slow(t.pmos); break;
  }
  t.name = name + "_" + cornerName(corner);
  return t;
}

Technology Technology::parse(std::string_view text) {
  Technology t = generic060();  // Parse on top of sane defaults.
  std::string section = "tech";
  std::string sectionArg;

  std::size_t pos = 0;
  int lineNo = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string_view::npos) eol = text.size();
    std::string_view line = trim(text.substr(pos, eol - pos));
    pos = eol + 1;
    ++lineNo;
    if (line.empty() || line.front() == '#') continue;

    if (line.front() == '[') {
      if (line.back() != ']') {
        throw TechParseError("line " + std::to_string(lineNo) + ": unterminated section header");
      }
      std::string_view body = trim(line.substr(1, line.size() - 2));
      const std::size_t sp = body.find(' ');
      section = std::string(trim(body.substr(0, sp)));
      sectionArg = sp == std::string_view::npos ? "" : std::string(trim(body.substr(sp + 1)));
      continue;
    }

    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      throw TechParseError("line " + std::to_string(lineNo) + ": expected 'key = value'");
    }
    const std::string_view key = trim(line.substr(0, eq));
    const std::string_view value = trim(line.substr(eq + 1));
    auto num = [&] {
      try {
        return std::stod(std::string(value));
      } catch (const std::exception&) {
        throw TechParseError("line " + std::to_string(lineNo) + ": bad number '" +
                             std::string(value) + "'");
      }
    };

    if (section == "tech") {
      if (key == "name") t.name = std::string(value);
      else if (key == "nominal_vdd") t.nominalVdd = num();
      else if (key == "temperature") t.temperature = num();
      else if (key == "contact_max_amp") t.contactMaxAmp = num();
      else if (key == "via1_max_amp") t.via1MaxAmp = num();
      else if (key == "contact_res_ohm") t.contactResOhm = num();
      else if (key == "nwell_cap_area") t.nwellCapAreaPerM2 = num();
      else if (key == "nwell_cap_perim") t.nwellCapPerimPerM = num();
      else if (key == "plate_cap") t.plateCapPerM2 = num();
      else throw TechParseError("line " + std::to_string(lineNo) + ": unknown tech key '" +
                                std::string(key) + "'");
    } else if (section == "rules") {
      bool found = false;
      for (const RuleEntry& e : kRuleEntries) {
        if (e.key == key) {
          t.rules.*(e.member) = static_cast<Nm>(num());
          found = true;
          break;
        }
      }
      if (!found) {
        throw TechParseError("line " + std::to_string(lineNo) + ": unknown rule '" +
                             std::string(key) + "'");
      }
    } else if (section == "layer") {
      const auto layerId = layerFromName(sectionArg);
      if (!layerId) throw TechParseError("unknown layer '" + sectionArg + "'");
      LayerElectrical& le = t.layer(*layerId);
      if (key == "cap_area") le.capAreaPerM2 = num();
      else if (key == "cap_fringe") le.capFringePerM = num();
      else if (key == "cap_couple") le.capCouplePerM = num();
      else if (key == "sheet_res") le.sheetResOhmSq = num();
      else if (key == "em_max_amp_per_m") le.emMaxAmpPerM = num();
      else throw TechParseError("line " + std::to_string(lineNo) + ": unknown layer key '" +
                                std::string(key) + "'");
    } else if (section == "model") {
      MosModelCard* card = nullptr;
      if (sectionArg == "nmos") card = &t.nmos;
      else if (sectionArg == "pmos") card = &t.pmos;
      else throw TechParseError("unknown model section '" + sectionArg + "'");
      if (!setCardKey(*card, key, value)) {
        throw TechParseError("line " + std::to_string(lineNo) + ": unknown model key '" +
                             std::string(key) + "'");
      }
    } else {
      throw TechParseError("unknown section '" + section + "'");
    }
  }
  t.nmos.type = MosType::kNmos;
  t.pmos.type = MosType::kPmos;
  return t;
}

Technology Technology::fromFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw TechParseError("cannot open technology file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str());
}

}  // namespace lo::tech
