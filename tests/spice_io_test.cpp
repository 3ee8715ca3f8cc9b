#include "circuit/spice_io.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "circuit/ota.hpp"

namespace lo::circuit {
namespace {

TEST(SpiceNumber, ParsesSuffixes) {
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2.5u"), 2.5e-6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3meg"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("10k"), 1e4);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("4.7n"), 4.7e-9);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("100f"), 1e-13);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("-3m"), -3e-3);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1.5"), 1.5);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2G"), 2e9);
}

TEST(SpiceNumber, RejectsGarbage) {
  EXPECT_THROW((void)parseSpiceNumber("abc"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("1.5x"), NetlistParseError);
}

TEST(SpiceNumber, SuffixesAreCaseInsensitiveAndMegIsNotMilli) {
  // "meg" in any case is mega; a single "m" in any case is milli -- the
  // classic SPICE trap.
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3MEG"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3Meg"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3mEg"), 3e6);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3m"), 3e-3);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("3M"), 3e-3);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("10K"), 1e4);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("100F"), 1e-13);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2g"), 2e9);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1T"), 1e12);
}

TEST(SpiceNumber, NegativeExponentsComposeWithSuffixes) {
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1e-3k"), 1.0);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("2.5e-6meg"), 2.5);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("-1.5e-2m"), -1.5e-5);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("4E-9"), 4e-9);
  EXPECT_DOUBLE_EQ(parseSpiceNumber("1e3u"), 1e-3);
}

TEST(SpiceNumber, MalformedSuffixesThrowInsteadOfParsingThePrefix) {
  // A recognised suffix followed by trailing junk must not silently parse
  // as the shorter suffix ("10megx" is not 10 milli, "1m5" is not 1 milli).
  EXPECT_THROW((void)parseSpiceNumber("10megx"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("1m5"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("5kk"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("3me"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("3megmeg"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("2uF"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber(""), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("meg"), NetlistParseError);
  EXPECT_THROW((void)parseSpiceNumber("1.5 k"), NetlistParseError);
}

TEST(SpiceNumber, RejectsNonFiniteValues) {
  // std::stod reads "nan" and "inf"; a suffix can also scale a finite
  // literal out of range.
  for (const char* token : {"nan", "NaN", "-nan", "inf", "-inf", "infinity", "1e400",
                            "1e300t", "1e-300f"}) {
    EXPECT_THROW((void)parseSpiceNumber(token), NetlistParseError) << token;
  }
}

TEST(SpiceNumber, FormatRoundTrips) {
  for (double v : {2.5e-6, 3e6, 1e4, 4.7e-9, -3e-3, 1.5, 0.0}) {
    EXPECT_DOUBLE_EQ(parseSpiceNumber(formatSpiceNumber(v)), v) << v;
  }
  EXPECT_EQ(formatSpiceNumber(0.0), "0");
}

TEST(NetlistParse, BasicRlcAndSources) {
  const Circuit c = parseNetlist(
      "* divider\n"
      "V1 in 0 DC 3.3 AC 1 0\n"
      "R1 in out 10k\n"
      "R2 out 0 10k\n"
      "C1 out 0 1p\n"
      ".end\n");
  EXPECT_EQ(c.title, "divider");
  EXPECT_EQ(c.resistors.size(), 2u);
  EXPECT_EQ(c.capacitors.size(), 1u);
  ASSERT_EQ(c.vsources.size(), 1u);
  EXPECT_DOUBLE_EQ(c.vsources[0].wave.dc, 3.3);
  EXPECT_DOUBLE_EQ(c.vsources[0].acMag, 1.0);
}

TEST(NetlistParse, MosWithGeometry) {
  const Circuit c = parseNetlist(
      "* mos\n"
      "M1 d g s 0 nmos W=20u L=1u NF=4 AD=12p AS=14p PD=8u PS=9u M=2\n");
  ASSERT_EQ(c.mosfets.size(), 1u);
  const Mos& m = c.mosfets[0];
  EXPECT_EQ(m.type, tech::MosType::kNmos);
  EXPECT_DOUBLE_EQ(m.geo.w, 20e-6);
  EXPECT_DOUBLE_EQ(m.geo.l, 1e-6);
  EXPECT_EQ(m.geo.nf, 4);
  EXPECT_DOUBLE_EQ(m.geo.ad, 12e-12);
  EXPECT_DOUBLE_EQ(m.geo.ps, 9e-6);
  EXPECT_DOUBLE_EQ(m.mult, 2.0);
}

TEST(NetlistParse, PulseAndSinSources) {
  const Circuit c = parseNetlist(
      "* srcs\n"
      "V1 a 0 PULSE(0 1 10n 1n 1n 50n 200n)\n"
      "V2 b 0 SIN(1.65 0.1 1meg)\n"
      "I1 a b DC 10u AC 1\n");
  ASSERT_EQ(c.vsources.size(), 2u);
  EXPECT_EQ(c.vsources[0].wave.kind, Waveform::Kind::kPulse);
  EXPECT_DOUBLE_EQ(c.vsources[0].wave.width, 50e-9);
  EXPECT_EQ(c.vsources[1].wave.kind, Waveform::Kind::kSin);
  EXPECT_DOUBLE_EQ(c.vsources[1].wave.freq, 1e6);
  ASSERT_EQ(c.isources.size(), 1u);
  EXPECT_DOUBLE_EQ(c.isources[0].wave.dc, 10e-6);
  EXPECT_DOUBLE_EQ(c.isources[0].acMag, 1.0);
}

TEST(NetlistParse, Vcvs) {
  const Circuit c = parseNetlist("* e\nE1 out 0 inp inn 1000\n");
  ASSERT_EQ(c.vcvs.size(), 1u);
  EXPECT_DOUBLE_EQ(c.vcvs[0].gain, 1000.0);
}

TEST(NetlistParse, ErrorsCarryLineContext) {
  try {
    (void)parseNetlist("* t\nR1 a b\n");
    FAIL() << "expected NetlistParseError";
  } catch (const NetlistParseError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(NetlistParse, RejectsOutOfRangeValuesNamingTheLine) {
  for (const char* card :
       {"R1 a b 0", "R1 a b -1k", "R1 a b nan", "C1 a b -1p", "C1 a b inf",
        "M1 d g s 0 nmos W=-1u", "M1 d g s 0 nmos W=nan", "M1 d g s 0 nmos L=0",
        "M1 d g s 0 nmos NF=1e30", "M1 d g s 0 nmos NF=-3", "M1 d g s 0 nmos NF=0",
        "M1 d g s 0 nmos NF=2.5", "M1 d g s 0 nmos M=0", "M1 d g s 0 nmos AD=-1p",
        "M1 d g s 0 nmos AS=-1p", "M1 d g s 0 nmos PD=-1u", "M1 d g s 0 nmos PS=-1u",
        "V1 a 0 DC inf", "I1 a 0 AC nan", "E1 a 0 b 0 1e999"}) {
    SCOPED_TRACE(card);
    try {
      (void)parseNetlist(std::string("* t\n") + card + "\n");
      ADD_FAILURE() << "accepted";
    } catch (const NetlistParseError& e) {
      EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
    }
  }
  // The range boundaries that stay legal.
  const Circuit c = parseNetlist(
      "* t\nC1 a 0 0\nM1 d g s 0 pmos W=1u L=1u NF=1 AD=0 AS=0 PD=0 PS=0 M=0.5\n");
  EXPECT_DOUBLE_EQ(c.capacitors.at(0).farads, 0.0);
  EXPECT_DOUBLE_EQ(c.mosfets.at(0).mult, 0.5);
}

TEST(NetlistParse, RejectsUnknownElementsAndModels) {
  EXPECT_THROW((void)parseNetlist("* t\nQ1 a b c model\n"), NetlistParseError);
  EXPECT_THROW((void)parseNetlist("* t\nM1 d g s 0 bjt W=1u L=1u\n"), NetlistParseError);
  EXPECT_THROW((void)parseNetlist("* t\nM1 d g s 0 nmos BOGUS=3\n"), NetlistParseError);
}

/// One element of every kind the reader knows.
Circuit everyElementCircuit() {
  Circuit c;
  c.title = "roundtrip";
  const NodeId in = c.node("in"), out = c.node("out");
  device::MosGeometry geo;
  geo.w = 33e-6;
  geo.l = 0.8e-6;
  geo.nf = 4;
  geo.ad = 10e-12;
  geo.as = 11e-12;
  geo.pd = 5e-6;
  geo.ps = 6e-6;
  c.addMos("M1", out, in, kGround, kGround, tech::MosType::kNmos, geo);
  c.addResistor("R1", in, out, 4.7e3);
  c.addCapacitor("C1", out, kGround, 2.2e-12);
  c.addVSource("V1", in, kGround, Waveform::makePulse(0, 3.3, 0, 1e-9, 1e-9, 1e-6, 2e-6),
               0.5, 45.0);
  c.addISource("I1", in, out, Waveform::makeDc(1e-6));
  c.addVcvs("E1", out, kGround, in, kGround, 12.0);
  return c;
}

TEST(NetlistRoundTrip, WriteThenParsePreservesCircuit) {
  const Circuit u = parseNetlist(writeNetlist(everyElementCircuit()));
  EXPECT_EQ(u.title, "roundtrip");
  ASSERT_EQ(u.mosfets.size(), 1u);
  EXPECT_DOUBLE_EQ(u.mosfets[0].geo.w, 33e-6);
  EXPECT_EQ(u.mosfets[0].geo.nf, 4);
  ASSERT_EQ(u.vsources.size(), 1u);
  EXPECT_EQ(u.vsources[0].wave.kind, Waveform::Kind::kPulse);
  EXPECT_DOUBLE_EQ(u.vsources[0].acMag, 0.5);
  EXPECT_DOUBLE_EQ(u.vsources[0].acPhase, 45.0);
  ASSERT_EQ(u.vcvs.size(), 1u);
  EXPECT_DOUBLE_EQ(u.vcvs[0].gain, 12.0);
  // Node wiring preserved.
  EXPECT_EQ(u.mosfets[0].gate, *u.findNode("in"));
  EXPECT_EQ(u.mosfets[0].drain, *u.findNode("out"));
}

// --- Seeded fuzzing. ---

/// Netlists the writer produces for circuits built above and by the OTA
/// builder.
std::vector<std::string> fuzzCorpus() {
  Circuit ota;
  (void)instantiateOta(ota, FoldedCascodeOtaDesign{});
  return {writeNetlist(everyElementCircuit()), writeNetlist(ota)};
}

/// One seeded edit: swap a number for an out-of-range value, drop or
/// repeat a token, truncate a line, or flip a byte.  Draws only through
/// rng() (whose sequence the standard fixes), so each seed replays exactly.
std::string mutate(std::string text, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  std::vector<std::pair<std::size_t, std::size_t>> tokens, numbers;  // [begin, end)
  for (std::size_t i = 0; i < text.size();) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < text.size() && !std::isspace(static_cast<unsigned char>(text[end]))) {
      ++end;
    }
    tokens.emplace_back(i, end);
    // A bare number or the value of a key=value token.
    std::size_t value = text.find('=', i);
    value = value < end ? value + 1 : i;
    if (value < end && (std::isdigit(static_cast<unsigned char>(text[value])) ||
                        text[value] == '-' || text[value] == '.')) {
      numbers.emplace_back(value, end);
    }
    i = end;
  }
  if (tokens.empty()) return text;
  switch (pick(5)) {
    case 0: {
      if (numbers.empty()) break;
      static const char* const kValues[] = {"nan", "inf", "-1", "0", "1e30"};
      const auto [begin, end] = numbers[pick(numbers.size())];
      text.replace(begin, end - begin, kValues[pick(5)]);
      break;
    }
    case 1: {
      const auto [begin, end] = tokens[pick(tokens.size())];
      text.erase(begin, end - begin);
      break;
    }
    case 2: {
      const auto [begin, end] = tokens[pick(tokens.size())];
      text.insert(end, " " + text.substr(begin, end - begin));
      break;
    }
    case 3: {
      const std::size_t cut = pick(text.size());
      const std::size_t eol = text.find('\n', cut);
      text.erase(cut, eol == std::string::npos ? std::string::npos : eol - cut);
      break;
    }
    default: {
      char& byte = text[pick(text.size())];
      byte = static_cast<char>(byte ^ static_cast<char>(1 + pick(255)));
      break;
    }
  }
  return text;
}

/// parseNetlist with a NetlistParseError mapped to nullopt; any other
/// exception escapes and fails the test.
std::optional<Circuit> tryParse(const std::string& text) {
  try {
    return parseNetlist(text);
  } catch (const NetlistParseError&) {
    return std::nullopt;
  }
}

/// Every value the reader stored is finite and inside its element's range.
bool representable(const Circuit& c) {
  const auto finite = [](std::initializer_list<double> values) {
    for (const double v : values) {
      if (!std::isfinite(v)) return false;
    }
    return true;
  };
  const auto finiteWave = [&](const Waveform& w) {
    return finite({w.dc, w.v1, w.v2, w.delay, w.rise, w.fall, w.width, w.period, w.offset,
                   w.amplitude, w.freq});
  };
  for (const Mos& m : c.mosfets) {
    const device::MosGeometry& g = m.geo;
    if (!finite({g.w, g.l, g.ad, g.as, g.pd, g.ps, m.mult}) || g.w <= 0 || g.l <= 0 ||
        g.nf < 1 || g.ad < 0 || g.as < 0 || g.pd < 0 || g.ps < 0 || m.mult <= 0) {
      return false;
    }
  }
  for (const Resistor& r : c.resistors) {
    if (!finite({r.ohms}) || r.ohms <= 0) return false;
  }
  for (const Capacitor& cap : c.capacitors) {
    if (!finite({cap.farads}) || cap.farads < 0) return false;
  }
  for (const VSource& v : c.vsources) {
    if (!finiteWave(v.wave) || !finite({v.acMag, v.acPhase})) return false;
  }
  for (const ISource& i : c.isources) {
    if (!finiteWave(i.wave) || !finite({i.acMag})) return false;
  }
  for (const Vcvs& e : c.vcvs) {
    if (!finite({e.gain})) return false;
  }
  return true;
}

TEST(SpiceFuzz, MutatedNetlistsFailCleanlyOrRoundTrip) {
  const std::vector<std::string> corpus = fuzzCorpus();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    int parsed = 0, rejected = 0;
    for (int iter = 0; iter < 600; ++iter) {
      std::string text = corpus[static_cast<std::size_t>(iter) % corpus.size()];
      for (std::uint64_t edits = 1 + rng() % 3; edits > 0; --edits) {
        text = mutate(text, rng);
      }
      const std::optional<Circuit> c = tryParse(text);
      if (!c) {
        ++rejected;
        continue;
      }
      ++parsed;
      ASSERT_TRUE(representable(*c)) << text;
      const std::string written = writeNetlist(*c);
      const std::optional<Circuit> again = tryParse(written);
      ASSERT_TRUE(again.has_value()) << "input:\n" << text << "\nwritten:\n" << written;
      ASSERT_TRUE(representable(*again)) << written;
    }
    // Both outcomes occur, so neither check above is vacuous.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
  }
}

TEST(SpiceFuzz, MutationsAreDeterministicPerSeed) {
  const std::string base = fuzzCorpus().front();
  const auto mutations = [&base](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> out;
    for (int i = 0; i < 50; ++i) out.push_back(mutate(base, rng));
    return out;
  };
  EXPECT_EQ(mutations(7), mutations(7));
  EXPECT_NE(mutations(7), mutations(8));
}

}  // namespace
}  // namespace lo::circuit
