// Json's number codec held to the C library it must agree with byte for
// byte: Json::formatNumber and dump() to std::to_string for integers below
// 1e15 and to snprintf("%.17g") for every other finite double, and
// Json::parse to strtod on every number token -- the same accept/reject
// verdict and the same bits.  Cache keys, disk-store entries, journal
// frames and every protocol line are built from these bytes, so a codec
// that moved one of them would orphan stored results.  snprintf and strtod
// appear here only, as the oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace lo::service {
namespace {

std::uint64_t bitsOf(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

double fromBits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

/// What a number prints as: "null" when it has no JSON spelling, the
/// integer's digits below 1e15, %.17g otherwise.
std::string oracleFormat(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// strtod's verdict on a whole token: its value when it reads all of it.
std::optional<double> oracleParse(const std::string& token) {
  char* end = nullptr;
  const double v = std::strtod(token.c_str(), &end);
  if (token.empty() || end != token.c_str() + token.size()) return std::nullopt;
  return v;
}

void expectFormatMatches(double v) {
  const std::string expected = oracleFormat(v);
  ASSERT_EQ(Json::formatNumber(v), expected) << "bits " << std::hex << bitsOf(v);
  ASSERT_EQ(Json(v).dump(), expected) << "bits " << std::hex << bitsOf(v);
}

void expectParseMatches(const std::string& token) {
  const std::optional<double> expected = oracleParse(token);
  std::optional<double> got;
  try {
    got = Json::parse(token).asDouble();
  } catch (const JsonParseError&) {
  }
  ASSERT_EQ(got.has_value(), expected.has_value()) << '"' << token << '"';
  if (got) {
    ASSERT_EQ(bitsOf(*got), bitsOf(*expected)) << '"' << token << '"';
  }
}

/// Format `v`, then parse what it printed.
void expectRoundTripMatches(double v) {
  expectFormatMatches(v);
  if (std::isfinite(v)) expectParseMatches(oracleFormat(v));
}

TEST(JsonCodec, EdgeValuesMatchTheOracle) {
  using Limits = std::numeric_limits<double>;
  for (const double v :
       {0.0, -0.0, 1.0, -1.0, 0.1, 1.0 / 3.0, 10.500000000000002, 65e6, 3e-12,
        Limits::denorm_min(), -Limits::denorm_min(), Limits::min(), -Limits::min(),
        std::nextafter(Limits::min(), 0.0), Limits::max(), Limits::lowest(),
        Limits::epsilon(), 999999999999999.0, -999999999999999.0,
        999999999999999.5, 1e15, -1e15, std::nextafter(1e15, 0.0), 9007199254740992.0,
        9223372036854775808.0, 18446744073709551616.0, 1e300, 1e-300, 0.5, -2.5,
        Limits::infinity(), -Limits::infinity(), Limits::quiet_NaN()}) {
    expectRoundTripMatches(v);
  }
}

TEST(JsonCodec, RandomBitPatternsMatchTheOracle) {
  std::mt19937_64 rng(20001);
  constexpr std::uint64_t kMantissa = (std::uint64_t{1} << 52) - 1;
  for (int i = 0; i < 40000; ++i) {
    const std::uint64_t bits = rng();
    expectRoundTripMatches(fromBits(bits));
    // The same sign and mantissa with a zero exponent: a subnormal.
    expectRoundTripMatches(fromBits(bits & (kMantissa | (std::uint64_t{1} << 63))));
  }
  // Integers and near-integers on both sides of the 1e15 switch.
  std::uniform_real_distribution<double> span(-2e15, 2e15);
  for (int i = 0; i < 10000; ++i) {
    const double v = std::round(span(rng));
    expectRoundTripMatches(v);
    expectRoundTripMatches(std::nextafter(v, 0.0));
  }
}

TEST(JsonCodec, DecimalGridMatchesTheOracle) {
  // Short decimal spellings, as a person or another program writes them,
  // from below the smallest subnormal to past the largest double.
  for (int exponent = -330; exponent <= 310; ++exponent) {
    for (const char* mantissa : {"1", "1.5", "2.5", "3", "7.25", "9.999999999999999",
                                 "4.9406564584124654"}) {
      const std::string text = std::string(mantissa) + "e" + std::to_string(exponent);
      expectParseMatches(text);
      expectParseMatches("-" + text);
      if (const std::optional<double> v = oracleParse(text)) expectRoundTripMatches(*v);
    }
  }
}

TEST(JsonCodec, TokensOutsideTheShortestFormKeepStrtodsVerdict) {
  // A leading plus, out-of-range exponents, bare points, a dangling
  // exponent or sign and leading zeros: strtod decides each one, and the
  // parser must agree with it on acceptance and on the value's bits.
  for (const char* token : {"+1", "1e999", "-1e999", "1e-999", "1.", ".5", "1e", "-",
                            "00012", "-0", "1e+5", "1E5", "1.5e-310", "1-2", "1e5e5",
                            "--1", "+-1", ".", "e5", "0.000", "1..2"}) {
    expectParseMatches(token);
  }
}

}  // namespace
}  // namespace lo::service
