#include "service/protocol.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <condition_variable>
#include <filesystem>
#include <iterator>
#include <limits>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "fuzz_edits.hpp"
#include "service/cache.hpp"
#include "service/json.hpp"
#include "service/serialize.hpp"
#include "service/verify_ops.hpp"
#include "testkit/generators.hpp"

namespace lo::service {
namespace {

// ---------------------------------------------------------------------------
// Json value type
// ---------------------------------------------------------------------------

TEST(Json, DumpIsCompactAndInsertionOrdered) {
  Json obj = Json::object();
  obj.set("b", 1);
  obj.set("a", true);
  Json arr = Json::array();
  arr.push("x");
  arr.push(Json());
  obj.set("list", std::move(arr));
  EXPECT_EQ(obj.dump(), "{\"b\":1,\"a\":true,\"list\":[\"x\",null]}");
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double v : {0.0, 1.0, -1.0, 65e6, 3e-12, 1.0 / 3.0, 0.1,
                         10.500000000000002, 1e300, -2.2250738585072014e-308}) {
    const Json parsed = Json::parse(Json(v).dump());
    EXPECT_EQ(parsed.asDouble(), v) << Json(v).dump();
  }
  // Integers print without an exponent or decimal point.
  EXPECT_EQ(Json(42.0).dump(), "42");
  EXPECT_EQ(Json(-7).dump(), "-7");
  // Non-finite values have no JSON spelling; they degrade to null.
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, ParseHandlesEscapesAndNesting) {
  const Json j = Json::parse(
      R"({"s":"a\"b\\c\nA","arr":[1,2.5,-3e2],"o":{"k":false}})");
  EXPECT_EQ(j.at("s").asString(), "a\"b\\c\nA");
  ASSERT_EQ(j.at("arr").items().size(), 3u);
  EXPECT_EQ(j.at("arr").items()[2].asDouble(), -300.0);
  EXPECT_FALSE(j.at("o").at("k").asBool(true));
  EXPECT_TRUE(j.at("missing").isNull());
  EXPECT_EQ(j.find("missing"), nullptr);
}

TEST(Json, ControlCharactersDumpAsLowerCaseUnicodeEscapes) {
  std::string controls;
  for (char c = 0; c < 0x20; ++c) controls += c;
  EXPECT_EQ(Json(controls).dump(),
            "\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
            "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
            "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
            "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\"");
  EXPECT_EQ(Json::parse(Json(controls).dump()).asString(), controls);
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse("{ not json"), JsonParseError);
  EXPECT_THROW((void)Json::parse(""), JsonParseError);
  EXPECT_THROW((void)Json::parse("{} trailing"), JsonParseError);
  EXPECT_THROW((void)Json::parse("[1,2,"), JsonParseError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonParseError);
}

TEST(Json, ParseRefusesNestingDeeperThanItsCap) {
  // 64 levels parse; one more is refused before it can recurse further,
  // so a 200,000-level request line fails cleanly instead of overflowing
  // the stack.
  const auto nested = [](int levels, char open, char close) {
    return std::string(static_cast<std::size_t>(levels), open) +
           std::string(static_cast<std::size_t>(levels), close);
  };
  EXPECT_NO_THROW((void)Json::parse(nested(64, '[', ']')));
  EXPECT_THROW((void)Json::parse(nested(65, '[', ']')), JsonParseError);
  std::string objects = "1";
  for (int i = 0; i < 65; ++i) objects = R"({"k":)" + objects + "}";
  EXPECT_THROW((void)Json::parse(objects), JsonParseError);
  const std::string line = R"({"op":"stats","x":)" + std::string(200000, '[');
  try {
    (void)Json::parse(line);
    ADD_FAILURE() << "a 200,000-level line parsed";
  } catch (const JsonParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 64 levels"), std::string::npos)
        << e.what();
  }
  // Depth is nesting, not count: siblings do not add up.
  std::string wide = "[";
  for (int i = 0; i < 200; ++i) wide += (i ? "," : "") + nested(32, '[', ']');
  EXPECT_EQ(Json::parse(wide + "]").items().size(), 200u);
}

TEST(Json, IntegerAccessorsRefuseNumbersOutsideTheirType) {
  // In range: truncated toward zero, as before.
  EXPECT_EQ(Json(2147483647.0).asInt(), 2147483647);
  EXPECT_EQ(Json(-2147483648.9).asInt(), -2147483647 - 1);
  EXPECT_EQ(Json(2.9).asInt(), 2);
  EXPECT_EQ(Json(-2.9).asInt(), -2);
  EXPECT_EQ(Json(18446744073709549568.0).asUint64(), 18446744073709549568ull);
  EXPECT_EQ(Json(-0.5).asUint64(), 0u);
  EXPECT_EQ(Json::parse("17").asUint64(), 17u);
  // Absent and wrong-typed values still take the fallback.
  EXPECT_EQ(Json().asInt(-1), -1);
  EXPECT_EQ(Json("7").asUint64(9), 9u);
  // Out of range, infinite or NaN: refused instead of cast.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {2147483648.0, -2147483649.0, 1e30, -1e30, inf, nan}) {
    EXPECT_THROW((void)Json(v).asInt(), JsonParseError) << v;
  }
  for (const double v : {-1.0, 18446744073709551616.0, 1e30, -inf, nan}) {
    EXPECT_THROW((void)Json(v).asUint64(), JsonParseError) << v;
  }
  // A number that overflows a double parses to infinity, which no integer holds.
  EXPECT_THROW((void)Json::parse(R"({"id":1e999})").at("id").asUint64(), JsonParseError);
}

TEST(Json, SetOverwritesInPlaceKeepingPosition) {
  Json obj = Json::object();
  obj.set("a", 1);
  obj.set("b", 2);
  obj.set("a", 3);  // Overwrite must not move "a" behind "b".
  EXPECT_EQ(obj.dump(), "{\"a\":3,\"b\":2}");
}

// ---------------------------------------------------------------------------
// Seeded fuzzing of Json::parse over mutated request lines
// ---------------------------------------------------------------------------

/// Request lines of the shapes both binaries parse -- synthesize, sweep,
/// multi-id wait, explore -- with specs drawn from testkit::SpecGen.
std::vector<std::string> requestCorpus() {
  testkit::SpecGen gen(19);
  std::vector<std::string> lines;
  for (const char* topology : {"folded_cascode_ota", "two_stage"}) {
    Json synthesize = Json::object();
    synthesize.set("op", "synthesize");
    synthesize.set("topology", topology);
    synthesize.set("case", "case2");
    synthesize.set("label", "fuzz");
    synthesize.set("spec", toJson(gen.specs(topology)));
    lines.push_back(synthesize.dump());

    Json jobs = Json::array();
    for (int i = 0; i < 3; ++i) {
      Json job = Json::object();
      job.set("topology", topology);
      job.set("case", i + 1);
      job.set("spec", toJson(gen.specs(topology)));
      jobs.push(std::move(job));
    }
    Json sweep = Json::object();
    sweep.set("op", "sweep");
    sweep.set("summary", true);
    sweep.set("jobs", std::move(jobs));
    lines.push_back(sweep.dump());
  }
  lines.push_back(R"({"op":"wait","ids":[1,2,3,17],"summary":true,"trace":true})");
  Json explore = Json::parse(
      R"({"op":"explore","async":true,"case":1,"budget":5,"max_rounds":2,)"
      R"("tolerance":0.2,"axes":[{"field":"gbw","lo":50e6,"hi":65e6,"points":2}]})");
  explore.set("spec", toJson(gen.specs("two_stage")));
  lines.push_back(explore.dump());
  return lines;
}

/// One seeded edit: flip, drop or repeat bytes, truncate, or splice in an
/// out-of-range number, a non-ASCII string, a stray bracket or 70 levels
/// of brackets (over the parser's 64-level cap) -- at a random offset or
/// in place of a number.
std::string mutateRequest(std::string text, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  static const std::string kSplices[] = {
      "1e999", "-1e-400", "\"\u00e9\"", "\"\xC3\xA9\"", "[", "]", "{", "}", "{\"a\":[",
      std::string(70, '[') + std::string(70, ']')};
  const std::string& splice = kSplices[pick(std::size(kSplices))];
  if (text.empty()) return splice;
  if (pick(3) != 0) return damageBytes(std::move(text), rng);
  const std::size_t at = pick(text.size());
  if (pick(2) == 0) {
    text.insert(at, splice);
    return text;
  }
  const std::size_t digit = text.find_first_of("0123456789", at);
  if (digit == std::string::npos) return text;
  const std::size_t end = text.find_first_not_of("0123456789.eE+-", digit);
  text.replace(digit, end == std::string::npos ? std::string::npos : end - digit, splice);
  return text;
}

TEST(JsonFuzz, MutatedRequestLinesFailCleanlyOrRoundTrip) {
  const std::vector<std::string> corpus = requestCorpus();
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    int parsed = 0, rejected = 0;
    for (int iter = 0; iter < 2000; ++iter) {
      std::string text = corpus[static_cast<std::size_t>(iter) % corpus.size()];
      for (std::uint64_t edits = 1 + rng() % 3; edits > 0; --edits) {
        text = mutateRequest(text, rng);
      }
      Json doc;
      try {
        doc = Json::parse(text);
      } catch (const JsonParseError&) {
        ++rejected;
        continue;
      }
      ++parsed;
      const std::string dumped = doc.dump();
      std::string again;
      try {
        again = Json::parse(dumped).dump();
      } catch (const JsonParseError& e) {
        FAIL() << e.what() << "\ninput: " << text << "\ndumped: " << dumped;
      }
      ASSERT_EQ(again, dumped) << "input: " << text;
    }
    // Both outcomes occur, so neither check above is vacuous.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
  }
}

TEST(JsonFuzz, MutationsAreDeterministicPerSeed) {
  const std::string base = requestCorpus().front();
  const auto mutations = [&base](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> out;
    for (int i = 0; i < 50; ++i) out.push_back(mutateRequest(base, rng));
    return out;
  };
  EXPECT_EQ(mutations(7), mutations(7));
  EXPECT_NE(mutations(7), mutations(8));
}

// ---------------------------------------------------------------------------
// Seeded fuzzing of parseJobRequest over mutated synthesize and sweep entries
// ---------------------------------------------------------------------------

/// Synthesize requests and sweep entries with every field the decoder
/// reads set, specs drawn from testkit::SpecGen.
std::vector<Json> jobEntryCorpus() {
  testkit::SpecGen gen(31);
  std::vector<Json> entries;
  for (const char* topology : {"folded_cascode_ota", "two_stage"}) {
    Json synthesize = Json::parse(
        R"({"op":"synthesize","label":"fuzz","case":"case4","model":"ekv","bias":true,)"
        R"("corner":"ff","priority":3,"deadline_seconds":2.5,"max_retries":2,)"
        R"("no_cache":false,)"
        R"("post_layout_verify":{"enabled":true,"rel_tolerance":0.1,"thd_cycles":4,)"
        R"("thd_samples_per_cycle":64,"harmonics":5,"sweep_points":15}})");
    synthesize.set("topology", topology);
    synthesize.set("spec", toJson(gen.specs(topology)));
    entries.push_back(synthesize);
    Json entry = Json::parse(R"({"case":2,"corner":"ss","post_layout_verify":true})");
    entry.set("topology", topology);
    entry.set("spec", toJson(gen.specs(topology)));
    entries.push_back(entry);
  }
  return entries;
}

/// `entry` with one member or item replaced by an extreme or odd number, a
/// value of another type, or dropped.
Json mutateEntry(const Json& entry, std::mt19937_64& rng) {
  long target = static_cast<long>(rng() % 40);
  return editNth(entry, target, [&rng](const Json&) -> std::optional<Json> {
    static const double kNumbers[] = {-1.0, 0.0,    -0.0,   2.5,
                                      1e30, -1e30, 1e-310, 4294967296.0};
    switch (rng() % 4) {
      case 0: return Json(kNumbers[rng() % std::size(kNumbers)]);
      case 1: return Json("éx");
      case 2: return rng() % 2 ? Json::array() : Json::object();
      default: return std::nullopt;
    }
  });
}

TEST(JobRequestFuzz, MutatedEntriesThrowOrRoundTrip) {
  const std::vector<Json> corpus = jobEntryCorpus();
  const std::string techPrint =
      ResultCache::techFingerprint(tech::Technology::generic060());
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    std::mt19937_64 rng(seed);
    int parsed = 0, rejected = 0;
    for (int iter = 0; iter < 600; ++iter) {
      Json entry = corpus[static_cast<std::size_t>(iter) % corpus.size()];
      for (std::uint64_t edits = 1 + rng() % 2; edits > 0; --edits) {
        entry = mutateEntry(entry, rng);
      }
      JobRequest request;
      try {
        request = parseJobRequest(entry);
      } catch (const std::exception&) {
        ++rejected;
        continue;
      }
      ++parsed;
      const std::string input = entry.dump();
      // The same domain parseJobRequest enforces: every spec value finite,
      // and gbw, cload and vdd positive.
      const Json specs = toJson(request.specs);
      for (const auto& [field, value] : specs.members()) {
        ASSERT_TRUE(std::isfinite(value.asDouble())) << field << " in " << input;
      }
      ASSERT_GT(request.specs.gbw, 0.0) << input;
      ASSERT_GT(request.specs.cload, 0.0) << input;
      ASSERT_GT(request.specs.vdd, 0.0) << input;
      // And every post-layout verification option the measurements can
      // run: at most 65,536 THD steps over a power-of-two capture, and
      // 3 to 1001 sweep points.
      const verify::VerificationOptions& pv = request.options.postLayoutVerify;
      ASSERT_GT(pv.thdCycles, 0) << input;
      ASSERT_GE(pv.thdSettleCycles, 0) << input;
      ASSERT_GT(pv.thdSamplesPerCycle, 0) << input;
      const long long capture = static_cast<long long>(pv.thdCycles) * pv.thdSamplesPerCycle;
      ASSERT_EQ(capture & (capture - 1), 0) << input;
      ASSERT_LE((static_cast<long long>(pv.thdSettleCycles) + pv.thdCycles) *
                    pv.thdSamplesPerCycle,
                65536)
          << input;
      ASSERT_GT(pv.thdFundamentalHz, 0.0) << input;
      ASSERT_TRUE(std::isfinite(pv.thdFundamentalHz)) << input;
      ASSERT_GE(pv.sweepPoints, 3) << input;
      ASSERT_LE(pv.sweepPoints, 1001) << input;
      std::string key;
      ASSERT_NO_THROW(key = ResultCache::keyFor(request.options, request.specs,
                                                request.corner, techPrint))
          << input;
      const std::string written = toJson(request).dump();
      JobRequest restored;
      ASSERT_NO_THROW(restored = jobRequestFromJson(Json::parse(written))) << input;
      ASSERT_EQ(toJson(restored).dump(), written) << input;
      ASSERT_EQ(ResultCache::keyFor(restored.options, restored.specs, restored.corner,
                                    techPrint),
                key)
          << input;
    }
    // Both outcomes occur, so neither check above is vacuous.
    EXPECT_GT(parsed, 0);
    EXPECT_GT(rejected, 0);
  }
}

TEST(JobRequestFuzz, MutationsAreDeterministicPerSeed) {
  const Json base = jobEntryCorpus().front();
  const auto mutations = [&base](std::uint64_t seed) {
    std::mt19937_64 rng(seed);
    std::vector<std::string> out;
    for (int i = 0; i < 50; ++i) out.push_back(mutateEntry(base, rng).dump());
    return out;
  };
  EXPECT_EQ(mutations(7), mutations(7));
  EXPECT_NE(mutations(7), mutations(8));
}

// ---------------------------------------------------------------------------
// Serialisation of the engine value types
// ---------------------------------------------------------------------------

TEST(Serialize, PerformanceRoundTripIsExact) {
  sizing::OtaPerformance perf{};
  perf.dcGainDb = 71.3000000000000007;
  perf.gbwHz = 64.93e6;
  perf.phaseMarginDeg = 61.0 / 7.0 * 7.0;
  perf.settlingTimeNs = 10.500000000000002;
  const sizing::OtaPerformance back =
      performanceFromJson(Json::parse(toJson(perf).dump()));
  EXPECT_EQ(back.dcGainDb, perf.dcGainDb);
  EXPECT_EQ(back.gbwHz, perf.gbwHz);
  EXPECT_EQ(back.phaseMarginDeg, perf.phaseMarginDeg);
  EXPECT_EQ(back.settlingTimeNs, perf.settlingTimeNs);
}

TEST(Serialize, SpecsApplyPartialOverridesAndRejectTypos) {
  sizing::OtaSpecs specs;
  const double defaultVdd = specs.vdd;
  specsFromJson(Json::parse(R"({"gbw":40e6,"cload":5e-12})"), specs);
  EXPECT_EQ(specs.gbw, 40e6);
  EXPECT_EQ(specs.cload, 5e-12);
  EXPECT_EQ(specs.vdd, defaultVdd);  // Untouched fields keep defaults.
  EXPECT_THROW(specsFromJson(Json::parse(R"({"gwb":40e6})"), specs),
               std::invalid_argument);
}

TEST(Serialize, SizingCaseAcceptsNamesAndNumbers) {
  EXPECT_EQ(sizingCaseFromJson(Json("case1")), core::SizingCase::kCase1);
  EXPECT_EQ(sizingCaseFromJson(Json("case4")), core::SizingCase::kCase4);
  EXPECT_EQ(sizingCaseFromJson(Json(2)), core::SizingCase::kCase2);
  EXPECT_THROW((void)sizingCaseFromJson(Json("case9")), std::invalid_argument);
  EXPECT_THROW((void)sizingCaseFromJson(Json(0)), std::invalid_argument);
}

TEST(Serialize, CornerNamesMapToEnum) {
  EXPECT_EQ(cornerFromName("tt"), tech::ProcessCorner::kTypical);
  EXPECT_EQ(cornerFromName("ss"), tech::ProcessCorner::kSlow);
  EXPECT_EQ(cornerFromName("ff"), tech::ProcessCorner::kFast);
  EXPECT_THROW((void)cornerFromName("xx"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Line protocol
// ---------------------------------------------------------------------------

class ProtocolTest : public ::testing::Test {
 protected:
  ProtocolTest()
      : scheduler_(tech::Technology::generic060(), singleThread()),
        protocol_(scheduler_) {}

  static SchedulerOptions singleThread() {
    SchedulerOptions options;
    options.threads = 1;
    return options;
  }

  Json respond(const std::string& line) {
    return Json::parse(protocol_.handleLine(line));
  }

  JobScheduler scheduler_;
  ServiceProtocol protocol_;
};

TEST_F(ProtocolTest, MalformedAndUnknownRequestsFailGracefully) {
  EXPECT_FALSE(respond("{ nope").at("ok").asBool(true));
  EXPECT_FALSE(respond("[1,2,3]").at("ok").asBool(true));
  // Unknown ops answer with the structured error object, like admission
  // rejections: code, message naming the op, and the op inventory.
  const Json unknown = respond(R"({"op":"frobnicate"})");
  EXPECT_FALSE(unknown.at("ok").asBool(true));
  const Json& error = unknown.at("error");
  ASSERT_TRUE(error.isObject()) << unknown.dump();
  EXPECT_EQ(error.at("code").asString(), "unknown_op");
  EXPECT_NE(error.at("message").asString().find("frobnicate"), std::string::npos);
  ASSERT_TRUE(error.at("known_ops").isArray());
  bool sawSynthesize = false;
  bool sawShutdown = false;
  for (const Json& name : error.at("known_ops").items()) {
    sawSynthesize = sawSynthesize || name.asString() == "synthesize";
    sawShutdown = sawShutdown || name.asString() == "shutdown";
  }
  EXPECT_TRUE(sawSynthesize);
  EXPECT_TRUE(sawShutdown);
}

TEST_F(ProtocolTest, SynthesizeRunsEndToEndAndDuplicateHitsCache) {
  const std::string request =
      R"({"op":"synthesize","case":"case1","label":"p1","trace":true})";
  const Json first = respond(request);
  ASSERT_TRUE(first.at("ok").asBool()) << first.dump();
  EXPECT_EQ(first.at("state").asString(), "done");
  EXPECT_FALSE(first.at("cache_hit").asBool(true));
  EXPECT_GT(first.at("result").at("measured").at("gbw_hz").asDouble(), 0.0);
  EXPECT_FALSE(first.at("trace").at("stages").items().empty());

  const Json second = respond(request);
  ASSERT_TRUE(second.at("ok").asBool());
  EXPECT_TRUE(second.at("cache_hit").asBool());
  // The duplicate's payload is byte-identical to the cold run's.
  EXPECT_EQ(second.at("result").dump(), first.at("result").dump());
}

TEST_F(ProtocolTest, AsyncSynthesizeThenWait) {
  const Json queued =
      respond(R"({"op":"synthesize","case":"case1","async":true})");
  ASSERT_TRUE(queued.at("ok").asBool()) << queued.dump();
  const std::uint64_t id = queued.at("id").asUint64();
  ASSERT_GT(id, 0u);
  const Json done = respond(R"({"op":"wait","id":)" + std::to_string(id) + "}");
  ASSERT_TRUE(done.at("ok").asBool()) << done.dump();
  EXPECT_EQ(done.at("state").asString(), "done");
}

TEST_F(ProtocolTest, FailedJobReportsErrorWithOkTrue) {
  // Transport succeeded, the job itself failed: ok stays true and the
  // outcome carries state + error.
  const Json out =
      respond(R"({"op":"synthesize","topology":"no_such_topology"})");
  ASSERT_TRUE(out.at("ok").asBool()) << out.dump();
  EXPECT_EQ(out.at("state").asString(), "failed");
  EXPECT_NE(out.at("error").asString().find("no_such_topology"),
            std::string::npos);
}

TEST_F(ProtocolTest, OutOfDomainSpecsAreRefusedNamingTheField) {
  // Refused at the boundary with ok:false, so nothing is queued, journaled
  // or cached.  1e999 parses as infinity.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"gbw":-5e6})", "gbw"},        {R"({"gbw":0})", "gbw"},
      {R"({"cload":0})", "cload"},       {R"({"vdd":-3.3})", "vdd"},
      {R"({"gbw":1e999})", "gbw"},       {R"({"cload":-1e999})", "cload"},
      {R"({"output_high":1e999})", "output_high"}};
  for (const auto& [spec, field] : cases) {
    SCOPED_TRACE(spec);
    const Json out = respond(std::string(R"({"op":"synthesize","case":1,"spec":)") + spec +
                             "}");
    EXPECT_FALSE(out.at("ok").asBool(true)) << out.dump();
    EXPECT_NE(out.at("error").asString().find('"' + std::string(field) + '"'),
              std::string::npos)
        << out.dump();
  }
  const Json sweep = respond(
      R"({"op":"sweep","jobs":[{"case":1},{"case":1,"spec":{"cload":0}}]})");
  EXPECT_FALSE(sweep.at("ok").asBool(true)) << sweep.dump();
  const Json stats = respond(R"({"op":"stats"})");
  EXPECT_EQ(stats.at("stats").at("jobs").at("submitted").asUint64(), 0u) << stats.dump();
}

TEST_F(ProtocolTest, OutOfDomainVerificationOptionsAreRefusedNamingTheField) {
  // Options the verification tier cannot run answer ok:false at the
  // boundary instead of a job that fails later, so nothing is queued,
  // journaled or cached.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"thd_cycles":0})", "thd_cycles"},
      {R"({"thd_settle_cycles":-1})", "thd_settle_cycles"},
      {R"({"thd_samples_per_cycle":60})", "thd_samples_per_cycle"},
      {R"({"sweep_points":2})", "sweep_points"},
      {R"({"sweep_points":1002})", "sweep_points"}};
  for (const auto& [options, field] : cases) {
    SCOPED_TRACE(options);
    const Json out = respond(
        std::string(R"({"op":"synthesize","case":1,"post_layout_verify":)") + options + "}");
    EXPECT_FALSE(out.at("ok").asBool(true)) << out.dump();
    EXPECT_NE(out.at("error").asString().find('"' + std::string(field) + '"'),
              std::string::npos)
        << out.dump();
  }
  const Json stats = respond(R"({"op":"stats"})");
  EXPECT_EQ(stats.at("stats").at("jobs").at("submitted").asUint64(), 0u) << stats.dump();
}

TEST(ParseJobRequest, BoundsTheVerificationWorkOneRequestAsks) {
  // Parsed only, never run: each of these asks one worker for hours of
  // transient or sweep work and gigabytes of samples, and a settle count
  // of 2^31 - 1 would overflow the int step arithmetic of the THD
  // measurement.  One case per field, each naming its field.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"thd_settle_cycles":2147483647})", "thd_settle_cycles"},
      {R"({"thd_cycles":1048576})", "thd_cycles"},
      {R"({"thd_samples_per_cycle":16777216,"thd_cycles":1})", "thd_samples_per_cycle"},
      {R"({"sweep_points":2147483647})", "sweep_points"}};
  const auto parse = [](const std::string& options) {
    return parseJobRequest(Json::parse(R"({"case":1,"post_layout_verify":)" + options + "}"));
  };
  for (const auto& [options, field] : cases) {
    SCOPED_TRACE(options);
    try {
      (void)parse(options);
      ADD_FAILURE() << "accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find('"' + std::string(field) + '"'), std::string::npos)
          << e.what();
    }
  }
  // The bounds themselves: (1020 + 4) * 64 = 65536 THD steps, 1001 points.
  EXPECT_EQ(parse(R"({"thd_settle_cycles":1020})").options.postLayoutVerify.thdSettleCycles,
            1020);
  EXPECT_EQ(parse(R"({"sweep_points":1001})").options.postLayoutVerify.sweepPoints, 1001);
  EXPECT_THROW((void)parse(R"({"thd_settle_cycles":1021})"), std::invalid_argument);
}

TEST_F(ProtocolTest, SpecThatDrivesSizingNonFiniteFailsUncached) {
  // In-domain GBW targets that the models cannot size: the job fails
  // instead of answering done with non-finite figures, and a resubmission
  // runs again rather than hitting a cached result.
  const std::pair<const char*, const char*> cases[] = {
      {"folded_cascode_ota", "1e30"}, {"two_stage", "1e-300"}};
  for (const auto& [topology, gbw] : cases) {
    SCOPED_TRACE(topology);
    const std::string request = std::string(R"({"op":"synthesize","case":1,"topology":")") +
                                topology + R"(","spec":{"gbw":)" + gbw + "}}";
    for (int attempt = 0; attempt < 2; ++attempt) {
      const Json out = respond(request);
      ASSERT_TRUE(out.at("ok").asBool()) << out.dump();
      EXPECT_EQ(out.at("state").asString(), "failed") << out.dump();
      EXPECT_NE(out.at("error").asString().find(" is not finite"), std::string::npos)
          << out.dump();
      EXPECT_FALSE(out.at("cache_hit").asBool(true)) << out.dump();
    }
  }
}

TEST_F(ProtocolTest, SweepReturnsOutcomesInOrder) {
  const Json out = respond(
      R"({"op":"sweep","jobs":[)"
      R"({"label":"a","case":"case1"},)"
      R"({"label":"b","case":"case1","spec":{"gbw":40e6}}]})");
  ASSERT_TRUE(out.at("ok").asBool()) << out.dump();
  const auto& outcomes = out.at("outcomes").items();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].at("label").asString(), "a");
  EXPECT_EQ(outcomes[1].at("label").asString(), "b");
  EXPECT_EQ(outcomes[0].at("state").asString(), "done");
  EXPECT_EQ(outcomes[1].at("state").asString(), "done");
  EXPECT_NE(outcomes[0].at("result").dump(), outcomes[1].at("result").dump());
}

TEST_F(ProtocolTest, StatsReflectSchedulerActivity) {
  (void)respond(R"({"op":"synthesize","case":"case1"})");
  (void)respond(R"({"op":"synthesize","case":"case1"})");
  const Json out = respond(R"({"op":"stats"})");
  ASSERT_TRUE(out.at("ok").asBool());
  const Json& stats = out.at("stats");
  EXPECT_EQ(stats.at("jobs").at("submitted").asUint64(), 2u);
  EXPECT_EQ(stats.at("jobs").at("completed").asUint64(), 2u);
  EXPECT_EQ(stats.at("cache").at("hits").asUint64(), 1u);
  EXPECT_EQ(stats.at("cache").at("misses").asUint64(), 1u);
  EXPECT_EQ(stats.at("workers").asInt(), 1);
  EXPECT_GT(stats.at("stages").at("sizing").at("calls").asUint64(), 0u);
}

TEST_F(ProtocolTest, CancelUnknownIdReturnsFalse) {
  const Json out = respond(R"({"op":"cancel","id":424242})");
  ASSERT_TRUE(out.at("ok").asBool());
  EXPECT_FALSE(out.at("cancelled").asBool(true));
}

TEST_F(ProtocolTest, TopologiesListsRegistry) {
  const Json out = respond(R"({"op":"topologies"})");
  ASSERT_TRUE(out.at("ok").asBool());
  bool sawOta = false, sawTwoStage = false;
  for (const Json& name : out.at("topologies").items()) {
    if (name.asString() == core::kFoldedCascodeOtaTopologyName) sawOta = true;
    if (name.asString() == core::kTwoStageTopologyName) sawTwoStage = true;
  }
  EXPECT_TRUE(sawOta);
  EXPECT_TRUE(sawTwoStage);
}

TEST_F(ProtocolTest, ServeStopsAtShutdownAndAnswersEveryLine) {
  std::istringstream in(
      "{\"op\":\"topologies\"}\n"
      "\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"stats\"}\n");  // After shutdown: must never be answered.
  std::ostringstream out;
  protocol_.serve(in, out);
  EXPECT_TRUE(protocol_.shutdownRequested());

  std::istringstream lines(out.str());
  std::string line;
  std::vector<Json> responses;
  while (std::getline(lines, line)) responses.push_back(Json::parse(line));
  ASSERT_EQ(responses.size(), 2u);  // Blank line skipped, post-shutdown unread.
  EXPECT_TRUE(responses[0].at("ok").asBool());
  EXPECT_TRUE(responses[1].at("shutting_down").asBool());
}

// ---------------------------------------------------------------------------
// Hardening: hostile input must produce structured errors, never kill the
// serving loop.
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, GarbageAndTruncatedLinesAnswerStructuredErrors) {
  const char* kGarbage[] = {
      "\x01\x02\xff binary noise",
      "{\"op\":\"synthesize\"",          // Truncated mid-object.
      "{\"op\":\"synthesize\",\"spec\"", // Truncated mid-key.
      "}{",
      "null",
      "42",
      "\"just a string\"",
      "{\"op\":12}",                     // Wrong op type.
      "{}",                              // No op at all.
  };
  for (const char* line : kGarbage) {
    const Json out = respond(line);
    EXPECT_FALSE(out.at("ok").asBool(true)) << line;
    // Parse/type failures answer a string reason; an absent/garbage "op"
    // reaches the structured unknown_op object.  Either way the error is
    // populated.
    const Json& error = out.at("error");
    if (error.isObject()) {
      EXPECT_FALSE(error.at("message").asString().empty()) << line;
    } else {
      EXPECT_FALSE(error.asString().empty()) << line;
    }
  }
  // The protocol object is still fully functional afterwards.
  EXPECT_TRUE(respond(R"({"op":"topologies"})").at("ok").asBool());
}

TEST_F(ProtocolTest, OversizedLineIsRejectedBeforeParsing) {
  std::string line = R"({"op":"synthesize","label":")";
  line.append(kMaxRequestLineBytes, 'x');
  line += R"("})";
  const Json out = respond(line);
  EXPECT_FALSE(out.at("ok").asBool(true));
  EXPECT_NE(out.at("error").asString().find("too long"), std::string::npos);
  EXPECT_TRUE(respond(R"({"op":"topologies"})").at("ok").asBool());
}

TEST_F(ProtocolTest, ServeSurvivesHostileScript) {
  std::istringstream in(
      "{ nope\n"
      "]]]\n"
      "{\"op\":\"definitely_not_an_op\"}\n"
      "{\"op\":\"topologies\"}\n");
  std::ostringstream out;
  protocol_.serve(in, out);
  std::istringstream lines(out.str());
  std::string line;
  std::vector<Json> responses;
  while (std::getline(lines, line)) responses.push_back(Json::parse(line));
  ASSERT_EQ(responses.size(), 4u);
  EXPECT_FALSE(responses[0].at("ok").asBool(true));
  EXPECT_FALSE(responses[1].at("ok").asBool(true));
  EXPECT_FALSE(responses[2].at("ok").asBool(true));
  EXPECT_TRUE(responses[3].at("ok").asBool());
}

// ---------------------------------------------------------------------------
// Structured errors and the health op
// ---------------------------------------------------------------------------

TEST(ProtocolStructuredErrors, OverloadAnswersCodeDepthAndRetryHint) {
  std::mutex m;
  std::condition_variable cv;
  bool entered = false, open = false;
  SchedulerOptions options;
  options.threads = 1;
  options.maxQueueDepth = 1;
  options.preRunHook = [&](const JobRequest&, int) {
    std::unique_lock<std::mutex> lock(m);
    entered = true;
    cv.notify_all();
    cv.wait(lock, [&] { return open; });
  };
  JobScheduler scheduler(tech::Technology::generic060(), options);
  ServiceProtocol protocol(scheduler);
  const auto respond = [&](const std::string& line) {
    return Json::parse(protocol.handleLine(line));
  };

  // One job held inside the worker, one filling the single queue slot
  // (distinct specs, so they neither coalesce nor hit the cache).
  ASSERT_TRUE(respond(R"({"op":"synthesize","async":true,"case":"case1",)"
                      R"("spec":{"gbw":41e6}})")
                  .at("ok")
                  .asBool());
  {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return entered; });
  }
  ASSERT_TRUE(respond(R"({"op":"synthesize","async":true,"case":"case1",)"
                      R"("spec":{"gbw":42e6}})")
                  .at("ok")
                  .asBool());

  // The third submission is turned away with a machine-readable error
  // object instead of a bare string.
  const Json rejected = respond(
      R"({"op":"synthesize","async":true,"case":"case1","spec":{"gbw":43e6}})");
  EXPECT_FALSE(rejected.at("ok").asBool(true));
  const Json& error = rejected.at("error");
  EXPECT_EQ(error.at("code").asString(), "overloaded");
  EXPECT_EQ(error.at("queue_depth").asUint64(), 1u);
  EXPECT_GE(error.at("retry_after_ms").asInt(), 100);
  EXPECT_FALSE(error.at("message").asString().empty());

  {
    const std::lock_guard<std::mutex> lock(m);
    open = true;
  }
  cv.notify_all();
}

TEST(ProtocolStructuredErrors, CircuitOpenAnswersCode) {
  SchedulerOptions options;
  options.threads = 1;
  options.breakerFailureThreshold = 1;
  JobScheduler scheduler(tech::Technology::generic060(), options);
  ServiceProtocol protocol(scheduler);
  const auto respond = [&](const std::string& line) {
    return Json::parse(protocol.handleLine(line));
  };

  // One non-transient failure opens the breaker for that topology...
  const Json failed = respond(R"({"op":"synthesize","topology":"no_such_topology"})");
  ASSERT_TRUE(failed.at("ok").asBool()) << failed.dump();
  EXPECT_EQ(failed.at("state").asString(), "failed");

  // ...and the next submission answers circuit_open with a retry hint.
  const Json rejected =
      respond(R"({"op":"synthesize","topology":"no_such_topology"})");
  EXPECT_FALSE(rejected.at("ok").asBool(true));
  EXPECT_EQ(rejected.at("error").at("code").asString(), "circuit_open");
  EXPECT_GT(rejected.at("error").at("retry_after_ms").asInt(), 0);
  EXPECT_NE(rejected.at("error").at("message").asString().find("no_such_topology"),
            std::string::npos);
}

TEST(ProtocolHealth, HealthOpCoversQueueBreakersAndJournal) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "lo_protocol_health_journal";
  std::filesystem::remove_all(dir);
  // Outlives the scheduler below, so the journal is closed when it goes.
  const struct RemoveAtEnd {
    std::filesystem::path dir;
    ~RemoveAtEnd() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } removeAtEnd{dir};
  SchedulerOptions options;
  options.threads = 1;
  options.maxQueueDepth = 8;
  options.shedWatermark = 0.5;
  options.breakerFailureThreshold = 3;
  options.journal.dir = dir.string();
  JobScheduler scheduler(tech::Technology::generic060(), options);
  ServiceProtocol protocol(scheduler);
  const auto respond = [&](const std::string& line) {
    return Json::parse(protocol.handleLine(line));
  };

  ASSERT_TRUE(respond(R"({"op":"synthesize","case":"case1"})").at("ok").asBool());
  ASSERT_TRUE(respond(R"({"op":"synthesize","topology":"no_such_topology"})")
                  .at("ok")
                  .asBool());

  const Json out = respond(R"({"op":"health"})");
  ASSERT_TRUE(out.at("ok").asBool()) << out.dump();
  const Json& health = out.at("health");
  EXPECT_EQ(health.at("queue").at("depth").asUint64(), 0u);
  EXPECT_EQ(health.at("queue").at("limit").asUint64(), 8u);
  EXPECT_EQ(health.at("queue").at("shed_depth").asUint64(), 4u);
  EXPECT_EQ(health.at("queue").at("workers").asInt(), 1);
  EXPECT_FALSE(health.at("queue").at("overloaded").asBool(true));

  const Json* breaker = health.at("breakers").find("no_such_topology");
  ASSERT_NE(breaker, nullptr) << out.dump();
  EXPECT_EQ(breaker->at("state").asString(), "closed");
  EXPECT_EQ(breaker->at("consecutive_failures").asInt(), 1);

  const Json& journal = health.at("journal");
  EXPECT_TRUE(journal.at("enabled").asBool());
  EXPECT_GE(journal.at("records_in_log").asUint64(), 2u);
  EXPECT_EQ(journal.at("live_jobs").asUint64(), 0u);
  EXPECT_EQ(journal.at("replayed_records").asUint64(), 0u);
  EXPECT_FALSE(journal.at("torn_tail_recovered").asBool(true));
}

TEST_F(ProtocolTest, AcksCarryCacheKeyAndSummaryOmitsResultBody) {
  const std::string request =
      R"({"op":"synthesize","case":"case1","label":"keyed"})";
  const Json first = respond(request);
  ASSERT_TRUE(first.at("ok").asBool()) << first.dump();
  const std::string key = first.at("cache_key").asString();
  ASSERT_EQ(key.size(), 16u);  // Fixed-width hex of the FNV-1a hash.
  EXPECT_EQ(key, scheduler_.cacheKeyFor(parseJobRequest(Json::parse(request))));

  // The async ack carries the key before the job has run: that is what
  // lets a router shard by key without waiting for the outcome.
  const Json ack = respond(R"({"op":"synthesize","case":"case1","async":true})");
  ASSERT_TRUE(ack.at("ok").asBool());
  EXPECT_EQ(ack.at("cache_key").asString(), key);

  const Json waited = respond("{\"op\":\"wait\",\"id\":" +
                              std::to_string(ack.at("id").asUint64()) +
                              ",\"summary\":true}");
  ASSERT_TRUE(waited.at("ok").asBool());
  EXPECT_EQ(waited.at("state").asString(), "done");
  EXPECT_TRUE(waited.at("cache_hit").asBool());
  EXPECT_EQ(waited.at("cache_key").asString(), key);
  EXPECT_EQ(waited.find("result"), nullptr);  // summary drops the body.

  // no_cache jobs have no key to report.
  const Json bypass = respond(
      R"({"op":"synthesize","case":"case1","no_cache":true,"summary":true})");
  ASSERT_TRUE(bypass.at("ok").asBool());
  EXPECT_EQ(bypass.find("cache_key"), nullptr);
  EXPECT_EQ(bypass.find("result"), nullptr);
}

TEST_F(ProtocolTest, SweepSummaryOutcomesCarryDistinctCacheKeys) {
  const Json out = respond(
      R"({"op":"sweep","summary":true,"jobs":[)"
      R"({"case":"case1"},{"case":"case1","spec":{"gbw":45e6}}]})");
  ASSERT_TRUE(out.at("ok").asBool()) << out.dump();
  const auto& outcomes = out.at("outcomes").items();
  ASSERT_EQ(outcomes.size(), 2u);
  for (const Json& outcome : outcomes) {
    ASSERT_TRUE(outcome.at("ok").asBool());
    EXPECT_EQ(outcome.at("cache_key").asString().size(), 16u);
    EXPECT_EQ(outcome.find("result"), nullptr);
  }
  EXPECT_NE(outcomes[0].at("cache_key").asString(),
            outcomes[1].at("cache_key").asString());
}

// ---------------------------------------------------------------------------
// Extension seam
// ---------------------------------------------------------------------------

TEST_F(ProtocolTest, RegisteredOpDispatchesAndFailuresStayStructured) {
  protocol_.registerOp("echo", [](const Json& request) {
    Json out = Json::object();
    out.set("ok", true);
    out.set("echo", request.at("payload").asString());
    return out;
  });
  protocol_.registerOp("boom", [](const Json&) -> Json {
    throw std::runtime_error("handler exploded");
  });

  const Json echoed = respond(R"({"op":"echo","payload":"hello"})");
  ASSERT_TRUE(echoed.at("ok").asBool());
  EXPECT_EQ(echoed.at("echo").asString(), "hello");

  const Json boomed = respond(R"({"op":"boom"})");
  EXPECT_FALSE(boomed.at("ok").asBool(true));
  EXPECT_NE(boomed.at("error").asString().find("handler exploded"),
            std::string::npos);

  // Unknown-op errors advertise extension ops alongside the builtins.
  const Json unknown = respond(R"({"op":"nope"})");
  ASSERT_TRUE(unknown.at("error").isObject());
  EXPECT_EQ(unknown.at("error").at("code").asString(), "unknown_op");
  bool sawEcho = false;
  for (const Json& name : unknown.at("error").at("known_ops").items()) {
    sawEcho = sawEcho || name.asString() == "echo";
  }
  EXPECT_TRUE(sawEcho);
}

TEST_F(ProtocolTest, RegisterOpRejectsBuiltinsDuplicatesAndNullHandlers) {
  EXPECT_THROW(protocol_.registerOp("synthesize", [](const Json&) { return Json(); }),
               std::invalid_argument);
  EXPECT_THROW(protocol_.registerOp("stats", [](const Json&) { return Json(); }),
               std::invalid_argument);
  protocol_.registerOp("mine", [](const Json&) { return Json::object(); });
  EXPECT_THROW(protocol_.registerOp("mine", [](const Json&) { return Json(); }),
               std::invalid_argument);
  EXPECT_THROW(protocol_.registerOp("null_op", ServiceProtocol::OpHandler{}),
               std::invalid_argument);
}

TEST_F(ProtocolTest, RegisteredStatsSectionAppearsInStats) {
  protocol_.registerStatsSection("custom_section", [] {
    Json j = Json::object();
    j.set("answer", 42);
    return j;
  });
  EXPECT_THROW(
      protocol_.registerStatsSection("custom_section", [] { return Json(); }),
      std::invalid_argument);
  const Json out = respond(R"({"op":"stats"})");
  ASSERT_TRUE(out.at("ok").asBool());
  EXPECT_EQ(out.at("stats").at("custom_section").at("answer").asInt(), 42);
}

// ---------------------------------------------------------------------------
// Post-layout verification tier surface
// ---------------------------------------------------------------------------

TEST(Serialize, SpecFieldNamesIncludeExtendedAxes) {
  const std::vector<std::string>& names = specFieldNames();
  for (const char* name : {"thd_max_percent", "psrr_min_db", "offset_max_mv"}) {
    bool found = false;
    for (const std::string& n : names) found = found || n == name;
    EXPECT_TRUE(found) << name;
  }
  sizing::OtaSpecs specs;
  setSpecField(specs, "psrr_min_db", 60.0);
  EXPECT_DOUBLE_EQ(specs.psrrMinDb, 60.0);
  setSpecField(specs, "thd_max_percent", 0.5);
  setSpecField(specs, "offset_max_mv", 2.0);
  EXPECT_DOUBLE_EQ(specs.thdMaxPercent, 0.5);
  EXPECT_DOUBLE_EQ(specs.offsetMaxMv, 2.0);
}

TEST(Serialize, JobRequestJournalRoundTripWithPostLayoutVerify) {
  JobRequest request;
  request.label = "plv-journal";
  request.options.postLayoutVerify.enabled = true;
  request.options.postLayoutVerify.relTolerance = 0.05;
  request.options.postLayoutVerify.thdFundamentalHz = 2e6;
  request.options.postLayoutVerify.thdCycles = 8;
  request.options.postLayoutVerify.sweepPoints = 21;
  request.specs.psrrMinDb = 55.0;

  const std::string dump = toJson(request).dump();
  const JobRequest back = jobRequestFromJson(Json::parse(dump));
  EXPECT_TRUE(back.options.postLayoutVerify.enabled);
  EXPECT_DOUBLE_EQ(back.options.postLayoutVerify.relTolerance, 0.05);
  EXPECT_DOUBLE_EQ(back.options.postLayoutVerify.thdFundamentalHz, 2e6);
  EXPECT_EQ(back.options.postLayoutVerify.thdCycles, 8);
  EXPECT_EQ(back.options.postLayoutVerify.sweepPoints, 21);
  EXPECT_DOUBLE_EQ(back.specs.psrrMinDb, 55.0);
  // Replayed jobs must recompute the original's cache key exactly.
  EXPECT_EQ(toJson(back).dump(), dump);

  // Verification-free requests keep their pre-tier bytes: no
  // post_layout_verify member at all.
  const JobRequest plain;
  EXPECT_EQ(toJson(plain).dump().find("post_layout_verify"), std::string::npos);
}

TEST(CacheKey, PostLayoutSegmentsAreGated) {
  const core::EngineOptions plainOptions;
  const sizing::OtaSpecs plainSpecs;
  const std::string base = ResultCache::canonicalText(
      plainOptions, plainSpecs, tech::ProcessCorner::kTypical, "t");
  // Default configurations carry neither gated segment.
  EXPECT_EQ(base.find("|plv="), std::string::npos);
  EXPECT_EQ(base.find("|xspec="), std::string::npos);

  core::EngineOptions verifyOptions = plainOptions;
  verifyOptions.postLayoutVerify.enabled = true;
  const std::string withPlv = ResultCache::canonicalText(
      verifyOptions, plainSpecs, tech::ProcessCorner::kTypical, "t");
  EXPECT_NE(withPlv.find("|plv="), std::string::npos);
  EXPECT_NE(withPlv, base);

  sizing::OtaSpecs extendedSpecs = plainSpecs;
  extendedSpecs.thdMaxPercent = 0.5;
  const std::string withXspec = ResultCache::canonicalText(
      plainOptions, extendedSpecs, tech::ProcessCorner::kTypical, "t");
  EXPECT_NE(withXspec.find("|xspec="), std::string::npos);
  EXPECT_NE(withXspec, base);
  EXPECT_NE(withXspec, withPlv);
}

TEST_F(ProtocolTest, SynthesizeParsesPostLayoutVerifyBoolAndObject) {
  // Bare bool turns the tier on with defaults.
  const Json boolForm = respond(
      R"({"op":"synthesize","case":"case1","label":"plv-b","post_layout_verify":true})");
  ASSERT_TRUE(boolForm.at("ok").asBool()) << boolForm.dump();
  ASSERT_EQ(boolForm.at("state").asString(), "done");
  EXPECT_TRUE(boolForm.at("result").at("verification").at("ran").asBool());

  // Object form tunes the knobs; a different key space than the bool form.
  const Json objForm = respond(
      R"({"op":"synthesize","case":"case1","label":"plv-o","post_layout_verify":{"sweep_points":15}})");
  ASSERT_TRUE(objForm.at("ok").asBool()) << objForm.dump();
  EXPECT_TRUE(objForm.at("result").at("verification").at("ran").asBool());
  EXPECT_NE(objForm.at("cache_key").asString(), boolForm.at("cache_key").asString());

  // Without the field the tier stays off and the result carries no report.
  const Json off = respond(R"({"op":"synthesize","case":"case1","label":"plv-off"})");
  ASSERT_TRUE(off.at("ok").asBool());
  EXPECT_EQ(off.at("result").find("verification"), nullptr);
  EXPECT_NE(off.at("cache_key").asString(), boolForm.at("cache_key").asString());
}

TEST_F(ProtocolTest, VerifyOpRunsEndToEnd) {
  installVerifyOps(protocol_, scheduler_);
  const Json out = respond(
      R"({"op":"verify","label":"vop","case":"case1","summary":true})");
  ASSERT_TRUE(out.at("ok").asBool()) << out.dump();
  EXPECT_EQ(out.at("state").asString(), "done");
  EXPECT_TRUE(out.at("post_layout_ran").asBool());
  // The verdict and the structured report ride on the response even in
  // summary mode; the full result body is omitted.
  ASSERT_NE(out.find("post_layout_pass"), nullptr);
  ASSERT_TRUE(out.at("verification").isObject());
  EXPECT_FALSE(out.at("verification").at("deltas").items().empty());
  EXPECT_EQ(out.find("result"), nullptr);

  // The op shares the synthesize cache: an identical verify request hits.
  const Json again = respond(
      R"({"op":"verify","label":"vop","case":"case1","summary":true})");
  EXPECT_TRUE(again.at("cache_hit").asBool());
  EXPECT_EQ(again.at("verification").dump(), out.at("verification").dump());
}

}  // namespace
}  // namespace lo::service
