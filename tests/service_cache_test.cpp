#include "service/cache.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>
#include <vector>

#include "service/serialize.hpp"

namespace lo::service {
namespace {

/// A synthetic result with awkward doubles, so round trips are exercised
/// on values that do not format tidily.
core::EngineResult makeResult(int seed) {
  core::EngineResult result;
  result.criticalNets = {"out", "tail", "x1"};
  for (int call = 1; call <= 2; ++call) {
    core::EngineIteration it;
    it.layoutCall = call;
    it.netCaps = {seed / 3.0 * 1e-13, 2.5e-13 + seed * 1e-16, 1.0 / 7.0 * 1e-12};
    it.primaryCurrent = 1e-4 + seed * 1e-7;
    it.pairWidth = 17.3e-6 / (seed + 1);
    result.iterations.push_back(it);
  }
  result.layoutCalls = 2;
  result.parasiticConverged = true;
  result.predicted.dcGainDb = 70.0 + seed / 3.0;
  result.predicted.gbwHz = 65e6 + seed;
  result.measured.dcGainDb = 69.0 + seed / 7.0;
  result.measured.gbwHz = 64.9e6 + seed;
  result.measured.settlingTimeNs = 10.500000000000002;
  return result;
}

std::string keyText(const sizing::OtaSpecs& specs,
                    const core::EngineOptions& options = {},
                    tech::ProcessCorner corner = tech::ProcessCorner::kTypical,
                    const std::string& techPrint = "feedfacefeedface") {
  return ResultCache::canonicalText(options, specs, corner, techPrint);
}

TEST(CacheKey, Fnv1aKnownVectors) {
  // Standard FNV-1a 64-bit test vectors.
  EXPECT_EQ(ResultCache::fnv1a(""), 14695981039346656037ull);
  EXPECT_EQ(ResultCache::fnv1a("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(ResultCache::fnv1a("foobar"), 0x85944171f73967e8ull);
}

TEST(CacheKey, CanonicalTextIsFieldOrderAndFormattingInvariant) {
  // Same values, different construction order / literal spelling: the
  // canonical text emits fields in one fixed order from the binary values,
  // so the keys must agree.
  sizing::OtaSpecs a;
  a.gbw = 65e6;
  a.cload = 3e-12;
  sizing::OtaSpecs b;
  b.cload = 0.000000000003;  // Same double as 3e-12.
  b.gbw = 6.5e7;             // Same double as 65e6.
  EXPECT_EQ(keyText(a), keyText(b));

  sizing::OtaSpecs c = a;
  c.gbw = 65e6 + 1.0;  // A genuinely different value must change the key.
  EXPECT_NE(keyText(a), keyText(c));
}

TEST(CacheKey, EveryIdentityFieldFeedsTheKey) {
  const sizing::OtaSpecs specs;
  const std::string base = keyText(specs);

  core::EngineOptions other;
  other.topology = core::kTwoStageTopologyName;
  EXPECT_NE(keyText(specs, other), base);

  core::EngineOptions caseChange;
  caseChange.sizingCase = core::SizingCase::kCase2;
  EXPECT_NE(keyText(specs, caseChange), base);

  core::EngineOptions verifyChange;
  verifyChange.verifyOptions.pointsPerDecade = 24;
  EXPECT_NE(keyText(specs, verifyChange), base);

  EXPECT_NE(keyText(specs, {}, tech::ProcessCorner::kSlow), base);
  EXPECT_NE(keyText(specs, {}, tech::ProcessCorner::kTypical, "0123456789abcdef"),
            base);
}

TEST(CacheKey, HooksAndSchedulingMetadataAreExcluded) {
  // Hooks influence observation, never the numbers: a hooked job must hit
  // the cache entry of an unhooked one.
  core::EngineOptions hooked;
  hooked.hooks.cancelRequested = [] { return false; };
  hooked.hooks.onStage = [](core::EngineStage, double) {};
  EXPECT_EQ(keyText(sizing::OtaSpecs{}, hooked), keyText(sizing::OtaSpecs{}));
}

TEST(CacheKey, CanonicalTextCarriesSchemaVersion4) {
  // v4: analytic device derivatives and the folded transient moved result
  // bits, so no v3 disk entry may be served as a v4 result.
  EXPECT_EQ(keyText(sizing::OtaSpecs{}).rfind("v4|", 0), 0u);
}

TEST(CacheKey, TechFingerprintSeparatesTechnologies) {
  const std::string p060 = ResultCache::techFingerprint(tech::Technology::generic060());
  const std::string p100 = ResultCache::techFingerprint(tech::Technology::generic100());
  EXPECT_EQ(p060.size(), 16u);
  EXPECT_NE(p060, p100);
  // Deterministic across calls.
  EXPECT_EQ(p060, ResultCache::techFingerprint(tech::Technology::generic060()));
}

TEST(ResultCacheLru, EvictsLeastRecentlyUsed) {
  CacheOptions options;
  options.capacity = 2;
  ResultCache cache(options);
  cache.insert("k1", makeResult(1));
  cache.insert("k2", makeResult(2));
  EXPECT_TRUE(cache.lookup("k1").has_value());  // Refreshes k1: k2 is now LRU.
  cache.insert("k3", makeResult(3));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.lookup("k2").has_value());  // Evicted.
  EXPECT_TRUE(cache.lookup("k1").has_value());
  EXPECT_TRUE(cache.lookup("k3").has_value());

  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.inserts, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(ResultCacheLru, ReinsertRefreshesInsteadOfDuplicating) {
  CacheOptions options;
  options.capacity = 2;
  ResultCache cache(options);
  cache.insert("k1", makeResult(1));
  cache.insert("k2", makeResult(2));
  cache.insert("k1", makeResult(9));  // Refresh, not a new entry.
  EXPECT_EQ(cache.size(), 2u);
  cache.insert("k3", makeResult(3));  // Now k2 is the eviction victim.
  EXPECT_FALSE(cache.lookup("k2").has_value());
  const auto k1 = cache.lookup("k1");
  ASSERT_TRUE(k1.has_value());
  EXPECT_DOUBLE_EQ(k1->predicted.dcGainDb, makeResult(9).predicted.dcGainDb);
}

TEST(ResultCacheLru, ZeroCapacityClampsToOne) {
  CacheOptions options;
  options.capacity = 0;
  ResultCache cache(options);
  cache.insert("k1", makeResult(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.lookup("k1").has_value());
}

class DiskCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("lo_cache_test_" + std::to_string(::getpid()));
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  CacheOptions diskOptions() {
    CacheOptions options;
    options.diskDir = dir_.string();
    return options;
  }

  std::filesystem::path dir_;
};

TEST_F(DiskCacheTest, RoundTripIsByteIdentical) {
  const core::EngineResult original = makeResult(5);
  {
    ResultCache writer(diskOptions());
    writer.insert("deadbeefdeadbeef", original);
    EXPECT_EQ(writer.stats().diskWrites, 1u);
  }
  ResultCache reader(diskOptions());  // Fresh memory tier, same store.
  const auto loaded = reader.lookup("deadbeefdeadbeef");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(reader.stats().diskHits, 1u);

  // Byte-identical: the canonical JSON of both must match exactly, and the
  // POD performance blocks must memcmp equal (no double drifted).
  EXPECT_EQ(toJson(*loaded).dump(), toJson(original).dump());
  EXPECT_EQ(std::memcmp(&loaded->measured, &original.measured,
                        sizeof(sizing::OtaPerformance)),
            0);
  EXPECT_EQ(std::memcmp(&loaded->predicted, &original.predicted,
                        sizeof(sizing::OtaPerformance)),
            0);
  ASSERT_EQ(loaded->iterations.size(), original.iterations.size());
  for (std::size_t i = 0; i < original.iterations.size(); ++i) {
    ASSERT_EQ(loaded->iterations[i].netCaps.size(),
              original.iterations[i].netCaps.size());
    for (std::size_t n = 0; n < original.iterations[i].netCaps.size(); ++n) {
      EXPECT_EQ(loaded->iterations[i].netCaps[n], original.iterations[i].netCaps[n]);
    }
  }
}

TEST_F(DiskCacheTest, CorruptEntryCountsAsMissAndIsRepairedByInsert) {
  {
    std::filesystem::create_directories(dir_);
    std::ofstream out(dir_ / "0000000000000bad.json");
    out << "{ not json ";
  }
  ResultCache cache(diskOptions());
  EXPECT_FALSE(cache.lookup("0000000000000bad").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  cache.insert("0000000000000bad", makeResult(2));
  ResultCache reader(diskOptions());
  EXPECT_TRUE(reader.lookup("0000000000000bad").has_value());
}

TEST_F(DiskCacheTest, HandTruncatedEntryIsAMissAndIsRepairedByInsert) {
  // Write a genuine entry, then chop it mid-JSON -- the torn-write shape a
  // crash between fwrite and rename can leave behind.
  const core::EngineResult original = makeResult(4);
  {
    ResultCache writer(diskOptions());
    writer.insert("feedbeeffeedbeef", original);
  }
  const std::filesystem::path entry = dir_ / "feedbeeffeedbeef.json";
  const auto fullSize = std::filesystem::file_size(entry);
  std::filesystem::resize_file(entry, fullSize / 2);

  ResultCache cache(diskOptions());
  EXPECT_FALSE(cache.lookup("feedbeeffeedbeef").has_value());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().diskCorrupt, 1u);

  // The miss re-runs and re-inserts; the store heals.
  cache.insert("feedbeeffeedbeef", original);
  ResultCache reader(diskOptions());
  const auto healed = reader.lookup("feedbeeffeedbeef");
  ASSERT_TRUE(healed.has_value());
  EXPECT_EQ(toJson(*healed).dump(), toJson(original).dump());
}

TEST_F(DiskCacheTest, InjectedWriteFailureIsCountedAndToleratedOnRead) {
  CacheOptions faulty = diskOptions();
  faulty.diskWriteFault = [](const std::string& key) {
    return key == "00000000deadc0de";
  };
  {
    ResultCache writer(faulty);
    writer.insert("00000000deadc0de", makeResult(3));  // Store write fails.
    writer.insert("00000000feedf00d", makeResult(6));  // Unaffected key.
    const CacheStats stats = writer.stats();
    EXPECT_EQ(stats.diskWriteFailures, 1u);
    EXPECT_EQ(stats.diskWrites, 1u);
    // The memory tier still serves the result within this process.
    EXPECT_TRUE(writer.lookup("00000000deadc0de").has_value());
  }
  // A fresh process finds a torn entry: a miss, never an exception.
  ResultCache reader(diskOptions());
  EXPECT_FALSE(reader.lookup("00000000deadc0de").has_value());
  EXPECT_EQ(reader.stats().diskCorrupt, 1u);
  EXPECT_TRUE(reader.lookup("00000000feedf00d").has_value());
}

TEST_F(DiskCacheTest, InsertReportsDurabilityAndPeekLeavesNoTrace) {
  ResultCache memoryOnly;
  EXPECT_FALSE(memoryOnly.insert("k0", makeResult(0)));  // No store to be durable in.

  CacheOptions options = diskOptions();
  options.capacity = 2;
  options.diskWriteFault = [](const std::string& key) { return key == "torn"; };
  ResultCache cache(options);
  EXPECT_TRUE(cache.insert("k1", makeResult(1)));
  EXPECT_FALSE(cache.insert("torn", makeResult(9)));  // Store write failed.
  const CacheStats before = cache.stats();

  // A memory-tier peek must not refresh k1: the next insert still evicts it.
  ASSERT_TRUE(cache.peek("k1").has_value());
  EXPECT_TRUE(cache.insert("k2", makeResult(2)));
  EXPECT_EQ(cache.stats().evictions, before.evictions + 1);

  // Now k1 is on disk only: peek reads it without re-inserting it.
  const auto fromDisk = cache.peek("k1");
  ASSERT_TRUE(fromDisk.has_value());
  EXPECT_EQ(toJson(*fromDisk).dump(), toJson(makeResult(1)).dump());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_FALSE(cache.peek("absent").has_value());
  cache.clear();
  EXPECT_FALSE(cache.peek("torn").has_value());  // Unreadable entry: absent.

  const CacheStats after = cache.stats();
  EXPECT_EQ(after.hits, before.hits);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_EQ(after.diskHits, before.diskHits);
  EXPECT_EQ(after.diskCorrupt, before.diskCorrupt);
  EXPECT_EQ(after.inserts, before.inserts + 1);  // Only k2's insert.
}

TEST_F(DiskCacheTest, ClearDropsMemoryButDiskSurvives) {
  ResultCache cache(diskOptions());
  cache.insert("cafecafecafecafe", makeResult(7));
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  const auto loaded = cache.lookup("cafecafecafecafe");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(cache.stats().diskHits, 1u);
}

// Two daemons share one store directory in the cluster (peer-fill), so
// concurrent writers racing the same keys must never corrupt an entry:
// staging files are pid/counter-uniquified before the atomic rename.
// With a fixed ".tmp" staging name this test's interleaved writes produce
// diskCorrupt hits on the fresh reader.
TEST_F(DiskCacheTest, TwoWritersOnOneStoreNeverPublishTornEntries) {
  constexpr int kKeys = 24;
  constexpr int kRounds = 40;
  const auto keyName = [](int k) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016x", 0x1000 + k);
    return std::string(buf);
  };

  // Two independent caches (as two daemons would have) hammer the same
  // key set from two threads each.
  ResultCache a(diskOptions());
  ResultCache b(diskOptions());
  std::vector<std::thread> writers;
  for (ResultCache* cache : {&a, &b}) {
    for (int t = 0; t < 2; ++t) {
      writers.emplace_back([cache, t, keyName] {
        for (int round = 0; round < kRounds; ++round) {
          for (int k = 0; k < kKeys; ++k) {
            cache->insert(keyName(k), makeResult(k + t));
          }
        }
      });
    }
  }
  for (std::thread& w : writers) w.join();
  EXPECT_EQ(a.stats().diskWriteFailures, 0u);
  EXPECT_EQ(b.stats().diskWriteFailures, 0u);

  // A fresh reader must find every key complete and parseable -- whichever
  // writer won each rename -- and no staging wreckage may linger.
  ResultCache reader(diskOptions());
  for (int k = 0; k < kKeys; ++k) {
    EXPECT_TRUE(reader.lookup(keyName(k)).has_value()) << keyName(k);
  }
  EXPECT_EQ(reader.stats().diskCorrupt, 0u);
  EXPECT_EQ(reader.stats().diskHits, static_cast<std::uint64_t>(kKeys));
  for (const auto& entry : std::filesystem::directory_iterator(dir_)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
}

}  // namespace
}  // namespace lo::service
