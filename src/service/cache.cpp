#include "service/cache.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string_view>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "service/serialize.hpp"

namespace lo::service {

namespace {

/// Bumped whenever the canonical text, the stored JSON layout or the
/// numbers a job produces change, so stale disk entries miss instead of
/// misparsing or serving superseded figures.
constexpr int kCacheSchemaVersion = 7;  // v7: the transient skips devices that did not move.

/// `v` as 16 lower-case hex digits.
std::string hex64(std::uint64_t v) {
  std::string out(16, '0');
  for (auto digit = out.rbegin(); digit != out.rend(); ++digit, v >>= 4) {
    *digit = "0123456789abcdef"[v & 0xf];
  }
  return out;
}

/// Write `text` to `path` durably: fwrite + fflush + fsync before close,
/// so the subsequent rename publishes a file whose bytes have actually
/// reached the device.  Returns false on any I/O failure.
bool writeDurably(const std::filesystem::path& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  ok = std::fflush(f) == 0 && ok;
#ifndef _WIN32
  ok = fsync(fileno(f)) == 0 && ok;
#endif
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

/// Per-writer unique temp path for `path`.  Multiple daemons share one
/// store directory (the cluster's peer-fill contract), so the staging file
/// must be unique per process *and* per in-process writer: two writers
/// racing the same fixed ".tmp" name would interleave into a corrupt file
/// and publish it with a rename.  pid + a process-wide counter keeps every
/// staging write private until its atomic rename.
std::filesystem::path uniqueTmpPath(const std::filesystem::path& path) {
  static std::atomic<std::uint64_t> counter{0};
#ifndef _WIN32
  const long pid = static_cast<long>(::getpid());
#else
  const long pid = 0;
#endif
  return path.string() + "." + std::to_string(pid) + "." +
         std::to_string(counter.fetch_add(1, std::memory_order_relaxed)) +
         ".tmp";
}

}  // namespace

std::string CacheOptions::defaultDiskDir() {
  if (const char* dir = std::getenv("LOS_CACHE_DIR")) return dir;
  if (const char* xdg = std::getenv("XDG_CACHE_HOME")) {
    return std::string(xdg) + "/lo_service";
  }
  if (const char* home = std::getenv("HOME")) {
    return std::string(home) + "/.cache/lo_service";
  }
  return ".lo_service_cache";
}

ResultCache::ResultCache(CacheOptions options) : options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
  if (!options_.diskDir.empty()) {
    std::filesystem::create_directories(options_.diskDir);
  }
}

std::uint64_t ResultCache::fnv1a(std::string_view text) {
  std::uint64_t hash = 14695981039346656037ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string ResultCache::techFingerprint(const tech::Technology& t) {
  return hex64(fnv1a(t.toText()));
}

std::string ResultCache::canonicalText(const core::EngineOptions& options,
                                       const sizing::OtaSpecs& specs,
                                       tech::ProcessCorner corner,
                                       const std::string& techPrint) {
  std::string out;
  out.reserve(512);
  const auto text = [&out](std::string_view name, std::string_view value) {
    out += '|';
    out += name;
    out += '=';
    out += value;
  };
  // `|name=` and the values, comma-separated, in Json's number codec; an
  // int prints its digits, as it would through an ostream.
  const auto numbers = [&out](std::string_view name, std::initializer_list<double> values) {
    out += '|';
    out += name;
    out += '=';
    for (const double v : values) {
      Json::appendNumber(out, v);
      out += ',';
    }
    out.pop_back();
  };
  out += 'v';
  Json::appendNumber(out, kCacheSchemaVersion);
  text("topology", options.topology);
  text("case", core::sizingCaseName(options.sizingCase));
  text("model", options.modelName);
  text("bias", options.includeBiasGenerator ? "1" : "0");
  numbers("max_layout_calls", {static_cast<double>(options.maxLayoutCalls)});
  numbers("tol", {options.convergenceTol});
  const sizing::VerifyOptions& v = options.verifyOptions;
  numbers("verify", {v.fStart, v.fStop, static_cast<double>(v.pointsPerDecade), v.tranStep,
                     v.tranStop, v.stepAmplitude});
  numbers("spec", {specs.vdd, specs.gbw, specs.phaseMarginDeg, specs.cload, specs.inputCmLow,
                   specs.inputCmHigh, specs.outputLow, specs.outputHigh});
  // Gated segments: configurations that never touch the extended spec axes
  // or the post-layout tier keep their pre-existing keys (so warm caches
  // stay warm across the upgrade), while any non-default use gets its own
  // key space.
  if (specs.thdMaxPercent != 0.0 || specs.psrrMinDb != 0.0 ||
      specs.offsetMaxMv != 0.0) {
    numbers("xspec", {specs.thdMaxPercent, specs.psrrMinDb, specs.offsetMaxMv});
  }
  const ::lo::verify::VerificationOptions& pv = options.postLayoutVerify;
  if (pv.enabled) {
    numbers("plv", {pv.relTolerance, pv.thdFundamentalHz, pv.thdAmplitudeV,
                    static_cast<double>(pv.thdSettleCycles), static_cast<double>(pv.thdCycles),
                    static_cast<double>(pv.thdSamplesPerCycle),
                    static_cast<double>(pv.harmonics), static_cast<double>(pv.sweepPoints),
                    pv.trackingTolerance});
  }
  text("corner", tech::cornerName(corner));
  text("tech", techPrint);
  return out;
}

std::string ResultCache::keyFor(const core::EngineOptions& options,
                                const sizing::OtaSpecs& specs,
                                tech::ProcessCorner corner,
                                const std::string& techPrint) {
  return hex64(fnv1a(canonicalText(options, specs, corner, techPrint)));
}

std::optional<std::string> ResultCache::readEntry(const std::string& key) const {
  if (options_.diskDir.empty()) return std::nullopt;
  const std::filesystem::path path = std::filesystem::path(options_.diskDir) / (key + ".json");
  // An entry is published whole by rename and never rewritten in place, so
  // its size, read once, is the number of bytes to read.
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return std::nullopt;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string text(size, '\0');
  text.resize(std::fread(text.data(), 1, text.size(), f));
  std::fclose(f);
  return text;
}

std::optional<core::EngineResult> ResultCache::lookup(const std::string& key) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // Refresh recency.
    ++stats_.hits;
    return it->second->result;
  }
  if (const std::optional<std::string> text = readEntry(key)) {
    try {
      core::EngineResult result = resultFromJson(Json::parse(*text));
      insertLocked(key, result, true);
      ++stats_.hits;
      ++stats_.diskHits;
      return result;
    } catch (const std::exception&) {
      // Corrupt / truncated / stale entry: treat as a miss and let the
      // insert overwrite it.  A half-written file from a crashed writer
      // must never poison the cache.
      ++stats_.diskCorrupt;
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

std::optional<core::EngineResult> ResultCache::peek(const std::string& key) const {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = index_.find(key);
    if (it != index_.end()) return it->second->result;
  }
  if (const std::optional<std::string> text = readEntry(key)) {
    try {
      return resultFromJson(Json::parse(*text));
    } catch (const std::exception&) {
      // Unreadable entry: absent, exactly as lookup() would treat it.
    }
  }
  return std::nullopt;
}

bool ResultCache::durable(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = index_.find(key);
  return it != index_.end() && it->second->durable;
}

bool ResultCache::insert(const std::string& key, const core::EngineResult& result) {
  const std::lock_guard<std::mutex> lock(mutex_);
  insertLocked(key, result, false);
  if (options_.diskDir.empty()) return false;
  const std::filesystem::path path = std::filesystem::path(options_.diskDir) / (key + ".json");
  const std::string text = toJson(result).dump() + "\n";
  if (options_.diskWriteFault && options_.diskWriteFault(key)) {
    // Injected fault: leave the kind of wreckage a writer that died
    // mid-write (without the tmp-rename discipline) would -- a truncated
    // entry at the final path.  lookup() must treat it as a miss.
    (void)writeDurably(path, text.substr(0, text.size() / 2));
    ++stats_.diskWriteFailures;
    return false;
  }
  // Durable write, then rename: fsync before publishing so a crash
  // between rename and writeback cannot surface a half file, and a
  // concurrent reader only ever sees complete entries.
  const std::filesystem::path tmp = uniqueTmpPath(path);
  bool ok = writeDurably(tmp, text);
  std::error_code ec;
  if (ok) {
    std::filesystem::rename(tmp, path, ec);
    ok = !ec;
  } else {
    std::filesystem::remove(tmp, ec);
  }
  if (ok) {
    ++stats_.diskWrites;
    lru_.front().durable = true;  // insertLocked left key's entry at the front.
  } else {
    ++stats_.diskWriteFailures;
  }
  return ok;
}

void ResultCache::insertLocked(const std::string& key,
                               const core::EngineResult& result, bool durable) {
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->result = result;
    it->second->durable = durable;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({key, result, durable});
  index_[key] = lru_.begin();
  ++stats_.inserts;
  while (lru_.size() > options_.capacity) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

CacheStats ResultCache::stats() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::size_t ResultCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

void ResultCache::clear() {
  const std::lock_guard<std::mutex> lock(mutex_);
  lru_.clear();
  index_.clear();
}

}  // namespace lo::service
