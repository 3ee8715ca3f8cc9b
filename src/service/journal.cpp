#include "service/journal.hpp"

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "service/cache.hpp"  // ResultCache::fnv1a

namespace lo::service {

namespace {

/// 8-byte file magic; bump the digit when the frame layout changes so a
/// stale-format log is reset instead of misparsed.
constexpr char kMagic[8] = {'L', 'O', 'S', 'W', 'A', 'L', '1', '\n'};
constexpr std::size_t kMagicBytes = sizeof kMagic;
constexpr std::size_t kFrameHeaderBytes = 4 + 8;  // u32 length + u64 checksum.
/// Sanity bound on one record; anything larger is treated as corruption.
constexpr std::uint32_t kMaxPayloadBytes = 16u << 20;

void putU32(unsigned char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}
void putU64(unsigned char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<unsigned char>(v >> (8 * i));
}
std::uint32_t getU32(const unsigned char* in) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}
std::uint64_t getU64(const unsigned char* in) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | in[i];
  return v;
}

bool syncFile(std::FILE* f) {
  bool ok = std::fflush(f) == 0;
#ifndef _WIN32
  ok = fsync(fileno(f)) == 0 && ok;
#endif
  return ok;
}

std::string frameBytes(const std::string& payload) {
  std::string frame(kFrameHeaderBytes, '\0');
  putU32(reinterpret_cast<unsigned char*>(frame.data()),
         static_cast<std::uint32_t>(payload.size()));
  putU64(reinterpret_cast<unsigned char*>(frame.data()) + 4,
         ResultCache::fnv1a(payload));
  frame += payload;
  return frame;
}

}  // namespace

// --------------------------------------------------------------------------
// FramedLog

FramedLog::FramedLog(FramedLogOptions options) : options_(std::move(options)) {
  if (options_.path.empty()) {
    throw std::invalid_argument("FramedLog needs a path");
  }
  const std::filesystem::path parent =
      std::filesystem::path(options_.path).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
}

FramedLog::~FramedLog() {
  const std::lock_guard<std::mutex> lock(mutex_);
  closeLocked();
}

void FramedLog::closeLocked() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
}

bool FramedLog::openForAppendLocked() {
  if (file_ != nullptr) return true;
  const std::string& path = options_.path;
  const bool fresh = !std::filesystem::exists(path) ||
                     std::filesystem::file_size(path) == 0;
  goodOffset_ = fresh ? 0 : std::filesystem::file_size(path);
  file_ = std::fopen(path.c_str(), "ab");
  if (file_ == nullptr) return false;
  if (fresh) {
    if (std::fwrite(kMagic, 1, kMagicBytes, file_) != kMagicBytes ||
        !syncFile(file_)) {
      closeLocked();
      return false;
    }
    goodOffset_ = kMagicBytes;
  }
  return true;
}

bool FramedLog::writeFrameLocked(std::FILE* f, const std::string& payload,
                                 bool durable) {
  const std::string frame = frameBytes(payload);
  if (options_.tornWriteFault && options_.tornWriteFault()) {
    // The injected SIGKILL-mid-write: half a frame reaches the disk and
    // the process never writes again.
    const std::size_t torn = frame.size() / 2;
    (void)std::fwrite(frame.data(), 1, torn, f);
    (void)syncFile(f);
    frozen_ = true;
    return false;
  }
  if (options_.shortWriteFault && options_.shortWriteFault()) {
    // The injected transient ENOSPC: half a frame lands and the write
    // reports failure, but the log itself survives.
    (void)std::fwrite(frame.data(), 1, frame.size() / 2, f);
    return false;
  }
  bool ok = std::fwrite(frame.data(), 1, frame.size(), f) == frame.size();
  if (durable && options_.fsyncEachRecord) {
    ok = syncFile(f) && ok;
  } else {
    // Flush to the OS so the frame survives a process kill and stays
    // visible to replayFile(); only the fsync (power-loss durability) is
    // skipped for non-durable records.
    ok = std::fflush(f) == 0 && ok;
  }
  return ok;
}

void FramedLog::append(const std::string& payload, bool durable) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (frozen_) return;
  if (!openForAppendLocked()) {
    throw std::runtime_error("journal: cannot open " + options_.path +
                             " for append");
  }
  if (writeFrameLocked(file_, payload, durable)) {
    ++appended_;
    ++recordsInLog_;
    goodOffset_ += kFrameHeaderBytes + payload.size();
  } else if (!frozen_) {
    // Part of the frame may have reached the disk.  Leaving it there would
    // strand every later (possibly acknowledged and fsync'd) append behind
    // a torn frame that replay stops at -- so cut back to the last good
    // frame boundary; if even that fails, freeze fail-stop.
    closeLocked();
    std::error_code ec;
    std::filesystem::resize_file(options_.path, goodOffset_, ec);
    if (ec) {
      frozen_ = true;
      throw std::runtime_error("journal: append to " + options_.path +
                               " failed and the torn tail could not be "
                               "truncated; journal frozen");
    }
    throw std::runtime_error("journal: append to " + options_.path +
                             " failed (torn tail truncated)");
  }
}

FrameReplay FramedLog::replay(const PayloadValidator& valid) {
  const std::lock_guard<std::mutex> lock(mutex_);
  closeLocked();  // Reopen cleanly after any truncation below.

  FrameReplay replay = replayFile(options_.path, valid);
  if (replay.truncatedBytes > 0 && !frozen_) {
    // Cut the torn tail (or a stale-format file) away so the next append
    // starts on a clean frame boundary.
    const std::string& path = options_.path;
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);
    if (!ec && size >= replay.truncatedBytes) {
      std::filesystem::resize_file(path, size - replay.truncatedBytes, ec);
    }
    if (ec) {
      throw std::runtime_error("journal: cannot truncate torn tail of " + path);
    }
  }
  recordsInLog_ = replay.payloads.size();
  return replay;
}

FrameReplay FramedLog::replayFile(const std::string& path,
                                  const PayloadValidator& valid) {
  FrameReplay replay;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return replay;  // No log yet: empty digest.

  std::fseek(f, 0, SEEK_END);
  const long fileSize = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);

  char magic[kMagicBytes];
  std::size_t good = 0;  // Offset of the last intact frame boundary.
  if (std::fread(magic, 1, kMagicBytes, f) == kMagicBytes &&
      std::memcmp(magic, kMagic, kMagicBytes) == 0) {
    good = kMagicBytes;
    for (;;) {
      unsigned char header[kFrameHeaderBytes];
      if (std::fread(header, 1, kFrameHeaderBytes, f) != kFrameHeaderBytes) break;
      const std::uint32_t length = getU32(header);
      const std::uint64_t checksum = getU64(header + 4);
      if (length > kMaxPayloadBytes) break;
      std::string payload(length, '\0');
      if (length > 0 && std::fread(payload.data(), 1, length, f) != length) break;
      if (ResultCache::fnv1a(payload) != checksum) break;
      // A checksummed frame the record layer cannot decode is treated as
      // torn: it and everything after it is cut away.
      if (valid && !valid(payload)) break;
      replay.payloads.push_back(std::move(payload));
      good += kFrameHeaderBytes + length;
    }
  }
  std::fclose(f);

  if (fileSize > 0 && static_cast<std::size_t>(fileSize) > good) {
    replay.tornTail = good > 0;  // A bad magic is a reset, not a torn tail.
    replay.truncatedBytes = static_cast<std::uint64_t>(fileSize) - good;
  }
  return replay;
}

void FramedLog::rewrite(const std::vector<std::string>& payloads) {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (frozen_) return;
  closeLocked();

  const std::string& path = options_.path;
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error("journal: cannot open " + tmp + " for compaction");
  }
  bool ok = std::fwrite(kMagic, 1, kMagicBytes, f) == kMagicBytes;
  for (const std::string& payload : payloads) {
    if (!ok || frozen_) break;
    // Non-durable per frame: the single syncFile below covers the whole
    // rewrite, instead of one fsync per live record.
    ok = writeFrameLocked(f, payload, /*durable=*/false) && ok;
  }
  ok = syncFile(f) && ok;
  ok = std::fclose(f) == 0 && ok;
  if (frozen_) return;  // tornWriteFault fired mid-compaction.
  std::error_code ec;
  if (ok) {
    std::filesystem::rename(tmp, path, ec);
    ok = !ec;
  } else {
    std::filesystem::remove(tmp, ec);
  }
  if (!ok) {
    throw std::runtime_error("journal: compaction of " + path + " failed");
  }
  recordsInLog_ = payloads.size();
  ++compactions_;
}

void FramedLog::freeze() {
  const std::lock_guard<std::mutex> lock(mutex_);
  frozen_ = true;
  closeLocked();
}

std::uint64_t FramedLog::recordsInLog() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return recordsInLog_;
}

std::uint64_t FramedLog::appended() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return appended_;
}

std::uint64_t FramedLog::compactions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return compactions_;
}

bool FramedLog::frozen() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return frozen_;
}

// --------------------------------------------------------------------------
// JobJournal

namespace {

/// Frames whose payloads parse as journal records are intact; anything
/// else is treated as torn (same contract the inline parse used to give).
bool validJournalPayload(const std::string& payload) {
  try {
    (void)JournalRecord::fromJson(Json::parse(payload));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

FramedLogOptions framedOptionsFor(const JournalOptions& options) {
  if (options.dir.empty()) {
    throw std::invalid_argument("JobJournal needs a directory");
  }
  FramedLogOptions framed;
  framed.path = (std::filesystem::path(options.dir) / "journal.wal").string();
  framed.fsyncEachRecord = options.fsyncEachRecord;
  framed.tornWriteFault = options.tornWriteFault;
  framed.shortWriteFault = options.shortWriteFault;
  return framed;
}

JournalReplay digestFrames(FrameReplay frames) {
  JournalReplay replay;
  replay.tornTail = frames.tornTail;
  replay.truncatedBytes = frames.truncatedBytes;
  replay.records.reserve(frames.payloads.size());
  for (const std::string& payload : frames.payloads) {
    replay.records.push_back(JournalRecord::fromJson(Json::parse(payload)));
  }

  // Digest: which submitted jobs never reached a terminal record.
  std::unordered_set<std::uint64_t> terminalIds;
  for (const JournalRecord& rec : replay.records) {
    if (rec.id > replay.maxId) replay.maxId = rec.id;
    if (rec.type == JournalRecordType::kFinished ||
        rec.type == JournalRecordType::kCancelled) {
      terminalIds.insert(rec.id);
      ++replay.finished;
    }
  }
  for (const JournalRecord& rec : replay.records) {
    if (rec.type == JournalRecordType::kSubmitted && terminalIds.count(rec.id) == 0) {
      replay.pending.push_back(rec);
    }
  }
  return replay;
}

}  // namespace

JournalRecordType journalRecordTypeFromName(const std::string& name) {
  for (const JournalRecordType t :
       {JournalRecordType::kSubmitted, JournalRecordType::kStarted,
        JournalRecordType::kRetried, JournalRecordType::kFinished,
        JournalRecordType::kCancelled}) {
    if (name == journalRecordTypeName(t)) return t;
  }
  throw std::invalid_argument("unknown journal record type \"" + name + "\"");
}

Json JournalRecord::toJson() const {
  Json j = Json::object();
  j.set("type", journalRecordTypeName(type));
  j.set("id", id);
  switch (type) {
    case JournalRecordType::kSubmitted:
      j.set("key", cacheKey);
      j.set("job", job);
      break;
    case JournalRecordType::kStarted:
    case JournalRecordType::kRetried:
      j.set("attempt", attempt);
      break;
    case JournalRecordType::kFinished:
      j.set("state", state);
      j.set("key", cacheKey);
      break;
    case JournalRecordType::kCancelled:
      break;
  }
  return j;
}

JournalRecord JournalRecord::fromJson(const Json& j) {
  JournalRecord rec;
  rec.type = journalRecordTypeFromName(j.at("type").asString());
  // asUint64's fallback would read a missing id as job 0, which no wait or
  // cancel can address; such a record is undecodable like any other.
  const Json& id = j.at("id");
  if (id.type() != Json::Type::kNumber) {
    throw std::invalid_argument("journal record has no numeric \"id\"");
  }
  rec.id = id.asUint64();
  rec.cacheKey = j.at("key").asString();
  rec.state = j.at("state").asString();
  rec.attempt = j.at("attempt").asInt();
  if (const Json* job = j.find("job")) rec.job = *job;
  return rec;
}

JobJournal::JobJournal(JournalOptions options)
    : log_(framedOptionsFor(options)) {}

void JobJournal::append(const JournalRecord& record, bool durable) {
  log_.append(record.toJson().dump(), durable);
}

JournalReplay JobJournal::replay() {
  return digestFrames(log_.replay(validJournalPayload));
}

JournalReplay JobJournal::replayFile(const std::string& path) {
  return digestFrames(FramedLog::replayFile(path, validJournalPayload));
}

void JobJournal::compact(const std::vector<JournalRecord>& live) {
  std::vector<std::string> payloads;
  payloads.reserve(live.size());
  for (const JournalRecord& rec : live) payloads.push_back(rec.toJson().dump());
  log_.rewrite(payloads);
}

}  // namespace lo::service
