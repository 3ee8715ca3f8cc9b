#include "explore/session_journal.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "service/cache.hpp"  // ResultCache::fnv1a

namespace lo::explore {

using service::FramedLog;
using service::FramedLogOptions;
using service::FrameReplay;
using service::Json;

namespace {

// Json numbers are doubles, which cannot carry a full 64-bit digest;
// the journal stores digests as fixed-width hex strings instead.
std::string digestToHex(std::uint64_t digest) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::uint64_t digestFromHex(const std::string& hex) {
  return std::strtoull(hex.c_str(), nullptr, 16);
}

bool validSessionPayload(const std::string& payload) {
  try {
    (void)SessionRecord::fromJson(Json::parse(payload));
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

FramedLogOptions framedOptionsFor(const SessionJournalOptions& options) {
  if (options.dir.empty()) {
    throw std::invalid_argument("SessionJournal needs a directory");
  }
  FramedLogOptions framed;
  framed.path = (std::filesystem::path(options.dir) / "explore.wal").string();
  framed.fsyncEachRecord = options.fsyncEachRecord;
  return framed;
}

SessionReplay digestFrames(FrameReplay frames) {
  SessionReplay replay;
  replay.tornTail = frames.tornTail;
  replay.truncatedBytes = frames.truncatedBytes;
  replay.records.reserve(frames.payloads.size());
  for (const std::string& payload : frames.payloads) {
    replay.records.push_back(SessionRecord::fromJson(Json::parse(payload)));
  }

  // Finished ids, then ids already pending: duplicate started records for
  // one id (a session handed off between shards logs on both) restart
  // once, not once per record.
  std::unordered_set<std::uint64_t> skip;
  for (const SessionRecord& rec : replay.records) {
    if (rec.id > replay.maxId) replay.maxId = rec.id;
    if (rec.type == SessionRecordType::kFinished) {
      skip.insert(rec.id);
      ++replay.finished;
    }
  }
  for (const SessionRecord& rec : replay.records) {
    if (rec.type == SessionRecordType::kStarted && skip.insert(rec.id).second) {
      replay.pending.push_back(rec);
    }
  }
  return replay;
}

}  // namespace

SessionRecordType sessionRecordTypeFromName(const std::string& name) {
  for (const SessionRecordType t :
       {SessionRecordType::kStarted, SessionRecordType::kProgress,
        SessionRecordType::kFinished}) {
    if (name == sessionRecordTypeName(t)) return t;
  }
  throw std::invalid_argument("unknown session record type \"" + name + "\"");
}

Json SessionRecord::toJson() const {
  Json j = Json::object();
  j.set("type", sessionRecordTypeName(type));
  j.set("id", id);
  switch (type) {
    case SessionRecordType::kStarted:
      j.set("request", request);
      break;
    case SessionRecordType::kProgress:
      j.set("evaluated", evaluated);
      j.set("front_size", frontSize);
      j.set("front_digest", digestToHex(frontDigest));
      break;
    case SessionRecordType::kFinished:
      j.set("ok", ok);
      if (!ok) j.set("error", error);
      j.set("evaluated", evaluated);
      j.set("front_size", frontSize);
      j.set("front_digest", digestToHex(frontDigest));
      break;
  }
  return j;
}

SessionRecord SessionRecord::fromJson(const Json& j) {
  SessionRecord rec;
  rec.type = sessionRecordTypeFromName(j.at("type").asString());
  rec.id = j.at("id").asUint64();
  if (rec.id == 0) throw std::invalid_argument("session record needs an id");
  if (const Json* request = j.find("request")) rec.request = *request;
  if (rec.type == SessionRecordType::kStarted && rec.request.isNull()) {
    throw std::invalid_argument("started session record needs a request");
  }
  rec.evaluated = j.at("evaluated").asInt();
  rec.frontSize = j.at("front_size").asInt();
  rec.frontDigest = digestFromHex(j.at("front_digest").asString());
  if (const Json* ok = j.find("ok")) rec.ok = ok->asBool();
  rec.error = j.at("error").asString();
  return rec;
}

std::uint64_t frontDigestOf(const std::vector<std::string>& frontKeys) {
  std::string joined;
  for (const std::string& key : frontKeys) {
    joined += key;
    joined += '\n';
  }
  return service::ResultCache::fnv1a(joined);
}

SessionJournal::SessionJournal(SessionJournalOptions options)
    : log_(framedOptionsFor(options)) {}

SessionReplay SessionJournal::replay() {
  return digestFrames(log_.replay(validSessionPayload));
}

SessionReplay SessionJournal::replayFile(const std::string& path) {
  return digestFrames(FramedLog::replayFile(path, validSessionPayload));
}

void SessionJournal::append(const SessionRecord& record, bool durable) {
  log_.append(record.toJson().dump(), durable);
}

void SessionJournal::compact(const std::vector<SessionRecord>& live) {
  std::vector<std::string> payloads;
  payloads.reserve(live.size());
  for (const SessionRecord& rec : live) payloads.push_back(rec.toJson().dump());
  log_.rewrite(payloads);
}

}  // namespace lo::explore
