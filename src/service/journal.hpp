// JobJournal: the scheduler's crash-safety spine -- an append-only,
// fsync'd, write-ahead log of job lifecycle records -- plus FramedLog,
// the reusable checksummed frame layer underneath it (shared with the
// explore session journal, so every durable log in the system tears and
// recovers the same way).
//
// Every record is framed as
//
//   u32 payload length (little-endian)  |  u64 FNV-1a of the payload  |  payload
//
// where the payload is one compact JSON object ({"type":"submitted",...}).
// Durable appends (the default) are on disk before they return (fwrite +
// fflush + fsync), so a job whose submission was acknowledged is
// guaranteed to be found by a replay after a SIGKILL.  Callers may mark an
// append non-durable (append(rec, false)): it is still flushed to the OS
// -- so it survives a process kill and stays visible to replayFile() --
// but skips the fsync; the scheduler uses this for lifecycle records
// (started/retried/finished/cancelled), whose loss at worst re-enqueues a
// finished job that the content-addressed result cache then serves without
// an engine re-run.  Because every durable append flushes its
// predecessors, the log is always a prefix-consistent record sequence.
//
// A process that dies mid-append leaves a *torn* final record; replay()
// tolerates exactly that -- it stops at the first frame whose length runs
// past EOF or whose checksum mismatches, truncates the wreckage away, and
// reports everything before it.  An append that *fails* mid-write (short
// fwrite, e.g. transient ENOSPC) truncates the log back to the last good
// frame boundary before throwing, so later acknowledged appends are never
// stranded behind a torn frame; only if that truncation itself fails does
// the journal freeze fail-stop.
//
// Replay semantics (what JobScheduler does with the digest):
//   * a `submitted` record with no `finished`/`cancelled` counterpart is a
//     job the dead process still owed an answer for -> re-enqueue it;
//   * a job with a terminal record needs nothing: its result (if "done")
//     is already in the result cache, keyed by the record's cache key;
//   * replay is idempotent -- replaying the same log twice yields the same
//     digest, and re-enqueued jobs keep their original ids.
//
// compact() rewrites the log to only the still-live submitted records once
// the recovered backlog has drained, so the journal never grows without
// bound across restarts.
//
// The journal speaks Json, not JobRequest: the scheduler serialises
// requests through service/serialize.hpp, which keeps this file free of
// scheduler dependencies (the replay bench loads journals standalone).
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace lo::service {

// --------------------------------------------------------------------------
// FramedLog: the checksummed frame layer, payload-agnostic.

struct FramedLogOptions {
  /// Full path of the log file; the parent directory is created if
  /// missing.  Must be non-empty.
  std::string path;
  /// fsync every frame appended with durable=true (the crash-safety
  /// guarantee).  Turning this off trades durability of the last few
  /// frames for throughput; replay still works on whatever reached the
  /// disk.  Non-durable appends only fflush regardless.
  bool fsyncEachRecord = true;
  /// Test seam (testkit journal_torn_write): consulted once per append.
  /// Firing writes only the first half of the frame and freezes the log
  /// -- byte-for-byte what a process SIGKILLed mid-append leaves.
  std::function<bool()> tornWriteFault;
  /// Test seam: a firing append writes only half its frame and *fails*
  /// without freezing -- a transient short write (ENOSPC), exercising the
  /// truncate-back-to-good-boundary recovery in append().
  std::function<bool()> shortWriteFault;
};

/// What a frame-level replay found: every intact payload in log order.
struct FrameReplay {
  std::vector<std::string> payloads;
  bool tornTail = false;             ///< A torn final frame was dropped.
  std::uint64_t truncatedBytes = 0;  ///< Bytes past the last good boundary.
};

/// An append-only log of checksummed frames with torn-tail recovery.  All
/// higher-level journals (job journal, explore session journal) are thin
/// record codecs over this class, so they share one tear/recovery/compact
/// behaviour and one on-disk format.
class FramedLog {
 public:
  explicit FramedLog(FramedLogOptions options);
  ~FramedLog();

  FramedLog(const FramedLog&) = delete;
  FramedLog& operator=(const FramedLog&) = delete;

  /// Payload validator: a frame whose bytes checksum correctly but whose
  /// payload the owning record layer cannot decode is treated exactly like
  /// a torn frame (it and everything after it is truncated away).
  using PayloadValidator = std::function<bool(const std::string&)>;

  /// Read the log, truncating a torn tail so later appends start on a
  /// clean frame boundary, and return every intact payload.  Safe to call
  /// again later; throws std::runtime_error only on I/O errors, never on
  /// torn data.
  [[nodiscard]] FrameReplay replay(const PayloadValidator& valid = {});

  /// Parse a log file read-only (no truncation, no side effects).
  [[nodiscard]] static FrameReplay replayFile(const std::string& path,
                                              const PayloadValidator& valid = {});

  /// Append one payload; durable (the default) fsyncs before returning.  A
  /// failed write truncates back to the last good frame boundary and
  /// throws; the log freezes only if even the truncation fails.  No-op
  /// after freeze().
  void append(const std::string& payload, bool durable = true);

  /// Rewrite the log to exactly `payloads`, via tmp + fsync + rename.
  /// No-op after freeze().
  void rewrite(const std::vector<std::string>& payloads);

  /// Test seam: silently drop every subsequent append/rewrite, as if the
  /// process had died at this instant.  The file keeps whatever it holds.
  void freeze();

  [[nodiscard]] const std::string& path() const { return options_.path; }
  [[nodiscard]] std::uint64_t recordsInLog() const;  ///< Frames currently on disk.
  [[nodiscard]] std::uint64_t appended() const;      ///< Appends since open.
  [[nodiscard]] std::uint64_t compactions() const;   ///< rewrite() count.
  [[nodiscard]] bool frozen() const;

 private:
  void closeLocked();
  bool openForAppendLocked();
  bool writeFrameLocked(std::FILE* f, const std::string& payload, bool durable);

  FramedLogOptions options_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  bool frozen_ = false;
  /// Offset of the last fully-appended frame boundary in the open log;
  /// a failed append truncates back to here.
  std::uint64_t goodOffset_ = 0;
  std::uint64_t recordsInLog_ = 0;
  std::uint64_t appended_ = 0;
  std::uint64_t compactions_ = 0;
};

// --------------------------------------------------------------------------
// JobJournal: the scheduler's record layer over FramedLog.

enum class JournalRecordType { kSubmitted, kStarted, kRetried, kFinished, kCancelled };

[[nodiscard]] constexpr const char* journalRecordTypeName(JournalRecordType t) {
  switch (t) {
    case JournalRecordType::kSubmitted: return "submitted";
    case JournalRecordType::kStarted: return "started";
    case JournalRecordType::kRetried: return "retried";
    case JournalRecordType::kFinished: return "finished";
    case JournalRecordType::kCancelled: return "cancelled";
  }
  return "?";
}

/// Inverse of journalRecordTypeName; throws std::invalid_argument.
[[nodiscard]] JournalRecordType journalRecordTypeFromName(const std::string& name);

struct JournalRecord {
  JournalRecordType type = JournalRecordType::kSubmitted;
  std::uint64_t id = 0;    ///< Scheduler job id; stable across restarts.
  std::string cacheKey;    ///< Result-cache key ("" for bypass-cache jobs).
  std::string state;       ///< Terminal state name (kFinished only).
  int attempt = 0;         ///< Attempt / retry ordinal (kStarted, kRetried).
  Json job;                ///< Serialised JobRequest (kSubmitted only).

  [[nodiscard]] Json toJson() const;
  /// Throws std::invalid_argument on an unknown type or a missing or
  /// non-numeric id.
  [[nodiscard]] static JournalRecord fromJson(const Json& j);
};

struct JournalOptions {
  /// Directory holding the log (created if missing); empty disables the
  /// journal entirely at the scheduler level.
  std::string dir;
  /// See FramedLogOptions::fsyncEachRecord.
  bool fsyncEachRecord = true;
  /// See FramedLogOptions::tornWriteFault / shortWriteFault.
  std::function<bool()> tornWriteFault;
  std::function<bool()> shortWriteFault;
};

/// What a replay found.  `records` holds every intact record in log order;
/// `pending` is the digest the scheduler acts on.
struct JournalReplay {
  std::vector<JournalRecord> records;
  std::vector<JournalRecord> pending;  ///< Submitted, never finished/cancelled.
  std::uint64_t finished = 0;          ///< Terminal records seen.
  std::uint64_t maxId = 0;
  bool tornTail = false;               ///< A torn final record was dropped.
  std::uint64_t truncatedBytes = 0;    ///< Bytes cut from the tail.
};

class JobJournal {
 public:
  explicit JobJournal(JournalOptions options);

  JobJournal(const JobJournal&) = delete;
  JobJournal& operator=(const JobJournal&) = delete;

  /// Read the log, truncating a torn tail so later appends start on a
  /// clean frame boundary, and return the digest.  Safe to call again
  /// later (tests replay twice to prove idempotence); throws
  /// std::runtime_error only on I/O errors, never on torn data.
  [[nodiscard]] JournalReplay replay();

  /// Parse a journal file read-only (no truncation, no side effects).
  [[nodiscard]] static JournalReplay replayFile(const std::string& path);

  /// Append one record; durable (the default) fsyncs before returning,
  /// non-durable only flushes (see the header comment for when that is
  /// sound).  A failed write truncates back to the last good frame
  /// boundary and throws; the journal freezes only if even the truncation
  /// fails.  No-op after simulateCrash().
  void append(const JournalRecord& record, bool durable = true);

  /// Rewrite the log to exactly `live` (the still-running/queued submitted
  /// records), dropping everything replay would discard.  No-op after
  /// simulateCrash().
  void compact(const std::vector<JournalRecord>& live);

  /// Test seam: silently drop every subsequent append/compact, as if the
  /// process had died at this instant.  The file keeps whatever it holds.
  void simulateCrash() { log_.freeze(); }

  [[nodiscard]] std::string logPath() const { return log_.path(); }
  [[nodiscard]] std::uint64_t recordsInLog() const { return log_.recordsInLog(); }
  [[nodiscard]] std::uint64_t appended() const { return log_.appended(); }
  [[nodiscard]] std::uint64_t compactions() const { return log_.compactions(); }
  [[nodiscard]] bool frozen() const { return log_.frozen(); }

 private:
  FramedLog log_;
};

}  // namespace lo::service
