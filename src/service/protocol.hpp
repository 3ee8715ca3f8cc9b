// The losynthd wire protocol: one JSON object per input line, one JSON
// object per output line, so any language with a JSON library can drive
// the synthesis flow over a pipe without linking C++.
//
// Ops (field "op"):
//   synthesize  run (or cache-serve) one job; {"async":true} returns the
//               job id immediately instead of blocking
//   wait        block until an async job finishes and return its outcome
//   cancel      cancel a queued/running job by id
//   sweep       submit a list of jobs and return outcomes in order
//   stats       scheduler + cache metrics snapshot (metrics.hpp schema)
//   health      queue / circuit-breaker / journal liveness snapshot
//   topologies  registered topology names
//   shutdown    acknowledge and stop the read loop
//
// Higher layers extend the protocol without a dependency cycle through
// registerOp() / registerStatsSection(): lo_explore installs its
// explore / explore_result ops this way (explore/service_ops.hpp).
//
// Every response carries "ok"; failures put a human-readable reason in
// "error" and never kill the daemon: malformed JSON and over-long lines
// (kMaxRequestLineBytes) answer {"ok":false,...}.
// Admission rejections answer with a *structured* error object instead of
// a bare string -- {"error":{"code":"overloaded"|"circuit_open"|
// "queue_full","message":...,"queue_depth":N,"retry_after_ms":N}} -- so
// clients can back off programmatically.  An unknown op answers the same
// way: {"error":{"code":"unknown_op","message":...,"known_ops":[...]}}.
//
// Synthesize / sweep acks carry the job's content-addressed result-cache
// key ("cache_key", absent for no_cache jobs), so routers and smokes can
// address results -- and shard them -- without re-deriving FNV-1a hashes
// client-side.  {"summary":true} omits the (large) "result" body from
// done outcomes; the result stays addressable through the cache key.
// See README.md for a request / response example and DESIGN.md for the
// full schema.
#pragma once

#include <functional>
#include <iosfwd>
#include <map>
#include <string>

#include "service/scheduler.hpp"

namespace lo::service {

/// Requests longer than this are rejected with a structured error before
/// parsing, so a hostile or broken client cannot balloon daemon memory.
inline constexpr std::size_t kMaxRequestLineBytes = 1 << 20;

/// Parse the shared job fields of a synthesize/sweep entry (topology,
/// case, model, bias, spec, corner, priority, deadline_seconds,
/// max_retries, no_cache).  This is the protocol's lenient schema, not the
/// journal's full-fidelity one (serialize.hpp); it is exposed so the
/// cluster router derives exactly the cache key the shard will.  A spec
/// outside requireSpecDomain, or post-layout verification options outside
/// verify::requireOptionsDomain, is refused here, before it is journaled.
[[nodiscard]] JobRequest parseJobRequest(const Json& request);

class ServiceProtocol {
 public:
  explicit ServiceProtocol(JobScheduler& scheduler) : scheduler_(scheduler) {}

  /// Handle one request line; always returns a single-line JSON response.
  [[nodiscard]] std::string handleLine(const std::string& line);

  /// True once a shutdown request has been acknowledged.
  [[nodiscard]] bool shutdownRequested() const { return shutdown_; }

  /// Serve line-by-line until EOF or shutdown; flushes after every line.
  void serve(std::istream& in, std::ostream& out);

  /// Extension seam for higher layers: handle requests whose "op" equals
  /// `op` with `handler`.  Built-in ops cannot be overridden; registering
  /// a duplicate extension op throws std::invalid_argument.  Handlers run
  /// on the protocol thread; thrown exceptions become {"ok":false,...}.
  using OpHandler = std::function<Json(const Json& request)>;
  void registerOp(const std::string& op, OpHandler handler);

  /// Add a named section to the `stats` response (e.g. "explorations").
  using StatsProvider = std::function<Json()>;
  void registerStatsSection(const std::string& key, StatsProvider provider);

  /// Test seam (testkit fault plans): transform every response line just
  /// before it leaves handleLine().  Used to emit truncated / corrupted
  /// responses deterministically, so client-side transport-error handling
  /// can be exercised; identity when unset.  The daemon itself never sees
  /// the transform's output -- its state advances exactly as if the clean
  /// response had been sent.
  void setResponseTransform(std::function<std::string(std::string)> transform) {
    responseTransform_ = std::move(transform);
  }

 private:
  [[nodiscard]] Json handle(const Json& request);
  [[nodiscard]] Json handleSynthesize(const Json& request);
  [[nodiscard]] Json handleSweep(const Json& request);
  [[nodiscard]] Json handleStats() const;
  [[nodiscard]] Json handleHealth() const;
  [[nodiscard]] Json outcomeJson(const JobStatus& status, bool includeTrace,
                                 bool summary) const;

  JobScheduler& scheduler_;
  bool shutdown_ = false;
  std::map<std::string, OpHandler> extraOps_;
  std::map<std::string, StatsProvider> statsSections_;
  std::function<std::string(std::string)> responseTransform_;
};

}  // namespace lo::service
