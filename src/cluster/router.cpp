#include "cluster/router.hpp"

#include <poll.h>
#include <signal.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <istream>
#include <map>
#include <numeric>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "service/cache.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"

namespace lo::cluster {

namespace {

using service::Json;

Json errorJson(const std::string& why) {
  Json out = Json::object();
  out.set("ok", false);
  out.set("error", why);
  return out;
}

Json structuredErrorJson(const std::string& code, const std::string& message) {
  Json error = Json::object();
  error.set("code", code);
  error.set("message", message);
  Json out = Json::object();
  out.set("ok", false);
  out.set("error", std::move(error));
  return out;
}

std::string shardLabel(int shard) { return "shard" + std::to_string(shard); }

/// Error text of a shard response, whichever shape (string or structured
/// object) the shard used.
std::string errorTextOf(const Json& response, const std::string& fallback) {
  const Json* error = response.find("error");
  if (error == nullptr) return fallback;
  if (error->isObject()) return error->at("message").asString(fallback);
  return error->asString(fallback);
}

/// A sweep outcome standing in for a job the cluster could not place.
Json failedOutcome(const std::string& why) {
  Json out = Json::object();
  out.set("ok", false);
  out.set("state", "failed");
  out.set("error", why);
  return out;
}

/// Recursively add src's numeric leaves into dst, creating objects as
/// needed.  This is how per-shard stats sections become cluster totals.
void sumInto(Json& dst, const Json& src) {
  for (const auto& [key, value] : src.members()) {
    if (value.type() == Json::Type::kNumber) {
      const Json* prior = dst.find(key);
      dst.set(key, (prior != nullptr ? prior->asDouble() : 0.0) + value.asDouble());
    } else if (value.isObject()) {
      Json child = Json::object();
      if (const Json* prior = dst.find(key); prior != nullptr && prior->isObject()) {
        child = *prior;
      }
      sumInto(child, value);
      dst.set(key, std::move(child));
    }
  }
}

/// An async resubmission of a request: the failover path's "run it again
/// over there" line (a cache hit or coalesce on the inheritor, never a
/// second engine run of a finished job).
std::string asyncResubmitLine(Json request) {
  request.set("async", true);
  return request.dump();
}

/// A reboot replays only unfinished work, so a job or exploration that
/// settled before the crash answers "unknown ... id" afterwards; the
/// failover's resubmission (a cache hit on the inheritor) is the answer.
bool forgotten(const Json& reply, bool exploration) {
  return !reply.at("ok").asBool() &&
         errorTextOf(reply, "").find(exploration ? "unknown exploration id"
                                                 : "unknown job id") != std::string::npos;
}

/// "job 7" or "exploration 7": a router id with its kind, for errors.
std::string idLabel(bool exploration, std::uint64_t routerId) {
  return (exploration ? "exploration " : "job ") + std::to_string(routerId);
}

/// True when a wait/synthesize response reports a settled job.
bool terminalState(const Json& response) {
  if (!response.at("ok").asBool()) return false;
  if (response.find("cancelled") != nullptr) return true;
  const std::string state = response.at("state").asString();
  return !state.empty() && state != "queued" && state != "running";
}

}  // namespace

ClusterRouter::ClusterRouter(RouterOptions options)
    : options_(std::move(options)),
      techPrint_(service::ResultCache::techFingerprint(options_.technology)),
      ring_(options_.shards, options_.vnodesPerShard),
      backoffRng_(options_.backoffJitterSeed) {
  if (options_.workerArgv.empty()) {
    throw std::invalid_argument("ClusterRouter needs a worker argv");
  }
  shards_.resize(static_cast<std::size_t>(options_.shards));
  if (!options_.cacheDir.empty()) {
    std::filesystem::create_directories(options_.cacheDir);
  }
  for (int s = 0; s < options_.shards; ++s) {
    Shard& shard = shards_[static_cast<std::size_t>(s)];
    shard.process = std::make_unique<ShardProcess>();
    shard.argv = buildShardArgv(s);
    spawnShard(s);
  }
}

ClusterRouter::~ClusterRouter() {
  // terminate() closes the shard's stdin; a healthy daemon drains its
  // serve loop and exits cleanly, journal intact for the next boot.
  for (Shard& shard : shards_) {
    if (shard.process) shard.process->terminate(2.0);
  }
}

std::vector<std::string> ClusterRouter::buildShardArgv(int shard) const {
  std::vector<std::string> argv = options_.workerArgv;
  if (!options_.journalRoot.empty()) {
    const std::string dir = options_.journalRoot + "/" + shardLabel(shard);
    std::filesystem::create_directories(dir);
    argv.push_back("--journal");
    argv.push_back(dir);
  }
  if (!options_.cacheDir.empty()) {
    argv.push_back("--cache-dir");
    argv.push_back(options_.cacheDir);
  }
  return argv;
}

double ClusterRouter::nowSeconds() const {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void ClusterRouter::spawnShard(int shard) {
  Shard& st = shards_[static_cast<std::size_t>(shard)];
  st.alive = false;
  st.process->spawn(st.argv);
  // The boot health check doubles as the harvest point for the journal
  // replay evidence this boot produced (surfaced in cluster health).
  std::string line;
  const double bootTimeout = std::max(30.0, options_.requestTimeoutSeconds);
  if (!st.process->writeLine(R"({"op":"health"})") ||
      st.process->readLine(line, bootTimeout) != ReadStatus::kOk) {
    st.process->kill9();
    throw std::runtime_error(shardLabel(shard) + " failed its boot health check");
  }
  try {
    const Json health = Json::parse(line);
    const Json& journal = health.at("health").at("journal");
    st.lastReplayedRecords = journal.at("replayed_records").asUint64();
    st.lastRecoveredJobs = journal.at("recovered_jobs").asUint64();
  } catch (const service::JsonParseError&) {
    st.process->kill9();
    throw std::runtime_error(shardLabel(shard) + " answered garbage at boot");
  }
  st.alive = true;
  st.lastReviveAt = nowSeconds();
}

void ClusterRouter::markDead(int shard, const std::string& reason) {
  Shard& st = shards_[static_cast<std::size_t>(shard)];
  if (st.alive) {
    ++st.transportErrors;
    const double now = nowSeconds();
    // A shard that stayed healthy for a while earned a clean slate: only
    // rapid-fire deaths escalate the backoff exponent.
    if (now - st.lastReviveAt > options_.restartBackoffMaxSeconds) {
      st.backoffStreak = 0;
    }
    st.lastRestartReason = reason;
    st.restartHistory.push_back(reason);
    if (st.restartHistory.size() > 8) {
      st.restartHistory.erase(st.restartHistory.begin());
    }
    double delay = 0.0;
    if (st.backoffStreak > 0) {
      delay = std::min(options_.restartBackoffMaxSeconds,
                       options_.restartBackoffBaseSeconds *
                           std::pow(2.0, st.backoffStreak - 1));
      std::uniform_real_distribution<double> jitter(0.75, 1.25);
      delay *= jitter(backoffRng_);
    }
    st.nextRestartAt = now + delay;
    ++st.backoffStreak;
  }
  st.alive = false;
  // A wedged child must actually be gone before a respawn re-opens its
  // journal; kill9 is a no-op when the child already exited.
  st.process->kill9();
}

bool ClusterRouter::reviveShard(int shard, bool ignoreBackoff) {
  Shard& st = shards_[static_cast<std::size_t>(shard)];
  if (!st.member) return false;
  if (st.alive) return true;
  if (!options_.restartDeadShards) return false;
  if (st.restarts >= options_.maxRestartsPerShard) return false;
  if (!ignoreBackoff && nowSeconds() < st.nextRestartAt) return false;
  ++st.restarts;
  try {
    spawnShard(shard);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

std::vector<bool> ClusterRouter::routableMask() const {
  std::vector<bool> mask;
  mask.reserve(shards_.size());
  for (const Shard& shard : shards_) mask.push_back(shard.alive && shard.member);
  return mask;
}

int ClusterRouter::memberCount() const {
  int count = 0;
  for (const Shard& shard : shards_) count += shard.member ? 1 : 0;
  return count;
}

int ClusterRouter::routeLive(const std::string& key) {
  const int home = ring_.ownerOf(key);
  // Prefer healing the home shard over scattering its keys: a revived
  // shard replays its journal and keeps serving its own ranges.
  (void)reviveShard(home);
  int target = ring_.routeOf(key, routableMask());
  if (target < 0) {
    // Nothing routable: backoff hygiene yields to availability.  Force-
    // revive members in index order until one comes back.
    for (int s = 0; s < shardCount(); ++s) {
      if (reviveShard(s, /*ignoreBackoff=*/true)) break;
    }
    target = ring_.routeOf(key, routableMask());
  }
  if (target < 0) {
    throw RouterError{"no_live_shards",
                      "every shard is down and none could be restarted"};
  }
  if (target != home) ++rerouted_;
  return target;
}

void ClusterRouter::exchange(std::vector<Call>& calls) {
  // Per shard: its calls in the order written, their bytes and how many
  // the pipe has taken.  A daemon reads and answers one line at a time, so
  // an answer pairs with the oldest unanswered call, and that call is the
  // one in service: its deadline is one request timeout per unit of its
  // weight, counted from the stream's last answer.
  struct Stream {
    std::vector<Call*> calls;
    std::string out;
    std::size_t sent = 0;
    std::size_t answered = 0;
    double since = 0.0;
  };
  const double timeout = options_.requestTimeoutSeconds;
  std::vector<Stream> streams(shards_.size());
  for (Call& call : calls) {
    if (!shards_[static_cast<std::size_t>(call.shard)].alive) continue;
    Stream& stream = streams[static_cast<std::size_t>(call.shard)];
    stream.out.append(call.line).push_back('\n');
    stream.calls.push_back(&call);
  }
  const double start = nowSeconds();
  for (Stream& stream : streams) stream.since = start;

  // One poll(2) loop writes what every pipe takes and reads what it holds,
  // so neither side of a long stream waits on a full pipe and a wedged
  // shard holds back only its own calls.
  std::vector<struct pollfd> fds;
  std::string line;
  for (;;) {
    fds.clear();
    double wait = -1.0;  // Forever.
    const double now = nowSeconds();
    for (std::size_t s = 0; s < streams.size(); ++s) {
      Stream& stream = streams[s];
      if (stream.answered == stream.calls.size()) continue;
      ShardProcess& process = *shards_[s].process;
      const char* failure = nullptr;
      if (stream.sent < stream.out.size()) {
        const ssize_t n =
            process.writeSome(std::string_view(stream.out).substr(stream.sent));
        if (n < 0) failure = "write failed (pipe closed)";
        stream.sent += static_cast<std::size_t>(std::max<ssize_t>(0, n));
      }
      while (failure == nullptr && stream.answered < stream.calls.size()) {
        const ReadStatus status = process.pollLine(line);
        if (status == ReadStatus::kTimeout) break;
        if (status != ReadStatus::kOk) {
          failure = "eof (process died)";
          break;
        }
        try {
          stream.calls[stream.answered]->reply = Json::parse(line);
          ++stream.answered;
          stream.since = now;
        } catch (const service::JsonParseError&) {
          // An unpaired answer poisons the stream for every later call.
          failure = "garbage on the pipe";
        }
      }
      if (stream.answered == stream.calls.size()) continue;
      const double left =
          stream.since + timeout * stream.calls[stream.answered]->weight - now;
      if (failure == nullptr && timeout > 0 && left < 0) {
        failure = "request timeout (wedged)";
      }
      if (failure != nullptr) {
        markDead(static_cast<int>(s), failure);
        stream.calls.resize(stream.answered);
        continue;
      }
      fds.push_back({process.readFd(), POLLIN, 0});
      if (stream.sent < stream.out.size()) fds.push_back({process.writeFd(), POLLOUT, 0});
      if (timeout > 0) wait = wait < 0 ? left : std::min(wait, left);
    }
    if (fds.empty()) return;
    (void)::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                 wait < 0 ? -1 : static_cast<int>(std::min(wait, 60.0) * 1000.0) + 1);
  }
}

std::optional<Json> ClusterRouter::ask(int shard, std::string line) {
  std::vector<Call> calls{{.shard = shard, .line = std::move(line)}};
  exchange(calls);
  return std::move(calls.front().reply);
}

std::vector<std::optional<Json>> ClusterRouter::askMembers(const std::string& line) {
  std::vector<Call> calls;
  for (int s = 0; s < shardCount(); ++s) {
    const Shard& st = shards_[static_cast<std::size_t>(s)];
    if (st.alive && st.member) calls.push_back({.shard = s, .line = line});
  }
  exchange(calls);
  std::vector<std::optional<Json>> replies(shards_.size());
  for (Call& call : calls) {
    replies[static_cast<std::size_t>(call.shard)] = std::move(call.reply);
  }
  return replies;
}

std::pair<int, Json> ClusterRouter::forwardRouted(const std::string& key,
                                                  const std::string& line) {
  // Every failed attempt consumes a shard life (restart budget or the
  // shard itself), so this loop terminates: either some attempt lands on
  // a live shard or routeLive runs out and throws no_live_shards.
  const int maxAttempts =
      shardCount() * (std::max(0, options_.maxRestartsPerShard) + 2);
  for (int attempt = 0; attempt < maxAttempts; ++attempt) {
    const int shard = routeLive(key);
    if (std::optional<Json> response = ask(shard, line)) {
      ++shards_[static_cast<std::size_t>(shard)].routedJobs;
      return {shard, std::move(*response)};
    }
  }
  throw RouterError{"no_live_shards", "request retries exhausted the cluster"};
}

std::uint64_t ClusterRouter::pin(Route route) {
  const std::uint64_t routerId = route.exploration ? nextExploreId_++ : nextJobId_++;
  (route.exploration ? exploreRoute_ : jobRoute_)[routerId] = std::move(route);
  return routerId;
}

void ClusterRouter::stampJob(Json& response, int shard, const std::string& key,
                             const Json& request) {
  // Shard-local job ids collide across shards; re-issue from the router's
  // id space so wait/cancel can find their way back.
  if (const Json* id = response.find("id");
      id != nullptr && response.at("ok").asBool()) {
    Json resubmit = request;
    resubmit.set("op", "synthesize");
    response.set("id", pin({.shard = shard,
                            .localId = id->asUint64(),
                            .key = key,
                            .resubmitLine = asyncResubmitLine(std::move(resubmit)),
                            .terminal = terminalState(response)}));
  }
  response.set("shard", shard);
}

void ClusterRouter::repin(std::uint64_t routerId, Route& route) {
  // The resubmission is exactly-once-safe: either the dead shard journaled
  // the work (its eventual replay coalesces on the shared store) or its
  // result is already in the store, so the inheritor answers from cache.
  auto [shard, response] = forwardRouted(route.key, route.resubmitLine);
  const Json* id = response.find(route.exploration ? "explore_id" : "id");
  if (!response.at("ok").asBool() || id == nullptr) {
    throw RouterError{"failover_failed",
                      idLabel(route.exploration, routerId) + " could not be re-pinned: " +
                          errorTextOf(response, "resubmission rejected")};
  }
  route.shard = shard;
  route.localId = id->asUint64();
  route.terminal = false;
  ++(route.exploration ? exploreFailovers_ : jobFailovers_);
}

Json ClusterRouter::settle(std::uint64_t routerId, Route& route, int shard,
                           Json reply) {
  if (terminalState(reply)) route.terminal = true;
  const char* idField = route.exploration ? "explore_id" : "id";
  if (reply.find(idField) != nullptr) reply.set(idField, routerId);
  reply.set("shard", shard);
  return reply;
}

Json ClusterRouter::resolvePinned(std::uint64_t routerId, Route& route,
                                  Json request) {
  const char* idField = route.exploration ? "explore_id" : "id";
  // A dead pipe revives the shard and asks once more: the reboot's journal
  // replay re-enqueued the job (or restarted the exploration) under the
  // same local id, so the identical request works there.
  std::optional<Json> reply;
  for (int attempt = 0; attempt < 2 && !reply && reviveShard(route.shard); ++attempt) {
    request.set(idField, route.localId);
    reply = ask(route.shard, request.dump());
  }
  // Drained, past the restart budget, in backoff, or forgotten (a reboot
  // replays only unfinished work, so a job or exploration that settled
  // before the crash answers "unknown ... id"): re-pin to the shard that
  // inherited the key range and resolve there.  A cancel of an already
  // finished job resolves as cancelled:false, as it would have at home.
  if (!reply || forgotten(*reply, route.exploration)) {
    repin(routerId, route);
    request.set(idField, route.localId);
    reply = ask(route.shard, request.dump());
    if (!reply) {
      throw RouterError{"shard_down", shardLabel(route.shard) +
                                          " failed while resolving re-pinned " +
                                          idLabel(route.exploration, routerId)};
    }
  }
  return settle(routerId, route, route.shard, std::move(*reply));
}

std::string ClusterRouter::routingKeyFor(const Json& entry) const {
  const service::JobRequest job = service::parseJobRequest(entry);
  if (!job.bypassCache) {
    return service::ResultCache::keyFor(job.options, job.specs, job.corner,
                                        techPrint_);
  }
  // no_cache jobs have no cache identity to co-locate; spread them by
  // request text so repeated bypass runs at least balance.
  return "raw:" + entry.dump();
}

std::string ClusterRouter::handleLine(const std::string& line) {
  Json response;
  try {
    if (line.size() > service::kMaxRequestLineBytes) {
      response = errorJson("request line too long (" +
                           std::to_string(line.size()) + " bytes, limit " +
                           std::to_string(service::kMaxRequestLineBytes) + ")");
    } else {
      response = handle(Json::parse(line), line);
    }
  } catch (const RouterError& e) {
    response = structuredErrorJson(e.code, e.message);
  } catch (const std::exception& e) {
    response = errorJson(e.what());
  }
  return response.dump();
}

Json ClusterRouter::handle(const Json& request, const std::string& rawLine) {
  if (!request.isObject()) return errorJson("request must be a JSON object");
  const std::string op = request.at("op").asString();
  if (op == "synthesize") return handleSynthesize(request, rawLine);
  if (op == "sweep") return handleSweep(request);
  if (op == "wait" || op == "cancel") return handleWaitOrCancel(request, op);
  if (op == "explore") return handleExplore(request, rawLine);
  if (op == "explore_result") return handleExploreResult(request);
  if (op == "drain") return handleDrain(request);
  if (op == "add") return handleAdd(request);
  if (op == "stats") return handleStats();
  if (op == "health") return handleHealth();
  if (op == "topologies") return forwardToAnyShard(rawLine);
  if (op == "shutdown") return handleShutdown();

  // Any other op is forwarded verbatim: shards grow ops through
  // ServiceProtocol::registerOp (e.g. "verify") without a router release.
  // Ops that parse as a job request route by cache key so they land on the
  // shard holding that job's cached result; anything else spreads by
  // request text.  A genuinely unknown op comes back as the shard's own
  // structured unknown_op error, which lists what the daemon really
  // speaks.
  std::string key;
  try {
    key = routingKeyFor(request);
  } catch (const std::exception&) {
    key = "raw:" + rawLine;
  }
  auto [shard, response] = forwardRouted(key, rawLine);
  response.set("shard", shard);
  return response;
}

Json ClusterRouter::handleSynthesize(const Json& request,
                                     const std::string& rawLine) {
  const std::string key = routingKeyFor(request);
  auto [shard, response] = forwardRouted(key, rawLine);
  stampJob(response, shard, key, request);
  return response;
}

Json ClusterRouter::handleWaitOrCancel(const Json& request,
                                       const std::string& op) {
  if (op == "wait" && request.find("ids") != nullptr) {
    return handleMultiWait(request);
  }
  const std::uint64_t routerId = request.at("id").asUint64();
  const auto route = jobRoute_.find(routerId);
  if (route == jobRoute_.end()) {
    return errorJson("\"" + op + "\" needs a known job \"id\"");
  }
  return resolvePinned(routerId, route->second, request);
}

Json ClusterRouter::handleMultiWait(const Json& request) {
  const Json* ids = request.find("ids");
  if (ids == nullptr || !ids->isArray() || ids->items().empty()) {
    return errorJson("\"wait\" needs a non-empty \"ids\" array");
  }
  // Every id's wait carries the request's summary and trace flags.
  Json single = Json::object();
  single.set("op", "wait");
  if (request.at("summary").asBool()) single.set("summary", true);
  if (request.at("trace").asBool()) single.set("trace", true);

  // Place every id on a live shard up front (revive or re-pin as the
  // single-id path would), then send all the waits in one exchange.
  const std::vector<Json>& items = ids->items();
  std::vector<Json> outcomes(items.size());
  std::vector<Call> calls;
  std::vector<std::size_t> slotOf;
  for (std::size_t i = 0; i < items.size(); ++i) {
    auto route = jobRoute_.end();
    try {
      route = jobRoute_.find(items[i].asUint64());
    } catch (const service::JsonParseError&) {
      // No job has an id outside uint64 (-1, 1e30): unknown, like a string.
    }
    if (route == jobRoute_.end()) {
      outcomes[i] = errorJson("\"wait\" needs a known job \"id\"");
      continue;
    }
    Route& jr = route->second;
    try {
      if (!reviveShard(jr.shard)) repin(route->first, jr);
    } catch (const RouterError& e) {
      outcomes[i] = structuredErrorJson(e.code, e.message);
      continue;
    }
    single.set("id", jr.localId);
    calls.push_back({.shard = jr.shard, .line = single.dump()});
    slotOf.push_back(i);
  }
  exchange(calls);

  // Answers pair back to their slots.  An id its shard left unanswered
  // (died, wedged) or forgot (settled before a reboot) resolves through
  // the single-id path once every answer is in.
  std::vector<std::size_t> unresolved;
  for (std::size_t c = 0; c < calls.size(); ++c) {
    const std::uint64_t routerId = items[slotOf[c]].asUint64();
    std::optional<Json>& reply = calls[c].reply;
    if (!reply || forgotten(*reply, /*exploration=*/false)) {
      unresolved.push_back(c);
      continue;
    }
    ++shards_[static_cast<std::size_t>(calls[c].shard)].routedJobs;
    outcomes[slotOf[c]] =
        settle(routerId, jobRoute_.at(routerId), calls[c].shard, std::move(*reply));
  }
  for (const std::size_t c : unresolved) {
    const std::uint64_t routerId = items[slotOf[c]].asUint64();
    try {
      outcomes[slotOf[c]] = resolvePinned(routerId, jobRoute_.at(routerId), single);
    } catch (const RouterError& e) {
      outcomes[slotOf[c]] = structuredErrorJson(e.code, e.message);
    }
  }

  Json list = Json::array();
  for (Json& outcome : outcomes) list.push(std::move(outcome));
  Json out = Json::object();
  out.set("ok", true);
  out.set("outcomes", std::move(list));
  return out;
}

Json ClusterRouter::handleSweep(const Json& request) {
  const Json* jobs = request.find("jobs");
  if (jobs == nullptr || !jobs->isArray()) {
    return errorJson("\"sweep\" needs a \"jobs\" array");
  }
  const std::vector<Json>& entries = jobs->items();
  std::vector<std::string> keys;
  keys.reserve(entries.size());
  for (const Json& entry : entries) keys.push_back(routingKeyFor(entry));

  Json sub = Json::object();
  sub.set("op", "sweep");
  if (request.at("trace").asBool()) sub.set("trace", true);
  if (request.at("summary").asBool()) sub.set("summary", true);

  // Rounds: partition the unplaced entries by live owner (routeLive
  // revives a dead home shard once its backoff allows, else re-routes),
  // send every shard its sub-sweep in one exchange and place the answers
  // in request order.  A shard that dies or wedges hands its entries to
  // the next round, where a revived owner keeps them (its journal replay
  // turns the resend into coalesces and cache hits) and an unrevivable
  // one's move to the survivors.  Each failed round costs a shard life,
  // so the rounds end.
  std::vector<Json> placed(entries.size());
  std::vector<std::size_t> unplaced(entries.size());
  std::iota(unplaced.begin(), unplaced.end(), std::size_t{0});
  for (bool first = true; !unplaced.empty(); first = false) {
    std::map<int, std::vector<std::size_t>> byShard;
    for (const std::size_t idx : unplaced) {
      try {
        byShard[routeLive(keys[idx])].push_back(idx);
      } catch (const RouterError& e) {
        if (first) throw;
        placed[idx] = failedOutcome(e.code + ": " + e.message);
      }
    }
    std::vector<Call> calls;
    for (const auto& [shard, indices] : byShard) {
      Json subJobs = Json::array();
      for (const std::size_t idx : indices) subJobs.push(entries[idx]);
      sub.set("jobs", std::move(subJobs));
      calls.push_back({.shard = shard,
                       .line = sub.dump(),
                       .weight = static_cast<double>(indices.size())});
    }
    exchange(calls);

    unplaced.clear();
    auto group = byShard.begin();
    for (Call& call : calls) {
      const std::vector<std::size_t>& indices = (group++)->second;
      if (!call.reply) {
        unplaced.insert(unplaced.end(), indices.begin(), indices.end());
        continue;
      }
      const Json* outcomes = call.reply->find("outcomes");
      if (!call.reply->at("ok").asBool() || outcomes == nullptr ||
          outcomes->items().size() != indices.size()) {
        const std::string why = errorTextOf(*call.reply, "sweep failed");
        for (const std::size_t idx : indices) placed[idx] = failedOutcome(why);
        continue;
      }
      shards_[static_cast<std::size_t>(call.shard)].routedJobs += indices.size();
      for (std::size_t j = 0; j < indices.size(); ++j) {
        placed[indices[j]] = outcomes->items()[j];
        stampJob(placed[indices[j]], call.shard, keys[indices[j]], entries[indices[j]]);
      }
    }
  }

  Json outcomes = Json::array();
  for (Json& outcome : placed) outcomes.push(std::move(outcome));
  Json out = Json::object();
  out.set("ok", true);
  out.set("outcomes", std::move(outcomes));
  return out;
}

Json ClusterRouter::handleExplore(const Json& request, const std::string& rawLine) {
  // Explorations are not content-addressed; balance them by request text.
  const std::string key = "raw:" + rawLine;
  auto [shard, response] = forwardRouted(key, rawLine);
  if (response.at("ok").asBool()) {
    if (const Json* id = response.find("explore_id")) {
      response.set("explore_id",
                   pin({.shard = shard,
                        .localId = id->asUint64(),
                        .key = key,
                        .resubmitLine = asyncResubmitLine(request),
                        .exploration = true}));
    }
  }
  response.set("shard", shard);
  return response;
}

Json ClusterRouter::handleExploreResult(const Json& request) {
  const std::uint64_t routerId = request.at("explore_id").asUint64();
  const auto route = exploreRoute_.find(routerId);
  if (route == exploreRoute_.end()) {
    return errorJson("\"explore_result\" needs a known \"explore_id\"");
  }
  // A revived shard resumes the session from its explore journal (cached
  // evaluations replay as hits); a lost one re-runs on a survivor, whose
  // front the explorer's determinism per (space, options) and the shared
  // store make byte-identical to the lost shard's.
  return resolvePinned(routerId, route->second, request);
}

Json ClusterRouter::handleDrain(const Json& request) {
  const Json* shardField = request.find("shard");
  if (shardField == nullptr) {
    return errorJson("\"drain\" needs a \"shard\" index");
  }
  const int victim = shardField->asInt(-1);
  if (victim < 0 || victim >= shardCount()) {
    return errorJson("\"drain\": no such shard " + std::to_string(victim));
  }
  Shard& st = shards_[static_cast<std::size_t>(victim)];
  if (!st.member) {
    return errorJson(shardLabel(victim) + " is already drained");
  }
  if (memberCount() <= 1) {
    return errorJson("cannot drain the last member shard");
  }

  // Prefer a live victim for the graceful path (waiting out its jobs);
  // everything below still works without one via lazy failover.  Revive
  // before leaving the ring -- reviveShard refuses non-members.
  (void)reviveShard(victim, /*ignoreBackoff=*/true);
  // Out of the ring first: from here no new key routes to the victim.
  st.member = false;

  // Wait out the victim's in-flight jobs in one exchange.  Each settles
  // into the shared store (so later wait/cancel from clients resolves
  // anywhere as a cache hit); a job the victim cannot settle re-pins to
  // its inheritor now.
  std::vector<std::uint64_t> inFlight;
  std::vector<Call> waits;
  Json wait = Json::object();
  wait.set("op", "wait");
  for (const auto& [routerId, jr] : jobRoute_) {
    if (jr.shard != victim || jr.terminal) continue;
    wait.set("id", jr.localId);
    inFlight.push_back(routerId);
    waits.push_back({.shard = victim, .line = wait.dump()});
  }
  exchange(waits);
  std::uint64_t jobsSettled = 0;
  std::uint64_t jobsMoved = 0;
  for (std::size_t i = 0; i < inFlight.size(); ++i) {
    Route& jr = jobRoute_.at(inFlight[i]);
    if (waits[i].reply && terminalState(*waits[i].reply)) {
      jr.terminal = true;
      ++jobsSettled;
      continue;
    }
    try {
      repin(inFlight[i], jr);
      ++jobsMoved;
    } catch (const RouterError&) {
      // Left pinned; the client's next wait retries the failover.
    }
  }

  // Hand the victim's explore sessions to their inheritors: resubmit each
  // stored request (the same payload the session journal holds) onto the
  // ring.  The re-run fast-forwards through the shared cache, so no
  // explore budget is lost.
  std::uint64_t sessionsMoved = 0;
  for (auto& [routerId, er] : exploreRoute_) {
    if (er.shard != victim) continue;
    try {
      repin(routerId, er);
      ++sessionsMoved;
    } catch (const RouterError&) {
      // Left pinned; explore_result retries the failover lazily.
    }
  }

  // Stop the worker: polite shutdown first (drains its queue), then
  // terminate.  Not a transport error -- this death was ordered.
  (void)ask(victim, R"({"op":"shutdown"})");
  st.process->terminate(2.0);
  st.alive = false;
  ++drains_;

  Json out = Json::object();
  out.set("ok", true);
  out.set("drained", victim);
  out.set("jobs_settled", jobsSettled);
  out.set("jobs_moved", jobsMoved);
  out.set("sessions_moved", sessionsMoved);
  out.set("members", static_cast<std::uint64_t>(memberCount()));
  return out;
}

Json ClusterRouter::handleAdd(const Json& request) {
  int target = -1;
  if (const Json* shardField = request.find("shard")) {
    // Re-admit a drained shard.
    target = shardField->asInt(-1);
    if (target < 0 || target >= shardCount()) {
      return errorJson("\"add\": no such shard " + std::to_string(target));
    }
    Shard& st = shards_[static_cast<std::size_t>(target)];
    if (st.member) {
      return errorJson(shardLabel(target) + " is already a member");
    }
    st.member = true;
    st.backoffStreak = 0;
    st.nextRestartAt = 0.0;
    if (!st.alive) {
      try {
        spawnShard(target);
      } catch (const std::exception& e) {
        st.member = false;
        return errorJson(shardLabel(target) +
                         " failed to start: " + std::string(e.what()));
      }
    }
  } else {
    // Grow the ring by a brand-new shard.  Only the key ranges its vnodes
    // capture change owner; its cold caches warm lazily through peer-fill
    // from the shared store, so moved keys cost a disk read, not a re-run.
    target = ring_.addShard();
    Shard st;
    st.process = std::make_unique<ShardProcess>();
    st.argv = buildShardArgv(target);
    shards_.push_back(std::move(st));
    try {
      spawnShard(target);
    } catch (const std::exception& e) {
      shards_.back().member = false;
      return errorJson(shardLabel(target) +
                       " failed to start: " + std::string(e.what()));
    }
  }
  ++adds_;
  Json out = Json::object();
  out.set("ok", true);
  out.set("shard", target);
  out.set("members", static_cast<std::uint64_t>(memberCount()));
  out.set("peer_fill", !options_.cacheDir.empty());
  return out;
}

Json ClusterRouter::forwardToAnyShard(const std::string& rawLine) {
  auto [shard, response] = forwardRouted("any", rawLine);
  response.set("shard", shard);
  return response;
}

Json ClusterRouter::handleStats() {
  for (int s = 0; s < shardCount(); ++s) (void)reviveShard(s);
  std::vector<std::optional<Json>> replies = askMembers(R"({"op":"stats"})");
  Json cluster = Json::object();
  Json perShard = Json::object();
  for (int s = 0; s < shardCount(); ++s) {
    const std::optional<Json>& reply = replies[static_cast<std::size_t>(s)];
    if (!reply) {
      Json absent = Json::object();
      if (shards_[static_cast<std::size_t>(s)].member) {
        absent.set("down", true);
      } else {
        absent.set("member", false);
      }
      perShard.set(shardLabel(s), std::move(absent));
      continue;
    }
    const Json& stats = reply->at("stats");
    // Cluster totals sum the scheduler-shaped sections; registered extras
    // (e.g. "explorations") stay per-shard only -- their insides are not
    // meaningfully additive.
    for (const char* section : {"jobs", "stages", "cache", "queue"}) {
      if (const Json* body = stats.find(section); body && body->isObject()) {
        Json total = Json::object();
        if (const Json* prior = cluster.find(section)) total = *prior;
        sumInto(total, *body);
        cluster.set(section, std::move(total));
      }
    }
    perShard.set(shardLabel(s), stats);
  }

  Json router = Json::object();
  router.set("shards", static_cast<std::uint64_t>(shardCount()));
  router.set("members", static_cast<std::uint64_t>(memberCount()));
  std::uint64_t aliveCount = 0;
  std::uint64_t routedJobs = 0;
  std::uint64_t transportErrors = 0;
  for (const Shard& shard : shards_) {
    if (shard.alive) ++aliveCount;
    routedJobs += shard.routedJobs;
    transportErrors += shard.transportErrors;
  }
  router.set("alive", aliveCount);
  router.set("routed_jobs", routedJobs);
  router.set("rerouted", rerouted_);
  router.set("restarts", restarts());
  router.set("transport_errors", transportErrors);
  router.set("job_failovers", jobFailovers_);
  router.set("explore_failovers", exploreFailovers_);
  router.set("drains", drains_);
  router.set("adds", adds_);

  Json stats = Json::object();
  stats.set("cluster", std::move(cluster));
  stats.set("router", std::move(router));
  stats.set("shards", std::move(perShard));
  Json out = Json::object();
  out.set("ok", true);
  out.set("stats", std::move(stats));
  return out;
}

Json ClusterRouter::handleHealth() {
  // Health is observability, not surgery: it reports dead shards rather
  // than reviving them (the next routed job does the healing).
  std::vector<std::optional<Json>> replies = askMembers(R"({"op":"health"})");
  const double now = nowSeconds();
  Json perShard = Json::object();
  std::uint64_t aliveMembers = 0;
  for (int s = 0; s < shardCount(); ++s) {
    Shard& st = shards_[static_cast<std::size_t>(s)];
    Json entry = Json::object();
    entry.set("alive", st.alive);
    entry.set("member", st.member);
    entry.set("pid", static_cast<std::int64_t>(st.process->pid()));
    entry.set("restarts", static_cast<std::uint64_t>(st.restarts));
    entry.set("routed_jobs", st.routedJobs);
    entry.set("transport_errors", st.transportErrors);
    entry.set("replayed_records", st.lastReplayedRecords);
    entry.set("recovered_jobs", st.lastRecoveredJobs);
    if (!st.lastRestartReason.empty()) {
      entry.set("last_restart_reason", st.lastRestartReason);
      Json history = Json::array();
      for (const std::string& reason : st.restartHistory) history.push(reason);
      entry.set("restart_history", std::move(history));
    }
    if (!st.alive && st.member) {
      entry.set("backoff_seconds", std::max(0.0, st.nextRestartAt - now));
    }
    if (const std::optional<Json>& reply = replies[static_cast<std::size_t>(s)]) {
      entry.set("health", reply->at("health"));
    }
    if (st.alive && st.member) ++aliveMembers;
    perShard.set(shardLabel(s), std::move(entry));
  }

  Json cluster = Json::object();
  cluster.set("shards", static_cast<std::uint64_t>(shardCount()));
  cluster.set("members", static_cast<std::uint64_t>(memberCount()));
  cluster.set("alive", aliveMembers);
  // all_alive is a membership invariant: drained shards are intentionally
  // gone and must not mark a healthy cluster degraded.
  cluster.set("all_alive",
              aliveMembers == static_cast<std::uint64_t>(memberCount()));
  cluster.set("restarts", restarts());
  cluster.set("rerouted", rerouted_);
  cluster.set("job_failovers", jobFailovers_);
  cluster.set("explore_failovers", exploreFailovers_);
  cluster.set("drains", drains_);
  cluster.set("adds", adds_);

  Json health = Json::object();
  health.set("cluster", std::move(cluster));
  health.set("shards", std::move(perShard));
  Json out = Json::object();
  out.set("ok", true);
  out.set("health", std::move(health));
  return out;
}

Json ClusterRouter::handleShutdown() {
  shutdown_ = true;
  // Polite first: every shard acks and drains; terminate() then closes
  // its stdin and escalates only if it lingers.
  std::uint64_t stopped = 0;
  for (const Shard& st : shards_) stopped += st.alive ? 1 : 0;
  (void)askMembers(R"({"op":"shutdown"})");
  for (Shard& st : shards_) {
    st.process->terminate(2.0);
    st.alive = false;
  }
  Json out = Json::object();
  out.set("ok", true);
  out.set("shutting_down", true);
  out.set("shards_stopped", stopped);
  return out;
}

void ClusterRouter::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) {
    out << handleLine(line) << "\n" << std::flush;
    if (shutdown_) break;
  }
}

pid_t ClusterRouter::shardPid(int shard) const {
  return shards_[static_cast<std::size_t>(shard)].process->pid();
}

void ClusterRouter::killShard(int shard) {
  // Signal only, no fd surgery: this is called from fault-injection
  // threads while the router may be mid-request on the same shard, and
  // the EOF path is exactly the failure the router is built to absorb.
  const pid_t pid = shards_[static_cast<std::size_t>(shard)].process->pid();
  if (pid > 0) ::kill(pid, SIGKILL);
}

void ClusterRouter::wedgeShard(int shard) {
  // SIGSTOP: the child keeps its pipes open but answers nothing, which is
  // the wedge the request timeout exists for.  The recycle path's SIGKILL
  // terminates stopped processes too, so no SIGCONT is ever needed.
  const pid_t pid = shards_[static_cast<std::size_t>(shard)].process->pid();
  if (pid > 0) ::kill(pid, SIGSTOP);
}

std::uint64_t ClusterRouter::restarts() const {
  std::uint64_t total = 0;
  for (const Shard& shard : shards_) {
    total += static_cast<std::uint64_t>(shard.restarts);
  }
  return total;
}

}  // namespace lo::cluster
