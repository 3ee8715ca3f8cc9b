#include "service/protocol.hpp"

#include <istream>
#include <ostream>

#include "core/topology.hpp"
#include "service/serialize.hpp"
#include "verify/verify.hpp"

namespace lo::service {

namespace {

Json errorResponse(const std::string& why) {
  Json out = Json::object();
  out.set("ok", false);
  out.set("error", why);
  return out;
}

/// Admission rejections answer with a machine-readable error object so
/// clients can distinguish "back off and retry" from a real failure.
Json structuredError(const std::string& code, const std::string& message,
                     std::size_t queueDepth, int retryAfterMs) {
  Json err = Json::object();
  err.set("code", code);
  err.set("message", message);
  err.set("queue_depth", static_cast<std::uint64_t>(queueDepth));
  err.set("retry_after_ms", retryAfterMs);
  Json out = Json::object();
  out.set("ok", false);
  out.set("error", std::move(err));
  return out;
}

}  // namespace

JobRequest parseJobRequest(const Json& request) {
  JobRequest job;
  job.label = request.at("label").asString();
  if (const Json* topology = request.find("topology")) {
    job.options.topology = topology->asString();
  }
  if (const Json* sizingCase = request.find("case")) {
    job.options.sizingCase = sizingCaseFromJson(*sizingCase);
  }
  if (const Json* model = request.find("model")) {
    job.options.modelName = model->asString();
  }
  if (const Json* bias = request.find("bias")) {
    job.options.includeBiasGenerator = bias->asBool();
  }
  if (const Json* spec = request.find("spec")) {
    specsFromJson(*spec, job.specs);
    requireSpecDomain(job.specs);
  }
  if (const Json* plv = request.find("post_layout_verify")) {
    // Accepts a bare bool for the common case and an object for tuning:
    // {"post_layout_verify": true} or
    // {"post_layout_verify": {"enabled": true, "rel_tolerance": 0.05, ...}}.
    verify::VerificationOptions& pv = job.options.postLayoutVerify;
    if (plv->isObject()) {
      pv.enabled = plv->at("enabled").asBool(true);
      if (const Json* f = plv->find("rel_tolerance")) pv.relTolerance = f->asDouble();
      if (const Json* f = plv->find("thd_fundamental_hz")) {
        pv.thdFundamentalHz = f->asDouble();
      }
      if (const Json* f = plv->find("thd_amplitude_v")) pv.thdAmplitudeV = f->asDouble();
      if (const Json* f = plv->find("thd_settle_cycles")) pv.thdSettleCycles = f->asInt();
      if (const Json* f = plv->find("thd_cycles")) pv.thdCycles = f->asInt();
      if (const Json* f = plv->find("thd_samples_per_cycle")) {
        pv.thdSamplesPerCycle = f->asInt();
      }
      if (const Json* f = plv->find("harmonics")) pv.harmonics = f->asInt();
      if (const Json* f = plv->find("sweep_points")) pv.sweepPoints = f->asInt();
      if (const Json* f = plv->find("tracking_tolerance")) {
        pv.trackingTolerance = f->asDouble();
      }
    } else {
      pv.enabled = plv->asBool();
    }
    verify::requireOptionsDomain(pv);
  }
  if (const Json* corner = request.find("corner")) {
    job.corner = cornerFromName(corner->asString());
  }
  job.priority = request.at("priority").asInt();
  job.deadlineSeconds = request.at("deadline_seconds").asDouble();
  job.maxRetries = request.at("max_retries").asInt();
  job.bypassCache = request.at("no_cache").asBool();
  return job;
}

std::string ServiceProtocol::handleLine(const std::string& line) {
  Json response;
  try {
    if (line.size() > kMaxRequestLineBytes) {
      response = errorResponse("request line too long (" +
                               std::to_string(line.size()) + " bytes, limit " +
                               std::to_string(kMaxRequestLineBytes) + ")");
    } else {
      response = handle(Json::parse(line));
    }
  } catch (const OverloadedError& e) {
    response = structuredError("overloaded", e.what(), e.queueDepth(),
                               e.retryAfterMs());
  } catch (const QueueFullError& e) {
    response = structuredError("queue_full", e.what(), e.queueDepth(), 0);
  } catch (const CircuitOpenError& e) {
    response = structuredError("circuit_open", e.what(),
                               scheduler_.queueDepth(), e.retryAfterMs());
  } catch (const std::exception& e) {
    response = errorResponse(e.what());
  }
  std::string text = response.dump();
  if (responseTransform_) text = responseTransform_(std::move(text));
  return text;
}

void ServiceProtocol::registerOp(const std::string& op, OpHandler handler) {
  if (!handler) throw std::invalid_argument("null handler for op \"" + op + "\"");
  static const char* kBuiltins[] = {"synthesize", "sweep",      "wait",
                                    "cancel",     "stats",      "health",
                                    "topologies", "shutdown"};
  for (const char* builtin : kBuiltins) {
    if (op == builtin) {
      throw std::invalid_argument("cannot override built-in op \"" + op + "\"");
    }
  }
  if (!extraOps_.emplace(op, std::move(handler)).second) {
    throw std::invalid_argument("op \"" + op + "\" is already registered");
  }
}

void ServiceProtocol::registerStatsSection(const std::string& key,
                                           StatsProvider provider) {
  if (!provider) {
    throw std::invalid_argument("null stats provider for \"" + key + "\"");
  }
  if (!statsSections_.emplace(key, std::move(provider)).second) {
    throw std::invalid_argument("stats section \"" + key +
                                "\" is already registered");
  }
}

void ServiceProtocol::serve(std::istream& in, std::ostream& out) {
  std::string line;
  while (!shutdown_ && std::getline(in, line)) {
    if (line.empty()) continue;
    out << handleLine(line) << "\n" << std::flush;
  }
}

Json ServiceProtocol::handle(const Json& request) {
  if (!request.isObject()) return errorResponse("request must be a JSON object");
  const std::string op = request.at("op").asString();
  if (op == "synthesize") return handleSynthesize(request);
  if (op == "sweep") return handleSweep(request);
  if (op == "stats") return handleStats();
  if (op == "health") return handleHealth();
  if (op == "wait") {
    const std::uint64_t id = request.at("id").asUint64();
    if (id == 0) return errorResponse("\"wait\" needs a numeric \"id\"");
    return outcomeJson(scheduler_.wait(id), request.at("trace").asBool(),
                       request.at("summary").asBool());
  }
  if (op == "cancel") {
    const std::uint64_t id = request.at("id").asUint64();
    if (id == 0) return errorResponse("\"cancel\" needs a numeric \"id\"");
    Json out = Json::object();
    out.set("ok", true);
    out.set("id", id);
    out.set("cancelled", scheduler_.cancel(id));
    return out;
  }
  if (op == "topologies") {
    Json names = Json::array();
    for (const std::string& name : core::TopologyRegistry::instance().names()) {
      names.push(name);
    }
    Json out = Json::object();
    out.set("ok", true);
    out.set("topologies", std::move(names));
    return out;
  }
  if (op == "shutdown") {
    shutdown_ = true;
    Json out = Json::object();
    out.set("ok", true);
    out.set("shutting_down", true);
    return out;
  }
  const auto extra = extraOps_.find(op);
  if (extra != extraOps_.end()) return extra->second(request);
  // Machine-readable like the admission rejections: routers and clients
  // can distinguish "this daemon does not speak the op" from a failure.
  Json knownOps = Json::array();
  for (const char* builtin :
       {"synthesize", "sweep", "wait", "cancel", "stats", "health",
        "topologies", "shutdown"}) {
    knownOps.push(builtin);
  }
  for (const auto& [name, handler] : extraOps_) knownOps.push(name);
  Json err = Json::object();
  err.set("code", "unknown_op");
  err.set("message", "unknown op \"" + op + "\"");
  err.set("known_ops", std::move(knownOps));
  Json out = Json::object();
  out.set("ok", false);
  out.set("error", std::move(err));
  return out;
}

Json ServiceProtocol::outcomeJson(const JobStatus& status, bool includeTrace,
                                  bool summary) const {
  Json out = Json::object();
  out.set("ok", true);
  out.set("id", status.id);
  if (!status.label.empty()) out.set("label", status.label);
  out.set("state", jobStateName(status.state));
  out.set("cache_hit", status.cacheHit);
  if (status.coalesced) out.set("coalesced", true);
  if (status.recovered) out.set("recovered", true);
  out.set("attempts", status.attempts);
  if (status.retries > 0) out.set("retries", status.retries);
  if (!status.cacheKey.empty()) out.set("cache_key", status.cacheKey);
  if (status.state == JobState::kDone) {
    if (!summary) out.set("result", toJson(status.result));
  } else if (!status.error.empty()) {
    out.set("error", status.error);
  }
  if (includeTrace) {
    out.set("trace", traceToJson(status.id, status.label,
                                 jobStateName(status.state), status.cacheHit,
                                 status.attempts, status.retries, status.trace));
  }
  return out;
}

Json ServiceProtocol::handleSynthesize(const Json& request) {
  const JobRequest job = parseJobRequest(request);
  const std::uint64_t id = scheduler_.submit(job);
  if (request.at("async").asBool()) {
    Json out = Json::object();
    out.set("ok", true);
    out.set("id", id);
    out.set("state", "queued");
    const std::string key = scheduler_.cacheKeyFor(job);
    if (!key.empty()) out.set("cache_key", key);
    return out;
  }
  return outcomeJson(scheduler_.wait(id), request.at("trace").asBool(),
                     request.at("summary").asBool());
}

Json ServiceProtocol::handleSweep(const Json& request) {
  const Json* jobsField = request.find("jobs");
  if (jobsField == nullptr || !jobsField->isArray()) {
    return errorResponse("\"sweep\" needs a \"jobs\" array");
  }
  std::vector<JobRequest> jobs;
  jobs.reserve(jobsField->items().size());
  for (const Json& entry : jobsField->items()) {
    jobs.push_back(parseJobRequest(entry));
  }
  const std::vector<JobStatus> statuses = scheduler_.runBatch(jobs);
  const bool includeTrace = request.at("trace").asBool();
  const bool summary = request.at("summary").asBool();
  Json outcomes = Json::array();
  for (const JobStatus& status : statuses) {
    outcomes.push(outcomeJson(status, includeTrace, summary));
  }
  Json out = Json::object();
  out.set("ok", true);
  out.set("outcomes", std::move(outcomes));
  return out;
}

Json ServiceProtocol::handleHealth() const {
  const HealthSnapshot h = scheduler_.health();
  Json queue = Json::object();
  queue.set("depth", static_cast<std::uint64_t>(h.queueDepth));
  queue.set("limit", static_cast<std::uint64_t>(h.queueLimit));
  queue.set("shed_depth", static_cast<std::uint64_t>(h.shedDepth));
  queue.set("running", static_cast<std::uint64_t>(h.running));
  queue.set("workers", h.workers);
  queue.set("overloaded", h.overloaded);

  Json breakers = Json::object();
  for (const BreakerSnapshot& b : h.breakers) {
    Json entry = Json::object();
    entry.set("state", b.state);
    entry.set("consecutive_failures", b.consecutiveFailures);
    entry.set("opens", b.opens);
    entry.set("rejections", b.rejections);
    breakers.set(b.topology, std::move(entry));
  }

  Json journal = Json::object();
  journal.set("enabled", h.journal.enabled);
  if (h.journal.enabled) {
    journal.set("records_in_log", h.journal.recordsInLog);
    journal.set("live_jobs", h.journal.liveJobs);
    journal.set("lag", h.journal.lag);
    journal.set("replayed_records", h.journal.replayedRecords);
    journal.set("recovered_jobs", h.journal.recoveredJobs);
    journal.set("recovered_remaining", h.journal.recoveredRemaining);
    journal.set("compactions", h.journal.compactions);
    journal.set("torn_tail_recovered", h.journal.tornTailRecovered);
  }

  Json health = Json::object();
  health.set("queue", std::move(queue));
  health.set("breakers", std::move(breakers));
  health.set("journal", std::move(journal));
  Json out = Json::object();
  out.set("ok", true);
  out.set("health", std::move(health));
  return out;
}

Json ServiceProtocol::handleStats() const {
  Json stats = metricsToJson(scheduler_.metrics(), scheduler_.cacheStats(),
                             scheduler_.queueDepth(), scheduler_.runningCount(),
                             scheduler_.workerCount());
  for (const auto& [key, provider] : statsSections_) stats.set(key, provider());
  Json out = Json::object();
  out.set("ok", true);
  out.set("stats", std::move(stats));
  return out;
}

}  // namespace lo::service
