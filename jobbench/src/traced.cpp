// The traced run: replay the requests an untraced run sent, in-process,
// through each layer's public calls, and turn the spans into the per-layer
// ledger.
//
// Span trees.  An "exchange" root is one closed-loop exchange re-enacted
// in the order the servers do the work: router key derivation and ring
// lookup (cluster), request decode (protocol), cache key, journal append
// (not on router_warm, whose shards keep no journal), cache lookup, the
// engine run with one span per engine stage (core),
// cache insert, response encode (protocol) and the router's re-encode
// (cluster).  Only exchange roots enter the layer shares.  Side roots
// measure what a workload's job path does not run, so every per-layer
// metric is measured on every workload without distorting its shares:
//  * "replay"  -- verification re-run analysis by analysis on the job's
//                 extracted design (sim, verify; the post-layout tier where
//                 the engine did not run it);
//  * "prefill" -- router_warm's pool synthesized cold, in-process;
//  * "probe"   -- warm hits through a real in-process ClusterRouter, a
//                 standalone losynthd shard and an in-process JobScheduler.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "circuit/circuit.hpp"
#include "cluster/process.hpp"
#include "cluster/ring.hpp"
#include "cluster/router.hpp"
#include "core/engine.hpp"
#include "jobbench.hpp"
#include "layout/extract.hpp"
#include "service/cache.hpp"
#include "service/journal.hpp"
#include "service/protocol.hpp"
#include "service/scheduler.hpp"
#include "service/serialize.hpp"
#include "sim/simulator.hpp"
#include "sizing/verify.hpp"
#include "verify/verify.hpp"

namespace jobbench {

namespace {

namespace core = lo::core;
namespace service = lo::service;
using service::Json;

constexpr int kMaxColdJobs = 400;
constexpr int kMaxWarmExchanges = 2000;
/// Warm probes on the cold workloads (lines taken from the traced jobs).
constexpr int kColdProbeLines = 32;
/// Job ids of side roots that mirror no exchange.
constexpr int kPrefillJobBase = 1000000;
constexpr int kProbeJobBase = 2000000;
/// losynthd's default --cache-capacity, which the cold workloads run with.
constexpr std::size_t kDaemonCacheCapacity = 256;
/// Where the engine does not run the post-layout tier, the replay runs it
/// on every n-th job.
constexpr int kTierReplayEvery = 4;

class Tracer {
 public:
  std::vector<Span> spans;
  int job = -1;

  int open(const char* name) {
    Span s;
    s.name = name;
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.job = job;
    s.start = nowSeconds();
    spans.push_back(s);
    stack_.push_back(static_cast<int>(spans.size()) - 1);
    return stack_.back();
  }
  void close() {
    spans[static_cast<std::size_t>(stack_.back())].end = nowSeconds();
    stack_.pop_back();
  }
  template <class F>
  auto span(const char* name, F&& body) -> decltype(body()) {
    open(name);
    struct Closer {
      Tracer& t;
      ~Closer() { t.close(); }
    } closer{*this};
    return body();
  }

 private:
  std::vector<int> stack_;
};

const char* stageSpanName(core::EngineStage stage) {
  switch (stage) {
    case core::EngineStage::kSizing: return "core.sizing";
    case core::EngineStage::kParasiticLayout: return "core.parasitic_layout";
    case core::EngineStage::kGeneration: return "core.generation";
    case core::EngineStage::kExtraction: return "core.extraction";
    case core::EngineStage::kVerification: return "core.verification";
    case core::EngineStage::kPostLayoutVerify: return "core.post_layout_verify";
  }
  return "core.unknown";
}

const char* const kStageSpans[] = {"core.sizing",     "core.parasitic_layout",
                                   "core.generation", "core.extraction",
                                   "core.verification", "core.post_layout_verify"};

/// What ServiceProtocol puts on the wire for a done job.
Json outcomeJson(std::uint64_t id, const std::string& label, const std::string& key,
                 bool cacheHit, const core::EngineResult* result) {
  Json out = Json::object();
  out.set("ok", true);
  out.set("id", id);
  if (!label.empty()) out.set("label", label);
  out.set("state", "done");
  out.set("cache_hit", cacheHit);
  out.set("attempts", cacheHit ? 0 : 1);
  out.set("cache_key", key);
  if (result != nullptr) out.set("result", service::toJson(*result));
  return out;
}

std::string outcomeLine(std::uint64_t id, const std::string& label, const std::string& key,
                        bool cacheHit, const core::EngineResult* result) {
  return outcomeJson(id, label, key, cacheHit, result).dump();
}

service::JournalRecord journalRecord(service::JournalRecordType type, std::uint64_t id,
                                     const std::string& key, const service::JobRequest* job) {
  service::JournalRecord rec;
  rec.type = type;
  rec.id = id;
  rec.cacheKey = key;
  if (job != nullptr) rec.job = service::toJson(*job);
  if (type == service::JournalRecordType::kFinished) rec.state = "done";
  return rec;
}

/// sizing::measureAmplifier's slew testbench, rebuilt here (it is private
/// to lo_sizing) so its transient can be timed on its own.
lo::circuit::Circuit slewTestbench(const lo::sizing::AmpInstantiateFn& instantiate,
                                   double inputCm, const lo::layout::ParasiticReport* parasitics,
                                   const lo::sizing::VerifyOptions& o) {
  using lo::circuit::Waveform;
  lo::circuit::Circuit c;
  c.title = "amplifier slew testbench";
  instantiate(c);
  const auto out = *c.findNode("out");
  const auto inn = *c.findNode("inn");
  const auto inp = *c.findNode("inp");
  c.addVSource("VSHORT", out, inn, Waveform::makeDc(0.0));
  const double a = o.stepAmplitude;
  c.addVSource("VIN", inp, lo::circuit::kGround,
               Waveform::makePulse(inputCm - a / 2, inputCm + a / 2, 20e-9, 1e-9, 1e-9,
                                   o.tranStop / 2, o.tranStop * 2));
  if (parasitics) lo::layout::annotateCircuit(c, *parasitics);
  return c;
}

struct SimCounts {
  double newtonIters = 0, luFactorizations = 0, luSolves = 0, acPoints = 0, tranSteps = 0;
  void add(const lo::sim::SimStats& s) {
    newtonIters += static_cast<double>(s.newtonIterations);
    luFactorizations += static_cast<double>(s.luFactorizations);
    luSolves += static_cast<double>(s.luSolves);
    acPoints += static_cast<double>(s.acPoints);
  }
};

/// One cold job kept alive for its verification replay: the engine owns
/// the model and the topology the extracted design, both referenced by
/// the verification setup.
struct ColdJob {
  explicit ColdJob(const lo::tech::Technology& t) : tech(t) {}
  service::JobRequest job;
  Json request;
  std::string key;
  lo::tech::Technology tech;
  std::unique_ptr<core::SynthesisEngine> engine;
  std::unique_ptr<core::Topology> topology;
  core::EngineResult result;
};

struct ExchangeTiming {
  int jobs = 0;
  std::vector<double> jobStart;
  double end = 0.0;
};

class TracedRun {
 public:
  TracedRun(const RunConfig& config, const std::string& dir)
      : config_(config),
        dir_(dir),
        techPrint_(service::ResultCache::techFingerprint(base_)),
        store_(cacheOptions(kDaemonCacheCapacity)),
        journal_(journalOptions(dir + "/journal")),
        ring_(kRouterShards) {}

  TracedResult run(int exchanges, double untracedP50Ms);

 private:
  service::CacheOptions cacheOptions(std::size_t capacity) const {
    service::CacheOptions o;
    o.capacity = capacity;
    o.diskDir = dir_ + "/store";
    return o;
  }
  static service::JournalOptions journalOptions(const std::string& path) {
    service::JournalOptions o;
    o.dir = path;
    return o;
  }
  /// A losynthd shard as router_warm runs it: no journal, and the shared
  /// disk store unless a router passes its own --cache-dir.
  std::vector<std::string> workerArgv(bool withStore) const {
    std::vector<std::string> argv{config_.toolsDir + "/losynthd", "--threads", "1",
                                  "--cache-capacity", std::to_string(warmCapacity())};
    if (withStore) argv.insert(argv.end(), {"--cache-dir", dir_ + "/store"});
    return argv;
  }
  std::size_t warmCapacity() const {
    return config_.workload == Workload::kRouterWarm ? kRouterCacheCapacity
                                                    : kDaemonCacheCapacity;
  }

  std::unique_ptr<ColdJob> coldPath(const std::string& line, std::uint64_t id);
  void replay(ColdJob& cj, bool postLayoutTier);
  void warmExchange(const Exchange& ex, std::uint64_t& nextId);
  void probe(const Exchange& ex, int jobId);
  void lookupSpan(service::ResultCache& cache, const std::string& key,
                  core::EngineResult* out);
  /// The router's per-entry routing work: parseJobRequest + keyFor +
  /// ShardRing::routeOf, as a "cluster.route" span.  Returns the shard.
  int routeSpan(const Json& entry);
  TracedResult ledger(double untracedP50Ms);

  const RunConfig& config_;
  std::string dir_;
  lo::tech::Technology base_ = lo::tech::Technology::generic060();
  std::string techPrint_;
  service::ResultCache store_;
  service::JobJournal journal_;
  lo::cluster::ShardRing ring_;
  Tracer tr_;

  std::map<int, ExchangeTiming> exchanges_;
  std::map<int, SimCounts> simCounts_;
  std::map<int, double> responseBytes_;
  int engineJobs_ = 0, converged_ = 0, specPass_ = 0, checked_ = 0, failed_ = 0;
  std::vector<std::string> problems_;

  // router_warm's per-shard state for the re-enacted shard side.
  std::vector<std::unique_ptr<service::ResultCache>> shardCaches_;
  // Probe pieces (created on first use).
  std::unique_ptr<service::JobScheduler> scheduler_;
  std::unique_ptr<lo::cluster::ClusterRouter> router_;
  std::unique_ptr<lo::cluster::ShardProcess> shard_;
};

std::unique_ptr<ColdJob> TracedRun::coldPath(const std::string& line, std::uint64_t id) {
  using service::JournalRecordType;
  Json request;
  service::JobRequest job;
  tr_.span("protocol.decode", [&] {
    request = Json::parse(line);
    job = service::parseJobRequest(request);
  });
  const std::string key = tr_.span("cache.key", [&] {
    return service::ResultCache::keyFor(job.options, job.specs, job.corner, techPrint_);
  });
  tr_.span("journal.append", [&] {
    journal_.append(journalRecord(JournalRecordType::kSubmitted, id, key, &job), true);
  });
  tr_.span("cache.miss", [&] { (void)store_.lookup(key); });
  tr_.span("journal.flush", [&] {
    journal_.append(journalRecord(JournalRecordType::kStarted, id, key, nullptr), false);
  });

  auto cj = std::make_unique<ColdJob>(base_.atCorner(job.corner));
  cj->job = job;
  cj->request = request;
  cj->key = key;
  tr_.span("core.run", [&] {
    core::EngineOptions options = job.options;
    options.hooks.onStageStart = [this](core::EngineStage s) { tr_.open(stageSpanName(s)); };
    options.hooks.onStage = [this](core::EngineStage, double) { tr_.close(); };
    cj->engine = std::make_unique<core::SynthesisEngine>(cj->tech, options);
    cj->topology = core::TopologyRegistry::instance().create(options.topology, cj->tech,
                                                             cj->engine->model());
    cj->result = cj->engine->run(*cj->topology, job.specs);
  });
  tr_.span("cache.insert", [&] { store_.insert(key, cj->result); });
  tr_.span("journal.flush", [&] {
    journal_.append(journalRecord(JournalRecordType::kFinished, id, key, nullptr), false);
  });
  const std::string encoded = tr_.span("protocol.encode", [&] {
    return outcomeLine(id, job.label, key, false, &cj->result);
  });
  responseBytes_[tr_.job] += static_cast<double>(encoded.size());
  return cj;
}

void TracedRun::replay(ColdJob& cj, bool postLayoutTier) {
  namespace sim = lo::sim;
  const lo::verify::VerificationSetup setup = cj.topology->verificationSetup();
  const lo::device::MosModel& model = cj.engine->model();
  const lo::sizing::VerifyOptions& vo = cj.job.options.verifyOptions;
  sim::SimOptions so;
  so.tempK = cj.tech.temperature;
  SimCounts& counts = simCounts_[tr_.job];
  tr_.span("replay", [&] {
    {
      const lo::circuit::Circuit c = lo::sizing::buildAmpAcTestbench(
          setup.postLayout, setup.inputCm, setup.parasitics, 0.0, 0.0, 0.0);
      const sim::Simulator simulator(c, cj.tech, model, so);
      const auto out = *c.findNode("out");
      const sim::DcSolution op = tr_.span("sim.dc", [&] { return simulator.dcOperatingPoint(); });
      tr_.span("sim.ac", [&] {
        (void)simulator.acFrom(op, "VDIFF", vo.fStart, vo.fStop, vo.pointsPerDecade);
      });
      tr_.span("sim.noise", [&] {
        (void)simulator.noise(op, out, "VDIFF", lo::sizing::kNoiseBandLowHz,
                              lo::sizing::kNoiseBandHighHz, 10);
      });
      tr_.span("sim.ac_batch", [&] {
        (void)simulator.acBatch(op,
                                {sim::AcExcitation::unitVsource("VCM"),
                                 sim::AcExcitation::unitVsource("VDD"),
                                 sim::AcExcitation::unitCurrent(lo::circuit::kGround, out)},
                                vo.fStart, 10.0 * vo.fStart, 4);
      });
      counts.add(simulator.stats());
    }
    {
      const lo::circuit::Circuit c =
          slewTestbench(setup.postLayout, setup.inputCm, setup.parasitics, vo);
      const sim::Simulator simulator(c, cj.tech, model, so);
      const auto tran =
          tr_.span("sim.tran", [&] { return simulator.transient(vo.tranStop, vo.tranStep); });
      counts.tranSteps += static_cast<double>(tran.size());
      counts.add(simulator.stats());
    }
    lo::verify::VerificationOptions tier = cj.job.options.postLayoutVerify;
    tier.enabled = true;
    if (postLayoutTier) {
      tr_.span("core.post_layout_verify", [&] {
        (void)lo::verify::runVerification(cj.tech, model, setup, cj.job.specs, vo, tier,
                                          &cj.result.measured);
      });
    }
    if (postLayoutTier || cj.job.options.postLayoutVerify.enabled) {
      tr_.span("verify.schematic", [&] {
        (void)lo::sizing::measureAmplifier(cj.tech, model, setup.preLayout, setup.inputCm,
                                           setup.vdd, nullptr, vo);
      });
      tr_.span("verify.extended", [&] {
        (void)lo::verify::measureExtended(cj.tech, model, setup.preLayout, setup.inputCm,
                                          setup.vdd, nullptr, tier);
        (void)lo::verify::measureExtended(cj.tech, model, setup.postLayout, setup.inputCm,
                                          setup.vdd, setup.parasitics, tier);
      });
    }
  });
}

void TracedRun::lookupSpan(service::ResultCache& cache, const std::string& key,
                           core::EngineResult* out) {
  const std::uint64_t diskHits = cache.stats().diskHits;
  const int index = tr_.open("cache.lookup");
  std::optional<core::EngineResult> hit = cache.lookup(key);
  tr_.close();
  if (!hit) throw std::runtime_error("warm lookup missed key " + key);
  if (cache.stats().diskHits > diskHits) {
    tr_.spans[static_cast<std::size_t>(index)].name = "cache.disk_lookup";
  }
  if (out != nullptr) *out = std::move(*hit);
}

int TracedRun::routeSpan(const Json& entry) {
  return tr_.span("cluster.route", [&] {
    const service::JobRequest job = service::parseJobRequest(entry);
    const std::string key =
        service::ResultCache::keyFor(job.options, job.specs, job.corner, techPrint_);
    return ring_.routeOf(key, std::vector<bool>(kRouterShards, true));
  });
}

void TracedRun::warmExchange(const Exchange& ex, std::uint64_t& nextId) {
  ExchangeTiming& record = exchanges_[tr_.job];
  record.jobs = static_cast<int>(ex.jobs.size());
  const int root = tr_.open("exchange");
  const double rootStart = tr_.spans[static_cast<std::size_t>(root)].start;

  // One job's shard-side work: key and lookup (router_warm's shards keep
  // no journal).
  struct ShardJob {
    int shard = 0;
    std::uint64_t id = 0;
    std::string key;
    service::JobRequest job;
    core::EngineResult result;
  };
  const auto route = [this](const Json& entry) { return routeSpan(entry); };
  const auto shardWork = [&](ShardJob& sj) {
    sj.key = tr_.span("cache.key", [&] {
      return service::ResultCache::keyFor(sj.job.options, sj.job.specs, sj.job.corner,
                                          techPrint_);
    });
    lookupSpan(*shardCaches_[static_cast<std::size_t>(sj.shard)], sj.key, &sj.result);
  };
  const auto respond = [&](const std::string& shardReply, int shard) {
    const std::string text = tr_.span("cluster.respond", [&] {
      Json reply = Json::parse(shardReply);
      reply.set("id", nextId++);
      reply.set("shard", shard);
      return reply.dump();
    });
    responseBytes_[tr_.job] += static_cast<double>(text.size());
  };

  if (ex.kind == Exchange::Kind::kSync) {
    record.jobStart.assign(1, rootStart);
    const Json entry = tr_.span("cluster.decode", [&] { return Json::parse(ex.lines[0]); });
    ShardJob sj;
    sj.shard = route(entry);
    sj.id = nextId++;
    tr_.span("protocol.decode",
             [&] { sj.job = service::parseJobRequest(Json::parse(ex.lines[0])); });
    shardWork(sj);
    const std::string reply = tr_.span("protocol.encode", [&] {
      return outcomeLine(sj.id, sj.job.label, sj.key, true, &sj.result);
    });
    respond(reply, sj.shard);
  } else if (ex.kind == Exchange::Kind::kSweep) {
    record.jobStart.assign(ex.jobs.size(), rootStart);
    const Json request = tr_.span("cluster.decode", [&] { return Json::parse(ex.lines[0]); });
    std::vector<ShardJob> jobs(request.at("jobs").items().size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].shard = route(request.at("jobs").items()[j]);
    }
    const Json shardRequest =
        tr_.span("protocol.decode", [&] { return Json::parse(ex.lines[0]); });
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      jobs[j].id = nextId++;
      tr_.span("protocol.decode", [&] {
        jobs[j].job = service::parseJobRequest(shardRequest.at("jobs").items()[j]);
      });
      shardWork(jobs[j]);
    }
    const std::string reply = tr_.span("protocol.encode", [&] {
      Json outcomes = Json::array();
      for (const ShardJob& sj : jobs) {
        outcomes.push(outcomeJson(sj.id, sj.job.label, sj.key, true, nullptr));
      }
      Json out = Json::object();
      out.set("ok", true);
      out.set("outcomes", std::move(outcomes));
      return out.dump();
    });
    respond(reply, jobs.front().shard);
  } else {
    std::vector<ShardJob> jobs(ex.lines.size());
    for (std::size_t j = 0; j < ex.lines.size(); ++j) {
      record.jobStart.push_back(nowSeconds());
      const Json entry =
          tr_.span("cluster.decode", [&] { return Json::parse(ex.lines[j]); });
      jobs[j].shard = route(entry);
      jobs[j].id = nextId++;
      tr_.span("protocol.decode",
               [&] { jobs[j].job = service::parseJobRequest(Json::parse(ex.lines[j])); });
      const std::string ack = tr_.span("protocol.encode", [&] {
        Json out = Json::object();
        out.set("ok", true);
        out.set("id", jobs[j].id);
        out.set("state", "queued");
        out.set("cache_key", service::ResultCache::keyFor(jobs[j].job.options,
                                                           jobs[j].job.specs,
                                                           jobs[j].job.corner, techPrint_));
        return out.dump();
      });
      respond(ack, jobs[j].shard);
      shardWork(jobs[j]);  // The shard's worker runs the job after the ack.
    }
    std::vector<std::string> replies;
    for (ShardJob& sj : jobs) {
      const std::string waitLine = R"({"op":"wait","id":)" + std::to_string(sj.id) + "}";
      tr_.span("protocol.decode", [&] { (void)Json::parse(waitLine).at("id").asUint64(); });
      replies.push_back(tr_.span("protocol.encode", [&] {
        return outcomeLine(sj.id, sj.job.label, sj.key, true, &sj.result);
      }));
    }
    const std::string text = tr_.span("cluster.respond", [&] {
      Json outcomes = Json::array();
      for (std::size_t j = 0; j < replies.size(); ++j) {
        Json outcome = Json::parse(replies[j]);
        outcome.set("id", nextId++);
        outcome.set("shard", jobs[j].shard);
        outcomes.push(std::move(outcome));
      }
      Json out = Json::object();
      out.set("ok", true);
      out.set("outcomes", std::move(outcomes));
      return out.dump();
    });
    responseBytes_[tr_.job] += static_cast<double>(text.size());
  }
  tr_.close();
  record.end = tr_.spans[static_cast<std::size_t>(root)].end;
}

void TracedRun::probe(const Exchange& ex, int jobId) {
  if (!scheduler_) {
    service::SchedulerOptions options;
    options.threads = 1;
    options.cache = cacheOptions(warmCapacity());
    options.journal = journalOptions(dir_ + "/scheduler-journal");
    scheduler_ = std::make_unique<service::JobScheduler>(base_, options);
    lo::cluster::RouterOptions ro;
    ro.workerArgv = workerArgv(false);
    ro.shards = kRouterShards;
    ro.cacheDir = dir_ + "/store";
    router_ = std::make_unique<lo::cluster::ClusterRouter>(std::move(ro));
    shard_ = std::make_unique<lo::cluster::ShardProcess>();
    shard_->spawn(workerArgv(true));
  }
  const auto rtt = [&](const std::string& line) {
    std::string reply;
    if (!shard_->writeLine(line) ||
        shard_->readLine(reply, 120.0) != lo::cluster::ReadStatus::kOk) {
      throw std::runtime_error("standalone shard did not answer");
    }
  };
  tr_.job = jobId;
  tr_.span("probe", [&] {
    if (ex.kind == Exchange::Kind::kSync) {
      const std::string& line = ex.lines[0];
      const service::JobRequest job = service::parseJobRequest(Json::parse(line));
      // First touch warms each piece's memory tier (a disk-store hit);
      // the timed second touch is the steady-state warm hit.
      (void)scheduler_->wait(scheduler_->submit(job));
      tr_.span("scheduler.hit", [&] { (void)scheduler_->wait(scheduler_->submit(job)); });
      (void)router_->handleLine(line);
      tr_.span("cluster.handle.synthesize", [&] { (void)router_->handleLine(line); });
      rtt(line);
      tr_.span("cluster.shard_rtt", [&] { rtt(line); });
    } else if (ex.kind == Exchange::Kind::kSweep) {
      tr_.span("cluster.handle.sweep", [&] { (void)router_->handleLine(ex.lines[0]); });
    } else {
      std::vector<std::uint64_t> ids;
      for (const std::string& line : ex.lines) {
        ids.push_back(Json::parse(router_->handleLine(line)).at("id").asUint64());
      }
      tr_.span("cluster.handle.wait", [&] { (void)router_->handleLine(asyncWaitLine(ids)); });
    }
  });
}

TracedResult TracedRun::run(int exchanges, double untracedP50Ms) {
  RequestStream stream(config_.workload, config_.seed);
  const std::optional<GoldenSet> goldens =
      loadGoldens(config_.goldenDir, config_.workload, config_.seed);
  const auto checkCold = [&](const ColdJob& cj, int index) {
    const Golden* golden =
        goldens && index < static_cast<int>(goldens->jobs.size())
            ? &goldens->jobs[static_cast<std::size_t>(index)]
            : nullptr;
    const Json result = service::toJson(cj.result);
    const std::string why = checkResult(result, cj.key, cacheKeyOfLine(
                                            stream.jobLines()[static_cast<std::size_t>(index)]),
                                        golden, goldens ? &*goldens : nullptr);
    ++checked_;
    if (!why.empty()) {
      ++failed_;
      if (problems_.size() < 5) problems_.push_back("job " + std::to_string(index) + ": " + why);
    }
    ++engineJobs_;
    converged_ += cj.result.convergence.converged() ? 1 : 0;
    specPass_ += meetsSpec(cj.request, result) ? 1 : 0;
  };
  const bool engineRunsTier = config_.workload == Workload::kVerifyCase4;

  if (config_.workload != Workload::kRouterWarm) {
    std::vector<std::string> probeLines;
    const int count = std::min(exchanges, kMaxColdJobs);
    for (int e = 0; e < count; ++e) {
      const std::optional<Exchange> ex = stream.next();
      if (!ex) break;
      tr_.job = e;
      ExchangeTiming& record = exchanges_[e];
      record.jobs = 1;
      const int root = tr_.open("exchange");
      std::unique_ptr<ColdJob> cj = coldPath(ex->lines[0], static_cast<std::uint64_t>(e + 1));
      tr_.close();
      record.jobStart.assign(1, tr_.spans[static_cast<std::size_t>(root)].start);
      record.end = tr_.spans[static_cast<std::size_t>(root)].end;
      checkCold(*cj, ex->jobs[0]);
      replay(*cj, !engineRunsTier && e % kTierReplayEvery == 0);
      if (static_cast<int>(probeLines.size()) < kColdProbeLines) {
        probeLines.push_back(ex->lines[0]);
      }
    }
    // Warm probes over the synthesized keys: every line looked up from the
    // store's disk tier then its memory tier, routed, sent as a sync hit,
    // and each group of four as one summary sweep and one async group.
    service::ResultCache fresh(cacheOptions(kDaemonCacheCapacity));
    int probeId = kProbeJobBase;
    for (std::size_t i = 0; i < probeLines.size(); ++i) {
      tr_.job = probeId;
      tr_.span("probe", [&] {
        const Json entry = Json::parse(probeLines[i]);
        (void)routeSpan(entry);
        const std::string key = cacheKeyOfLine(probeLines[i]);
        lookupSpan(fresh, key, nullptr);
        lookupSpan(fresh, key, nullptr);
      });
      Exchange sync;
      sync.lines = {probeLines[i]};
      probe(sync, probeId++);
      if (i % 4 != 3) continue;
      const std::vector<std::string> group(probeLines.begin() + static_cast<long>(i) - 3,
                                           probeLines.begin() + static_cast<long>(i) + 1);
      Exchange sweep;
      sweep.kind = Exchange::Kind::kSweep;
      sweep.lines = {sweepLine(group, true)};
      probe(sweep, probeId++);
      Exchange async;
      async.kind = Exchange::Kind::kAsync;
      for (const std::string& line : group) {
        Json request = Json::parse(line);
        request.set("async", true);
        async.lines.push_back(request.dump());
      }
      probe(async, probeId++);
    }
  } else {
    // Prefill: the pool synthesized cold (a side root), then each result
    // placed in its shard's memory tier in the order the prefill sweep
    // inserted it there.
    for (int s = 0; s < kRouterShards; ++s) {
      shardCaches_.push_back(
          std::make_unique<service::ResultCache>(cacheOptions(kRouterCacheCapacity)));
    }
    const std::vector<bool> alive(kRouterShards, true);
    for (std::size_t i = 0; i < stream.jobLines().size(); ++i) {
      tr_.job = kPrefillJobBase + static_cast<int>(i);
      std::unique_ptr<ColdJob> cj;
      tr_.span("prefill", [&] {
        cj = coldPath(stream.jobLines()[i], static_cast<std::uint64_t>(i + 1));
      });
      checkCold(*cj, static_cast<int>(i));
      replay(*cj, static_cast<int>(i) % kTierReplayEvery == 0);
      shardCaches_[static_cast<std::size_t>(ring_.routeOf(cj->key, alive))]->insert(
          cj->key, cj->result);
    }
    std::uint64_t nextId = 1;
    const int count = std::min(exchanges, kMaxWarmExchanges);
    for (int e = 0; e < count; ++e) {
      const std::optional<Exchange> ex = stream.next();
      if (!ex) break;
      tr_.job = e;
      warmExchange(*ex, nextId);
      probe(*ex, e);
    }
  }
  router_.reset();
  shard_.reset();
  scheduler_.reset();
  return ledger(untracedP50Ms);
}

TracedResult TracedRun::ledger(double untracedP50Ms) {
  TracedResult out;
  const std::vector<Span>& spans = tr_.spans;
  const std::vector<double> self = selfTimes(spans);
  std::vector<int> rootOf(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    rootOf[i] = spans[i].parent < 0 ? static_cast<int>(i)
                                    : rootOf[static_cast<std::size_t>(spans[i].parent)];
  }
  const auto isExchange = [&](std::size_t i) {
    return std::strcmp(spans[static_cast<std::size_t>(rootOf[i])].name, "exchange") == 0;
  };
  const auto jobsOf = [&](int job) {
    const auto it = exchanges_.find(job);
    return it == exchanges_.end() ? 1.0 : static_cast<double>(it->second.jobs);
  };
  const auto put = [&](const std::string& name, double value) {
    out.metrics.emplace_back(name, value);
  };
  const auto safeMedian = [&](const std::string& name, std::vector<double> values) {
    if (values.empty()) {
      out.defects.push_back("no samples for " + name);
      return 0.0;
    }
    return median(std::move(values));
  };
  const auto perCall = [&](const char* name, double scale) {
    std::vector<double> v;
    for (const Span& s : spans) {
      if (std::strcmp(s.name, name) == 0) v.push_back(s.seconds() * scale);
    }
    return safeMedian(name, v);
  };
  // Per job: the summed spans of one name within a job (an exchange's
  // total divided by its job count), median over the jobs that have any.
  const auto perJobValues = [&](const char* name, bool exchangeOnly) {
    std::map<int, double> sum;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (std::strcmp(spans[i].name, name) != 0) continue;
      if (exchangeOnly && !isExchange(i)) continue;
      sum[spans[i].job] += spans[i].seconds();
    }
    return sum;
  };
  const auto perJob = [&](const char* name, double scale, bool exchangeOnly = false) {
    std::vector<double> v;
    for (const auto& [job, total] : perJobValues(name, exchangeOnly)) {
      v.push_back(total / jobsOf(job) * scale);
    }
    return safeMedian(name, v);
  };
  const auto count = [&](const char* name) {
    return static_cast<double>(std::count_if(spans.begin(), spans.end(), [&](const Span& s) {
      return std::strcmp(s.name, name) == 0;
    }));
  };

  put("protocol.decode_us", perJob("protocol.decode", 1e6, true));
  put("protocol.encode_us", perJob("protocol.encode", 1e6, true));
  {
    std::vector<double> kb;
    for (const auto& [job, bytes] : responseBytes_) {
      if (exchanges_.count(job)) kb.push_back(bytes / jobsOf(job) / 1024.0);
    }
    put("protocol.response_kb", safeMedian("protocol.response_kb", kb));
  }
  put("cache.key_us", perCall("cache.key", 1e6));
  put("cache.lookup_us", perCall("cache.lookup", 1e6));
  put("cache.disk_lookup_us", perCall("cache.disk_lookup", 1e6));
  {
    const double disk = count("cache.disk_lookup");
    put("cache.disk_hit_ratio", disk / std::max(1.0, disk + count("cache.lookup")));
  }
  put("cache.insert_ms", perCall("cache.insert", 1e3));
  put("journal.append_us", perCall("journal.append", 1e6));
  put("scheduler.hit_us", perCall("scheduler.hit", 1e6));
  {
    std::vector<double> route;
    for (const auto& [job, total] : perJobValues("cluster.route", false)) {
      route.push_back(total / jobsOf(job) * 1e6);
    }
    put("cluster.route_us", safeMedian("cluster.route", route));
  }
  const double routerSynthesizeUs = perCall("cluster.handle.synthesize", 1e6);
  put("cluster.synthesize_us", routerSynthesizeUs);
  put("cluster.sweep_us", perCall("cluster.handle.sweep", 1e6));
  put("cluster.wait_us", perCall("cluster.handle.wait", 1e6));
  put("cluster.shard_rtt_us", perCall("cluster.shard_rtt", 1e6));
  double routerSelfUs = 0.0;
  {
    const auto handle = perJobValues("cluster.handle.synthesize", false);
    const auto rtt = perJobValues("cluster.shard_rtt", false);
    std::vector<double> v;
    for (const auto& [job, h] : handle) {
      if (const auto it = rtt.find(job); it != rtt.end()) v.push_back((h - it->second) * 1e6);
    }
    routerSelfUs = safeMedian("cluster.self", v);
    put("cluster.self_us", routerSelfUs);
  }

  put("core.sizing_ms", perJob("core.sizing", 1e3));
  if (count("core.run") == 0) out.defects.push_back("no engine run was traced");
  if (simCounts_.empty()) out.defects.push_back("no verification replay was traced");
  const double runs = std::max(1.0, count("core.run"));
  put("core.sizing_calls", count("core.sizing") / runs);
  put("core.parasitic_layout_ms", perJob("core.parasitic_layout", 1e3));
  put("core.layout_calls", count("core.parasitic_layout") / runs);
  put("core.generation_ms", perJob("core.generation", 1e3));
  put("core.extraction_ms", perJob("core.extraction", 1e3));
  put("core.verification_ms", perJob("core.verification", 1e3));
  put("core.post_layout_verify_ms", perJob("core.post_layout_verify", 1e3));
  put("core.converged_ratio", engineJobs_ ? static_cast<double>(converged_) / engineJobs_ : 0.0);
  put("core.spec_pass_ratio", engineJobs_ ? static_cast<double>(specPass_) / engineJobs_ : 0.0);

  const char* const simSpans[] = {"sim.dc", "sim.ac", "sim.noise", "sim.ac_batch", "sim.tran"};
  put("sim.dc_ms", perJob("sim.dc", 1e3));
  put("sim.ac_ms", perJob("sim.ac", 1e3));
  put("sim.noise_ms", perJob("sim.noise", 1e3));
  put("sim.ac_batch_ms", perJob("sim.ac_batch", 1e3));
  put("sim.tran_ms", perJob("sim.tran", 1e3));
  {
    SimCounts total;
    for (const auto& [job, c] : simCounts_) {
      total.newtonIters += c.newtonIters;
      total.luFactorizations += c.luFactorizations;
      total.luSolves += c.luSolves;
      total.acPoints += c.acPoints;
      total.tranSteps += c.tranSteps;
    }
    const double n = std::max<double>(1.0, static_cast<double>(simCounts_.size()));
    put("sim.newton_iters", total.newtonIters / n);
    put("sim.lu_factorizations", total.luFactorizations / n);
    put("sim.lu_solves", total.luSolves / n);
    put("sim.ac_points", total.acPoints / n);
    put("sim.tran_steps", total.tranSteps / n);
    // Replayed analyses over the engine's own verification stage, per job.
    const auto verification = perJobValues("core.verification", false);
    std::map<int, double> replayed;
    for (const char* name : simSpans) {
      for (const auto& [job, t] : perJobValues(name, false)) replayed[job] += t;
    }
    std::vector<double> coverage;
    for (const auto& [job, t] : replayed) {
      if (const auto it = verification.find(job); it != verification.end() && it->second > 0) {
        coverage.push_back(t / it->second);
      }
    }
    put("sim.replay_coverage", safeMedian("sim.replay_coverage", coverage));
  }
  put("verify.schematic_ms", perJob("verify.schematic", 1e3));
  put("verify.extended_ms", perJob("verify.extended", 1e3));

  // Traced job latency, defined like the untraced one: from the job's first
  // span to the end of the exchange that completes it.
  std::vector<double> tracedLatencyMs;
  for (const auto& [job, ex] : exchanges_) {
    for (const double start : ex.jobStart) tracedLatencyMs.push_back((ex.end - start) * 1e3);
  }
  const double tracedP50 = safeMedian("traced latency", tracedLatencyMs);
  put("gap.outside_layers_ms", untracedP50Ms - tracedP50);

  // Shares of traced job time, from self times under exchange roots.
  double rootTotal = 0.0;
  double covered = 0.0;
  std::map<std::string, double> byLayer;
  std::map<std::string, double> byName;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!isExchange(i)) continue;
    if (spans[i].parent < 0) {
      rootTotal += spans[i].seconds();
      continue;
    }
    covered += self[i];
    byLayer[layerOf(spans[i].name)] += self[i];
    byName[spans[i].name] += self[i];
  }
  const auto share = [&](double t) { return rootTotal > 0 ? t / rootTotal : 0.0; };
  for (const char* layer : {"protocol", "cache", "journal", "cluster", "core"}) {
    put(std::string("share.") + layer, share(byLayer[layer]));
  }
  for (const char* stage : kStageSpans) put(std::string("share.") + stage, share(byName[stage]));
  put("ledger.coverage", share(covered));
  if (!(share(covered) >= 0.9)) {
    out.defects.push_back("self times cover " + std::to_string(100 * share(covered)) +
                          "% of traced job time, under the 90% required");
  }

  // The ledger text.
  const std::string wl = workloadName(config_.workload);
  char buf[512];
  std::snprintf(buf, sizeof buf,
                "ledger %s seed %llu: %zu traced exchanges, self times cover %.1f%% of "
                "traced job time%s",
                wl.c_str(), static_cast<unsigned long long>(config_.seed), exchanges_.size(),
                100 * share(covered), share(covered) >= 0.9 ? "" : "  (BELOW 90%)");
  out.ledger.emplace_back(buf);
  std::vector<std::pair<double, std::string>> layers;
  for (const auto& [layer, t] : byLayer) layers.emplace_back(t, layer);
  std::sort(layers.rbegin(), layers.rend());
  for (const auto& [t, layer] : layers) {
    std::string detail;
    for (const auto& [name, nt] : byName) {
      if (layerOf(name.c_str()) == layer && share(nt) >= 0.005) {
        std::snprintf(buf, sizeof buf, "%s %s %.1f%%", detail.empty() ? "" : ",",
                      name.c_str(), 100 * share(nt));
        detail += buf;
      }
    }
    std::snprintf(buf, sizeof buf, "  layer %-9s %6.2f%%  (%s )", layer.c_str(),
                  100 * share(t), detail.c_str());
    out.ledger.emplace_back(buf);
  }
  std::string topName;
  double topTime = -1;
  for (const auto& [name, t] : byName) {
    if (t > topTime) {
      topTime = t;
      topName = name;
    }
  }
  std::snprintf(buf, sizeof buf,
                "  outside the layers: untraced p50 %.3f ms - traced p50 %.3f ms = %.3f ms "
                "(%.1f%% of the untraced p50)",
                untracedP50Ms, tracedP50, untracedP50Ms - tracedP50,
                untracedP50Ms > 0 ? 100 * (untracedP50Ms - tracedP50) / untracedP50Ms : 0.0);
  out.ledger.emplace_back(buf);
  std::string verdict;
  if (config_.workload == Workload::kSynthCold) {
    verdict = std::string("predicted dominant core.verification: ") +
              (topName == "core.verification" ? "confirmed" : "refuted");
  } else if (config_.workload == Workload::kVerifyCase4) {
    const double both = share(byName["core.post_layout_verify"] + byName["core.verification"]);
    const bool ok = (topName == "core.post_layout_verify" || topName == "core.verification") &&
                    both > 0.5;
    std::snprintf(buf, sizeof buf,
                  "predicted dominant core.post_layout_verify + core.verification (%.1f%%): %s",
                  100 * both, ok ? "confirmed" : "refuted");
    verdict = buf;
  } else {
    const std::string top = layers.empty() ? "none" : layers.front().second;
    const bool inLayers = top == "cluster" || top == "protocol" || top == "journal" ||
                          top == "cache";
    const double topPerJobMs =
        layers.empty() ? 0.0 : layers.front().first / std::max<std::size_t>(1, tracedLatencyMs.size()) * 1e3;
    const bool gapDominates = untracedP50Ms - tracedP50 > topPerJobMs;
    verdict = "predicted dominant cluster/protocol/journal/cache: " +
              std::string(inLayers ? "confirmed in-process (" + top + ")" : "refuted (" + top + ")") +
              (gapDominates ? "; but the gap outside the layers exceeds every layer" : "");
  }
  out.ledger.push_back("  dominant span " + topName + "; " + verdict);
  if (config_.workload == Workload::kRouterWarm) {
    // The exchange roots re-enact the router's parse, route and re-encode;
    // ClusterRouter's own bookkeeping (job-route map, resubmit lines) runs
    // only in the probe, so only the probe's figures move with it.
    std::snprintf(buf, sizeof buf,
                  "  router_warm shares come from the benchmark's re-enactment of each "
                  "exchange, not from ClusterRouter; the real router's own time is "
                  "cluster.self_us %.1f us of a %.1f us synchronous hit (%.1f%%)",
                  routerSelfUs, routerSynthesizeUs,
                  routerSynthesizeUs > 0 ? 100 * routerSelfUs / routerSynthesizeUs : 0.0);
    out.ledger.emplace_back(buf);
  }
  out.attempted = checked_;
  out.failed = failed_;
  for (const std::string& p : problems_) out.ledger.push_back("check failed: " + p);

  // Spans are kept in memory and written out once, at the end.
  std::filesystem::create_directories(config_.workDir + "/traces");
  std::ofstream file(config_.workDir + "/traces/" + wl + "-seed" +
                     std::to_string(config_.seed) + ".spans.tsv");
  file << "job\tparent\tname\tstart_us\tend_us\n";
  const double t0 = spans.empty() ? 0.0 : spans.front().start;
  for (const Span& s : spans) {
    file << s.job << '\t' << s.parent << '\t' << s.name << '\t' << (s.start - t0) * 1e6
         << '\t' << (s.end - t0) * 1e6 << '\n';
  }
  return out;
}

}  // namespace

TracedResult runTraced(const RunConfig& config, int exchanges, double untracedP50Ms) {
  const std::string dir = config.workDir + "/traced-" + workloadName(config.workload) + "-" +
                          std::to_string(config.seed) + "-" + std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  TracedResult result;
  {
    TracedRun run(config, dir);
    result = run.run(exchanges, untracedP50Ms);
  }
  std::filesystem::remove_all(dir);
  return result;
}

void generateGoldens(const RunConfig& config, int count) {
  RequestStream stream(config.workload, config.seed);
  const lo::tech::Technology base = lo::tech::Technology::generic060();
  GoldenSet set;
  const std::size_t n = std::min<std::size_t>(static_cast<std::size_t>(count),
                                              stream.jobLines().size());
  set.jobs.resize(n);
  // Jobs are independent (private technology and engine each), so a few
  // threads share the work; the figures do not depend on the split.
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < 4; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = t; i < n; i += 4) {
        const service::JobRequest job =
            service::parseJobRequest(Json::parse(stream.jobLines()[i]));
        const lo::tech::Technology tech = base.atCorner(job.corner);
        const core::SynthesisEngine engine(tech, job.options);
        set.jobs[i] = goldenOf(service::toJson(engine.run(job.specs)));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  writeGoldens(goldenPath(config.goldenDir, config.workload, config.seed), config.workload,
               config.seed, set);
}

}  // namespace jobbench
