#include "service/serialize.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace lo::service {

namespace {

// One row per OtaPerformance member; keeps toJson/fromJson and the field
// list in a single place.
struct PerfField {
  const char* name;
  double sizing::OtaPerformance::* member;
};

constexpr PerfField kPerfFields[] = {
    {"dc_gain_db", &sizing::OtaPerformance::dcGainDb},
    {"gbw_hz", &sizing::OtaPerformance::gbwHz},
    {"phase_margin_deg", &sizing::OtaPerformance::phaseMarginDeg},
    {"slew_rate_v_per_us", &sizing::OtaPerformance::slewRateVPerUs},
    {"cmrr_db", &sizing::OtaPerformance::cmrrDb},
    {"offset_mv", &sizing::OtaPerformance::offsetMv},
    {"output_resistance_mohm", &sizing::OtaPerformance::outputResistanceMOhm},
    {"input_noise_uv", &sizing::OtaPerformance::inputNoiseUv},
    {"thermal_noise_density_nv", &sizing::OtaPerformance::thermalNoiseDensityNv},
    {"flicker_noise_uv", &sizing::OtaPerformance::flickerNoiseUv},
    {"power_mw", &sizing::OtaPerformance::powerMw},
    {"psrr_db", &sizing::OtaPerformance::psrrDb},
    {"settling_time_ns", &sizing::OtaPerformance::settlingTimeNs},
};

struct SpecField {
  const char* name;
  double sizing::OtaSpecs::* member;
};

constexpr SpecField kSpecFields[] = {
    {"vdd", &sizing::OtaSpecs::vdd},
    {"gbw", &sizing::OtaSpecs::gbw},
    {"phase_margin_deg", &sizing::OtaSpecs::phaseMarginDeg},
    {"cload", &sizing::OtaSpecs::cload},
    {"input_cm_low", &sizing::OtaSpecs::inputCmLow},
    {"input_cm_high", &sizing::OtaSpecs::inputCmHigh},
    {"output_low", &sizing::OtaSpecs::outputLow},
    {"output_high", &sizing::OtaSpecs::outputHigh},
    // Extended spec surface judged by the post-layout verification tier.
    {"thd_max_percent", &sizing::OtaSpecs::thdMaxPercent},
    {"psrr_min_db", &sizing::OtaSpecs::psrrMinDb},
    {"offset_max_mv", &sizing::OtaSpecs::offsetMaxMv},
};

}  // namespace

Json toJson(const sizing::OtaPerformance& perf) {
  Json j = Json::object();
  for (const PerfField& f : kPerfFields) j.set(f.name, perf.*(f.member));
  return j;
}

sizing::OtaPerformance performanceFromJson(const Json& j) {
  sizing::OtaPerformance perf;
  for (const PerfField& f : kPerfFields) perf.*(f.member) = j.at(f.name).asDouble();
  return perf;
}

namespace {

core::ConvergenceVerdict verdictFromName(const std::string& name) {
  for (const core::ConvergenceVerdict v :
       {core::ConvergenceVerdict::kConverged, core::ConvergenceVerdict::kOscillating,
        core::ConvergenceVerdict::kDrifting}) {
    if (name == core::convergenceVerdictName(v)) return v;
  }
  throw std::invalid_argument("unknown convergence verdict \"" + name + "\"");
}

Json toJson(const core::ConvergenceReport& report) {
  Json j = Json::object();
  j.set("verdict", core::convergenceVerdictName(report.verdict));
  j.set("loop_ran", report.loopRan);
  j.set("worst_residual", report.worstResidual);
  Json deltas = Json::array();
  for (const double d : report.callDeltas) deltas.push(d);
  j.set("call_deltas", std::move(deltas));
  j.set("cycle_length", report.cycleLength);
  return j;
}

core::ConvergenceReport convergenceFromJson(const Json& j) {
  core::ConvergenceReport report;
  report.verdict = verdictFromName(j.at("verdict").asString());
  report.loopRan = j.at("loop_ran").asBool();
  report.worstResidual = j.at("worst_residual").asDouble();
  for (const Json& d : j.at("call_deltas").items()) {
    report.callDeltas.push_back(d.asDouble());
  }
  report.cycleLength = j.at("cycle_length").asInt();
  return report;
}

struct ExtendedField {
  const char* name;
  double verify::ExtendedMeasures::* member;
};

constexpr ExtendedField kExtendedFields[] = {
    {"thd_percent", &verify::ExtendedMeasures::thdPercent},
    {"psrr_db", &verify::ExtendedMeasures::psrrDb},
    {"output_swing_low", &verify::ExtendedMeasures::outputSwingLow},
    {"output_swing_high", &verify::ExtendedMeasures::outputSwingHigh},
    {"icmr_low", &verify::ExtendedMeasures::icmrLow},
    {"icmr_high", &verify::ExtendedMeasures::icmrHigh},
    {"offset_mv", &verify::ExtendedMeasures::offsetMv},
};

Json toJson(const verify::ExtendedMeasures& m) {
  Json j = Json::object();
  for (const ExtendedField& f : kExtendedFields) j.set(f.name, m.*(f.member));
  return j;
}

verify::ExtendedMeasures extendedFromJson(const Json& j) {
  verify::ExtendedMeasures m;
  for (const ExtendedField& f : kExtendedFields) m.*(f.member) = j.at(f.name).asDouble();
  return m;
}

}  // namespace

Json toJson(const verify::VerificationReport& report) {
  Json j = Json::object();
  j.set("ran", report.ran);
  j.set("pass", report.pass);
  j.set("pre_layout", toJson(report.preLayout));
  j.set("post_layout", toJson(report.postLayout));
  j.set("pre_extended", toJson(report.preExtended));
  j.set("post_extended", toJson(report.postExtended));
  Json deltas = Json::array();
  for (const verify::SpecDelta& d : report.deltas) {
    Json row = Json::object();
    row.set("name", d.name);
    row.set("pre_layout", d.preLayout);
    row.set("post_layout", d.postLayout);
    row.set("limit", d.limit);
    row.set("constrained", d.constrained);
    row.set("pass", d.pass);
    deltas.push(std::move(row));
  }
  j.set("deltas", std::move(deltas));
  return j;
}

verify::VerificationReport verificationFromJson(const Json& j) {
  verify::VerificationReport report;
  report.ran = j.at("ran").asBool();
  report.pass = j.at("pass").asBool();
  report.preLayout = performanceFromJson(j.at("pre_layout"));
  report.postLayout = performanceFromJson(j.at("post_layout"));
  report.preExtended = extendedFromJson(j.at("pre_extended"));
  report.postExtended = extendedFromJson(j.at("post_extended"));
  for (const Json& row : j.at("deltas").items()) {
    verify::SpecDelta d;
    d.name = row.at("name").asString();
    d.preLayout = row.at("pre_layout").asDouble();
    d.postLayout = row.at("post_layout").asDouble();
    d.limit = row.at("limit").asDouble();
    d.constrained = row.at("constrained").asBool();
    d.pass = row.at("pass").asBool();
    report.deltas.push_back(std::move(d));
  }
  return report;
}

Json toJson(const core::EngineResult& result) {
  Json j = Json::object();
  Json nets = Json::array();
  for (const std::string& net : result.criticalNets) nets.push(net);
  j.set("critical_nets", std::move(nets));
  Json iterations = Json::array();
  for (const core::EngineIteration& it : result.iterations) {
    Json row = Json::object();
    row.set("layout_call", it.layoutCall);
    Json caps = Json::array();
    for (const double c : it.netCaps) caps.push(c);
    row.set("net_caps", std::move(caps));
    row.set("primary_current", it.primaryCurrent);
    row.set("pair_width", it.pairWidth);
    iterations.push(std::move(row));
  }
  j.set("iterations", std::move(iterations));
  j.set("layout_calls", result.layoutCalls);
  j.set("parasitic_converged", result.parasiticConverged);
  j.set("convergence", toJson(result.convergence));
  j.set("layout_width_um", result.layoutWidthUm);
  j.set("layout_height_um", result.layoutHeightUm);
  j.set("predicted", toJson(result.predicted));
  j.set("measured", toJson(result.measured));
  // Only present when the post-layout tier ran: results from existing
  // configurations keep their exact bytes (differential-oracle contract).
  if (result.verification.ran) {
    j.set("verification", toJson(result.verification));
  }
  return j;
}

core::EngineResult resultFromJson(const Json& j) {
  core::EngineResult result;
  for (const Json& net : j.at("critical_nets").items()) {
    result.criticalNets.push_back(net.asString());
  }
  for (const Json& row : j.at("iterations").items()) {
    core::EngineIteration it;
    it.layoutCall = row.at("layout_call").asInt();
    for (const Json& c : row.at("net_caps").items()) it.netCaps.push_back(c.asDouble());
    it.primaryCurrent = row.at("primary_current").asDouble();
    it.pairWidth = row.at("pair_width").asDouble();
    result.iterations.push_back(std::move(it));
  }
  result.layoutCalls = j.at("layout_calls").asInt();
  result.parasiticConverged = j.at("parasitic_converged").asBool();
  result.convergence = convergenceFromJson(j.at("convergence"));
  result.layoutWidthUm = j.at("layout_width_um").asDouble();
  result.layoutHeightUm = j.at("layout_height_um").asDouble();
  result.predicted = performanceFromJson(j.at("predicted"));
  result.measured = performanceFromJson(j.at("measured"));
  if (const Json* verification = j.find("verification")) {
    result.verification = verificationFromJson(*verification);
  }
  return result;
}

Json toJson(const sizing::OtaSpecs& specs) {
  Json j = Json::object();
  for (const SpecField& f : kSpecFields) j.set(f.name, specs.*(f.member));
  return j;
}

const std::vector<std::string>& specFieldNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (const SpecField& f : kSpecFields) out.emplace_back(f.name);
    return out;
  }();
  return names;
}

void setSpecField(sizing::OtaSpecs& specs, const std::string& name, double value) {
  for (const SpecField& f : kSpecFields) {
    if (name == f.name) {
      specs.*(f.member) = value;
      return;
    }
  }
  throw std::invalid_argument("unknown spec field \"" + name + "\"");
}

void specsFromJson(const Json& j, sizing::OtaSpecs& specs) {
  if (!j.isObject()) throw std::invalid_argument("\"spec\" must be a JSON object");
  for (const auto& [key, value] : j.members()) {
    bool known = false;
    for (const SpecField& f : kSpecFields) {
      if (key == f.name) {
        specs.*(f.member) = value.asDouble();
        known = true;
        break;
      }
    }
    if (!known) throw std::invalid_argument("unknown spec field \"" + key + "\"");
  }
}

void requireSpecDomain(const sizing::OtaSpecs& specs) {
  for (const SpecField& f : kSpecFields) {
    const double v = specs.*(f.member);
    const bool positive = f.member == &sizing::OtaSpecs::gbw ||
                          f.member == &sizing::OtaSpecs::cload ||
                          f.member == &sizing::OtaSpecs::vdd;
    const char* problem =
        !std::isfinite(v) ? "must be finite" : positive && v <= 0.0 ? "must be > 0" : nullptr;
    if (problem != nullptr) {
      throw std::invalid_argument("spec field \"" + std::string(f.name) + "\" " + problem);
    }
  }
}

Json toJson(const JobRequest& request) {
  const core::EngineOptions& o = request.options;
  Json j = Json::object();
  j.set("label", request.label);
  j.set("topology", o.topology);
  j.set("case", core::sizingCaseName(o.sizingCase));
  j.set("model", o.modelName);
  j.set("bias", o.includeBiasGenerator);
  j.set("max_layout_calls", o.maxLayoutCalls);
  j.set("convergence_tol", o.convergenceTol);
  const sizing::VerifyOptions& v = o.verifyOptions;
  Json verify = Json::object();
  verify.set("f_start", v.fStart);
  verify.set("f_stop", v.fStop);
  verify.set("points_per_decade", v.pointsPerDecade);
  verify.set("tran_step", v.tranStep);
  verify.set("tran_stop", v.tranStop);
  verify.set("step_amplitude", v.stepAmplitude);
  j.set("verify", std::move(verify));
  // Gated on enabled so journals written by verification-free configs keep
  // their exact bytes.
  if (o.postLayoutVerify.enabled) {
    const ::lo::verify::VerificationOptions& pv = o.postLayoutVerify;
    Json plv = Json::object();
    plv.set("enabled", true);
    plv.set("rel_tolerance", pv.relTolerance);
    plv.set("thd_fundamental_hz", pv.thdFundamentalHz);
    plv.set("thd_amplitude_v", pv.thdAmplitudeV);
    plv.set("thd_settle_cycles", pv.thdSettleCycles);
    plv.set("thd_cycles", pv.thdCycles);
    plv.set("thd_samples_per_cycle", pv.thdSamplesPerCycle);
    plv.set("harmonics", pv.harmonics);
    plv.set("sweep_points", pv.sweepPoints);
    plv.set("tracking_tolerance", pv.trackingTolerance);
    j.set("post_layout_verify", std::move(plv));
  }
  j.set("spec", toJson(request.specs));
  j.set("corner", tech::cornerName(request.corner));
  j.set("priority", request.priority);
  j.set("deadline_seconds", request.deadlineSeconds);
  j.set("max_retries", request.maxRetries);
  j.set("no_cache", request.bypassCache);
  return j;
}

JobRequest jobRequestFromJson(const Json& j) {
  JobRequest request;
  request.label = j.at("label").asString();
  core::EngineOptions& o = request.options;
  o.topology = j.at("topology").asString();
  o.sizingCase = sizingCaseFromJson(j.at("case"));
  o.modelName = j.at("model").asString();
  o.includeBiasGenerator = j.at("bias").asBool();
  o.maxLayoutCalls = j.at("max_layout_calls").asInt();
  o.convergenceTol = j.at("convergence_tol").asDouble();
  const Json& verify = j.at("verify");
  sizing::VerifyOptions& v = o.verifyOptions;
  v.fStart = verify.at("f_start").asDouble();
  v.fStop = verify.at("f_stop").asDouble();
  v.pointsPerDecade = verify.at("points_per_decade").asInt();
  v.tranStep = verify.at("tran_step").asDouble();
  v.tranStop = verify.at("tran_stop").asDouble();
  v.stepAmplitude = verify.at("step_amplitude").asDouble();
  if (const Json* plv = j.find("post_layout_verify")) {
    ::lo::verify::VerificationOptions& pv = o.postLayoutVerify;
    pv.enabled = plv->at("enabled").asBool();
    pv.relTolerance = plv->at("rel_tolerance").asDouble();
    pv.thdFundamentalHz = plv->at("thd_fundamental_hz").asDouble();
    pv.thdAmplitudeV = plv->at("thd_amplitude_v").asDouble();
    pv.thdSettleCycles = plv->at("thd_settle_cycles").asInt();
    pv.thdCycles = plv->at("thd_cycles").asInt();
    pv.thdSamplesPerCycle = plv->at("thd_samples_per_cycle").asInt();
    pv.harmonics = plv->at("harmonics").asInt();
    pv.sweepPoints = plv->at("sweep_points").asInt();
    pv.trackingTolerance = plv->at("tracking_tolerance").asDouble();
  }
  specsFromJson(j.at("spec"), request.specs);
  request.corner = cornerFromName(j.at("corner").asString());
  request.priority = j.at("priority").asInt();
  request.deadlineSeconds = j.at("deadline_seconds").asDouble();
  request.maxRetries = j.at("max_retries").asInt();
  request.bypassCache = j.at("no_cache").asBool();
  return request;
}

core::SizingCase sizingCaseFromJson(const Json& j) {
  const std::string text =
      j.type() == Json::Type::kNumber ? "case" + std::to_string(j.asInt())
                                      : j.asString();
  for (const core::SizingCase c :
       {core::SizingCase::kCase1, core::SizingCase::kCase2, core::SizingCase::kCase3,
        core::SizingCase::kCase4}) {
    if (text == core::sizingCaseName(c)) return c;
  }
  throw std::invalid_argument("unknown sizing case \"" + text +
                              "\" (expected 1..4 or \"case1\"..\"case4\")");
}

tech::ProcessCorner cornerFromName(const std::string& name) {
  for (const tech::ProcessCorner c :
       {tech::ProcessCorner::kTypical, tech::ProcessCorner::kSlow,
        tech::ProcessCorner::kFast, tech::ProcessCorner::kSlowNFastP,
        tech::ProcessCorner::kFastNSlowP}) {
    if (name == tech::cornerName(c)) return c;
  }
  throw std::invalid_argument("unknown process corner \"" + name +
                              "\" (expected tt/ss/ff/sf/fs)");
}

}  // namespace lo::service
