#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "jobbench.hpp"

namespace jobbench {

using lo::service::Json;

namespace {

bool close(double golden, double got, double rel, double floor) {
  const double diff = std::abs(got - golden);
  return diff <= rel * std::max(std::abs(got), std::abs(golden)) || diff <= floor;
}

std::vector<double> rowOf(const Json& perf) {
  std::vector<double> row;
  for (const auto& [name, value] : perf.members()) row.push_back(value.asDouble());
  return row;
}

bool allFinite(const Json& j) {
  if (j.type() == Json::Type::kNumber) return std::isfinite(j.asDouble());
  for (const Json& item : j.items()) {
    if (!allFinite(item)) return false;
  }
  for (const auto& [name, value] : j.members()) {
    if (!allFinite(value)) return false;
  }
  return true;
}

std::string numberList(const std::vector<double>& values) {
  std::string out = "[";
  char buf[32];
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s%.7g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

std::string compareRow(const char* what, const std::vector<double>& golden,
                       const std::vector<double>& got, const GoldenSet& set) {
  if (golden.size() != got.size()) {
    return std::string(what) + ": " + std::to_string(got.size()) + " figures, golden has " +
           std::to_string(golden.size());
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!close(golden[i], got[i], set.relTolerance, set.absFloor)) {
      return std::string(what) + " figure " + std::to_string(i) + ": " +
             Json::formatNumber(got[i]) + " vs golden " + Json::formatNumber(golden[i]);
    }
  }
  return "";
}

}  // namespace

std::string goldenPath(const std::string& dir, Workload w, std::uint64_t seed) {
  return dir + "/" + workloadName(w) + "-seed" + std::to_string(seed) + ".json";
}

Golden goldenOf(const Json& result) {
  Golden g;
  g.converged = result.at("convergence").at("verdict").asString() == "converged";
  if (const Json* v = result.find("verification")) {
    g.postLayoutPass = v->at("pass").asBool() ? 1 : 0;
  }
  g.predicted = rowOf(result.at("predicted"));
  g.measured = rowOf(result.at("measured"));
  return g;
}

std::optional<GoldenSet> loadGoldens(const std::string& dir, Workload w,
                                     std::uint64_t seed) {
  std::ifstream in(goldenPath(dir, w, seed));
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  const Json doc = Json::parse(text.str());
  GoldenSet set;
  set.relTolerance = doc.at("rel_tolerance").asDouble();
  set.absFloor = doc.at("abs_floor").asDouble();
  for (const Json& j : doc.at("jobs").items()) {
    Golden g;
    g.converged = j.at("converged").asBool();
    g.postLayoutPass = j.at("post_layout_pass").asInt();
    for (const Json& v : j.at("predicted").items()) g.predicted.push_back(v.asDouble());
    for (const Json& v : j.at("measured").items()) g.measured.push_back(v.asDouble());
    set.jobs.push_back(std::move(g));
  }
  return set;
}

void writeGoldens(const std::string& path, Workload w, std::uint64_t seed,
                  const GoldenSet& set) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "{\"workload\":\"" << workloadName(w) << "\",\"seed\":" << seed
      << ",\"rel_tolerance\":" << Json::formatNumber(set.relTolerance)
      << ",\"abs_floor\":" << Json::formatNumber(set.absFloor) << ",\"jobs\":[\n";
  for (std::size_t i = 0; i < set.jobs.size(); ++i) {
    const Golden& g = set.jobs[i];
    out << "{\"converged\":" << (g.converged ? "true" : "false")
        << ",\"post_layout_pass\":" << g.postLayoutPass
        << ",\"predicted\":" << numberList(g.predicted)
        << ",\"measured\":" << numberList(g.measured) << "}"
        << (i + 1 < set.jobs.size() ? ",\n" : "\n");
  }
  out << "]}\n";
}

std::string checkResult(const Json& result, const std::string& cacheKey,
                        const std::string& expectedKey, const Golden* golden,
                        const GoldenSet* set) {
  if (cacheKey != expectedKey) {
    return "cache_key " + cacheKey + " != derived " + expectedKey;
  }
  if (!result.isObject() || !result.at("measured").isObject() ||
      !result.at("predicted").isObject()) {
    return "result lacks predicted/measured figures";
  }
  if (!allFinite(result)) return "non-finite figure in result";
  if (golden == nullptr || set == nullptr) return "";
  const Golden got = goldenOf(result);
  if (got.converged != golden->converged) return "convergence verdict differs from golden";
  if (got.postLayoutPass != golden->postLayoutPass) {
    return "post-layout verdict differs from golden";
  }
  if (std::string why = compareRow("predicted", golden->predicted, got.predicted, *set);
      !why.empty()) {
    return why;
  }
  return compareRow("measured", golden->measured, got.measured, *set);
}

bool meetsSpec(const Json& request, const Json& result) {
  constexpr double kSpecTolerance = 0.02;  // explore::ExploreOptions::specTolerance
  const Json& spec = request.at("spec");
  const Json& m = result.at("measured");
  bool ok = result.at("convergence").at("verdict").asString() == "converged" &&
            m.at("gbw_hz").asDouble() >= spec.at("gbw").asDouble() * (1 - kSpecTolerance) &&
            m.at("phase_margin_deg").asDouble() >=
                spec.at("phase_margin_deg").asDouble() * (1 - kSpecTolerance);
  if (const Json* v = result.find("verification")) ok = ok && v->at("pass").asBool();
  return ok;
}

}  // namespace jobbench
