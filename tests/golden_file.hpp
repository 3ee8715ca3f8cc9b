// Frozen goldens: committed answers under tests/goldens that a test holds
// this build to, each at its stated tolerance.  A change that moves a
// figure past its tolerance is either a bug or a deliberate move; a
// deliberate one regenerates every golden from its own build,
//
//   LO_REGENERATE_GOLDENS=1 ctest --test-dir build -R 'SimGolden|FrozenFigures|Differential'
//
// (each golden test then rewrites its file and reports itself skipped),
// and says which figures moved and why.  One file per test, so parallel
// test processes never write the same file.
#pragma once

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace lo::golden {

using service::Json;

[[nodiscard]] inline std::string pathOf(const std::string& file) {
  return std::string(LO_GOLDENS_DIR) + "/" + file;
}

/// `j` as JSON text with the members and items of its first two levels one
/// per line, so a regenerated golden diffs line by line.
[[nodiscard]] inline std::string linesOf(const Json& j, int depth = 0) {
  if (depth >= 2 || (j.members().empty() && j.items().empty())) return j.dump();
  std::string text = j.isObject() ? "{\n" : "[\n";
  for (const auto& [key, value] : j.members()) {
    if (text.size() > 2) text += ",\n";
    text += Json(key).dump() + ":" + linesOf(value, depth + 1);
  }
  for (const Json& item : j.items()) {
    if (text.size() > 2) text += ",\n";
    text += linesOf(item, depth + 1);
  }
  return text + (j.isObject() ? "\n}" : "\n]");
}

/// With LO_REGENERATE_GOLDENS set, write what `fresh()` returns as
/// `file`'s golden and return true: the caller then skips its
/// comparisons.
template <typename MakeJson>
[[nodiscard]] bool rewrite(const std::string& file, MakeJson&& fresh) {
  if (std::getenv("LO_REGENERATE_GOLDENS") == nullptr) return false;
  std::ofstream out(pathOf(file), std::ios::trunc);
  out << linesOf(fresh()) << '\n';
  if (!out) throw std::runtime_error("cannot write golden " + pathOf(file));
  return true;
}

/// The golden `file` holds; throws when it is missing.
[[nodiscard]] inline Json load(const std::string& file) {
  std::ifstream in(pathOf(file));
  if (!in) throw std::runtime_error("missing golden " + pathOf(file));
  std::ostringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

[[nodiscard]] inline Json toJson(const std::vector<double>& values) {
  Json a = Json::array();
  for (const double v : values) a.push(v);
  return a;
}

[[nodiscard]] inline std::vector<double> doublesOf(const Json& a) {
  std::vector<double> values;
  values.reserve(a.items().size());
  for (const Json& v : a.items()) values.push_back(v.asDouble());
  return values;
}

}  // namespace lo::golden
