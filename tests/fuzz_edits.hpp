// Seeded edits shared by the fuzz tests of the request decoder and the
// journal decoders: byte damage to a text or log, and one structural edit
// of a Json document.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <utility>

#include "service/json.hpp"

namespace lo::service {

/// `bytes` (non-empty) with one byte flipped, 1-8 bytes dropped or repeated,
/// or everything from a random offset on cut away.
inline std::string damageBytes(std::string bytes, std::mt19937_64& rng) {
  const auto pick = [&rng](std::size_t n) { return static_cast<std::size_t>(rng() % n); };
  const std::size_t at = pick(bytes.size());
  switch (pick(4)) {
    case 0:
      bytes[at] = static_cast<char>(bytes[at] ^ static_cast<char>(1 + pick(255)));
      break;
    case 1:
      bytes.erase(at, 1 + pick(8));
      break;
    case 2:
      bytes.insert(at, bytes.substr(at, 1 + pick(8)));
      break;
    default:
      bytes.resize(at);
      break;
  }
  return bytes;
}

/// `v` rebuilt with its `target`-th member or item (depth first; `target`
/// counts down as they are visited) replaced by `replace(old)`, or dropped
/// when that returns nullopt.
inline Json editNth(const Json& v, long& target,
                    const std::function<std::optional<Json>(const Json&)>& replace) {
  if (!v.isObject() && !v.isArray()) return v;
  Json out = v.isObject() ? Json::object() : Json::array();
  if (v.isObject()) {
    for (const auto& [key, member] : v.members()) {
      if (target-- != 0) {
        out.set(key, editNth(member, target, replace));
      } else if (std::optional<Json> r = replace(member)) {
        out.set(key, std::move(*r));
      }
    }
    return out;
  }
  for (const Json& item : v.items()) {
    if (target-- != 0) {
      out.push(editNth(item, target, replace));
    } else if (std::optional<Json> r = replace(item)) {
      out.push(std::move(*r));
    }
  }
  return out;
}

}  // namespace lo::service
