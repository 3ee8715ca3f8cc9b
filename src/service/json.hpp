// Minimal JSON value type for the service layer: the result-cache disk
// store, the metrics snapshot and the losynthd line protocol all speak
// JSON, and the container must not grow third-party dependencies.
//
// Design points that matter here:
//  * Objects keep insertion order, so dump() output is deterministic and
//    two serialisations of the same value are byte-identical -- the
//    cache's cold-vs-warm byte-equality check rests on this.
//  * Numbers round-trip exactly through one <charconv> codec: dump() and
//    formatNumber() print an integer below 1e15 as its digits and every
//    other finite double with std::to_chars at 17 significant digits
//    (which the standard defines as printf's %.17g), and parse() reads each
//    number with std::from_chars, handing the tokens it does not read whole
//    (a leading '+', an exponent past the double range) to strtod.  The
//    bytes are printf's and the values strtod's, so cache keys and stored
//    entries are the same as with those functions, and a result that goes
//    through the disk store comes back bit-identical.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lo::service {

/// Thrown by Json::parse on malformed input (with a character offset) and
/// by the integer accessors on numbers outside their type's range.
class JsonParseError : public std::runtime_error {
 public:
  explicit JsonParseError(const std::string& what) : std::runtime_error(what) {}
};

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double v) : type_(Type::kNumber), number_(v) {}
  Json(int v) : type_(Type::kNumber), number_(v) {}
  Json(std::int64_t v) : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(std::uint64_t v) : type_(Type::kNumber), number_(static_cast<double>(v)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}

  [[nodiscard]] static Json array() {
    Json j;
    j.type_ = Type::kArray;
    return j;
  }
  [[nodiscard]] static Json object() {
    Json j;
    j.type_ = Type::kObject;
    return j;
  }

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool isNull() const { return type_ == Type::kNull; }
  [[nodiscard]] bool isObject() const { return type_ == Type::kObject; }
  [[nodiscard]] bool isArray() const { return type_ == Type::kArray; }

  /// Typed accessors with a fallback for absent / wrong-typed values.
  [[nodiscard]] bool asBool(bool fallback = false) const {
    return type_ == Type::kBool ? bool_ : fallback;
  }
  [[nodiscard]] double asDouble(double fallback = 0.0) const {
    return type_ == Type::kNumber ? number_ : fallback;
  }
  /// Truncate toward zero; a number the type cannot hold throws.
  [[nodiscard]] int asInt(int fallback = 0) const;
  [[nodiscard]] std::uint64_t asUint64(std::uint64_t fallback = 0) const;
  [[nodiscard]] const std::string& asString(const std::string& fallback = {}) const {
    return type_ == Type::kString ? string_ : fallback;
  }

  /// Array access.
  [[nodiscard]] const std::vector<Json>& items() const { return array_; }
  void push(Json v) {
    type_ = Type::kArray;
    array_.push_back(std::move(v));
  }

  /// Object access.  set() appends or overwrites in place; find() returns
  /// nullptr when the key is absent; at() is find() with a null fallback.
  [[nodiscard]] const std::vector<std::pair<std::string, Json>>& members() const {
    return object_;
  }
  void set(const std::string& key, Json v);
  [[nodiscard]] const Json* find(const std::string& key) const;
  [[nodiscard]] const Json& at(const std::string& key) const;

  /// Compact serialisation (no whitespace), deterministic member order.
  [[nodiscard]] std::string dump() const;

  /// Exact-round-trip number formatting shared with the cache key builder.
  [[nodiscard]] static std::string formatNumber(double v);
  /// formatNumber(v) appended to `out`, with no string of its own.
  static void appendNumber(std::string& out, double v);

  /// Parse one JSON document; trailing non-whitespace is an error.
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::vector<std::pair<std::string, Json>> object_;
};

}  // namespace lo::service
