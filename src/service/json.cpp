#include "service/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdlib>

namespace lo::service {

void Json::set(const std::string& key, Json v) {
  type_ = Type::kObject;
  for (auto& [k, value] : object_) {
    if (k == key) {
      value = std::move(v);
      return;
    }
  }
  object_.emplace_back(key, std::move(v));
}

const Json* Json::find(const std::string& key) const {
  for (const auto& [k, value] : object_) {
    if (k == key) return &value;
  }
  return nullptr;
}

namespace {

[[noreturn]] void throwOutOfRange(double v, const char* type) {
  throw JsonParseError("number " + Json::formatNumber(v) + " is out of range for " +
                       type);
}

}  // namespace

int Json::asInt(int fallback) const {
  if (type_ != Type::kNumber) return fallback;
  if (!(number_ > -2147483649.0 && number_ < 2147483648.0)) {
    throwOutOfRange(number_, "int");
  }
  return static_cast<int>(number_);
}

std::uint64_t Json::asUint64(std::uint64_t fallback) const {
  if (type_ != Type::kNumber) return fallback;
  if (!(number_ > -1.0 && number_ < 18446744073709551616.0)) {
    throwOutOfRange(number_, "uint64");
  }
  return static_cast<std::uint64_t>(number_);
}

const Json& Json::at(const std::string& key) const {
  static const Json kNull;
  const Json* found = find(key);
  return found ? *found : kNull;
}

void Json::appendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {  // JSON has no inf/nan.
    out += "null";
    return;
  }
  char buf[32];  // The longest %.17g text, "-2.2250738585072014e-308", is 24.
  const std::to_chars_result written =
      v == std::floor(v) && std::abs(v) < 1e15
          ? std::to_chars(buf, buf + sizeof buf, static_cast<long long>(v))
          // The standard defines this as printf's %.17g in the C locale.
          : std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, written.ptr);
}

std::string Json::formatNumber(double v) {
  std::string out;
  appendNumber(out, v);
  return out;
}

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

void escapeInto(const std::string& s, std::string& out) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += "\\u00";
          out += kHexDigits[c >> 4];
          out += kHexDigits[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void dumpInto(const Json& j, std::string& out) {
  switch (j.type()) {
    case Json::Type::kNull: out += "null"; break;
    case Json::Type::kBool: out += j.asBool() ? "true" : "false"; break;
    case Json::Type::kNumber: Json::appendNumber(out, j.asDouble()); break;
    case Json::Type::kString: escapeInto(j.asString(), out); break;
    case Json::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Json& item : j.items()) {
        if (!first) out += ',';
        first = false;
        dumpInto(item, out);
      }
      out += ']';
      break;
    }
    case Json::Type::kObject: {
      out += '{';
      bool first = true;
      for (const auto& [key, value] : j.members()) {
        if (!first) out += ',';
        first = false;
        escapeInto(key, out);
        out += ':';
        dumpInto(value, out);
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json document() {
    const Json value = parseValue(0);
    skipWs();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonParseError("JSON parse error at offset " + std::to_string(pos_) +
                         ": " + why);
  }

  void skipWs() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) {
      fail("expected \"" + std::string(literal) + "\"");
    }
    pos_ += literal.size();
  }

  /// The parser recurses once per nesting level, so a document nested
  /// deeper than this is refused instead of overflowing the stack.  The
  /// protocol's deepest request (a sweep's jobs[].spec) is four levels down.
  static constexpr int kMaxDepth = 64;

  /// `depth` counts the objects and arrays around the value.
  Json parseValue(int depth) {
    skipWs();
    const char c = peek();
    if ((c == '{' || c == '[') && depth == kMaxDepth) fail("nesting deeper than 64 levels");
    switch (c) {
      case '{': return parseObject(depth + 1);
      case '[': return parseArray(depth + 1);
      case '"': return Json(parseString());
      case 't': expect("true"); return Json(true);
      case 'f': expect("false"); return Json(false);
      case 'n': expect("null"); return Json();
      default: return parseNumber();
    }
  }

  Json parseObject(int depth) {
    ++pos_;  // '{'
    Json obj = Json::object();
    skipWs();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    while (true) {
      skipWs();
      if (peek() != '"') fail("expected object key string");
      std::string key = parseString();
      skipWs();
      if (peek() != ':') fail("expected ':' after object key");
      ++pos_;
      obj.set(key, parseValue(depth));
      skipWs();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parseArray(int depth) {
    ++pos_;  // '['
    Json arr = Json::array();
    skipWs();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    while (true) {
      arr.push(parseValue(depth));
      skipWs();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // UTF-8 encode the BMP code point (surrogate pairs unsupported).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("unknown escape character");
      }
    }
  }

  Json parseNumber() {
    const std::size_t start = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' || c == 'e' ||
          c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) fail("expected a value");
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double v = 0.0;
    const std::from_chars_result read = std::from_chars(first, last, v);
    if (read.ec == std::errc{} && read.ptr == last) return Json(v);
    // from_chars reads what strtod reads, except a leading '+' and a value
    // beyond the double range, which strtod turns into 0 or infinity; so
    // strtod decides every token from_chars did not read whole.
    const std::string token(first, last);
    char* end = nullptr;
    v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) fail("malformed number");
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string Json::dump() const {
  std::string out;
  dumpInto(*this, out);
  return out;
}

Json Json::parse(std::string_view text) { return Parser(text).document(); }

}  // namespace lo::service
