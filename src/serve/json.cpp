#include "serve/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <stdexcept>

#include "obs/json_string.h"

namespace dg::serve::json {

namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at byte " + std::to_string(pos));
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail(pos_, "trailing content");
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) != lit) return false;
    pos_ += lit.size();
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{':
      case '[': {
        if (++depth_ > kMaxDepth) {
          fail(pos_, "nesting deeper than " + std::to_string(kMaxDepth));
        }
        Value v = c == '{' ? parse_object() : parse_array();
        --depth_;
        return v;
      }
      case '"':
        return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail(pos_, "bad literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail(pos_, "bad literal");
      case 'n':
        if (consume_literal("null")) return Value();
        fail(pos_, "bad literal");
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Object obj;
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return Value(std::move(obj));
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return Value(std::move(obj));
      if (c != ',') fail(pos_ - 1, "expected ',' or '}'");
    }
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return Value(std::move(arr));
      if (c != ',') fail(pos_ - 1, "expected ',' or ']'");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': append_unicode(out); break;
        default: fail(pos_ - 1, "bad escape");
      }
    }
  }

  void append_unicode(std::string& out) {
    const unsigned cp = parse_hex4();
    // Basic-plane only (no surrogate-pair recombination) — the protocol
    // never emits non-BMP text; surrogates decode as replacement bytes.
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  unsigned parse_hex4() {
    if (pos_ + 4 > text_.size()) fail(pos_, "short \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') v |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') v |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') v |= static_cast<unsigned>(c - 'A' + 10);
      else fail(pos_ - 1, "bad hex digit");
    }
    return v;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    double v = 0.0;
    const auto res = std::from_chars(text_.data() + start, text_.data() + pos_, v);
    if (res.ec != std::errc{} || res.ptr != text_.data() + pos_ || pos_ == start) {
      fail(start, "bad number");
    }
    return Value(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< arrays/objects open at pos_
};

void dump_to(const Value& v, std::string& out) {
  switch (v.type()) {
    case Value::Type::Null:
      out += "null";
      break;
    case Value::Type::Bool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Type::Number:
      append_number(out, v.as_number());
      break;
    case Value::Type::String:
      obs::append_json_string(out, v.as_string());
      break;
    case Value::Type::Array: {
      out.push_back('[');
      bool first = true;
      for (const Value& e : v.as_array()) {
        if (!first) out.push_back(',');
        first = false;
        dump_to(e, out);
      }
      out.push_back(']');
      break;
    }
    case Value::Type::Object: {
      out.push_back('{');
      bool first = true;
      for (const auto& [k, e] : v.as_object()) {
        if (!first) out.push_back(',');
        first = false;
        obs::append_json_string(out, k);
        out.push_back(':');
        dump_to(e, out);
      }
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

bool Value::as_bool() const {
  if (type_ != Type::Bool) throw std::runtime_error("json: not a bool");
  return bool_;
}

double Value::as_number() const {
  if (type_ != Type::Number) throw std::runtime_error("json: not a number");
  return num_;
}

const std::string& Value::as_string() const {
  if (type_ != Type::String) throw std::runtime_error("json: not a string");
  return str_;
}

const Array& Value::as_array() const {
  if (type_ != Type::Array) throw std::runtime_error("json: not an array");
  return arr_;
}

const Object& Value::as_object() const {
  if (type_ != Type::Object) throw std::runtime_error("json: not an object");
  return obj_;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::Object) return nullptr;
  for (const auto& [k, v] : obj_) {
    if (k == key) return &v;
  }
  return nullptr;
}

double Value::number_or(std::string_view key, double fallback) const {
  const Value* v = find(key);
  return v && v->is_number() ? v->as_number() : fallback;
}

std::string Value::string_or(std::string_view key, std::string fallback) const {
  const Value* v = find(key);
  return v && v->is_string() ? v->as_string() : std::move(fallback);
}

bool Value::bool_or(std::string_view key, bool fallback) const {
  const Value* v = find(key);
  return v && v->is_bool() ? v->as_bool() : fallback;
}

void Value::set(std::string key, Value v) {
  if (type_ != Type::Object) {
    type_ = Type::Object;
    obj_.clear();
  }
  for (auto& [k, existing] : obj_) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj_.emplace_back(std::move(key), std::move(v));
}

Value parse(std::string_view text) { return Parser(text).parse_document(); }

void append_number(std::string& out, double n) {
  if (!std::isfinite(n)) {
    out += "null";  // JSON has no Inf/NaN; the protocol never sends them
    return;
  }
  char buf[32];
  std::to_chars_result r;
  // Magnitude first: casting a double beyond long long's range is
  // undefined.
  if (std::fabs(n) < 9.0e15 &&
      n == static_cast<double>(static_cast<long long>(n))) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(n));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), n, std::chars_format::general,
                      9);
  }
  out.append(buf, r.ptr);
}

std::string dump(const Value& v) {
  std::string out;
  dump_to(v, out);
  return out;
}

}  // namespace dg::serve::json
