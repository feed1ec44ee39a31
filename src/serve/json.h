// Minimal JSON value + parser/writer for the serve wire protocol. The repo
// deliberately has no third-party deps, so this implements just the JSON
// subset the protocol needs: objects, arrays, strings (with \uXXXX parsed
// to UTF-8), doubles, bools, null. Parse errors throw std::runtime_error
// with a byte offset.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dg::serve::json {

class Value;
using Array = std::vector<Value>;
using Object = std::vector<std::pair<std::string, Value>>;  // insertion order

class Value {
 public:
  enum class Type { Null, Bool, Number, String, Array, Object };

  Value() : type_(Type::Null) {}
  Value(bool b) : type_(Type::Bool), bool_(b) {}                // NOLINT
  Value(double n) : type_(Type::Number), num_(n) {}             // NOLINT
  Value(std::int64_t n)                                         // NOLINT
      : type_(Type::Number), num_(static_cast<double>(n)) {}
  Value(std::uint64_t n)                                        // NOLINT
      : type_(Type::Number), num_(static_cast<double>(n)) {}
  Value(int n) : type_(Type::Number), num_(n) {}                // NOLINT
  Value(std::string s) : type_(Type::String), str_(std::move(s)) {}  // NOLINT
  Value(const char* s) : type_(Type::String), str_(s) {}        // NOLINT
  Value(Array a) : type_(Type::Array), arr_(std::move(a)) {}    // NOLINT
  Value(Object o) : type_(Type::Object), obj_(std::move(o)) {}  // NOLINT

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::Null; }
  bool is_bool() const { return type_ == Type::Bool; }
  bool is_number() const { return type_ == Type::Number; }
  bool is_string() const { return type_ == Type::String; }
  bool is_array() const { return type_ == Type::Array; }
  bool is_object() const { return type_ == Type::Object; }

  /// Typed accessors; throw std::runtime_error on type mismatch.
  bool as_bool() const;
  double as_number() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;

  /// Object field lookup; null pointer when absent (or not an object).
  const Value* find(std::string_view key) const;
  /// Convenience typed getters with defaults for optional fields.
  double number_or(std::string_view key, double fallback) const;
  std::string string_or(std::string_view key, std::string fallback) const;
  bool bool_or(std::string_view key, bool fallback) const;

  /// Builder helper: appends/overwrites a field (object values only).
  void set(std::string key, Value v);

 private:
  Type type_;
  bool bool_ = false;
  double num_ = 0.0;
  std::string str_;
  Array arr_;
  Object obj_;
};

/// Deepest array/object nesting parse() accepts. The parser recurses once
/// per level, so the bound keeps a hostile line from exhausting the stack;
/// the protocol's deepest document has about five levels.
inline constexpr int kMaxDepth = 64;

/// Parses exactly one JSON document (trailing whitespace allowed). Nesting
/// deeper than kMaxDepth is a parse error.
Value parse(std::string_view text);

/// Serializes compactly (no whitespace); numbers are written by
/// append_number, so a parse(dump(v)) round trip is exact for every float32
/// value and every integer below 9e15.
std::string dump(const Value& v);

/// Appends `n` as dump writes it: `null` when not finite, an integral value
/// below 9e15 in magnitude as an integer, anything else with
/// std::to_chars(..., std::chars_format::general, 9), which the standard
/// defines as printf's "%.9g" (9 significant digits round-trip a float32).
void append_number(std::string& out, double n);

}  // namespace dg::serve::json
