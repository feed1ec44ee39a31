// Shape-only tensor vocabulary of the op table's shape rules (nn/ops.h)
// and the analyzer's symbolic graph (analysis/symbolic.h): a Dim is either a
// concrete extent or a named symbol (the batch dimension "B" is the only
// symbol a DoppelGANger trace produces, but nothing here hard-codes that),
// and a Shape is a [rows, cols] pair — the whole tensor model of the nn
// layer. No data, no allocation: shape rules over these prove shape
// soundness without paying for a single matrix.
#pragma once

#include <string>
#include <utility>

namespace dg::nn {

struct Dim {
  long long value = 0;
  std::string name;  // empty => concrete `value`

  static Dim of(long long v) { return {v, {}}; }
  static Dim sym(std::string n) { return {0, std::move(n)}; }

  bool concrete() const { return name.empty(); }

  bool operator==(const Dim& o) const {
    return concrete() ? (o.concrete() && value == o.value)
                      : (!o.concrete() && name == o.name);
  }
  bool operator!=(const Dim& o) const { return !(*this == o); }

  std::string str() const {
    return concrete() ? std::to_string(value) : name;
  }
};

/// Sum of two dims. Concrete + concrete folds; anything symbolic composes a
/// derived symbol ("B+5") so concat over a symbolic axis stays representable
/// (and still comparable by name).
inline Dim add_dims(const Dim& a, const Dim& b) {
  if (a.concrete() && b.concrete()) return Dim::of(a.value + b.value);
  return Dim::sym(a.str() + "+" + b.str());
}

struct Shape {
  Dim rows;
  Dim cols;

  bool operator==(const Shape& o) const {
    return rows == o.rows && cols == o.cols;
  }
  bool operator!=(const Shape& o) const { return !(*this == o); }

  std::string str() const {
    std::string out = "[";
    out += rows.str();
    out += ", ";
    out += cols.str();
    out += ']';
    return out;
  }
};

}  // namespace dg::nn
