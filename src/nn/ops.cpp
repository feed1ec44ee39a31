#include "nn/ops.h"

#include <iterator>

namespace dg::nn {

const char* to_string(DiffClass c) {
  switch (c) {
    case DiffClass::kDoubleBackward: return "double-backward";
    case DiffClass::kZeroCurvature: return "zero-curvature";
    case DiffClass::kFirstOrderOnly: return "first-order-only";
  }
  return "?";
}

const char* to_string(DetClass c) {
  switch (c) {
    case DetClass::kOrderFree: return "order-free";
    case DetClass::kOrderedReduction: return "ordered-reduction";
    case DetClass::kAccumulating: return "accumulating";
  }
  return "?";
}

namespace {

// ---- shape rules ----

ShapeResult same_shape(std::span<const Shape> in, const OpAttrs&) {
  if (in[0] != in[1]) {
    return ShapeResult::fail("elementwise operands disagree: " + in[0].str() +
                             " vs " + in[1].str());
  }
  return ShapeResult::ok(in[0]);
}

ShapeResult pass_through(std::span<const Shape> in, const OpAttrs&) {
  return ShapeResult::ok(in[0]);
}

ShapeResult from_attrs(std::span<const Shape>, const OpAttrs& attrs) {
  return ShapeResult::ok({attrs.rows, attrs.cols});
}

/// "x" + s.str() without GCC 12's spurious -Wrestrict on a short literal
/// prepended to a temporary string.
std::string named(const char* name, const Shape& s) {
  std::string out = name;
  out += s.str();
  return out;
}

/// Bounds-checks a [i0, i1) range against a total extent (when concrete).
std::string check_range(int i0, int i1, const Dim& total, const char* axis) {
  if (i0 < 0 || i1 < i0) {
    return std::string("bad ") + axis + " range [" + std::to_string(i0) +
           ", " + std::to_string(i1) + ")";
  }
  if (total.concrete() && i1 > total.value) {
    return std::string(axis) + " range [" + std::to_string(i0) + ", " +
           std::to_string(i1) + ") exceeds extent " + total.str();
  }
  return {};
}

ShapeResult matmul_shape(std::span<const Shape> in, const OpAttrs&) {
  if (in[0].cols != in[1].rows) {
    return ShapeResult::fail("inner dims disagree: " + in[0].str() + " x " +
                             in[1].str());
  }
  return ShapeResult::ok({in[0].rows, in[1].cols});
}

ShapeResult transpose_shape(std::span<const Shape> in, const OpAttrs&) {
  return ShapeResult::ok({in[0].cols, in[0].rows});
}

ShapeResult affine_shape(std::span<const Shape> in, const OpAttrs&) {
  const Shape &x = in[0], &w = in[1], &b = in[2];
  if (x.cols != w.rows) {
    return ShapeResult::fail(named("x", x) + " does not feed w" + w.str());
  }
  if (b.rows != Dim::of(1) || b.cols != w.cols) {
    return ShapeResult::fail("bias " + b.str() + " is not [1, " +
                             w.cols.str() + "]");
  }
  return ShapeResult::ok({x.rows, w.cols});
}

ShapeResult lstm_gates_shape(std::span<const Shape> in, const OpAttrs&) {
  const Shape &x = in[0], &wx = in[1], &h = in[2], &wh = in[3], &b = in[4];
  if (x.cols != wx.rows) {
    return ShapeResult::fail(named("x", x) + " does not feed wx" + wx.str());
  }
  if (h.cols != wh.rows) {
    return ShapeResult::fail(named("h", h) + " does not feed wh" + wh.str());
  }
  if (x.rows != h.rows) {
    return ShapeResult::fail(named("x", x) + " and h" + h.str() +
                             " batch dims disagree");
  }
  if (wx.cols != wh.cols || b.rows != Dim::of(1) || b.cols != wx.cols) {
    return ShapeResult::fail("gate widths disagree: wx" + wx.str() + ", wh" +
                             wh.str() + ", b" + b.str());
  }
  if (wh.rows.concrete() && wh.cols.concrete() &&
      wh.cols.value != 4 * wh.rows.value) {
    return ShapeResult::fail(named("wh", wh) + " is not [hidden, 4*hidden]");
  }
  return ShapeResult::ok({x.rows, wx.cols});
}

ShapeResult row_vector(std::span<const Shape> in, const OpAttrs&) {
  if (in[1].rows != Dim::of(1) || in[1].cols != in[0].cols) {
    return ShapeResult::fail("row vector " + in[1].str() +
                             " does not broadcast over " + in[0].str());
  }
  return ShapeResult::ok(in[0]);
}

ShapeResult col_vector(std::span<const Shape> in, const OpAttrs&) {
  if (in[1].cols != Dim::of(1) || in[1].rows != in[0].rows) {
    return ShapeResult::fail("column vector " + in[1].str() +
                             " does not broadcast over " + in[0].str());
  }
  return ShapeResult::ok(in[0]);
}

ShapeResult scalar_to_attrs(std::span<const Shape> in, const OpAttrs& attrs) {
  if (in[0].rows != Dim::of(1) || in[0].cols != Dim::of(1)) {
    return ShapeResult::fail("input " + in[0].str() + " is not 1x1");
  }
  return ShapeResult::ok({attrs.rows, attrs.cols});
}

ShapeResult per_row(std::span<const Shape> in, const OpAttrs&) {
  return ShapeResult::ok({in[0].rows, Dim::of(1)});
}

ShapeResult per_col(std::span<const Shape> in, const OpAttrs&) {
  return ShapeResult::ok({Dim::of(1), in[0].cols});
}

ShapeResult scalar(std::span<const Shape>, const OpAttrs&) {
  return ShapeResult::ok({Dim::of(1), Dim::of(1)});
}

ShapeResult concat_cols_shape(std::span<const Shape> in, const OpAttrs&) {
  Dim cols = Dim::of(0);
  for (const Shape& s : in) {
    if (s.rows != in[0].rows) {
      return ShapeResult::fail("row counts disagree: " + in[0].str() +
                               " vs " + s.str());
    }
    cols = add_dims(cols, s.cols);
  }
  return ShapeResult::ok({in[0].rows, cols});
}

ShapeResult concat_rows_shape(std::span<const Shape> in, const OpAttrs&) {
  Dim rows = Dim::of(0);
  for (const Shape& s : in) {
    if (s.cols != in[0].cols) {
      return ShapeResult::fail("column counts disagree: " + in[0].str() +
                               " vs " + s.str());
    }
    rows = add_dims(rows, s.rows);
  }
  return ShapeResult::ok({rows, in[0].cols});
}

ShapeResult slice_cols_shape(std::span<const Shape> in, const OpAttrs& attrs) {
  if (std::string err = check_range(attrs.i0, attrs.i1, in[0].cols, "column");
      !err.empty()) {
    return ShapeResult::fail(std::move(err));
  }
  return ShapeResult::ok({in[0].rows, Dim::of(attrs.i1 - attrs.i0)});
}

ShapeResult slice_rows_shape(std::span<const Shape> in, const OpAttrs& attrs) {
  if (std::string err = check_range(attrs.i0, attrs.i1, in[0].rows, "row");
      !err.empty()) {
    return ShapeResult::fail(std::move(err));
  }
  return ShapeResult::ok({Dim::of(attrs.i1 - attrs.i0), in[0].cols});
}

ShapeResult pad_cols_shape(std::span<const Shape> in, const OpAttrs& attrs) {
  if (attrs.i0 < 0 || attrs.i1 < 0) return ShapeResult::fail("negative padding");
  return ShapeResult::ok(
      {in[0].rows, add_dims(in[0].cols, Dim::of(attrs.i0 + attrs.i1))});
}

ShapeResult pad_rows_shape(std::span<const Shape> in, const OpAttrs& attrs) {
  if (attrs.i0 < 0 || attrs.i1 < 0) return ShapeResult::fail("negative padding");
  return ShapeResult::ok(
      {add_dims(in[0].rows, Dim::of(attrs.i0 + attrs.i1)), in[0].cols});
}

// ---- FLOP formulas ----

std::uint64_t elems(Dims d) {
  return static_cast<std::uint64_t>(d.first) *
         static_cast<std::uint64_t>(d.second);
}

std::uint64_t no_flops(std::span<const Dims>, Dims) { return 0; }

std::uint64_t per_output(std::span<const Dims>, Dims out) {
  return elems(out);
}

/// 2*n*k*m for [n,k] x [k,m].
std::uint64_t matmul_flops(std::span<const Dims> in, Dims out) {
  return 2 * elems(in[0]) * static_cast<std::uint64_t>(out.second);
}

/// x*w + b: the product, then one add per output for the bias.
std::uint64_t affine_flops(std::span<const Dims> in, Dims out) {
  return matmul_flops(in, out) + elems(out);
}

/// x*wx + h*wh + b: both products, then one add per output for the bias.
std::uint64_t gates_flops(std::span<const Dims> in, Dims out) {
  return 2 * (elems(in[0]) + elems(in[2])) *
             static_cast<std::uint64_t>(out.second) +
         elems(out);
}

// ---- the table ----

using enum Op;
constexpr DetClass kFree = DetClass::kOrderFree;
constexpr DetClass kRed = DetClass::kOrderedReduction;
constexpr DetClass kAccum = DetClass::kAccumulating;
constexpr DiffClass kDouble = DiffClass::kDoubleBackward;
// relu/abs backprop through a locally-constant mask captured as data:
// correct under the gradient penalty (zero curvature), flagged distinctly so
// the audit trail records the reasoning.
constexpr DiffClass kMask = DiffClass::kZeroCurvature;
constexpr std::optional<simd::EwFn> kNoEw;
using Fn = simd::EwFn;

}  // namespace

// One row per Op, in enum order. The ordered reductions are every op that
// folds an extent through floating-point adds; their kernels fix the
// summation order by construction. "grad" is the engine's one
// read-modify-write accumulation target. neg_row_max (the softmax shift)
// compares without adding, so it is order-free, and it has no backward
// rule. The ULP bounds of the polynomial transcendentals are their worst
// case vs libm on the supported domain (measured 1/1/2 on [-87, 88]; pinned
// with headroom).
// clang-format off
constexpr OpDef kOpTable[] = {
    // op, name, arity min/max, shape rule, det, diff, ulp, flops, ew
    {kLeaf,            "leaf",             0, 0,  from_attrs,        kFree,  kDouble, 0, no_flops,     kNoEw},
    {kConstant,        "constant",         0, 0,  from_attrs,        kFree,  kDouble, 0, no_flops,     kNoEw},
    {kGrad,            "grad",             0, 0,  from_attrs,        kAccum, kDouble, 0, no_flops,     kNoEw},
    {kAdd,             "add",              2, 2,  same_shape,        kFree,  kDouble, 0, per_output,   Fn::kAdd},
    {kSub,             "sub",              2, 2,  same_shape,        kFree,  kDouble, 0, per_output,   Fn::kSub},
    {kNeg,             "neg",              1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kNeg},
    {kMul,             "mul",              2, 2,  same_shape,        kFree,  kDouble, 0, per_output,   Fn::kMul},
    {kDiv,             "div",              2, 2,  same_shape,        kFree,  kDouble, 0, per_output,   Fn::kDiv},
    {kAddScalar,       "add_scalar",       1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   kNoEw},
    {kMulScalar,       "mul_scalar",       1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   kNoEw},
    {kMatmul,          "matmul",           2, 2,  matmul_shape,      kRed,   kDouble, 0, matmul_flops, kNoEw},
    {kTranspose,       "transpose",        1, 1,  transpose_shape,   kFree,  kDouble, 0, no_flops,     kNoEw},
    {kAffine,          "affine",           3, 3,  affine_shape,      kRed,   kDouble, 0, affine_flops, kNoEw},
    {kLstmGates,       "lstm_gates",       5, 5,  lstm_gates_shape,  kRed,   kDouble, 0, gates_flops,  kNoEw},
    {kAddRowvec,       "add_rowvec",       2, 2,  row_vector,        kFree,  kDouble, 0, per_output,   kNoEw},
    {kAddColvec,       "add_colvec",       2, 2,  col_vector,        kFree,  kDouble, 0, per_output,   kNoEw},
    {kMulColvec,       "mul_colvec",       2, 2,  col_vector,        kFree,  kDouble, 0, per_output,   kNoEw},
    {kMulRowvec,       "mul_rowvec",       2, 2,  row_vector,        kFree,  kDouble, 0, per_output,   kNoEw},
    {kBroadcastScalar, "broadcast_scalar", 1, 1,  scalar_to_attrs,   kFree,  kDouble, 0, per_output,   kNoEw},
    {kRowSum,          "row_sum",          1, 1,  per_row,           kRed,   kDouble, 0, per_output,   kNoEw},
    {kColSum,          "col_sum",          1, 1,  per_col,           kRed,   kDouble, 0, per_output,   kNoEw},
    {kSum,             "sum",              1, 1,  scalar,            kRed,   kDouble, 0, per_output,   kNoEw},
    {kNegRowMax,       "neg_row_max",      1, 1,  per_row,           kFree,  kDouble, 0, per_output,   kNoEw},
    {kRelu,            "relu",             1, 1,  pass_through,      kFree,  kMask,   0, per_output,   Fn::kRelu},
    {kTanh,            "tanh",             1, 1,  pass_through,      kFree,  kDouble, 2, per_output,   Fn::kTanh},
    {kSigmoid,         "sigmoid",          1, 1,  pass_through,      kFree,  kDouble, 3, per_output,   Fn::kSigmoid},
    {kExp,             "exp",              1, 1,  pass_through,      kFree,  kDouble, 2, per_output,   Fn::kExp},
    {kLog,             "log",              1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kLog},
    {kSqrt,            "sqrt",             1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kSqrt},
    {kSquare,          "square",           1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kSquare},
    {kAbs,             "abs",              1, 1,  pass_through,      kFree,  kMask,   0, per_output,   Fn::kAbs},
    {kRecip,           "recip",            1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kRecip},
    {kConcatCols,      "concat_cols",      1, -1, concat_cols_shape, kFree,  kDouble, 0, no_flops,     kNoEw},
    {kConcatRows,      "concat_rows",      1, -1, concat_rows_shape, kFree,  kDouble, 0, no_flops,     kNoEw},
    {kSliceCols,       "slice_cols",       1, 1,  slice_cols_shape,  kFree,  kDouble, 0, no_flops,     kNoEw},
    {kSliceRows,       "slice_rows",       1, 1,  slice_rows_shape,  kFree,  kDouble, 0, no_flops,     kNoEw},
    {kPadCols,         "pad_cols",         1, 1,  pad_cols_shape,    kFree,  kDouble, 0, no_flops,     kNoEw},
    {kPadRows,         "pad_rows",         1, 1,  pad_rows_shape,    kFree,  kDouble, 0, no_flops,     kNoEw},
};
// clang-format on

static_assert(
    [] {
      for (std::size_t i = 0; i < std::size(kOpTable); ++i) {
        if (kOpTable[i].op != static_cast<Op>(i)) return false;
      }
      return std::size(kOpTable) == static_cast<std::size_t>(Op::kCount);
    }(),
    "every Op has exactly one row, in enum order");

const OpDef* find_op(std::string_view name) {
  for (const OpDef& row : kOpTable) {
    if (name == row.name) return &row;
  }
  return nullptr;
}

std::uint64_t op_bytes(std::span<const Dims> in, Dims out) {
  std::uint64_t floats = elems(out);
  for (const Dims& d : in) floats += elems(d);
  return floats * sizeof(float);
}

}  // namespace dg::nn
