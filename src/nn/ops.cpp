#include "nn/ops.h"

#include <algorithm>
#include <iterator>
#include <vector>

#include "nn/parallel.h"
#include "obs/profile.h"

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

/// a [n,k] times bᵀ for b [m,k]: [n,m].
ShapeResult matmul_nt_shape(std::span<const Shape> in, const OpAttrs&) {
  if (in[0].cols != in[1].cols) {
    return ShapeResult::fail("inner dims disagree: " + in[0].str() + " x " +
                             in[1].str() + "^T");
  }
  return ShapeResult::ok({in[0].rows, in[1].rows});
}

/// aᵀ for a [n,k] times b [n,m]: [k,m].
ShapeResult matmul_tn_shape(std::span<const Shape> in, const OpAttrs&) {
  if (in[0].rows != in[1].rows) {
    return ShapeResult::fail("inner dims disagree: " + in[0].str() + "^T x " +
                             in[1].str());
  }
  return ShapeResult::ok({in[0].cols, in[1].cols});
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

/// 2*n*k*m for [n,k] x [k,m], and for matmul_nt's [n,k] x [m,k]ᵀ and
/// matmul_tn's [n,k]ᵀ x [n,m].
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

// ---- row kernels ----
// Every body runs through the SIMD tier (nn/simd/vec.h), whose kernels fix
// the per-row accumulation order, so a row's bytes do not depend on which
// rows share its call. Operands are read into locals first: the SIMD calls
// are opaque, so fields read through `a` would be reloaded every row.

/// Row i of a row-major buffer `cols` floats wide.
template <typename T>
T* row(T* data, int cols, std::int64_t i) {
  return data + static_cast<std::size_t>(i) * cols;
}

/// Each output row set to the bias row (the last operand) when the op has
/// one, else to zero, then each (x, w) operand pair's product accumulated
/// onto it in order by the kernel F: x*w (matmul), x*w + b (affine),
/// x*wx + h*wh + b (lstm_gates), or x*wᵀ with w read whole (matmul_nt).
template <bool kBias, auto F = &simd::KernelTable::matmul_acc_rows>
void products(const RowArgs& a, std::int64_t r0, std::int64_t r1) {
  float* const out = a.out;
  const int m = a.out_cols;
  for (std::int64_t i = r0; i < r1; ++i) {
    if constexpr (kBias) std::copy_n(a.in.back().data, m, row(out, m, i));
    else std::fill_n(row(out, m, i), m, 0.0f);
  }
  for (std::size_t p = 0; p + 1 < a.in.size(); p += 2) {
    const RowIn x = a.in[p], w = a.in[p + 1];
    (simd::kernels().*F)(x.data, x.cols, w.data, m, out, r0, r1);
  }
}

/// Row i of x combined with the call's scalar (add_scalar, mul_scalar). The
/// rows are contiguous and as wide as the output, so one call covers them.
template <auto simd::KernelTable::*F>
void scalar_rows(const RowArgs& a, std::int64_t r0, std::int64_t r1) {
  const int m = a.out_cols;
  (simd::kernels().*F)(row(a.in[0].data, m, r0), a.attrs.scalar,
                       row(a.out, m, r0), (r1 - r0) * m);
}

/// Row i of x combined elementwise with the row vector in[1].
template <simd::EwFn F>
void rowvec_rows(const RowArgs& a, std::int64_t r0, std::int64_t r1) {
  const auto apply = simd::kernels().apply_ew;
  const RowIn x = a.in[0];
  const float* const v = a.in[1].data;
  float* const out = a.out;
  const int m = a.out_cols;
  for (std::int64_t i = r0; i < r1; ++i) {
    apply(F, row(x.data, x.cols, i), v, row(out, m, i), m);
  }
}

/// Row i of x combined with the scalar in[1][i] (add_colvec, mul_colvec).
template <auto simd::KernelTable::*F>
void colvec_rows(const RowArgs& a, std::int64_t r0, std::int64_t r1) {
  const auto f = simd::kernels().*F;
  const RowIn x = a.in[0];
  const float* const v = a.in[1].data;
  float* const out = a.out;
  const int m = a.out_cols;
  for (std::int64_t i = r0; i < r1; ++i) {
    f(row(x.data, x.cols, i), v[i], row(out, m, i), m);
  }
}

/// The 1x1 operand in every element of each row.
void broadcast_scalar_rows(const RowArgs& a, std::int64_t r0,
                           std::int64_t r1) {
  std::fill(row(a.out, a.out_cols, r0), row(a.out, a.out_cols, r1),
            a.in[0].data[0]);
}

/// Row i of x reduced to one float (row_sum, or neg_row_max: the softmax
/// shift).
template <auto simd::KernelTable::*F>
void reduce_rows(const RowArgs& a, std::int64_t r0, std::int64_t r1) {
  (simd::kernels().*F)(a.in[0].data, a.in[0].cols, a.out, r0, r1);
}

void concat_cols_rows(const RowArgs& a, std::int64_t r0, std::int64_t r1) {
  float* const out = a.out;
  const int m = a.out_cols;
  int offset = 0;
  for (const RowIn part : a.in) {
    for (std::int64_t i = r0; i < r1; ++i) {
      std::copy_n(row(part.data, part.cols, i), part.cols,
                  row(out, m, i) + offset);
    }
    offset += part.cols;
  }
}

/// Columns [attrs.i0, attrs.i0 + out_cols) of each row.
void slice_cols_rows(const RowArgs& a, std::int64_t r0, std::int64_t r1) {
  const RowIn x = a.in[0];
  const float* const from = x.data + a.attrs.i0;
  float* const out = a.out;
  const int m = a.out_cols;
  for (std::int64_t i = r0; i < r1; ++i) {
    std::copy_n(row(from, x.cols, i), m, row(out, m, i));
  }
}

/// attrs.i0 zero columns, the row of x, then zero columns to the width.
void pad_cols_rows(const RowArgs& a, std::int64_t r0, std::int64_t r1) {
  const RowIn x = a.in[0];
  const int m = a.out_cols;
  std::fill(row(a.out, m, r0), row(a.out, m, r1), 0.0f);
  for (std::int64_t i = r0; i < r1; ++i) {
    std::copy_n(row(x.data, x.cols, i), x.cols, row(a.out, m, i) + a.attrs.i0);
  }
}

// ---- whole-batch kernels ----
// Each runs on the calling thread: only the product row kernels fork (see
// run_op).

/// Floats per fixed-size chunk of col_sum (kReduceChunk / d rows) and of
/// sum. The chunks set where each partial sum starts, so this constant fixes
/// both reductions' bytes: change it and their rounding changes.
constexpr std::int64_t kReduceChunk = 1 << 14;

/// out = aᵀ·b. Row c of out folds column c of a over the batch, so it is
/// not row-local: zeroes out, then accumulates every output row.
void matmul_tn_batch(std::span<const Matrix* const> in, Matrix& out,
                     const OpAttrs&) {
  const Matrix &a = *in[0], &b = *in[1];
  std::fill_n(out.data(), out.size(), 0.0f);
  simd::kernels().matmul_tn_acc_rows(a.data(), a.rows(), a.cols(), b.data(),
                                     out.cols(), out.data(), 0, out.rows());
}

/// out = xᵀ: every column of x, as rows of out.
void transpose_batch(std::span<const Matrix* const> in, Matrix& out,
                     const OpAttrs&) {
  const Matrix& x = *in[0];
  simd::kernels().transpose(x.data(), x.rows(), x.cols(), out.data(), 0,
                            x.cols());
}

/// Column sums of x: fixed chunks of kReduceChunk / d rows add their rows
/// in ascending order (a vector add per row) onto a partial row from zeros,
/// and the partials add onto zeros in ascending chunk order. The partial is
/// one row reused per thread, so a warm call allocates only its result.
/// Bit-identical for any tier.
void col_sum_batch(std::span<const Matrix* const> in, Matrix& out,
                   const OpAttrs&) {
  const Matrix& x = *in[0];
  const int d = x.cols();
  const auto apply = simd::kernels().apply_ew;
  const std::int64_t chunk =
      std::max<std::int64_t>(1, kReduceChunk / std::max(1, d));
  thread_local std::vector<float> partial;
  std::fill_n(out.data(), d, 0.0f);
  for (std::int64_t r0 = 0; r0 < x.rows(); r0 += chunk) {
    const std::int64_t r1 = std::min<std::int64_t>(x.rows(), r0 + chunk);
    partial.assign(static_cast<std::size_t>(d), 0.0f);
    float* const acc = partial.data();
    for (std::int64_t i = r0; i < r1; ++i) {
      apply(simd::EwFn::kAdd, acc, row(x.data(), d, i), acc, d);
    }
    apply(simd::EwFn::kAdd, out.data(), acc, out.data(), d);
  }
}

/// The sum of every element of x, in double: fixed kReduceChunk-element
/// chunks fold serially from 0, and each chunk's sum adds onto the total in
/// ascending chunk order.
void sum_batch(std::span<const Matrix* const> in, Matrix& out,
               const OpAttrs&) {
  const float* const x = in[0]->data();
  const auto n = static_cast<std::int64_t>(in[0]->size());
  double total = 0.0;
  for (std::int64_t i0 = 0; i0 < n; i0 += kReduceChunk) {
    const std::int64_t i1 = std::min(n, i0 + kReduceChunk);
    double s = 0.0;
    for (std::int64_t i = i0; i < i1; ++i) s += x[i];
    total += s;
  }
  out.data()[0] = static_cast<float>(total);
}

/// The operands' rows, one operand after another.
void concat_rows_batch(std::span<const Matrix* const> in, Matrix& out,
                       const OpAttrs&) {
  float* o = out.data();
  for (const Matrix* part : in) o = std::copy_n(part->data(), part->size(), o);
}

/// Rows [attrs.i0, attrs.i0 + out.rows()) of x.
void slice_rows_batch(std::span<const Matrix* const> in, Matrix& out,
                      const OpAttrs& attrs) {
  const Matrix& x = *in[0];
  std::copy_n(row(x.data(), x.cols(), attrs.i0), out.size(), out.data());
}

/// attrs.i0 zero rows, x, then zero rows to the height.
void pad_rows_batch(std::span<const Matrix* const> in, Matrix& out,
                    const OpAttrs& attrs) {
  const Matrix& x = *in[0];
  float* const mid = row(out.data(), out.cols(), attrs.i0);
  std::fill(out.data(), mid, 0.0f);
  std::fill(std::copy_n(x.data(), x.size(), mid), out.data() + out.size(),
            0.0f);
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
using KT = simd::KernelTable;
constexpr RowKernel kMatmulNTRows = products<false, &KT::matmul_nt_acc_rows>;
constexpr RowKernel kNoRows = nullptr;
constexpr BatchKernel kNoBatch = nullptr;

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
    // op, name, arity min/max, shape rule, det, diff, ulp, flops, ew, rows, batch
    {kLeaf,            "leaf",             0, 0,  from_attrs,        kFree,  kDouble, 0, no_flops,     kNoEw,        kNoRows,                       kNoBatch},
    {kConstant,        "constant",         0, 0,  from_attrs,        kFree,  kDouble, 0, no_flops,     kNoEw,        kNoRows,                       kNoBatch},
    {kGrad,            "grad",             0, 0,  from_attrs,        kAccum, kDouble, 0, no_flops,     kNoEw,        kNoRows,                       kNoBatch},
    {kAdd,             "add",              2, 2,  same_shape,        kFree,  kDouble, 0, per_output,   Fn::kAdd,     kNoRows,                       kNoBatch},
    {kSub,             "sub",              2, 2,  same_shape,        kFree,  kDouble, 0, per_output,   Fn::kSub,     kNoRows,                       kNoBatch},
    {kNeg,             "neg",              1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kNeg,     kNoRows,                       kNoBatch},
    {kMul,             "mul",              2, 2,  same_shape,        kFree,  kDouble, 0, per_output,   Fn::kMul,     kNoRows,                       kNoBatch},
    {kDiv,             "div",              2, 2,  same_shape,        kFree,  kDouble, 0, per_output,   Fn::kDiv,     kNoRows,                       kNoBatch},
    {kAddScalar,       "add_scalar",       1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   kNoEw,        scalar_rows<&KT::add_scalar>,  kNoBatch},
    {kMulScalar,       "mul_scalar",       1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   kNoEw,        scalar_rows<&KT::mul_scalar>,  kNoBatch},
    {kMatmul,          "matmul",           2, 2,  matmul_shape,      kRed,   kDouble, 0, matmul_flops, kNoEw,        products<false>,               kNoBatch},
    {kMatmulNT,        "matmul_nt",        2, 2,  matmul_nt_shape,   kRed,   kDouble, 0, matmul_flops, kNoEw,        kMatmulNTRows,                 kNoBatch},
    {kMatmulTN,        "matmul_tn",        2, 2,  matmul_tn_shape,   kRed,   kDouble, 0, matmul_flops, kNoEw,        kNoRows,                       matmul_tn_batch},
    {kTranspose,       "transpose",        1, 1,  transpose_shape,   kFree,  kDouble, 0, no_flops,     kNoEw,        kNoRows,                       transpose_batch},
    {kAffine,          "affine",           3, 3,  affine_shape,      kRed,   kDouble, 0, affine_flops, kNoEw,        products<true>,                kNoBatch},
    {kLstmGates,       "lstm_gates",       5, 5,  lstm_gates_shape,  kRed,   kDouble, 0, gates_flops,  kNoEw,        products<true>,                kNoBatch},
    {kAddRowvec,       "add_rowvec",       2, 2,  row_vector,        kFree,  kDouble, 0, per_output,   kNoEw,        rowvec_rows<Fn::kAdd>,         kNoBatch},
    {kAddColvec,       "add_colvec",       2, 2,  col_vector,        kFree,  kDouble, 0, per_output,   kNoEw,        colvec_rows<&KT::add_scalar>,  kNoBatch},
    {kMulColvec,       "mul_colvec",       2, 2,  col_vector,        kFree,  kDouble, 0, per_output,   kNoEw,        colvec_rows<&KT::mul_scalar>,  kNoBatch},
    {kMulRowvec,       "mul_rowvec",       2, 2,  row_vector,        kFree,  kDouble, 0, per_output,   kNoEw,        rowvec_rows<Fn::kMul>,         kNoBatch},
    {kBroadcastScalar, "broadcast_scalar", 1, 1,  scalar_to_attrs,   kFree,  kDouble, 0, per_output,   kNoEw,        broadcast_scalar_rows,         kNoBatch},
    {kRowSum,          "row_sum",          1, 1,  per_row,           kRed,   kDouble, 0, per_output,   kNoEw,        reduce_rows<&KT::row_sum>,     kNoBatch},
    {kColSum,          "col_sum",          1, 1,  per_col,           kRed,   kDouble, 0, per_output,   kNoEw,        kNoRows,                       col_sum_batch},
    {kSum,             "sum",              1, 1,  scalar,            kRed,   kDouble, 0, per_output,   kNoEw,        kNoRows,                       sum_batch},
    {kNegRowMax,       "neg_row_max",      1, 1,  per_row,           kFree,  kDouble, 0, per_output,   kNoEw,        reduce_rows<&KT::neg_row_max>, kNoBatch},
    {kRelu,            "relu",             1, 1,  pass_through,      kFree,  kMask,   0, per_output,   Fn::kRelu,    kNoRows,                       kNoBatch},
    {kTanh,            "tanh",             1, 1,  pass_through,      kFree,  kDouble, 2, per_output,   Fn::kTanh,    kNoRows,                       kNoBatch},
    {kSigmoid,         "sigmoid",          1, 1,  pass_through,      kFree,  kDouble, 3, per_output,   Fn::kSigmoid, kNoRows,                       kNoBatch},
    {kExp,             "exp",              1, 1,  pass_through,      kFree,  kDouble, 2, per_output,   Fn::kExp,     kNoRows,                       kNoBatch},
    {kLog,             "log",              1, 1,  pass_through,      kFree,  kDouble, 1, per_output,   Fn::kLog,     kNoRows,                       kNoBatch},
    {kSqrt,            "sqrt",             1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kSqrt,    kNoRows,                       kNoBatch},
    {kSquare,          "square",           1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kSquare,  kNoRows,                       kNoBatch},
    {kAbs,             "abs",              1, 1,  pass_through,      kFree,  kMask,   0, per_output,   Fn::kAbs,     kNoRows,                       kNoBatch},
    {kRecip,           "recip",            1, 1,  pass_through,      kFree,  kDouble, 0, per_output,   Fn::kRecip,   kNoRows,                       kNoBatch},
    {kConcatCols,      "concat_cols",      1, -1, concat_cols_shape, kFree,  kDouble, 0, no_flops,     kNoEw,        concat_cols_rows,              kNoBatch},
    {kConcatRows,      "concat_rows",      1, -1, concat_rows_shape, kFree,  kDouble, 0, no_flops,     kNoEw,        kNoRows,                       concat_rows_batch},
    {kSliceCols,       "slice_cols",       1, 1,  slice_cols_shape,  kFree,  kDouble, 0, no_flops,     kNoEw,        slice_cols_rows,               kNoBatch},
    {kSliceRows,       "slice_rows",       1, 1,  slice_rows_shape,  kFree,  kDouble, 0, no_flops,     kNoEw,        kNoRows,                       slice_rows_batch},
    {kPadCols,         "pad_cols",         1, 1,  pad_cols_shape,    kFree,  kDouble, 0, no_flops,     kNoEw,        pad_cols_rows,                 kNoBatch},
    {kPadRows,         "pad_rows",         1, 1,  pad_rows_shape,    kFree,  kDouble, 0, no_flops,     kNoEw,        kNoRows,                       pad_rows_batch},
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

namespace {

/// `fn` over all of out's elements; `b` is null for a unary fn.
void run_ew(simd::EwFn fn, const float* a, const float* b, Matrix& out) {
  simd::kernels().apply_ew(fn, a, b, out.data(),
                           static_cast<std::int64_t>(out.size()));
}

/// The product row kernels, the only kernels that fork (see run_op).
bool is_product(const OpDef& row) {
  return row.rows == products<true> || row.rows == products<false> ||
         row.rows == kMatmulNTRows;
}

/// Rows per partition of a product's output: at least kGrainMatmulFlops
/// FLOPs of its (x, w) pairs.
std::int64_t product_grain(std::span<const RowIn> in, int out_cols) {
  std::int64_t k = 0;
  for (std::size_t p = 0; p + 1 < in.size(); p += 2) k += in[p].cols;
  return std::max<std::int64_t>(
      1, kGrainMatmulFlops /
             (2 * std::max<std::int64_t>(1, k) * std::max(1, out_cols)));
}

#ifdef DG_OBS_ENABLED
/// One profiler kernel row per kernel: kernel.ew for every EwFn sweep,
/// kernel.<op> for a row or whole-batch kernel, costed by the op's row, so
/// the kernel rows count what the op rows count.
obs::KernelTimer kernel_timer(const OpDef& row,
                              std::span<const Matrix* const> in, Dims out) {
  const char* const name = row.ew ? "ew" : row.name;
  if (!obs::Profiler::enabled()) return obs::KernelTimer(name, 0, 0);
  thread_local std::vector<Dims> dims;  // reused, as run_op's operands are
  dims.clear();
  for (const Matrix* m : in) dims.push_back({m->rows(), m->cols()});
  return obs::KernelTimer(name, row.flops(dims, out), op_bytes(dims, out));
}
#endif

}  // namespace

Matrix run_op(Op op, std::span<const Matrix* const> in, Dims out_dims,
              const OpAttrs& attrs) {
  Matrix out = Matrix::uninit(out_dims.first, out_dims.second);
  if (out.empty()) return out;
  const OpDef& row = op_def(op);
#ifdef DG_OBS_ENABLED
  const obs::KernelTimer timer = kernel_timer(row, in, out_dims);
#endif
  if (row.ew) {
    run_ew(*row.ew, in[0]->data(), in.size() > 1 ? in[1]->data() : nullptr,
           out);
  } else if (row.rows != nullptr) {
    // Reused per thread, so a forward allocates only its result.
    thread_local std::vector<RowIn> ins;
    ins.clear();
    for (const Matrix* m : in) ins.push_back({m->data(), m->cols()});
    const RowKernel kernel = row.rows;
    const RowArgs args{ins, out.data(), out.cols(), attrs};
    if (is_product(row)) {
      // Only products fork: every other kernel's work is a few passes over
      // memory, which one thread finishes before a fork-join returns
      // (BM_ForkJoin, nn/parallel.h).
      parallel_for(
          0, out.rows(), product_grain(ins, out.cols()),
          [&](std::int64_t r0, std::int64_t r1) { kernel(args, r0, r1); });
    } else {
      kernel(args, 0, out.rows());
    }
  } else {
    row.batch(in, out, attrs);
  }
  return out;
}

Matrix map_ew(simd::EwFn fn, const Matrix& a) {
  Matrix out = Matrix::uninit(a.rows(), a.cols());
  if (!out.empty()) run_ew(fn, a.data(), nullptr, out);
  return out;
}

}  // namespace dg::nn
