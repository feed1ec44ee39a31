// The op table is the forward (nn/ops.h): every computed row has exactly one
// kernel kind, every kernel writes its whole output, and every op's forward
// equals a direct call of its row's kernel, bit for bit, on both SIMD tiers.
#include "nn/ops.h"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "nn/autograd.h"
#include "nn/rng.h"
#include "nn/simd/vec.h"

namespace dg::nn {
namespace {

using Lim = std::numeric_limits<float>;
using Operands = std::vector<Var>;

std::uint32_t bits_of(float f) { return std::bit_cast<std::uint32_t>(f); }

/// A signalling NaN no kernel produces from these inputs: an output element
/// still holding it was never written.
const std::uint32_t kUnwritten = 0x7fbadbad;

/// The elementwise sweep's values: signed zeros, subnormals, infinities,
/// NaNs, the exp/tanh/sigmoid saturation range, and a ramp.
std::vector<float> ew_values() {
  std::vector<float> v = {0.0f,          -0.0f,         Lim::denorm_min(),
                          -Lim::denorm_min(), 1e-39f,   -1e-39f,
                          Lim::min(),    -Lim::min(),   Lim::infinity(),
                          -Lim::infinity(), Lim::quiet_NaN(),
                          -Lim::quiet_NaN(), Lim::max(), -Lim::max(),
                          1.0f,          -1.0f,         0.5f,
                          -2.5f,         87.3f,         88.3f,
                          88.8f,         -87.4f,        -103.9f,
                          -104.1f,       9.1f,          -9.1f};
  for (float x = -120.0f; x <= 120.0f; x += 3.7f) v.push_back(x);
  return v;
}

/// Values a layout op moves without looking at them: signed zeros,
/// subnormals and NaNs with payloads, quiet and signalling, beside ordinary
/// numbers.
const std::vector<float>& layout_values() {
  static const std::vector<float> v = {
      0.0f,  -0.0f, Lim::denorm_min(), -1e-39f,
      std::bit_cast<float>(0x7fc01234u), std::bit_cast<float>(0xffc00042u),
      std::bit_cast<float>(0x7f800001u), -Lim::infinity(), 1.5f, -2.25f,
      3.0f};
  return v;
}

/// rows x cols cycling through `values` from position `offset`.
Matrix cycling(int rows, int cols, const std::vector<float>& values,
               int offset = 0) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = values[(i + static_cast<std::size_t>(offset)) % values.size()];
  }
  return m;
}

/// One call of an op: its operands, call-site attributes and autograd op.
struct Case {
  Op op;
  std::string what;
  std::vector<Matrix> in;
  OpAttrs attrs;
  std::function<Var(const Operands&)> forward;
  bool zeros = false;  ///< every output element must be +0.0
};

/// The result's shape by the op's own shape rule.
Dims out_dims(const Case& c) {
  std::vector<Shape> in;
  for (const Matrix& m : c.in) in.push_back({Dim::of(m.rows()), Dim::of(m.cols())});
  const ShapeResult r = op_def(c.op).shape(in, c.attrs);
  EXPECT_TRUE(r.shape.has_value()) << c.what << ": " << r.error;
  if (!r.shape) return {0, 0};
  return {static_cast<int>(r.shape->rows.value),
          static_cast<int>(r.shape->cols.value)};
}

/// Calls `c`'s kernel directly on output rows [r0, r1), the way the tape
/// calls an elementwise or row kernel; a whole-batch kernel always computes
/// the whole output.
void run_kernel(const Case& c, Matrix& out, int r0, int r1) {
  const OpDef& row = op_def(c.op);
  if (row.ew) {
    const std::size_t e0 = static_cast<std::size_t>(r0) * out.cols();
    const std::int64_t len = static_cast<std::int64_t>(r1 - r0) * out.cols();
    simd::kernels().apply_ew(*row.ew, c.in[0].data() + e0,
                             c.in.size() > 1 ? c.in[1].data() + e0 : nullptr,
                             out.data() + e0, len);
  } else if (row.rows != nullptr) {
    std::vector<RowIn> in;
    for (const Matrix& m : c.in) in.push_back({m.data(), m.cols()});
    row.rows({in, out.data(), out.cols(), c.attrs}, r0, r1);
  } else {
    std::vector<const Matrix*> in;
    for (const Matrix& m : c.in) in.push_back(&m);
    row.batch(in, out, c.attrs);
  }
}

/// Every computed op at a small size with edge values (the elementwise
/// rows over every pair of ew_values(), the layout rows over
/// layout_values()), with empty and 0-wide operands where the op takes
/// them, and at a size that spans more than one reduction chunk.
std::vector<Case> all_cases() {
  Rng rng(7);
  const auto normal = [&rng](int r, int c) { return rng.normal_matrix(r, c); };
  const std::vector<float> ew = ew_values();
  const int n = static_cast<int>(ew.size());
  Matrix grid_a(n, n), grid_b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      grid_a.at(i, j) = ew[static_cast<std::size_t>(i)];
      grid_b.at(i, j) = ew[static_cast<std::size_t>(j)];
    }
  }
  const auto& lv = layout_values();
  const auto layout = [&lv](int r, int c, int offset = 0) {
    return cycling(r, c, lv, offset);
  };
  // A split size: 18,200 floats span two of the reductions' 16 Ki-float
  // chunks.
  const int R = 260, C = 70;

  std::vector<Case> cases;
  const auto push = [&cases](Op op, std::string what, std::vector<Matrix> in,
                            std::function<Var(const Operands&)> fwd,
                            OpAttrs attrs = {}, bool zeros = false) {
    cases.push_back({op, std::move(what), std::move(in), std::move(attrs),
                     std::move(fwd), zeros});
  };

  const std::pair<Op, Var (*)(const Var&, const Var&)> binary[] = {
      {Op::kAdd, [](const Var& a, const Var& b) { return nn::add(a, b); }},
      {Op::kSub, [](const Var& a, const Var& b) { return nn::sub(a, b); }},
      {Op::kMul, [](const Var& a, const Var& b) { return nn::mul(a, b); }},
      {Op::kDiv, [](const Var& a, const Var& b) { return nn::div(a, b); }},
  };
  for (const auto& [op, f] : binary) {
    const auto fwd = [f](const Operands& v) { return f(v[0], v[1]); };
    push(op, "every pair", {grid_a, grid_b}, fwd);
    push(op, "split", {normal(R, C), normal(R, C)}, fwd);
  }
  const std::pair<Op, Var (*)(const Var&)> unary[] = {
      {Op::kNeg, [](const Var& a) { return neg(a); }},
      {Op::kRelu, [](const Var& a) { return relu(a); }},
      {Op::kTanh, [](const Var& a) { return tanh_(a); }},
      {Op::kSigmoid, [](const Var& a) { return sigmoid(a); }},
      {Op::kExp, [](const Var& a) { return exp_(a); }},
      {Op::kLog, [](const Var& a) { return log_(a); }},
      {Op::kSqrt, [](const Var& a) { return sqrt_(a); }},
      {Op::kSquare, [](const Var& a) { return square(a); }},
      {Op::kAbs, [](const Var& a) { return abs_(a); }},
      {Op::kRecip, [](const Var& a) { return recip(a); }},
  };
  for (const auto& [op, f] : unary) {
    const auto fwd = [f](const Operands& v) { return f(v[0]); };
    push(op, "every value", {grid_a}, fwd);
    push(op, "split", {normal(R, C)}, fwd);
  }
  for (const float s : {0.25f, -1.5f}) {
    const auto add_s = [s](const Operands& v) { return add_scalar(v[0], s); };
    const auto mul_s = [s](const Operands& v) { return mul_scalar(v[0], s); };
    push(Op::kAddScalar, "every value", {grid_a}, add_s, {.scalar = s});
    push(Op::kAddScalar, "split", {normal(R, C)}, add_s, {.scalar = s});
    push(Op::kMulScalar, "every value", {grid_a}, mul_s, {.scalar = s});
    push(Op::kMulScalar, "split", {normal(R, C)}, mul_s, {.scalar = s});
  }

  const auto mm = [](const Operands& v) { return matmul(v[0], v[1]); };
  Matrix sparse = normal(5, 7);
  for (std::size_t i = 0; i < sparse.size(); i += 3) sparse.data()[i] = 0.0f;
  push(Op::kMatmul, "small, zero-skipped", {sparse, normal(7, 3)}, mm);
  push(Op::kMatmul, "k = 0", {Matrix(4, 0), Matrix(0, 3)}, mm, {}, true);
  push(Op::kMatmul, "outer product", {normal(64, 1), normal(1, 48)}, mm);
  push(Op::kMatmul, "split", {normal(R, C), normal(C, 30)}, mm);
  // The transposed-operand products: a zero-skipped small case, layout
  // edge values (signed zeros, subnormals, infinities, NaN payloads), an
  // empty fold, and a size that crosses the product grain.
  const auto nt = [](const Operands& v) { return matmul_nt(v[0], v[1]); };
  push(Op::kMatmulNT, "small, zero-skipped", {sparse, normal(3, 7)}, nt);
  push(Op::kMatmulNT, "edge values", {layout(5, 7), layout(9, 7, 3)}, nt);
  push(Op::kMatmulNT, "k = 0", {Matrix(4, 0), Matrix(3, 0)}, nt, {}, true);
  push(Op::kMatmulNT, "split", {normal(R, C), normal(30, C)}, nt);
  const auto tn = [](const Operands& v) { return matmul_tn(v[0], v[1]); };
  push(Op::kMatmulTN, "small, zero-skipped", {sparse, normal(5, 3)}, tn);
  push(Op::kMatmulTN, "edge values", {layout(5, 7), layout(5, 9, 3)}, tn);
  push(Op::kMatmulTN, "n = 0", {Matrix(0, 4), Matrix(0, 3)}, tn, {}, true);
  push(Op::kMatmulTN, "split", {normal(R, C), normal(R, 30)}, tn);
  const auto aff = [](const Operands& v) { return affine(v[0], v[1], v[2]); };
  push(Op::kAffine, "small", {normal(5, 7), normal(7, 3), normal(1, 3)}, aff);
  push(Op::kAffine, "split", {normal(R, C), normal(C, 30), normal(1, 30)}, aff);
  const auto gates = [](const Operands& v) {
    return lstm_gates(v[0], v[1], v[2], v[3], v[4]);
  };
  push(Op::kLstmGates, "small",
      {normal(5, 3), normal(3, 8), normal(5, 2), normal(2, 8), normal(1, 8)},
      gates);
  push(Op::kLstmGates, "split",
      {normal(R, 40), normal(40, 32), normal(R, 8), normal(8, 32),
       normal(1, 32)},
      gates);

  const std::pair<Op, Var (*)(const Var&, const Var&)> broadcasts[] = {
      {Op::kAddRowvec, [](const Var& x, const Var& b) { return add_rowvec(x, b); }},
      {Op::kMulRowvec, [](const Var& x, const Var& b) { return mul_rowvec(x, b); }},
      {Op::kAddColvec, [](const Var& x, const Var& b) { return add_colvec(x, b); }},
      {Op::kMulColvec, [](const Var& x, const Var& b) { return mul_colvec(x, b); }},
  };
  for (const auto& [op, f] : broadcasts) {
    const bool row_vector = op == Op::kAddRowvec || op == Op::kMulRowvec;
    const auto fwd = [f](const Operands& v) { return f(v[0], v[1]); };
    for (const auto& [r, c] : {std::pair{5, 7}, std::pair{R, C}}) {
      push(op, r == R ? "split" : "small",
          {normal(r, c), row_vector ? normal(1, c) : normal(r, 1)}, fwd);
    }
  }

  const std::pair<Op, Var (*)(const Var&)> reductions[] = {
      {Op::kRowSum, [](const Var& a) { return row_sum(a); }},
      {Op::kNegRowMax, [](const Var& a) { return neg_row_max(a); }},
      {Op::kColSum, [](const Var& a) { return col_sum(a); }},
      {Op::kSum, [](const Var& a) { return sum(a); }},
  };
  for (const auto& [op, f] : reductions) {
    const auto fwd = [f](const Operands& v) { return f(v[0]); };
    push(op, "small", {normal(5, 7)}, fwd);
    push(op, "split", {normal(R, C)}, fwd);
  }
  const auto reduce_rows = [](Op op) {
    return [op](const Operands& v) {
      return op == Op::kRowSum ? row_sum(v[0]) : neg_row_max(v[0]);
    };
  };
  push(Op::kRowSum, "0-wide", {Matrix(3, 0)}, reduce_rows(Op::kRowSum), {},
      true);
  push(Op::kColSum, "no rows", {Matrix(0, 7)},
      [](const Operands& v) { return col_sum(v[0]); }, {}, true);
  push(Op::kSum, "empty", {Matrix(0, 0)},
      [](const Operands& v) { return sum(v[0]); }, {}, true);
  // neg_row_max of a 0-wide row is defined as 0 (the softmax shift of
  // nothing).
  push(Op::kNegRowMax, "0-wide", {Matrix(3, 0)}, reduce_rows(Op::kNegRowMax),
      {}, true);

  const auto tr = [](const Operands& v) { return transpose(v[0]); };
  push(Op::kTranspose, "small", {layout(5, 7)}, tr);
  push(Op::kTranspose, "split", {layout(R, C)}, tr);
  for (const auto& [r, c] : {std::pair{5, 7}, std::pair{R, C}}) {
    OpAttrs target;
    target.rows = Dim::of(r);
    target.cols = Dim::of(c);
    push(Op::kBroadcastScalar, r == R ? "split" : "small", {layout(1, 1, 4)},
        [r, c](const Operands& v) { return broadcast_scalar(v[0], r, c); },
        target);
  }
  const auto cat_cols = [](const Operands& v) { return concat_cols(v); };
  const auto cat_rows = [](const Operands& v) { return concat_rows(v); };
  push(Op::kConcatCols, "with a 0-wide part",
      {layout(5, 2), Matrix(5, 0), layout(5, 3, 1)}, cat_cols);
  push(Op::kConcatCols, "split", {layout(R, 30), layout(R, 40, 2)}, cat_cols);
  push(Op::kConcatRows, "with an empty part",
      {layout(2, 7), Matrix(0, 7), layout(3, 7, 1)}, cat_rows);
  push(Op::kConcatRows, "split", {layout(R / 2, C), layout(R / 2, C, 2)},
      cat_rows);
  const struct {
    Op op;
    int rows, cols, i0, i1;
  } ranges[] = {
      {Op::kSliceCols, 5, 7, 1, 4},   {Op::kSliceCols, R, C, 3, 60},
      {Op::kSliceRows, 5, 7, 1, 3},   {Op::kSliceRows, R, C, 10, 250},
      {Op::kPadCols, 5, 7, 2, 1},     {Op::kPadCols, 5, 0, 2, 1},
      {Op::kPadCols, R, C, 3, 4},     {Op::kPadRows, 5, 7, 2, 1},
      {Op::kPadRows, 0, 7, 1, 2},     {Op::kPadRows, R, C, 3, 4},
  };
  for (const auto& rg : ranges) {
    const Op op = rg.op;
    const int i0 = rg.i0, i1 = rg.i1;
    const std::string what =
        std::to_string(rg.rows) + "x" + std::to_string(rg.cols) + " [" +
        std::to_string(i0) + ", " + std::to_string(i1) + ")";
    push(op, what, {layout(rg.rows, rg.cols)},
        [op, i0, i1](const Operands& v) {
          switch (op) {
            case Op::kSliceCols: return slice_cols(v[0], i0, i1);
            case Op::kSliceRows: return slice_rows(v[0], i0, i1);
            case Op::kPadCols: return pad_cols(v[0], i0, i1);
            default: return pad_rows(v[0], i0, i1);
          }
        },
        {.i0 = i0, .i1 = i1}, rg.cols == 0 || rg.rows == 0);
  }
  return cases;
}

bool computed(const OpDef& row) {
  return row.op != Op::kLeaf && row.op != Op::kConstant &&
         row.op != Op::kGrad;
}

TEST(OpTable, EveryForwardIsItsRowsKernel) {
  const std::vector<Case> cases = all_cases();

  // One kernel kind per computed row, and a case for each of them.
  std::map<Op, int> covered;
  for (const Case& c : cases) ++covered[c.op];
  int ew_rows = 0;
  for (const OpDef& row : op_table()) {
    const int kinds = row.ew.has_value() + (row.rows != nullptr) +
                      (row.batch != nullptr);
    EXPECT_EQ(kinds, computed(row) ? 1 : 0) << row.name;
    EXPECT_EQ(covered.count(row.op), computed(row) ? 1u : 0u) << row.name;
    ew_rows += row.ew.has_value();
  }
  EXPECT_EQ(ew_rows, 14);

  // Each kernel overwrites every element of a NaN-prefilled output; an
  // elementwise or row kernel run on a sub-range of rows, as the tape runs
  // it, writes exactly those rows.
  const float unwritten = std::bit_cast<float>(kUnwritten);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(op_def(c.op).name) + " " + c.what);
    const auto [rows, cols] = out_dims(c);
    Matrix out(rows, cols, unwritten);
    run_kernel(c, out, 0, rows);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_NE(bits_of(out.data()[i]), kUnwritten) << "element " << i;
      if (c.zeros) {
        ASSERT_EQ(bits_of(out.data()[i]), 0u) << "element " << i;
      }
    }
    if (op_def(c.op).batch != nullptr || rows < 3) continue;
    Matrix part(rows, cols, unwritten);
    run_kernel(c, part, 1, rows - 1);
    for (int r = 0; r < rows; ++r) {
      const bool inside = r >= 1 && r < rows - 1;
      for (int j = 0; j < cols; ++j) {
        ASSERT_EQ(bits_of(part.at(r, j)) == kUnwritten, !inside)
            << "row " << r << " col " << j;
        if (inside) {
          ASSERT_EQ(bits_of(part.at(r, j)), bits_of(out.at(r, j)));
        }
      }
    }
  }

  // The autograd op's value is its row's kernel, bit for bit, on both
  // tiers.
  const simd::Tier prev = simd::active_tier();
  for (const simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (!simd::set_simd_tier(tier)) continue;  // no avx2 on this host
    SCOPED_TRACE(simd::tier_name(tier));
    for (const Case& c : cases) {
      SCOPED_TRACE(std::string(op_def(c.op).name) + " " + c.what);
      Operands vars;
      for (const Matrix& m : c.in) vars.emplace_back(m);
      const Matrix got = c.forward(vars).value();
      const auto [rows, cols] = out_dims(c);
      ASSERT_EQ(got.rows(), rows);
      ASSERT_EQ(got.cols(), cols);
      Matrix want(rows, cols, unwritten);
      run_kernel(c, want, 0, rows);
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(bits_of(got.data()[i]), bits_of(want.data()[i]))
            << "element " << i << ": forward " << got.data()[i]
            << ", kernel " << want.data()[i];
      }
    }
  }
  simd::set_simd_tier(prev);
}

}  // namespace
}  // namespace dg::nn
