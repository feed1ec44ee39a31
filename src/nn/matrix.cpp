#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "nn/ops.h"

namespace dg::nn {

Matrix Matrix::from(std::initializer_list<std::initializer_list<float>> rows) {
  const int r = static_cast<int>(rows.size());
  const int c = r > 0 ? static_cast<int>(rows.begin()->size()) : 0;
  Matrix m(r, c);
  int i = 0;
  for (const auto& row : rows) {
    if (static_cast<int>(row.size()) != c) {
      throw std::invalid_argument("Matrix::from: ragged rows");
    }
    int j = 0;
    for (float v : row) m.at(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::row(std::initializer_list<float> values) {
  return row(std::span<const float>(values.begin(), values.size()));
}

Matrix Matrix::row(std::span<const float> values) {
  Matrix m = uninit(1, static_cast<int>(values.size()));
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

namespace {

Dims dims(const Matrix& m) { return {m.rows(), m.cols()}; }

/// A binary elementwise op's forward: operands and result of one shape.
Matrix elementwise(Op op, const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b))
    throw std::invalid_argument(std::string(op_def(op).name) +
                                ": shape mismatch");
  return run_op(op, {&a, &b}, dims(a));
}

/// x [n,d] with v [1,d] broadcast over its rows.
Matrix rowvec(Op op, const Matrix& x, const Matrix& v) {
  if (v.rows() != 1 || v.cols() != x.cols())
    throw std::invalid_argument(std::string(op_def(op).name) +
                                ": vector must be [1, x.cols]");
  return run_op(op, {&x, &v}, dims(x));
}

/// x [n,d] with v [n,1] broadcast over its columns.
Matrix colvec(Op op, const Matrix& x, const Matrix& v) {
  if (v.cols() != 1 || v.rows() != x.rows())
    throw std::invalid_argument(std::string(op_def(op).name) +
                                ": vector must be [x.rows, 1]");
  return run_op(op, {&x, &v}, dims(x));
}

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: inner dim mismatch");
  return run_op(Op::kMatmul, {&a, &b}, {a.rows(), b.cols()});
}

Matrix matmul_nt(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.cols()) throw std::invalid_argument("matmul_nt: inner dim mismatch");
  return run_op(Op::kMatmulNT, {&a, &b}, {a.rows(), b.rows()});
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows()) throw std::invalid_argument("matmul_tn: inner dim mismatch");
  return run_op(Op::kMatmulTN, {&a, &b}, {a.cols(), b.cols()});
}

Matrix affine(const Matrix& x, const Matrix& w, const Matrix& b) {
  if (x.cols() != w.rows()) throw std::invalid_argument("affine: inner dim mismatch");
  if (b.rows() != 1 || b.cols() != w.cols())
    throw std::invalid_argument("affine: bias must be [1, w.cols]");
  return run_op(Op::kAffine, {&x, &w, &b}, {x.rows(), w.cols()});
}

Matrix lstm_gates(const Matrix& x, const Matrix& wx, const Matrix& h,
                  const Matrix& wh, const Matrix& b) {
  if (x.cols() != wx.rows() || h.cols() != wh.rows())
    throw std::invalid_argument("lstm_gates: inner dim mismatch");
  if (x.rows() != h.rows())
    throw std::invalid_argument("lstm_gates: x/h batch mismatch");
  if (wx.cols() != wh.cols() || b.rows() != 1 || b.cols() != wx.cols())
    throw std::invalid_argument("lstm_gates: output width mismatch");
  return run_op(Op::kLstmGates, {&x, &wx, &h, &wh, &b}, {x.rows(), wx.cols()});
}

Matrix transpose(const Matrix& a) {
  return run_op(Op::kTranspose, {&a}, {a.cols(), a.rows()});
}

Matrix add(const Matrix& a, const Matrix& b) {
  return elementwise(Op::kAdd, a, b);
}

Matrix sub(const Matrix& a, const Matrix& b) {
  return elementwise(Op::kSub, a, b);
}

Matrix mul(const Matrix& a, const Matrix& b) {
  return elementwise(Op::kMul, a, b);
}

Matrix div(const Matrix& a, const Matrix& b) {
  return elementwise(Op::kDiv, a, b);
}

Matrix add_scalar(const Matrix& a, float s) {
  return run_op(Op::kAddScalar, {&a}, dims(a), {.scalar = s});
}

Matrix mul_scalar(const Matrix& a, float s) {
  return run_op(Op::kMulScalar, {&a}, dims(a), {.scalar = s});
}

Matrix add_rowvec(const Matrix& x, const Matrix& b) {
  return rowvec(Op::kAddRowvec, x, b);
}

Matrix mul_colvec(const Matrix& x, const Matrix& v) {
  return colvec(Op::kMulColvec, x, v);
}

Matrix mul_rowvec(const Matrix& x, const Matrix& m) {
  return rowvec(Op::kMulRowvec, x, m);
}

Matrix add_colvec(const Matrix& x, const Matrix& v) {
  return colvec(Op::kAddColvec, x, v);
}

Matrix neg_row_max(const Matrix& a) {
  return run_op(Op::kNegRowMax, {&a}, {a.rows(), 1});
}

Matrix row_sum(const Matrix& a) {
  return run_op(Op::kRowSum, {&a}, {a.rows(), 1});
}

Matrix col_sum(const Matrix& a) {
  return run_op(Op::kColSum, {&a}, {1, a.cols()});
}

float sum(const Matrix& a) {
  const Matrix s = run_op(Op::kSum, {&a}, {1, 1});
  return s.empty() ? 0.0f : s.at(0, 0);
}

float mean(const Matrix& a) {
  if (a.empty()) return 0.0f;
  return sum(a) / static_cast<float>(a.size());
}

Matrix concat_cols(std::span<const Matrix* const> parts) {
  if (parts.empty()) return {};
  const int rows = parts.front()->rows();
  int cols = 0;
  for (const Matrix* p : parts) {
    if (p->rows() != rows) throw std::invalid_argument("concat_cols: row mismatch");
    cols += p->cols();
  }
  return run_op(Op::kConcatCols, parts, {rows, cols});
}

Matrix concat_rows(std::span<const Matrix* const> parts) {
  if (parts.empty()) return {};
  const int cols = parts.front()->cols();
  int rows = 0;
  for (const Matrix* p : parts) {
    if (p->cols() != cols) throw std::invalid_argument("concat_rows: col mismatch");
    rows += p->rows();
  }
  return run_op(Op::kConcatRows, parts, {rows, cols});
}

Matrix slice_cols(const Matrix& a, int c0, int c1) {
  if (c0 < 0 || c1 > a.cols() || c0 > c1)
    throw std::invalid_argument("slice_cols: bad range");
  return run_op(Op::kSliceCols, {&a}, {a.rows(), c1 - c0},
                {.i0 = c0, .i1 = c1});
}

Matrix slice_rows(const Matrix& a, int r0, int r1) {
  if (r0 < 0 || r1 > a.rows() || r0 > r1)
    throw std::invalid_argument("slice_rows: bad range");
  return run_op(Op::kSliceRows, {&a}, {r1 - r0, a.cols()},
                {.i0 = r0, .i1 = r1});
}

bool allclose(const Matrix& a, const Matrix& b, float atol) {
  if (!a.same_shape(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > atol) return false;
  }
  return true;
}

}  // namespace dg::nn
