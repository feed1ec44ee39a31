// Dense row-major float matrix: the single value type all tensor math in this
// project flows through. Deliberately minimal — shaped buffers plus the small
// set of BLAS-like kernels the autograd ops need.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "nn/simd/vec.h"

namespace dg::nn {

namespace detail {
/// True while an nn::MetaModeGuard (nn/autograd.h) is active on this thread.
extern thread_local constinit bool g_meta_mode;
}  // namespace detail

class Matrix {
 public:
  Matrix() = default;
  /// Under meta mode the matrix is shape-only: it has rows() x cols() but no
  /// storage (empty(), size() == 0), and every kernel below returns a
  /// shape-only result without touching data.
  Matrix(int rows, int cols, float fill = 0.0f)
      : rows_(rows),
        cols_(cols),
        data_(detail::g_meta_mode ? 0 : static_cast<size_t>(rows) * cols,
              fill) {
    assert(rows >= 0 && cols >= 0);
  }

  /// Builds a matrix from nested braces, e.g. Matrix::from({{1,2},{3,4}}).
  static Matrix from(std::initializer_list<std::initializer_list<float>> rows);

  /// 1 x n row vector from a flat list.
  static Matrix row(std::initializer_list<float> values);
  static Matrix row(std::span<const float> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float& at(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return data_; }
  std::span<const float> flat() const { return data_; }

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  int rows_ = 0;
  int cols_ = 0;
  std::vector<float> data_;
};

// ---- shape-checked kernels (allocate and return the result) ----

Matrix matmul(const Matrix& a, const Matrix& b);
Matrix transpose(const Matrix& a);

/// Fused x [n,k] * w [k,m] + b [1,m] (bias broadcast over rows): one parallel
/// pass, no zero-init or add_rowvec temporary.
Matrix affine(const Matrix& x, const Matrix& w, const Matrix& b);
/// Fused LSTM gate pre-activation x*wx + h*wh + b in one parallel pass.
Matrix lstm_gates(const Matrix& x, const Matrix& wx, const Matrix& h,
                  const Matrix& wh, const Matrix& b);

Matrix add(const Matrix& a, const Matrix& b);
Matrix sub(const Matrix& a, const Matrix& b);
Matrix mul(const Matrix& a, const Matrix& b);  // elementwise (Hadamard)
Matrix div(const Matrix& a, const Matrix& b);  // elementwise

Matrix add_scalar(const Matrix& a, float s);
Matrix mul_scalar(const Matrix& a, float s);

/// X [n,d] + b [1,d], broadcast over rows.
Matrix add_rowvec(const Matrix& x, const Matrix& b);
/// X [n,d] * v [n,1], broadcast over columns.
Matrix mul_colvec(const Matrix& x, const Matrix& v);
/// X [n,d] * m [1,d], broadcast over rows.
Matrix mul_rowvec(const Matrix& x, const Matrix& m);
/// X [n,d] + v [n,1], broadcast over columns.
Matrix add_colvec(const Matrix& x, const Matrix& v);
/// Per row: minus the row maximum, [n,d] -> [n,1] (the softmax shift).
Matrix neg_row_max(const Matrix& a);

Matrix row_sum(const Matrix& a);  // [n,d] -> [n,1]
Matrix col_sum(const Matrix& a);  // [n,d] -> [1,d]
float sum(const Matrix& a);
float mean(const Matrix& a);

/// Elementwise map through the SIMD dispatch tier (simd/vec.h), for the
/// micro-ops both the autograd forward and the tape executor share.
/// Bit-identical across tiers and thread counts by the vec.h contract.
Matrix map_ew(simd::EwFn fn, const Matrix& a);

Matrix concat_cols(std::span<const Matrix* const> parts);
Matrix concat_rows(std::span<const Matrix* const> parts);
Matrix slice_cols(const Matrix& a, int c0, int c1);  // [c0, c1)
Matrix slice_rows(const Matrix& a, int r0, int r1);  // [r0, r1)

bool allclose(const Matrix& a, const Matrix& b, float atol = 1e-5f);

}  // namespace dg::nn
