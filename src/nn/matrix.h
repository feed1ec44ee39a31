// Dense row-major float matrix: the single value type all tensor math in this
// project flows through. Deliberately minimal — shaped buffers plus the op
// forwards, whose kernels live in the op table (nn/ops.h).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>

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
  Matrix(int rows, int cols, float fill = 0.0f) : Matrix(uninit(rows, cols)) {
    std::fill_n(data(), size_, fill);
  }

  /// rows x cols of unset floats, for a kernel that writes every element
  /// (run_op in nn/ops.h). Shape-only under meta mode, like every Matrix.
  static Matrix uninit(int rows, int cols) {
    assert(rows >= 0 && cols >= 0);
    return {Unset{}, rows, cols,
            detail::g_meta_mode ? 0 : static_cast<std::size_t>(rows) * cols};
  }

  Matrix(const Matrix& o) : Matrix(Unset{}, o.rows_, o.cols_, o.size_) {
    std::copy_n(o.data(), size_, data());
  }
  /// A moved-from matrix keeps its shape and has no storage.
  Matrix(Matrix&& o) noexcept
      : rows_(o.rows_),
        cols_(o.cols_),
        size_(std::exchange(o.size_, 0)),
        data_(std::move(o.data_)) {}
  Matrix& operator=(Matrix o) noexcept {
    rows_ = o.rows_;
    cols_ = o.cols_;
    size_ = o.size_;
    data_ = std::move(o.data_);
    return *this;
  }

  /// Builds a matrix from nested braces, e.g. Matrix::from({{1,2},{3,4}}).
  static Matrix from(std::initializer_list<std::initializer_list<float>> rows);

  /// 1 x n row vector from a flat list.
  static Matrix row(std::initializer_list<float> values);
  static Matrix row(std::span<const float> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  float& at(int r, int c) {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }
  float at(int r, int c) const {
    assert(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r) * cols_ + c];
  }

  float* data() { return data_.get(); }
  const float* data() const { return data_.get(); }
  std::span<float> flat() { return {data(), size_}; }
  std::span<const float> flat() const { return {data(), size_}; }

  bool same_shape(const Matrix& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  /// rows x cols over `size` unset floats (none for a shape-only matrix).
  struct Unset {};
  Matrix(Unset, int rows, int cols, std::size_t size)
      : rows_(rows),
        cols_(cols),
        size_(size),
        data_(size > 0 ? std::make_unique_for_overwrite<float[]>(size)
                       : nullptr) {}

  int rows_ = 0;
  int cols_ = 0;
  std::size_t size_ = 0;
  std::unique_ptr<float[]> data_;
};

// ---- op forwards: a shape check, then run_op (nn/ops.h) ----

Matrix matmul(const Matrix& a, const Matrix& b);
/// a [n,k] times bᵀ for b [m,k], reading b in place: the bytes of
/// matmul(a, transpose(b)).
Matrix matmul_nt(const Matrix& a, const Matrix& b);
/// aᵀ for a [n,k] times b [n,m], reading a in place: the bytes of
/// matmul(transpose(a), b).
Matrix matmul_tn(const Matrix& a, const Matrix& b);
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

Matrix concat_cols(std::span<const Matrix* const> parts);
Matrix concat_rows(std::span<const Matrix* const> parts);
Matrix slice_cols(const Matrix& a, int c0, int c1);  // [c0, c1)
Matrix slice_rows(const Matrix& a, int r0, int r1);  // [r0, r1)

bool allclose(const Matrix& a, const Matrix& b, float atol = 1e-5f);

}  // namespace dg::nn
