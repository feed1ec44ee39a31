#include "nn/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "nn/ops.h"
#include "nn/parallel.h"
#include "nn/simd/vec.h"
#include "obs/profile.h"

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
  Matrix m(1, static_cast<int>(values.size()));
  int j = 0;
  for (float v : values) m.at(0, j++) = v;
  return m;
}

Matrix Matrix::row(std::span<const float> values) {
  Matrix m(1, static_cast<int>(values.size()));
  if (!values.empty()) {
    std::memcpy(m.data(), values.data(), values.size() * sizeof(float));
  }
  return m;
}

namespace {

void check_same_shape(const Matrix& a, const Matrix& b, const char* op) {
  if (!a.same_shape(b)) throw std::invalid_argument(std::string(op) + ": shape mismatch");
}

/// Row grain for [n, d]-shaped row-partitioned kernels: whole rows, sized so
/// a partition holds at least kGrainElemwise floats.
std::int64_t row_grain(int cols) {
  return std::max<std::int64_t>(1, kGrainElemwise / std::max(1, cols));
}

/// Row grain for matmul-shaped kernels: at least kGrainMatmulFlops flops per
/// partition (2*k*m flops per output row).
std::int64_t matmul_row_grain(int k, int m) {
  const std::int64_t flops_per_row = 2LL * std::max(1, k) * std::max(1, m);
  return std::max<std::int64_t>(1, kGrainMatmulFlops / flops_per_row);
}

RowIn row_in(const Matrix& m) { return {m.data(), m.cols()}; }

/// Runs `op`'s row kernel (nn/ops.h) over every row of `out`, `grain` rows
/// per partition. The kernels keep the per-element accumulation order fixed
/// (a product's is ascending k in kKC slabs on every tier), so the result is
/// bit-identical for any thread count and any dispatch tier.
void for_rows(Op op, std::initializer_list<RowIn> in, Matrix& out,
              std::int64_t grain) {
  const RowKernel kernel = op_def(op).rows;
  const OpAttrs attrs;
  const RowArgs args{in, out.data(), out.cols(), attrs};
  parallel_for(0, out.rows(), grain,
               [&](std::int64_t r0, std::int64_t r1) { kernel(args, r0, r1); });
}

#ifdef DG_OBS_ENABLED
/// Exact-wall timer for the kernel behind `op`, labelled and costed by the
/// op's row, so its kernel.* profiler row counts what the op row counts.
obs::KernelTimer op_timer(Op op, std::initializer_list<const Matrix*> in,
                          const Matrix& out) {
  const OpDef& row = op_def(op);
  if (!obs::Profiler::enabled()) return obs::KernelTimer(row.name, 0, 0);
  Dims dims[5];
  std::size_t n = 0;
  for (const Matrix* m : in) dims[n++] = {m->rows(), m->cols()};
  const Dims o{out.rows(), out.cols()};
  return obs::KernelTimer(row.name, row.flops({dims, n}, o),
                          op_bytes({dims, n}, o));
}
#define DG_OP_KERNEL_TIMER(op, out, ...) \
  const obs::KernelTimer dg_op_kernel_timer_ = op_timer(op, __VA_ARGS__, out)
#else
#define DG_OP_KERNEL_TIMER(op, out, ...) \
  do {                                   \
  } while (0)
#endif

}  // namespace

Matrix matmul(const Matrix& a, const Matrix& b) {
  if (a.cols() != b.rows()) throw std::invalid_argument("matmul: inner dim mismatch");
  const int n = a.rows(), k = a.cols(), m = b.cols();
  Matrix out(n, m, 0.0f);
  if (out.empty() || k == 0) return out;
  DG_OP_KERNEL_TIMER(Op::kMatmul, out, {&a, &b});
  // Accumulates onto the zeroed allocation, so matmul has no row kernel:
  // one would zero the output again, which slows the outer products of
  // per-example gradients.
  const simd::KernelTable& kt = simd::kernels();
  parallel_for(0, n, matmul_row_grain(k, m),
               [&](std::int64_t r0, std::int64_t r1) {
                 kt.matmul_acc_rows(a.data(), k, b.data(), m, out.data(), r0,
                                    r1);
               });
  return out;
}

Matrix affine(const Matrix& x, const Matrix& w, const Matrix& b) {
  if (x.cols() != w.rows()) throw std::invalid_argument("affine: inner dim mismatch");
  if (b.rows() != 1 || b.cols() != w.cols())
    throw std::invalid_argument("affine: bias must be [1, w.cols]");
  const int n = x.rows(), m = w.cols();
  Matrix out(n, m);
  if (out.empty()) return out;
  DG_OP_KERNEL_TIMER(Op::kAffine, out, {&x, &w, &b});
  for_rows(Op::kAffine, {row_in(x), row_in(w), row_in(b)}, out,
           matmul_row_grain(x.cols(), m));
  return out;
}

Matrix lstm_gates(const Matrix& x, const Matrix& wx, const Matrix& h,
                  const Matrix& wh, const Matrix& b) {
  if (x.cols() != wx.rows() || h.cols() != wh.rows())
    throw std::invalid_argument("lstm_gates: inner dim mismatch");
  if (x.rows() != h.rows())
    throw std::invalid_argument("lstm_gates: x/h batch mismatch");
  if (wx.cols() != wh.cols() || b.rows() != 1 || b.cols() != wx.cols())
    throw std::invalid_argument("lstm_gates: output width mismatch");
  const int n = x.rows(), m = wx.cols();
  Matrix out(n, m);
  if (out.empty()) return out;
  DG_OP_KERNEL_TIMER(Op::kLstmGates, out, {&x, &wx, &h, &wh, &b});
  for_rows(Op::kLstmGates,
           {row_in(x), row_in(wx), row_in(h), row_in(wh), row_in(b)}, out,
           matmul_row_grain(x.cols() + h.cols(), m));
  return out;
}

Matrix transpose(const Matrix& a) {
  const int r = a.rows(), c = a.cols();
  Matrix out(c, r);
  if (out.empty()) return out;
  DG_OP_KERNEL_TIMER(Op::kTranspose, out, {&a});
  // Output rows are columns of a: a partition owns a column range of a.
  const simd::KernelTable& kt = simd::kernels();
  parallel_for(0, c, row_grain(r), [&](std::int64_t j0, std::int64_t j1) {
    kt.transpose(a.data(), r, c, out.data(), j0, j1);
  });
  return out;
}

namespace {

/// Binary elementwise through the SIMD tier. Partitions are per-element and
/// the kernels are per-element, so any split is bit-identical.
Matrix elementwise(const Matrix& a, const Matrix& b, const char* op,
                   simd::EwFn fn) {
  check_same_shape(a, b, op);
  Matrix out = a;
  const simd::KernelTable& kt = simd::kernels();
  const float* pa = out.data();
  const float* pb = b.data();
  float* po = out.data();
  parallel_for(0, static_cast<std::int64_t>(out.size()), kGrainElemwise,
               [&](std::int64_t i0, std::int64_t i1) {
                 kt.apply_ew(fn, pa + i0, pb + i0, po + i0, i1 - i0);
               });
  return out;
}

}  // namespace

Matrix add(const Matrix& a, const Matrix& b) {
  return elementwise(a, b, "add", simd::EwFn::kAdd);
}

Matrix sub(const Matrix& a, const Matrix& b) {
  return elementwise(a, b, "sub", simd::EwFn::kSub);
}

Matrix mul(const Matrix& a, const Matrix& b) {
  return elementwise(a, b, "mul", simd::EwFn::kMul);
}

Matrix div(const Matrix& a, const Matrix& b) {
  return elementwise(a, b, "div", simd::EwFn::kDiv);
}

Matrix add_scalar(const Matrix& a, float s) {
  Matrix out = a;
  const simd::KernelTable& kt = simd::kernels();
  float* po = out.data();
  parallel_for(0, static_cast<std::int64_t>(out.size()), kGrainElemwise,
               [&](std::int64_t i0, std::int64_t i1) {
                 kt.add_scalar(po + i0, s, po + i0, i1 - i0);
               });
  return out;
}

Matrix mul_scalar(const Matrix& a, float s) {
  Matrix out = a;
  const simd::KernelTable& kt = simd::kernels();
  float* po = out.data();
  parallel_for(0, static_cast<std::int64_t>(out.size()), kGrainElemwise,
               [&](std::int64_t i0, std::int64_t i1) {
                 kt.mul_scalar(po + i0, s, po + i0, i1 - i0);
               });
  return out;
}

Matrix add_rowvec(const Matrix& x, const Matrix& b) {
  if (b.rows() != 1 || b.cols() != x.cols())
    throw std::invalid_argument("add_rowvec: b must be [1, x.cols]");
  Matrix out(x.rows(), x.cols());
  if (out.empty()) return out;
  for_rows(Op::kAddRowvec, {row_in(x), row_in(b)}, out, row_grain(x.cols()));
  return out;
}

Matrix mul_colvec(const Matrix& x, const Matrix& v) {
  if (v.cols() != 1 || v.rows() != x.rows())
    throw std::invalid_argument("mul_colvec: v must be [x.rows, 1]");
  Matrix out(x.rows(), x.cols());
  if (out.empty()) return out;
  for_rows(Op::kMulColvec, {row_in(x), row_in(v)}, out, row_grain(x.cols()));
  return out;
}

Matrix mul_rowvec(const Matrix& x, const Matrix& m) {
  if (m.rows() != 1 || m.cols() != x.cols())
    throw std::invalid_argument("mul_rowvec: m must be [1, x.cols]");
  Matrix out(x.rows(), x.cols());
  if (out.empty()) return out;
  for_rows(Op::kMulRowvec, {row_in(x), row_in(m)}, out, row_grain(x.cols()));
  return out;
}

Matrix add_colvec(const Matrix& x, const Matrix& v) {
  if (v.cols() != 1 || v.rows() != x.rows())
    throw std::invalid_argument("add_colvec: v must be [x.rows, 1]");
  Matrix out(x.rows(), x.cols());
  if (out.empty()) return out;
  for_rows(Op::kAddColvec, {row_in(x), row_in(v)}, out, row_grain(x.cols()));
  return out;
}

Matrix neg_row_max(const Matrix& a) {
  Matrix out(a.rows(), 1);
  if (a.empty()) return out;
  for_rows(Op::kNegRowMax, {row_in(a)}, out, row_grain(a.cols()));
  return out;
}

Matrix row_sum(const Matrix& a) {
  Matrix out(a.rows(), 1);
  if (a.empty()) return out;
  for_rows(Op::kRowSum, {row_in(a)}, out, row_grain(a.cols()));
  return out;
}

Matrix col_sum(const Matrix& a) {
  const int n = a.rows(), d = a.cols();
  Matrix out(1, d);
  if (a.empty()) return out;
  // Fixed-size row chunks (independent of thread count); per-chunk partials
  // combined in ascending chunk order => bit-identical for any pool size.
  const std::int64_t chunk = std::max<std::int64_t>(1, kGrainReduce / std::max(1, d));
  const std::int64_t chunks = num_chunks(n, chunk);
  const simd::KernelTable& kt = simd::kernels();
  // Row accumulation stays ascending-row (a binary vector add per row, so
  // vectorizing preserves the order); partials combine in ascending chunk
  // order => bit-identical for any pool size and tier.
  if (chunks <= 1) {
    for (int i = 0; i < n; ++i) {
      const float* row = a.data() + static_cast<size_t>(i) * d;
      kt.apply_ew(simd::EwFn::kAdd, out.data(), row, out.data(), d);
    }
    return out;
  }
  std::vector<float> partials(static_cast<size_t>(chunks) * d, 0.0f);
  parallel_for_chunks(n, chunk,
                      [&](std::int64_t ci, std::int64_t r0, std::int64_t r1) {
                        float* p = partials.data() + static_cast<size_t>(ci) * d;
                        for (std::int64_t i = r0; i < r1; ++i) {
                          const float* row = a.data() + static_cast<size_t>(i) * d;
                          kt.apply_ew(simd::EwFn::kAdd, p, row, p, d);
                        }
                      });
  for (std::int64_t ci = 0; ci < chunks; ++ci) {
    const float* p = partials.data() + static_cast<size_t>(ci) * d;
    kt.apply_ew(simd::EwFn::kAdd, out.data(), p, out.data(), d);
  }
  return out;
}

float sum(const Matrix& a) {
  const std::int64_t n = static_cast<std::int64_t>(a.size());
  const std::int64_t chunks = num_chunks(n, kGrainReduce);
  if (chunks <= 1) {
    double s = 0.0;
    for (float v : a.flat()) s += v;
    return static_cast<float>(s);
  }
  std::vector<double> partials(static_cast<size_t>(chunks), 0.0);
  const float* pa = a.data();
  parallel_for_chunks(n, kGrainReduce,
                      [&](std::int64_t ci, std::int64_t i0, std::int64_t i1) {
                        double s = 0.0;
                        for (std::int64_t i = i0; i < i1; ++i) s += pa[i];
                        partials[static_cast<size_t>(ci)] = s;
                      });
  double s = 0.0;
  for (double p : partials) s += p;
  return static_cast<float>(s);
}

float mean(const Matrix& a) {
  if (a.empty()) return 0.0f;
  return sum(a) / static_cast<float>(a.size());
}

Matrix map_ew(simd::EwFn fn, const Matrix& a) {
  Matrix out = a;
  if (out.empty()) return out;
  DG_OBS_KERNEL_TIMER("ew", out.size(), 8ULL * out.size());
  const simd::KernelTable& kt = simd::kernels();
  float* po = out.data();
  parallel_for(0, static_cast<std::int64_t>(out.size()), kGrainElemwise,
               [&](std::int64_t i0, std::int64_t i1) {
                 kt.apply_ew(fn, po + i0, nullptr, po + i0, i1 - i0);
               });
  return out;
}

Matrix concat_cols(std::span<const Matrix* const> parts) {
  if (parts.empty()) return {};
  const int rows = parts.front()->rows();
  int cols = 0;
  for (const Matrix* p : parts) {
    if (p->rows() != rows) throw std::invalid_argument("concat_cols: row mismatch");
    cols += p->cols();
  }
  Matrix out(rows, cols);
  if (out.empty()) return out;
  // Reused per thread, so the forward allocates only its result.
  thread_local std::vector<RowIn> in;
  in.clear();
  for (const Matrix* p : parts) in.push_back(row_in(*p));
  const OpAttrs attrs;
  op_def(Op::kConcatCols).rows({in, out.data(), cols, attrs}, 0, rows);
  return out;
}

Matrix concat_rows(std::span<const Matrix* const> parts) {
  if (parts.empty()) return {};
  const int cols = parts.front()->cols();
  int rows = 0;
  for (const Matrix* p : parts) {
    if (p->cols() != cols) throw std::invalid_argument("concat_rows: col mismatch");
    rows += p->rows();
  }
  Matrix out(rows, cols);
  int offset = 0;
  for (const Matrix* p : parts) {
    if (p->size() == 0) continue;  // empty part: null data() is UB in memcpy
    std::memcpy(out.data() + static_cast<size_t>(offset) * cols, p->data(),
                p->size() * sizeof(float));
    offset += p->rows();
  }
  return out;
}

Matrix slice_cols(const Matrix& a, int c0, int c1) {
  if (c0 < 0 || c1 > a.cols() || c0 > c1)
    throw std::invalid_argument("slice_cols: bad range");
  Matrix out(a.rows(), c1 - c0);
  if (out.size() == 0) return out;  // 0-wide slice: no storage to touch
  OpAttrs range;
  range.i0 = c0;
  range.i1 = c1;
  const RowIn in[] = {row_in(a)};
  op_def(Op::kSliceCols).rows({in, out.data(), out.cols(), range}, 0,
                              a.rows());
  return out;
}

Matrix slice_rows(const Matrix& a, int r0, int r1) {
  if (r0 < 0 || r1 > a.rows() || r0 > r1)
    throw std::invalid_argument("slice_rows: bad range");
  Matrix out(r1 - r0, a.cols());
  if (out.size() == 0) return out;  // empty slice: no storage to touch
  std::memcpy(out.data(), a.data() + static_cast<size_t>(r0) * a.cols(),
              out.size() * sizeof(float));
  return out;
}

bool allclose(const Matrix& a, const Matrix& b, float atol) {
  if (!a.same_shape(b)) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::fabs(a.data()[i] - b.data()[i]) > atol) return false;
  }
  return true;
}

}  // namespace dg::nn
