// Scalar tier kernels: the portable bit-exactness reference the avx2 tier is
// pinned against (see vec.h for the contract).
//
// Included ONLY by the simd kernel TUs (kernels_scalar.cpp registers these;
// kernels_avx2.cpp uses them for vector tails), both of which are compiled
// with -ffp-contract=off. Including this header from a TU without that flag
// would let the compiler fuse the mul+add chains below into FMAs and silently
// fork the reference semantics — don't.
#ifndef DG_NN_SIMD_VEC_SCALAR_H_
#define DG_NN_SIMD_VEC_SCALAR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "nn/simd/vec.h"

namespace dg::nn::simd::scalar_impl {

// ---- transcendentals ------------------------------------------------------
// One definition, mirrored operation-for-operation by the avx2 lane forms in
// vec_avx2.h. Any edit here must be applied there in lockstep or the
// cross-tier bit-identity tests (test_simd.cpp) will catch the fork.

/// Cephes-style expf: 2^n * P(r) after Cody-Waite range reduction.
/// ~2 ulp vs libm (bound pinned in the analysis registry + test_simd.cpp).
inline float exp_eval(float x) {
  using namespace detail;
  if (std::isnan(x)) return x;
  float cx = x;
  if (cx > kExpHi) cx = kExpHi;
  if (cx < kExpLo) cx = kExpLo;
  const float n = std::floor(cx * kLog2e + 0.5f);
  const float r = (cx - n * kLn2Hi) - n * kLn2Lo;
  float p = kExpP0;
  p = p * r + kExpP1;
  p = p * r + kExpP2;
  p = p * r + kExpP3;
  p = p * r + kExpP4;
  p = p * r + kExpP5;
  float q = p * (r * r);
  q = q + r;
  q = q + 1.0f;
  // 2^n via exponent-field construction: n is in [-126, 128] after the
  // clamp, so no denormal scale is ever built (255 => inf, matching the
  // saturation patch below).
  const std::int32_t bits = (static_cast<std::int32_t>(n) + 127) << 23;
  float scale;
  std::memcpy(&scale, &bits, sizeof(scale));
  float res = q * scale;
  if (x > kExpHi) res = std::numeric_limits<float>::infinity();
  if (x < kExpLo) res = 0.0f;
  return res;
}

/// Cephes tanhf: odd polynomial on |x| <= 0.625, exp-based tail above.
inline float tanh_eval(float x) {
  using namespace detail;
  const float z = std::fabs(x);
  if (z > kTanhCutoff) {
    const float e = exp_eval(z + z);
    const float w = 1.0f - 2.0f / (e + 1.0f);
    return x < 0.0f ? -w : w;
  }
  const float z2 = x * x;
  float p = kTanhP0;
  p = p * z2 + kTanhP1;
  p = p * z2 + kTanhP2;
  p = p * z2 + kTanhP3;
  p = p * z2 + kTanhP4;
  float t = p * z2;
  t = t * x;
  return t + x;
}

/// The numerically-stable two-branch sigmoid (never exp of a large positive
/// argument) with exp_eval as the exponential.
inline float sigmoid_eval(float v) {
  const bool nonneg = v >= 0.0f;
  const float arg = nonneg ? v * -1.0f : v;
  const float e = exp_eval(arg);
  const float num = nonneg ? 1.0f : e;
  return num / (1.0f + e);
}

/// `v`, hidden from constant folding. kNeg is a multiply by -1, the
/// arithmetic autograd's neg runs (mul_scalar by a runtime -1); GCC would
/// fold a multiply by a literal -1 into a sign flip, which differs from the
/// multiply on NaN inputs (the multiply keeps the NaN's sign).
inline float opaque(float v) {
  __asm__("" : "+m"(v));
  return v;
}

/// One elementwise micro-op on one element — the semantics apply_ew loops
/// over, and what the avx2 tier's remainder tails call.
inline float ew_eval(EwFn fn, float a, float b) {
  switch (fn) {
    case EwFn::kAdd: return a + b;
    case EwFn::kSub: return a - b;
    case EwFn::kMul: return a * b;
    case EwFn::kDiv: return a / b;
    case EwFn::kNeg: return a * opaque(-1.0f);
    case EwFn::kRelu: return a > 0.0f ? a : 0.0f;
    case EwFn::kAbs: return std::fabs(a);
    case EwFn::kTanh: return tanh_eval(a);
    case EwFn::kSigmoid: return sigmoid_eval(a);
    case EwFn::kExp: return exp_eval(a);
    case EwFn::kLog: return std::log(a);
    case EwFn::kSqrt: return std::sqrt(a);
    case EwFn::kSquare: return a * a;
    case EwFn::kRecip: return 1.0f / a;
  }
  return a;  // unreachable
}

// ---- kernels --------------------------------------------------------------

/// k-slab size shared by both tiers: a kKC-row slab of b stays cache-hot
/// across the rows of a partition (the PR-2 blocking, kept verbatim).
inline constexpr int kKC = 256;
/// Output-column tile held in registers across the k loop (the PR-6 tape
/// micro-kernel shape). The avx2 tier tiles by 8-lane vectors instead; no
/// tiling changes an output element's operation sequence.
inline constexpr int kJTile = 16;

/// out[r0..r1) += a[r0..r1) * b. Ascending-k accumulation per output element
/// with zero-skip, for every tiling choice — bit-identical across tiers,
/// partitions, and thread counts.
inline void matmul_acc_rows(const float* a, int k, const float* b, int m,
                            float* out, std::int64_t r0, std::int64_t r1) {
  for (int kb = 0; kb < k; kb += kKC) {
    const int kend = std::min(k, kb + kKC);
    for (std::int64_t i = r0; i < r1; ++i) {
      const float* arow = a + static_cast<std::size_t>(i) * k;
      float* orow = out + static_cast<std::size_t>(i) * m;
      int j = 0;
      for (; j + kJTile <= m; j += kJTile) {
        float acc[kJTile];
        for (int t = 0; t < kJTile; ++t) acc[t] = orow[j + t];
        for (int kk = kb; kk < kend; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          const float* brow = b + static_cast<std::size_t>(kk) * m + j;
          for (int t = 0; t < kJTile; ++t) acc[t] += av * brow[t];
        }
        for (int t = 0; t < kJTile; ++t) orow[j + t] = acc[t];
      }
      for (; j < m; ++j) {
        float acc = orow[j];
        for (int kk = kb; kk < kend; ++kk) {
          const float av = arow[kk];
          if (av == 0.0f) continue;
          acc += av * b[static_cast<std::size_t>(kk) * m + j];
        }
        orow[j] = acc;
      }
    }
  }
}

inline void apply_ew(EwFn fn, const float* a, const float* b, float* d,
                     std::int64_t len) {
  switch (fn) {
    case EwFn::kAdd:
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] + b[i];
      break;
    case EwFn::kSub:
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] - b[i];
      break;
    case EwFn::kMul:
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] * b[i];
      break;
    case EwFn::kDiv:
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] / b[i];
      break;
    case EwFn::kNeg: {
      const float m = opaque(-1.0f);
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] * m;
      break;
    }
    case EwFn::kRelu:
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] > 0.0f ? a[i] : 0.0f;
      break;
    case EwFn::kAbs:
      for (std::int64_t i = 0; i < len; ++i) d[i] = std::fabs(a[i]);
      break;
    case EwFn::kTanh:
      for (std::int64_t i = 0; i < len; ++i) d[i] = tanh_eval(a[i]);
      break;
    case EwFn::kSigmoid:
      for (std::int64_t i = 0; i < len; ++i) d[i] = sigmoid_eval(a[i]);
      break;
    case EwFn::kExp:
      for (std::int64_t i = 0; i < len; ++i) d[i] = exp_eval(a[i]);
      break;
    case EwFn::kLog:
      for (std::int64_t i = 0; i < len; ++i) d[i] = std::log(a[i]);
      break;
    case EwFn::kSqrt:
      for (std::int64_t i = 0; i < len; ++i) d[i] = std::sqrt(a[i]);
      break;
    case EwFn::kSquare:
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] * a[i];
      break;
    case EwFn::kRecip:
      for (std::int64_t i = 0; i < len; ++i) d[i] = 1.0f / a[i];
      break;
  }
}

inline void add_scalar(const float* a, float s, float* d, std::int64_t len) {
  for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] + s;
}

inline void mul_scalar(const float* a, float s, float* d, std::int64_t len) {
  for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] * s;
}

/// 8-lane-blocked row sum, the association both tiers share: lane t
/// accumulates elements t, t+8, t+16, ...; lanes combine in ascending lane
/// order; the sub-multiple-of-8 tail adds sequentially after the combine.
/// Rows shorter than one block sum sequentially from 0.
inline float sum_span(const float* p, std::int64_t n) {
  if (n < 8) {
    float s = 0.0f;
    for (std::int64_t i = 0; i < n; ++i) s += p[i];
    return s;
  }
  float acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = p[t];
  std::int64_t i = 8;
  for (; i + 8 <= n; i += 8) {
    for (int t = 0; t < 8; ++t) acc[t] += p[i + t];
  }
  float s = acc[0];
  for (int t = 1; t < 8; ++t) s += acc[t];
  for (; i < n; ++i) s += p[i];
  return s;
}

/// 8-lane-blocked row max with std::max(acc, x) semantics per step (NaN in x
/// is dropped; the avx2 form's _mm256_max_ps(x, acc) operand order matches
/// exactly, including signed zeros).
inline float max_span(const float* p, std::int64_t n) {
  if (n < 8) {
    float mx = p[0];
    for (std::int64_t i = 1; i < n; ++i) mx = std::max(mx, p[i]);
    return mx;
  }
  float acc[8];
  for (int t = 0; t < 8; ++t) acc[t] = p[t];
  std::int64_t i = 8;
  for (; i + 8 <= n; i += 8) {
    for (int t = 0; t < 8; ++t) acc[t] = std::max(acc[t], p[i + t]);
  }
  float mx = acc[0];
  for (int t = 1; t < 8; ++t) mx = std::max(mx, acc[t]);
  for (; i < n; ++i) mx = std::max(mx, p[i]);
  return mx;
}

inline void row_sum(const float* a, int cols, float* dst, std::int64_t r0,
                    std::int64_t r1) {
  for (std::int64_t i = r0; i < r1; ++i) {
    dst[i] = sum_span(a + static_cast<std::size_t>(i) * cols, cols);
  }
}

inline void neg_row_max(const float* a, int cols, float* dst, std::int64_t r0,
                        std::int64_t r1) {
  for (std::int64_t i = r0; i < r1; ++i) {
    if (cols == 0) {
      dst[i] = 0.0f;
      continue;
    }
    dst[i] = -max_span(a + static_cast<std::size_t>(i) * cols, cols);
  }
}

/// Cache tile of the transpose in both tiers, in rows and columns of a.
inline constexpr int kTransposeTile = 64;

/// Rows [j0, j1) of out = aᵀ. Blocked: read kTransposeTile columns of a per
/// tile so the strided loads hit each source cache line that many times
/// instead of once (the unblocked loop was quadratic in misses for the tall
/// rows >> cols gate-slice shapes).
inline void transpose(const float* a, int rows, int cols, float* out,
                      std::int64_t j0, std::int64_t j1) {
  constexpr int B = kTransposeTile;
  for (std::int64_t jb = j0; jb < j1; jb += B) {
    const std::int64_t jend = std::min<std::int64_t>(j1, jb + B);
    for (int ib = 0; ib < rows; ib += B) {
      const int iend = std::min(rows, ib + B);
      for (std::int64_t j = jb; j < jend; ++j) {
        float* orow = out + static_cast<std::size_t>(j) * rows;
        for (int i = ib; i < iend; ++i) {
          orow[i] = a[static_cast<std::size_t>(i) * cols + j];
        }
      }
    }
  }
}

}  // namespace dg::nn::simd::scalar_impl

#endif  // DG_NN_SIMD_VEC_SCALAR_H_
