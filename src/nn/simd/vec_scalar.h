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
// vec_avx2.h. None calls libm: exp/tanh/sigmoid are float polynomials, log
// and sin/cos fdlibm's double forms. Any edit here must be applied there in
// lockstep or the cross-tier bit-identity tests (test_simd.cpp) will catch
// the fork.

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

inline std::uint64_t bits_of(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

inline double double_of(std::uint64_t u) {
  double x;
  std::memcpy(&x, &u, sizeof(x));
  return x;
}

/// fdlibm's log (e_log.c), with its branches on the value turned into
/// selects the avx2 tier mirrors: subnormals are scaled by 2^54 first, the
/// k = 0 and |f| < 2^-20 shortcuts are dropped (the general formula gives
/// the same value at k = 0 and stays within the bound for small f), and
/// both of its final formulas are computed, one picked by the same
/// mantissa test. 0 -> -inf, negative -> NaN, +inf -> +inf, NaN -> itself.
inline double log_f64(double x) {
  using namespace detail;
  const bool tiny = x < 0x1p-1022;
  const double xs = tiny ? x * kTwo54 : x;
  const std::uint64_t b = bits_of(xs);
  // hx: the top 20 mantissa bits. i is 0x100000 when the mantissa is at
  // least √2, where x is written as 2^(k+1) · m/2 so that m is below √2.
  const auto hx = static_cast<std::int64_t>((b >> 32) & 0xfffff);
  const std::int64_t i = (hx + 0x95f64) & 0x100000;
  const std::int64_t k = static_cast<std::int64_t>((b >> 52) & 0x7ff) -
                         1023 + (i >> 20) - (tiny ? 54 : 0);
  const double m = double_of((b & 0x000fffffffffffffULL) |
                             (static_cast<std::uint64_t>(i ^ 0x3ff00000) << 32));
  const double f = m - 1.0;
  const double s = f / (2.0 + f);
  const auto dk = static_cast<double>(k);
  const double z = s * s;
  const double w = z * z;
  const double t1 = w * (kLg2 + w * (kLg4 + w * kLg6));
  const double t2 = z * (kLg1 + w * (kLg3 + w * (kLg5 + w * kLg7)));
  const double r = t2 + t1;
  const double hfsq = 0.5 * f * f;
  const bool near_sqrt2 = ((hx - 0x6147a) | (0x6b851 - hx)) > 0;
  const double big =
      dk * kLn2HiD - ((hfsq - (s * (hfsq + r) + dk * kLn2LoD)) - f);
  const double small = dk * kLn2HiD - ((s * (f - r) - dk * kLn2LoD) - f);
  double res = near_sqrt2 ? big : small;
  if (x == 0.0) res = -std::numeric_limits<double>::infinity();
  if (x < 0.0) res = std::numeric_limits<double>::quiet_NaN();
  if (x == std::numeric_limits<double>::infinity()) res = x;
  if (std::isnan(x)) res = x;
  return res;
}

/// sin and cos of x in [0, 2π]: fdlibm's medium-range reduction (e_rem_pio2.c)
/// x = n·π/2 + y0 + y1, always taking its second round (π/2 to ~118 bits,
/// which the angles near n·π/2 need), then k_sin.c and k_cos.c on (y0, y1)
/// and the quadrant's swap and signs. k_cos's branch on |y0| becomes its
/// correction term qx, which is 0 in the branch that does not use it.
inline void sincos_f64(double x, double& sin_x, double& cos_x) {
  using namespace detail;
  // x >= 0, so truncation is round-half-up of x·2/π.
  const auto n = static_cast<std::int64_t>(x * kInvPio2 + 0.5);
  const auto fn = static_cast<double>(n);
  const double t = x - fn * kPio2_1;
  const double w = fn * kPio2_2;
  const double r = t - w;
  const double wt = fn * kPio2_2t - ((t - r) - w);
  const double y0 = r - wt;
  const double y1 = (r - y0) - wt;

  const double z = y0 * y0;
  const double v = z * y0;
  const double rs = kS2 + z * (kS3 + z * (kS4 + z * (kS5 + z * kS6)));
  const double ks = y0 - ((z * (0.5 * y1 - v * rs) - y1) - v * kS1);

  const double rc =
      z * (kC1 + z * (kC2 + z * (kC3 + z * (kC4 + z * (kC5 + z * kC6)))));
  const double ay = std::fabs(y0);
  double qx = double_of((bits_of(ay) & 0xffffffff00000000ULL) -
                        0x0020000000000000ULL);
  if (ay > kCosQxHi) qx = 0.28125;
  if (ay < kCosQxLo) qx = 0.0;
  const double hz = 0.5 * z - qx;
  const double a = 1.0 - qx;
  const double kc = a - (hz - (z * rc - y0 * y1));

  const double s = (n & 1) != 0 ? kc : ks;
  const double c = (n & 1) != 0 ? ks : kc;
  sin_x = (n & 2) != 0 ? -s : s;
  cos_x = ((n + 1) & 2) != 0 ? -c : c;
}

/// log_f64 of the widened float, rounded once.
inline float log_eval(float x) {
  return static_cast<float>(log_f64(static_cast<double>(x)));
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
    case EwFn::kLog: return log_eval(a);
    case EwFn::kSqrt: return std::sqrt(a);
    case EwFn::kSquare: return a * a;
    case EwFn::kRecip: return 1.0f / a;
    case EwFn::kStep: return a > 0.0f ? 1.0f : 0.0f;
    case EwFn::kSign: return a >= 0.0f ? 1.0f : -1.0f;
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

/// Element (r, c) of op(x), for x row-major with rows `ld` floats apart:
/// x[r][c], or x[c][r] when op transposes (kTrans). The products read a
/// transposed operand in place through it.
template <bool kTrans>
inline float op_elem(const float* x, int ld, std::int64_t r, std::int64_t c) {
  if constexpr (kTrans) return x[static_cast<std::size_t>(c) * ld + r];
  else return x[static_cast<std::size_t>(r) * ld + c];
}

/// out[r0..r1) += op(a)[r0..r1) * op(b) for op(a) [*, k] and op(b) [k, m]
/// (see op_elem). Ascending-k accumulation per output element with
/// zero-skip on op(a)'s element, a·b then acc + p, for every tiling choice
/// and either operand's layout — bit-identical across tiers, partitions,
/// and thread counts.
template <bool kTransA, bool kTransB>
inline void product_rows(const float* a, int lda, int k, const float* b,
                         int ldb, int m, float* out, std::int64_t r0,
                         std::int64_t r1) {
  for (int kb = 0; kb < k; kb += kKC) {
    const int kend = std::min(k, kb + kKC);
    for (std::int64_t i = r0; i < r1; ++i) {
      float* orow = out + static_cast<std::size_t>(i) * m;
      int j = 0;
      for (; j + kJTile <= m; j += kJTile) {
        float acc[kJTile];
        for (int t = 0; t < kJTile; ++t) acc[t] = orow[j + t];
        for (int kk = kb; kk < kend; ++kk) {
          const float av = op_elem<kTransA>(a, lda, i, kk);
          if (av == 0.0f) continue;
          for (int t = 0; t < kJTile; ++t) {
            acc[t] += av * op_elem<kTransB>(b, ldb, kk, j + t);
          }
        }
        for (int t = 0; t < kJTile; ++t) orow[j + t] = acc[t];
      }
      for (; j < m; ++j) {
        float acc = orow[j];
        for (int kk = kb; kk < kend; ++kk) {
          const float av = op_elem<kTransA>(a, lda, i, kk);
          if (av == 0.0f) continue;
          acc += av * op_elem<kTransB>(b, ldb, kk, j);
        }
        orow[j] = acc;
      }
    }
  }
}

/// out[r0..r1) += a[r0..r1) * b.
inline void matmul_acc_rows(const float* a, int k, const float* b, int m,
                            float* out, std::int64_t r0, std::int64_t r1) {
  product_rows<false, false>(a, k, k, b, m, m, out, r0, r1);
}

/// out[r0..r1) += a[r0..r1) * bᵀ for b [m, k].
inline void matmul_nt_acc_rows(const float* a, int k, const float* b, int m,
                               float* out, std::int64_t r0, std::int64_t r1) {
  product_rows<false, true>(a, k, k, b, k, m, out, r0, r1);
}

/// out[r0..r1) += aᵀ[r0..r1) * b for a [n, k] and b [n, m].
inline void matmul_tn_acc_rows(const float* a, int n, int k, const float* b,
                               int m, float* out, std::int64_t r0,
                               std::int64_t r1) {
  product_rows<true, false>(a, k, n, b, m, m, out, r0, r1);
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
      for (std::int64_t i = 0; i < len; ++i) d[i] = log_eval(a[i]);
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
    case EwFn::kStep:
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] > 0.0f ? 1.0f : 0.0f;
      break;
    case EwFn::kSign:
      for (std::int64_t i = 0; i < len; ++i) d[i] = a[i] >= 0.0f ? 1.0f : -1.0f;
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

/// Box-Muller, pair by pair (see KernelTable::box_muller): today's
/// Rng::normal expression with the in-tree log and sin/cos.
inline void box_muller(const double* u, double* z, std::int64_t pairs) {
  for (std::int64_t i = 0; i < pairs; ++i) {
    const double u1 = u[2 * i], u2 = u[2 * i + 1];
    const double r = std::sqrt(-2.0 * log_f64(u1));
    const double theta = detail::kTwoPi * u2;
    double s, c;
    sincos_f64(theta, s, c);
    z[2 * i] = r * c;
    z[2 * i + 1] = r * s;
  }
}

/// One Adam update per element, in the order the avx2 tier mirrors.
inline void adam(float* p, float* m, float* v, const float* g,
                 std::int64_t len, const AdamCoeffs& c) {
  const float beta1 = c.beta1, beta2 = c.beta2, lr = c.lr, eps = c.eps;
  const float bc1 = c.bc1, bc2 = c.bc2;
  for (std::int64_t j = 0; j < len; ++j) {
    m[j] = beta1 * m[j] + (1.0f - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0f - beta2) * g[j] * g[j];
    const float mhat = m[j] / bc1;
    const float vhat = v[j] / bc2;
    p[j] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

}  // namespace dg::nn::simd::scalar_impl

#endif  // DG_NN_SIMD_VEC_SCALAR_H_
