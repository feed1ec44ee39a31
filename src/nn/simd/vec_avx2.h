// AVX2 tier kernels: 8-wide lane forms of the scalar reference in
// vec_scalar.h, bit-identical to it by construction (see vec.h).
//
// Included ONLY by kernels_avx2.cpp, which is compiled with
// -mavx2 -ffp-contract=off. The whole body is guarded on __AVX2__ so
// tools/check_headers.sh can still compile the header standalone without the
// flag (it adds a second -mavx2 pass to check the real content).
//
// No FMA anywhere: every mul+add pair is _mm256_mul_ps + _mm256_add_ps in
// the scalar tier's operation order, which is what makes cross-tier
// bit-identity hold without a tolerance. The transcendentals mirror
// exp_eval/tanh_eval/sigmoid_eval and the double log_f64/sincos_f64
// constant-for-constant and op-for-op;
// branches become blends whose selector matches the scalar branch condition
// (including NaN behavior — comments note each case).
#ifndef DG_NN_SIMD_VEC_AVX2_H_
#define DG_NN_SIMD_VEC_AVX2_H_

#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "nn/simd/vec.h"
#include "nn/simd/vec_scalar.h"

namespace dg::nn::simd::avx2_impl {

inline __m256 v_set1(float x) { return _mm256_set1_ps(x); }

/// exp_eval, 8 lanes. Same clamp/reduction/polynomial/scale sequence; the
/// scalar early-return for NaN becomes the final blend (so NaN wins over the
/// saturation patches, exactly like the scalar branch order).
inline __m256 exp_v(__m256 x) {
  using namespace detail;
  const __m256 hi = v_set1(kExpHi), lo = v_set1(kExpLo);
  // min(x, hi): NaN lanes take hi (MINPS returns src2 on NaN) — harmless,
  // the NaN blend at the end overrides whatever the clamped pipe computes.
  __m256 cx = _mm256_min_ps(x, hi);
  cx = _mm256_max_ps(cx, lo);
  const __m256 n = _mm256_floor_ps(
      _mm256_add_ps(_mm256_mul_ps(cx, v_set1(kLog2e)), v_set1(0.5f)));
  const __m256 r =
      _mm256_sub_ps(_mm256_sub_ps(cx, _mm256_mul_ps(n, v_set1(kLn2Hi))),
                    _mm256_mul_ps(n, v_set1(kLn2Lo)));
  __m256 p = v_set1(kExpP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), v_set1(kExpP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), v_set1(kExpP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), v_set1(kExpP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), v_set1(kExpP4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), v_set1(kExpP5));
  __m256 q = _mm256_mul_ps(p, _mm256_mul_ps(r, r));
  q = _mm256_add_ps(q, r);
  q = _mm256_add_ps(q, v_set1(1.0f));
  // n is integral after floor, so the truncating convert is exact — same as
  // the scalar (int32) cast.
  const __m256i ni = _mm256_cvttps_epi32(n);
  const __m256 scale = _mm256_castsi256_ps(
      _mm256_slli_epi32(_mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23));
  __m256 res = _mm256_mul_ps(q, scale);
  // Ordered compares are false for NaN lanes, matching the scalar `x > hi` /
  // `x < lo` tests on a NaN.
  res = _mm256_blendv_ps(
      res, v_set1(std::numeric_limits<float>::infinity()),
      _mm256_cmp_ps(x, hi, _CMP_GT_OQ));
  res = _mm256_blendv_ps(res, _mm256_setzero_ps(),
                         _mm256_cmp_ps(x, lo, _CMP_LT_OQ));
  return _mm256_blendv_ps(res, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

inline __m256 abs_v(__m256 x) {
  return _mm256_and_ps(x, _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff)));
}

/// tanh_eval, 8 lanes: both branches computed, blended on |x| > cutoff.
/// NaN lanes compare false and take the polynomial branch — same as the
/// scalar `z > kTanhCutoff` test on a NaN.
inline __m256 tanh_v(__m256 x) {
  using namespace detail;
  const __m256 z = abs_v(x);
  // Tail branch: w = 1 - 2/(exp(2z)+1), then the sign of x re-applied.
  // w > 0 always, so OR-ing x's sign bit equals the scalar `x < 0 ? -w : w`.
  const __m256 one = v_set1(1.0f);
  const __m256 e = exp_v(_mm256_add_ps(z, z));
  __m256 w = _mm256_sub_ps(one, _mm256_div_ps(v_set1(2.0f),
                                              _mm256_add_ps(e, one)));
  const __m256 signbit = _mm256_castsi256_ps(_mm256_set1_epi32(
      static_cast<std::int32_t>(0x80000000u)));
  w = _mm256_or_ps(w, _mm256_and_ps(x, signbit));
  // Polynomial branch (odd in x, so no sign fixup).
  const __m256 z2 = _mm256_mul_ps(x, x);
  __m256 p = v_set1(kTanhP0);
  p = _mm256_add_ps(_mm256_mul_ps(p, z2), v_set1(kTanhP1));
  p = _mm256_add_ps(_mm256_mul_ps(p, z2), v_set1(kTanhP2));
  p = _mm256_add_ps(_mm256_mul_ps(p, z2), v_set1(kTanhP3));
  p = _mm256_add_ps(_mm256_mul_ps(p, z2), v_set1(kTanhP4));
  __m256 t = _mm256_mul_ps(p, z2);
  t = _mm256_mul_ps(t, x);
  t = _mm256_add_ps(t, x);
  return _mm256_blendv_ps(t, w, _mm256_cmp_ps(z, v_set1(kTanhCutoff),
                                              _CMP_GT_OQ));
}

/// sigmoid_eval, 8 lanes. The `v >= 0` select (GE is false for NaN, so NaN
/// lanes route v itself into exp, exactly like the scalar ternaries).
inline __m256 sigmoid_v(__m256 v) {
  const __m256 one = v_set1(1.0f);
  const __m256 nonneg = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_GE_OQ);
  const __m256 arg = _mm256_blendv_ps(v, _mm256_mul_ps(v, v_set1(-1.0f)),
                                      nonneg);
  const __m256 e = exp_v(arg);
  const __m256 num = _mm256_blendv_ps(e, one, nonneg);
  return _mm256_div_ps(num, _mm256_add_ps(one, e));
}

// ---- double-precision log and sin/cos --------------------------------------

inline __m256d v_set1(double x) { return _mm256_set1_pd(x); }
inline __m256i v_set1_epi64(std::int64_t x) { return _mm256_set1_epi64x(x); }
inline __m256d add(__m256d a, __m256d b) { return _mm256_add_pd(a, b); }
inline __m256d sub(__m256d a, __m256d b) { return _mm256_sub_pd(a, b); }
inline __m256d mul(__m256d a, __m256d b) { return _mm256_mul_pd(a, b); }

/// Small integers (|k| < 2^51) to double, exactly: k added to the bits of
/// 1.5·2^52 is 1.5·2^52 + k, and subtracting 1.5·2^52 leaves k. Equal to
/// the scalar static_cast<double>(k).
inline __m256d small_int64_to_pd(__m256i k) {
  const __m256d magic = v_set1(0x1.8p52);
  return sub(
      _mm256_castsi256_pd(_mm256_add_epi64(k, _mm256_castpd_si256(magic))),
      magic);
}

/// scalar_impl::log_f64, 4 lanes: the selects become blends on the same
/// conditions (ordered compares, false on NaN, like the scalar tests).
inline __m256d log_f64_v(__m256d x) {
  using namespace detail;
  const __m256d tiny = _mm256_cmp_pd(x, v_set1(0x1p-1022), _CMP_LT_OQ);
  const __m256d xs = _mm256_blendv_pd(x, mul(x, v_set1(kTwo54)), tiny);
  const __m256i b = _mm256_castpd_si256(xs);
  const __m256i hx =
      _mm256_and_si256(_mm256_srli_epi64(b, 32), v_set1_epi64(0xfffff));
  const __m256i i = _mm256_and_si256(
      _mm256_add_epi64(hx, v_set1_epi64(0x95f64)), v_set1_epi64(0x100000));
  __m256i k = _mm256_sub_epi64(
      _mm256_and_si256(_mm256_srli_epi64(b, 52), v_set1_epi64(0x7ff)),
      v_set1_epi64(1023));
  k = _mm256_add_epi64(k, _mm256_srli_epi64(i, 20));
  k = _mm256_add_epi64(
      k, _mm256_and_si256(_mm256_castpd_si256(tiny), v_set1_epi64(-54)));
  const __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(b, v_set1_epi64(0x000fffffffffffffLL)),
      _mm256_slli_epi64(_mm256_xor_si256(i, v_set1_epi64(0x3ff00000)), 32)));
  const __m256d f = sub(m, v_set1(1.0));
  const __m256d s = _mm256_div_pd(f, add(v_set1(2.0), f));
  const __m256d dk = small_int64_to_pd(k);
  const __m256d z = mul(s, s);
  const __m256d w = mul(z, z);
  __m256d t1 = add(v_set1(kLg4), mul(w, v_set1(kLg6)));
  t1 = mul(w, add(v_set1(kLg2), mul(w, t1)));
  __m256d t2 = add(v_set1(kLg5), mul(w, v_set1(kLg7)));
  t2 = add(v_set1(kLg3), mul(w, t2));
  t2 = mul(z, add(v_set1(kLg1), mul(w, t2)));
  const __m256d r = add(t2, t1);
  const __m256d hfsq = mul(mul(v_set1(0.5), f), f);
  const __m256i near_sqrt2 = _mm256_cmpgt_epi64(
      _mm256_or_si256(_mm256_sub_epi64(hx, v_set1_epi64(0x6147a)),
                      _mm256_sub_epi64(v_set1_epi64(0x6b851), hx)),
      _mm256_setzero_si256());
  const __m256d hi = mul(dk, v_set1(kLn2HiD));
  const __m256d lo = mul(dk, v_set1(kLn2LoD));
  const __m256d big =
      sub(hi, sub(sub(hfsq, add(mul(s, add(hfsq, r)), lo)), f));
  const __m256d small = sub(hi, sub(sub(mul(s, sub(f, r)), lo), f));
  __m256d res = _mm256_blendv_pd(small, big, _mm256_castsi256_pd(near_sqrt2));
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const __m256d zero = _mm256_setzero_pd();
  const __m256d nan = v_set1(std::numeric_limits<double>::quiet_NaN());
  res = _mm256_blendv_pd(res, v_set1(-kInf), _mm256_cmp_pd(x, zero, _CMP_EQ_OQ));
  res = _mm256_blendv_pd(res, nan, _mm256_cmp_pd(x, zero, _CMP_LT_OQ));
  res = _mm256_blendv_pd(res, x, _mm256_cmp_pd(x, v_set1(kInf), _CMP_EQ_OQ));
  return _mm256_blendv_pd(res, x, _mm256_cmp_pd(x, x, _CMP_UNORD_Q));
}

/// scalar_impl::sincos_f64, 4 lanes. The quadrant n comes from the same
/// truncating conversion; its bits 0 and 1 pick the swap and the signs,
/// and a sign flip is an XOR of the sign bit, as the scalar negation is.
inline void sincos_f64_v(__m256d x, __m256d& sin_x, __m256d& cos_x) {
  using namespace detail;
  const __m128i n32 =
      _mm256_cvttpd_epi32(add(mul(x, v_set1(kInvPio2)), v_set1(0.5)));
  const __m256d fn = _mm256_cvtepi32_pd(n32);
  const __m256i n = _mm256_cvtepi32_epi64(n32);
  const __m256d t = sub(x, mul(fn, v_set1(kPio2_1)));
  const __m256d w = mul(fn, v_set1(kPio2_2));
  const __m256d r = sub(t, w);
  const __m256d wt = sub(mul(fn, v_set1(kPio2_2t)), sub(sub(t, r), w));
  const __m256d y0 = sub(r, wt);
  const __m256d y1 = sub(sub(r, y0), wt);

  const __m256d z = mul(y0, y0);
  const __m256d v = mul(z, y0);
  __m256d rs = add(v_set1(kS5), mul(z, v_set1(kS6)));
  rs = add(v_set1(kS4), mul(z, rs));
  rs = add(v_set1(kS3), mul(z, rs));
  rs = add(v_set1(kS2), mul(z, rs));
  const __m256d ks =
      sub(y0, sub(sub(mul(z, sub(mul(v_set1(0.5), y1), mul(v, rs))), y1),
                  mul(v, v_set1(kS1))));

  __m256d rc = add(v_set1(kC5), mul(z, v_set1(kC6)));
  rc = add(v_set1(kC4), mul(z, rc));
  rc = add(v_set1(kC3), mul(z, rc));
  rc = add(v_set1(kC2), mul(z, rc));
  rc = mul(z, add(v_set1(kC1), mul(z, rc)));
  const __m256d ay = _mm256_andnot_pd(v_set1(-0.0), y0);
  const __m256i high_word = v_set1_epi64(-0x100000000LL);  // 0xffffffff00000000
  __m256d qx = _mm256_castsi256_pd(_mm256_sub_epi64(
      _mm256_and_si256(_mm256_castpd_si256(ay), high_word),
      v_set1_epi64(0x0020000000000000LL)));
  qx = _mm256_blendv_pd(qx, v_set1(0.28125),
                        _mm256_cmp_pd(ay, v_set1(kCosQxHi), _CMP_GT_OQ));
  qx = _mm256_blendv_pd(qx, _mm256_setzero_pd(),
                        _mm256_cmp_pd(ay, v_set1(kCosQxLo), _CMP_LT_OQ));
  const __m256d hz = sub(mul(v_set1(0.5), z), qx);
  const __m256d a = sub(v_set1(1.0), qx);
  const __m256d kc = sub(a, sub(hz, sub(mul(z, rc), mul(y0, y1))));

  // Bit 0 of n in the sign bit selects the swap; bits 1 of n and of n + 1
  // shifted into the sign bit are the sin and cos sign flips.
  const __m256d odd = _mm256_castsi256_pd(_mm256_slli_epi64(n, 63));
  const __m256d s = _mm256_blendv_pd(ks, kc, odd);
  const __m256d c = _mm256_blendv_pd(kc, ks, odd);
  const __m256i two = v_set1_epi64(2);
  const __m256d sin_flip = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_and_si256(n, two), 62));
  const __m256d cos_flip = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_and_si256(_mm256_add_epi64(n, v_set1_epi64(1)), two), 62));
  sin_x = _mm256_xor_pd(s, sin_flip);
  cos_x = _mm256_xor_pd(c, cos_flip);
}

/// log_eval, 8 lanes: each half widened to 4 doubles, log_f64_v, narrowed.
inline __m256 log_v(__m256 x) {
  const __m128 lo = _mm256_cvtpd_ps(log_f64_v(_mm256_cvtps_pd(
      _mm256_castps256_ps128(x))));
  const __m128 hi = _mm256_cvtpd_ps(log_f64_v(_mm256_cvtps_pd(
      _mm256_extractf128_ps(x, 1))));
  return _mm256_insertf128_ps(_mm256_castps128_ps256(lo), hi, 1);
}

// ---- kernels --------------------------------------------------------------

/// Most ymm accumulators one matmul tile holds across the k loop: with the
/// broadcast, the tail mask and a loaded b vector it fits the 16 ymm
/// registers of plain AVX2.
inline constexpr int kMaxTileVecs = 12;

/// Vector V of a tile of G at p: the last one masked when kTail.
template <int G, bool kTail, int V>
inline __m256 tile_load(const float* p, __m256i tail) {
  if constexpr (kTail && V == G - 1) return _mm256_maskload_ps(p + 8 * V, tail);
  else return _mm256_loadu_ps(p + 8 * V);
}

template <int G, bool kTail, int V>
inline void tile_store(float* p, __m256 v, __m256i tail) {
  if constexpr (kTail && V == G - 1) _mm256_maskstore_ps(p + 8 * V, tail, v);
  else _mm256_storeu_ps(p + 8 * V, v);
}

/// Columns [j, j + 8G) of out[r0..r1) += A[r0..r1, kb..kend) * B[kb..kend,
/// j..j + 8G): G ymm accumulators per row held across the k loop (G
/// independent add chains), the last one covering only m % 8 columns when
/// kTail. A is op(a) (scalar_impl::op_elem); row kk of B's columns starts
/// at bslab + (kk - kb) * ldb.
template <int G, bool kTail, bool kTransA, int... V>
void tile_rows(std::integer_sequence<int, V...>, const float* a, int lda,
               const float* bslab, int ldb, int m, float* out,
               std::int64_t r0, std::int64_t r1, int j, int kb, int kend) {
  const __m256i tail = _mm256_cmpgt_epi32(
      _mm256_set1_epi32(m % 8), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  for (std::int64_t i = r0; i < r1; ++i) {
    float* o = out + static_cast<std::size_t>(i) * m + j;
    __m256 acc[G] = {tile_load<G, kTail, V>(o, tail)...};
    const float* brow = bslab;
    for (int kk = kb; kk < kend; ++kk, brow += ldb) {
      const float av = scalar_impl::op_elem<kTransA>(a, lda, i, kk);
      if (av == 0.0f) continue;
      const __m256 bv = _mm256_set1_ps(av);
      ((acc[V] = _mm256_add_ps(
            acc[V], _mm256_mul_ps(bv, tile_load<G, kTail, V>(brow, tail)))),
       ...);
    }
    (tile_store<G, kTail, V>(o, acc[V], tail), ...);
  }
}

template <int G, bool kTail, bool kTransA>
void product_tile(const float* a, int lda, const float* bslab, int ldb, int m,
                  float* out, std::int64_t r0, std::int64_t r1, int j, int kb,
                  int kend) {
  tile_rows<G, kTail, kTransA>(std::make_integer_sequence<int, G>(), a, lda,
                               bslab, ldb, m, out, r0, r1, j, kb, kend);
}

using TileFn = decltype(&product_tile<1, false, false>);

/// product_tile<1..sizeof...(G), kTail, kTransA>, indexed by G - 1.
template <bool kTail, bool kTransA, int... G>
constexpr std::array<TileFn, sizeof...(G)> tile_table(
    std::integer_sequence<int, G...>) {
  return {&product_tile<G + 1, kTail, kTransA>...};
}

/// Where a tile reads B: row kb of its first column, and the stride of B's
/// rows there.
struct BSlab {
  const float* data;
  int ld;
};

/// out[r0..r1) += op(a)[r0..r1) * B for op(a) [*, k] (scalar_impl::op_elem)
/// and B [k, m]: k-slabs `depth` deep and ascending-k zero-skip
/// accumulation. Each output row is ceil(m/8) ymm vectors, the last one
/// masked when 8 does not divide m, split into balanced tiles of at most
/// kMaxTileVecs accumulators (13 vectors run as 7+6, 50 as 5x10), so every
/// tile of 4 or more vectors keeps 4 or more independent add chains.
/// slab(kb, kend, j, width) gives the tile's B for k-slab [kb, kend) and
/// columns [j, j + width). Per output element the operation sequence is the
/// scalar tier's exactly (broadcast-mul then add, no FMA; a slab boundary
/// only stores and reloads the accumulators), so results are bit-identical.
template <bool kTransA, typename Slab>
void product_tiles(const float* a, int lda, int k, int m, float* out,
                   std::int64_t r0, std::int64_t r1, int depth,
                   const Slab& slab) {
  static constexpr auto kFull = tile_table<false, kTransA>(
      std::make_integer_sequence<int, kMaxTileVecs>());
  static constexpr auto kMasked = tile_table<true, kTransA>(
      std::make_integer_sequence<int, kMaxTileVecs>());
  if (m <= 0) return;
  const int vecs = (m + 7) / 8;
  const int tiles = (vecs + kMaxTileVecs - 1) / kMaxTileVecs;
  const int small = vecs / tiles, big_tiles = vecs % tiles;
  for (int kb = 0; kb < k; kb += depth) {
    const int kend = std::min(k, kb + depth);
    int j = 0;
    for (int t = 0; t < tiles; ++t) {
      const int g = t < big_tiles ? small + 1 : small;
      const bool last = t + 1 == tiles;
      const TileFn fn = last && m % 8 != 0 ? kMasked[g - 1] : kFull[g - 1];
      const BSlab b = slab(kb, kend, j, std::min(8 * g, m - j));
      fn(a, lda, b.data, b.ld, m, out, r0, r1, j, kb, kend);
      j += 8 * g;
    }
  }
}

/// out[r0..r1) += a[r0..r1) * b, reading b [k, m] in place in the scalar
/// tier's kKC slabs.
inline void matmul_acc_rows(const float* a, int k, const float* b, int m,
                            float* out, std::int64_t r0, std::int64_t r1) {
  product_tiles<false>(a, k, k, m, out, r0, r1, scalar_impl::kKC,
                       [=](int kb, int, int j, int) {
                         return BSlab{b + static_cast<std::size_t>(kb) * m + j,
                                      m};
                       });
}

/// out[r0..r1) += aᵀ[r0..r1) * b for a [n, k] and b [n, m]: a's columns and
/// b read in place, as matmul_acc_rows reads b.
inline void matmul_tn_acc_rows(const float* a, int n, int k, const float* b,
                               int m, float* out, std::int64_t r0,
                               std::int64_t r1) {
  product_tiles<true>(a, k, n, m, out, r0, r1, scalar_impl::kKC,
                      [=](int kb, int, int j, int) {
                        return BSlab{b + static_cast<std::size_t>(kb) * m + j,
                                     m};
                      });
}

inline void apply_ew(EwFn fn, const float* a, const float* b, float* d,
                     std::int64_t len) {
  std::int64_t i = 0;
  switch (fn) {
    case EwFn::kAdd:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_add_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
      break;
    case EwFn::kSub:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_sub_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
      break;
    case EwFn::kMul:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
      break;
    case EwFn::kDiv:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_div_ps(_mm256_loadu_ps(a + i),
                                              _mm256_loadu_ps(b + i)));
      break;
    case EwFn::kNeg: {
      const __m256 m = _mm256_set1_ps(scalar_impl::opaque(-1.0f));
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), m));
      break;
    }
    case EwFn::kRelu:
      // max_ps(v, 0) returns the second operand (0) for NaN lanes, matching
      // the scalar `v > 0 ? v : 0` which sends NaN to 0; and max(-0, +0)
      // picks +0 like the scalar branch does.
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_max_ps(_mm256_loadu_ps(a + i),
                                              _mm256_setzero_ps()));
      break;
    case EwFn::kAbs:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, abs_v(_mm256_loadu_ps(a + i)));
      break;
    case EwFn::kTanh:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, tanh_v(_mm256_loadu_ps(a + i)));
      break;
    case EwFn::kSigmoid:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, sigmoid_v(_mm256_loadu_ps(a + i)));
      break;
    case EwFn::kExp:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, exp_v(_mm256_loadu_ps(a + i)));
      break;
    case EwFn::kLog:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, log_v(_mm256_loadu_ps(a + i)));
      break;
    case EwFn::kSqrt:
      // VSQRTPS is correctly rounded, so it is bit-identical to std::sqrt.
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_sqrt_ps(_mm256_loadu_ps(a + i)));
      break;
    case EwFn::kSquare:
      for (; i + 8 <= len; i += 8) {
        const __m256 v = _mm256_loadu_ps(a + i);
        _mm256_storeu_ps(d + i, _mm256_mul_ps(v, v));
      }
      break;
    case EwFn::kRecip:
      // div, never RCPPS — the reciprocal approximation would fork the tiers.
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_div_ps(_mm256_set1_ps(1.0f),
                                              _mm256_loadu_ps(a + i)));
      break;
    case EwFn::kStep:
      // Ordered compares are false on NaN lanes, like the scalar `>`/`>=`.
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_and_ps(_mm256_set1_ps(1.0f),
                                              _mm256_cmp_ps(_mm256_loadu_ps(a + i),
                                                            _mm256_setzero_ps(),
                                                            _CMP_GT_OQ)));
      break;
    case EwFn::kSign:
      for (; i + 8 <= len; i += 8)
        _mm256_storeu_ps(d + i, _mm256_blendv_ps(_mm256_set1_ps(-1.0f),
                                                 _mm256_set1_ps(1.0f),
                                                 _mm256_cmp_ps(_mm256_loadu_ps(a + i),
                                                               _mm256_setzero_ps(),
                                                               _CMP_GE_OQ)));
      break;
  }
  for (; i < len; ++i) d[i] = scalar_impl::ew_eval(fn, a[i], b ? b[i] : 0.0f);
}

inline void add_scalar(const float* a, float s, float* d, std::int64_t len) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= len; i += 8)
    _mm256_storeu_ps(d + i, _mm256_add_ps(_mm256_loadu_ps(a + i), vs));
  for (; i < len; ++i) d[i] = a[i] + s;
}

inline void mul_scalar(const float* a, float s, float* d, std::int64_t len) {
  const __m256 vs = _mm256_set1_ps(s);
  std::int64_t i = 0;
  for (; i + 8 <= len; i += 8)
    _mm256_storeu_ps(d + i, _mm256_mul_ps(_mm256_loadu_ps(a + i), vs));
  for (; i < len; ++i) d[i] = a[i] * s;
}

/// sum_span's 8-lane blocking is exactly one ymm accumulator: vertical adds
/// over the blocks, lanes combined in ascending order, sequential tail.
inline float sum_span(const float* p, std::int64_t n) {
  if (n < 8) return scalar_impl::sum_span(p, n);
  __m256 vacc = _mm256_loadu_ps(p);
  std::int64_t i = 8;
  for (; i + 8 <= n; i += 8)
    vacc = _mm256_add_ps(vacc, _mm256_loadu_ps(p + i));
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vacc);
  float s = lanes[0];
  for (int t = 1; t < 8; ++t) s += lanes[t];
  for (; i < n; ++i) s += p[i];
  return s;
}

/// max_span: _mm256_max_ps(x, vacc) — x as the FIRST operand — returns vacc
/// when x is NaN, matching scalar std::max(acc, x)'s NaN-dropping, and picks
/// vacc on ties so signed zeros match too.
inline float max_span(const float* p, std::int64_t n) {
  if (n < 8) return scalar_impl::max_span(p, n);
  __m256 vacc = _mm256_loadu_ps(p);
  std::int64_t i = 8;
  for (; i + 8 <= n; i += 8)
    vacc = _mm256_max_ps(_mm256_loadu_ps(p + i), vacc);
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vacc);
  float mx = lanes[0];
  for (int t = 1; t < 8; ++t) mx = std::max(mx, lanes[t]);
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

/// The 8x8 block of a at p (row stride lda) transposed into the 8x8 block
/// of out at q (row stride ldo). Unpacks interleave row pairs, shuffles
/// gather one column of four rows per 128-bit half (columns c and c + 4),
/// and the cross-lane permutes join the halves of rows 0-3 and 4-7. Every
/// instruction moves lanes and none reads one as a number.
inline void transpose_8x8(const float* p, std::size_t lda, float* q,
                          std::size_t ldo) {
  const __m256 r0 = _mm256_loadu_ps(p);
  const __m256 r1 = _mm256_loadu_ps(p + lda);
  const __m256 r2 = _mm256_loadu_ps(p + 2 * lda);
  const __m256 r3 = _mm256_loadu_ps(p + 3 * lda);
  const __m256 r4 = _mm256_loadu_ps(p + 4 * lda);
  const __m256 r5 = _mm256_loadu_ps(p + 5 * lda);
  const __m256 r6 = _mm256_loadu_ps(p + 6 * lda);
  const __m256 r7 = _mm256_loadu_ps(p + 7 * lda);
  const __m256 t0 = _mm256_unpacklo_ps(r0, r1);
  const __m256 t1 = _mm256_unpackhi_ps(r0, r1);
  const __m256 t2 = _mm256_unpacklo_ps(r2, r3);
  const __m256 t3 = _mm256_unpackhi_ps(r2, r3);
  const __m256 t4 = _mm256_unpacklo_ps(r4, r5);
  const __m256 t5 = _mm256_unpackhi_ps(r4, r5);
  const __m256 t6 = _mm256_unpacklo_ps(r6, r7);
  const __m256 t7 = _mm256_unpackhi_ps(r6, r7);
  constexpr int kLo = _MM_SHUFFLE(1, 0, 1, 0), kHi = _MM_SHUFFLE(3, 2, 3, 2);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, kLo);  // columns 0 | 4
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, kHi);  // columns 1 | 5
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, kLo);  // columns 2 | 6
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, kHi);  // columns 3 | 7
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, kLo);
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, kHi);
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, kLo);
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, kHi);
  constexpr int kLows = 0x20, kHighs = 0x31;
  _mm256_storeu_ps(q, _mm256_permute2f128_ps(s0, s4, kLows));
  _mm256_storeu_ps(q + ldo, _mm256_permute2f128_ps(s1, s5, kLows));
  _mm256_storeu_ps(q + 2 * ldo, _mm256_permute2f128_ps(s2, s6, kLows));
  _mm256_storeu_ps(q + 3 * ldo, _mm256_permute2f128_ps(s3, s7, kLows));
  _mm256_storeu_ps(q + 4 * ldo, _mm256_permute2f128_ps(s0, s4, kHighs));
  _mm256_storeu_ps(q + 5 * ldo, _mm256_permute2f128_ps(s1, s5, kHighs));
  _mm256_storeu_ps(q + 6 * ldo, _mm256_permute2f128_ps(s2, s6, kHighs));
  _mm256_storeu_ps(q + 7 * ldo, _mm256_permute2f128_ps(s3, s7, kHighs));
}

/// dst[c][r] = src[r][c] for the rows x cols block at src (row stride lds),
/// into dst (row stride ldd): 8x8 register blocks counted from the block's
/// corner, then rows past the last multiple of 8 and columns past the last
/// multiple of 8 one float at a time, so no load or store leaves the block.
inline void transpose_block(const float* src, std::size_t lds, int rows,
                            int cols, float* dst, std::size_t ldd) {
  int c = 0;
  for (; c + 8 <= cols; c += 8) {
    int r = 0;
    for (; r + 8 <= rows; r += 8) {
      transpose_8x8(src + r * lds + c, lds, dst + c * ldd + r, ldd);
    }
    for (; r < rows; ++r) {
      for (int t = 0; t < 8; ++t) dst[(c + t) * ldd + r] = src[r * lds + c + t];
    }
  }
  for (; c < cols; ++c) {
    for (int r = 0; r < rows; ++r) dst[c * ldd + r] = src[r * lds + c];
  }
}

/// Rows [j0, j1) of out = aᵀ: the scalar tier's kTransposeTile cache tiles,
/// each one transpose_block.
inline void transpose(const float* a, int rows, int cols, float* out,
                      std::int64_t j0, std::int64_t j1) {
  constexpr int B = scalar_impl::kTransposeTile;
  const auto lda = static_cast<std::size_t>(cols);
  const auto ldo = static_cast<std::size_t>(rows);
  for (std::int64_t jb = j0; jb < j1; jb += B) {
    const int w = static_cast<int>(std::min<std::int64_t>(j1 - jb, B));
    for (int ib = 0; ib < rows; ib += B) {
      transpose_block(a + ib * lda + jb, lda, std::min(B, rows - ib), w,
                      out + jb * ldo + ib, ldo);
    }
  }
}

/// k-rows of bᵀ per matmul_nt panel: a panel of the widest tile is then
/// 64 x 96 floats, 24 KB, and stays in L1 while the tile's rows read it.
inline constexpr int kPanelDepth = 64;

/// out[r0..r1) += a[r0..r1) * bᵀ for b [m, k]: before a tile runs on a
/// k-slab, transpose_block packs that slab's panel of bᵀ (kPanelDepth rows,
/// the tile's columns) into a buffer on the stack, and matmul's tile runs
/// on the panel, so every output element gets matmul's operation sequence.
inline void matmul_nt_acc_rows(const float* a, int k, const float* b, int m,
                               float* out, std::int64_t r0, std::int64_t r1) {
  alignas(32) float panel[kPanelDepth * 8 * kMaxTileVecs];
  product_tiles<false>(
      a, k, k, m, out, r0, r1, kPanelDepth,
      [&](int kb, int kend, int j, int width) {
        const int ld = (width + 7) / 8 * 8;
        transpose_block(b + static_cast<std::size_t>(j) * k + kb,
                        static_cast<std::size_t>(k), width, kend - kb, panel,
                        static_cast<std::size_t>(ld));
        return BSlab{panel, ld};
      });
}

/// Box-Muller, 4 pairs per step. Two loads hold pairs (0, 1) and (2, 3);
/// unpacklo/hi gather u1 and u2 of pairs 0, 2, 1, 3, and the same
/// unpacks on (r·cos θ, r·sin θ) put every pair back in place, so the
/// lanes never cross. The last pairs go through the scalar tier.
inline void box_muller(const double* u, double* z, std::int64_t pairs) {
  const __m256d m2 = v_set1(-2.0), two_pi = v_set1(detail::kTwoPi);
  std::int64_t i = 0;
  for (; i + 4 <= pairs; i += 4) {
    const __m256d a = _mm256_loadu_pd(u + 2 * i);
    const __m256d b = _mm256_loadu_pd(u + 2 * i + 4);
    const __m256d u1 = _mm256_unpacklo_pd(a, b);
    const __m256d u2 = _mm256_unpackhi_pd(a, b);
    const __m256d r = _mm256_sqrt_pd(mul(m2, log_f64_v(u1)));
    __m256d s, c;
    sincos_f64_v(mul(two_pi, u2), s, c);
    const __m256d zc = mul(r, c), zs = mul(r, s);
    _mm256_storeu_pd(z + 2 * i, _mm256_unpacklo_pd(zc, zs));
    _mm256_storeu_pd(z + 2 * i + 4, _mm256_unpackhi_pd(zc, zs));
  }
  scalar_impl::box_muller(u + 2 * i, z + 2 * i, pairs - i);
}

/// scalar_impl::adam, 8 lanes: the same multiplies, adds, divides and
/// square root in the same order (VSQRTPS and VDIVPS round correctly, as
/// the scalar instructions do), then the scalar loop for the tail.
inline void adam(float* p, float* m, float* v, const float* g,
                 std::int64_t len, const AdamCoeffs& c) {
  const __m256 beta1 = _mm256_set1_ps(c.beta1);
  const __m256 beta2 = _mm256_set1_ps(c.beta2);
  const __m256 one_m_beta1 = _mm256_set1_ps(1.0f - c.beta1);
  const __m256 one_m_beta2 = _mm256_set1_ps(1.0f - c.beta2);
  const __m256 lr = _mm256_set1_ps(c.lr), eps = _mm256_set1_ps(c.eps);
  const __m256 bc1 = _mm256_set1_ps(c.bc1), bc2 = _mm256_set1_ps(c.bc2);
  std::int64_t j = 0;
  for (; j + 8 <= len; j += 8) {
    const __m256 gv = _mm256_loadu_ps(g + j);
    const __m256 mv =
        _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + j)),
                      _mm256_mul_ps(one_m_beta1, gv));
    const __m256 vv =
        _mm256_add_ps(_mm256_mul_ps(beta2, _mm256_loadu_ps(v + j)),
                      _mm256_mul_ps(_mm256_mul_ps(one_m_beta2, gv), gv));
    _mm256_storeu_ps(m + j, mv);
    _mm256_storeu_ps(v + j, vv);
    const __m256 mhat = _mm256_div_ps(mv, bc1);
    const __m256 vhat = _mm256_div_ps(vv, bc2);
    const __m256 step = _mm256_div_ps(
        _mm256_mul_ps(lr, mhat), _mm256_add_ps(_mm256_sqrt_ps(vhat), eps));
    _mm256_storeu_ps(p + j, _mm256_sub_ps(_mm256_loadu_ps(p + j), step));
  }
  scalar_impl::adam(p + j, m + j, v + j, g + j, len - j, c);
}

}  // namespace dg::nn::simd::avx2_impl

#endif  // defined(__AVX2__)

#endif  // DG_NN_SIMD_VEC_AVX2_H_
