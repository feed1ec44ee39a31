// SIMD dispatch tier tests (nn/simd/vec.h): the executable contract behind
// the "same output under every tier" CI matrix.
//
//  1. Dispatch plumbing: parse_tier / set_simd_tier / active_tier report
//     coherently and the override round-trips.
//  2. ULP property sweeps: the shared polynomial exp/tanh/sigmoid stay
//     within the per-op bounds *declared in their op rows* (nn/ops.h) vs a
//     double-precision libm reference, across their supported domain.
//  3. Cross-tier bit-exactness: every dispatched kernel (matmul, affine,
//     lstm_gates, all elementwise fns, broadcasts, reductions, transpose;
//     matmul_nt and matmul_tn through their transpose compositions)
//     produces bit-identical output under scalar and avx2 tiers, for shapes
//     that exercise the vector remainder paths, across DG_THREADS in
//     {1,4,16}.
//
// The avx2 half of (3) self-skips on machines without AVX2 — CI runs the
// full matrix on x86.
#include "nn/simd/vec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/autograd.h"
#include "nn/matrix.h"
#include "nn/ops.h"
#include "nn/parallel.h"

namespace dg::nn {
namespace {

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

/// Restores the dispatch tier and thread count on scope exit so tests do not
/// leak configuration into each other (the table is process-global).
class TierGuard {
 public:
  TierGuard() : tier_(simd::active_tier()), threads_(num_threads()) {}
  ~TierGuard() {
    simd::set_simd_tier(tier_);
    set_num_threads(threads_);
  }

 private:
  simd::Tier tier_;
  int threads_;
};

std::uint32_t float_bits(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

/// Distance in units-in-the-last-place between two floats, treating the
/// float line as the usual monotonic integer mapping (negative floats map
/// below zero). NaN vs NaN counts as 0; NaN vs non-NaN as huge.
std::int64_t ulp_distance(float a, float b) {
  const bool na = std::isnan(a), nb = std::isnan(b);
  if (na && nb) return 0;
  if (na || nb) return std::numeric_limits<std::int64_t>::max();
  auto key = [](float f) -> std::int64_t {
    const std::uint32_t u = float_bits(f);
    return (u & 0x80000000u) ? -static_cast<std::int64_t>(u & 0x7fffffffu)
                             : static_cast<std::int64_t>(u);
  };
  return std::llabs(key(a) - key(b));
}

/// Deterministic fill: a fixed LCG keyed by `seed`, values roughly in
/// [-2, 2) with an occasional exact zero to hit the matmul zero-skip path.
void fill(Matrix& m, std::uint32_t seed) {
  std::uint64_t s = 0x9e3779b97f4a7c15ull ^ seed;
  for (float& v : m.flat()) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint32_t r = static_cast<std::uint32_t>(s >> 33);
    if ((r & 0x1f) == 0) {
      v = 0.0f;  // exercise the ascending-k zero-skip branch
    } else {
      v = static_cast<float>(r) * (4.0f / 4294967296.0f) - 2.0f;
    }
  }
}

/// Bit pattern of a float built from raw bits (NaN payloads survive).
float from_bits(std::uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

::testing::AssertionResult bit_identical(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) {
    return ::testing::AssertionFailure() << "shape mismatch";
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float x = a.data()[i], y = b.data()[i];
    if (float_bits(x) != float_bits(y)) {
      return ::testing::AssertionFailure()
             << "element " << i << " differs: " << x << " (0x" << std::hex
             << float_bits(x) << ") vs " << y << " (0x" << float_bits(y)
             << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

int registry_ulp_bound(const char* op) {
  const OpDef* row = find_op(op);
  EXPECT_NE(row, nullptr) << op;
  EXPECT_GT(row->ulp_bound, 0) << op;
  return row == nullptr ? 0 : row->ulp_bound;
}

// ---------------------------------------------------------------------------
// Dispatch plumbing
// ---------------------------------------------------------------------------

TEST(SimdDispatch, ReportsCoherentState) {
  const simd::Tier t = simd::active_tier();
  EXPECT_TRUE(t == simd::Tier::kScalar || t == simd::Tier::kAvx2);
  EXPECT_NE(simd::simd_tier_source(), nullptr);
  EXPECT_TRUE(simd::tier_supported(simd::Tier::kScalar));
  // The active tier is by definition a supported one.
  EXPECT_TRUE(simd::tier_supported(t));
  EXPECT_STREQ(simd::tier_name(simd::Tier::kScalar), "scalar");
  EXPECT_STREQ(simd::tier_name(simd::Tier::kAvx2), "avx2");
}

TEST(SimdDispatch, ParseTier) {
  simd::Tier t = simd::Tier::kAvx2;
  bool auto_tier = false;
  EXPECT_TRUE(simd::parse_tier("", t, auto_tier));
  EXPECT_TRUE(auto_tier);
  EXPECT_TRUE(simd::parse_tier("auto", t, auto_tier));
  EXPECT_TRUE(auto_tier);
  EXPECT_TRUE(simd::parse_tier("scalar", t, auto_tier));
  EXPECT_FALSE(auto_tier);
  EXPECT_EQ(t, simd::Tier::kScalar);
  EXPECT_TRUE(simd::parse_tier("avx2", t, auto_tier));
  EXPECT_FALSE(auto_tier);
  EXPECT_EQ(t, simd::Tier::kAvx2);
  EXPECT_FALSE(simd::parse_tier("sse9000", t, auto_tier));
  EXPECT_FALSE(simd::parse_tier("AVX2", t, auto_tier));  // case-sensitive
}

TEST(SimdDispatch, SetTierRoundTrips) {
  TierGuard guard;
  ASSERT_TRUE(simd::set_simd_tier(simd::Tier::kScalar));
  EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  EXPECT_STREQ(simd::simd_tier_source(), "set_simd_tier");
  if (simd::tier_supported(simd::Tier::kAvx2)) {
    ASSERT_TRUE(simd::set_simd_tier(simd::Tier::kAvx2));
    EXPECT_EQ(simd::active_tier(), simd::Tier::kAvx2);
  } else {
    EXPECT_FALSE(simd::set_simd_tier(simd::Tier::kAvx2));
    EXPECT_EQ(simd::active_tier(), simd::Tier::kScalar);
  }
}

// ---------------------------------------------------------------------------
// Registry tolerance classes
// ---------------------------------------------------------------------------

TEST(SimdRegistry, TranscendentalsDeclareUlpBounds) {
  registry_ulp_bound("exp");
  registry_ulp_bound("tanh");
  registry_ulp_bound("sigmoid");
  registry_ulp_bound("log");
  int bounded = 0;
  for (const OpDef& row : op_table()) bounded += row.ulp_bound > 0 ? 1 : 0;
  EXPECT_EQ(bounded, 4) << "only the in-tree transcendentals are bounded";
}

TEST(SimdRegistry, PureOpsAreBitExact) {
  for (const char* op : {"add", "mul", "matmul", "matmul_nt", "matmul_tn",
                         "lstm_gates", "row_sum", "relu", "sqrt"}) {
    const OpDef* row = find_op(op);
    ASSERT_NE(row, nullptr) << op;
    EXPECT_EQ(row->ulp_bound, 0) << op;
  }
}

// ---------------------------------------------------------------------------
// ULP property sweeps vs double-precision libm
// ---------------------------------------------------------------------------

/// Sweeps `points` arguments uniformly over [lo, hi] and asserts
/// ref(x) stays within `bound` ULP of the double-libm value.
void sweep_ulp(float (*fn)(float), double (*libm)(double), float lo, float hi,
               int points, std::int64_t bound, const char* name) {
  std::int64_t worst = 0;
  float worst_x = lo;
  for (int i = 0; i <= points; ++i) {
    const float x =
        lo + (hi - lo) * (static_cast<float>(i) / static_cast<float>(points));
    const float got = fn(x);
    const float want = static_cast<float>(libm(static_cast<double>(x)));
    const std::int64_t d = ulp_distance(got, want);
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, bound) << name << " worst ULP " << worst << " at x="
                          << worst_x;
}

TEST(SimdUlp, ExpWithinRegistryBound) {
  const std::int64_t bound = registry_ulp_bound("exp");
  // Supported domain (see OpDef::ulp_bound doc): flush-to-zero below
  // -87.336, +inf saturation above 88.376.
  sweep_ulp(&simd::exp_ref, &std::exp, -87.0f, 88.0f, 500000, bound, "exp");
  sweep_ulp(&simd::exp_ref, &std::exp, -1.0f, 1.0f, 200000, bound, "exp");
}

TEST(SimdUlp, TanhWithinRegistryBound) {
  const std::int64_t bound = registry_ulp_bound("tanh");
  sweep_ulp(&simd::tanh_ref, &std::tanh, -20.0f, 20.0f, 500000, bound,
            "tanh");
  sweep_ulp(&simd::tanh_ref, &std::tanh, -0.7f, 0.7f, 200000, bound, "tanh");
}

double sigmoid_d(double x) {
  return x >= 0.0 ? 1.0 / (1.0 + std::exp(-x)) : std::exp(x) / (1.0 + std::exp(x));
}

TEST(SimdUlp, SigmoidWithinRegistryBound) {
  const std::int64_t bound = registry_ulp_bound("sigmoid");
  sweep_ulp(&simd::sigmoid_ref, &sigmoid_d, -87.0f, 88.0f, 500000, bound,
            "sigmoid");
  sweep_ulp(&simd::sigmoid_ref, &sigmoid_d, -4.0f, 4.0f, 200000, bound,
            "sigmoid");
}

TEST(SimdUlp, ExpEdgeCases) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(simd::exp_ref(nan)));
  EXPECT_EQ(simd::exp_ref(inf), inf);
  EXPECT_EQ(simd::exp_ref(-inf), 0.0f);
  EXPECT_EQ(simd::exp_ref(0.0f), 1.0f);
  EXPECT_EQ(simd::exp_ref(-0.0f), 1.0f);
  // Saturation semantics at the domain edges.
  EXPECT_EQ(simd::exp_ref(89.0f), inf);
  EXPECT_EQ(simd::exp_ref(1000.0f), inf);
  EXPECT_EQ(simd::exp_ref(-88.0f), 0.0f);  // denormal region flushes to zero
  EXPECT_EQ(simd::exp_ref(-1000.0f), 0.0f);
}

TEST(SimdUlp, TanhSigmoidEdgeCases) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_TRUE(std::isnan(simd::tanh_ref(nan)));
  EXPECT_EQ(simd::tanh_ref(inf), 1.0f);
  EXPECT_EQ(simd::tanh_ref(-inf), -1.0f);
  EXPECT_EQ(simd::tanh_ref(0.0f), 0.0f);
  EXPECT_EQ(simd::tanh_ref(30.0f), 1.0f);
  EXPECT_EQ(simd::tanh_ref(-30.0f), -1.0f);
  EXPECT_TRUE(std::isnan(simd::sigmoid_ref(nan)));
  EXPECT_EQ(simd::sigmoid_ref(inf), 1.0f);
  EXPECT_EQ(simd::sigmoid_ref(-inf), 0.0f);
  EXPECT_EQ(simd::sigmoid_ref(0.0f), 0.5f);
}

TEST(SimdUlp, LogWithinRegistryBound) {
  const std::int64_t bound = registry_ulp_bound("log");
  sweep_ulp(&simd::log_ref, &std::log, 0.5f, 2.0f, 200000, bound, "log");
  sweep_ulp(&simd::log_ref, &std::log, 1e-3f, 1e3f, 200000, bound, "log");
  // Every binade: positive bit patterns from the smallest subnormal to the
  // largest finite float, 2^31 / 1021 of them.
  std::int64_t worst = 0;
  float worst_x = 0.0f;
  for (std::uint32_t u = 1; u < 0x7f800000u; u += 1021) {
    const float x = from_bits(u);
    const std::int64_t d = ulp_distance(
        simd::log_ref(x), static_cast<float>(std::log(static_cast<double>(x))));
    if (d > worst) {
      worst = d;
      worst_x = x;
    }
  }
  EXPECT_LE(worst, bound) << "log worst ULP " << worst << " at x=" << worst_x;
}

TEST(SimdUlp, LogEdgeCases) {
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  EXPECT_EQ(simd::log_ref(0.0f), -inf);
  EXPECT_EQ(simd::log_ref(-0.0f), -inf);
  EXPECT_TRUE(std::isnan(simd::log_ref(-1.0f)));
  EXPECT_TRUE(std::isnan(simd::log_ref(-1e-40f)));
  EXPECT_TRUE(std::isnan(simd::log_ref(-inf)));
  EXPECT_TRUE(std::isnan(simd::log_ref(nan)));
  EXPECT_EQ(simd::log_ref(inf), inf);
  EXPECT_EQ(float_bits(simd::log_ref(1.0f)), float_bits(0.0f));
  const std::int64_t bound = registry_ulp_bound("log");
  for (const float x : {from_bits(0x00000001u), from_bits(0x00000400u),
                        from_bits(0x007fffffu), from_bits(0x00800000u),
                        std::numeric_limits<float>::max()}) {
    EXPECT_LE(ulp_distance(simd::log_ref(x), static_cast<float>(std::log(
                                                 static_cast<double>(x)))),
              bound)
        << x;
  }
}

/// Distance in ULP between two doubles (same mapping as ulp_distance).
std::int64_t ulp_distance_f64(double a, double b) {
  if (std::isnan(a) && std::isnan(b)) return 0;
  if (std::isnan(a) || std::isnan(b)) {
    return std::numeric_limits<std::int64_t>::max();
  }
  auto key = [](double d) -> std::int64_t {
    std::int64_t u;
    std::memcpy(&u, &d, sizeof(u));
    return u < 0 ? std::numeric_limits<std::int64_t>::min() - u : u;
  };
  return std::llabs(key(a) - key(b));
}

/// A uniform on Rng::uniform's grid, k·2^-53 for a 53-bit k, from an LCG.
double lcg_uniform(std::uint64_t& s) {
  s = s * 6364136223846793005ull + 1442695040888963407ull;
  return static_cast<double>(s >> 11) * 0x1.0p-53;
}

TEST(SimdUlp, F64LogSinCosWithinBound) {
  // The double log and sin/cos behind the Gaussian sampler, against glibc
  // on the sampler's domains: log on [2^-53, 1), sin and cos on [0, 2π).
  struct Worst {
    std::int64_t ulp = 0;
    double at = 0;
    void note(double got, double want, double x) {
      const std::int64_t d = ulp_distance_f64(got, want);
      if (d > ulp) {
        ulp = d;
        at = x;
      }
    }
  } log_w, sin_w, cos_w;
  constexpr int kPoints = 1000000;
  std::uint64_t s = 12345;
  for (int i = 0; i < kPoints; ++i) {
    const double u = std::max(lcg_uniform(s), 0x1.0p-53);
    log_w.note(simd::log_f64_ref(u), std::log(u), u);
    const double x = simd::detail::kTwoPi * lcg_uniform(s);
    double sn, cs;
    simd::sincos_f64_ref(x, sn, cs);
    sin_w.note(sn, std::sin(x), x);
    cos_w.note(cs, std::cos(x), x);
  }
  for (int e = 1; e <= 53; ++e) {
    for (const double u : {std::ldexp(1.0, -e), 1.0 - std::ldexp(1.0, -e)}) {
      log_w.note(simd::log_f64_ref(u), std::log(u), u);
    }
  }
  // Subnormal arguments take the 2^54 scaling.
  for (const double u : {0x1.0p-1074, 0x1.8p-1030, 0x1.fffffp-1023}) {
    log_w.note(simd::log_f64_ref(u), std::log(u), u);
  }
  EXPECT_LE(log_w.ulp, simd::kF64UlpBound) << "log at " << log_w.at;
  EXPECT_LE(sin_w.ulp, simd::kF64UlpBound) << "sin at " << sin_w.at;
  EXPECT_LE(cos_w.ulp, simd::kF64UlpBound) << "cos at " << cos_w.at;
}

// ---------------------------------------------------------------------------
// Cross-tier bit-exactness
// ---------------------------------------------------------------------------

constexpr int kThreadSweep[] = {1, 4, 16};

/// Runs `compute` under every (tier, thread-count) combination and asserts
/// every result is bit-identical to the scalar/1-thread reference.
void expect_invariant(const char* what, Matrix (*compute)(std::uint32_t),
                      std::uint32_t seed) {
  TierGuard guard;
  ASSERT_TRUE(simd::set_simd_tier(simd::Tier::kScalar));
  set_num_threads(1);
  const Matrix ref = compute(seed);
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (!simd::tier_supported(tier)) continue;
    ASSERT_TRUE(simd::set_simd_tier(tier));
    for (int threads : kThreadSweep) {
      set_num_threads(threads);
      EXPECT_TRUE(bit_identical(ref, compute(seed)))
          << what << " tier=" << simd::tier_name(tier)
          << " threads=" << threads;
    }
  }
}

bool avx2_available() { return simd::tier_supported(simd::Tier::kAvx2); }

/// (rows, k, m) packed into expect_invariant's seed: 8 + 10 + 10 bits.
std::uint32_t pack_shape(int n, int k, int m) {
  return (static_cast<std::uint32_t>(n) << 20) |
         (static_cast<std::uint32_t>(k) << 10) | static_cast<std::uint32_t>(m);
}

void unpack_shape(std::uint32_t seed, int& n, int& k, int& m) {
  n = static_cast<int>(seed >> 20) & 0xff;
  k = static_cast<int>(seed >> 10) & 0x3ff;
  m = static_cast<int>(seed) & 0x3ff;
}

TEST(SimdCrossTier, Matmul) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 on this machine";
  // The avx2 kernel covers a row with ceil(m/8) vectors, the last masked
  // when 8 does not divide m, in balanced tiles of at most 12. Every m in
  // 1..104 (each m % 8, 1-13 vectors, 1-2 tiles) plus 200/400/856 (3, 5 and
  // 9 tiles); k = 1 and 21 stay in one kKC slab, 256 fills it, 257 starts a
  // second. k cycles per block of 8 m values and rows per m, so every m % 8
  // meets every k while the sweep stays small enough for the sanitizer jobs.
  constexpr int kKs[] = {1, 21, 256, 257};
  constexpr int kRows[] = {1, 7, 50};
  struct Ctx {
    static Matrix run(std::uint32_t seed) {
      int n, k, m;
      unpack_shape(seed, n, k, m);
      Matrix a(n, k), b(k, m);
      fill(a, seed * 2 + 1);
      fill(b, seed * 2 + 2);
      return matmul(a, b);
    }
  };
  for (int m = 1; m <= 104; ++m) {
    const int i = m - 1;
    expect_invariant("matmul", &Ctx::run,
                     pack_shape(kRows[i % 3], kKs[(i / 8) % 4], m));
  }
  expect_invariant("matmul", &Ctx::run, pack_shape(7, 257, 200));
  expect_invariant("matmul", &Ctx::run, pack_shape(50, 21, 400));
  expect_invariant("matmul", &Ctx::run, pack_shape(1, 256, 856));
}

TEST(SimdCrossTier, AffineZeroSkipKeepsNonFiniteRowsOut) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 on this machine";
  // fill() makes only finite values and +0.0. Here the bias is -0.0, x has
  // +-0.0 entries, and the w rows those zeros select hold Inf/NaN: the
  // ascending-k zero-skip must keep those rows out of every output (0 * Inf
  // would be NaN) in both tiers, and an all-zero x row must leave its -0.0
  // bias untouched (-0.0 + 0.0 would be +0.0). The Inf/NaN rows span every
  // column, the masked last vector's lanes included (m % 8 != 0).
  struct Ctx {
    static Matrix run(std::uint32_t seed) {
      int n, k, m;
      unpack_shape(seed, n, k, m);
      const float inf = std::numeric_limits<float>::infinity();
      const float nan = std::numeric_limits<float>::quiet_NaN();
      Matrix x(n, k), w(k, m), b(1, m, -0.0f);
      fill(x, seed + 1);
      fill(w, seed + 2);
      const int zero_cols[] = {0, k / 2, k - 1};
      for (int r = 0; r < n; ++r) {
        for (int c : zero_cols) x.at(r, c) = (r + c) % 2 ? -0.0f : 0.0f;
      }
      for (int c = 0; c < k; ++c) x.at(1, c) = c % 2 ? -0.0f : 0.0f;
      for (int c : zero_cols) {
        for (int j = 0; j < m; ++j) {
          w.at(c, j) = j % 3 == 0 ? nan : (j % 3 == 1 ? inf : -inf);
        }
      }
      return affine(x, w, b);
    }
  };
  for (const std::uint32_t shape :
       {pack_shape(7, 21, 30), pack_shape(9, 257, 100),
        pack_shape(3, 50, 21)}) {
    expect_invariant("affine", &Ctx::run, shape);
    TierGuard guard;
    for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
      ASSERT_TRUE(simd::set_simd_tier(tier));
      const Matrix y = Ctx::run(shape);
      for (int r = 0; r < y.rows(); ++r) {
        for (int j = 0; j < y.cols(); ++j) {
          ASSERT_TRUE(std::isfinite(y.at(r, j)))
              << simd::tier_name(tier) << " (" << r << ", " << j << ")";
        }
      }
      for (int j = 0; j < y.cols(); ++j) {
        EXPECT_EQ(float_bits(y.at(1, j)), float_bits(-0.0f))
            << simd::tier_name(tier) << " column " << j;
      }
    }
  }
}

TEST(SimdCrossTier, AffineAndLstmGates) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 on this machine";
  struct Ctx {
    static Matrix run_affine(std::uint32_t seed) {
      Matrix x(9, 37), w(37, 41), b(1, 41);
      fill(x, seed + 1);
      fill(w, seed + 2);
      fill(b, seed + 3);
      return affine(x, w, b);
    }
    static Matrix run_lstm(std::uint32_t seed) {
      const int batch = 6, xc = 13, hc = 10;
      Matrix x(batch, xc), wx(xc, 4 * hc), h(batch, hc), wh(hc, 4 * hc),
          b(1, 4 * hc);
      fill(x, seed + 1);
      fill(wx, seed + 2);
      fill(h, seed + 3);
      fill(wh, seed + 4);
      fill(b, seed + 5);
      return lstm_gates(x, wx, h, wh, b);
    }
  };
  expect_invariant("affine", &Ctx::run_affine, 11);
  expect_invariant("lstm_gates", &Ctx::run_lstm, 22);
}

TEST(SimdCrossTier, ElementwiseAllFns) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 on this machine";
  // Unary fns through map_ew; lengths straddle the 8-lane boundary.
  const simd::EwFn unary[] = {
      simd::EwFn::kNeg,     simd::EwFn::kRelu, simd::EwFn::kAbs,
      simd::EwFn::kTanh,    simd::EwFn::kSigmoid, simd::EwFn::kExp,
      simd::EwFn::kLog,     simd::EwFn::kSqrt, simd::EwFn::kSquare,
      simd::EwFn::kRecip,   simd::EwFn::kStep, simd::EwFn::kSign};
  for (simd::EwFn fn : unary) {
    struct Ctx {
      static Matrix run(std::uint32_t seed) {
        const simd::EwFn f = static_cast<simd::EwFn>(seed >> 16);
        Matrix a(3, (seed & 0xff) | 1);
        fill(a, seed);
        return map_ew(f, a);
      }
    };
    for (int cols : {1, 7, 8, 9, 31, 64, 100}) {
      expect_invariant("map_ew",
                       &Ctx::run,
                       (static_cast<std::uint32_t>(fn) << 16) |
                           static_cast<std::uint32_t>(cols));
    }
  }
  // Binary fns through the Matrix entry points.
  struct Bin {
    static Matrix run_add(std::uint32_t s) { return bin(s, 0); }
    static Matrix run_sub(std::uint32_t s) { return bin(s, 1); }
    static Matrix run_mul(std::uint32_t s) { return bin(s, 2); }
    static Matrix run_div(std::uint32_t s) { return bin(s, 3); }
    static Matrix bin(std::uint32_t seed, int which) {
      Matrix a(5, 53), b(5, 53);
      fill(a, seed + 1);
      fill(b, seed + 2);
      switch (which) {
        case 0: return add(a, b);
        case 1: return sub(a, b);
        case 2: return mul(a, b);
        default: return div(a, b);
      }
    }
  };
  expect_invariant("add", &Bin::run_add, 31);
  expect_invariant("sub", &Bin::run_sub, 32);
  expect_invariant("mul", &Bin::run_mul, 33);
  expect_invariant("div", &Bin::run_div, 34);
}

TEST(SimdCrossTier, BroadcastsAndReductions) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 on this machine";
  struct Ctx {
    static Matrix run_add_rowvec(std::uint32_t s) {
      Matrix x(7, 61), b(1, 61);
      fill(x, s + 1);
      fill(b, s + 2);
      return add_rowvec(x, b);
    }
    static Matrix run_mul_colvec(std::uint32_t s) {
      Matrix x(7, 61), v(7, 1);
      fill(x, s + 1);
      fill(v, s + 2);
      return mul_colvec(x, v);
    }
    static Matrix run_mul_rowvec(std::uint32_t s) {
      Matrix x(7, 61), m(1, 61);
      fill(x, s + 1);
      fill(m, s + 2);
      return mul_rowvec(x, m);
    }
    static Matrix run_scalars(std::uint32_t s) {
      Matrix x(4, 77);
      fill(x, s);
      return mul_scalar(add_scalar(x, 0.37f), -1.25f);
    }
    static Matrix run_row_sum(std::uint32_t s) {
      Matrix x(9, static_cast<int>(s & 0xff) | 1);
      fill(x, s);
      return row_sum(x);
    }
    static Matrix run_col_sum(std::uint32_t s) {
      Matrix x(33, 29);
      fill(x, s);
      return col_sum(x);
    }
  };
  expect_invariant("add_rowvec", &Ctx::run_add_rowvec, 41);
  expect_invariant("mul_colvec", &Ctx::run_mul_colvec, 42);
  expect_invariant("mul_rowvec", &Ctx::run_mul_rowvec, 43);
  expect_invariant("add/mul_scalar", &Ctx::run_scalars, 44);
  for (int cols : {1, 5, 8, 9, 31, 64, 100}) {
    expect_invariant("row_sum", &Ctx::run_row_sum,
                     0x1000u | static_cast<std::uint32_t>(cols));
  }
  expect_invariant("col_sum", &Ctx::run_col_sum, 45);
}

/// fill() plus the values a move must carry bit for bit: quiet and
/// signaling NaNs with payloads (both signs), -0.0, +-Inf and subnormals,
/// scattered so they land in 8x8 blocks and in the scalar edges alike.
void fill_edge_values(Matrix& m, std::uint32_t seed) {
  fill(m, seed);
  const float specials[] = {
      from_bits(0x7fc00001u), from_bits(0xffc0beefu), from_bits(0x7f800123u),
      from_bits(0xff812345u), -0.0f, std::numeric_limits<float>::infinity(),
      -std::numeric_limits<float>::infinity(), from_bits(0x00000001u),
      from_bits(0x807fffffu), from_bits(0x00400000u)};
  constexpr std::size_t kSpecials = sizeof(specials) / sizeof(specials[0]);
  std::span<float> flat = m.flat();
  for (std::size_t i = seed % 7; i < flat.size(); i += 7) {
    flat[i] = specials[(i / 7) % kSpecials];
  }
}

TEST(SimdCrossTier, Transpose) {
  // Every (rows % 8, cols % 8) pair with 0-2 whole blocks (1..17, 23), one
  // and two cache tiles (64, 65), the training shapes, and empty operands.
  // Each result must equal the scalar tier's byte for byte and be the exact
  // permutation out[j][i] == a[i][j] at DG_THREADS 1, 4 and 16, whose
  // partitions start mid-block. Matrix storage is an exact-size heap
  // vector, so the sanitizer jobs see any load or store past either buffer.
  TierGuard guard;
  std::vector<std::pair<int, int>> shapes;
  std::vector<int> sides;
  for (int s = 1; s <= 17; ++s) sides.push_back(s);
  for (int s : {23, 64, 65}) sides.push_back(s);
  for (int r : sides) {
    for (int c : sides) shapes.emplace_back(r, c);
  }
  const std::pair<int, int> training_and_empty[] = {
      {7, 200}, {50, 856}, {200, 200}, {200, 260},
      {856, 200}, {0, 5}, {5, 0}, {0, 0}};
  for (const auto& rc : training_and_empty) shapes.push_back(rc);
  for (const auto& [rows, cols] : shapes) {
    Matrix a(rows, cols);
    fill_edge_values(a, static_cast<std::uint32_t>(rows * 1000 + cols));
    ASSERT_TRUE(simd::set_simd_tier(simd::Tier::kScalar));
    set_num_threads(1);
    const Matrix ref = transpose(a);
    ASSERT_EQ(ref.rows(), cols);
    ASSERT_EQ(ref.cols(), rows);
    for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
      if (!simd::tier_supported(tier)) continue;
      ASSERT_TRUE(simd::set_simd_tier(tier));
      for (int threads : kThreadSweep) {
        set_num_threads(threads);
        const Matrix t = transpose(a);
        SCOPED_TRACE(::testing::Message()
                     << "[" << rows << "," << cols
                     << "] tier=" << simd::tier_name(tier)
                     << " threads=" << threads);
        ASSERT_TRUE(t.same_shape(ref));
        if (t.size() > 0) {
          EXPECT_EQ(
              std::memcmp(t.data(), ref.data(), t.size() * sizeof(float)), 0);
        }
        for (int i = 0; i < rows; ++i) {
          for (int j = 0; j < cols; ++j) {
            ASSERT_EQ(float_bits(t.at(j, i)), float_bits(a.at(i, j)))
                << "out[" << j << "][" << i << "]";
          }
        }
      }
    }
  }
}

/// fill() scaled by 2^-63: products of two elements fall around the
/// smallest normal float, so sums underflow to subnormals, or under
/// FlushDenormalsGuard flush to ±0 (a negative one to -0), between the
/// zero-skipped terms.
void fill_tiny(Matrix& m, std::uint32_t seed) {
  fill(m, seed);
  for (float& v : m.flat()) v *= 0x1p-63f;
}

TEST(SimdCrossTier, TransposedProductsAreTheTransposeCompositions) {
  // matmul_nt(a, b) is matmul(a, transpose(b)) and matmul_tn(a, b) is
  // matmul(transpose(a), b), bit for bit, on each tier with and without
  // FlushDenormalsGuard (at 4 threads; Parallel.* sweeps thread counts). The operands carry +-0 (the
  // zero-skip), subnormals, +-inf and NaNs with payloads, or tiny values
  // whose sums underflow. The shapes cover the avx2 tile's masked tail
  // (m % 8 != 0), one to 13 vectors per tile, a second kKC slab (k 257) and
  // the backward rules' training shapes.
  TierGuard guard;
  struct Dims3 {
    int n, k, m;
  };
  const Dims3 shapes[] = {{1, 1, 1},    {3, 8, 104},   {5, 21, 13},
                          {9, 257, 30}, {7, 200, 200}, {50, 400, 21},
                          {50, 100, 400}, {2, 13, 856}};
  using Fill = void (*)(Matrix&, std::uint32_t);
  const std::pair<const char*, Fill> fills[] = {{"edge", fill_edge_values},
                                                {"tiny", fill_tiny}};
  for (simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (!simd::tier_supported(tier)) continue;
    ASSERT_TRUE(simd::set_simd_tier(tier));
    for (const bool flush : {false, true}) {
      std::optional<FlushDenormalsGuard> ftz;
      if (flush) ftz.emplace();
      set_num_threads(4);
      for (const auto& [what, fill_fn] : fills) {
        for (const Dims3& s : shapes) {
          SCOPED_TRACE(::testing::Message()
                       << simd::tier_name(tier) << (flush ? " ftz " : " ")
                       << what << " [" << s.n << "," << s.k << "," << s.m
                       << "]");
          const auto seed =
              static_cast<std::uint32_t>(s.n * 1000003 + s.k * 1009 + s.m);
          Matrix a(s.n, s.k), w(s.m, s.k), g(s.n, s.m);
          fill_fn(a, seed);
          fill_fn(w, seed + 1);
          fill_fn(g, seed + 2);
          EXPECT_TRUE(bit_identical(matmul_nt(a, w), matmul(a, transpose(w))))
              << "matmul_nt";
          EXPECT_TRUE(bit_identical(matmul_tn(a, g), matmul(transpose(a), g)))
              << "matmul_tn";
        }
      }
    }
  }
}

TEST(SimdCrossTier, SoftmaxRowsViaAutograd) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 on this machine";
  // softmax_rows composes neg_row_max + exp + row_sum + recip broadcast:
  // the whole chain must stay bit-identical across tiers.
  struct Ctx {
    static Matrix run(std::uint32_t s) {
      Matrix x(11, static_cast<int>(s & 0xff) | 1);
      fill(x, s);
      return softmax_rows(Var(x, /*requires_grad=*/false)).value();
    }
  };
  for (int cols : {1, 3, 8, 13, 40, 100}) {
    expect_invariant("softmax_rows", &Ctx::run,
                     0x2000u | static_cast<std::uint32_t>(cols));
  }
}

TEST(SimdCrossTier, EdgeValuesThroughElementwise) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 on this machine";
  // NaN / infinities / signed zero / saturation arguments must take the
  // same path in both tiers (blend patch-ups in the vector code).
  TierGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Matrix edge = Matrix::row({nan, inf, -inf, 0.0f, -0.0f, 89.0f, -89.0f,
                             87.9f, -87.0f, 1e-30f, -1e-30f, 3.0f, -3.0f,
                             0.624f, 0.626f, -0.625f, 700.0f});
  for (simd::EwFn fn :
       {simd::EwFn::kTanh, simd::EwFn::kSigmoid, simd::EwFn::kExp,
        simd::EwFn::kRelu, simd::EwFn::kNeg, simd::EwFn::kAbs,
        simd::EwFn::kSqrt, simd::EwFn::kRecip, simd::EwFn::kSquare,
        simd::EwFn::kStep, simd::EwFn::kSign}) {
    ASSERT_TRUE(simd::set_simd_tier(simd::Tier::kScalar));
    const Matrix want = map_ew(fn, edge);
    ASSERT_TRUE(simd::set_simd_tier(simd::Tier::kAvx2));
    EXPECT_TRUE(bit_identical(want, map_ew(fn, edge)))
        << "fn=" << static_cast<int>(fn);
  }
}

TEST(SimdCrossTier, BoxMuller) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 tier to compare";
  // The avx2 tier's 4-pair vectors and scalar tail write the scalar tier's
  // bytes, out of place and in place, on random pairs and on the pairs
  // whose angles land on multiples of π/4 (u2 = k/8), where the reduction
  // cancels most, with u1 at the ends of (0, 1), on powers of two and on
  // subnormals (the log's 2^54 scaling).
  TierGuard guard;
  std::vector<double> u;
  std::uint64_t s = 777;
  for (int i = 0; i < 100000; ++i) {
    u.push_back(std::max(lcg_uniform(s), 0x1.0p-53));
    u.push_back(lcg_uniform(s));
  }
  std::vector<double> u1s = {0x1.0p-53, 1.0 - 0x1.0p-53, 0x1.0p-1074,
                             0x1.8p-1030};
  for (int e = 1; e <= 52; ++e) u1s.push_back(std::ldexp(1.0, -e));
  std::vector<double> u2s = {0.0, 1.0 - 0x1.0p-53};
  for (int k = 1; k <= 7; ++k) u2s.push_back(k / 8.0);
  for (double u1 : u1s) {
    for (double u2 : u2s) {
      u.push_back(u1);
      u.push_back(u2);
    }
  }
  const auto pairs = static_cast<std::int64_t>(u.size() / 2);
  auto run = [&](simd::Tier tier, const double* in, std::int64_t n,
                 bool in_place) {
    EXPECT_TRUE(simd::set_simd_tier(tier));
    std::vector<double> z(in, in + 2 * n);
    simd::kernels().box_muller(in_place ? z.data() : in, z.data(), n);
    return z;
  };
  auto same = [](const std::vector<double>& a, const std::vector<double>& b) {
    return a.size() == b.size() &&
           (a.empty() ||
            std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
  };
  const std::vector<double> ref =
      run(simd::Tier::kScalar, u.data(), pairs, false);
  for (bool in_place : {false, true}) {
    EXPECT_TRUE(same(run(simd::Tier::kAvx2, u.data(), pairs, in_place), ref))
        << "in_place=" << in_place;
  }
  for (std::int64_t i = 0; i < pairs; i += 997) {
    double z[2];
    simd::box_muller_ref(&u[static_cast<std::size_t>(2 * i)], z);
    const double* want = &ref[static_cast<std::size_t>(2 * i)];
    EXPECT_EQ(std::memcmp(z, want, sizeof(z)), 0) << "pair " << i;
  }
  // Lengths 0..9 from an offset start: every tail length, and no write
  // past the last pair (the vectors hold exactly 2n doubles).
  const std::size_t edge0 = u.size() - 2 * u1s.size() * u2s.size();
  for (std::int64_t n = 0; n <= 9; ++n) {
    EXPECT_TRUE(same(run(simd::Tier::kAvx2, &u[edge0 + 2], n, false),
                     run(simd::Tier::kScalar, &u[edge0 + 2], n, false)))
        << "pairs=" << n;
  }
}

TEST(SimdCrossTier, Adam) {
  if (!avx2_available()) GTEST_SKIP() << "no avx2 tier to compare";
  // One update of every length 0..17 and of train-gcut-dp's 296,002 critic
  // parameters, with ±0, ±inf, NaN and subnormal gradients among random
  // ones, with and without flushed subnormals: the avx2 tier writes the
  // scalar tier's p, m and v bytes.
  TierGuard guard;
  const float inf = std::numeric_limits<float>::infinity();
  const float specials[] = {0.0f,  -0.0f, inf,     -inf,
                            std::numeric_limits<float>::quiet_NaN(),
                            1e-40f, -3e-42f, from_bits(0x00000001u)};
  const simd::AdamCoeffs coeffs{0.9f, 0.999f, 1e-3f, 1e-8f,
                                1.0f - 0.9f * 0.9f * 0.9f,
                                1.0f - 0.999f * 0.999f * 0.999f};
  std::vector<std::int64_t> lengths;
  for (std::int64_t n = 0; n <= 17; ++n) lengths.push_back(n);
  lengths.push_back(296002);
  for (bool flush : {false, true}) {
    std::optional<FlushDenormalsGuard> ftz;
    if (flush) ftz.emplace();
    for (std::int64_t n : lengths) {
      Matrix p(1, static_cast<int>(n)), m(1, static_cast<int>(n)),
          v(1, static_cast<int>(n)), g(1, static_cast<int>(n));
      fill(p, static_cast<std::uint32_t>(n) + 1);
      fill(m, static_cast<std::uint32_t>(n) + 2);
      fill(v, static_cast<std::uint32_t>(n) + 3);
      for (float& x : v.flat()) x = std::fabs(x);
      fill(g, static_cast<std::uint32_t>(n) + 4);
      for (std::size_t i = 0; i < g.size(); i += 3) {
        g.data()[i] = specials[(i / 3) % std::size(specials)];
      }
      Matrix want[3] = {p, m, v}, got[3] = {p, m, v};
      ASSERT_TRUE(simd::set_simd_tier(simd::Tier::kScalar));
      simd::kernels().adam(want[0].data(), want[1].data(), want[2].data(),
                           g.data(), n, coeffs);
      ASSERT_TRUE(simd::set_simd_tier(simd::Tier::kAvx2));
      simd::kernels().adam(got[0].data(), got[1].data(), got[2].data(),
                           g.data(), n, coeffs);
      for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(bit_identical(want[k], got[k]))
            << "array " << k << " n=" << n << " flush=" << flush;
      }
    }
  }
}

}  // namespace
}  // namespace dg::nn
