// SIMD microkernel tier: runtime-dispatched inner kernels under the threaded
// PR-2 kernels (ROADMAP item 2).
//
// Two tiers ship in every binary:
//   scalar  portable C++ compiled with -ffp-contract=off — the bit-exactness
//           reference every other tier is pinned against.
//   avx2    8-wide AVX2 intrinsics (x86-64 builds), selected at runtime via
//           CPUID so a DG_NATIVE_ARCH=OFF binary still vectorizes on capable
//           hosts and still runs on hosts without AVX2.
//
// Determinism contract (extends src/nn/parallel.h): for every kernel in the
// table, the avx2 tier is bit-identical to the scalar tier on all inputs.
//   - Pure mul/add kernels (the three products, the arithmetic EwFns, the
//     broadcast family) use plain _mm256_mul_ps/_mm256_add_ps — never FMA —
//     in the exact accumulation order of the scalar loops, so equality is
//     by construction. The scalar kernels live in a TU compiled with
//     -ffp-contract=off so the compiler cannot re-fuse them either.
//   - Transcendentals (exp/tanh/sigmoid) are a shared polynomial
//     approximation: exp_ref/tanh_ref/sigmoid_ref below ARE the semantics of
//     the op in both tiers; the avx2 forms evaluate the same constants in the
//     same order lane-wise. Accuracy vs libm is ULP-bounded, with the bound
//     declared in each op's row (OpDef::ulp_bound in nn/ops.h).
//   - Reductions (row_sum, neg_row_max) use a fixed 8-lane-blocked
//     association, implemented identically in both tiers, so the vector form
//     needs no reassociation. Lane partials combine in ascending lane order,
//     then the tail sequentially — independent of tier and thread count.
//   - transpose does no arithmetic at all: every float is loaded once and
//     stored once, through moves and lane shuffles that never inspect a
//     value, so every tier writes the same bytes (NaN payloads included)
//     by construction.
//   - box_muller (the Gaussian sampler's transform) and log run in double
//     precision through in-tree, branch-free forms of fdlibm's log and
//     sin/cos: no libm, so the bytes do not depend on which variant the
//     host's glibc picks. Every special case is computed and selected, so
//     the avx2 tier (4 doubles per vector) runs the scalar tier's
//     operations lane for lane.
//   - adam is Adam's per-element update. Its mul, add, div and sqrt are
//     correctly rounded IEEE operations, done in the scalar loop's order,
//     so the 8-wide form writes the same bytes.
//
// Tier selection: DG_SIMD=scalar|avx2|auto (auto = CPUID pick, the default).
// Requesting avx2 on a host without it falls back to scalar; the resolved
// tier and why are reported by simd_tier_source() (mirrors num_threads_source
// in parallel.h) and surfaced by `dgcli check`.
#ifndef DG_NN_SIMD_VEC_H_
#define DG_NN_SIMD_VEC_H_

#include <cstdint>
#include <numbers>

namespace dg::nn::simd {

enum class Tier : int { kScalar = 0, kAvx2 = 1 };

/// Elementwise kernel selector of the op table (nn/ops.h): the autograd
/// forward and the tape executor both run a row's EwFn, so the two paths
/// dispatch into the same kernels and stay bit-identical by construction.
enum class EwFn : std::uint8_t {
  kAdd = 0,   // d = a + b
  kSub,       // d = a - b
  kMul,       // d = a * b
  kDiv,       // d = a / b
  kNeg,       // d = a * -1.0f
  kRelu,      // d = a > 0 ? a : 0
  kAbs,       // d = |a|
  kTanh,      // d = tanh_ref(a)
  kSigmoid,   // d = sigmoid_ref(a)
  kExp,       // d = exp_ref(a)
  kLog,       // d = log_ref(a) (the double log, rounded once to float)
  kSqrt,      // d = sqrt(a)  (IEEE-exact, so vectorization is bit-safe)
  kSquare,    // d = a * a
  kRecip,     // d = 1 / a
  kStep,      // d = a > 0 ? 1 : 0, relu's backward mask (NaN -> 0)
  kSign,      // d = a >= 0 ? 1 : -1, abs's backward mask (-0 -> 1, NaN -> -1)
};

/// Per-call constants of one Adam sweep (nn/optim.h). Each element is
///   m = beta1·m + (1 − beta1)·g
///   v = beta2·v + (1 − beta2)·g·g
///   p −= lr·(m / bc1) / (sqrt(v / bc2) + eps)
/// with bc1 = 1 − beta1ᵗ and bc2 = 1 − beta2ᵗ, the bias corrections.
struct AdamCoeffs {
  float beta1;
  float beta2;
  float lr;
  float eps;
  float bc1;
  float bc2;
};

/// The per-tier kernel table. One relaxed atomic pointer load reaches the
/// active tier; pointers, not virtuals, so the scalar tier costs nothing
/// extra when selected. All kernels tolerate unaligned data and arbitrary
/// lengths (vector body + scalar-reference tail, or a masked last vector).
struct KernelTable {
  /// out[r0..r1) += a[r0..r1) * b for row-major a [n,k], b [k,m]: ascending-k
  /// accumulation per output element with the scalar tier's zero-skip, k
  /// blocked in kKC slabs. The avx2 tier covers a row with ceil(m/8) vectors
  /// (the last masked when 8 does not divide m) in balanced tiles of at most
  /// 12 accumulators. Bit-identical across tiers and thread counts.
  void (*matmul_acc_rows)(const float* a, int k, const float* b, int m,
                          float* out, std::int64_t r0, std::int64_t r1);
  /// out[r0..r1) += a[r0..r1) * bᵀ for row-major a [n,k] and b [m,k]: each
  /// output element runs matmul_acc_rows's sequence on bᵀ (ascending k,
  /// zero-skip on a's element, a·b then acc + p), so the bytes are those of
  /// a * transpose(b). The scalar tier reads bᵀ in place; the avx2 tier
  /// packs the panel of bᵀ each matmul tile reads, 64 k-rows at a time,
  /// into a buffer on the stack and runs matmul's tile on it.
  void (*matmul_nt_acc_rows)(const float* a, int k, const float* b, int m,
                             float* out, std::int64_t r0, std::int64_t r1);
  /// out[r0..r1) += aᵀ[r0..r1) * b for row-major a [n,k], b [n,m] and out
  /// [k,m]: row c of aᵀ is column c of a, read in place, and each output
  /// element runs matmul_acc_rows's sequence on it, so the bytes are those
  /// of transpose(a) * b. Both tiers run matmul_acc_rows's loops and tiles.
  void (*matmul_tn_acc_rows)(const float* a, int n, int k, const float* b,
                             int m, float* out, std::int64_t r0,
                             std::int64_t r1);
  /// d[i] = fn(a[i]) or fn(a[i], b[i]); b ignored for unary fns. d may alias
  /// a or b.
  void (*apply_ew)(EwFn fn, const float* a, const float* b, float* d,
                   std::int64_t len);
  /// d[i] = a[i] + s (add_scalar) and d[i] = a[i] * s (mul_scalar); d may
  /// alias a.
  void (*add_scalar)(const float* a, float s, float* d, std::int64_t len);
  void (*mul_scalar)(const float* a, float s, float* d, std::int64_t len);
  /// dst[i] = sum(row i) for rows [r0, r1) of a [*, cols], 8-lane-blocked
  /// association (see vec_scalar.h for the exact order).
  void (*row_sum)(const float* a, int cols, float* dst, std::int64_t r0,
                  std::int64_t r1);
  /// dst[i] = -max(row i): the softmax shift, shared by autograd softmax_rows
  /// and the tape's kNegRowMax micro-op so both stay bit-identical.
  void (*neg_row_max)(const float* a, int cols, float* dst, std::int64_t r0,
                      std::int64_t r1);
  /// Rows [j0, j1) of out = aᵀ for row-major a [rows, cols] and out
  /// [cols, rows]: out[j][i] = a[i][j], read from columns [j0, j1) of a.
  /// The scalar tier is the 64-blocked copy loop; the avx2 tier moves 8x8
  /// register blocks inside cache tiles, with scalar edges past the last
  /// multiple of 8. Pure data movement, so the bytes match on every tier.
  void (*transpose)(const float* a, int rows, int cols, float* out,
                    std::int64_t j0, std::int64_t j1);
  /// Box-Muller on `pairs` uniform pairs (u[2i], u[2i+1]) = (u1, u2), u1 in
  /// (0, 1] and u2 in [0, 1): z[2i] = r·cos θ and z[2i+1] = r·sin θ for
  /// r = sqrt(−2·log u1) and θ = 2π·u2, with the double log and sin/cos
  /// below. z may alias u. The avx2 tier transforms 4 pairs per step.
  void (*box_muller)(const double* u, double* z, std::int64_t pairs);
  /// One Adam update (see AdamCoeffs) of len elements, in place on the
  /// parameters p and the moments m and v, from the gradient g.
  void (*adam)(float* p, float* m, float* v, const float* g,
               std::int64_t len, const AdamCoeffs& c);
};

/// Kernel table of the active tier (one relaxed atomic load).
const KernelTable& kernels();

/// The resolved tier (env override, else CPUID).
Tier active_tier();

/// Why the active tier was chosen: "DG_SIMD", "cpuid", "set_simd_tier",
/// "DG_SIMD (no avx2; fell back to scalar)", or "built without avx2".
const char* simd_tier_source();

/// True if `t` can execute on this host (scalar always; avx2 iff the CPU has
/// AVX2 and the binary built the avx2 TU).
bool tier_supported(Tier t);

/// Force a tier (tests, benchmarks). Returns false and leaves the tier
/// unchanged if unsupported. Not thread-safe against in-flight kernels —
/// call between parallel regions, like set_num_threads.
bool set_simd_tier(Tier t);

/// "scalar" / "avx2".
const char* tier_name(Tier t);

/// Parse a DG_SIMD value ("scalar", "avx2", "auto", ""). Returns false for
/// anything else; `auto_tier` is set true for auto/empty.
bool parse_tier(const char* s, Tier& t, bool& auto_tier);

// ---- shared transcendental references -------------------------------------
// Defined in kernels_scalar.cpp (the -ffp-contract=off TU) and deliberately
// NOT inline: every caller in every TU gets the same bits regardless of that
// TU's optimization flags. These are the op-level semantics of exp/tanh/
// sigmoid/log project-wide (EwFn::kExp/kTanh/kSigmoid/kLog evaluate them);
// the avx2 tier evaluates the same operations lane-wise. ULP bounds vs libm
// are declared in the ops' rows (nn/ops.h) and pinned by
// tests/nn/test_simd.cpp.
float exp_ref(float x);
float tanh_ref(float x);
float sigmoid_ref(float x);
/// log_f64_ref(x) rounded once to float: 0 -> -inf, negative -> NaN.
float log_ref(float x);

/// The double-precision log and sin/cos behind box_muller and log_ref:
/// fdlibm's polynomials and reduction, without branches. sincos_f64_ref
/// takes x in [0, 2π], the Box-Muller angle's range.
double log_f64_ref(double x);
void sincos_f64_ref(double x, double& sin_x, double& cos_x);
/// Most ULP log_f64_ref and sincos_f64_ref may differ from glibc's log, sin
/// and cos on their domains (tests/nn/test_simd.cpp sweeps against it).
inline constexpr int kF64UlpBound = 1;

/// One Box-Muller pair (u1, u2) -> (r·cos θ, r·sin θ) on the scalar tier's
/// code path: what Rng::normal() draws, and what every tier's box_muller
/// computes per pair. z may alias u.
void box_muller_ref(const double* u, double* z);

namespace detail {

// Cephes-style expf reduction/polynomial constants, shared verbatim by the
// scalar and avx2 forms. exp(x) = 2^n * exp(r), n = round(x * log2e),
// r = x - n*ln2 split Cody-Waite style into a high and low part.
inline constexpr float kExpHi = 88.3762626647950f;    // exp(x>hi) = inf
inline constexpr float kExpLo = -87.3365478515625f;   // exp(x<lo) = 0
inline constexpr float kLog2e = 1.44269504088896341f;
inline constexpr float kLn2Hi = 0.693359375f;
inline constexpr float kLn2Lo = -2.12194440e-4f;
inline constexpr float kExpP0 = 1.9875691500e-4f;
inline constexpr float kExpP1 = 1.3981999507e-3f;
inline constexpr float kExpP2 = 8.3334519073e-3f;
inline constexpr float kExpP3 = 4.1665795894e-2f;
inline constexpr float kExpP4 = 1.6666665459e-1f;
inline constexpr float kExpP5 = 5.0000001201e-1f;

// Cephes tanhf: odd polynomial below the cutoff, exp-based tail above.
inline constexpr float kTanhCutoff = 0.625f;
inline constexpr float kTanhP0 = -5.70498872745e-3f;
inline constexpr float kTanhP1 = 2.06390887954e-2f;
inline constexpr float kTanhP2 = -5.37397155531e-2f;
inline constexpr float kTanhP3 = 1.33314422036e-1f;
inline constexpr float kTanhP4 = -3.33332819422e-1f;

// fdlibm e_log.c: log(x) = k·ln2 + log(1 + f) with 1 + f in [√2/2, √2),
// log(1 + f) from s = f / (2 + f) and a degree-14 polynomial in s.
inline constexpr double kTwo54 = 0x1p54;
inline constexpr double kLn2HiD = 6.93147180369123816490e-01;
inline constexpr double kLn2LoD = 1.90821492927058770002e-10;
inline constexpr double kLg1 = 6.666666666666735130e-01;
inline constexpr double kLg2 = 3.999999999940941908e-01;
inline constexpr double kLg3 = 2.857142874366239149e-01;
inline constexpr double kLg4 = 2.222219843214978396e-01;
inline constexpr double kLg5 = 1.818357216161805012e-01;
inline constexpr double kLg6 = 1.531383769920937332e-01;
inline constexpr double kLg7 = 1.479819860511658591e-01;

// fdlibm e_rem_pio2.c: x = n·π/2 + y, π/2 split into a 33-bit head pio2_1
// (n·pio2_1 is exact for small n), a 33-bit pio2_2 and its tail pio2_2t.
inline constexpr double kTwoPi = 2.0 * std::numbers::pi;
inline constexpr double kInvPio2 = 6.36619772367581382433e-01;
inline constexpr double kPio2_1 = 1.57079632673412561417e+00;
inline constexpr double kPio2_2 = 6.07710050630396597660e-11;
inline constexpr double kPio2_2t = 2.02226624879595063154e-21;

// fdlibm k_sin.c / k_cos.c on |y| <= π/4.
inline constexpr double kS1 = -1.66666666666666324348e-01;
inline constexpr double kS2 = 8.33333333332248946124e-03;
inline constexpr double kS3 = -1.98412698298579493134e-04;
inline constexpr double kS4 = 2.75573137070700676789e-06;
inline constexpr double kS5 = -2.50507602534068634195e-08;
inline constexpr double kS6 = 1.58969099521155010221e-10;
inline constexpr double kC1 = 4.16666666666666019037e-02;
inline constexpr double kC2 = -1.38888888888741095749e-03;
inline constexpr double kC3 = 2.48015872894767294178e-05;
inline constexpr double kC4 = -2.75573143513906633035e-07;
inline constexpr double kC5 = 2.08757232129817482790e-09;
inline constexpr double kC6 = -1.13596475577881948265e-11;
// k_cos.c's thresholds on |y|'s high word, as doubles: below 0x3fd33333
// (~0.3) the correction qx is 0, above 0x3fe90000 (0.78125) it is 0.28125,
// between them it is |y|/4 cut to its high word.
inline constexpr double kCosQxLo = 0x1.33333p-2;
inline constexpr double kCosQxHi = 0x1.90000ffffffffp-1;

}  // namespace detail

}  // namespace dg::nn::simd

#endif  // DG_NN_SIMD_VEC_H_
