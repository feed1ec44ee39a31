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
//   - Pure mul/add kernels (matmul_acc_rows, the arithmetic EwFns, the
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
//
// Tier selection: DG_SIMD=scalar|avx2|auto (auto = CPUID pick, the default).
// Requesting avx2 on a host without it falls back to scalar; the resolved
// tier and why are reported by simd_tier_source() (mirrors num_threads_source
// in parallel.h) and surfaced by `dgcli check`.
#ifndef DG_NN_SIMD_VEC_H_
#define DG_NN_SIMD_VEC_H_

#include <cstdint>

namespace dg::nn::simd {

enum class Tier : int { kScalar = 0, kAvx2 = 1 };

/// Elementwise micro-op selector shared by nn/matrix.cpp and the tape
/// executor's fused-region interpreter — one enum so both paths dispatch into
/// the same kernels and stay bit-identical by construction.
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
  kLog,       // d = log(a)   (libm in both tiers; never vectorized)
  kSqrt,      // d = sqrt(a)  (IEEE-exact, so vectorization is bit-safe)
  kSquare,    // d = a * a
  kRecip,     // d = 1 / a
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
  /// d[i] = fn(a[i]) or fn(a[i], b[i]); b ignored for unary fns. d may alias
  /// a or b.
  void (*apply_ew)(EwFn fn, const float* a, const float* b, float* d,
                   std::int64_t len);
  /// d[i] = a[i] + s / a[i] * s; d may alias a.
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
// sigmoid project-wide (EwFn::kExp/kTanh/kSigmoid evaluate them); the avx2
// tier evaluates the same polynomial lane-wise. ULP bounds vs libm are
// declared in the ops' rows (nn/ops.h) and pinned by tests/nn/test_simd.cpp.
float exp_ref(float x);
float tanh_ref(float x);
float sigmoid_ref(float x);

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

}  // namespace detail

}  // namespace dg::nn::simd

#endif  // DG_NN_SIMD_VEC_H_
