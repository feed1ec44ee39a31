// The op table: one row per engine op, and the only place an op is
// described. A row holds what every layer needs to know about the op
// without running it — its name, arity, shape rule, determinism class,
// double-backward class, ULP bound, FLOP formula — and the op's forward
// body, as exactly one kernel (none for leaf, constant and grad): the
// simd::EwFn of an elementwise op, the row kernel of another row-local op,
// or the whole-batch kernel of an op that is not row-local. run_op runs
// it; every nn/matrix.cpp forward is a shape check and a run_op call, and
// the generation tape (core/tape_exec.cpp) runs the same EwFn and row
// kernels, so each forward body has one home.
//
// make_op (nn/autograd.h) takes a row, so no graph node exists without
// one. An Op is an op's only identity below the output layer: the traced
// graph and the tape IR carry it, the analyzer's registry is a copy of the
// table indexed by it (analysis/registry.h), and names are rendered from the
// row only for output. The tape verifier refuses an op whose row has no
// kernel the executor can run (analysis/tape.h), and the profiler's op and
// kernel rows count the row's FLOPs (obs/profile.h).
//
// Adding an op: add its Op, its row and kernel in ops.cpp (the
// static_assert there fails until every Op has a row, in enum order), and
// its function in nn/autograd.cpp calling make_op(op_def(Op::kNew), ...)
// on its forward's value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>

#include "nn/matrix.h"
#include "nn/shape.h"
#include "nn/simd/vec.h"

namespace dg::nn {

/// Call-site attributes an op carries beyond its inputs' shapes: what its
/// kernel reads, which make_op hands to the analyzer's trace.
struct OpAttrs {
  int i0 = 0;  ///< slice lower bound / pad left (cols) / pad top (rows)
  int i1 = 0;  ///< slice upper bound / pad right (cols) / pad bottom (rows)
  Dim rows{};  ///< target shape: leaf/constant/broadcast_scalar
  Dim cols{};
  float scalar = 0.0f;  ///< the s of add_scalar / mul_scalar
};

/// The attributes of a call that has none: a default argument that builds
/// no Dim per call.
inline const OpAttrs kNoAttrs;

/// Outcome of a shape rule: either the output shape or an error message
/// (the interpreter attaches op name and graph path).
struct ShapeResult {
  std::optional<Shape> shape;
  std::string error;

  static ShapeResult ok(Shape s) { return {s, {}}; }
  static ShapeResult fail(std::string msg) {
    return {std::nullopt, std::move(msg)};
  }
};

/// How an op behaves under double backward (create_graph=true). This
/// matters because WGAN-GP differentiates *through* gradients: an op whose
/// backward rule is not itself expressed in differentiable ops silently
/// breaks the gradient penalty.
enum class DiffClass {
  /// Backward rule is expressed in public ops; gradients of gradients flow.
  kDoubleBackward,
  /// Backward multiplies by a locally-constant mask (relu, abs): valid under
  /// the gradient penalty — the second derivative is exactly zero almost
  /// everywhere, which the mask-as-data trick computes correctly.
  kZeroCurvature,
  /// Backward is not differentiable. Must not appear on a critic path when
  /// WGAN-GP is active. No row is in this class; it exists for what-if
  /// overrides of the analyzer's registry copy.
  kFirstOrderOnly,
};

const char* to_string(DiffClass c);

/// How the op (and its adjoint) behaves under reordered floating-point
/// accumulation. Any execution that reorders work — a lowered training-step
/// tape, or a data-parallel all-reduce — must keep the reduction order at
/// every site that is not kOrderFree to stay bit-identical.
enum class DetClass {
  /// Pure elementwise / layout op: no accumulation anywhere, output is
  /// invariant to any evaluation order.
  kOrderFree,
  /// Folds an input extent through floating-point adds (matmul, matmul_nt,
  /// matmul_tn, affine, lstm_gates, row_sum, col_sum, sum): result depends
  /// on the summation order, which our kernels fix by construction.
  kOrderedReduction,
  /// Read-modify-write into a gradient slot (the implicit "grad" op):
  /// contributions from multiple graph paths are added in engine traversal
  /// order. The census reports these separately because reordering the
  /// backward pass changes *when* the adds happen, not just their order.
  kAccumulating,
};

const char* to_string(DetClass c);

/// Every engine op, in table order. kLeaf and kGrad name the two node kinds
/// created outside make_op: Var's constructor and the grad() slot.
enum class Op : std::uint8_t {
  kLeaf, kConstant, kGrad,
  kAdd, kSub, kNeg, kMul, kDiv, kAddScalar, kMulScalar,
  kMatmul, kMatmulNT, kMatmulTN, kTranspose, kAffine, kLstmGates,
  kAddRowvec, kAddColvec, kMulColvec, kMulRowvec, kBroadcastScalar,
  kRowSum, kColSum, kSum, kNegRowMax,
  kRelu, kTanh, kSigmoid, kExp, kLog, kSqrt, kSquare, kAbs, kRecip,
  kConcatCols, kConcatRows, kSliceCols, kSliceRows, kPadCols, kPadRows,
  kCount,
};

/// A concrete operand or result extent, (rows, cols), for the cost formulas.
using Dims = std::pair<int, int>;

/// One operand of a row kernel: a row-major buffer `cols` floats wide.
struct RowIn {
  const float* data;
  int cols;
};

/// A row kernel's operands in op order, output and call-site attributes.
struct RowArgs {
  std::span<const RowIn> in;
  float* out;
  int out_cols;
  const OpAttrs& attrs;
};

/// Writes rows [r0, r1) of the output from the same rows of the batch
/// operands; weights, biases and a 1x1 scalar are read whole. Row i never
/// reads another row, so any partition of the rows gives the same bytes.
using RowKernel = void (*)(const RowArgs& args, std::int64_t r0,
                           std::int64_t r1);

/// Writes all of `out` from the operands in op order, on the calling thread.
/// A reduction folds fixed-size chunks and adds their partials in ascending
/// chunk order: the order that fixes its bytes (nn/ops.cpp).
using BatchKernel = void (*)(std::span<const Matrix* const> in, Matrix& out,
                             const OpAttrs& attrs);

struct OpDef {
  Op op;
  const char* name;
  int min_arity;
  int max_arity;  ///< -1 = variadic
  ShapeResult (*shape)(std::span<const Shape> in, const OpAttrs& attrs);
  DetClass det;
  DiffClass diff;
  /// 0: the kernel is bit-exact arithmetic. Otherwise the op is a shared
  /// in-tree transcendental (exp/tanh/sigmoid/log, nn/simd/vec.h): still
  /// bit-identical across SIMD tiers, and at most this many ULP from
  /// double-precision libm on its supported domain — for exp that is
  /// [-87.336, 88.376] (flush-to-zero below, +inf saturation above).
  /// tests/nn/test_simd.cpp sweeps against it.
  int ulp_bound;
  /// FLOPs of one call: exact for the dense kernels, one per output element
  /// for elementwise ops, broadcasts and reductions, zero for layout ops.
  std::uint64_t (*flops)(std::span<const Dims> in, Dims out);
  /// The forward's body, exactly one of the three: an elementwise op's
  /// kernel of one output element, which the tape also runs;
  /// a row-local op's row kernel, which the tape replays per lane range; or
  /// the whole-batch kernel of an op that is not row-local.
  std::optional<simd::EwFn> ew;
  RowKernel rows;
  BatchKernel batch;
};

/// Number of rows: one per Op.
inline constexpr std::size_t kNumOps = static_cast<std::size_t>(Op::kCount);

/// The table, indexed by Op. Defined in ops.cpp.
extern const OpDef kOpTable[kNumOps];

inline const OpDef& op_def(Op op) {
  return kOpTable[static_cast<std::size_t>(op)];
}

inline std::span<const OpDef> op_table() { return kOpTable; }

/// The row named `name`, or nullptr. Only for a name that arrives from
/// outside the program (`dgcli lint --assume-first-order`): graphs, tapes
/// and the analyzer's registry carry an Op, and render its name for output.
const OpDef* find_op(std::string_view name);

/// Bytes one call moves: every operand and the result, as floats.
std::uint64_t op_bytes(std::span<const Dims> in, Dims out);

/// The forward of `op` over operands whose shapes the caller has checked:
/// its row's kernel over an `out`-shaped result allocated without a fill,
/// timed as the profiler row kernel.ew or kernel.<op>. A shape-only (meta
/// mode) or empty result runs nothing.
Matrix run_op(Op op, std::span<const Matrix* const> in, Dims out,
              const OpAttrs& attrs = kNoAttrs);
inline Matrix run_op(Op op, std::initializer_list<const Matrix*> in, Dims out,
                     const OpAttrs& attrs = kNoAttrs) {
  return run_op(op, std::span<const Matrix* const>(in.begin(), in.size()),
                out, attrs);
}

/// `fn` over every element of `a`, for an elementwise map that is not an
/// op's forward: the relu and abs backward masks, and the SIMD tests.
Matrix map_ew(simd::EwFn fn, const Matrix& a);

}  // namespace dg::nn
