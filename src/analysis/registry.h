// The op registry: one entry per `make_op` name in nn/autograd.cpp,
// declaring what the analyzer needs to know about an op without
// running it — its shape rule, its arity, its broadcast semantics, its
// differentiability class and its determinism class. The differentiability
// class matters because WGAN-GP differentiates *through* gradients: an op
// whose backward rule is not itself expressed in differentiable ops silently
// breaks the gradient penalty, and the critic path must be provably free of
// such ops before training starts.
//
// The registry holds no backward rules: the analyzer traces the engine's
// own (analysis/trace.h), so every adjoint it audits is the one training
// runs.
//
// Extension contract: a new op added to nn/autograd.cpp must be registered
// here (OpRegistry::add) with a shape rule and a determinism class before
// the analyzer accepts it — `known_op_names()` in nn/autograd.h is
// cross-checked against the registry in tests so an unregistered op is a
// build-time-adjacent failure, not a silent analysis gap.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/shape.h"
#include "nn/autograd.h"

namespace dg::analysis {

/// How an op behaves under double backward (create_graph=true).
enum class DiffClass {
  /// Backward rule is expressed in public ops; gradients of gradients flow.
  kDoubleBackward,
  /// Backward multiplies by a locally-constant mask (relu, abs): valid under
  /// the gradient penalty — the second derivative is exactly zero almost
  /// everywhere, which the mask-as-data trick computes correctly.
  kZeroCurvature,
  /// Backward is not differentiable. Must not appear on a critic path when
  /// WGAN-GP is active. No built-in op is in this class; it exists for
  /// registry overrides and future ops with opaque backward kernels.
  kFirstOrderOnly,
};

const char* to_string(DiffClass c);

/// How an op's vectorized (avx2) kernel relates to the scalar reference tier
/// (nn/simd/vec.h). The SIMD differential tests read these declarations: a
/// kBitExact op must produce bit-identical output under every dispatch tier
/// and thread count; a kUlpBounded op is still bit-identical *across tiers*
/// (both tiers share one polynomial) but diverges from libm by at most
/// `ulp_bound` ULP on the supported domain.
enum class SimdClass {
  /// Pure add/mul/compare kernels: bit-identical to the scalar reference by
  /// construction (no FMA contraction, fixed association).
  kBitExact,
  /// Polynomial transcendental (exp/tanh/sigmoid): tiers agree bit-for-bit,
  /// accuracy vs libm is bounded by OpInfo::ulp_bound.
  kUlpBounded,
};

const char* to_string(SimdClass c);

/// How the op (and its adjoint) behaves under reordered floating-point
/// accumulation. Any execution that reorders work — a lowered training-step
/// tape, or a data-parallel all-reduce — must keep the reduction order at
/// every site that is not kOrderFree to stay bit-identical.
enum class DetClass {
  /// Pure elementwise / layout op: no accumulation anywhere, output is
  /// invariant to any evaluation order.
  kOrderFree,
  /// Folds an input extent through floating-point adds (matmul, affine,
  /// lstm_gates, row_sum, col_sum, sum): result depends on the summation
  /// order, which our kernels fix by construction.
  kOrderedReduction,
  /// Read-modify-write into a gradient slot (the implicit "grad" op):
  /// contributions from multiple graph paths are added in engine traversal
  /// order. The census reports these separately because reordering the
  /// backward pass changes *when* the adds happen, not just their order.
  kAccumulating,
};

const char* to_string(DetClass c);

/// Declared broadcast semantics (which input is replicated across the other).
enum class Broadcast { kNone, kRowVector, kColVector, kScalar };

/// Call-site attributes an op carries beyond its inputs' shapes.
struct OpAttrs {
  int i0 = 0;  ///< slice lower bound / pad left (cols) / pad top (rows)
  int i1 = 0;  ///< slice upper bound / pad right (cols) / pad bottom (rows)
  Dim rows;    ///< target shape: leaf/constant/broadcast_scalar
  Dim cols;
};

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

using ShapeRule =
    std::function<ShapeResult(std::span<const Shape>, const OpAttrs&)>;

/// Negative-control hook (seed_adjoint_defect in analysis/adjoint.h):
/// rewrites the per-parent gradients the engine's real backward rule
/// returned for a traced node of this op, given the node's output gradient.
using GradFault =
    std::function<void(std::vector<nn::Var>& grads, const nn::Var& gout)>;

struct OpInfo {
  std::string name;
  int min_arity = 1;
  int max_arity = 1;  ///< -1 = variadic
  DiffClass diff = DiffClass::kDoubleBackward;
  Broadcast broadcast = Broadcast::kNone;
  ShapeRule shape;
  /// SIMD tolerance class (see SimdClass). ulp_bound is the pinned maximum
  /// ULP error vs double-precision libm on the op's supported domain — for
  /// exp that domain is [-87.336, 88.376] (flush-to-zero below, +inf
  /// saturation above, as the Cephes-style kernel defines). The property
  /// tests in tests/nn/test_simd.cpp sweep against these bounds.
  SimdClass simd = SimdClass::kBitExact;
  int ulp_bound = 0;
  /// Determinism class (see DetClass). Deliberately optional with no
  /// default: the registry coverage hard-gate fails any op that does not
  /// *declare* its class, so a new op cannot merge half-registered.
  std::optional<DetClass> det;
  /// Empty for every builtin op; set only by seeded-defect registries.
  GradFault fault;
};

class OpRegistry {
 public:
  OpRegistry() = default;

  /// The registry covering every op name nn::make_op is called with
  /// (nn::known_op_names()). Copy it to apply overrides.
  static const OpRegistry& builtin();

  const OpInfo* find(std::string_view name) const;

  /// Insert-or-replace — the extension point, both for registering shape
  /// rules of new ops and for test/what-if overrides (e.g. downgrading an
  /// op to kFirstOrderOnly to prove the critic-path audit catches it).
  void add(OpInfo info);

  std::vector<std::string> names() const;

 private:
  std::map<std::string, OpInfo, std::less<>> ops_;
};

}  // namespace dg::analysis
