// The op registry: the analyzer's copy of the nn op table (nn/ops.h), one
// entry per row, indexed by nn::Op like the table itself. Every fact about
// an op — its shape rule, arity, differentiability class and determinism
// class — is the row's; the registry exists so an analysis can run against
// a modified copy: the what-if downgrades of `dgcli lint
// --assume-first-order`, the seeded adjoint faults of analysis/adjoint.h,
// and the override tests.
//
// The registry holds no backward rules: the analyzer traces the engine's
// own (analysis/trace.h), so every adjoint it audits is the one training
// runs.
//
// Extension contract: a new op is a new row in nn/ops.cpp. make_op takes
// a row, so an op without one does not compile, and the registry picks the
// row up with nothing to register here.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "nn/autograd.h"
#include "nn/ops.h"

namespace dg::analysis {

using nn::add_dims;
using nn::DetClass;
using nn::DiffClass;
using nn::Dim;
using nn::Op;
using nn::OpAttrs;
using nn::Shape;
using nn::ShapeResult;
using nn::to_string;

/// Negative-control hook (seed_adjoint_defect in analysis/adjoint.h):
/// rewrites the per-parent gradients the engine's real backward rule
/// returned for a traced node of this op, given the node's output gradient.
using GradFault =
    std::function<void(std::vector<nn::Var>& grads, const nn::Var& gout)>;

/// An op's row, plus a seeded fault.
struct OpInfo : nn::OpDef {
  /// Empty for every builtin op; set only by seeded-defect registries.
  GradFault fault;
};

class OpRegistry {
 public:
  /// One entry per row of nn::op_table(), unmodified.
  OpRegistry();

  /// The unmodified registry. Copy it to apply overrides.
  static const OpRegistry& builtin();

  const OpInfo& operator[](Op op) const {
    return ops_[static_cast<std::size_t>(op)];
  }
  /// The override point for what-if audits (e.g. downgrading an op to
  /// kFirstOrderOnly to prove the critic-path audit catches it) and seeded
  /// defects.
  OpInfo& operator[](Op op) { return ops_[static_cast<std::size_t>(op)]; }

 private:
  std::array<OpInfo, nn::kNumOps> ops_;
};

}  // namespace dg::analysis
