// Registry audits for the training-step analysis (analysis/train_step.h).
//
// audit_registry probes every op's shape rule with uniquely-named symbolic
// extents and checks the declared DetClass against what the shapes prove —
// an extent that vanishes from the output was folded through floating-point
// accumulation, so the op must be kOrderedReduction; an op that preserves
// every non-unit extent must be kOrderFree. This is the gate that keeps the
// reduction-order census honest as new ops land.
//
// The seeded adjoint defects are the auditor's negative controls. Two of
// them install a GradFault into a registry copy: the trace
// (analysis/trace.h) applies it to the gradients the engine's real backward
// rule returns, so the defect reaches the traced engine exactly where a
// broken rule in nn/autograd.cpp would.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/diag.h"
#include "analysis/registry.h"

namespace dg::analysis {

/// Probe-based determinism-class audit over every op, in table order (see
/// file comment). Emits code "determinism-class" for a mislabeled op and
/// "determinism-unverified" (warning) for an op whose shape rule accepts
/// none of the generic probes. `where`, if given, holds an exemplar graph
/// path per Op, attached to that op's findings.
std::vector<Diagnostic> audit_registry(
    const OpRegistry& r, std::span<const std::string> where = {});

/// The seeded defect classes the mutation tests cover:
///   "wrong-adjoint-shape"   row_sum's backward returns the [n,1] output
///                           gradient instead of expanding to [n,d]
///   "dropped-accum-edge"    affine's backward loses the bias edge, so every
///                           bias slot silently never trains
///   "mislabel-det-class"    matmul_tn declared kOrderFree, hiding the
///                           weight-gradient reductions from the census
std::vector<std::string> adjoint_defect_classes();

/// Installs `defect` (one of adjoint_defect_classes) into a registry copy.
/// Returns false for an unknown class.
bool seed_adjoint_defect(OpRegistry& r, std::string_view defect);

}  // namespace dg::analysis
