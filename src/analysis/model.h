// Whole-model static analysis: builds the DoppelGANger model (schema,
// config) describes under nn meta mode — shape-only weights, no RNG draw —
// and traces its real code (analysis/trace.h) with a symbolic batch
// dimension: the generator's training loss through both critics, each
// critic's loss with its gradient penalty, and sample_context plus a full
// series of generation_steps. It audits the result:
//
//  * config/schema validation — dimensions, rates and ranges that would
//    make construction or training throw (or silently misbehave);
//  * shape soundness — every traced op checks under the registry's shape
//    rules, which must agree with the kernels that produced the shapes;
//  * gradient flow — trainable parameters unreachable from every loss root
//    are dead (they would never train); an all-frozen model cannot train;
//  * WGAN-GP differentiability — the gradient penalty's create_graph
//    backward pass must not traverse a first-order-only op.
//
// The model's named_parameters() give the expected parameter shapes in
// serialization order (the package preflight's ground truth), and the
// generation trace gives the op census the differential test pins against
// real execution.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "analysis/registry.h"
#include "core/doppelganger.h"
#include "data/types.h"

namespace dg::analysis {

/// One parameter matrix in DoppelGanger::save() order.
struct ParamShape {
  std::string name;  ///< e.g. "attr_gen.l0.w", "lstm.wh", "disc.l2.b"
  int rows = 0;
  int cols = 0;
};

/// Every parameter the model serializes, in order, derived purely from
/// schema + config (a meta_model, no weights). Empty if the model cannot be
/// built.
std::vector<ParamShape> expected_parameter_shapes(
    const data::Schema& schema, const core::DoppelGangerConfig& cfg);

/// Runtime view of one parameter (from a live model), overlaid onto the
/// static walk for frozen-parameter and shape cross-checks.
struct RuntimeParamInfo {
  std::string name;
  int rows = 0;
  int cols = 0;
  bool trainable = true;
};

struct AnalyzeOptions {
  /// Registry to interpret ops with; override to register new ops or to
  /// downgrade an op's DiffClass for what-if audits.
  const OpRegistry* registry = &OpRegistry::builtin();
  /// Live-model overlay (optional); order-matched to
  /// expected_parameter_shapes.
  std::span<const RuntimeParamInfo> runtime_params;
};

struct ModelAnalysis {
  std::vector<Diagnostic> diagnostics;
  /// Expected serialization-order parameter shapes (empty if the config is
  /// too broken to derive them).
  std::vector<ParamShape> parameters;
  /// Op census of one full generation pass (sample_context + every
  /// generation_step), the multiset the differential test pins against the
  /// real executor.
  std::map<std::string, int> generation_op_counts;
  /// Columns of one generation_step result: sample_len * record_width.
  int generation_step_cols = 0;
  /// Node count of the symbolic training graph.
  int graph_nodes = 0;

  bool ok() const { return !has_errors(diagnostics); }
};

/// Runs every audit listed above. Never throws on bad input — findings come
/// back as diagnostics.
ModelAnalysis analyze_model(const data::Schema& schema,
                            const core::DoppelGangerConfig& cfg,
                            const AnalyzeOptions& opts = {});

/// The model (schema, cfg) describes, built under nn meta mode: every
/// weight is shape-only, so construction draws nothing from an RNG and
/// allocates no parameter storage. Use it only under nn::MetaModeGuard.
/// `runtime` (save() order; ignored unless its size matches) sets each
/// parameter's requires_grad. Throws what the DoppelGanger constructor
/// throws.
std::unique_ptr<core::DoppelGanger> meta_model(
    const data::Schema& schema, const core::DoppelGangerConfig& cfg,
    std::span<const RuntimeParamInfo> runtime = {});

/// Config/schema validation alone (the "config-invalid" findings of
/// analyze_model): the checks a model must pass before it can be traced.
std::vector<Diagnostic> validate_config(const data::Schema& schema,
                                        const core::DoppelGangerConfig& cfg);

}  // namespace dg::analysis
