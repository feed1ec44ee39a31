// Whole-model static analysis: builds the DoppelGANger model (schema,
// config) describes under nn meta mode — shape-only weights, no RNG draw —
// and audits what a package or a serving process needs from it:
//
//  * config/schema validation — dimensions, rates and ranges that would
//    make construction or training throw (or silently misbehave);
//  * the parameter census — named_parameters() give the expected parameter
//    shapes in serialization order (the package preflight's ground truth);
//  * the generation trace — sample_context plus a full series of
//    generation_steps, traced from the real code (analysis/trace.h) with a
//    symbolic batch dimension: every op checks under the registry's shape
//    rules, and its op census is what the differential test pins against
//    real execution.
//
// The training graph (both critic steps with the WGAN-GP double backward,
// the generator step) is audited by analyze_training_step
// (analysis/train_step.h), the one audit fit() runs.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/diag.h"
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
/// meta model by the training-step audit for its trainability and shape
/// cross-checks.
struct RuntimeParamInfo {
  std::string name;
  int rows = 0;
  int cols = 0;
  bool trainable = true;
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
  /// Node count of the symbolic generation graph.
  int graph_nodes = 0;

  bool ok() const { return !has_errors(diagnostics); }
};

/// Runs every audit listed above. Never throws on bad input — findings come
/// back as diagnostics.
ModelAnalysis analyze_model(const data::Schema& schema,
                            const core::DoppelGangerConfig& cfg);

/// The model (schema, cfg) describes, built under nn meta mode: every
/// weight is shape-only, so construction draws nothing from an RNG and
/// allocates no parameter storage. Use it only under nn::MetaModeGuard.
/// `runtime` (save() order; ignored unless its size matches) sets each
/// parameter's requires_grad. Throws what the DoppelGanger constructor
/// throws.
std::unique_ptr<core::DoppelGanger> meta_model(
    const data::Schema& schema, const core::DoppelGangerConfig& cfg,
    std::span<const RuntimeParamInfo> runtime = {});

/// validate_config, then meta_model, for the analyses that trace a model:
/// appends validate_config's findings to `diags` and returns the model, or
/// nullptr when a finding is an error or the constructor throws (which
/// adds a "config-invalid" error of its own).
std::unique_ptr<core::DoppelGanger> checked_meta_model(
    const data::Schema& schema, const core::DoppelGangerConfig& cfg,
    std::vector<Diagnostic>& diags,
    std::span<const RuntimeParamInfo> runtime = {});

/// Config/schema validation alone (the "config-invalid" findings of
/// analyze_model): the checks a model must pass before it can be traced.
std::vector<Diagnostic> validate_config(const data::Schema& schema,
                                        const core::DoppelGangerConfig& cfg);

}  // namespace dg::analysis
