// Whole-training-step static analysis, the audit fit() runs before it
// trains: traces one full WGAN-GP iteration of a meta_model
// (analysis/model.h) by running the training phases run_training itself is
// built from (core/doppelganger.h): the detached generator pass that
// fabricates the critics' fake batch (fake_batch), the full and auxiliary
// critic steps (critic_backward: loss, gradient-penalty double backward,
// outer backward), and the generator step (generator_backward: fresh
// forward, frozen critics, backward). Every adjoint in the trace is the
// engine's own backward rule (nn/autograd.cpp).
//
// Before it traces, it reports validate_config's findings (a config with an
// error is not traced) and checks the live model's parameters, when given,
// against the meta model's: same count and shapes, and at least one
// trainable. On top of the shape soundness the registry's rules enforce,
// the trace audits four structural properties no spot check sees:
//
//  * WGAN-GP differentiability — the gradient penalty's create_graph
//    backward pass must not traverse a first-order-only op;
//  * adjoint soundness — every gradient a backward rule returns checks
//    against its parent's shape, at every node of every phase;
//  * def-before-use on gradient slots — every trainable parameter the
//    optimizer will step must actually receive a gradient (Adam silently
//    skips undefined slots, so a dropped adjoint edge trains a model that
//    converges wrong rather than crashing);
//  * reduction-order census — the exact set of kOrderedReduction and
//    kAccumulating sites in the step, i.e. the sites any reordered execution
//    of it (a lowered training tape, a data-parallel all-reduce) must pin to
//    stay bit-identical.
//
// The differential tests pin the four per-phase op multisets against the
// ops a real fit() iteration executes (nn::OpObserverGuard): meta execution
// must record exactly the ops real execution runs.
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "analysis/diag.h"
#include "analysis/model.h"
#include "analysis/registry.h"
#include "core/doppelganger.h"
#include "data/types.h"

namespace dg::analysis {

struct TrainStepOptions {
  /// Registry to interpret ops with; override to seed defects
  /// (seed_adjoint_defect) or downgrade an op's class (what-if audits).
  const OpRegistry* registry = &OpRegistry::builtin();
  /// Live-model overlay (optional); order-matched to named_parameters():
  /// sets each traced leaf's trainability and is cross-checked against the
  /// meta model's parameter shapes.
  std::span<const RuntimeParamInfo> runtime_params;
};

/// One order-sensitive site class in the training step. `count` is the
/// number of node instances across all four phases; `where` is an exemplar
/// graph path (first instance encountered).
struct ReductionSite {
  std::string op;
  DetClass det = DetClass::kOrderedReduction;
  int count = 0;
  std::string where;
};

struct TrainingStepAnalysis {
  std::vector<Diagnostic> diagnostics;

  /// Op multisets per phase, in run_training order: the detached fake
  /// forward (under NoGradGuard), the full critic step (forward + GP double
  /// backward + outer backward), the auxiliary critic step (empty when no
  /// aux critic), and the generator step (forward + frozen-critic backward).
  std::map<std::string, int> fake_forward_ops;
  std::map<std::string, int> critic_step_ops;
  std::map<std::string, int> aux_critic_step_ops;
  std::map<std::string, int> generator_step_ops;

  /// Every order-sensitive accumulation class in the step, sorted by op
  /// name, kOrderedReduction ops first, then the two kAccumulating entries
  /// ("grad-slot" writes and in-graph "grad-accumulate" merges).
  std::vector<ReductionSite> census;
  /// Leaf gradient-slot writes across the slot-writing (outer) backward
  /// passes — the kAccumulating targets Var::backward populates.
  int grad_slot_writes = 0;
  /// In-graph gradient accumulations (an "add" per second upstream
  /// contribution), inner GP backward included.
  int accumulation_adds = 0;
  /// Total symbolic nodes across the four phase graphs.
  int graph_nodes = 0;

  bool ok() const { return !has_errors(diagnostics); }
};

/// Runs the full training-step audit. Needs a constructible model: on a
/// config that fails validate_config (analysis/model.h) or cannot be built
/// it returns the "config-invalid" findings alone. Never throws on bad
/// input — findings come back as diagnostics.
///
/// DP note: with differential privacy enabled the critic runs the
/// microbatched clipped step (dp_critic_step); the audit still models the
/// plain step, which covers the same op classes and the same parameter
/// slots — the census is per-site-class, not per-invocation.
TrainingStepAnalysis analyze_training_step(const data::Schema& schema,
                                           const core::DoppelGangerConfig& cfg,
                                           const TrainStepOptions& opts = {});

}  // namespace dg::analysis
