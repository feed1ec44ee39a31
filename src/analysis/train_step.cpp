#include "analysis/train_step.h"

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "analysis/adjoint.h"
#include "analysis/symbolic.h"
#include "analysis/trace.h"

namespace dg::analysis {

namespace {

using Critic = core::DoppelGanger::Critic;

/// What the analysis keeps from the traced phases once their graphs are
/// gone: the reduction-order census, exemplar paths and the gradient slots
/// each phase left undefined.
struct StepCensus {
  std::array<ReductionSite, nn::kNumOps> reductions;  ///< by Op
  ReductionSite slots{"grad-slot", DetClass::kAccumulating, 0, {}};
  ReductionSite merges{"grad-accumulate", DetClass::kAccumulating, 0, {}};
  std::array<std::string, nn::kNumOps> first_path;  ///< by Op: exemplar path
  bool backward_ok = true;
  int missing = 0;
  std::string first_missing;
  std::string first_missing_path;
  const char* first_missing_phase = "";
};

/// The live model's parameters (if given) against the meta model's: the
/// same layout, and something an optimizer step can change.
void check_runtime_params(
    std::span<const std::pair<std::string, nn::Var>> expected,
    std::span<const RuntimeParamInfo> runtime, std::vector<Diagnostic>& out) {
  if (runtime.empty()) return;
  const auto error = [&out](const char* code, std::string msg,
                            std::string where) {
    out.push_back(
        {Severity::kError, code, std::move(msg), std::move(where), {}});
  };
  if (runtime.size() != expected.size()) {
    error("weight-shape",
          "model exposes " + std::to_string(runtime.size()) +
              " parameter matrices; the schema + config imply " +
              std::to_string(expected.size()),
          "parameters");
    return;
  }
  bool any_trainable = false;
  for (size_t i = 0; i < expected.size(); ++i) {
    const nn::Var& e = expected[i].second;
    const RuntimeParamInfo& r = runtime[i];
    if (r.rows != e.rows() || r.cols != e.cols()) {
      error("weight-shape",
            "parameter is [" + std::to_string(r.rows) + ", " +
                std::to_string(r.cols) + "]; expected [" +
                std::to_string(e.rows()) + ", " + std::to_string(e.cols()) +
                "]",
            expected[i].first);
    }
    any_trainable = any_trainable || r.trainable;
  }
  if (!any_trainable) {
    error("frozen-params",
          "every parameter has requires_grad == false; no optimizer step "
          "can change this model",
          "parameters");
  }
}

}  // namespace

TrainingStepAnalysis analyze_training_step(const data::Schema& schema,
                                           const core::DoppelGangerConfig& cfg,
                                           const TrainStepOptions& opts) {
  TrainingStepAnalysis out;
  const std::unique_ptr<core::DoppelGanger> model =
      checked_meta_model(schema, cfg, out.diagnostics, opts.runtime_params);
  if (!model) return out;
  const auto named = model->named_parameters();
  check_runtime_params(named, opts.runtime_params, out.diagnostics);
  std::set<std::string> dedup;  // one finding per defect class, all phases
  StepCensus census;

  // Traces one phase into its own graph, then folds the graph into the
  // census. `required` are the parameters whose optimizer the phase feeds:
  // each trainable one must end the phase with a defined grad slot.
  const auto phase = [&](const char* label, std::map<std::string, int>& ops,
                         const std::vector<nn::Var>& required,
                         const std::function<void()>& fn) {
    SymGraph g(opts.registry);
    Trace t(g, &dedup);
    t.bind_params(named);
    t.run(fn);

    ops = g.op_counts();
    out.graph_nodes += g.size();
    for (const Diagnostic& diag : g.diagnostics()) {
      out.diagnostics.push_back(diag);
    }
    census.backward_ok = census.backward_ok && t.backward_ok();
    for (int i = 0; i < g.size(); ++i) {
      const SymNode* n = g.node(i);
      const auto k = static_cast<size_t>(n->op);
      std::string& first = census.first_path[k];
      if (first.empty()) first = SymGraph::path(n);
      if ((*opts.registry)[n->op].det != DetClass::kOrderedReduction) {
        continue;
      }
      ReductionSite& site = census.reductions[k];
      if (site.count++ == 0) {
        site.op = nn::op_def(n->op).name;
        site.where = first;
      }
    }
    if (!t.grad_slots().empty() && census.slots.where.empty()) {
      const SymNode* lowest = t.grad_slots().front();
      for (const SymNode* s : t.grad_slots()) {
        if (s->id < lowest->id) lowest = s;
      }
      census.slots.where = SymGraph::path(lowest);
    }
    census.slots.count += static_cast<int>(t.grad_slots().size());
    if (!t.accumulations().empty() && census.merges.where.empty()) {
      census.merges.where = SymGraph::path(t.accumulations().front());
    }
    census.merges.count += static_cast<int>(t.accumulations().size());

    for (const nn::Var& p : required) {
      if (!p.requires_grad() || p.grad().defined()) continue;
      if (census.missing++ == 0) {
        const SymNode* leaf = t.node(p);
        census.first_missing = leaf->label;
        census.first_missing_path = SymGraph::path(leaf);
        census.first_missing_phase = label;
      }
    }
  };

  // Phase 1: the detached fake forward. run_training samples the critics'
  // fake batch under NoGradGuard; no backward exists here, but every
  // generator op still executes.
  core::DoppelGanger::FakeBatch fake;
  phase("fake-forward", out.fake_forward_ops, {},
        [&] { fake = model->fake_batch(kMetaBatch); });

  // Phases 2 and 3: the critic steps on a real batch shaped like the fake.
  phase("full-critic-step", out.critic_step_ops,
        model->critic_parameters(Critic::kFull), [&] {
          const nn::Matrix real(kMetaBatch, fake.full.cols());
          model->critic_backward(Critic::kFull, real, fake.full);
        });
  if (cfg.use_aux_discriminator) {
    phase("aux-critic-step", out.aux_critic_step_ops,
          model->critic_parameters(Critic::kAux), [&] {
            const nn::Matrix real(kMetaBatch, fake.head.cols());
            model->critic_backward(Critic::kAux, real, fake.head);
          });
  }

  // Phase 4: the generator step, both critics frozen.
  phase("generator-step", out.generator_step_ops,
        model->generator_parameters(),
        [&] { model->generator_backward(kMetaBatch); });

  // Def-before-use on gradient slots. Only meaningful when every backward
  // pass ran cleanly: a reported adjoint defect already explains any missing
  // slot downstream of it (one root cause, one diagnostic).
  if (census.backward_ok && census.missing > 0) {
    out.diagnostics.push_back(
        {Severity::kError, "grad-slot-undefined",
         std::to_string(census.missing) +
             " trainable parameter slot(s) receive no gradient from the "
             "training step's backward passes; Adam silently skips "
             "undefined slots, so these parameters would never train "
             "(first: " +
             census.first_missing + " in the " + census.first_missing_phase +
             ")",
         census.first_missing, census.first_missing_path});
  }

  // Determinism-class audit over the registry, with exemplar paths from
  // the training graphs where the offending op occurs.
  const std::vector<Diagnostic> audit =
      audit_registry(*opts.registry, census.first_path);
  out.diagnostics.insert(out.diagnostics.end(), audit.begin(), audit.end());

  for (ReductionSite& site : census.reductions) {
    if (site.count > 0) out.census.push_back(std::move(site));
  }
  std::sort(out.census.begin(), out.census.end(),
            [](const ReductionSite& a, const ReductionSite& b) {
              return a.op < b.op;
            });
  out.grad_slot_writes = census.slots.count;
  out.accumulation_adds = census.merges.count;
  out.census.push_back(std::move(census.slots));
  out.census.push_back(std::move(census.merges));
  return out;
}

}  // namespace dg::analysis
