#include "analysis/model.h"

#include <unordered_set>
#include <utility>

#include "analysis/symbolic.h"
#include "analysis/trace.h"

namespace dg::analysis {

namespace {

using Critic = core::DoppelGanger::Critic;

// ---- config / schema validation -----------------------------------------

void check(std::vector<Diagnostic>& out, bool bad, const std::string& field,
           const std::string& msg, Severity sev = Severity::kError) {
  if (bad) out.push_back({sev, "config-invalid", msg, field, {}});
}

}  // namespace

std::vector<Diagnostic> validate_config(const data::Schema& s,
                                        const core::DoppelGangerConfig& cfg) {
  std::vector<Diagnostic> d;

  check(d, s.max_timesteps <= 0, "schema.max_timesteps",
        "must be positive (generation horizon T^max)");
  for (const data::FieldSpec& f : s.attributes) {
    if (f.type == data::FieldType::Categorical) {
      check(d, f.n_categories <= 0, "schema.attributes." + f.name,
            "categorical field needs n_categories > 0");
    } else {
      check(d, f.hi <= f.lo, "schema.attributes." + f.name,
            "continuous field needs hi > lo (scaling divides by hi - lo)");
    }
  }
  for (const data::FieldSpec& f : s.features) {
    if (f.type == data::FieldType::Categorical) {
      check(d, f.n_categories <= 0, "schema.features." + f.name,
            "categorical field needs n_categories > 0");
    } else {
      check(d, f.hi <= f.lo, "schema.features." + f.name,
            "continuous field needs hi > lo (scaling divides by hi - lo)");
    }
  }

  check(d, cfg.sample_len <= 0, "sample_len",
        "S must be positive (records emitted per LSTM step)");
  check(d, cfg.sample_len > 0 && s.max_timesteps > 0 &&
               cfg.sample_len > s.max_timesteps,
        "sample_len",
        "S exceeds the schema's max_timesteps; the model constructor "
        "rejects this");
  check(d, cfg.attr_noise_dim <= 0, "attr_noise_dim", "must be positive");
  check(d, cfg.feat_noise_dim <= 0, "feat_noise_dim", "must be positive");
  bool any_continuous = false;
  for (const data::FieldSpec& f : s.features) {
    any_continuous = any_continuous || f.type == data::FieldType::Continuous;
  }
  const bool minmax = cfg.use_minmax_generator && any_continuous;
  check(d, minmax && cfg.minmax_noise_dim <= 0,
        "minmax_noise_dim",
        "must be positive when the min/max generator is enabled");
  check(d, cfg.attr_layers < 0, "attr_layers", "must be non-negative");
  check(d, cfg.attr_layers > 0 && cfg.attr_hidden <= 0, "attr_hidden",
        "must be positive when attr_layers > 0");
  check(d, minmax && cfg.minmax_layers < 0, "minmax_layers",
        "must be non-negative");
  check(d, minmax && cfg.minmax_layers > 0 &&
               cfg.minmax_hidden <= 0,
        "minmax_hidden", "must be positive when minmax_layers > 0");
  check(d, cfg.lstm_units <= 0, "lstm_units", "must be positive");
  check(d, cfg.head_hidden <= 0, "head_hidden",
        "must be positive (the head MLP always has one hidden layer)");
  check(d, cfg.disc_layers < 0, "disc_layers", "must be non-negative");
  check(d, cfg.disc_layers > 0 && cfg.disc_hidden <= 0, "disc_hidden",
        "must be positive when disc_layers > 0");
  check(d, cfg.lr <= 0.0f, "lr", "learning rate must be positive");
  check(d, cfg.batch < 1, "batch", "must be at least 1");
  check(d, cfg.iterations < 0, "iterations", "must be non-negative");
  check(d, cfg.d_steps < 1, "d_steps",
        "must be at least 1 (critic steps per generator step)");

  if (cfg.loss == core::GanLoss::WassersteinGp) {
    check(d, cfg.gp_weight < 0.0f, "gp_weight",
          "must be non-negative under WGAN-GP");
    check(d, cfg.gp_weight == 0.0f, "gp_weight",
          "WGAN-GP with zero gradient penalty degenerates to an "
          "unconstrained critic",
          Severity::kWarning);
  }
  if (cfg.use_aux_discriminator) {
    if (cfg.aux_alpha == 0.0f) {
      d.push_back({Severity::kWarning, "aux-ignored",
                   "use_aux_discriminator is set but aux_alpha == 0: the "
                   "auxiliary critic trains yet never influences the "
                   "generator",
                   "aux_alpha",
                   {}});
    }
    check(d, cfg.aux_alpha < 0.0f, "aux_alpha",
          "negative alpha makes the generator maximize the auxiliary "
          "critic's loss",
          Severity::kWarning);
  }
  if (cfg.dp) {
    check(d, cfg.dp->clip_norm <= 0.0f, "dp.clip_norm", "must be positive");
    check(d, cfg.dp->noise_multiplier < 0.0f, "dp.noise_multiplier",
          "must be non-negative");
    check(d, cfg.dp->microbatches < 1, "dp.microbatches",
          "must be at least 1");
  }
  return d;
}

std::unique_ptr<core::DoppelGanger> meta_model(
    const data::Schema& schema, const core::DoppelGangerConfig& cfg,
    std::span<const RuntimeParamInfo> runtime) {
  nn::MetaModeGuard meta;
  auto model = std::make_unique<core::DoppelGanger>(schema, cfg);
  const auto named = model->named_parameters();
  if (runtime.size() == named.size()) {
    for (size_t i = 0; i < named.size(); ++i) {
      nn::Var p = named[i].second;
      p.set_requires_grad(runtime[i].trainable);
    }
  }
  return model;
}

std::vector<ParamShape> expected_parameter_shapes(
    const data::Schema& s, const core::DoppelGangerConfig& cfg) {
  std::vector<ParamShape> out;
  try {
    for (const auto& [name, p] : meta_model(s, cfg)->named_parameters()) {
      out.push_back({name, p.rows(), p.cols()});
    }
  } catch (const std::exception&) {
    out.clear();
  }
  return out;
}

ModelAnalysis analyze_model(const data::Schema& schema,
                            const core::DoppelGangerConfig& cfg,
                            const AnalyzeOptions& opts) {
  ModelAnalysis out;
  out.diagnostics = validate_config(schema, cfg);
  if (has_errors(out.diagnostics)) {
    // The traces need a constructible model; report the config findings
    // alone rather than tracing a graph that cannot exist.
    return out;
  }
  std::unique_ptr<core::DoppelGanger> model;
  try {
    model = meta_model(schema, cfg, opts.runtime_params);
  } catch (const std::exception& e) {
    out.diagnostics.push_back({Severity::kError, "config-invalid",
                               std::string("the model cannot be built: ") +
                                   e.what(),
                               "config",
                               {}});
    return out;
  }
  const auto named = model->named_parameters();
  for (const auto& [name, p] : named) {
    out.parameters.push_back({name, p.rows(), p.cols()});
  }

  // Runtime overlay: shape cross-check + frozen-parameter audit (meta_model
  // already applied the trainability to the traced leaves).
  if (!opts.runtime_params.empty()) {
    if (opts.runtime_params.size() != out.parameters.size()) {
      out.diagnostics.push_back(
          {Severity::kError, "weight-shape",
           "model exposes " + std::to_string(opts.runtime_params.size()) +
               " parameter matrices; the schema + config imply " +
               std::to_string(out.parameters.size()),
           "parameters",
           {}});
    } else {
      bool any_trainable = false;
      for (size_t i = 0; i < out.parameters.size(); ++i) {
        const ParamShape& e = out.parameters[i];
        const RuntimeParamInfo& r = opts.runtime_params[i];
        if (r.rows != e.rows || r.cols != e.cols) {
          out.diagnostics.push_back(
              {Severity::kError, "weight-shape",
               "parameter is [" + std::to_string(r.rows) + ", " +
                   std::to_string(r.cols) + "]; expected [" +
                   std::to_string(e.rows) + ", " + std::to_string(e.cols) +
                   "]",
               e.name,
               {}});
        }
        any_trainable = any_trainable || r.trainable;
      }
      if (!any_trainable) {
        out.diagnostics.push_back(
            {Severity::kError, "frozen-params",
             "every parameter has requires_grad == false; no optimizer step "
             "can change this model",
             "parameters",
             {}});
      }
    }
  }

  // Training-path trace: the generator's loss through both critics (shape
  // soundness + gradient flow), then each critic's loss, whose gradient
  // penalty runs the create_graph backward pass the double-backward audit
  // watches.
  SymGraph train_graph(opts.registry);
  Trace t(train_graph);
  t.bind_params(named);
  const SymNode* g_loss = nullptr;
  t.run([&] {
    g_loss = t.node(model->generator_loss(kMetaBatch));
    for (const Critic c : {Critic::kFull, Critic::kAux}) {
      const std::vector<nn::Var> critic = model->critic_parameters(c);
      if (critic.empty()) continue;
      const nn::Matrix batch(kMetaBatch, critic.front().rows());
      model->critic_loss(c, batch, batch);
    }
  });
  out.graph_nodes = train_graph.size();
  for (const Diagnostic& diag : train_graph.diagnostics()) {
    out.diagnostics.push_back(diag);
  }

  // Gradient flow: every trainable parameter leaf must be reachable from
  // the generator loss (it flows through both critics, so a healthy model
  // has no unreachable parameter at all).
  if (g_loss != nullptr) {
    std::unordered_set<const SymNode*> reachable;
    for (const SymNode* p : train_graph.reachable_params(g_loss)) {
      reachable.insert(p);
    }
    for (const SymNode* p : t.params()) {
      if (reachable.count(p) != 0) {
        // A partially frozen generator trains around the frozen weights —
        // worth a warning; the all-frozen case is already an error above.
        if (!p->trainable && !opts.runtime_params.empty()) {
          out.diagnostics.push_back(
              {Severity::kWarning, "frozen-params",
               "parameter has requires_grad == false and will not train",
               p->label,
               {}});
        }
        continue;
      }
      out.diagnostics.push_back(
          {p->trainable ? Severity::kError : Severity::kWarning, "dead-param",
           p->trainable
               ? "trainable parameter is unreachable from every loss; it "
                 "would never be updated"
               : "frozen parameter is also unreachable from every loss",
           p->label,
           {}});
    }
  }

  // Generation trace on a fresh graph, driven exactly as
  // DoppelGanger::generate drives the stepwise API: its op census is what
  // the differential test pins against real execution.
  SymGraph gen_graph(opts.registry);
  Trace gt(gen_graph);
  gt.bind_params(named);
  gt.run([&] {
    nn::Rng rng(cfg.seed);
    const core::GenContext ctx = model->sample_context(kMetaBatch, rng);
    core::GenState st = model->initial_gen_state(kMetaBatch);
    const nn::Matrix noise(kMetaBatch, model->feat_noise_dim());
    for (int step = 0; step < model->steps_per_series(); ++step) {
      out.generation_step_cols =
          model->generation_step(ctx, noise, st).cols();
    }
  });
  for (const Diagnostic& diag : gen_graph.diagnostics()) {
    out.diagnostics.push_back(diag);
  }
  out.generation_op_counts = gen_graph.op_counts();
  return out;
}

}  // namespace dg::analysis
