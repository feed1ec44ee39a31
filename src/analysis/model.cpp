#include "analysis/model.h"

#include "analysis/symbolic.h"
#include "analysis/trace.h"

namespace dg::analysis {

namespace {

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

std::unique_ptr<core::DoppelGanger> checked_meta_model(
    const data::Schema& schema, const core::DoppelGangerConfig& cfg,
    std::vector<Diagnostic>& diags,
    std::span<const RuntimeParamInfo> runtime) {
  const std::vector<Diagnostic> found = validate_config(schema, cfg);
  diags.insert(diags.end(), found.begin(), found.end());
  // A trace needs a constructible model: report the config findings alone
  // rather than tracing a graph that cannot exist.
  if (has_errors(found)) return nullptr;
  try {
    return meta_model(schema, cfg, runtime);
  } catch (const std::exception& e) {
    diags.push_back({Severity::kError, "config-invalid",
                     std::string("the model cannot be built: ") + e.what(),
                     "config",
                     {}});
    return nullptr;
  }
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
                            const core::DoppelGangerConfig& cfg) {
  ModelAnalysis out;
  const std::unique_ptr<core::DoppelGanger> model =
      checked_meta_model(schema, cfg, out.diagnostics);
  if (!model) return out;
  const auto named = model->named_parameters();
  for (const auto& [name, p] : named) {
    out.parameters.push_back({name, p.rows(), p.cols()});
  }

  // Generation trace, driven exactly as DoppelGanger::generate drives the
  // stepwise API: its op census is what the differential test pins against
  // real execution.
  SymGraph graph;
  Trace t(graph);
  t.bind_params(named);
  t.run([&] {
    nn::Rng rng(cfg.seed);
    const core::GenContext ctx = model->sample_context(kMetaBatch, rng);
    core::GenState st = model->initial_gen_state(kMetaBatch);
    const nn::Matrix noise(kMetaBatch, model->feat_noise_dim());
    for (int step = 0; step < model->steps_per_series(); ++step) {
      out.generation_step_cols =
          model->generation_step(ctx, noise, st).cols();
    }
  });
  out.graph_nodes = graph.size();
  for (const Diagnostic& diag : graph.diagnostics()) {
    out.diagnostics.push_back(diag);
  }
  out.generation_op_counts = graph.op_counts();
  return out;
}

}  // namespace dg::analysis
