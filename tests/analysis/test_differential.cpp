// Differential tests: the symbolic walk in analysis/model.cpp must shadow
// the real executor op for op and shape for shape. Across randomized
// DoppelGangerConfigs this pins
//   * expected_parameter_shapes() against DoppelGanger::save()'s actual
//     serialized matrix census (read back header-only),
//   * the generation-path op multiset against the ops nn::make_op really
//     executes during sample_context + a full series of generation_steps
//     (observed via nn::OpObserverGuard),
//   * the predicted generation_step width against the real matrix.
// Any drift between the analyzer's local model replica (block layouts, MLP
// structure, LSTM cell) and src/core fails here.
//
// The training-step differential extends the same pin to the backward pass:
// the op multiset analyze_training_step predicts for one full WGAN-GP
// iteration (generator forward, both critic steps with the gradient-penalty
// double backward, generator step) must equal the ops the engine really
// executes during one fit() iteration.
#include "analysis/model.h"

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>

#include "analysis/train_step.h"
#include "core/doppelganger.h"
#include "nn/autograd.h"
#include "nn/serialize.h"
#include "synth/synth.h"

namespace dg::analysis {
namespace {

struct Variant {
  const char* dataset;
  core::DoppelGangerConfig cfg;
};

core::DoppelGangerConfig small_cfg(uint64_t seed) {
  core::DoppelGangerConfig cfg;
  cfg.attr_hidden = 8;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 8;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 8;
  cfg.head_hidden = 8;
  cfg.sample_len = 5;
  cfg.disc_hidden = 16;
  cfg.disc_layers = 2;
  cfg.batch = 4;
  cfg.iterations = 1;
  cfg.seed = seed;
  return cfg;
}

// A deterministic spread of architecture variants: every dataset family,
// min/max generator on/off, aux critic on/off, attr-MLP depth 0..2,
// sample_len dividing and not dividing max_timesteps.
std::vector<Variant> variants() {
  std::vector<Variant> out;
  const char* datasets[] = {"gcut", "wwt", "mba"};
  uint64_t seed = 11;
  for (const char* ds : datasets) {
    for (const bool minmax : {true, false}) {
      for (const bool aux : {true, false}) {
        core::DoppelGangerConfig cfg = small_cfg(seed++);
        cfg.use_minmax_generator = minmax;
        cfg.use_aux_discriminator = aux;
        cfg.attr_layers = static_cast<int>(seed % 3);
        cfg.sample_len = (seed % 2) ? 5 : 7;  // 7 does not divide t_max=20
        out.push_back({ds, cfg});
      }
    }
  }
  return out;
}

data::Schema schema_for(const std::string& dataset) {
  if (dataset == "gcut") {
    return synth::make_gcut({.n = 4, .t_max = 20, .seed = 5}).schema;
  }
  if (dataset == "wwt") {
    return synth::make_wwt({.n = 4, .t = 20, .seed = 5}).schema;
  }
  return synth::make_mba({.n = 4, .t = 20, .seed = 5}).schema;
}

std::string describe(const Variant& v) {
  std::ostringstream os;
  os << v.dataset << " minmax=" << v.cfg.use_minmax_generator
     << " aux=" << v.cfg.use_aux_discriminator
     << " attr_layers=" << v.cfg.attr_layers << " S=" << v.cfg.sample_len;
  return os.str();
}

TEST(Differential, ParameterShapesMatchSerializedModel) {
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const data::Schema schema = schema_for(v.dataset);
    const auto expected = expected_parameter_shapes(schema, v.cfg);
    core::DoppelGanger model(schema, v.cfg);
    std::stringstream buf;
    model.save(buf);
    const auto actual = nn::peek_matrix_shapes(buf);
    ASSERT_EQ(expected.size(), actual.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(expected[i].rows, actual[i].rows) << expected[i].name;
      EXPECT_EQ(expected[i].cols, actual[i].cols) << expected[i].name;
    }
  }
}

TEST(Differential, GenerationOpCensusMatchesRealExecution) {
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const data::Schema schema = schema_for(v.dataset);
    const ModelAnalysis ma = analyze_model(schema, v.cfg);
    ASSERT_TRUE(ma.ok());

    core::DoppelGanger model(schema, v.cfg);
    std::map<std::string, int> observed;
    int step_cols = -1;
    {
      nn::OpObserverGuard obs([&](const char* op, int, int) {
        ++observed[op];
      });
      nn::Rng rng(99);
      const int n = 3;
      const core::GenContext ctx = model.sample_context(n, rng);
      core::GenState st = model.initial_gen_state(n);
      for (int s = 0; s < model.steps_per_series(); ++s) {
        nn::Matrix noise(n, model.feat_noise_dim());
        for (float& x : noise.flat()) {
          x = static_cast<float>(rng.normal());
        }
        const nn::Matrix recs = model.generation_step(ctx, noise, st);
        step_cols = recs.cols();
      }
    }
    // Constants are bookkeeping (fresh state/noise wrappers per step, not
    // always 1:1 with the walk's symbolic inputs); every structural op must
    // match exactly. Leaves never appear at generation time at all.
    std::map<std::string, int> predicted = ma.generation_op_counts;
    predicted.erase("constant");
    predicted.erase("leaf");
    observed.erase("constant");
    EXPECT_EQ(observed, predicted);
    EXPECT_EQ(step_cols, ma.generation_step_cols);
  }
}

synth::SynthData dataset_for(const std::string& dataset) {
  if (dataset == "gcut") {
    auto d = synth::make_gcut({.n = 8, .t_max = 20, .seed = 5});
    // gcut series are variable-length; trim to the schema ceiling the small
    // configs train against (same idiom as the mutation fit() test).
    for (auto& o : d.data) {
      if (o.length() > 20) o.features.resize(20);
    }
    d.schema.max_timesteps = 20;
    return d;
  }
  if (dataset == "wwt") {
    return synth::make_wwt({.n = 8, .t = 20, .seed = 5});
  }
  return synth::make_mba({.n = 8, .t = 20, .seed = 5});
}

TEST(Differential, TrainingStepOpCensusMatchesRealTrainingIteration) {
  // One fit() iteration with d_steps=1 executes exactly the four phases the
  // analyzer models (everything else in run_training is Matrix-level
  // bookkeeping the observer never sees). Includes a Standard-loss variant
  // so both loss branches are pinned.
  std::vector<Variant> vs = variants();
  {
    Variant std_variant = vs.front();
    std_variant.cfg.loss = core::GanLoss::Standard;
    vs.push_back(std_variant);
  }
  for (const Variant& v : vs) {
    SCOPED_TRACE(describe(v) +
                 (v.cfg.loss == core::GanLoss::Standard ? " loss=standard"
                                                        : " loss=wgan-gp"));
    synth::SynthData d = dataset_for(v.dataset);
    core::DoppelGangerConfig cfg = v.cfg;
    cfg.iterations = 1;
    cfg.d_steps = 1;

    const TrainingStepAnalysis ts = analyze_training_step(d.schema, cfg);
    ASSERT_TRUE(ts.ok());
    std::map<std::string, int> predicted;
    for (const auto* m : {&ts.fake_forward_ops, &ts.critic_step_ops,
                          &ts.aux_critic_step_ops, &ts.generator_step_ops}) {
      for (const auto& [op, count] : *m) predicted[op] += count;
    }
    // Constants/leaves are wrapper bookkeeping, not structural ops (same
    // normalization as the generation-path census above).
    predicted.erase("constant");
    predicted.erase("leaf");

    core::DoppelGanger model(d.schema, cfg);
    std::map<std::string, int> observed;
    {
      nn::OpObserverGuard obs([&](const char* op, int, int) {
        ++observed[op];
      });
      model.fit(d.data);
    }
    observed.erase("constant");
    EXPECT_EQ(observed, predicted);
  }
}

TEST(Differential, AnalyzerIsCleanOnEveryValidVariant) {
  // Zero-false-positive battery: a constructible model must lint clean,
  // under the model analysis and under the training-step audit fit() runs.
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const ModelAnalysis ma = analyze_model(schema_for(v.dataset), v.cfg);
    for (const Diagnostic& d : ma.diagnostics) {
      EXPECT_NE(d.severity, Severity::kError)
          << d.code << ": " << d.message << " at " << d.op;
    }
    EXPECT_GT(ma.graph_nodes, 0);
    EXPECT_FALSE(ma.parameters.empty());
    const TrainingStepAnalysis ts =
        analyze_training_step(schema_for(v.dataset), v.cfg);
    for (const Diagnostic& d : ts.diagnostics) {
      EXPECT_NE(d.severity, Severity::kError)
          << d.code << ": " << d.message << " at " << d.op;
    }
  }
}

}  // namespace
}  // namespace dg::analysis
