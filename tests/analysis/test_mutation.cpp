// Mutation tests: seed the defect classes the static analyzer exists to
// catch and require a finding with the right code and attribution for every
// one of them — plus the fit() gate actually refusing to train. Defect
// classes covered:
//   1. bad sample_len S (zero / exceeding max_timesteps)   config-invalid
//   2. bad training knobs (lr, batch, d_steps)             config-invalid
//   3. weights from a different schema (swapped dims)      weight-shape
//   4. architecture flag flipped vs serialized weights     weight-shape
//   5. every parameter frozen                              frozen-params
//   6. truncated package bytes                             package-parse
//   7. wrong adjoint shape (row_sum grad unexpanded)        adjoint-shape
//   8. dropped accumulation edge (affine loses its bias)    grad-slot-undefined
//   9. mislabeled det class (matmul_tn "order-free")       determinism-class
// A first-order-only op on the critic path (no-double-backward) is
// TrainStep.GpPathFirstOrderOpIsRefusedAtTheBackwardPass in test_adjoint.
// Classes 7-9 are seeded via seed_adjoint_defect and must each produce
// EXACTLY one error with a graph-path attribution — the adjoint auditor's
// containment discipline (one root cause, one finding, no cascade).
#include "analysis/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <utility>

#include "analysis/adjoint.h"
#include "analysis/train_step.h"
#include "core/doppelganger.h"
#include "core/package.h"
#include "core/preflight.h"
#include "data/io.h"
#include "synth/synth.h"

namespace dg::analysis {
namespace {

core::DoppelGangerConfig tiny_cfg() {
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
  cfg.seed = 7;
  return cfg;
}

data::Schema gcut_schema() {
  return synth::make_gcut({.n = 4, .t_max = 20, .seed = 5}).schema;
}

bool has_error(std::span<const Diagnostic> diags, const std::string& code,
               const std::string& op_substr = "") {
  return std::any_of(diags.begin(), diags.end(), [&](const Diagnostic& d) {
    return d.severity == Severity::kError && d.code == code &&
           (op_substr.empty() || d.op.find(op_substr) != std::string::npos);
  });
}

// Assembles a package whose header advertises (schema, cfg) but whose
// weight section comes from `donor` — the "stale weights after a schema or
// flag change" failure the preflight's shape census must catch.
std::string spliced_package(const data::Schema& schema,
                            const core::DoppelGangerConfig& cfg,
                            const core::DoppelGanger& donor) {
  std::ostringstream os;
  os << "doppelganger-package v1\n";
  std::ostringstream ss;
  data::save_schema(ss, schema);
  os << "schema_bytes " << ss.str().size() << '\n' << ss.str();
  core::save_config(os, cfg);
  donor.save(os);
  return os.str();
}

TEST(Mutation, BadSampleLenIsConfigInvalid) {
  const data::Schema schema = gcut_schema();
  core::DoppelGangerConfig cfg = tiny_cfg();
  cfg.sample_len = 0;
  EXPECT_TRUE(has_error(analyze_model(schema, cfg).diagnostics,
                        "config-invalid", "sample_len"));
  cfg.sample_len = 100;  // > max_timesteps=20
  EXPECT_TRUE(has_error(analyze_model(schema, cfg).diagnostics,
                        "config-invalid", "sample_len"));
}

TEST(Mutation, BadTrainingKnobsAreConfigInvalid) {
  const data::Schema schema = gcut_schema();
  core::DoppelGangerConfig cfg = tiny_cfg();
  cfg.lr = 0.0f;
  cfg.batch = 0;
  cfg.d_steps = 0;
  const auto diags = analyze_model(schema, cfg).diagnostics;
  EXPECT_TRUE(has_error(diags, "config-invalid", "lr"));
  EXPECT_TRUE(has_error(diags, "config-invalid", "batch"));
  EXPECT_TRUE(has_error(diags, "config-invalid", "d_steps"));
}

TEST(Mutation, SwappedSchemaWeightsAreCaughtByPreflight) {
  const core::DoppelGangerConfig cfg = tiny_cfg();
  // Donor trained against gcut (1 attr, 3 features); header claims wwt.
  const core::DoppelGanger donor(gcut_schema(), cfg);
  const data::Schema wwt =
      synth::make_wwt({.n = 4, .t = 20, .seed = 5}).schema;
  std::istringstream pkg(spliced_package(wwt, cfg, donor));
  const core::PackagePreflight pf = core::preflight_package(pkg);
  EXPECT_TRUE(pf.header_ok);
  EXPECT_FALSE(pf.ok);
  EXPECT_TRUE(has_error(pf.diagnostics, "weight-shape"));
}

// A package whose schema repeats a field name does not load: the preflight
// refuses it at the schema section and names the field.
TEST(Mutation, RepeatedSchemaNameIsCaughtByPreflight) {
  const core::DoppelGangerConfig cfg = tiny_cfg();
  data::Schema schema = gcut_schema();
  const core::DoppelGanger donor(schema, cfg);
  schema.features[1].name = schema.features[0].name;
  std::istringstream pkg(spliced_package(schema, cfg, donor));
  const core::PackagePreflight pf = core::preflight_package(pkg);
  EXPECT_FALSE(pf.header_ok);
  EXPECT_FALSE(pf.ok);
  ASSERT_TRUE(has_error(pf.diagnostics, "package-parse"));
  bool named = false;
  for (const Diagnostic& d : pf.diagnostics) {
    named |= d.message.find("repeated field name '" +
                            schema.features[0].name + "'") != std::string::npos;
  }
  EXPECT_TRUE(named) << core::render_diagnostics(pf.diagnostics);
}

TEST(Mutation, AuxFlagFlipVsWeightsIsCaughtByPreflight) {
  core::DoppelGangerConfig with_aux = tiny_cfg();
  with_aux.use_aux_discriminator = true;
  const core::DoppelGanger donor(gcut_schema(), with_aux);
  core::DoppelGangerConfig without_aux = with_aux;
  without_aux.use_aux_discriminator = false;
  std::istringstream pkg(
      spliced_package(gcut_schema(), without_aux, donor));
  const core::PackagePreflight pf = core::preflight_package(pkg);
  EXPECT_FALSE(pf.ok);
  EXPECT_TRUE(has_error(pf.diagnostics, "weight-shape"));
}

TEST(Mutation, FrozenEverythingIsAnError) {
  const data::Schema schema = gcut_schema();
  const core::DoppelGangerConfig cfg = tiny_cfg();
  const auto shapes = expected_parameter_shapes(schema, cfg);
  ASSERT_FALSE(shapes.empty());
  std::vector<RuntimeParamInfo> frozen;
  for (const ParamShape& p : shapes) {
    frozen.push_back({p.name, p.rows, p.cols, /*trainable=*/false});
  }
  TrainStepOptions opts;
  opts.runtime_params = frozen;
  const TrainingStepAnalysis ts = analyze_training_step(schema, cfg, opts);
  EXPECT_TRUE(has_error(ts.diagnostics, "frozen-params"));
}

TEST(Mutation, LiveParameterLayoutIsCrossChecked) {
  // The training-step audit compares the live model's parameters with the
  // layout schema + config imply: a reshaped matrix, or one too few.
  const data::Schema schema = gcut_schema();
  const core::DoppelGangerConfig cfg = tiny_cfg();
  std::vector<RuntimeParamInfo> live;
  for (const ParamShape& p : expected_parameter_shapes(schema, cfg)) {
    live.push_back({p.name, p.rows, p.cols, /*trainable=*/true});
  }
  ASSERT_GT(live.size(), 2u);
  TrainStepOptions opts;
  opts.runtime_params = live;
  EXPECT_TRUE(analyze_training_step(schema, cfg, opts).ok());

  std::swap(live[1].rows, live[1].cols);
  const TrainingStepAnalysis reshaped =
      analyze_training_step(schema, cfg, opts);
  EXPECT_TRUE(has_error(reshaped.diagnostics, "weight-shape", live[1].name));

  live.pop_back();
  opts.runtime_params = live;
  EXPECT_TRUE(has_error(analyze_training_step(schema, cfg, opts).diagnostics,
                        "weight-shape", "parameters"));
}

TEST(Mutation, TruncatedPackageIsRefusedWithParseError) {
  const core::DoppelGanger model(gcut_schema(), tiny_cfg());
  std::ostringstream os;
  core::save_package(os, model);
  const std::string full = os.str();
  std::istringstream truncated(full.substr(0, full.size() - 64));
  const core::PackagePreflight pf = core::preflight_package(truncated);
  EXPECT_TRUE(pf.header_ok);  // schema + config still parse
  EXPECT_FALSE(pf.ok);
  EXPECT_TRUE(has_error(pf.diagnostics, "package-parse"));
  // Garbage from byte zero: not even the header survives.
  std::istringstream garbage("not a package at all");
  const core::PackagePreflight pf2 = core::preflight_package(garbage);
  EXPECT_FALSE(pf2.header_ok);
  EXPECT_TRUE(has_error(pf2.diagnostics, "package-parse"));
}

TEST(Mutation, FitRefusesToStartOnPreflightErrors) {
  // lr=0 passes the constructor (which only checks structure) but must be
  // rejected by the training preflight before the first iteration runs.
  auto d = synth::make_gcut({.n = 8, .t_max = 20, .seed = 5});
  for (auto& o : d.data) {
    if (o.length() > 20) o.features.resize(20);
  }
  d.schema.max_timesteps = 20;
  core::DoppelGangerConfig cfg = tiny_cfg();
  cfg.lr = 0.0f;
  core::DoppelGanger model(d.schema, cfg);
  try {
    model.fit(d.data);
    FAIL() << "fit must throw on preflight errors";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("preflight"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("config-invalid"), std::string::npos);
  }
  // A valid config whose live model has nothing left to train.
  core::DoppelGanger frozen(d.schema, tiny_cfg());
  for (auto [name, p] : frozen.named_parameters()) p.set_requires_grad(false);
  try {
    frozen.fit(d.data);
    FAIL() << "fit must refuse a model with nothing to train";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("frozen-params"), std::string::npos);
  }
}

// Runs the training-step analysis against a registry with `defect` seeded,
// returning the error diagnostics. Each defect class must surface as
// EXACTLY one finding — the gating between the adjoint pass and the
// def-before-use slot check exists precisely so one defect cannot cascade.
std::vector<Diagnostic> errors_with_defect(const std::string& defect) {
  OpRegistry reg = OpRegistry::builtin();
  if (!seed_adjoint_defect(reg, defect)) {
    ADD_FAILURE() << "unknown defect class " << defect;
    return {};
  }
  TrainStepOptions opts;
  opts.registry = &reg;
  const TrainingStepAnalysis ts =
      analyze_training_step(gcut_schema(), tiny_cfg(), opts);
  std::vector<Diagnostic> errors;
  for (const Diagnostic& d : ts.diagnostics) {
    if (d.severity == Severity::kError) errors.push_back(d);
  }
  return errors;
}

TEST(Mutation, WrongAdjointShapeIsOneAttributedFinding) {
  const auto errors = errors_with_defect("wrong-adjoint-shape");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, "adjoint-shape");
  EXPECT_EQ(errors[0].op, "row_sum");
  EXPECT_NE(errors[0].path.find("<-"), std::string::npos);
}

TEST(Mutation, DroppedAccumEdgeIsOneAttributedFinding) {
  // affine's adjoint silently loses the bias edge: no shape error anywhere,
  // but every bias slot ends the step with no gradient written — caught by
  // the def-before-use check over the optimizer slots.
  const auto errors = errors_with_defect("dropped-accum-edge");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, "grad-slot-undefined");
  EXPECT_NE(errors[0].message.find(".b"), std::string::npos)
      << errors[0].message;
  EXPECT_NE(errors[0].path.find("leaf("), std::string::npos);
}

TEST(Mutation, MislabeledDetClassIsOneAttributedFinding) {
  const auto errors = errors_with_defect("mislabel-det-class");
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0].code, "determinism-class");
  EXPECT_EQ(errors[0].op, "matmul_tn");
  EXPECT_FALSE(errors[0].path.empty());
}

TEST(Mutation, DefectClassListMatchesTheSeeder) {
  for (const std::string& defect : adjoint_defect_classes()) {
    OpRegistry reg = OpRegistry::builtin();
    EXPECT_TRUE(seed_adjoint_defect(reg, defect)) << defect;
  }
  OpRegistry reg = OpRegistry::builtin();
  EXPECT_FALSE(seed_adjoint_defect(reg, "no-such-defect"));
}

TEST(Mutation, LoadedPackageRoundTripPassesPreflight) {
  // Control arm: an unmutated package must preflight clean (and agree with
  // the census the analyzer predicts).
  const core::DoppelGanger model(gcut_schema(), tiny_cfg());
  std::ostringstream os;
  core::save_package(os, model);
  std::istringstream is(os.str());
  const core::PackagePreflight pf = core::preflight_package(is);
  EXPECT_TRUE(pf.ok) << core::render_diagnostics(pf.diagnostics);
  EXPECT_EQ(pf.weight_matrices.size(),
            expected_parameter_shapes(pf.schema, pf.config).size());
}

}  // namespace
}  // namespace dg::analysis
