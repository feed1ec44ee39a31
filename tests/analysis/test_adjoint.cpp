// Static adjoint auditor tests:
//   * registry coverage — every row of the nn op table is in the builtin
//     registry with its determinism class and no seeded fault;
//   * the probe-based determinism audit proves the builtin classes out and
//     the ordered-reduction set is exactly the folding ops;
//   * traced-backward unit battery over small nn graphs run under meta mode
//     — the engine's own backward rules, recorded: gradients, accumulation,
//     scalar-root and create_graph gating, finding dedup;
//   * analyze_training_step — clean on every valid architecture variant,
//     gradient slots cover every optimizer parameter exactly once, and the
//     reduction-order census is consistent with the per-phase op multisets.
#include "analysis/adjoint.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "analysis/model.h"
#include "analysis/trace.h"
#include "analysis/train_step.h"
#include "core/doppelganger.h"
#include "nn/autograd.h"
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

// ---- registry coverage hard-gate ----------------------------------------

TEST(AdjointRegistry, EveryKnownOpDeclaresDetClass) {
  const OpRegistry& reg = OpRegistry::builtin();
  for (const nn::OpDef& row : nn::op_table()) {
    const OpInfo& info = reg[row.op];
    EXPECT_EQ(info.det, row.det) << row.name;
    EXPECT_FALSE(static_cast<bool>(info.fault))
        << row.name << " carries a seeded fault in the builtin registry";
  }
}

TEST(AdjointRegistry, BuiltinPassesTheDeterminismAudit) {
  // No errors AND no determinism-unverified warnings: every builtin op must
  // be provable by the generic shape probes, not merely declared.
  const auto diags = audit_registry(OpRegistry::builtin());
  for (const Diagnostic& d : diags) {
    ADD_FAILURE() << d.code << " at " << d.op << ": " << d.message;
  }
}

TEST(AdjointRegistry, OrderedReductionSetIsExactlyTheFoldingOps) {
  const std::set<std::string> folding = {
      "matmul", "matmul_nt", "matmul_tn", "affine",
      "lstm_gates", "row_sum", "col_sum", "sum"};
  const OpRegistry& reg = OpRegistry::builtin();
  for (const nn::OpDef& row : nn::op_table()) {
    const OpInfo& info = reg[row.op];
    if (row.op == Op::kGrad) {
      EXPECT_EQ(info.det, DetClass::kAccumulating);
    } else if (folding.count(row.name) != 0) {
      EXPECT_EQ(info.det, DetClass::kOrderedReduction) << row.name;
    } else {
      EXPECT_EQ(info.det, DetClass::kOrderFree) << row.name;
    }
  }
}

// ---- traced backward: the engine's rules under meta mode ------------------

nn::Var leaf(int rows, int cols) {
  return nn::Var(nn::Matrix(rows, cols), /*requires_grad=*/true);
}

TEST(SymBackward, ChainProducesShapeCheckedGradients) {
  SymGraph g;
  Trace t(g);
  nn::Var x, w;
  t.run([&] {
    x = nn::constant(nn::Matrix(4, 3));
    w = leaf(3, 2);
    nn::sum(nn::matmul(x, w)).backward();
  });
  EXPECT_TRUE(t.backward_ok());
  EXPECT_TRUE(g.diagnostics().empty());
  ASSERT_EQ(t.grad_slots().size(), 1u);
  EXPECT_EQ(t.grad_slots()[0], t.node(w));
  ASSERT_TRUE(w.grad().defined());
  EXPECT_EQ(w.grad().rows(), 3);
  EXPECT_EQ(w.grad().cols(), 2);
  // x is a constant: the engine does not flag it, so matmul's rule builds
  // only w's gradient, xᵀg (the forward matmul plus one matmul_tn).
  EXPECT_FALSE(x.grad().defined());
  EXPECT_EQ(g.op_counts().at("matmul"), 1);
  EXPECT_EQ(g.op_counts().at("matmul_tn"), 1);
  EXPECT_EQ(g.op_counts().count("matmul_nt"), 0u);
  EXPECT_TRUE(t.accumulations().empty());
}

TEST(SymBackward, SharedParameterAccumulates) {
  SymGraph g;
  Trace t(g);
  nn::Var w;
  t.run([&] {
    // w feeds the loss through two paths (mul uses it twice, add once
    // more): each extra contribution merges through an engine "add".
    w = leaf(2, 2);
    nn::sum(nn::add(nn::mul(w, w), w)).backward();
  });
  EXPECT_TRUE(t.backward_ok());
  ASSERT_TRUE(w.grad().defined());
  EXPECT_EQ(w.grad().rows(), 2);
  ASSERT_EQ(t.accumulations().size(), 2u);
  for (const SymNode* acc : t.accumulations()) EXPECT_EQ(acc->op, Op::kAdd);
  EXPECT_EQ(t.grad_slots().size(), 1u);
}

TEST(SymBackward, NonScalarRootIsDiagnosed) {
  SymGraph g;
  Trace t(g);
  t.run([&] {
    const nn::Var w = leaf(2, 2);
    nn::mul(w, w).backward();  // the engine refuses a non-scalar root
  });
  EXPECT_FALSE(t.backward_ok());
  ASSERT_EQ(g.diagnostics().size(), 1u);
  EXPECT_EQ(g.diagnostics()[0].code, "trace-error");
  EXPECT_NE(g.diagnostics()[0].message.find("scalar"), std::string::npos);
  EXPECT_TRUE(t.grad_slots().empty());
}

TEST(SymBackward, NoGradRootIsANoOp) {
  SymGraph g;
  Trace t(g);
  t.run([&] { nn::sum(nn::constant(nn::Matrix(3, 3))).backward(); });
  EXPECT_TRUE(t.backward_ok());
  EXPECT_TRUE(t.grad_slots().empty());
  EXPECT_TRUE(g.diagnostics().empty());
  EXPECT_EQ(g.size(), 2);  // the constant and its sum; no backward nodes
}

TEST(SymBackward, WrongGradientShapeIsDiagnosedOncePerOp) {
  OpRegistry reg = OpRegistry::builtin();
  reg[Op::kTanh].fault = [](std::vector<nn::Var>& grads, const nn::Var&) {
    grads[0] = nn::sum(grads[0]);  // [2,2] collapsed to [1,1]
  };
  SymGraph g(&reg);
  Trace t(g);
  nn::Var w;
  t.run([&] {
    // Two tanh nodes on the path: dedup must still yield ONE finding, and
    // the dropped gradient must not reach the engine's own shape check.
    w = leaf(2, 2);
    nn::sum(nn::tanh_(nn::add(nn::tanh_(w), w))).backward();
  });
  EXPECT_FALSE(t.backward_ok());
  ASSERT_EQ(g.diagnostics().size(), 1u);
  EXPECT_EQ(g.diagnostics()[0].code, "adjoint-shape");
  EXPECT_EQ(g.diagnostics()[0].op, "tanh");
  EXPECT_NE(g.diagnostics()[0].path.find("<-"), std::string::npos);
}

TEST(SymBackward, FirstOrderOpGatesOnCreateGraph) {
  OpRegistry reg = OpRegistry::builtin();
  reg[Op::kRelu].diff = DiffClass::kFirstOrderOnly;
  {
    SymGraph g(&reg);
    Trace t(g);
    t.run([&] { nn::sum(nn::relu(leaf(2, 2))).backward(); });
    EXPECT_TRUE(t.backward_ok())
        << "first-order ops are fine without create_graph";
    EXPECT_TRUE(g.diagnostics().empty());
  }
  {
    SymGraph g(&reg);
    Trace t(g);
    t.run([&] {
      const nn::Var w = leaf(2, 2);
      const nn::Var inputs[] = {w};
      nn::autograd::grad(nn::sum(nn::relu(w)), inputs,
                         /*create_graph=*/true);
    });
    EXPECT_FALSE(t.backward_ok());
    ASSERT_EQ(g.diagnostics().size(), 1u);
    EXPECT_EQ(g.diagnostics()[0].code, "no-double-backward");
    EXPECT_EQ(g.diagnostics()[0].op, "relu");
  }
}

// ---- analyze_training_step ----------------------------------------------

TEST(TrainStep, CleanAcrossArchitectureVariants) {
  const data::Schema schemas[] = {
      gcut_schema(), synth::make_wwt({.n = 4, .t = 20, .seed = 5}).schema,
      synth::make_mba({.n = 4, .t = 20, .seed = 5}).schema};
  for (const data::Schema& schema : schemas) {
    for (const bool minmax : {true, false}) {
      for (const bool aux : {true, false}) {
        core::DoppelGangerConfig cfg = tiny_cfg();
        cfg.use_minmax_generator = minmax;
        cfg.use_aux_discriminator = aux;
        SCOPED_TRACE(std::string("minmax=") + (minmax ? "1" : "0") +
                     " aux=" + (aux ? "1" : "0"));
        const TrainingStepAnalysis ts = analyze_training_step(schema, cfg);
        for (const Diagnostic& d : ts.diagnostics) {
          EXPECT_NE(d.severity, Severity::kError)
              << d.code << ": " << d.message << " at " << d.op;
        }
        // Every optimizer parameter's gradient slot is written exactly
        // once across the three backward phases (critic params in their
        // critic step, generator params in the generator step).
        EXPECT_EQ(ts.grad_slot_writes,
                  static_cast<int>(expected_parameter_shapes(schema, cfg).size()));
        EXPECT_GT(ts.accumulation_adds, 0);
        EXPECT_GT(ts.graph_nodes, 0);
        EXPECT_FALSE(ts.fake_forward_ops.empty());
        EXPECT_FALSE(ts.critic_step_ops.empty());
        EXPECT_EQ(ts.aux_critic_step_ops.empty(), !aux);
        EXPECT_FALSE(ts.generator_step_ops.empty());
      }
    }
  }
}

TEST(TrainStep, CensusIsConsistentWithPhaseMultisets) {
  const data::Schema schema = gcut_schema();
  core::DoppelGangerConfig cfg = tiny_cfg();
  cfg.use_aux_discriminator = true;
  const TrainingStepAnalysis ts = analyze_training_step(schema, cfg);
  ASSERT_TRUE(ts.ok());

  std::map<std::string, int> combined;
  for (const auto* m : {&ts.fake_forward_ops, &ts.critic_step_ops,
                        &ts.aux_critic_step_ops, &ts.generator_step_ops}) {
    for (const auto& [op, count] : *m) combined[op] += count;
  }

  const OpRegistry& reg = OpRegistry::builtin();
  std::map<std::string, int> census_by_op;
  for (const ReductionSite& site : ts.census) {
    EXPECT_GT(site.count, 0) << site.op;
    EXPECT_FALSE(site.where.empty()) << site.op;
    if (site.det == DetClass::kOrderedReduction) {
      census_by_op[site.op] = site.count;
      // Census count == total instances across the four phase graphs.
      EXPECT_EQ(site.count, combined[site.op]) << site.op;
    }
  }
  // Completeness: every ordered-reduction op that occurs in any phase is in
  // the census — no silent omission a data-parallel all-reduce would miss.
  for (const nn::OpDef& row : nn::op_table()) {
    if (reg[row.op].det == DetClass::kOrderedReduction) {
      EXPECT_EQ(census_by_op[row.name], combined[row.name]) << row.name;
    }
  }
  // The WGAN-GP training path exercises every folding op class.
  for (const char* op : {"matmul", "matmul_nt", "matmul_tn", "affine",
                         "lstm_gates", "row_sum", "col_sum", "sum"}) {
    EXPECT_GT(census_by_op[op], 0) << op;
  }
  // And the two kAccumulating entries match the counters.
  int slot_count = -1, merge_count = -1;
  for (const ReductionSite& site : ts.census) {
    if (site.op == "grad-slot") slot_count = site.count;
    if (site.op == "grad-accumulate") merge_count = site.count;
  }
  EXPECT_EQ(slot_count, ts.grad_slot_writes);
  EXPECT_EQ(merge_count, ts.accumulation_adds);
}

TEST(TrainStep, GpPathFirstOrderOpIsRefusedAtTheBackwardPass) {
  // The downgraded op is caught where the gradient penalty's double
  // backward actually traverses it, with a graph path into the critic, and
  // a loss that never differentiates gradients stays clean.
  const data::Schema schema = gcut_schema();
  const core::DoppelGangerConfig cfg = tiny_cfg();
  OpRegistry reg = OpRegistry::builtin();
  reg[Op::kRelu].diff = DiffClass::kFirstOrderOnly;
  TrainStepOptions opts;
  opts.registry = &reg;

  const TrainingStepAnalysis ts = analyze_training_step(schema, cfg, opts);
  bool found = false;
  for (const Diagnostic& d : ts.diagnostics) {
    if (d.code == "no-double-backward" && d.severity == Severity::kError) {
      found = true;
      EXPECT_EQ(d.op, "relu");
      EXPECT_NE(d.path.find("relu"), std::string::npos);
      EXPECT_NE(d.path.find("<-"), std::string::npos);
    }
  }
  EXPECT_TRUE(found);

  core::DoppelGangerConfig std_cfg = cfg;
  std_cfg.loss = core::GanLoss::Standard;
  const TrainingStepAnalysis std_ts =
      analyze_training_step(schema, std_cfg, opts);
  EXPECT_TRUE(std_ts.ok()) << "standard GAN loss has no double backward";
}

TEST(TrainStep, UnconstructibleConfigShortCircuits) {
  // An invalid config is reported with validate_config's own findings and
  // never traced.
  core::DoppelGangerConfig cfg = tiny_cfg();
  cfg.sample_len = 0;
  cfg.lr = 0.0f;
  const TrainingStepAnalysis ts = analyze_training_step(gcut_schema(), cfg);
  EXPECT_EQ(ts.diagnostics, validate_config(gcut_schema(), cfg));
  ASSERT_EQ(ts.diagnostics.size(), 2u);
  EXPECT_EQ(ts.diagnostics[0].code, "config-invalid");
  EXPECT_EQ(ts.diagnostics[0].op, "sample_len");
  EXPECT_EQ(ts.diagnostics[1].code, "config-invalid");
  EXPECT_EQ(ts.diagnostics[1].op, "lr");
  EXPECT_FALSE(ts.ok());
  EXPECT_EQ(ts.graph_nodes, 0);
}

}  // namespace
}  // namespace dg::analysis
