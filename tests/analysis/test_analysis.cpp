// Unit tests for the static analyzer's foundations: the op registry's
// coverage of the real autograd surface, shape rules, poison-node error
// containment, graph-path attribution, the diagnostics renderers, and the
// engine's meta mode that the analyzer's traces run under.
#include "analysis/symbolic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>

#include "analysis/diag.h"
#include "analysis/model.h"
#include "analysis/registry.h"
#include "analysis/trace.h"
#include "nn/autograd.h"
#include "nn/rng.h"
#include "synth/synth.h"

namespace dg::analysis {
namespace {

const SymNode* op1(SymGraph& g, Op op, const SymNode* a,
                   const OpAttrs& attrs = {}) {
  const SymNode* p[] = {a};
  return g.apply(op, p, attrs);
}

const SymNode* op2(SymGraph& g, Op op, const SymNode* a, const SymNode* b) {
  const SymNode* p[] = {a, b};
  return g.apply(op, p);
}

OpAttrs range(int i0, int i1) {
  OpAttrs attrs;
  attrs.i0 = i0;
  attrs.i1 = i1;
  return attrs;
}

// The registry is a copy of the nn op table: the entry at each Op carries
// that row's facts, and names are unique, so the one lookup by name (a
// command-line flag) finds the row it names.
TEST(OpRegistry, CoversExactlyTheEngineOpSurface) {
  const OpRegistry& reg = OpRegistry::builtin();
  std::set<std::string> names;
  for (const nn::OpDef& row : nn::op_table()) {
    EXPECT_TRUE(names.insert(row.name).second) << "duplicate " << row.name;
    const OpInfo& info = reg[row.op];
    EXPECT_EQ(info.op, row.op) << row.name;
    EXPECT_STREQ(info.name, row.name);
    EXPECT_EQ(info.shape, row.shape) << row.name;
    EXPECT_EQ(info.det, row.det) << row.name;
    EXPECT_EQ(info.diff, row.diff) << row.name;
    EXPECT_EQ(nn::find_op(row.name), &row) << row.name;
  }
  EXPECT_EQ(names.size(), nn::kNumOps);
  EXPECT_EQ(nn::find_op("fused_gelu"), nullptr);
}

TEST(OpRegistry, NoBuiltinOpIsFirstOrderOnly) {
  // WGAN-GP depends on this: the whole engine supports double backward
  // (relu/abs via the zero-curvature mask). kFirstOrderOnly exists only as
  // an override class.
  const OpRegistry& reg = OpRegistry::builtin();
  for (const nn::OpDef& row : nn::op_table()) {
    EXPECT_NE(reg[row.op].diff, DiffClass::kFirstOrderOnly) << row.name;
  }
}

TEST(Shape, SymbolicDimsComposeAndPrint) {
  const Dim b = Dim::sym("B");
  EXPECT_FALSE(b.concrete());
  EXPECT_TRUE(Dim::of(3).concrete());
  EXPECT_EQ(add_dims(Dim::of(3), Dim::of(4)).str(), "7");
  const Shape bs{b, Dim::of(13)};
  EXPECT_EQ(bs.str(), "[B, 13]");
  // Symbolic + concrete folds into a derived symbol, equal to itself only.
  const Dim s = add_dims(b, Dim::of(5));
  EXPECT_EQ(s, add_dims(Dim::sym("B"), Dim::of(5)));
  EXPECT_FALSE(s == b);
}

TEST(SymGraph, MatmulInnerDimMismatchIsOneDiagnostic) {
  SymGraph g;
  auto* a = g.input("a", {Dim::sym("B"), Dim::of(3)});
  auto* w = g.param("w", {Dim::of(4), Dim::of(2)});
  auto* bad = op2(g, Op::kMatmul, a, w);  // 3 != 4
  EXPECT_TRUE(bad->poisoned);
  // Downstream consumers stay silent: one root cause, one finding.
  auto* out = op1(g, Op::kSum, op1(g, Op::kRelu, bad));
  EXPECT_TRUE(out->poisoned);
  ASSERT_EQ(g.diagnostics().size(), 1u);
  const Diagnostic& d = g.diagnostics()[0];
  EXPECT_EQ(d.code, "shape-mismatch");
  EXPECT_EQ(d.op, "matmul");
  EXPECT_NE(d.message.find("3"), std::string::npos);
  EXPECT_NE(d.path.find("matmul"), std::string::npos);
}

TEST(SymGraph, BroadcastRulesCheckVectorOrientation) {
  SymGraph g;
  auto* x = g.input("x", {Dim::sym("B"), Dim::of(6)});
  auto* row = g.input("", {Dim::of(1), Dim::of(6)});
  EXPECT_FALSE(op2(g, Op::kAddRowvec, x, row)->poisoned);
  auto* col = g.input("", {Dim::sym("B"), Dim::of(1)});
  EXPECT_FALSE(op2(g, Op::kMulColvec, x, col)->poisoned);
  EXPECT_FALSE(op2(g, Op::kAddColvec, x, col)->poisoned);
  // A column vector fed to the row-broadcast op must be caught.
  auto* bad = op2(g, Op::kAddRowvec, x, col);
  EXPECT_TRUE(bad->poisoned);
  EXPECT_EQ(g.diagnostics().size(), 1u);
}

TEST(SymGraph, SliceBoundsCheckedWhenConcrete) {
  SymGraph g;
  auto* x = g.input("x", {Dim::sym("B"), Dim::of(5)});
  auto* ok = op1(g, Op::kSliceCols, x, range(1, 4));
  EXPECT_FALSE(ok->poisoned);
  EXPECT_EQ(ok->shape.cols, Dim::of(3));
  auto* bad = op1(g, Op::kSliceCols, x, range(2, 9));
  EXPECT_TRUE(bad->poisoned);
  EXPECT_EQ(g.diagnostics().size(), 1u);
}

TEST(SymGraph, SoftmaxExpansionPreservesShape) {
  // Traced from nn::softmax_rows itself: the shift, the exponential and the
  // normalization are six engine ops, with no ones temporary.
  SymGraph g;
  Trace t(g);
  const SymNode* sm = nullptr;
  t.run([&] {
    const nn::Var x = nn::constant(nn::Matrix(kMetaBatch, 7));
    sm = t.node(nn::softmax_rows(x));
  });
  ASSERT_NE(sm, nullptr);
  EXPECT_FALSE(sm->poisoned);
  EXPECT_EQ(sm->shape.rows, Dim::sym("B"));
  EXPECT_EQ(sm->shape.cols, Dim::of(7));
  EXPECT_TRUE(g.diagnostics().empty());
  const std::map<std::string, int> expected = {
      {"constant", 1}, {"neg_row_max", 1}, {"add_colvec", 1}, {"exp", 1},
      {"row_sum", 1},  {"recip", 1},       {"mul_colvec", 1}};
  EXPECT_EQ(g.op_counts(), expected);
}

TEST(SymGraph, PathRendersFirstParentChain) {
  SymGraph g;
  auto* w = g.param("head.w", {Dim::of(3), Dim::of(1)});
  auto* x = g.input("x", {Dim::sym("B"), Dim::of(3)});
  auto* n = op1(g, Op::kSum, op2(g, Op::kMatmul, x, w));
  const std::string p = SymGraph::path(n);
  EXPECT_NE(p.find("sum <- matmul"), std::string::npos);
  EXPECT_NE(p.find("(x)"), std::string::npos);
}

TEST(Diagnostics, HumanAndJsonRenderings) {
  std::vector<Diagnostic> diags;
  diags.push_back({Severity::kError, "shape-mismatch", "inner dims 3 vs 4",
                   "matmul", "matmul <- leaf(w)"});
  diags.push_back(
      {Severity::kWarning, "aux-ignored", "say \"hi\"\n\b\x01", "w", ""});
  EXPECT_TRUE(has_errors(diags));
  std::ostringstream os;
  print_human(os, diags);
  EXPECT_NE(os.str().find("[error] shape-mismatch at matmul"),
            std::string::npos);
  EXPECT_NE(os.str().find("(path: matmul <- leaf(w))"), std::string::npos);
  const std::string json = to_json(diags);
  EXPECT_NE(json.find("\"code\":\"shape-mismatch\""), std::string::npos);
  // Quotes and control bytes must be escaped, not emitted raw: the short
  // escapes where JSON has one, \u00XX for the rest.
  EXPECT_NE(json.find("say \\\"hi\\\"\\n\\b\\u0001"), std::string::npos)
      << json;
  diags.erase(diags.begin());
  EXPECT_FALSE(has_errors(diags));
}

TEST(OpObserver, ReportsEveryMakeOpAndNests) {
  std::vector<std::string> outer_ops;
  int inner_calls = 0;
  nn::OpObserverGuard outer([&](const char* op, int, int) {
    outer_ops.push_back(op);
  });
  {
    nn::Matrix m(2, 3);
    nn::Var a = nn::constant(m);
    (void)nn::relu(a);
    {
      nn::OpObserverGuard inner(
          [&](const char*, int, int) { ++inner_calls; });
      (void)nn::tanh_(a);
    }
    (void)nn::sigmoid(a);
  }
  // Inner guard shadowed the outer for exactly the tanh call, then restored.
  EXPECT_EQ(inner_calls, 1);
  EXPECT_EQ(std::count(outer_ops.begin(), outer_ops.end(), "tanh"), 0);
  EXPECT_EQ(std::count(outer_ops.begin(), outer_ops.end(), "relu"), 1);
  EXPECT_EQ(std::count(outer_ops.begin(), outer_ops.end(), "sigmoid"), 1);
}

// make_op hands a call's attributes to the trace: a scalar op's node holds
// its scalar, slice and pad nodes their bounds, and the op's row kernel fed
// the traced attributes reproduces the op's forward bit for bit.
TEST(Trace, CallSiteAttrsReachTheTracedGraph) {
  SymGraph g;
  Trace t(g);
  nn::Var plus, times, slice, pad;
  t.run([&] {
    const nn::Var x(nn::Matrix(kMetaBatch, 6));
    plus = nn::add_scalar(x, 0.25f);
    times = nn::mul_scalar(x, -1.5f);
    slice = nn::slice_cols(x, 1, 4);
    pad = nn::pad_rows(x, 2, 3);
  });
  const SymNode* p = t.node(plus);
  const SymNode* m = t.node(times);
  const SymNode* s = t.node(slice);
  const SymNode* r = t.node(pad);
  ASSERT_TRUE(p && m && s && r);
  EXPECT_EQ(p->op, Op::kAddScalar);
  EXPECT_EQ(p->attrs.scalar, 0.25f);
  EXPECT_EQ(m->op, Op::kMulScalar);
  EXPECT_EQ(m->attrs.scalar, -1.5f);
  EXPECT_EQ(s->attrs.i0, 1);
  EXPECT_EQ(s->attrs.i1, 4);
  EXPECT_EQ(r->attrs.i0, 2);
  EXPECT_EQ(r->attrs.i1, 3);
  EXPECT_EQ(r->shape.str(), "[B+5, 6]");

  nn::Rng rng(9);
  const nn::Matrix v = rng.normal_matrix(5, 6);
  const nn::Matrix want = nn::add_scalar(v, 0.25f);
  nn::Matrix got(5, 6, std::numeric_limits<float>::quiet_NaN());
  const nn::RowIn in[] = {{v.data(), v.cols()}};
  nn::op_def(p->op).rows({in, got.data(), got.cols(), p->attrs}, 0, 5);
  EXPECT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(float)),
            0);
}

// ---- meta mode -------------------------------------------------------------

TEST(MetaMode, MatricesAreShapeOnlyAndKernelsAndDrawsDoNothing) {
  nn::Rng rng(5), reference(5);
  int observed = 0;
  nn::OpObserverGuard obs([&](const char*, int, int) { ++observed; });
  {
    nn::MetaModeGuard meta;
    const nn::Matrix noise = rng.normal_matrix(kMetaBatch, 64);
    EXPECT_EQ(noise.rows(), kMetaBatch);
    EXPECT_EQ(noise.cols(), 64);
    EXPECT_TRUE(noise.empty());
    const nn::Var w(rng.normal_matrix(64, 32), /*requires_grad=*/true);
    const nn::Var y = nn::softmax_rows(nn::matmul(nn::constant(noise), w));
    EXPECT_EQ(y.rows(), kMetaBatch);
    EXPECT_EQ(y.cols(), 32);
    EXPECT_TRUE(y.value().empty());
    nn::sum(y).backward();
    ASSERT_TRUE(w.grad().defined());
    EXPECT_EQ(w.grad().rows(), 64);
  }
  // No draw was consumed, and the observer never heard of the meta ops.
  EXPECT_EQ(rng.next_u64(), reference.next_u64());
  EXPECT_EQ(observed, 0);
  EXPECT_FALSE(nn::meta_mode());
  EXPECT_FALSE(nn::Matrix(2, 2).empty());
}

TEST(MetaMode, MetaModelHasShapeOnlyWeights) {
  const data::Schema schema =
      synth::make_gcut({.n = 4, .t_max = 20, .seed = 5}).schema;
  core::DoppelGangerConfig cfg;
  cfg.sample_len = 5;
  const auto model = meta_model(schema, cfg);
  const auto named = model->named_parameters();
  const auto expected = expected_parameter_shapes(schema, cfg);
  ASSERT_EQ(named.size(), expected.size());
  for (size_t i = 0; i < named.size(); ++i) {
    EXPECT_EQ(named[i].first, expected[i].name);
    EXPECT_EQ(named[i].second.rows(), expected[i].rows);
    EXPECT_EQ(named[i].second.cols(), expected[i].cols);
    EXPECT_TRUE(named[i].second.value().empty()) << named[i].first;
  }
}

}  // namespace
}  // namespace dg::analysis
