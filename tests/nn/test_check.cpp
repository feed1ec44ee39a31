// Tests for the dgcheck invariant-checking layer (nn/check.h): anomaly
// detection with op attribution, guard nesting, tape audits, leak
// accounting, and gradcheck-as-a-library.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "gradcheck.h"
#include "nn/check.h"
#include "nn/layers.h"
#include "nn/rng.h"

namespace dg::nn {
namespace {

constexpr float kNan = std::numeric_limits<float>::quiet_NaN();

Matrix filled(int r, int c, float v) { return Matrix(r, c, v); }

/// The row of a test-only op: an elementwise row's facts under `name`.
OpDef custom_row(const char* name) {
  OpDef row = op_def(Op::kNeg);
  row.name = name;
  return row;
}

/// what() of the AnomalyError thrown by fn (fails the test if none is).
template <typename Fn>
std::string anomaly_message(Fn&& fn) {
  try {
    fn();
  } catch (const AnomalyError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected AnomalyError";
  return {};
}

TEST(AnomalyGuard, InactiveByDefault) {
  EXPECT_FALSE(anomaly_enabled());
  // NaN flows through unchecked when no guard is active.
  Var x(filled(1, 2, kNan), true);
  Var y = add_scalar(x, 1.0f);
  EXPECT_TRUE(std::isnan(y.value().at(0, 0)));
}

TEST(AnomalyGuard, ForwardNanCaughtWithOpAttribution) {
  AnomalyGuard guard;
  Var x(filled(2, 2, -1.0f), true);
  // log(-1) = nan; the error must name 'log' and show the graph path.
  const std::string msg =
      anomaly_message([&] { (void)log_(mul_scalar(x, 2.0f)); });
  EXPECT_NE(msg.find("forward of 'log'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("log <- mul_scalar"), std::string::npos) << msg;
  EXPECT_GT(guard.stats().forward_values_checked, 0u);
}

TEST(AnomalyGuard, NanInjectedMidGraphNamesTheOp) {
  AnomalyGuard guard;
  Var x(filled(2, 3, 0.5f), true);
  Var a = exp_(x);  // fine
  // The first op to *produce* a nan mid-graph is 'log' (of a negative);
  // detection fires there, not at the downstream mul/sum consumers.
  const std::string msg =
      anomaly_message([&] { (void)sum(mul(log_(neg(a)), ones(2, 3))); });
  EXPECT_NE(msg.find("'log'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("log <- neg <- exp"), std::string::npos) << msg;
}

TEST(AnomalyGuard, BackwardNanCaughtWithOpAttribution) {
  // sqrt(0) is finite but its backward rule divides by sqrt(0) -> inf.
  // With checking off the loss is clean, so only the backward scan sees it.
  AnomalyOptions opts;
  opts.check_forward = false;  // isolate the backward-side detection
  AnomalyGuard guard(opts);
  Var x(filled(1, 2, 0.0f), true);
  Var loss = sum(sqrt_(x));
  const std::string msg = anomaly_message([&] { loss.backward(); });
  EXPECT_NE(msg.find("backward rule of 'sqrt'"), std::string::npos) << msg;
  EXPECT_GT(guard.stats().backward_grads_checked, 0u);
}

TEST(AnomalyGuard, DeliberateNanInBackwardRuleIsAttributed) {
  // A custom op via make_op whose *rule* (not its value) emits nan — the
  // acceptance scenario for op-level attribution of backward anomalies.
  AnomalyGuard guard;
  Var x(filled(1, 3, 1.0f), true);
  Var bad = make_op(custom_row("bad_rule"), Matrix(x.value()), {x},
                    [](const Var& g, std::span<const bool>) {
                      Matrix m(g.rows(), g.cols(), kNan);
                      return std::vector<Var>{Var(std::move(m), false)};
                    });
  Var loss = sum(bad);
  const std::string msg = anomaly_message([&] { loss.backward(); });
  EXPECT_NE(msg.find("backward rule of 'bad_rule'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("parent #0"), std::string::npos) << msg;
}

TEST(AnomalyGuard, BackwardShapeMismatchIsAttributed) {
  AnomalyGuard guard;
  Var x(filled(2, 3, 1.0f), true);
  Var bad = make_op(custom_row("bad_shape"), Matrix(1, 1, 1.0f), {x},
                    [](const Var& g, std::span<const bool>) {
                      // 1x1 gradient for a 2x3 parent
                      return std::vector<Var>{g};
                    });
  const std::string msg = anomaly_message([&] { bad.backward(); });
  EXPECT_NE(msg.find("'bad_shape'"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[1x1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[2x3]"), std::string::npos) << msg;
}

TEST(AnomalyGuard, NestedWithNoGradGuard) {
  AnomalyGuard outer;
  EXPECT_TRUE(anomaly_enabled());
  EXPECT_TRUE(grad_enabled());
  {
    NoGradGuard no_grad;
    EXPECT_TRUE(anomaly_enabled());  // anomaly mode survives no-grad scopes
    EXPECT_FALSE(grad_enabled());
    // Forward checking still fires on ops built under no_grad.
    Var x(filled(1, 1, -2.0f), true);
    EXPECT_THROW((void)log_(x), AnomalyError);
    {
      AnomalyOptions relaxed;
      relaxed.check_forward = false;
      AnomalyGuard inner(relaxed);
      EXPECT_NO_THROW((void)log_(x));  // inner options win while nested
    }
    EXPECT_THROW((void)log_(x), AnomalyError);  // outer options restored
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(AnomalyGuard, NestedStatsFoldIntoOuterGuard) {
  AnomalyGuard outer;
  {
    AnomalyGuard inner;
    Var x(filled(2, 2, 1.0f), true);
    sum(mul(x, x)).backward();
    EXPECT_GT(inner.stats().forward_values_checked, 0u);
    EXPECT_EQ(inner.stats().backward_runs, 1u);
  }
  // The inner guard's work is not lost when it unwinds.
  EXPECT_GT(outer.stats().forward_values_checked, 0u);
  EXPECT_EQ(outer.stats().backward_runs, 1u);
}

TEST(AnomalyGuard, StaleGradAccumulationDetected) {
  AnomalyOptions opts;
  opts.forbid_stale_grads = true;
  AnomalyGuard guard(opts);
  Var x(filled(1, 2, 1.0f), true);
  sum(square(x)).backward();
  // Second backward without clear_grad: accumulation into a stale slot.
  EXPECT_THROW(sum(square(x)).backward(), AnomalyError);
  x.clear_grad();
  EXPECT_NO_THROW(sum(square(x)).backward());
  // Without the option, accumulation is legitimate and must keep working.
  x.clear_grad();
  AnomalyGuard permissive;
  sum(square(x)).backward();
  sum(square(x)).backward();
  EXPECT_FLOAT_EQ(x.grad().value().at(0, 0), 4.0f);
}

TEST(AnomalyGuard, TapeAuditFiresOnNonLeafGradSlot) {
  AnomalyGuard guard;
  Var x(filled(1, 2, 1.0f), true);
  Var mid = square(x);
  Var loss = sum(mid);
  // Simulate tape corruption: a grad_slot on an interior node.
  mid.node()->grad_slot = std::make_shared<detail::Node>();
  const std::string msg = anomaly_message([&] { loss.backward(); });
  EXPECT_NE(msg.find("non-leaf"), std::string::npos) << msg;
  EXPECT_NE(msg.find("'square'"), std::string::npos) << msg;
  mid.node()->grad_slot.reset();
}

TEST(AnomalyGuard, TapeLeakAuditDetectsBackwardClosureCycle) {
  AnomalyGuard guard;
  {
    Var x(filled(1, 1, 1.0f), true);
    // A backward closure capturing its own output Var is a shared_ptr
    // cycle: node -> backward -> node. The graph can never be freed.
    Var out = make_op(custom_row("leaky"), Matrix(1, 1, 2.0f), {x}, nullptr);
    out.node()->backward = [out](const Var& g, std::span<const bool>) {
      return std::vector<Var>{g};
    };
    ASSERT_GT(guard.leaked_nodes(), 0u);  // alive, as expected, in scope
    // ... but after the scope exits the cycle keeps the nodes alive:
    {
      Var probe = out;  // keep a handle to break the cycle later
      out = Var{};
      x = Var{};
      EXPECT_GT(guard.leaked_nodes(), 0u) << "cycle should leak the tape";
      probe.node()->backward = nullptr;  // break the cycle for LeakSanitizer
    }
  }
  EXPECT_EQ(guard.leaked_nodes(), 0u) << "acyclic teardown must free all nodes";
}

TEST(AnomalyGuard, CleanGraphLeavesNoLiveNodes) {
  AnomalyGuard guard;
  {
    Var x(filled(4, 3, 0.25f), true);
    Var loss = mean(square(tanh_(x)));
    loss.backward();
    x.clear_grad();
  }
  EXPECT_EQ(guard.leaked_nodes(), 0u);
}

TEST(AnomalyGuard, SecondOrderBackwardPassesCleanly) {
  // The WGAN-GP pattern: grad-of-grad with create_graph=true, under full
  // checking. Run under -DDG_SANITIZE=address;undefined this is also the
  // ASan/UBSan coverage for the second-order tape.
  AnomalyOptions opts;
  opts.forbid_stale_grads = true;
  AnomalyGuard guard(opts);
  Rng rng(3);
  Mlp critic(3, 1, 8, 2, rng);
  Matrix xm(5, 3);
  for (float& v : xm.flat()) v = static_cast<float>(rng.normal(0.0, 1.0));
  Var x(std::move(xm), true);
  Var out = sum(critic.forward(x));
  auto g = autograd::grad(out, std::vector<Var>{x}, /*create_graph=*/true);
  ASSERT_TRUE(g[0].defined());
  Var penalty = mean(square(add_scalar(row_l2_norm(g[0]), -1.0f)));
  critic.zero_grad();
  EXPECT_NO_THROW(penalty.backward());
  EXPECT_GE(guard.stats().backward_runs, 2u);  // inner grad + outer backward
  EXPECT_GT(guard.stats().backward_grads_checked, 0u);
}

TEST(FreezeGuard, RestoresRequiresGradAndBlocksAccumulation) {
  Rng rng(5);
  Mlp critic(2, 1, 4, 1, rng);
  Var x(filled(3, 2, 0.5f), true);
  {
    FreezeGuard freeze(critic);
    for (const Var& p : critic.parameters()) EXPECT_FALSE(p.requires_grad());
    sum(critic.forward(x)).backward();
    for (const Var& p : critic.parameters()) {
      EXPECT_FALSE(p.grad().defined()) << "frozen critic must not get grads";
    }
    EXPECT_TRUE(x.grad().defined()) << "input grads still flow when frozen";
  }
  for (const Var& p : critic.parameters()) EXPECT_TRUE(p.requires_grad());
}

TEST(GradCheckLibrary, StructuredResultReportsWorstElement) {
  const auto r = gradcheck(
      [](const std::vector<Var>& v) { return mean(square(tanh_(v[0]))); },
      {filled(2, 3, 0.3f)});
  EXPECT_TRUE(r.ok) << to_string(r);
  EXPECT_LT(r.max_abs_error, 1e-2f);

  // A deliberately wrong rule must be flagged.
  const auto wrong = gradcheck(
      [](const std::vector<Var>& v) {
        Var bad = make_op(custom_row("wrong_rule"), Matrix(v[0].value()),
                          {v[0]}, [](const Var& g, std::span<const bool>) {
                            return std::vector<Var>{mul_scalar(g, 3.0f)};
                          });
        return sum(bad);
      },
      {filled(1, 2, 1.0f)});
  EXPECT_FALSE(wrong.ok);
  EXPECT_EQ(wrong.worst_input, 0);
}

TEST(GraphPath, WalksFirstParentChain) {
  Var x(filled(1, 1, 1.0f), true);
  Var y = exp_(mul_scalar(x, 2.0f));
  const std::string path = detail::graph_path(y.node());
  EXPECT_EQ(path, "exp <- mul_scalar <- leaf");
}

}  // namespace
}  // namespace dg::nn
