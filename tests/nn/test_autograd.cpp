#include "nn/autograd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "gradcheck.h"

namespace dg::nn {
namespace {

using dg::testing::max_grad_error;

Matrix rand_mat(int r, int c, uint64_t seed, double lo = -1.0, double hi = 1.0) {
  Rng rng(seed);
  return rng.uniform_matrix(r, c, lo, hi);
}

TEST(Autograd, LeafBasics) {
  Var x(Matrix(2, 2, 3.0f), true);
  EXPECT_TRUE(x.requires_grad());
  EXPECT_TRUE(x.is_leaf());
  EXPECT_FALSE(x.grad().defined());
  Var d = x.detach();
  EXPECT_FALSE(d.requires_grad());
  EXPECT_TRUE(allclose(d.value(), x.value()));
}

TEST(Autograd, BackwardRequiresScalar) {
  Var x(Matrix(2, 2, 1.0f), true);
  EXPECT_THROW(x.backward(), std::invalid_argument);
}

TEST(Autograd, SimpleChain) {
  Var x(Matrix(1, 1, 3.0f), true);
  Var y = mul(x, x);  // x^2
  y.backward();
  EXPECT_FLOAT_EQ(y.value().at(0, 0), 9.0f);
  EXPECT_FLOAT_EQ(x.grad().value().at(0, 0), 6.0f);
}

TEST(Autograd, GradAccumulatesAcrossBackwardCalls) {
  Var x(Matrix(1, 1, 2.0f), true);
  Var y1 = mul(x, x);
  y1.backward();
  Var y2 = mul(x, x);
  y2.backward();
  EXPECT_FLOAT_EQ(x.grad().value().at(0, 0), 8.0f);  // 4 + 4
  x.clear_grad();
  EXPECT_FALSE(x.grad().defined());
}

TEST(Autograd, DiamondGraphAccumulation) {
  // y = x*x + x*x, shared subexpression used twice
  Var x(Matrix(1, 1, 3.0f), true);
  Var sq = mul(x, x);
  Var y = add(sq, sq);
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().value().at(0, 0), 12.0f);
}

TEST(Autograd, NoGradGuardSuppressesGraph) {
  Var x(Matrix(1, 1, 2.0f), true);
  {
    NoGradGuard guard;
    EXPECT_FALSE(grad_enabled());
    Var y = mul(x, x);
    EXPECT_FALSE(y.requires_grad());
  }
  EXPECT_TRUE(grad_enabled());
}

TEST(Autograd, ConstantsCarryNoGrad) {
  Var c = constant(Matrix(2, 2, 1.0f));
  Var d = ones(2, 2);
  Var y = mean(mul(c, d));
  EXPECT_FALSE(y.requires_grad());
}

// ---- finite-difference checks per op ----

TEST(AutogradGradcheck, AddSubNegMulDiv) {
  auto in = std::vector<Matrix>{rand_mat(3, 4, 1), rand_mat(3, 4, 2, 0.5, 2.0)};
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(add(v[0], v[1]));
                },
                in),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(mul(sub(v[0], v[1]), v[0]));
                },
                in),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(div(v[0], v[1]));
                },
                in),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(neg(v[0])); }, in),
            2e-2f);
}

TEST(AutogradGradcheck, ScalarOps) {
  auto in = std::vector<Matrix>{rand_mat(2, 5, 3)};
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(mul_scalar(add_scalar(v[0], 0.7f), -1.3f));
                },
                in),
            2e-2f);
}

TEST(AutogradGradcheck, MatmulTranspose) {
  auto in = std::vector<Matrix>{rand_mat(3, 4, 4), rand_mat(4, 2, 5)};
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(matmul(v[0], v[1]));
                },
                in),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(matmul(transpose(v[0]), transpose(v[1]))));
                },
                std::vector<Matrix>{rand_mat(3, 2, 6), rand_mat(4, 3, 7)}),
            5e-2f);
}

/// sum(square(d)) over the first-order gradients d of sum(square(f(v)))
/// with respect to every input, taken with create_graph: its gradient runs
/// the backward rules of f's first-order rule nodes, so a gradcheck of it
/// checks f's second order.
Var squared_gradient(const GradCheckFn& f, const std::vector<Var>& v) {
  const std::vector<Var> d =
      autograd::grad(sum(square(f(v))), v, /*create_graph=*/true);
  Var total = sum(square(d[0]));
  for (std::size_t i = 1; i < d.size(); ++i) {
    total = add(total, sum(square(d[i])));
  }
  return total;
}

TEST(AutogradGradcheck, MatmulNTAndTN) {
  const GradCheckFn nt = [](const std::vector<Var>& v) {
    return matmul_nt(v[0], v[1]);
  };
  const GradCheckFn tn = [](const std::vector<Var>& v) {
    return matmul_tn(v[0], v[1]);
  };
  // a [3,4] with b [2,4] (a·bᵀ), and a [3,4] with b [3,2] (aᵀ·b).
  const std::vector<Matrix> nt_in = {rand_mat(3, 4, 8), rand_mat(2, 4, 9)};
  const std::vector<Matrix> tn_in = {rand_mat(3, 4, 10), rand_mat(3, 2, 11)};
  for (const auto& [f, in] : {std::pair{nt, nt_in}, std::pair{tn, tn_in}}) {
    EXPECT_LT(max_grad_error(
                  [&f](const std::vector<Var>& v) { return sum(square(f(v))); },
                  in),
              2e-2f);
    EXPECT_LT(max_grad_error(
                  [&f](const std::vector<Var>& v) {
                    return squared_gradient(f, v);
                  },
                  in),
              5e-2f);
  }
}

TEST(AutogradGradcheck, Broadcasts) {
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(add_rowvec(v[0], v[1])));
                },
                {rand_mat(3, 4, 8), rand_mat(1, 4, 9)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(mul_colvec(v[0], v[1])));
                },
                {rand_mat(3, 4, 10), rand_mat(3, 1, 11)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(mul_rowvec(v[0], v[1])));
                },
                {rand_mat(3, 4, 12), rand_mat(1, 4, 13)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(broadcast_scalar(v[0], 3, 5)));
                },
                {rand_mat(1, 1, 14)}),
            5e-2f);
}

TEST(AutogradGradcheck, Reductions) {
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(row_sum(v[0])));
                },
                {rand_mat(3, 4, 15)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(col_sum(v[0])));
                },
                {rand_mat(3, 4, 16)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return mean(square(v[0])); },
                {rand_mat(3, 4, 17)}),
            2e-2f);
}

TEST(AutogradGradcheck, Nonlinearities) {
  auto pos = std::vector<Matrix>{rand_mat(3, 4, 18, 0.2, 2.0)};
  auto any = std::vector<Matrix>{rand_mat(3, 4, 19)};
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(tanh_(v[0])); }, any),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(sigmoid(v[0])); }, any),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(exp_(v[0])); }, any),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(log_(v[0])); }, pos),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(sqrt_(v[0])); }, pos),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(square(v[0])); }, any),
            2e-2f);
}

TEST(AutogradGradcheck, ReluAndAbsAwayFromKink) {
  // Keep inputs away from 0 so finite differences are valid.
  Matrix m = rand_mat(3, 4, 20);
  for (float& v : m.flat()) v = (v >= 0 ? v + 0.5f : v - 0.5f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(relu(v[0])); }, {m}),
            2e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) { return sum(abs_(v[0])); }, {m}),
            2e-2f);
}

TEST(AutogradGradcheck, ShapeOps) {
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  std::vector<Var> parts{v[0], v[1]};
                  return sum(square(concat_cols(parts)));
                },
                {rand_mat(3, 2, 21), rand_mat(3, 3, 22)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  std::vector<Var> parts{v[0], v[1]};
                  return sum(square(concat_rows(parts)));
                },
                {rand_mat(2, 3, 23), rand_mat(1, 3, 24)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(slice_cols(v[0], 1, 3)));
                },
                {rand_mat(3, 4, 25)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(slice_rows(v[0], 0, 2)));
                },
                {rand_mat(3, 4, 26)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(square(pad_cols(v[0], 2, 1)));
                },
                {rand_mat(3, 4, 27)}),
            5e-2f);
}

TEST(AutogradGradcheck, SoftmaxAndNorm) {
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  // pick out a fixed "class" mass so the gradient is nonzero
                  Var p = softmax_rows(v[0]);
                  return sum(square(slice_cols(p, 0, 1)));
                },
                {rand_mat(3, 4, 28)}),
            5e-2f);
  EXPECT_LT(max_grad_error(
                [](const std::vector<Var>& v) {
                  return sum(row_l2_norm(v[0]));
                },
                {rand_mat(3, 4, 29, 0.3, 2.0)}),
            5e-2f);
}

TEST(Autograd, SoftmaxRowsSumToOne) {
  Rng rng(31);
  Var x(rng.uniform_matrix(5, 7, -30.0, 30.0), false);
  Var p = softmax_rows(x);
  Matrix rs = dg::nn::row_sum(p.value());
  for (int i = 0; i < rs.rows(); ++i) EXPECT_NEAR(rs.at(i, 0), 1.0f, 1e-5f);
  for (float v : p.value().flat()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
}

// ---- higher-order gradients ----

TEST(AutogradSecondOrder, CubeHessian) {
  // y = sum(x^3); dy/dx = 3x^2; d/dx sum(dy/dx) = 6x
  Matrix xm = Matrix::from({{1.0f, -2.0f, 0.5f}});
  Var x(xm, true);
  Var y = sum(mul(square(x), x));
  auto g = autograd::grad(y, std::vector<Var>{x}, /*create_graph=*/true);
  ASSERT_TRUE(g[0].defined());
  EXPECT_TRUE(allclose(g[0].value(), Matrix::from({{3.0f, 12.0f, 0.75f}}), 1e-4f));
  Var gsum = sum(g[0]);
  gsum.backward();
  EXPECT_TRUE(allclose(x.grad().value(), Matrix::from({{6.0f, -12.0f, 3.0f}}), 1e-4f));
}

TEST(AutogradSecondOrder, GradWithoutCreateGraphIsConstant) {
  Var x(Matrix(1, 3, 2.0f), true);
  Var y = sum(mul(x, x));
  auto g = autograd::grad(y, std::vector<Var>{x}, /*create_graph=*/false);
  ASSERT_TRUE(g[0].defined());
  EXPECT_FALSE(g[0].requires_grad());
  EXPECT_FALSE(x.grad().defined());  // grad() slots untouched
}

TEST(AutogradSecondOrder, GradientPenaltyMatchesFiniteDifference) {
  // Full WGAN-GP style loss through a small MLP discriminator: check the
  // double-backprop gradient w.r.t. a weight against finite differences.
  Rng rng(77);
  Mlp disc(4, 1, 8, 2, rng);
  Var xhat(rng.uniform_matrix(5, 4, -1.0, 1.0), /*requires_grad=*/true);

  auto gp_loss = [&]() {
    Var out = sum(disc.forward(xhat));
    auto g = autograd::grad(out, std::vector<Var>{xhat}, /*create_graph=*/true);
    Var norms = row_l2_norm(g[0]);
    return mean(square(add_scalar(norms, -1.0f)));
  };

  Var loss = gp_loss();
  disc.zero_grad();
  loss.backward();

  // Probe several entries of the first weight matrix.
  Var w = disc.parameters()[0];
  ASSERT_TRUE(w.grad().defined());
  const float h = 1e-3f;
  for (int probe = 0; probe < 5; ++probe) {
    const int idx = probe * 3;
    float* wp = w.mutable_value().data() + idx;
    const float orig = *wp;
    *wp = orig + h;
    const float lp = gp_loss().value().at(0, 0);
    *wp = orig - h;
    const float lm = gp_loss().value().at(0, 0);
    *wp = orig;
    const float numeric = (lp - lm) / (2 * h);
    const float analytic = w.grad().value().data()[idx];
    EXPECT_NEAR(analytic, numeric, 5e-2f * std::max(1.0f, std::fabs(numeric)));
  }
}

TEST(Autograd, GradSkipsUnreachableInputs) {
  Var x(Matrix(1, 1, 1.0f), true);
  Var z(Matrix(1, 1, 1.0f), true);
  Var y = mul(x, x);
  auto g = autograd::grad(y, std::vector<Var>{x, z});
  EXPECT_TRUE(g[0].defined());
  EXPECT_FALSE(g[1].defined());
}

TEST(Autograd, MutableValueOnNonLeafThrows) {
  Var x(Matrix(1, 1, 1.0f), true);
  Var y = mul(x, x);
  EXPECT_THROW(y.mutable_value(), std::logic_error);
}

TEST(Autograd, BackwardOnConstantIsNoOp) {
  Var c = constant(Matrix(1, 1, 2.0f));
  Var y = mul(c, c);
  EXPECT_NO_THROW(y.backward());
  EXPECT_FALSE(c.grad().defined());
}

TEST(Autograd, BroadcastScalarRequiresScalar) {
  Var v(Matrix(2, 1, 1.0f), false);
  EXPECT_THROW(broadcast_scalar(v, 2, 2), std::invalid_argument);
}

TEST(Autograd, UndefinedVarAccessThrows) {
  Var v;
  EXPECT_FALSE(v.defined());
  EXPECT_THROW(v.value(), std::logic_error);
  EXPECT_THROW(v.backward(), std::logic_error);
}

TEST(Autograd, DetachBlocksGradientFlow) {
  Var x(Matrix(1, 1, 3.0f), true);
  Var y = mul(x.detach(), x);  // only one path carries gradient
  y.backward();
  EXPECT_FLOAT_EQ(x.grad().value().at(0, 0), 3.0f);  // d/dx (c*x) = c = 3
}

TEST(Autograd, GradThroughSharedSubgraphTwice) {
  // grad() twice on the same graph must give the same answer (no state
  // pollution between calls).
  Var x(Matrix(1, 1, 2.0f), true);
  Var y = mul(square(x), x);
  auto g1 = autograd::grad(y, std::vector<Var>{x});
  auto g2 = autograd::grad(y, std::vector<Var>{x});
  EXPECT_FLOAT_EQ(g1[0].value().at(0, 0), 12.0f);
  EXPECT_FLOAT_EQ(g2[0].value().at(0, 0), 12.0f);
  EXPECT_FALSE(x.grad().defined());
}

TEST(Autograd, LongChainDeepGraph) {
  // Deep chains exercise the iterative (non-recursive) topo sort.
  Var x(Matrix(1, 1, 1.0f), true);
  Var y = x;
  for (int i = 0; i < 2000; ++i) y = add_scalar(mul_scalar(y, 0.999f), 0.001f);
  Var loss = sum(y);
  loss.backward();
  EXPECT_TRUE(x.grad().defined());
  EXPECT_NEAR(x.grad().value().at(0, 0), std::pow(0.999f, 2000.f), 1e-3f);
}

// ---- backward builds only the gradients it reads ---------------------------

/// Counts the op nodes each named op gets while `fn` runs.
template <class Fn>
std::map<std::string, int> op_census(Fn&& fn) {
  std::map<std::string, int> counts;
  OpObserverGuard obs([&](const char* op, int, int) { ++counts[op]; });
  fn();
  return counts;
}

TEST(AutogradNeeds, ConstantOperandGetsNoGradient) {
  const Var x = constant(rand_mat(4, 3, 1));
  const Var w(rand_mat(3, 2, 2), true);
  const auto counts = op_census([&] { sum(matmul(x, w)).backward(); });
  // The forward matmul and w's xᵀg, which reads x in place; x's g·wᵀ is
  // never built.
  EXPECT_EQ(counts.at("matmul"), 1);
  EXPECT_EQ(counts.at("matmul_tn"), 1);
  EXPECT_EQ(counts.count("matmul_nt"), 0u);
  EXPECT_EQ(counts.count("transpose"), 0u);
  EXPECT_TRUE(w.grad().defined());
  EXPECT_FALSE(x.grad().defined());
}

TEST(AutogradNeeds, FrozenMlpBuildsOnlyInputGradients) {
  Rng rng(3);
  const Mlp mlp(5, 2, 7, 2, rng);  // three affine layers
  const Var x(rand_mat(4, 5, 4), true);
  const Var loss = sum(mlp.forward(x));
  const FreezeGuard freeze(mlp);
  const auto counts = op_census([&] { loss.backward(); });
  EXPECT_EQ(counts.count("col_sum"), 0u);
  EXPECT_EQ(counts.at("matmul_nt"), 3);  // g·Wᵀ per layer, no dW
  EXPECT_EQ(counts.count("matmul_tn"), 0u);
  EXPECT_TRUE(x.grad().defined());
  for (const Var& p : mlp.parameters()) EXPECT_FALSE(p.grad().defined());
}

TEST(AutogradNeeds, InputGradientSkipsWeightGradients) {
  Rng rng(5);
  const Mlp mlp(5, 2, 7, 2, rng);  // parameters require grad, unrequested
  const Var x(rand_mat(4, 5, 6), true);
  const Var out = sum(mlp.forward(x));
  std::vector<int> matmul_rows;
  int col_sums = 0, weight_grads = 0;
  std::vector<Var> g;
  {
    OpObserverGuard obs([&](const char* op, int rows, int) {
      if (std::strcmp(op, "matmul_nt") == 0) matmul_rows.push_back(rows);
      if (std::strcmp(op, "matmul_tn") == 0) ++weight_grads;
      if (std::strcmp(op, "col_sum") == 0) ++col_sums;
    });
    g = autograd::grad(out, std::vector<Var>{x}, /*create_graph=*/true);
  }
  ASSERT_TRUE(g[0].defined());
  EXPECT_EQ(col_sums, 0);
  EXPECT_EQ(weight_grads, 0);  // no xᵀg
  // One g·Wᵀ per layer, each [batch, fan-in].
  EXPECT_EQ(matmul_rows, (std::vector<int>{4, 4, 4}));
}

/// One multi-parent op over leaves of the given shapes.
struct MultiParentCase {
  const char* name;
  std::vector<std::pair<int, int>> shapes;
  std::function<Var(const std::vector<Var>&)> op;
};

std::vector<MultiParentCase> multi_parent_cases() {
  std::vector<MultiParentCase> cases = {
      {"add", {{3, 4}, {3, 4}}, [](const auto& v) { return add(v[0], v[1]); }},
      {"sub", {{3, 4}, {3, 4}}, [](const auto& v) { return sub(v[0], v[1]); }},
      {"mul", {{3, 4}, {3, 4}}, [](const auto& v) { return mul(v[0], v[1]); }},
      {"div", {{3, 4}, {3, 4}}, [](const auto& v) { return div(v[0], v[1]); }},
      {"matmul", {{3, 4}, {4, 5}},
       [](const auto& v) { return matmul(v[0], v[1]); }},
      {"matmul_nt", {{3, 4}, {5, 4}},
       [](const auto& v) { return matmul_nt(v[0], v[1]); }},
      {"matmul_tn", {{3, 4}, {3, 5}},
       [](const auto& v) { return matmul_tn(v[0], v[1]); }},
      {"affine", {{3, 4}, {4, 5}, {1, 5}},
       [](const auto& v) { return affine(v[0], v[1], v[2]); }},
      {"lstm_gates", {{3, 4}, {4, 8}, {3, 2}, {2, 8}, {1, 8}},
       [](const auto& v) { return lstm_gates(v[0], v[1], v[2], v[3], v[4]); }},
      {"add_rowvec", {{3, 4}, {1, 4}},
       [](const auto& v) { return add_rowvec(v[0], v[1]); }},
      {"add_colvec", {{3, 4}, {3, 1}},
       [](const auto& v) { return add_colvec(v[0], v[1]); }},
      {"mul_colvec", {{3, 4}, {3, 1}},
       [](const auto& v) { return mul_colvec(v[0], v[1]); }},
      {"mul_rowvec", {{3, 4}, {1, 4}},
       [](const auto& v) { return mul_rowvec(v[0], v[1]); }},
      {"concat_rows", {{1, 3}, {2, 3}, {3, 3}},
       [](const auto& v) { return concat_rows(v); }},
  };
  // More parts than a 64-bit mask holds, of varying widths.
  MultiParentCase wide{"concat_cols", {}, [](const auto& v) {
                         return concat_cols(v);
                       }};
  for (int i = 0; i < 70; ++i) wide.shapes.push_back({3, 1 + i % 3});
  cases.push_back(std::move(wide));
  return cases;
}

TEST(AutogradNeeds, SingleInputGradientIsBitwiseTheFullOne) {
  const std::vector<MultiParentCase> cases = multi_parent_cases();
  std::set<std::string> covered;
  for (const MultiParentCase& c : cases) {
    SCOPED_TRACE(c.name);
    covered.insert(c.name);
    std::vector<Var> leaves;
    std::uint64_t seed = 10;
    for (const auto& [r, cols] : c.shapes) {
      // Away from zero, so div's divisor is safe.
      leaves.emplace_back(rand_mat(r, cols, seed++, 0.5, 1.5), true);
    }
    const Var y = c.op(leaves);
    // A non-uniform output weighting, so every gradient entry differs.
    const Var out = sum(mul(y, constant(rand_mat(y.rows(), y.cols(), 99))));
    for (const bool create_graph : {false, true}) {
      SCOPED_TRACE(create_graph ? "create_graph" : "first order");
      const std::vector<Var> all = autograd::grad(out, leaves, create_graph);
      ASSERT_EQ(all.size(), leaves.size());
      for (size_t i = 0; i < leaves.size(); ++i) {
        const Var one =
            autograd::grad(out, std::span(&leaves[i], 1), create_graph)[0];
        ASSERT_TRUE(one.defined()) << "parent " << i;
        ASSERT_TRUE(all[i].defined()) << "parent " << i;
        ASSERT_TRUE(one.value().same_shape(leaves[i].value())) << "parent " << i;
        ASSERT_TRUE(one.value().same_shape(all[i].value())) << "parent " << i;
        EXPECT_EQ(std::memcmp(one.value().data(), all[i].value().data(),
                              one.value().size() * sizeof(float)),
                  0)
            << "parent " << i;
      }
    }
  }
  // Every multi-parent row of the op table has a case.
  for (const OpDef& row : op_table()) {
    if (row.max_arity == 1 || row.max_arity == 0) continue;
    EXPECT_EQ(covered.count(row.name), 1u) << row.name;
  }
}

}  // namespace
}  // namespace dg::nn
