#include "nn/autograd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/rng.h"
#include "nn/simd/vec.h"
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

// ---- each elementwise row's kernel is its op's forward ----

/// The autograd op of each row that carries an elementwise kernel.
Var ew_forward(const OpDef& row, const Var& a, const Var& b) {
  switch (row.op) {
    case Op::kAdd: return add(a, b);
    case Op::kSub: return sub(a, b);
    case Op::kMul: return mul(a, b);
    case Op::kDiv: return div(a, b);
    case Op::kNeg: return neg(a);
    case Op::kRelu: return relu(a);
    case Op::kAbs: return abs_(a);
    case Op::kTanh: return tanh_(a);
    case Op::kSigmoid: return sigmoid(a);
    case Op::kExp: return exp_(a);
    case Op::kLog: return log_(a);
    case Op::kSqrt: return sqrt_(a);
    case Op::kSquare: return square(a);
    case Op::kRecip: return recip(a);
    default:
      ADD_FAILURE() << "row '" << row.name << "' has a kernel but no forward";
      return {};
  }
}

std::uint32_t bits_of(float f) {
  std::uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

// The tape runs row.ew where the autograd forward runs the op itself, so
// the two must agree bit for bit on every input, in every SIMD tier: signed
// zeros, subnormals, infinities, NaNs, and the exp/tanh/sigmoid saturation
// range. Binary ops see every pair of inputs.
TEST(AutogradOps, ElementwiseRowKernelIsTheForward) {
  using Lim = std::numeric_limits<float>;
  std::vector<float> in = {0.0f,          -0.0f,         Lim::denorm_min(),
                           -Lim::denorm_min(), 1e-39f,   -1e-39f,
                           Lim::min(),    -Lim::min(),   Lim::infinity(),
                           -Lim::infinity(), Lim::quiet_NaN(),
                           -Lim::quiet_NaN(), Lim::max(), -Lim::max(),
                           1.0f,          -1.0f,         0.5f,
                           -2.5f,         87.3f,         88.3f,
                           88.8f,         -87.4f,        -103.9f,
                           -104.1f,       9.1f,          -9.1f};
  for (float x = -120.0f; x <= 120.0f; x += 3.7f) in.push_back(x);
  const int n = static_cast<int>(in.size());
  Matrix a(n, n), b(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      a.at(i, j) = in[static_cast<size_t>(i)];
      b.at(i, j) = in[static_cast<size_t>(j)];
    }
  }
  const simd::Tier prev = simd::active_tier();
  for (const simd::Tier tier : {simd::Tier::kScalar, simd::Tier::kAvx2}) {
    if (!simd::set_simd_tier(tier)) continue;  // no avx2 on this host
    SCOPED_TRACE(simd::tier_name(tier));
    int rows_checked = 0;
    for (const OpDef& row : op_table()) {
      if (!row.ew) continue;
      ++rows_checked;
      const bool binary = row.min_arity == 2;
      const Var out = ew_forward(row, Var(a), Var(b));
      ASSERT_TRUE(out.defined()) << row.name;
      Matrix want(n, n);
      simd::kernels().apply_ew(*row.ew, a.data(), binary ? b.data() : nullptr,
                               want.data(),
                               static_cast<std::int64_t>(want.size()));
      for (size_t i = 0; i < want.size(); ++i) {
        const float got = out.value().data()[i];
        ASSERT_EQ(bits_of(got), bits_of(want.data()[i]))
            << row.name << "(" << a.data()[i]
            << (binary ? ", " + std::to_string(b.data()[i]) : "")
            << "): forward " << got << ", kernel " << want.data()[i];
      }
    }
    EXPECT_EQ(rows_checked, 14);
  }
  simd::set_simd_tier(prev);
}

}  // namespace
}  // namespace dg::nn
