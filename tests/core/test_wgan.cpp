#include "core/wgan.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/ops.h"
#include "nn/optim.h"
#include "nn/parallel.h"
#include "nn/rng.h"
#include "nn/simd/vec.h"

namespace dg::core {
namespace {

using nn::Matrix;
using nn::Var;

TEST(GradientPenalty, LinearCriticHasClosedForm) {
  // D(x) = 2*x (1-D critic on 1-D input): ||grad|| = 2 everywhere, so the
  // penalty is exactly (2-1)^2 = 1 regardless of the interpolates.
  Var w(Matrix(1, 1, 2.0f), true);
  const CriticFn critic = [&w](const Var& x) { return nn::matmul(x, w); };
  nn::Rng rng(1);
  Matrix real(8, 1, 0.3f), fake(8, 1, -0.7f);
  const Var gp = gradient_penalty(critic, real, fake, rng);
  EXPECT_NEAR(gp.value().at(0, 0), 1.0f, 1e-5f);
}

TEST(GradientPenalty, UnitSlopeCriticHasZeroPenalty) {
  Var w(Matrix(1, 1, 1.0f), true);
  const CriticFn critic = [&w](const Var& x) { return nn::matmul(x, w); };
  nn::Rng rng(2);
  const Var gp = gradient_penalty(critic, Matrix(4, 1, 1.0f), Matrix(4, 1, 0.0f), rng);
  EXPECT_NEAR(gp.value().at(0, 0), 0.0f, 1e-6f);
}

TEST(GradientPenalty, ShapeMismatchThrows) {
  const CriticFn critic = [](const Var& x) { return nn::row_sum(x); };
  nn::Rng rng(3);
  EXPECT_THROW(gradient_penalty(critic, Matrix(2, 2), Matrix(3, 2), rng),
               std::invalid_argument);
}

TEST(GradientPenalty, PullsCriticSlopeTowardOne) {
  // Train only on the penalty: the slope should converge to +-1.
  Var w(Matrix(1, 1, 5.0f), true);
  const CriticFn critic = [&w](const Var& x) { return nn::matmul(x, w); };
  nn::Rng rng(4);
  nn::Adam opt({w}, {.lr = 0.05f});
  for (int i = 0; i < 200; ++i) {
    Var gp = gradient_penalty(critic, Matrix(4, 1, 1.0f), Matrix(4, 1, -1.0f), rng);
    opt.zero_grad();
    gp.backward();
    opt.step();
  }
  EXPECT_NEAR(std::fabs(w.value().at(0, 0)), 1.0f, 0.05f);
}

TEST(CriticLoss, SeparatesRealFromFake) {
  // With well-separated real/fake, training the critic should drive
  // E[D(real)] - E[D(fake)] positive.
  nn::Rng rng(5);
  nn::Mlp critic(1, 1, 16, 2, rng);
  const CriticFn fn = [&critic](const Var& x) { return critic.forward(x); };
  nn::Adam opt(critic.parameters(), {.lr = 5e-3f});
  Matrix real(16, 1), fake(16, 1);
  for (int i = 0; i < 16; ++i) {
    real.at(i, 0) = static_cast<float>(rng.normal(1.0, 0.1));
    fake.at(i, 0) = static_cast<float>(rng.normal(-1.0, 0.1));
  }
  for (int it = 0; it < 150; ++it) {
    Var loss = critic_loss(fn, real, fake, 10.0f, rng);
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  nn::NoGradGuard guard;
  const float d_real = nn::mean(critic.forward(nn::constant(real))).value().at(0, 0);
  const float d_fake = nn::mean(critic.forward(nn::constant(fake))).value().at(0, 0);
  EXPECT_GT(d_real - d_fake, 0.5f);
}

// ---- the products' rules before matmul_nt and matmul_tn ------------------

/// matmul whose rule copies its transposed operand: g·bᵀ as
/// matmul(g, transpose(b)) and aᵀ·g as matmul(transpose(a), g), each again
/// this matmul, so every order of derivative runs transposes and matmuls.
Var transposing_matmul(const Var& a, const Var& b) {
  return nn::make_op(nn::op_def(nn::Op::kMatmul),
                     nn::matmul(a.value(), b.value()), {a, b},
                     [a, b](const Var& g, std::span<const bool> needs) {
                       return std::vector<Var>{
                           needs[0] ? transposing_matmul(g, nn::transpose(b))
                                    : Var{},
                           needs[1] ? transposing_matmul(nn::transpose(a), g)
                                    : Var{}};
                     });
}

/// affine with the same rule, and col_sum for the bias.
Var transposing_affine(const Var& x, const Var& w, const Var& b) {
  return nn::make_op(nn::op_def(nn::Op::kAffine),
                     nn::affine(x.value(), w.value(), b.value()), {x, w, b},
                     [x, w](const Var& g, std::span<const bool> needs) {
                       return std::vector<Var>{
                           needs[0] ? transposing_matmul(g, nn::transpose(w))
                                    : Var{},
                           needs[1] ? transposing_matmul(nn::transpose(x), g)
                                    : Var{},
                           needs[2] ? nn::col_sum(g) : Var{}};
                     });
}

TEST(CriticLoss, SecondOrderBytesMatchTheTransposeFormulation) {
  // The critic loss differentiates through the critic's input gradient, so
  // its parameter gradients run the second-order rules of matmul_nt. A
  // relu MLP critic of affine layers and a final matmul, built once from
  // the engine's ops and once from the transposing forms above, must give
  // the same loss and parameter gradient bytes on both SIMD tiers, with
  // and without FlushDenormalsGuard. relu zeroes part of every input
  // gradient, so the zero-skip decides bytes too.
  nn::Rng init(41);
  const int batch = 7, in = 12, hidden = 16;
  const std::vector<Matrix> weights = {
      init.normal_matrix(in, hidden, 0.0, 0.5), init.normal_matrix(1, hidden),
      init.normal_matrix(hidden, hidden, 0.0, 0.5),
      init.normal_matrix(1, hidden), init.normal_matrix(hidden, 1, 0.0, 0.5)};
  const Matrix real = init.normal_matrix(batch, in);
  const Matrix fake = init.normal_matrix(batch, in);
  const auto loss_and_grads = [&](bool transposing) {
    std::vector<Var> p;
    for (const Matrix& w : weights) p.emplace_back(w, /*requires_grad=*/true);
    const auto layer = [&](const Var& x, std::size_t l) {
      return transposing ? transposing_affine(x, p[l], p[l + 1])
                         : nn::affine(x, p[l], p[l + 1]);
    };
    const CriticFn critic = [&](const Var& x) {
      const Var h = nn::relu(layer(nn::relu(layer(x, 0)), 2));
      return transposing ? transposing_matmul(h, p[4]) : nn::matmul(h, p[4]);
    };
    nn::Rng rng(5);
    const Var loss = critic_loss(critic, real, fake, 10.0f, rng);
    loss.backward();
    std::vector<Matrix> out = {loss.value()};
    for (const Var& v : p) out.push_back(v.grad().value());
    return out;
  };
  const nn::simd::Tier prev = nn::simd::active_tier();
  for (const auto tier : {nn::simd::Tier::kScalar, nn::simd::Tier::kAvx2}) {
    if (!nn::simd::set_simd_tier(tier)) continue;  // no avx2 on this host
    for (const bool flush : {false, true}) {
      SCOPED_TRACE(std::string(nn::simd::tier_name(tier)) +
                   (flush ? " ftz" : ""));
      std::optional<nn::FlushDenormalsGuard> ftz;
      if (flush) ftz.emplace();
      const std::vector<Matrix> want = loss_and_grads(true);
      const std::vector<Matrix> got = loss_and_grads(false);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_TRUE(got[i].same_shape(want[i])) << "output " << i;
        EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                              got[i].size() * sizeof(float)),
                  0)
            << "output " << i;
      }
    }
  }
  nn::simd::set_simd_tier(prev);
}

TEST(StandardGanLoss, CriticSeparatesRealFromFake) {
  nn::Rng rng(15);
  nn::Mlp critic(1, 1, 16, 2, rng);
  const CriticFn fn = [&critic](const Var& x) { return critic.forward(x); };
  nn::Adam opt(critic.parameters(), {.lr = 5e-3f});
  Matrix real(16, 1), fake(16, 1);
  for (int i = 0; i < 16; ++i) {
    real.at(i, 0) = static_cast<float>(rng.normal(0.8, 0.05));
    fake.at(i, 0) = static_cast<float>(rng.normal(0.2, 0.05));
  }
  float first = 0, last = 0;
  for (int it = 0; it < 150; ++it) {
    Var loss = standard_critic_loss(fn, real, fake);
    if (it == 0) first = loss.value().at(0, 0);
    last = loss.value().at(0, 0);
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
  // BCE starts near 2*log(2) and should fall well below it.
  EXPECT_NEAR(first, 2.0f * std::log(2.0f), 0.4f);
  EXPECT_LT(last, 0.3f);
  nn::NoGradGuard guard;
  const Var d_real = nn::sigmoid(critic.forward(nn::constant(real)));
  const Var d_fake = nn::sigmoid(critic.forward(nn::constant(fake)));
  EXPECT_GT(nn::mean(d_real).value().at(0, 0), 0.8f);
  EXPECT_LT(nn::mean(d_fake).value().at(0, 0), 0.2f);
}

TEST(StandardGanLoss, GeneratorLossFallsAsCriticIsFooled) {
  // If D(fake) ~ 1 the generator loss -log D(fake) ~ 0; if D(fake) ~ 0 the
  // loss is large. Check both ends with a fixed "critic".
  const CriticFn confident_yes = [](const Var& x) {
    return nn::add_scalar(nn::mul_scalar(nn::row_sum(x), 0.0f), 6.0f);
  };
  const CriticFn confident_no = [](const Var& x) {
    return nn::add_scalar(nn::mul_scalar(nn::row_sum(x), 0.0f), -6.0f);
  };
  const Var fake(Matrix(4, 2, 0.5f), false);
  EXPECT_LT(standard_generator_loss(confident_yes, fake).value().at(0, 0), 0.05f);
  EXPECT_GT(standard_generator_loss(confident_no, fake).value().at(0, 0), 3.0f);
}

TEST(WganEndToEnd, GeneratorMovesTowardData) {
  // 1-D WGAN-GP in the bounded regime the library uses everywhere (real
  // data and generator outputs in [0,1]): data mass sits at 0.85, the
  // sigmoid generator starts near 0.5 and must move up decisively. (Exact
  // convergence on a 1-D toy oscillates — the WGAN critic happily sits at
  // D(x)=x until fakes overshoot — so the assertion is directional.)
  nn::Rng rng(6);
  nn::Mlp gen(2, 1, 16, 1, rng, nn::Activation::Sigmoid);
  nn::Mlp critic(1, 1, 16, 2, rng);
  const CriticFn fn = [&critic](const Var& x) { return critic.forward(x); };
  nn::Adam g_opt(gen.parameters(), {.lr = 1e-3f});
  nn::Adam d_opt(critic.parameters(), {.lr = 1e-3f});

  const auto sample_fake = [&](int n) {
    return gen.forward(nn::constant(rng.normal_matrix(n, 2)));
  };

  auto fake_mean = [&]() {
    nn::NoGradGuard guard;
    return nn::mean(sample_fake(64)).value().at(0, 0);
  };
  const float before = fake_mean();
  ASSERT_LT(before, 0.65f);

  for (int it = 0; it < 200; ++it) {
    for (int ds = 0; ds < 3; ++ds) {
      Matrix real(16, 1);
      for (int i = 0; i < 16; ++i) {
        real.at(i, 0) = static_cast<float>(rng.normal(0.85, 0.03));
      }
      Matrix fake;
      {
        nn::NoGradGuard guard;
        fake = sample_fake(16).value();
      }
      Var d_loss = critic_loss(fn, real, fake, 10.0f, rng);
      d_opt.zero_grad();
      d_loss.backward();
      d_opt.step();
    }
    Var g_loss = generator_loss(fn, sample_fake(16));
    g_opt.zero_grad();
    g_loss.backward();
    g_opt.step();
  }
  const float after = fake_mean();
  EXPECT_GT(after, before + 0.15f);
  EXPECT_GT(after, 0.7f);
}

}  // namespace
}  // namespace dg::core
