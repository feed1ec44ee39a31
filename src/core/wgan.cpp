#include "core/wgan.h"

#include <stdexcept>

namespace dg::core {

namespace {
/// A 1x1 loss term's value, or 0 for a shape-only (meta-mode) one.
float scalar_value(const nn::Var& v) {
  return v.value().empty() ? 0.0f : v.value().at(0, 0);
}
}  // namespace

nn::Var gradient_penalty(const CriticFn& critic, const nn::Matrix& real,
                         const nn::Matrix& fake, nn::Rng& rng) {
  if (!real.same_shape(fake)) {
    throw std::invalid_argument("gradient_penalty: real/fake shape mismatch");
  }
  // Per-sample interpolation coefficient t ~ Unif[0,1]. Under meta mode the
  // batches are shape-only and there is nothing to interpolate.
  nn::Matrix xhat = fake;
  for (int i = 0; i < xhat.rows() && !nn::meta_mode(); ++i) {
    const float t = static_cast<float>(rng.uniform());
    for (int j = 0; j < xhat.cols(); ++j) {
      xhat.at(i, j) = t * real.at(i, j) + (1.0f - t) * fake.at(i, j);
    }
  }
  // xhat is a fresh leaf: the penalty constrains the critic, not the
  // generator, so no gradient needs to flow into the interpolation inputs.
  nn::Var x(std::move(xhat), /*requires_grad=*/true);
  nn::Var out = nn::sum(critic(x));
  auto grads = nn::autograd::grad(out, std::vector<nn::Var>{x},
                                  /*create_graph=*/true);
  if (!grads[0].defined()) {
    throw std::logic_error("gradient_penalty: critic ignored its input");
  }
  nn::Var norms = nn::row_l2_norm(grads[0]);
  return nn::mean(nn::square(nn::add_scalar(norms, -1.0f)));
}

nn::Var critic_loss(const CriticFn& critic, const nn::Matrix& real,
                    const nn::Matrix& fake, float gp_weight, nn::Rng& rng,
                    float* gp_out) {
  nn::Var loss = nn::sub(nn::mean(critic(nn::constant(fake))),
                         nn::mean(critic(nn::constant(real))));
  if (gp_out) *gp_out = 0.0f;
  if (gp_weight > 0.0f) {
    nn::Var penalty = gradient_penalty(critic, real, fake, rng);
    if (gp_out) *gp_out = scalar_value(penalty);
    loss = nn::add(loss, nn::mul_scalar(penalty, gp_weight));
  }
  return loss;
}

nn::Var generator_loss(const CriticFn& critic, const nn::Var& fake) {
  return nn::neg(nn::mean(critic(fake)));
}

namespace {
nn::Var log_sigmoid_mean(const nn::Var& logits, bool of_one_minus) {
  nn::Var p = nn::sigmoid(logits);
  if (of_one_minus) p = nn::add_scalar(nn::neg(p), 1.0f);
  return nn::mean(nn::log_(nn::add_scalar(p, 1e-7f)));
}
}  // namespace

nn::Var standard_critic_loss(const CriticFn& critic, const nn::Matrix& real,
                             const nn::Matrix& fake) {
  // -E[log D(real)] - E[log(1 - D(fake))]
  nn::Var loss_real = log_sigmoid_mean(critic(nn::constant(real)), false);
  nn::Var loss_fake = log_sigmoid_mean(critic(nn::constant(fake)), true);
  return nn::neg(nn::add(loss_real, loss_fake));
}

nn::Var standard_generator_loss(const CriticFn& critic, const nn::Var& fake) {
  // Non-saturating: -E[log D(fake)]
  return nn::neg(log_sigmoid_mean(critic(fake), false));
}

}  // namespace dg::core
