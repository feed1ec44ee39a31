#include "nn/optim.h"

#include <cmath>
#include <span>

namespace dg::nn {

Adam::Adam(std::vector<Var> params, AdamConfig cfg)
    : params_(std::move(params)), cfg_(cfg) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Var& p : params_) {
    m_.emplace_back(p.value().rows(), p.value().cols(), 0.0f);
    v_.emplace_back(p.value().rows(), p.value().cols(), 0.0f);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.0f - std::pow(cfg_.beta1, static_cast<float>(t_));
  const float bc2 = 1.0f - std::pow(cfg_.beta2, static_cast<float>(t_));
  for (size_t i = 0; i < params_.size(); ++i) {
    Var g = params_[i].grad();
    if (!g.defined()) continue;
    const Matrix& grad = g.value();
    Matrix& value = params_[i].mutable_value();
    float* mv = m_[i].data();
    float* vv = v_[i].data();
    float* pv = value.data();
    const float* gv = grad.data();
    for (size_t j = 0; j < value.size(); ++j) {
      mv[j] = cfg_.beta1 * mv[j] + (1.0f - cfg_.beta1) * gv[j];
      vv[j] = cfg_.beta2 * vv[j] + (1.0f - cfg_.beta2) * gv[j] * gv[j];
      const float mhat = mv[j] / bc1;
      const float vhat = vv[j] / bc2;
      pv[j] -= cfg_.lr * mhat / (std::sqrt(vhat) + cfg_.eps);
    }
  }
}

void Adam::zero_grad() {
  for (Var& p : params_) p.clear_grad();
}

namespace {
/// `total` plus the squares of `xs`, in order. Out of line on purpose:
/// global_grad_norm's sum is live across its Var::grad() calls, which
/// clobber every XMM register, so GCC keeps it on the stack; inlined, this
/// loop would store and reload it for every element.
[[gnu::noinline]] double add_squares(double total, std::span<const float> xs) {
  for (float v : xs) total += static_cast<double>(v) * v;
  return total;
}
}  // namespace

float global_grad_norm(const std::vector<Var>& params) {
  double total = 0.0;
  for (const Var& p : params) {
    Var g = p.grad();
    if (!g.defined()) continue;
    total = add_squares(total, g.value().flat());
  }
  return static_cast<float>(std::sqrt(total));
}

void clip_grad_norm(const std::vector<Var>& params, float max_norm) {
  const float norm = global_grad_norm(params);
  if (norm <= max_norm || norm == 0.0f) return;
  const float scale = max_norm / norm;
  for (const Var& p : params) {
    Var g = p.grad();
    if (!g.defined()) continue;
    for (float& v : g.mutable_value().flat()) v *= scale;
  }
}

}  // namespace dg::nn
