#include "nn/optim.h"

#include <cmath>
#include <span>

#include "nn/simd/vec.h"
#include "obs/profile.h"

namespace dg::nn {

namespace {
/// beta^t by squaring in double, rounded once to float: no libm pow, whose
/// variant glibc picks by CPU. The bias corrections 1 - beta^t it gives
/// equal those of glibc 2.36's powf (x86-64) for beta = 0.9 at every t up
/// to 2e6 and for beta = 0.999 at all but t = 2958 and 3606.
float beta_power(float beta, long t) {
  double result = 1.0, base = beta;
  for (; t > 0; t >>= 1) {
    if (t & 1) result *= base;
    base *= base;
  }
  return static_cast<float>(result);
}
}  // namespace

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
  const simd::AdamCoeffs coeffs{cfg_.beta1,
                                cfg_.beta2,
                                cfg_.lr,
                                cfg_.eps,
                                1.0f - beta_power(cfg_.beta1, t_),
                                1.0f - beta_power(cfg_.beta2, t_)};
  const simd::KernelTable& kernels = simd::kernels();
  for (size_t i = 0; i < params_.size(); ++i) {
    Var g = params_[i].grad();
    if (!g.defined()) continue;
    Matrix& value = params_[i].mutable_value();
    // One sweep per parameter: reads g, p, m, v and writes p, m, v.
    DG_OBS_KERNEL_TIMER("adam", value.size(), 7 * sizeof(float) * value.size());
    kernels.adam(value.data(), m_[i].data(), v_[i].data(), g.value().data(),
                 static_cast<std::int64_t>(value.size()), coeffs);
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
