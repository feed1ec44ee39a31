#include "nn/layers.h"

#include <cmath>
#include <stdexcept>

namespace dg::nn {

void Module::zero_grad() const {
  for (Var p : parameters()) p.clear_grad();
}

std::size_t Module::parameter_count() const {
  std::size_t n = 0;
  for (const Var& p : parameters()) n += p.value().size();
  return n;
}

FreezeGuard::FreezeGuard(const Module& m) : params_(m.parameters()) {
  prev_.reserve(params_.size());
  for (Var& p : params_) {
    prev_.push_back(p.requires_grad());
    p.set_requires_grad(false);
  }
}

FreezeGuard::~FreezeGuard() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    params_[i].set_requires_grad(prev_[i]);
  }
}

Var activate(const Var& x, Activation act) {
  switch (act) {
    case Activation::None: return x;
    case Activation::Relu: return relu(x);
    case Activation::Tanh: return tanh_(x);
    case Activation::Sigmoid: return sigmoid(x);
    case Activation::Softmax: return softmax_rows(x);
  }
  throw std::logic_error("unknown activation");
}

Linear::Linear(int in, int out, Rng& rng) {
  // He/Glorot-style scaling keeps activations in range for both ReLU and
  // saturating nonlinearities at the widths used here.
  const double scale = std::sqrt(2.0 / static_cast<double>(in + out));
  w_ = Var(rng.normal_matrix(in, out, 0.0, scale), /*requires_grad=*/true);
  b_ = Var(Matrix(1, out, 0.0f), /*requires_grad=*/true);
}

Var Linear::forward(const Var& x) const {
  return affine(x, w_, b_);
}

std::vector<Var> Linear::parameters() const { return {w_, b_}; }

Mlp::Mlp(int in, int out, int hidden_units, int hidden_layers, Rng& rng,
         Activation output_activation)
    : output_activation_(output_activation) {
  int prev = in;
  for (int i = 0; i < hidden_layers; ++i) {
    layers_.emplace_back(prev, hidden_units, rng);
    prev = hidden_units;
  }
  layers_.emplace_back(prev, out, rng);
}

Var Mlp::forward(const Var& x) const {
  Var h = x;
  for (size_t i = 0; i + 1 < layers_.size(); ++i) {
    h = relu(layers_[i].forward(h));
  }
  return activate(layers_.back().forward(h), output_activation_);
}

std::vector<Var> Mlp::parameters() const {
  std::vector<Var> out;
  for (const Linear& l : layers_) {
    auto p = l.parameters();
    out.insert(out.end(), p.begin(), p.end());
  }
  return out;
}

LstmCell::LstmCell(int input, int hidden, Rng& rng)
    : input_(input), hidden_(hidden) {
  const double scale = std::sqrt(1.0 / static_cast<double>(hidden));
  wx_ = Var(rng.normal_matrix(input, 4 * hidden, 0.0, scale), true);
  wh_ = Var(rng.normal_matrix(hidden, 4 * hidden, 0.0, scale), true);
  Matrix b(1, 4 * hidden, 0.0f);
  // Standard forget-gate bias of 1.0 so early training does not wipe state
  // (a shape-only meta-mode bias has no storage to write).
  for (int j = hidden; j < 2 * hidden && !b.empty(); ++j) b.at(0, j) = 1.0f;
  b_ = Var(std::move(b), true);
}

LstmState LstmCell::step(const Var& x, const LstmState& state) const {
  // One fused, row-partitioned kernel instead of two matmul temporaries plus
  // an add and a broadcast — the batched-generation hot path.
  // The four gate slices come first, then the nine elementwise ops. This
  // order is pinned: the training census and the byte hashes
  // (tests/analysis/test_invariants.cpp) record the graph it builds.
  Var gates = lstm_gates(x, wx_, state.h, wh_, b_);
  Var si = slice_cols(gates, 0, hidden_);
  Var sf = slice_cols(gates, hidden_, 2 * hidden_);
  Var sg = slice_cols(gates, 2 * hidden_, 3 * hidden_);
  Var so = slice_cols(gates, 3 * hidden_, 4 * hidden_);
  Var i = sigmoid(si);
  Var f = sigmoid(sf);
  Var g = tanh_(sg);
  Var o = sigmoid(so);
  Var fc = mul(f, state.c);
  Var ig = mul(i, g);
  Var c = add(fc, ig);
  Var h = mul(o, tanh_(c));
  return {h, c};
}

LstmState LstmCell::initial_state(int batch) const {
  return {zeros(batch, hidden_), zeros(batch, hidden_)};
}

std::vector<Var> LstmCell::parameters() const { return {wx_, wh_, b_}; }

Var softmax_cross_entropy(const Var& logits, const Matrix& targets_onehot) {
  if (logits.rows() != targets_onehot.rows() ||
      logits.cols() != targets_onehot.cols()) {
    throw std::invalid_argument("softmax_cross_entropy: shape mismatch");
  }
  Var p = softmax_rows(logits);
  Var logp = log_(add_scalar(p, 1e-9f));
  Var picked = row_sum(mul(logp, constant(targets_onehot)));
  return neg(mean(picked));
}

Var mse_loss(const Var& pred, const Matrix& target) {
  if (pred.rows() != target.rows() || pred.cols() != target.cols()) {
    throw std::invalid_argument("mse_loss: shape mismatch");
  }
  return mean(square(sub(pred, constant(target))));
}

}  // namespace dg::nn
