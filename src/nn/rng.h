// Deterministic, portable pseudo-randomness. std::*_distribution output is
// implementation-defined, so every sampler here is hand-rolled on top of
// xoshiro256** to make tests and benches reproducible across compilers.
// No libm transcendental either: the Gaussian sampler's log and sin/cos are
// the in-tree double forms of the SIMD table (nn/simd/vec.h), so a seed gives
// the same draws on every host, whichever glibc variant it would pick.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "nn/matrix.h"

namespace dg::nn {

class Rng {
 public:
  explicit Rng(uint64_t seed);

  uint64_t next_u64();

  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  int uniform_int(int n);
  /// Standard normal via Box-Muller: one uniform pair (u1 redrawn while
  /// <= 1e-300, then u2) gives r·cos θ, returned, and r·sin θ, kept for the
  /// next call (simd::box_muller_ref).
  double normal();
  double normal(double mu, double sigma);
  /// out[i] = static_cast<float>(normal(mu, sigma)) for each i in order:
  /// the same draws and the same state and cached value afterwards, with
  /// the uniforms drawn a fixed-size stack block at a time and each block
  /// transformed by the dispatched box_muller kernel.
  void fill_normal(std::span<float> out, double mu = 0.0, double sigma = 1.0);
  /// Index sampled proportionally to the (non-negative) weights.
  int categorical(std::span<const float> weights);
  int categorical(std::span<const double> weights);
  /// Bernoulli with success probability p.
  bool bernoulli(double p);

  /// Fisher-Yates shuffled index permutation [0, n).
  std::vector<int> permutation(int n);
  /// k distinct indices sampled uniformly from [0, n).
  std::vector<int> sample_without_replacement(int n, int k);

  /// fill_normal over a new rows x cols matrix; a shape-only matrix (under
  /// nn::MetaModeGuard) has no elements and draws nothing.
  Matrix normal_matrix(int rows, int cols, double mu = 0.0, double sigma = 1.0);
  Matrix uniform_matrix(int rows, int cols, double lo = 0.0, double hi = 1.0);

  /// Derives an independent child stream; handy for giving each component
  /// its own reproducible randomness.
  Rng fork();

 private:
  /// Box-Muller's uniform pair, in the order normal() has always drawn it.
  void uniform_pair(double* u);

  uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace dg::nn
