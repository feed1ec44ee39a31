#include "nn/rng.h"

#include <algorithm>
#include <stdexcept>

#include "nn/simd/vec.h"
#include "obs/profile.h"

namespace dg::nn {

namespace {
uint64_t splitmix64(uint64_t& x) {
  x += 0x9E3779B97f4A7C15ULL;
  uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

/// Pairs per block of Rng::fill_normal: the uniforms and their transform
/// share one 4 KiB stack buffer.
constexpr std::size_t kNormalBlockPairs = 256;
}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

uint64_t Rng::next_u64() {
  // xoshiro256**
  const uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

int Rng::uniform_int(int n) {
  if (n <= 0) throw std::invalid_argument("uniform_int: n must be positive");
  return static_cast<int>(next_u64() % static_cast<uint64_t>(n));
}

void Rng::uniform_pair(double* u) {
  u[0] = uniform();
  while (u[0] <= 1e-300) u[0] = uniform();
  u[1] = uniform();
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double z[2];
  uniform_pair(z);
  simd::box_muller_ref(z, z);
  cached_normal_ = z[1];
  have_cached_normal_ = true;
  return z[0];
}

double Rng::normal(double mu, double sigma) { return mu + sigma * normal(); }

void Rng::fill_normal(std::span<float> out, double mu, double sigma) {
  if (out.empty()) return;
  DG_OBS_KERNEL_TIMER("normal", out.size(), sizeof(float) * out.size());
  std::size_t i = 0;
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    out[i++] = static_cast<float>(mu + sigma * cached_normal_);
  }
  double z[2 * kNormalBlockPairs];
  const simd::KernelTable& kernels = simd::kernels();
  while (i < out.size()) {
    const std::size_t left = out.size() - i;
    const std::size_t pairs = std::min(kNormalBlockPairs, (left + 1) / 2);
    for (std::size_t p = 0; p < pairs; ++p) uniform_pair(z + 2 * p);
    kernels.box_muller(z, z, static_cast<std::int64_t>(pairs));
    const std::size_t take = std::min(2 * pairs, left);
    for (std::size_t j = 0; j < take; ++j) {
      out[i + j] = static_cast<float>(mu + sigma * z[j]);
    }
    i += take;
    if (take < 2 * pairs) {  // an odd count: keep the last sine, as normal()
      cached_normal_ = z[take];
      have_cached_normal_ = true;
    }
  }
}

namespace {
template <typename T>
int categorical_impl(Rng& rng, std::span<const T> weights) {
  double total = 0.0;
  for (T w : weights) {
    if (w < 0) throw std::invalid_argument("categorical: negative weight");
    total += static_cast<double>(w);
  }
  if (total <= 0.0) throw std::invalid_argument("categorical: all-zero weights");
  double r = rng.uniform() * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    r -= static_cast<double>(weights[i]);
    if (r < 0.0) return static_cast<int>(i);
  }
  return static_cast<int>(weights.size()) - 1;
}
}  // namespace

int Rng::categorical(std::span<const float> weights) {
  return categorical_impl(*this, weights);
}

int Rng::categorical(std::span<const double> weights) {
  return categorical_impl(*this, weights);
}

bool Rng::bernoulli(double p) { return uniform() < p; }

std::vector<int> Rng::permutation(int n) {
  std::vector<int> idx(n);
  for (int i = 0; i < n; ++i) idx[i] = i;
  for (int i = n - 1; i > 0; --i) {
    const int j = uniform_int(i + 1);
    std::swap(idx[i], idx[j]);
  }
  return idx;
}

std::vector<int> Rng::sample_without_replacement(int n, int k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  auto perm = permutation(n);
  perm.resize(k);
  return perm;
}

Matrix Rng::normal_matrix(int rows, int cols, double mu, double sigma) {
  Matrix m(rows, cols);
  fill_normal(m.flat(), mu, sigma);
  return m;
}

Matrix Rng::uniform_matrix(int rows, int cols, double lo, double hi) {
  Matrix m(rows, cols);
  for (float& v : m.flat()) v = static_cast<float>(uniform(lo, hi));
  return m;
}

Rng Rng::fork() { return Rng(next_u64() ^ 0xA5A5A5A5DEADBEEFULL); }

}  // namespace dg::nn
