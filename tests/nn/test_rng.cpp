#include "nn/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <set>
#include <vector>

#include "nn/autograd.h"

namespace dg::nn {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIntBounds) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 1000; ++i) {
    const int v = rng.uniform_int(5);
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_THROW(rng.uniform_int(0), std::invalid_argument);
}

/// Mean and variance within 5 standard errors of N(0, 1), and the
/// Kolmogorov-Smirnov distance to its CDF below the 1% critical value
/// 1.63/sqrt(n).
void expect_standard_normal(std::vector<double> xs, const char* what) {
  const auto n = static_cast<double>(xs.size());
  double s = 0, s2 = 0;
  for (double x : xs) {
    s += x;
    s2 += x * x;
  }
  const double mean = s / n;
  const double var = s2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 5.0 / std::sqrt(n)) << what;
  EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / n)) << what;
  std::sort(xs.begin(), xs.end());
  double ks = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double cdf = 0.5 * std::erfc(-xs[i] / std::numbers::sqrt2);
    ks = std::max({ks, cdf - static_cast<double>(i) / n,
                   static_cast<double>(i + 1) / n - cdf});
  }
  EXPECT_LT(ks, 1.63 / std::sqrt(n)) << what;
}

TEST(Rng, NormalMoments) {
  constexpr int kDraws = 1000000;
  Rng rng(11);
  std::vector<double> draws(kDraws);
  for (double& x : draws) x = rng.normal();
  expect_standard_normal(draws, "normal()");
  std::vector<float> filled(kDraws);
  rng.fill_normal(filled);
  expect_standard_normal({filled.begin(), filled.end()}, "fill_normal");
}

bool same_bits(float a, float b) { return std::memcmp(&a, &b, sizeof(a)) == 0; }

TEST(Rng, FillNormalIsTheNormalStream) {
  // fill_normal(n) draws what n calls of normal(mu, sigma) draw, cast to
  // float, and leaves the same xoshiro state and cached sine behind, with
  // or without a cached value at the start, at every length around the
  // kernel's 4-pair vectors and its 256-pair blocks.
  std::vector<int> lengths;
  for (int n = 0; n <= 67; ++n) lengths.push_back(n);
  for (int n : {511, 512, 513, 1025}) lengths.push_back(n);
  for (int n : lengths) {
    for (bool cached : {false, true}) {
      Rng a(100 + n), b(100 + n);
      if (cached) {
        (void)a.normal();
        (void)b.normal();
      }
      std::vector<float> out(static_cast<std::size_t>(n));
      a.fill_normal(out, 0.25, 3.0);
      for (int i = 0; i < n; ++i) {
        const auto want = static_cast<float>(b.normal(0.25, 3.0));
        ASSERT_TRUE(same_bits(out[static_cast<std::size_t>(i)], want))
            << "n=" << n << " cached=" << cached << " i=" << i;
      }
      for (int i = 0; i < 5; ++i) {
        ASSERT_EQ(a.normal(), b.normal())
            << "n=" << n << " cached=" << cached << " draw " << i;
      }
    }
  }
}

TEST(Rng, ShapeOnlyNormalMatrixDrawsNothing) {
  Rng a(31), b(31);
  (void)a.normal();  // leave a cached sine for the guard to keep
  (void)b.normal();
  {
    MetaModeGuard meta;
    const Matrix m = a.normal_matrix(4, 6);
    EXPECT_EQ(m.rows(), 4);
    EXPECT_EQ(m.cols(), 6);
    EXPECT_TRUE(m.empty());
  }
  EXPECT_EQ(a.normal(), b.normal());
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, NormalShiftScale) {
  Rng rng(12);
  const int n = 20000;
  double s = 0;
  for (int i = 0; i < n; ++i) s += rng.normal(5.0, 0.5);
  EXPECT_NEAR(s / n, 5.0, 0.03);
}

TEST(Rng, CategoricalFrequencies) {
  Rng rng(13);
  const float w[] = {1.f, 3.f, 6.f};
  int counts[3] = {0, 0, 0};
  const int n = 30000;
  for (int i = 0; i < n; ++i) ++counts[rng.categorical(w)];
  EXPECT_NEAR(counts[0] / double(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / double(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / double(n), 0.6, 0.02);
}

TEST(Rng, CategoricalRejectsBadWeights) {
  Rng rng(14);
  const float neg[] = {1.f, -1.f};
  EXPECT_THROW(rng.categorical(neg), std::invalid_argument);
  const float zero[] = {0.f, 0.f};
  EXPECT_THROW(rng.categorical(zero), std::invalid_argument);
}

TEST(Rng, PermutationIsPermutation) {
  Rng rng(15);
  auto p = rng.permutation(50);
  std::set<int> seen(p.begin(), p.end());
  EXPECT_EQ(seen.size(), 50u);
  EXPECT_EQ(*seen.begin(), 0);
  EXPECT_EQ(*seen.rbegin(), 49);
}

TEST(Rng, SampleWithoutReplacement) {
  Rng rng(16);
  auto s = rng.sample_without_replacement(20, 5);
  EXPECT_EQ(s.size(), 5u);
  std::set<int> seen(s.begin(), s.end());
  EXPECT_EQ(seen.size(), 5u);
  for (int v : s) {
    EXPECT_GE(v, 0);
    EXPECT_LT(v, 20);
  }
  EXPECT_THROW(rng.sample_without_replacement(3, 4), std::invalid_argument);
}

TEST(Rng, MatrixGenerators) {
  Rng rng(17);
  Matrix n = rng.normal_matrix(10, 10);
  EXPECT_EQ(n.rows(), 10);
  Matrix u = rng.uniform_matrix(4, 4, 2.0, 3.0);
  for (float v : u.flat()) {
    EXPECT_GE(v, 2.0f);
    EXPECT_LT(v, 3.0f);
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng a(21);
  Rng child = a.fork();
  // Child stream differs from continuing parent stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliRate) {
  Rng rng(22);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.25);
  EXPECT_NEAR(hits / double(n), 0.25, 0.02);
}

}  // namespace
}  // namespace dg::nn
