// The determinism contract of the intra-op parallel backend (nn/parallel):
// every kernel must produce BIT-IDENTICAL output for any pool size,
// including the fully-serial DG_THREADS=1 path. gradcheck, AnomalyGuard
// reproduction and every seeded experiment figure depend on this. Only the
// product row kernels fork; the sweeps over every other kernel guard against
// a fork coming back that changes its bytes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <functional>
#include <iterator>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "nn/autograd.h"
#include "nn/gradcheck.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/parallel.h"
#include "nn/rng.h"

namespace dg::nn {
namespace {

/// RAII: run the body at a given pool size, restore 1 thread on exit.
struct PoolSize {
  explicit PoolSize(int n) { set_num_threads(n); }
  ~PoolSize() { set_num_threads(1); }
};

// Thread counts the contract is verified over; 7 is deliberately odd and 16
// deliberately exceeds any partition count the small shapes produce.
const int kSweep[] = {2, 7, 16};

bool bit_equal(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) return false;
  if (a.empty()) return true;
  return std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

Matrix randn(Rng& rng, int r, int c) { return rng.normal_matrix(r, c); }

/// Evaluates `fn` serially, then at every sweep size, and asserts bitwise
/// equality. Shapes deliberately include ranges that do and do not clear the
/// grain gates.
template <typename Fn>
void expect_thread_invariant(const char* what, const Fn& fn,
                             std::span<const int> sweep = kSweep) {
  set_num_threads(1);
  const Matrix reference = fn();
  for (int t : sweep) {
    PoolSize pool(t);
    const Matrix got = fn();
    EXPECT_TRUE(bit_equal(reference, got))
        << what << ": result differs between 1 and " << t << " threads";
  }
}

// Shapes: empty, degenerate 1xN / Nx1, non-divisible-by-grain odd sizes, and
// one large-enough-to-actually-split case per kernel family.
struct Shape {
  int rows, cols;
};
const Shape kShapes[] = {{0, 0}, {0, 5}, {1, 1},    {1, 257},
                         {257, 1}, {3, 5}, {129, 67}, {300, 300}};

TEST(Parallel, PoolConfigClampsAndReports) {
  set_num_threads(7);
  EXPECT_EQ(num_threads(), 7);
  EXPECT_STREQ(num_threads_source(), "set_num_threads");
  set_num_threads(0);  // clamps to >= 1
  EXPECT_EQ(num_threads(), 1);
  set_num_threads(-3);
  EXPECT_EQ(num_threads(), 1);
}

TEST(Parallel, ParallelForCoversRangeExactlyOnce) {
  for (int t : {1, 2, 7, 16}) {
    PoolSize pool(t);
    const std::int64_t n = 100003;  // prime: never divisible by partitions
    std::vector<int> hits(static_cast<size_t>(n), 0);
    parallel_for(0, n, 64, [&](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) hits[static_cast<size_t>(i)]++;
    });
    EXPECT_EQ(std::count(hits.begin(), hits.end(), 1),
              static_cast<std::ptrdiff_t>(n))
        << "at " << t << " threads";
  }
}

TEST(Parallel, PropagatesExceptionsFromWorkers) {
  PoolSize pool(4);
  // Throws from whichever partition owns index 12345 — a worker thread when
  // the pool is live, the caller in the serial path.
  EXPECT_THROW(
      parallel_for(0, 1 << 20, 1,
                   [](std::int64_t b, std::int64_t e) {
                     if (b <= 12345 && 12345 < e)
                       throw std::runtime_error("boom");
                   }),
      std::runtime_error);
}

#ifdef __linux__
/// Threads of this process: the entries of /proc/self/task.
std::ptrdiff_t process_threads() {
  namespace fs = std::filesystem;
  return std::distance(fs::directory_iterator("/proc/self/task"),
                       fs::directory_iterator());
}
#endif

TEST(Parallel, OnlyProductsFork) {
#ifndef __linux__
  GTEST_SKIP() << "counts this process's threads in /proc/self/task";
#else
  // Resets the pool: no worker exists until a region forks.
  PoolSize pool(4);
  Rng rng(24);
  // Each forward is past the grain at which it used to fork: 90,000 floats
  // span six 16 Ki-float elementwise or reduction grains, and every old row
  // grain split 300 rows (transpose's: 300 columns).
  const Matrix a = randn(rng, 300, 300);
  const Matrix b = randn(rng, 300, 300);
  const Matrix rv = randn(rng, 1, 300);
  const Matrix cv = randn(rng, 300, 1);
  const Matrix* both[] = {&a, &b};
  const Var one(randn(rng, 1, 1));
  // Counted after the inputs are built, so that workers an earlier pool
  // joined have had time to leave /proc/self/task.
  const std::ptrdiff_t before = process_threads();
  const std::pair<const char*, std::function<void()>> serial[] = {
      {"add", [&] { (void)add(a, b); }},
      {"tanh", [&] { (void)tanh_(Var(a)); }},
      {"mul_scalar", [&] { (void)mul_scalar(a, 2.0f); }},
      {"add_rowvec", [&] { (void)add_rowvec(a, rv); }},
      {"mul_colvec", [&] { (void)mul_colvec(a, cv); }},
      {"broadcast_scalar", [&] { (void)broadcast_scalar(one, 300, 300); }},
      {"concat_cols", [&] { (void)concat_cols(both); }},
      {"slice_cols", [&] { (void)slice_cols(a, 1, 300); }},
      {"pad_cols", [&] { (void)pad_cols(Var(a), 2, 3); }},
      {"row_sum", [&] { (void)row_sum(a); }},
      {"transpose", [&] { (void)transpose(a); }},
      {"matmul_tn", [&] { (void)matmul_tn(a, b); }},
      {"col_sum", [&] { (void)col_sum(a); }},
      {"sum", [&] { (void)sum(a); }},
  };
  for (const auto& [name, forward] : serial) {
    forward();
    // A fork adds at least the pool's three workers; a joined worker the
    // kernel reaps late can only lower the count.
    EXPECT_LE(process_threads(), before) << name << " started a worker";
  }
  // The positive control: a product above its grain forks, which spawns
  // the pool's three workers. ThreadSanitizer starts a helper thread of its
  // own at a process's first thread creation, so count at least three.
  const std::ptrdiff_t serial_threads = process_threads();
  (void)matmul(a, b);
  EXPECT_GE(process_threads(), serial_threads + 3);
#endif
}

TEST(Parallel, MatmulBitExactAcrossThreadCounts) {
  Rng rng(11);
  // (n, k, m) triples: degenerate edges plus sizes spanning the row grain.
  const int dims[][3] = {{1, 1, 1},   {1, 64, 257}, {257, 64, 1},
                         {7, 129, 33}, {150, 40, 90}, {200, 200, 200}};
  for (const auto& d : dims) {
    const Matrix a = randn(rng, d[0], d[1]);
    const Matrix b = randn(rng, d[1], d[2]);
    expect_thread_invariant("matmul", [&] { return matmul(a, b); });
  }
}

TEST(Parallel, TransposedProductsBitExactAcrossThreadCounts) {
  // matmul_nt is a row kernel over a's rows, each partition packing the
  // whole of b; matmul_tn partitions its output's rows, a's columns. Both
  // split at the product grain. (n, k, m) for a [n,k], b [m,k] and g [n,m]:
  // degenerate edges, the backward rules' shapes, and sizes whose row or
  // column counts do not divide the partitions.
  Rng rng(15);
  const int dims[][3] = {{1, 1, 1},    {1, 64, 257},  {257, 64, 1},
                         {7, 200, 200}, {50, 400, 21}, {50, 100, 400},
                         {129, 40, 90}, {3, 700, 5}};
  const int sweep[] = {2, 4, 7};
  for (const auto& d : dims) {
    const Matrix a = randn(rng, d[0], d[1]);
    const Matrix b = randn(rng, d[2], d[1]);
    const Matrix g = randn(rng, d[0], d[2]);
    expect_thread_invariant("matmul_nt", [&] { return matmul_nt(a, b); },
                            sweep);
    expect_thread_invariant("matmul_tn", [&] { return matmul_tn(a, g); },
                            sweep);
  }
}

TEST(Parallel, TransposeBitExactAcrossThreadCounts) {
  Rng rng(12);
  // Includes the tall rows >> cols gate-slice shape the blocking targets.
  const Shape shapes[] = {{0, 0}, {1, 300}, {300, 1}, {2000, 3}, {3, 2000},
                          {257, 129}};
  for (const auto& s : shapes) {
    const Matrix a = randn(rng, s.rows, s.cols);
    expect_thread_invariant("transpose", [&] { return transpose(a); });
  }
}

TEST(Parallel, TransposeMatchesNaive) {
  Rng rng(13);
  const Matrix a = randn(rng, 233, 77);
  const Matrix t = transpose(a);
  ASSERT_EQ(t.rows(), 77);
  ASSERT_EQ(t.cols(), 233);
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) ASSERT_EQ(t.at(j, i), a.at(i, j));
}

TEST(Parallel, ElementwiseBitExactAcrossThreadCounts) {
  Rng rng(14);
  for (const auto& s : kShapes) {
    const Matrix a = randn(rng, s.rows, s.cols);
    Matrix b = randn(rng, s.rows, s.cols);
    for (float& v : b.flat()) v += 3.0f;  // keep div well away from 0
    expect_thread_invariant("add", [&] { return add(a, b); });
    expect_thread_invariant("sub", [&] { return sub(a, b); });
    expect_thread_invariant("mul", [&] { return mul(a, b); });
    expect_thread_invariant("div", [&] { return div(a, b); });
    expect_thread_invariant("add_scalar", [&] { return add_scalar(a, 1.5f); });
    expect_thread_invariant("mul_scalar", [&] { return mul_scalar(a, -2.f); });
  }
}

TEST(Parallel, BroadcastsBitExactAcrossThreadCounts) {
  Rng rng(15);
  for (const auto& s : kShapes) {
    if (s.rows == 0 || s.cols == 0) continue;  // broadcasts need a vector
    const Matrix x = randn(rng, s.rows, s.cols);
    const Matrix rv = randn(rng, 1, s.cols);
    const Matrix cv = randn(rng, s.rows, 1);
    expect_thread_invariant("add_rowvec", [&] { return add_rowvec(x, rv); });
    expect_thread_invariant("mul_rowvec", [&] { return mul_rowvec(x, rv); });
    expect_thread_invariant("mul_colvec", [&] { return mul_colvec(x, cv); });
  }
}

TEST(Parallel, ReductionsBitExactAcrossThreadCounts) {
  Rng rng(16);
  // 5000x8 forces multiple col_sum chunks (chunk = 16384/8 = 2048 rows);
  // 45000 elements force multiple sum chunks (16384 each).
  const Shape shapes[] = {{0, 0}, {1, 1}, {3, 5}, {129, 67}, {300, 150},
                          {5000, 8}, {9, 5000}};
  for (const auto& s : shapes) {
    const Matrix a = randn(rng, s.rows, s.cols);
    expect_thread_invariant("row_sum", [&] { return row_sum(a); });
    expect_thread_invariant("col_sum", [&] { return col_sum(a); });
    expect_thread_invariant("sum", [&] { return Matrix(1, 1, sum(a)); });
    expect_thread_invariant("mean", [&] { return Matrix(1, 1, mean(a)); });
  }
}

TEST(Parallel, LayoutOpsBitExactAcrossThreadCounts) {
  Rng rng(22);
  for (const auto& s : kShapes) {
    const Matrix a = randn(rng, s.rows, s.cols);
    const Matrix b = randn(rng, s.rows, s.cols);
    const Var one(randn(rng, 1, 1));
    const Matrix* both[] = {&a, &b};
    expect_thread_invariant("broadcast_scalar", [&] {
      return broadcast_scalar(one, s.rows, s.cols).value();
    });
    expect_thread_invariant("concat_cols", [&] { return concat_cols(both); });
    expect_thread_invariant("concat_rows", [&] { return concat_rows(both); });
    expect_thread_invariant("slice_cols",
                            [&] { return slice_cols(a, s.cols / 3, s.cols); });
    expect_thread_invariant("slice_rows",
                            [&] { return slice_rows(a, s.rows / 3, s.rows); });
    expect_thread_invariant("pad_cols",
                            [&] { return pad_cols(Var(a), 2, 3).value(); });
    expect_thread_invariant("pad_rows",
                            [&] { return pad_rows(Var(a), 2, 3).value(); });
  }
}

TEST(Parallel, UnaryOpsAndMasksBitExactAcrossThreadCounts) {
  // neg, square, relu and abs run their rows' elementwise kernels; relu's
  // and abs's backward masks are elementwise maps of the input.
  Rng rng(23);
  const std::pair<const char*, Var (*)(const Var&)> ops[] = {
      {"neg", [](const Var& x) { return neg(x); }},
      {"square", [](const Var& x) { return square(x); }},
      {"relu", [](const Var& x) { return relu(x); }},
      {"abs", [](const Var& x) { return abs_(x); }},
  };
  for (const auto& s : kShapes) {
    const Matrix a = randn(rng, s.rows, s.cols);
    for (const auto& [name, op] : ops) {
      expect_thread_invariant(name, [&] { return op(Var(a)).value(); });
      if (a.empty()) continue;
      expect_thread_invariant(name, [&] {
        const Var x(a, true);
        sum(op(x)).backward();
        return x.grad().value();
      });
    }
  }
}

TEST(Parallel, FusedKernelsBitExactAcrossThreadCounts) {
  Rng rng(17);
  const Matrix x = randn(rng, 129, 40);
  const Matrix w = randn(rng, 40, 67);
  const Matrix b = randn(rng, 1, 67);
  expect_thread_invariant("affine", [&] { return affine(x, w, b); });

  const Matrix h = randn(rng, 129, 32);
  const Matrix wh = randn(rng, 32, 67);
  expect_thread_invariant("lstm_gates",
                          [&] { return lstm_gates(x, w, h, wh, b); });
}

TEST(Parallel, FusedKernelsMatchComposition) {
  Rng rng(18);
  const Matrix x = randn(rng, 33, 20);
  const Matrix w = randn(rng, 20, 15);
  const Matrix b = randn(rng, 1, 15);
  EXPECT_TRUE(allclose(affine(x, w, b), add_rowvec(matmul(x, w), b), 1e-4f));

  const Matrix h = randn(rng, 33, 10);
  const Matrix wh = randn(rng, 10, 15);
  EXPECT_TRUE(allclose(lstm_gates(x, w, h, wh, b),
                       add_rowvec(add(matmul(x, w), matmul(h, wh)), b),
                       1e-4f));
}

TEST(Parallel, LstmStepAndGradientsBitExactAcrossThreadCounts) {
  // End-to-end: a full LSTM cell step plus a backward pass must reproduce
  // bit-for-bit at every pool size (forward values AND leaf gradients).
  auto run = [] {
    Rng rng(19);
    LstmCell cell(8, 16, rng);
    const Var x(rng.normal_matrix(64, 8), true);
    auto s0 = cell.initial_state(64);
    LstmState s = cell.step(x, s0);
    Var loss = mean(mul(s.h, s.c));
    loss.backward();
    Matrix grads = cell.parameters()[0].grad().value();  // d loss / d wx
    return std::pair<Matrix, Matrix>(s.h.value(), std::move(grads));
  };
  set_num_threads(1);
  const auto [h_ref, g_ref] = run();
  for (int t : kSweep) {
    PoolSize pool(t);
    const auto [h, g] = run();
    EXPECT_TRUE(bit_equal(h_ref, h)) << "h differs at " << t << " threads";
    EXPECT_TRUE(bit_equal(g_ref, g)) << "grad differs at " << t << " threads";
  }
}

TEST(Parallel, PartitionsRunUnderCallersFpMode) {
  // Pool workers inherit the FP mode of the thread that spawns them. Spawn
  // the pool under one mode and call it under the other: every partition
  // must still see the caller's mode, or flush-to-zero on one side would
  // make the bits depend on which thread ran which partition.
  Rng rng(21);
  // Operands whose every entry is subnormal (|x| < 2^-126), built here under
  // gradual underflow; with FTZ/DAZ they read as zeros.
  const auto subnormal = [&rng](int r, int c) {
    Matrix m = randn(rng, r, c);
    for (float& v : m.flat()) v = std::ldexp(v, -130);
    return m;
  };
  // Only the products fork, so every probe is one: at k 256 and m 64 the
  // product grain is 2 rows, so each of the 160 rows' range splits at every
  // sweep size. A zero bias keeps affine's output subnormal too.
  const Matrix tiny = subnormal(160, 256);
  const Matrix b = randn(rng, 256, 64);
  const Matrix bt = randn(rng, 64, 256);
  const Matrix zero_bias(1, 64);
  const auto run = [&] {
    return std::vector<Matrix>{matmul(tiny, b), matmul_nt(tiny, bt),
                               affine(tiny, b, zero_bias)};
  };
  const auto run_in = [&run](bool flush) {
    std::optional<FlushDenormalsGuard> guard;
    if (flush) guard.emplace();
    return run();
  };
  set_num_threads(1);
  const std::vector<Matrix> ref[2] = {run_in(false), run_in(true)};
#if defined(__x86_64__) || defined(_M_X64)
  for (size_t i = 0; i < ref[0].size(); ++i) {
    EXPECT_FALSE(bit_equal(ref[0][i], ref[1][i]))
        << "op " << i << ": the inputs do not exercise FTZ/DAZ";
  }
#endif
  for (const bool spawn_flushed : {false, true}) {
    for (int t : kSweep) {
      PoolSize pool(t);
      run_in(spawn_flushed);  // first parallel call spawns the workers
      const bool call_flushed = !spawn_flushed;
      const std::vector<Matrix> got = run_in(call_flushed);
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_TRUE(bit_equal(ref[call_flushed][i], got[i]))
            << "op " << i << " at " << t << " threads, pool spawned "
            << (spawn_flushed ? "flushing" : "gradual");
      }
    }
  }
}

TEST(Parallel, GradcheckPassesWithPoolActive) {
  PoolSize pool(7);
  Rng rng(20);
  const auto randm = [&rng](int r, int c) {
    Matrix m(r, c);
    for (float& v : m.flat()) v = static_cast<float>(rng.normal(0.0, 0.5));
    return m;
  };

  // The fused affine op, both through the scalar chain and inside an MLP.
  auto r = gradcheck(
      [](const std::vector<Var>& v) {
        return mean(tanh_(affine(v[0], v[1], v[2])));
      },
      {randm(5, 4), randm(4, 3), randm(1, 3)});
  EXPECT_TRUE(r.ok) << to_string(r);

  // The fused LSTM pre-activation, all five parents.
  r = gradcheck(
      [](const std::vector<Var>& v) {
        return mean(square(lstm_gates(v[0], v[1], v[2], v[3], v[4])));
      },
      {randm(4, 3), randm(3, 8), randm(4, 5), randm(5, 8), randm(1, 8)});
  EXPECT_TRUE(r.ok) << to_string(r);

  // A reduction-heavy graph exercising the chunked col_sum/sum paths.
  r = gradcheck(
      [](const std::vector<Var>& v) {
        return mean(square(col_sum(matmul(v[0], v[1]))));
      },
      {randm(6, 4), randm(4, 5)});
  EXPECT_TRUE(r.ok) << to_string(r);
}

}  // namespace
}  // namespace dg::nn
