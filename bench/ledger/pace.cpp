// The host pace chunk (see Pace in ledger.h). It calls none of the
// repository's libraries and CMakeLists.txt compiles it with flags of its
// own, so a change to src/ or to the top-level flags leaves it as it is.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <ctime>
#include <memory>
#include <vector>

#include "ledger.h"

namespace dg::ledger {
namespace {

constexpr int kDim = 64;                             // a cache-resident matmul
constexpr int kReps = 6;
constexpr std::size_t kWalk = std::size_t{1} << 19;  // 2 MB of floats
constexpr int kNodes = 8000;
constexpr int kStride = 1237;  // coprime with kNodes: one ring through all

/// The scattered-read buffer: read-only once built, so every thread shares
/// it.
const std::vector<float>& walk_buffer() {
  static const std::vector<float> walk = [] {
    std::vector<float> w(kWalk);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = static_cast<float>(i % 13);
    return w;
  }();
  return walk;
}

/// One thread's matmul operands, so that threads pacing at once write
/// nothing in common.
struct PaceData {
  std::vector<float> a, b, c;
  PaceData() : a(kDim * kDim), b(kDim * kDim), c(kDim * kDim) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = 0.001f * static_cast<float>(i % 97);
      b[i] = 0.002f * static_cast<float>(i % 89);
    }
  }
};

/// Arithmetic and cache traffic: a small matmul, a libm exp pass, then
/// scattered reads over 2 MB.
float arithmetic(PaceData& d) {
  float keep = 0.0f;
  for (int rep = 0; rep < kReps; ++rep) {
    std::fill(d.c.begin(), d.c.end(), 0.0f);
    for (int i = 0; i < kDim; ++i) {
      for (int k = 0; k < kDim; ++k) {
        const float x = d.a[i * kDim + k];
        for (int j = 0; j < kDim; ++j) d.c[i * kDim + j] += x * d.b[k * kDim + j];
      }
    }
    for (float& x : d.c) x = std::exp(-1e-3f * x);
    keep += d.c[static_cast<std::size_t>(rep)];
  }
  const std::vector<float>& walk = walk_buffer();
  for (std::size_t i = 0; i < kWalk; i += 16) keep += walk[(i * 7919) & (kWalk - 1)];
  return keep;
}

/// Allocation and pointer chasing, as in building and walking a graph:
/// heap nodes linked into a ring, walked once, freed.
float allocation() {
  struct Node {
    Node* next = nullptr;
    float value = 0.0f;
    char pad[48] = {};
  };
  std::vector<std::unique_ptr<Node>> nodes(kNodes);
  for (int i = 0; i < kNodes; ++i) {
    nodes[static_cast<std::size_t>(i)] = std::make_unique<Node>();
    nodes[static_cast<std::size_t>(i)]->value = static_cast<float>(i % 5);
  }
  for (int i = 0; i < kNodes; ++i) {
    nodes[static_cast<std::size_t>(i)]->next =
        nodes[static_cast<std::size_t>((i + kStride) % kNodes)].get();
  }
  float keep = 0.0f;
  const Node* p = nodes[0].get();
  for (int i = 0; i < kNodes; ++i, p = p->next) keep += p->value;
  return keep;
}

}  // namespace

double thread_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) * 1e-6;
}

double process_cpu_ms() {
  timespec t{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t);
  return static_cast<double>(t.tv_sec) * 1e3 + static_cast<double>(t.tv_nsec) * 1e-6;
}

double Pace::run_chunks(int chunks) {
  thread_local PaceData data;
  thread_local volatile float sink = 0.0f;
  const double t0 = thread_cpu_ms();
  for (int i = 0; i < chunks; ++i) sink = sink + arithmetic(data) + allocation();
  return thread_cpu_ms() - t0;
}

void Pace::tick(int chunks) {
  const double cpu_ms = run_chunks(chunks);
  std::lock_guard<std::mutex> lock(mu_);
  cpu_ms_ += cpu_ms;
  chunks_ += chunks;
}

double Pace::chunk_ms() const {
  std::lock_guard<std::mutex> lock(mu_);
  return chunks_ > 0 ? cpu_ms_ / chunks_ : 0.0;
}

double Pace::scale() const {
  const double measured = chunk_ms();
  return measured > 0 ? kPaceNominalMs / measured : 1.0;
}

}  // namespace dg::ledger
