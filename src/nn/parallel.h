// Intra-op parallelism for the nn kernels: a lazily-initialized, process-wide
// thread pool and its one range partitioner, `parallel_for`.
//
// Determinism contract (load-bearing for gradcheck, AnomalyGuard reproduction
// and seeded experiment figures): every kernel produces bit-identical results
// for ANY thread count, including 1.
//
//  * `parallel_for` splits [begin, end) into at most num_threads() contiguous
//    partitions. Use it only when each index writes an independent output
//    location: the result is then independent of where the partition
//    boundaries fall. It has two callers: nn::run_op for the product row
//    kernels (matmul, matmul_nt, affine, lstm_gates), which partition output
//    rows, and core::TapeExecutor::step, which partitions lanes.
//  * Every other kernel runs on the calling thread: elementwise, layout and
//    whole-batch kernels alike. The reductions (col_sum, sum) fold fixed-size
//    chunks serially and combine the partials in ascending chunk order
//    (nn/ops.cpp): that order, not a partition, fixes their bytes.
//  * Every partition runs under the floating-point mode (MXCSR on x86-64:
//    rounding, flush-to-zero, denormals-are-zero) of the thread that called
//    the primitive, not the mode its worker inherited when the pool was
//    spawned, so a `FlushDenormalsGuard` on the caller covers the pool too.
//
// Pool sizing: first use reads DG_THREADS (>= 1; 1 = fully serial, no worker
// threads ever started), defaulting to std::thread::hardware_concurrency().
// `set_num_threads` reconfigures at runtime (tests and benchmark sweeps).
#pragma once

#include <cstdint>

namespace dg::nn {

/// Configured pool size (>= 1). Resolves DG_THREADS on first call.
int num_threads();

/// Where the current thread count came from: "DG_THREADS",
/// "hardware_concurrency" or "set_num_threads".
const char* num_threads_source();

/// Reconfigures the pool to n threads (clamped to >= 1). In-flight parallel
/// regions keep the old pool alive until they finish; a new pool is spun up
/// lazily.
void set_num_threads(int n);

/// Flushes subnormal floats to zero on the calling thread for its lifetime:
/// sets MXCSR FTZ (subnormal results become 0) and DAZ (subnormal operands
/// read as 0) on x86-64, a no-op on other targets. The destructor restores
/// the caller's FTZ/DAZ bits on every exit path, so guards nest. Pool
/// partitions run under their caller's mode (see the contract above).
class FlushDenormalsGuard {
 public:
  FlushDenormalsGuard();
  ~FlushDenormalsGuard();
  FlushDenormalsGuard(const FlushDenormalsGuard&) = delete;
  FlushDenormalsGuard& operator=(const FlushDenormalsGuard&) = delete;

 private:
  std::uint32_t saved_;
};

// FLOPs per row partition of a product kernel: a product's range is not
// split finer. BM_ForkJoin (bench/perf_microbench.cpp) measures what a fork
// must amortize: on a 4-vCPU x86 VM (nproc 4, GCC 12, Release) a region
// costs 8-15 us with an empty body at 2 or 4 threads, and 14-23 us over four
// 16 Ki-float grains that take 6 us inline. That is why no elementwise,
// layout or reduction kernel forks, and this grain still splits products
// finer than a region repays.
inline constexpr std::int64_t kGrainMatmulFlops = 1 << 16;

namespace detail {
// Type-erased implementation (keeps std::function out of the hot headers).
using RangeFn = void (*)(void* ctx, std::int64_t begin, std::int64_t end);
void parallel_run(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  RangeFn fn, void* ctx);
}  // namespace detail

/// f(begin, end) over contiguous partitions of [begin, end); at most one
/// partition per pool thread and none smaller than `grain` (except the last).
/// Runs inline when the range fits one grain or the pool has one thread.
template <typename F>
inline void parallel_for(std::int64_t begin, std::int64_t end,
                         std::int64_t grain, const F& f) {
  if (end <= begin) return;
  detail::parallel_run(
      begin, end, grain > 0 ? grain : 1,
      [](void* ctx, std::int64_t b, std::int64_t e) {
        (*static_cast<const F*>(ctx))(b, e);
      },
      const_cast<void*>(static_cast<const void*>(&f)));
}

}  // namespace dg::nn
