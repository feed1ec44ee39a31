// Intra-op parallelism for the nn kernels: a lazily-initialized, process-wide
// thread pool plus `parallel_for` / `parallel_for_chunks` range partitioners.
//
// Determinism contract (load-bearing for gradcheck, AnomalyGuard reproduction
// and seeded experiment figures): every kernel built on these primitives
// produces bit-identical results for ANY thread count, including 1.
//
//  * `parallel_for` splits [begin, end) into at most num_threads() contiguous
//    partitions. Use it only when each index writes an independent output
//    location (elementwise ops, row-partitioned matmul): the result is then
//    independent of where the partition boundaries fall.
//  * `parallel_for_chunks` decomposes the range into FIXED-size chunks whose
//    boundaries depend only on `chunk_size` — never on the thread count —
//    and hands each chunk (with its index) to `fn`. Reductions accumulate a
//    partial per chunk and combine the partials in ascending chunk order, so
//    the floating-point association is the same no matter which thread ran
//    which chunk.
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

// Grain sizes (elements of work below which a range is not split further).
// BM_ForkJoin (bench/perf_microbench.cpp) measures what they must amortize:
// on a 4-vCPU x86 VM (nproc 4, GCC 12, Release) a region costs 8-15 us with
// an empty body at 2 or 4 threads, and 14-23 us over four kGrainElemwise
// grains that take 6 us inline, so these grains split work too fine.
inline constexpr std::int64_t kGrainElemwise = 1 << 14;  // flat float ops
inline constexpr std::int64_t kGrainReduce = 1 << 14;    // reduction chunk
inline constexpr std::int64_t kGrainMatmulFlops = 1 << 16;  // flops per row-part

namespace detail {
// Type-erased implementations (keep std::function out of the hot headers).
using RangeFn = void (*)(void* ctx, std::int64_t begin, std::int64_t end);
using ChunkFn = void (*)(void* ctx, std::int64_t chunk_index,
                         std::int64_t begin, std::int64_t end);
void parallel_run(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  RangeFn fn, void* ctx);
void parallel_run_chunks(std::int64_t n, std::int64_t chunk_size, ChunkFn fn,
                         void* ctx);
}  // namespace detail

/// Number of fixed-size chunks `parallel_for_chunks` will produce for a range
/// of n elements (0 for an empty range).
inline std::int64_t num_chunks(std::int64_t n, std::int64_t chunk_size) {
  return n <= 0 ? 0 : (n + chunk_size - 1) / chunk_size;
}

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

/// f(chunk_index, begin, end) for every fixed-size chunk of [0, n). Chunk
/// boundaries depend only on chunk_size — combine per-chunk partials in
/// ascending chunk_index order for thread-count-independent reductions.
template <typename F>
inline void parallel_for_chunks(std::int64_t n, std::int64_t chunk_size,
                                const F& f) {
  if (n <= 0) return;
  detail::parallel_run_chunks(
      n, chunk_size > 0 ? chunk_size : 1,
      [](void* ctx, std::int64_t ci, std::int64_t b, std::int64_t e) {
        (*static_cast<const F*>(ctx))(ci, b, e);
      },
      const_cast<void*>(static_cast<const void*>(&f)));
}

}  // namespace dg::nn
