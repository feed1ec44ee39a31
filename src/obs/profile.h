// Kernel/op profiler: attributes wall time, call counts, and FLOP/byte
// estimates per autograd op and per thread-pool kernel.
//
// Two attribution mechanisms feed one table:
//
//  * Op boundaries — nn::make_op calls note_op() as each op's forward value
//    materializes. The eager executor runs ops serially per thread, so the
//    time elapsed since the previous boundary on the same thread IS the
//    op's forward cost (kernel + node bookkeeping). FLOPs come from the
//    op's row in the nn op table (nn/ops.h: exact for matmul/affine/
//    lstm_gates, elementwise counts otherwise), bytes from the operand and
//    result shapes; make_op computes both. Time between
//    graph bursts (data prep, optimizer copies) is excluded by mark(),
//    which resets the thread's boundary clock.
//
//  * Kernel timers — nn::run_op (nn/ops.h) opens an RAII KernelTimer around
//    every op kernel it runs, so "kernel.matmul" rows carry exact wall time
//    (inclusive of pool fan-out/join), independent of the boundary
//    heuristic. A kernel takes its FLOPs and bytes from its op's row, so a
//    kernel row and its op row agree; every EwFn sweep is "kernel.ew".
//
// When the profiler is disabled (the default) every hook is one relaxed
// atomic load; when the library is built with -DDG_OBS=OFF the hooks are
// not compiled at all (see DG_OBS_KERNEL_TIMER and the make_op call site).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dg::obs {

struct OpStats {
  std::uint64_t calls = 0;
  std::uint64_t wall_ns = 0;
  std::uint64_t flops = 0;
  std::uint64_t bytes = 0;
};

class Profiler {
 public:
  /// Clears accumulated stats and starts attribution. Idempotent.
  static void start();
  static void stop();
  static bool enabled() {
    return enabled_flag().load(std::memory_order_relaxed);
  }

  /// Name-sorted (op rows first-come alphabetical; kernel rows are prefixed
  /// "kernel.").
  static std::vector<std::pair<std::string, OpStats>> snapshot();
  static void clear();

  /// {"ops":{name:{calls,wall_ns,flops,bytes}, ...}}
  static std::string to_json();

  // ---- hooks (called from nn; no-ops unless enabled) ----

  /// Called by nn::make_op when an op's forward value is ready, with the
  /// op's FLOPs and bytes moved.
  static void note_op(const char* op, std::uint64_t flops, std::uint64_t bytes);

  /// Excludes the time since the last boundary from attribution (call when
  /// entering a region whose cost is not an op's: data prep, optimizer).
  static void mark();

  /// Exact-wall kernel row (see KernelTimer).
  static void record_kernel(const char* name, std::uint64_t wall_ns,
                            std::uint64_t flops, std::uint64_t bytes);

  static std::atomic<bool>& enabled_flag();
};

/// RAII exact-wall timer for a named kernel. Construction is one relaxed
/// load when the profiler is off.
class KernelTimer {
 public:
  KernelTimer(const char* name, std::uint64_t flops, std::uint64_t bytes);
  ~KernelTimer();
  KernelTimer(const KernelTimer&) = delete;
  KernelTimer& operator=(const KernelTimer&) = delete;

 private:
  const char* name_;
  std::uint64_t flops_;
  std::uint64_t bytes_;
  std::int64_t t0_ns_ = 0;
  bool active_ = false;
};

}  // namespace dg::obs

#ifdef DG_OBS_ENABLED
#define DG_OBS_KERNEL_TIMER(name, flops, bytes) \
  ::dg::obs::KernelTimer dg_obs_kernel_timer_(name, flops, bytes)
#else
#define DG_OBS_KERNEL_TIMER(name, flops, bytes) \
  do {                                          \
  } while (0)
#endif
