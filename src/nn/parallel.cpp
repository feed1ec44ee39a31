#include "nn/parallel.h"

#include <algorithm>
#include <condition_variable>
#include <cstdlib>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/thread_annotations.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#define DG_HAVE_MXCSR 1
#endif

namespace dg::nn {

namespace {

/// The calling thread's floating-point control/status word: MXCSR on
/// x86-64, 0 on targets whose mode this library never changes.
std::uint32_t fp_mode() {
#ifdef DG_HAVE_MXCSR
  return _mm_getcsr();
#else
  return 0;
#endif
}

void set_fp_mode([[maybe_unused]] std::uint32_t mode) {
#ifdef DG_HAVE_MXCSR
  _mm_setcsr(mode);
#endif
}

/// MXCSR flush-to-zero (bit 15) | denormals-are-zero (bit 6).
constexpr std::uint32_t kFlushDenormalBits = 0x8040;

// Workers only execute leaf loops, but guard against accidental nesting
// (a kernel invoked from inside a parallel region runs serially).
thread_local bool t_in_worker = false;

using obs::Mutex;
using obs::MutexLock;

class ThreadPool {
 public:
  explicit ThreadPool(int workers) {
    workers_.reserve(static_cast<size_t>(workers));
    for (int i = 0; i < workers; ++i) {
      workers_.emplace_back([this] { loop(); });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      MutexLock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  void submit(std::function<void()> task) {
    {
      MutexLock lock(mu_);
      queue_.push_back(std::move(task));
    }
    cv_.notify_one();
  }

 private:
  void loop() {
    t_in_worker = true;
    for (;;) {
      std::function<void()> task;
      {
        MutexLock lock(mu_);
        while (!stop_ && queue_.empty()) cv_.wait(lock);
        if (queue_.empty()) return;  // stop_ set and nothing left to drain
        task = std::move(queue_.front());
        queue_.pop_front();
      }
      task();
    }
  }

  Mutex mu_;
  std::condition_variable_any cv_;
  std::deque<std::function<void()>> queue_ DG_GUARDED_BY(mu_);
  bool stop_ DG_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

/// Countdown the caller blocks on after submitting its partitions.
struct Latch {
  Mutex mu;
  std::condition_variable_any cv;
  int pending DG_GUARDED_BY(mu);
  std::exception_ptr error DG_GUARDED_BY(mu);

  explicit Latch(int n) : pending(n) {}

  void done(std::exception_ptr e) {
    // Notify UNDER the lock: the waiter destroys this Latch as soon as its
    // wait returns, and wait can only return after we release mu — an
    // unlocked notify could touch the cv after destruction.
    MutexLock lock(mu);
    if (e && !error) error = e;
    if (--pending == 0) cv.notify_one();
  }

  void wait() {
    MutexLock lock(mu);
    while (pending != 0) cv.wait(lock);
  }

  std::exception_ptr take_error() {
    MutexLock lock(mu);
    return error;
  }
};

struct PoolState {
  Mutex mu;
  std::shared_ptr<ThreadPool> pool DG_GUARDED_BY(mu);  // lazy; threads-1 workers
  int threads DG_GUARDED_BY(mu) = 0;  // 0 = not yet resolved
  const char* source DG_GUARDED_BY(mu) = "unresolved";
};

PoolState& state() {
  static PoolState s;
  return s;
}

/// Resolves the thread count from DG_THREADS / hardware_concurrency.
void resolve_locked(PoolState& s) DG_REQUIRES(s.mu) {
  if (s.threads != 0) return;
  if (const char* env = std::getenv("DG_THREADS")) {
    char* rest = nullptr;
    const long v = std::strtol(env, &rest, 10);
    if (rest != env && *rest == '\0' && v >= 1 && v <= 1024) {
      s.threads = static_cast<int>(v);
      s.source = "DG_THREADS";
      return;
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  s.threads = hw > 0 ? static_cast<int>(hw) : 1;
  s.source = "hardware_concurrency";
}

/// Current count plus a pool sized for it (null when serial). The shared_ptr
/// keeps a pool being retired by set_num_threads alive until its last
/// in-flight region finishes.
std::pair<int, std::shared_ptr<ThreadPool>> acquire() {
  PoolState& s = state();
  MutexLock lock(s.mu);
  resolve_locked(s);
  if (s.threads > 1 && !s.pool) {
    s.pool = std::make_shared<ThreadPool>(s.threads - 1);
  }
  return {s.threads, s.pool};
}

}  // namespace

int num_threads() {
  PoolState& s = state();
  MutexLock lock(s.mu);
  resolve_locked(s);
  return s.threads;
}

const char* num_threads_source() {
  PoolState& s = state();
  MutexLock lock(s.mu);
  resolve_locked(s);
  return s.source;
}

void set_num_threads(int n) {
  PoolState& s = state();
  MutexLock lock(s.mu);
  s.threads = std::max(1, n);
  s.source = "set_num_threads";
  s.pool.reset();  // workers for the old size wind down with the last region
}

FlushDenormalsGuard::FlushDenormalsGuard() : saved_(fp_mode()) {
  set_fp_mode(saved_ | kFlushDenormalBits);
}

FlushDenormalsGuard::~FlushDenormalsGuard() {
  // Only the two bits this guard set go back: status flags raised inside
  // the scope stay raised, as they would without the guard.
  set_fp_mode((fp_mode() & ~kFlushDenormalBits) |
              (saved_ & kFlushDenormalBits));
}

namespace detail {

void parallel_run(std::int64_t begin, std::int64_t end, std::int64_t grain,
                  RangeFn fn, void* ctx) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  if (t_in_worker || n <= grain) {
    fn(ctx, begin, end);
    return;
  }
  auto [threads, pool] = acquire();
  const std::int64_t max_parts = (n + grain - 1) / grain;
  const int parts =
      static_cast<int>(std::min<std::int64_t>(threads, max_parts));
  if (parts <= 1 || !pool) {
    fn(ctx, begin, end);
    return;
  }
  const std::int64_t base = n / parts;
  const std::int64_t rem = n % parts;
  Latch latch(parts - 1);
  std::int64_t cursor = begin + base + (rem > 0 ? 1 : 0);  // part 0 = caller's
  const std::int64_t caller_end = cursor;
  // A worker keeps the FP mode of whichever thread spawned the pool; each
  // partition runs under the caller's instead, so FTZ/DAZ on either side
  // cannot make the bits depend on which thread ran which partition.
  const std::uint32_t mode = fp_mode();
  for (int p = 1; p < parts; ++p) {
    const std::int64_t b = cursor;
    const std::int64_t e = b + base + (p < rem ? 1 : 0);
    cursor = e;
    pool->submit([fn, ctx, b, e, mode, &latch] {
      const std::uint32_t own = fp_mode();
      set_fp_mode(mode);
      std::exception_ptr err;
      try {
        fn(ctx, b, e);
      } catch (...) {
        err = std::current_exception();
      }
      set_fp_mode(own);
      latch.done(err);
    });
  }
  // Even if the caller's own partition throws, the workers still hold
  // references to the latch (and the caller's stack) — always wait first.
  std::exception_ptr caller_error;
  try {
    fn(ctx, begin, caller_end);
  } catch (...) {
    caller_error = std::current_exception();
  }
  latch.wait();
  if (caller_error) std::rethrow_exception(caller_error);
  if (std::exception_ptr worker_error = latch.take_error()) {
    std::rethrow_exception(worker_error);
  }
}

}  // namespace detail

}  // namespace dg::nn
