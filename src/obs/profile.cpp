#include "obs/profile.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <string_view>

namespace dg::obs {

namespace {

// Op rows and kernel rows, each under its bare name; snapshot() adds the
// "kernel." prefix. A lookup takes the name as a string_view, so a row
// allocates only on its first call.
using Rows = std::map<std::string, OpStats, std::less<>>;
std::mutex g_mu;
Rows g_ops;
Rows g_kernels;

OpStats& row(Rows& rows, std::string_view name) {
  auto it = rows.find(name);
  if (it == rows.end()) it = rows.emplace(name, OpStats{}).first;
  return it->second;
}

// Boundary-clock epoch: bumped on start()/clear() so every thread's stale
// thread-local boundary timestamp is discarded lazily (a thread cannot
// reset another thread's TLS).
std::atomic<std::uint64_t> g_epoch{0};
thread_local std::uint64_t t_epoch = 0;
thread_local std::int64_t t_last_boundary_ns = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::atomic<bool>& Profiler::enabled_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}

void Profiler::start() {
  clear();
  enabled_flag().store(true, std::memory_order_release);
}

void Profiler::stop() {
  enabled_flag().store(false, std::memory_order_release);
}

void Profiler::clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_ops.clear();
  g_kernels.clear();
  g_epoch.fetch_add(1, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, OpStats>> Profiler::snapshot() {
  std::vector<std::pair<std::string, OpStats>> out;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    out.assign(g_ops.begin(), g_ops.end());
    for (const auto& [name, s] : g_kernels) {
      out.emplace_back("kernel." + name, s);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

void Profiler::note_op(const char* op, std::uint64_t flops,
                       std::uint64_t bytes) {
  if (!enabled()) return;
  const std::int64_t now = now_ns();
  const std::uint64_t epoch = g_epoch.load(std::memory_order_relaxed);
  std::int64_t wall = 0;
  if (t_epoch == epoch && t_last_boundary_ns != 0) {
    wall = now - t_last_boundary_ns;
  }
  t_epoch = epoch;
  t_last_boundary_ns = now;

  std::lock_guard<std::mutex> lock(g_mu);
  OpStats& s = row(g_ops, op);
  ++s.calls;
  s.wall_ns += wall > 0 ? static_cast<std::uint64_t>(wall) : 0;
  s.flops += flops;
  s.bytes += bytes;
}

void Profiler::mark() {
  if (!enabled()) return;
  t_epoch = g_epoch.load(std::memory_order_relaxed);
  t_last_boundary_ns = now_ns();
}

void Profiler::record_kernel(const char* name, std::uint64_t wall_ns,
                             std::uint64_t flops, std::uint64_t bytes) {
  if (!enabled()) return;  // also drops timers that straddle a stop()
  std::lock_guard<std::mutex> lock(g_mu);
  OpStats& s = row(g_kernels, name);
  ++s.calls;
  s.wall_ns += wall_ns;
  s.flops += flops;
  s.bytes += bytes;
}

std::string Profiler::to_json() {
  const auto snap = snapshot();
  std::string out = "{\"ops\":{";
  bool first = true;
  for (const auto& [name, s] : snap) {
    if (!first) out += ',';
    first = false;
    out += '"';
    out += name;  // op names are static identifiers; no escaping needed
    out += "\":{\"calls\":" + std::to_string(s.calls);
    out += ",\"wall_ns\":" + std::to_string(s.wall_ns);
    out += ",\"flops\":" + std::to_string(s.flops);
    out += ",\"bytes\":" + std::to_string(s.bytes) + "}";
  }
  out += "}}";
  return out;
}

KernelTimer::KernelTimer(const char* name, std::uint64_t flops,
                         std::uint64_t bytes)
    : name_(name), flops_(flops), bytes_(bytes) {
  if (!Profiler::enabled()) return;
  active_ = true;
  t0_ns_ = now_ns();
}

KernelTimer::~KernelTimer() {
  if (!active_) return;
  const std::int64_t dt = now_ns() - t0_ns_;
  Profiler::record_kernel(name_, dt > 0 ? static_cast<std::uint64_t>(dt) : 0,
                          flops_, bytes_);
}

}  // namespace dg::obs
