#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <ostream>

#include "obs/json_string.h"
#include "obs/metrics.h"
#include "obs/tracectx.h"

namespace dg::obs {

namespace {

constexpr std::size_t kDefaultSpanCap = 65536;

std::atomic<bool> g_enabled{false};

std::mutex g_mu;
// Capped ring: grows element-by-element to g_cap, then overwrites the
// oldest entry (g_pos is the next overwrite slot == the oldest event).
std::vector<TraceEvent> g_events;
std::size_t g_cap = kDefaultSpanCap;
std::size_t g_pos = 0;
// The trace epoch, as steady_clock nanoseconds. An atomic rather than a
// time_point so now_us() — called on every span open/close — never takes
// g_mu and stays race-free against a concurrent start()/clear().
std::atomic<std::int64_t> g_epoch_ns{0};
std::atomic<std::uint64_t> g_dropped{0};

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Small stable per-thread ids (Chrome renders one track per tid).
std::atomic<std::uint64_t> g_next_tid{1};
thread_local std::uint64_t t_tid = 0;
thread_local int t_depth = 0;

std::uint64_t this_tid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

std::size_t span_cap_from_env() {
  const char* s = std::getenv("DG_OBS_SPAN_CAP");
  if (s == nullptr || *s == '\0') return kDefaultSpanCap;
  char* end = nullptr;
  const long long v = std::strtoll(s, &end, 10);
  if (end == s || v <= 0) return kDefaultSpanCap;
  return static_cast<std::size_t>(v);
}

// Requires g_mu. Chronological (oldest-first) copy-out of the ring.
std::vector<TraceEvent> ordered_events_locked() {
  std::vector<TraceEvent> out;
  out.reserve(g_events.size());
  if (g_events.size() == g_cap && g_pos != 0) {
    out.insert(out.end(), g_events.begin() + static_cast<std::ptrdiff_t>(g_pos),
               g_events.end());
    out.insert(out.end(), g_events.begin(),
               g_events.begin() + static_cast<std::ptrdiff_t>(g_pos));
  } else {
    out = g_events;
  }
  return out;
}

// Requires g_mu.
void push_locked(TraceEvent&& e) {
  if (g_events.size() < g_cap) {
    g_events.push_back(std::move(e));
    return;
  }
  g_events[g_pos] = std::move(e);
  g_pos = (g_pos + 1) % g_cap;
  g_dropped.fetch_add(1, std::memory_order_relaxed);
  Registry::global().counter("obs.trace.dropped_spans").add(1);
}

void append_ids(std::string& out, const TraceEvent& e) {
  if (e.trace_id == 0) return;
  out += ",\"trace\":\"" + trace_id_hex(e.trace_id) + '"';
  out += ",\"span\":\"" + trace_id_hex(e.span_id) + '"';
  if (e.parent_span != 0) {
    out += ",\"parent\":\"" + trace_id_hex(e.parent_span) + '"';
  }
}

}  // namespace

void Trace::start() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_events.clear();
  g_pos = 0;
  g_cap = span_cap_from_env();
  g_dropped.store(0, std::memory_order_relaxed);
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
  g_enabled.store(true, std::memory_order_release);
}

void Trace::stop() { g_enabled.store(false, std::memory_order_release); }

bool Trace::enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::vector<TraceEvent> Trace::events() {
  std::lock_guard<std::mutex> lock(g_mu);
  return ordered_events_locked();
}

std::vector<TraceEvent> Trace::drain() {
  std::lock_guard<std::mutex> lock(g_mu);
  std::vector<TraceEvent> out = ordered_events_locked();
  g_events.clear();
  g_pos = 0;
  return out;
}

void Trace::clear() {
  std::lock_guard<std::mutex> lock(g_mu);
  g_events.clear();
  g_pos = 0;
  g_epoch_ns.store(steady_ns(), std::memory_order_relaxed);
}

std::uint64_t Trace::dropped() {
  return g_dropped.load(std::memory_order_relaxed);
}

std::int64_t Trace::now_us() {
  return (steady_ns() - g_epoch_ns.load(std::memory_order_relaxed)) / 1000;
}

void Trace::record(TraceEvent e) {
  if (!enabled()) return;
  if (e.tid == 0) e.tid = this_tid();
  std::lock_guard<std::mutex> lock(g_mu);
  push_locked(std::move(e));
}

void Trace::write_chrome(std::ostream& os) {
  const std::vector<TraceEvent> evs = events();
  os << "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : evs) {
    std::string line;
    if (!first) line += ',';
    first = false;
    line += "{\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(e.tid);
    line += ",\"ts\":" + std::to_string(e.ts_us);
    line += ",\"dur\":" + std::to_string(e.dur_us);
    line += ",\"name\":";
    append_json_string(line, e.name);
    line += ",\"cat\":";
    append_json_string(line, e.category);
    line += ",\"args\":{\"depth\":" + std::to_string(e.depth);
    append_ids(line, e);
    line += "}}";
    os << line;
  }
  os << "]}";
}

void Trace::write_jsonl(std::ostream& os) {
  const std::vector<TraceEvent> evs = events();
  for (const TraceEvent& e : evs) {
    std::string line = "{\"name\":";
    append_json_string(line, e.name);
    line += ",\"cat\":";
    append_json_string(line, e.category);
    line += ",\"tid\":" + std::to_string(e.tid);
    line += ",\"ts_us\":" + std::to_string(e.ts_us);
    line += ",\"dur_us\":" + std::to_string(e.dur_us);
    line += ",\"depth\":" + std::to_string(e.depth);
    append_ids(line, e);
    line += "}";
    os << line << "\n";
  }
}

Span::Span(const char* name, const char* category)
    : name_(name), category_(category) {
  if (!Trace::enabled()) return;
  active_ = true;
  depth_ = t_depth++;
  // Attach to the ambient distributed-trace context when one is installed:
  // the span takes its own id and becomes the parent of everything it
  // lexically encloses (restored in the destructor).
  TraceContext& ctx = detail::ambient_trace();
  if (ctx.trace_id != 0) {
    trace_id_ = ctx.trace_id;
    parent_span_ = ctx.parent_span;
    span_id_ = next_trace_id();
    ctx.parent_span = span_id_;
  }
  t0_us_ = Trace::now_us();
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t t1 = Trace::now_us();
  --t_depth;
  if (span_id_ != 0) detail::ambient_trace().parent_span = parent_span_;
  // A stop() between open and close still records the event: the span was
  // opened under an enabled trace and its duration is already paid for.
  TraceEvent e;
  e.name = name_;
  e.category = category_;
  e.tid = this_tid();
  e.ts_us = t0_us_;
  e.dur_us = t1 - t0_us_;
  e.depth = depth_;
  e.trace_id = trace_id_;
  e.span_id = span_id_;
  e.parent_span = parent_span_;
  std::lock_guard<std::mutex> lock(g_mu);
  push_locked(std::move(e));
}

}  // namespace dg::obs
