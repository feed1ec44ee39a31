#include "serve/shard/router.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "data/types.h"
#include "obs/trace.h"
#include "obs/tracectx.h"
#include "serve/protocol.h"

namespace dg::serve::shard {

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

std::size_t shard_of(std::uint64_t seed, std::size_t n) {
  if (n == 0) return 0;
  // splitmix64 finalizer: full-avalanche, so consecutive seeds spread
  // uniformly instead of striding the modulus.
  std::uint64_t x = seed + 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  x ^= x >> 31;
  return static_cast<std::size_t>(x % n);
}

Router::Router(WorkerPool& pool, RouterConfig cfg)
    : pool_(pool),
      cfg_(cfg),
      cache_(cfg.cache_capacity),
      health_(pool, cfg.health) {
  health_.set_on_fleet_change([this](const std::string&) {
    cache_invalidations_.add(1);
    cache_.invalidate();
  });
}

Router::~Router() { stop(); }

void Router::start() {
  health_.sweep_now();
  health_.start();
}

void Router::stop() { health_.stop(); }

LineHandler Router::handler() {
  return [this](const std::string& line) { return handle_line(line); };
}

std::string Router::error_reply(std::uint64_t id, const std::string& what,
                                const char* code) {
  GenResponse resp;
  resp.id = id;
  resp.error = what;
  resp.code = code;
  std::string reply;
  append_response(reply, resp, data::Schema{});
  return reply;
}

bool Router::try_forward(Worker& w, const std::string& line,
                         std::string& reply) {
  w.add_inflight(1);
  struct Guard {
    Worker& w;
    ~Guard() { w.add_inflight(-1); }
  } guard{w};
  // Two attempts against the SAME worker: a pooled socket can be stale
  // after the worker restarted, and that must read as "redial", not as a
  // dead replica (which would silently break seed affinity).
  for (int attempt = 0; attempt < 2; ++attempt) {
    try {
      std::unique_ptr<TcpClient> conn = w.checkout();
      reply = conn->call(line);
      w.checkin(std::move(conn));
      return true;
    } catch (const std::exception&) {
      transport_errors_.add(1);
      w.drop_connections();
    }
  }
  return false;
}

bool Router::should_sample() {
  if (cfg_.trace_sample_rate <= 0.0 || !obs::Trace::enabled()) return false;
  if (cfg_.trace_sample_rate >= 1.0) return true;
  const auto period =
      static_cast<std::uint64_t>(std::llround(1.0 / cfg_.trace_sample_rate));
  return sample_counter_.fetch_add(1, std::memory_order_relaxed) % period == 0;
}

std::string Router::handle_generate(const json::Value& req_json,
                                    const std::string& line) {
  const auto t0 = std::chrono::steady_clock::now();
  requests_.add(1);
  GenRequest req;
  try {
    req = request_from_json(req_json);
  } catch (const std::exception& e) {
    bad_requests_.add(1);
    return error_reply(request_id(req_json), e.what(),
                       error_code::kBadRequest);
  }

  // Sampling decision: a sampled request is the trace root — every router
  // span below opens under this ambient context, and the forwarded line is
  // re-stamped per attempt so the worker's spans parent under that attempt.
  // Unsampled requests (the overwhelming majority) take the exact original
  // path: no spans, and the original line is forwarded verbatim.
  if (should_sample()) req.trace.trace_id = obs::next_trace_id();
  const bool sampled = req.trace.sampled();
  std::optional<obs::TraceScope> scope;
  std::optional<obs::Span> root;
  if (sampled) {
    scope.emplace(obs::TraceContext{req.trace.trace_id, 0});
    root.emplace("router.request", "router");
  }

  // Cache first: a hit is provably the worker's answer (see cache.h), and
  // serving memory is never worth shedding, so hits bypass admission.
  const std::string key = cache_key(health_.fleet_hash(), req);
  if (!key.empty()) {
    std::optional<obs::Span> lookup;
    if (sampled) lookup.emplace("router.cache_lookup", "router");
    std::string cached;
    if (cache_.lookup(key, cached)) {
      cache_hits_.add(1);
      responses_.add(1);
      latency_ms_.record(ms_since(t0), req.trace.trace_id);
      return rewrite_reply_id(cached, req.id);
    }
    cache_misses_.add(1);
  }

  // SLO admission: while the fleet's exact p99 (from the workers' own
  // histograms, refreshed each health sweep) is over budget, prefer a fast
  // structured refusal over joining the convoy.
  {
    std::optional<obs::Span> admission;
    if (sampled) admission.emplace("router.admission", "router");
    if (cfg_.slo_p99_ms > 0.0 && health_.max_p99_ms() > cfg_.slo_p99_ms) {
      shed_slo_.add(1);
      return error_reply(req.id,
                         "fleet p99 " + std::to_string(health_.max_p99_ms()) +
                             "ms exceeds SLO " +
                             std::to_string(cfg_.slo_p99_ms) + "ms",
                         error_code::kShed);
    }
  }

  const std::size_t n = pool_.size();
  const std::size_t home = shard_of(req.seed, n);
  bool any_up = false;
  bool any_unsaturated = false;
  std::string reply;
  std::size_t used = home;
  bool got = false;
  for (std::size_t k = 0; k < n && !got; ++k) {
    const std::size_t i = (home + k) % n;
    Worker& w = pool_.worker(i);
    if (!w.routable()) continue;
    any_up = true;
    if (w.inflight() >= cfg_.max_inflight_per_worker) continue;
    any_unsaturated = true;
    const std::string* fwd = &line;
    std::optional<obs::Span> attempt;
    std::string stamped;
    if (sampled) {
      // Route attempt k: the worker's request span parents under THIS
      // attempt, so a failover shows up as sibling attempt spans with the
      // successful worker's subtree under the last one.
      attempt.emplace("router.attempt", "router");
      req.trace.parent_span = attempt->span_id();
      stamped = json::dump(request_to_json(req));
      fwd = &stamped;
    }
    if (try_forward(w, *fwd, reply)) {
      got = true;
      used = i;
    }
  }
  if (!got) {
    if (!any_up) {
      unroutable_.add(1);
      return error_reply(req.id, "no healthy worker",
                         error_code::kWorkerDown);
    }
    if (!any_unsaturated) {
      shed_saturated_.add(1);
      return error_reply(req.id, "all workers at inflight cap",
                         error_code::kShed);
    }
    unroutable_.add(1);
    return error_reply(req.id, "no worker reachable",
                       error_code::kWorkerDown);
  }
  if (used != home) reroutes_.add(1);
  responses_.add(1);
  latency_ms_.record(ms_since(t0), req.trace.trace_id);

  // Insert only complete successes whose producing package matches the
  // CURRENT consensus — a reply generated mid-rollout by a straggler
  // worker must never be stored under the new package's identity. Sampled
  // replies are never inserted: they carry this request's trace id, which
  // must not replay to a later cache-hit client.
  if (cfg_.cache_capacity > 0 && !sampled) {
    const std::string fleet = health_.fleet_hash();
    if (reply_cacheable(reply, fleet)) {
      if (cache_.insert(cache_key(fleet, req), reply)) {
        cache_evictions_.add(1);
      }
      cache_inserts_.add(1);
    }
  }
  return reply;
}

std::string Router::handle_stats() {
  const std::size_t n = pool_.size();
  json::Value v{json::Object{}};
  v.set("ok", true);
  v.set("tier", "router");
  v.set("fleet_hash", health_.fleet_hash());

  json::Array workers;
  std::uint64_t sum_requests = 0, sum_responses = 0, sum_queue = 0;
  std::uint64_t sum_reloads = 0, sum_reload_rejected = 0;
  double max_p99 = 0.0, sum_occupancy = 0.0;
  std::size_t up = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Worker& w = pool_.worker(i);
    const WorkerEndpoint ep = w.endpoint();
    const WorkerHealth h = w.health();
    json::Value row{json::Object{}};
    row.set("index", static_cast<double>(i));
    row.set("host", ep.host);
    row.set("port", ep.port);
    row.set("state", to_string(w.state()));
    row.set("inflight", w.inflight());
    row.set("requests", h.requests);
    row.set("responses", h.responses);
    row.set("queue_depth", h.queue_depth);
    row.set("occupancy", h.occupancy);
    row.set("p99_latency_ms", h.p99_latency_ms);
    row.set("package_reloads", h.package_reloads);
    row.set("reload_rejected", h.reload_rejected);
    row.set("package_hash", h.package_hash);
    workers.push_back(std::move(row));
    if (w.state() == WorkerState::Up) {
      ++up;
      max_p99 = std::max(max_p99, h.p99_latency_ms);
      sum_occupancy += h.occupancy;
    }
    sum_requests += h.requests;
    sum_responses += h.responses;
    sum_queue += h.queue_depth;
    sum_reloads += h.package_reloads;
    sum_reload_rejected += h.reload_rejected;
  }
  v.set("workers", std::move(workers));

  json::Value fleet{json::Object{}};
  fleet.set("workers", static_cast<double>(n));
  fleet.set("workers_up", static_cast<double>(up));
  fleet.set("requests", sum_requests);
  fleet.set("responses", sum_responses);
  fleet.set("queue_depth", sum_queue);
  fleet.set("package_reloads", sum_reloads);
  fleet.set("reload_rejected", sum_reload_rejected);
  fleet.set("p99_latency_ms", max_p99);
  fleet.set("mean_occupancy", up == 0 ? 0.0
                                      : sum_occupancy / static_cast<double>(up));
  v.set("fleet", std::move(fleet));

  json::Value router{json::Object{}};
  router.set("requests", requests_.get());
  router.set("responses", responses_.get());
  router.set("shed_saturated", shed_saturated_.get());
  router.set("shed_slo", shed_slo_.get());
  router.set("unroutable", unroutable_.get());
  router.set("reroutes", reroutes_.get());
  router.set("transport_errors", transport_errors_.get());
  router.set("bad_requests", bad_requests_.get());
  router.set("cache_hits", cache_hits_.get());
  router.set("cache_misses", cache_misses_.get());
  router.set("cache_inserts", cache_inserts_.get());
  router.set("cache_evictions", cache_evictions_.get());
  router.set("cache_invalidations", cache_invalidations_.get());
  router.set("cache_entries", static_cast<double>(cache_.size()));
  router.set("worker_restarts", pool_.respawns());
  const obs::HistogramSnapshot lat = latency_ms_.snapshot();
  router.set("p50_latency_ms", lat.p50);
  router.set("p99_latency_ms", lat.p99);
  v.set("router", std::move(router));
  return json::dump(v);
}

void Router::refresh_gauges() {
  registry_.gauge("router.workers").set(static_cast<double>(pool_.size()));
  std::size_t up = 0;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (pool_.worker(i).state() == WorkerState::Up) ++up;
  }
  registry_.gauge("router.workers_up").set(static_cast<double>(up));
  registry_.gauge("router.cache_entries")
      .set(static_cast<double>(cache_.size()));
  registry_.gauge("router.worker_restarts")
      .set(static_cast<double>(pool_.respawns()));
  registry_.gauge("router.fleet_p99_ms").set(health_.max_p99_ms());
}

std::string Router::handle_metrics() {
  refresh_gauges();
  std::vector<obs::RegistrySnapshot> parts;
  std::string workers_out = "[";
  bool first = true;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    Worker& w = pool_.worker(i);
    if (w.state() != WorkerState::Up) continue;
    std::string reply;
    if (!try_forward(w, "{\"op\":\"metrics\"}", reply)) continue;
    try {
      const json::Value rv = json::parse(reply);
      const json::Value* service = rv.find("service");
      if (!service) continue;
      parts.push_back(registry_snapshot_from_json(*service));
      if (!first) workers_out += ',';
      first = false;
      workers_out += "{\"index\":" + std::to_string(i) +
                     ",\"service\":" + json::dump(*service) + "}";
    } catch (const std::exception&) {
    }
  }
  workers_out += "]";
  return "{\"ok\":true,\"tier\":\"router\",\"router\":" +
         obs::to_json(registry_.snapshot()) +
         ",\"fleet\":" + obs::to_json(obs::merge_snapshots(parts)) +
         ",\"workers\":" + workers_out + "}";
}

std::string Router::handle_trace() {
  // Fleet trace drain: the router's own span ring plus every Up worker's,
  // each tagged with the clock alignment the health sweep last measured so
  // the client can rebase worker timestamps onto the router's timebase
  // (worker ts + offset_us ≈ router ts, ± skew_us). Draining is
  // destructive per process — each call returns only spans emitted since
  // the previous drain — but the epochs are untouched, so successive
  // drains stay mutually alignable.
  json::Value v{json::Object{}};
  v.set("ok", true);
  v.set("tier", "router");
  json::Array procs;
  {
    json::Value self{json::Object{}};
    self.set("pid", 1.0);
    self.set("name", "router");
    self.set("offset_us", static_cast<std::int64_t>(0));
    self.set("skew_us", static_cast<std::int64_t>(0));
    self.set("dropped", obs::Trace::dropped());
    self.set("events", trace_events_to_json(obs::Trace::drain()));
    procs.push_back(std::move(self));
  }
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    Worker& w = pool_.worker(i);
    if (w.state() != WorkerState::Up) continue;
    std::string reply;
    if (!try_forward(w, "{\"op\":\"trace\"}", reply)) continue;
    try {
      const json::Value rv = json::parse(reply);
      if (!rv.bool_or("ok", false)) continue;  // old worker without the op
      const json::Value* events = rv.find("events");
      if (!events) continue;
      const WorkerEndpoint ep = w.endpoint();
      const WorkerHealth h = w.health();
      json::Value row{json::Object{}};
      row.set("pid", static_cast<double>(2 + i));
      row.set("name", "worker" + std::to_string(i));
      row.set("index", static_cast<double>(i));
      row.set("host", ep.host);
      row.set("port", ep.port);
      row.set("offset_us", h.clock_offset_us);
      row.set("skew_us", h.clock_skew_us);
      row.set("dropped", rv.number_or("dropped", 0));
      row.set("events", *events);
      procs.push_back(std::move(row));
    } catch (const std::exception&) {
    }
  }
  v.set("processes", std::move(procs));
  return json::dump(v);
}

std::string Router::handle_schema() {
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    Worker& w = pool_.worker(i);
    if (w.state() != WorkerState::Up) continue;
    std::string reply;
    if (try_forward(w, "{\"op\":\"schema\"}", reply)) return reply;
  }
  json::Value v{json::Object{}};
  v.set("ok", false);
  v.set("error", "no healthy worker");
  v.set("code", error_code::kWorkerDown);
  return json::dump(v);
}

std::string Router::handle_admin(const std::string& op,
                                 const json::Value& req) {
  json::Value v{json::Object{}};
  // Only an integral index names a worker: 0.5 must not truncate to 0.
  const double raw = req.number_or("worker", -1.0);
  const std::optional<std::uint64_t> index = to_u64(raw);
  if (!index || static_cast<double>(*index) != raw || *index >= pool_.size()) {
    v.set("ok", false);
    v.set("error", "missing or out-of-range 'worker' index");
    v.set("code", error_code::kBadRequest);
    return json::dump(v);
  }
  const auto i = static_cast<std::size_t>(*index);
  Worker& w = pool_.worker(i);
  if (op == "drain") {
    w.set_state(WorkerState::Draining);
  } else if (op == "undrain") {
    if (w.state() == WorkerState::Draining) w.set_state(WorkerState::Up);
  } else {  // restart
    if (!pool_.managed()) {
      v.set("ok", false);
      v.set("error", "pool is unmanaged; restart the worker yourself");
      v.set("code", error_code::kBadRequest);
      return json::dump(v);
    }
    if (!pool_.restart(i)) {
      v.set("ok", false);
      v.set("error", "restart failed; worker left down");
      v.set("code", error_code::kWorkerDown);
      return json::dump(v);
    }
    health_.sweep_now();  // promote the fresh process without waiting a period
  }
  v.set("ok", true);
  v.set("worker", static_cast<double>(i));
  v.set("state", to_string(w.state()));
  return json::dump(v);
}

std::string Router::handle_line(const std::string& line) {
  try {
    const json::Value req = json::parse(line);
    const std::string op = req.string_or("op", "generate");
    if (op == "generate") return handle_generate(req, line);
    if (op == "stats" || op == "workers") return handle_stats();
    if (op == "metrics") return handle_metrics();
    if (op == "trace") return handle_trace();
    if (op == "schema") return handle_schema();
    if (op == "drain" || op == "undrain" || op == "restart") {
      return handle_admin(op, req);
    }
    json::Value v{json::Object{}};
    v.set("ok", false);
    v.set("error", "unknown op '" + op + "'");
    v.set("code", error_code::kBadRequest);
    return json::dump(v);
  } catch (const std::exception& e) {
    bad_requests_.add(1);
    json::Value v{json::Object{}};
    v.set("ok", false);
    v.set("error", e.what());
    v.set("code", error_code::kBadRequest);
    return json::dump(v);
  }
}

}  // namespace dg::serve::shard
