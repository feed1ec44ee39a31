#include "serve/service.h"

#include "core/tape_exec.h"
#include "obs/trace.h"
#include "obs/tracectx.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <tuple>
#include <unordered_map>
#include <utility>

namespace dg::serve {

namespace {

namespace fs = std::filesystem;

// Reads the whole file; false on any IO failure (vanished mid-replace).
bool read_file_bytes(const std::string& path, std::string& out) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return false;
  std::ostringstream os;
  os << is.rdbuf();
  if (!is.good() && !is.eof()) return false;
  out = os.str();
  return true;
}

// Hex FNV-1a-64 over a byte string: the package content identity the shard
// cache keys on. Loading from the hashed bytes (not a second file read)
// guarantees the hash always names the weights actually being served, even
// if the file is replaced between reads.
std::string fnv1a_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return std::string(buf);
}

// The package at `path`, read once: the bytes that pass preflight are the
// bytes hashed and loaded, so a file replaced mid-load can never serve
// weights that skipped preflight. Throws std::invalid_argument naming why
// the package was refused.
std::pair<std::shared_ptr<const core::DoppelGanger>, std::string>
load_preflighted_package(const std::string& path) {
  std::string bytes;
  if (!read_file_bytes(path, bytes)) {
    throw std::invalid_argument("serve: cannot read package " + path);
  }
  std::istringstream is(bytes);
  // load_package preflights what it loads: schema<->config<->weight-shape
  // consistency and the generation tape are checked from the headers alone,
  // so a broken package fails here with a structured diagnostic instead of
  // a mid-construction throw (or worse, a model that serves garbage).
  try {
    return {core::load_package(is), fnv1a_hex(bytes)};
  } catch (const std::runtime_error& e) {
    throw std::invalid_argument("serve: cannot load " + path + ": " +
                                e.what());
  }
}

// Package mtime as an opaque tick count; 0 when the file is unreadable.
std::int64_t file_mtime(const std::string& path) {
  std::error_code ec;
  const fs::file_time_type t = fs::last_write_time(path, ec);
  if (ec) return 0;
  return static_cast<std::int64_t>(t.time_since_epoch().count());
}

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Explicit span for work whose open and close straddle threads (submit on
// a connection thread, delivery on an engine thread): timestamps are
// captured in the trace timebase and the ids are carried on the request.
void record_span(const char* name, std::int64_t t0_us, std::int64_t t1_us,
                 std::uint64_t trace_id, std::uint64_t span_id,
                 std::uint64_t parent_span) {
  obs::TraceEvent e;
  e.name = name;
  e.category = "serve";
  e.ts_us = t0_us;
  e.dur_us = t1_us - t0_us;
  e.trace_id = trace_id;
  e.span_id = span_id;
  e.parent_span = parent_span;
  obs::Trace::record(std::move(e));
}

}  // namespace

GenerationService::GenerationService(ServiceConfig cfg)
    : cfg_(std::move(cfg)), queue_(cfg_.queue_capacity) {
  if (cfg_.package_path.empty()) {
    throw std::invalid_argument("serve: ServiceConfig.package_path is empty");
  }
  std::tie(model_, package_hash_) =
      load_preflighted_package(cfg_.package_path);
  package_mtime_ = file_mtime(cfg_.package_path);
  if (cfg_.slots < 1) throw std::invalid_argument("serve: slots must be >= 1");
  if (cfg_.engines < 1) throw std::invalid_argument("serve: engines must be >= 1");
}

GenerationService::GenerationService(
    std::shared_ptr<const core::DoppelGanger> model, ServiceConfig cfg)
    : cfg_(std::move(cfg)), model_(std::move(model)),
      queue_(cfg_.queue_capacity) {
  if (!model_) throw std::invalid_argument("serve: null model");
  if (cfg_.slots < 1) throw std::invalid_argument("serve: slots must be >= 1");
  if (cfg_.engines < 1) throw std::invalid_argument("serve: engines must be >= 1");
  // A package passed preflight, tape included; an injected model did not.
  // Refuse it here, not in an engine thread, where building its sampler
  // would throw into std::terminate.
  core::TapeExecutor::create_or_throw(*model_, cfg_.slots);
  if (!cfg_.package_path.empty()) {
    package_mtime_ = file_mtime(cfg_.package_path);
  }
}

GenerationService::~GenerationService() { stop(); }

void GenerationService::start() {
  if (running_.exchange(true, std::memory_order_acq_rel)) return;
  last_poll_ = std::chrono::steady_clock::now();
  engines_.reserve(static_cast<std::size_t>(cfg_.engines));
  for (int i = 0; i < cfg_.engines; ++i) {
    engines_.emplace_back([this] { engine_loop(); });
  }
}

void GenerationService::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  queue_.close();
  for (std::thread& t : engines_) {
    if (t.joinable()) t.join();
  }
  engines_.clear();
  // Fail anything still queued (engines drain the queue on exit, but a
  // submit may have raced the close).
  while (auto pr = queue_.try_pop()) {
    GenResponse resp;
    resp.id = (*pr)->req.id;
    resp.error = "service stopped";
    resp.code = error_code::kDraining;
    (*pr)->promise.set_value(std::move(resp));
  }
}

std::shared_ptr<const core::DoppelGanger> GenerationService::current_model()
    const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return model_;
}

data::Schema GenerationService::schema() const {
  return current_model()->schema();
}

std::future<GenResponse> GenerationService::submit(GenRequest req) {
  auto pr = std::make_shared<PendingRequest>();
  pr->t_submit = std::chrono::steady_clock::now();
  if (req.trace.sampled() && obs::Trace::enabled()) {
    pr->span_id = obs::next_trace_id();
    pr->t_submit_us = obs::Trace::now_us();
  }
  std::future<GenResponse> fut = pr->promise.get_future();
  requests_.add(1);

  auto reject = [&](const std::string& why, const char* code) {
    GenResponse resp;
    resp.id = req.id;
    resp.error = why;
    resp.code = code;
    resp.latency_ms = ms_since(pr->t_submit);
    pr->promise.set_value(std::move(resp));
  };

  if (!running_.load(std::memory_order_acquire)) {
    reject("service not running", error_code::kDraining);
    return fut;
  }
  try {
    resolve_request(req, current_model()->schema());
  } catch (const std::exception& e) {
    reject(e.what(), error_code::kBadRequest);
    return fut;
  }
  pr->req = std::move(req);
  pr->ticket = next_ticket_.fetch_add(1, std::memory_order_relaxed);
  if (!queue_.push(pr)) {  // pr stays valid: the queue holds a copy at most
    GenResponse resp;
    resp.id = pr->req.id;
    resp.error = "service stopped";
    resp.code = error_code::kDraining;
    resp.latency_ms = ms_since(pr->t_submit);
    pr->promise.set_value(std::move(resp));
  }
  return fut;
}

void GenerationService::record_latency(double ms, std::uint64_t trace_id) {
  latency_ms_.record(ms, trace_id);
}

void GenerationService::add_sampler_delta(const SamplerStats& now,
                                          SamplerStats& last) {
  rnn_steps_.add(now.rnn_steps - last.rnn_steps);
  slot_steps_active_.add(now.slot_steps_active - last.slot_steps_active);
  slot_steps_total_.add(now.slot_steps_total - last.slot_steps_total);
  series_completed_.add(now.series_completed - last.series_completed);
  series_rejected_.add(now.series_rejected - last.series_rejected);
  last = now;
}

void GenerationService::maybe_reload() {
  if (cfg_.package_path.empty() || cfg_.reload_poll_seconds <= 0.0) return;
  const auto now = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    if (std::chrono::duration<double>(now - last_poll_).count() <
        cfg_.reload_poll_seconds) {
      return;
    }
    last_poll_ = now;
  }
  const std::int64_t mtime = file_mtime(cfg_.package_path);
  if (mtime == 0) return;  // transiently unreadable (mid-replace): retry later
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    if (mtime == package_mtime_) return;
    if (mtime == rejected_mtime_) return;  // already diagnosed this version
  }
  // A truncated or inconsistent package on disk must never displace the
  // weights we are serving. A rejection is remembered by mtime so the
  // counter ticks once per bad file version, not once per poll.
  std::shared_ptr<const core::DoppelGanger> fresh;
  std::string fresh_hash;
  try {
    std::tie(fresh, fresh_hash) = load_preflighted_package(cfg_.package_path);
  } catch (const std::exception&) {
    std::lock_guard<std::mutex> lock(model_mu_);
    rejected_mtime_ = mtime;
    reload_rejected_.add(1);
    return;
  }
  std::lock_guard<std::mutex> lock(model_mu_);
  model_ = std::move(fresh);
  package_hash_ = std::move(fresh_hash);
  package_mtime_ = mtime;
  rejected_mtime_ = 0;
  ++model_generation_;
  reloads_.add(1);
}

std::string GenerationService::package_hash() const {
  std::lock_guard<std::mutex> lock(model_mu_);
  return package_hash_;
}

void GenerationService::engine_loop() {
  // Per-request assembly state, keyed by the service ticket.
  struct Tracking {
    PendingPtr pr;
    std::vector<data::Object> objects;  // indexed by series position
    std::vector<bool> accepted;
    int remaining = 0;
    long long rejected = 0;
  };
  std::unordered_map<std::uint64_t, Tracking> inflight;

  std::shared_ptr<const core::DoppelGanger> model = current_model();
  std::uint64_t my_generation;
  std::string my_hash;  // package hash of the weights THIS engine serves
  {
    std::lock_guard<std::mutex> lock(model_mu_);
    my_generation = model_generation_;
    my_hash = package_hash_;
  }
  auto sampler = std::make_unique<SlotSampler>(model, cfg_.slots);
  SamplerStats last_stats;

  auto admit = [&](PendingPtr pr) {
    if (pr->span_id != 0) {
      // Queue wait: submit to engine pickup, parented under the request
      // span recorded at delivery.
      record_span("serve.queue_wait", pr->t_submit_us, obs::Trace::now_us(),
                  pr->req.trace.trace_id, obs::next_trace_id(), pr->span_id);
    }
    Tracking t;
    t.pr = std::move(pr);
    const GenRequest& req = t.pr->req;
    t.objects.resize(static_cast<std::size_t>(req.count));
    t.accepted.assign(static_cast<std::size_t>(req.count), false);
    t.remaining = req.count;
    SeriesSpecPtr spec;
    if (!req.fixed.empty() || !req.where.empty()) {
      auto s = std::make_shared<SeriesSpec>();
      const data::Schema& schema = model->schema();
      for (const FixedAttr& f : req.fixed) {
        for (int j = 0; j < schema.num_attributes(); ++j) {
          if (schema.attributes[static_cast<std::size_t>(j)].name == f.attr) {
            s->fixed.emplace_back(j, f.value);
          }
        }
      }
      s->where = req.where;
      spec = std::move(s);
    }
    nn::Rng root(req.seed);
    const std::uint64_t ticket = t.pr->ticket;
    for (int i = 0; i < req.count; ++i) {
      SeriesJob job;
      job.request_id = ticket;
      job.trace =
          obs::TraceContext{req.trace.trace_id, t.pr->span_id};  // lane spans
      job.index = i;
      job.rng = root.fork();
      job.max_len = req.max_len;
      job.attempts_left = req.where.empty() ? 1 : req.max_attempts;
      job.spec = spec;
      sampler->submit(std::move(job));
    }
    inflight.emplace(ticket, std::move(t));
  };

  auto deliver = [&](std::vector<SeriesResult> results) {
    for (SeriesResult& r : results) {
      auto it = inflight.find(r.request_id);
      if (it == inflight.end()) continue;
      Tracking& t = it->second;
      t.objects[static_cast<std::size_t>(r.index)] = std::move(r.object);
      t.accepted[static_cast<std::size_t>(r.index)] = r.accepted;
      t.rejected += r.attempts_used - (r.accepted ? 1 : 0);
      if (--t.remaining > 0) continue;
      GenResponse resp;
      resp.id = t.pr->req.id;
      resp.ok = true;
      resp.series_rejected = t.rejected;
      resp.objects.reserve(t.objects.size());
      int kept = 0;
      for (std::size_t i = 0; i < t.objects.size(); ++i) {
        if (t.accepted[i]) {
          resp.objects.push_back(std::move(t.objects[i]));
          ++kept;
        }
      }
      resp.complete = kept == t.pr->req.count;
      if (!resp.complete) {
        resp.error = "matched " + std::to_string(kept) + "/" +
                     std::to_string(t.pr->req.count) + " series within " +
                     std::to_string(t.pr->req.max_attempts) +
                     " attempts each";
      }
      resp.latency_ms = ms_since(t.pr->t_submit);
      resp.package_hash = my_hash;
      if (t.pr->span_id != 0) {
        const GenRequest& req = t.pr->req;
        record_span("serve.request", t.pr->t_submit_us, obs::Trace::now_us(),
                    req.trace.trace_id, t.pr->span_id, req.trace.parent_span);
        resp.trace_id = obs::trace_id_hex(req.trace.trace_id);
      }
      record_latency(resp.latency_ms, t.pr->req.trace.trace_id);
      responses_.add(1);
      t.pr->promise.set_value(std::move(resp));
      inflight.erase(it);
    }
  };

  while (true) {
    maybe_reload();

    // Swap to a freshly-loaded model once the current batch has drained:
    // never admit onto the old model while a newer one exists, and never
    // rebuild the slot array while series are in flight on it.
    bool stale;
    {
      std::lock_guard<std::mutex> lock(model_mu_);
      stale = my_generation != model_generation_;
    }
    if (stale && sampler->idle() && inflight.empty()) {
      model = current_model();
      {
        std::lock_guard<std::mutex> lock(model_mu_);
        my_generation = model_generation_;
        my_hash = package_hash_;
      }
      add_sampler_delta(sampler->stats(), last_stats);
      sampler = std::make_unique<SlotSampler>(model, cfg_.slots);
      last_stats = SamplerStats{};
      stale = false;
    }

    // Keep the slot array fed: pull work whenever lanes could go hungry.
    if (!stale) {
      while (sampler->pending() <
             static_cast<std::size_t>(sampler->width())) {
        auto pr = queue_.try_pop();
        if (!pr) break;
        admit(std::move(*pr));
      }
    }

    if (sampler->idle()) {
      if (stale) continue;  // inflight empty next iteration will swap
      // Nothing in flight: block (briefly) for work so an idle server
      // doesn't spin, but wake regularly for reload polling.
      auto pr = queue_.pop_for(std::chrono::milliseconds(50));
      if (pr) {
        admit(std::move(*pr));
      } else if (queue_.closed()) {
        break;
      }
      continue;
    }

    sampler->pump();
    add_sampler_delta(sampler->stats(), last_stats);
    deliver(sampler->drain());
  }

  // Shutdown: finish what this engine already admitted so no promise is
  // left dangling (callers may be blocked on futures).
  while (!sampler->idle()) {
    sampler->pump();
    deliver(sampler->drain());
  }
  add_sampler_delta(sampler->stats(), last_stats);
  for (auto& [ticket, t] : inflight) {
    GenResponse resp;
    resp.id = t.pr->req.id;
    resp.error = "service stopped";
    resp.code = error_code::kDraining;
    t.pr->promise.set_value(std::move(resp));
  }
}

StatsSnapshot GenerationService::stats() const {
  StatsSnapshot s;
  s.requests = requests_.get();
  s.responses = responses_.get();
  s.series_completed = series_completed_.get();
  s.series_rejected = series_rejected_.get();
  s.rnn_steps = rnn_steps_.get();
  s.slot_steps_active = slot_steps_active_.get();
  s.slot_steps_total = slot_steps_total_.get();
  s.queue_depth = queue_.size();
  s.package_reloads = reloads_.get();
  s.reload_rejected = reload_rejected_.get();
  s.occupancy = s.slot_steps_total == 0
                    ? 0.0
                    : static_cast<double>(s.slot_steps_active) /
                          static_cast<double>(s.slot_steps_total);
  // Exact nearest-rank quantiles over the histogram's retained window; a
  // partially-filled window is handled by construction (the snapshot only
  // ever sorts the filled portion).
  const obs::HistogramSnapshot lat = latency_ms_.snapshot();
  s.p50_latency_ms = lat.p50;
  s.p99_latency_ms = lat.p99;
  s.package_hash = package_hash();
  return s;
}

std::string GenerationService::metrics_json() const {
  // Derived values are refreshed into gauges at snapshot time so the
  // exported registry is self-contained.
  const StatsSnapshot s = stats();
  registry_.gauge("serve.queue_depth").set(static_cast<double>(s.queue_depth));
  registry_.gauge("serve.occupancy").set(s.occupancy);
  registry_.gauge("serve.engines").set(static_cast<double>(cfg_.engines));
  registry_.gauge("serve.slots").set(static_cast<double>(cfg_.slots));
  return obs::to_json(registry_.snapshot());
}

}  // namespace dg::serve
