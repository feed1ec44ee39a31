// serve-gcut: the consumer served from a released model — the only workload
// with queueing, routing, JSON over TCP, the generation cache, continuous
// batching and small-width tape steps.
//
// Fleet: 2 GenerationService workers (8 slots, 1 engine each) on loopback
// TcpServers, behind an in-process shard::Router (default config: cache
// 1024) on its own TcpServer. Load: 4 threads, one TcpClient connection
// each. Phases after a warm-up: a closed loop in short blocks with pace
// chunks on every client thread between them (the fleet's CPU cost per
// request), then open-loop Poisson arrivals at the fixed rates
// low/mid/high, each request timed from the moment it was due. These
// measured phases send only fresh requests of the shape the repository's
// router benchmark already uses, so no assumed cache-hit rate enters the
// end-to-end numbers. A last, shorter side phase sends single-series,
// conditional and repeated requests: it checks those paths and reports them
// per layer only.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <utility>

#include "core/package.h"
#include "ledger.h"
#include "nn/parallel.h"
#include "nn/rng.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/shard/router.h"
#include "synth/synth.h"

namespace dg::ledger {
namespace {

using serve::json::Value;

// Open-loop arrival rates (req/s), frozen: 20/45/70% of the median
// closed-loop capacity of 3 runs of the commit that introduced the ledger,
// rounded to 50 req/s. kLatencyLimitMs is that commit's p99 at `high`
// doubled and rounded up to a whole ms. See README.md, "Calibration".
constexpr double kRates[3] = {550, 1200, 1850};
constexpr const char* kRateNames[3] = {"low", "mid", "high"};
constexpr double kLatencyLimitMs = 15;

constexpr int kClients = 4;
constexpr int kWorkers = 2;
// Series per measured request: BM_RouterThroughputMixed's count.
constexpr int kMeasuredCount = 8;
constexpr int kRecent = 256;  // repeats draw from the last 256 distinct requests
constexpr int kConditionalAttempts = 64;
constexpr int kTimeoutMs = 10000;
// Closed loops send a fixed number of requests, so that every run sends
// the same requests and holds the same bookkeeping, whatever the host's
// speed: kNominalRps requests per second of the phase's share of
// --seconds (about the fleet's closed-loop rate on a 4-vCPU x86 VM). The
// paced closed loop runs in blocks of kBlockRequests, with
// kPaceChunksPerBlock pace chunks on every client thread before each.
constexpr double kNominalRps = 2000;
constexpr std::size_t kBlockRequests = 400;
constexpr int kPaceChunksPerBlock = 10;

enum class Kind {
  kMeasured,     // fresh, kMeasuredCount series
  kSingle,       // side phase: fresh, one series
  kConditional,  // side phase: fresh, one series with end_event_type == FAIL
  kRepeat,       // side phase: an exact repeat, answered from the cache
};

struct Request {
  std::string line;
  Kind kind = Kind::kMeasured;
  int distinct = 0;  // index of the distinct request; repeats share it
  int count = 1;
  int max_len = 0;  // 0 = full length
  bool conditional = false;
};

/// The request sequence. Until start_side(), every request is fresh, with
/// kMeasuredCount series and max_len from serve_bench_cap in
/// bench/perf_microbench.cpp: 5/25/full at 50/25/25%, in shuffled blocks of
/// 4, so every seed sends the same proportions and only the order, the
/// series seeds and the arrival times vary. After it, requests are single
/// (count 1, as BM_ObsOverheadTraceServe sends), conditional, or exact
/// repeats of one of the last 256 distinct requests, a third each. The i-th
/// request depends only on the seed and on when the side phase began; the
/// sequence grows as the load consumes it.
class RequestStream {
 public:
  explicit RequestStream(std::uint64_t seed) : rng_(seed) {}

  /// Requests drawn from now on follow the side-phase mix.
  void start_side() {
    std::lock_guard<std::mutex> lock(mu_);
    side_ = true;
  }

  Request at(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    while (seq_.size() <= i) extend();
    return seq_[i];
  }

  /// Line of distinct request `d` (for the direct-to-worker re-send).
  std::string distinct_line(int d) {
    std::lock_guard<std::mutex> lock(mu_);
    return seq_[static_cast<std::size_t>(originals_[static_cast<std::size_t>(d)])]
        .line;
  }

 private:
  /// Next value from a shuffled block holding each value `k` times.
  int draw(std::vector<int>& block,
           std::initializer_list<std::pair<int, int>> strata) {
    if (block.empty()) {
      for (const auto& [value, k] : strata) block.insert(block.end(), k, value);
      for (int i = static_cast<int>(block.size()) - 1; i > 0; --i) {
        std::swap(block[static_cast<std::size_t>(i)],
                  block[static_cast<std::size_t>(rng_.uniform_int(i + 1))]);
      }
    }
    const int v = block.back();
    block.pop_back();
    return v;
  }

  void extend() {
    const std::uint64_t id = seq_.size() + 1;
    Kind kind = Kind::kMeasured;
    if (side_) {
      constexpr auto k = [](Kind x) { return static_cast<int>(x); };
      kind = static_cast<Kind>(draw(
          kinds_, {{k(Kind::kSingle), 1}, {k(Kind::kConditional), 1}, {k(Kind::kRepeat), 1}}));
    }
    if (kind == Kind::kRepeat) {
      const int window = std::min<int>(kRecent, static_cast<int>(originals_.size()));
      const int d = static_cast<int>(originals_.size()) - 1 - rng_.uniform_int(window);
      Request rep = seq_[static_cast<std::size_t>(originals_[static_cast<std::size_t>(d)])];
      serve::GenRequest g = gen_[static_cast<std::size_t>(d)];
      g.id = id;
      rep.line = serve::json::dump(serve::request_to_json(g));
      rep.kind = kind;
      seq_.push_back(std::move(rep));
      return;
    }
    serve::GenRequest g;
    g.id = id;
    g.seed = rng_.next_u64() >> 11;  // JSON numbers are doubles: keep 53 bits
    g.count = kind == Kind::kMeasured ? kMeasuredCount : 1;
    g.max_len = draw(lens_, {{5, 2}, {25, 1}, {0, 1}});
    Request req;
    req.kind = kind;
    req.conditional = kind == Kind::kConditional;
    if (req.conditional) {
      g.where.push_back({.attr = "end_event_type",
                         .op = serve::AttrPredicate::Op::Eq,
                         .value = 0.0f,
                         .label = "FAIL"});
      g.max_attempts = kConditionalAttempts;
    }
    req.line = serve::json::dump(serve::request_to_json(g));
    req.distinct = static_cast<int>(originals_.size());
    req.count = g.count;
    req.max_len = g.max_len;
    originals_.push_back(static_cast<int>(seq_.size()));
    gen_.push_back(g);
    seq_.push_back(std::move(req));
  }

  std::mutex mu_;
  nn::Rng rng_;
  bool side_ = false;
  std::vector<int> kinds_, lens_;  // current blocks
  std::vector<Request> seq_;
  std::vector<int> originals_;          // seq_ position of each distinct request
  std::vector<serve::GenRequest> gen_;  // each distinct request, unencoded
};

/// Cheap per-reply checks: status, series count, and a hash of the series
/// bytes (everything from "objects" on, which excludes the id and timing).
struct ReplyView {
  bool ok = false;
  int count = 0;
  std::uint64_t hash = 0;
  std::uint64_t trace_id = 0;  // sampled replies carry their trace id
};

ReplyView inspect(const std::string& reply) {
  ReplyView v;
  const std::size_t pos = reply.find("\"objects\":");
  if (pos == std::string::npos) return v;
  const std::string_view objects = std::string_view(reply).substr(pos);
  for (std::size_t p = objects.find("{\"attributes\":"); p != std::string_view::npos;
       p = objects.find("{\"attributes\":", p + 1)) {
    ++v.count;
  }
  v.hash = fnv1a(objects);
  v.ok = reply.find("\"ok\":true") < pos && reply.find("\"complete\":true") < pos &&
         objects.find("null") == std::string_view::npos;
  const std::size_t t = reply.find("\"trace\":\"");
  if (t < pos) v.trace_id = std::strtoull(reply.c_str() + t + 9, nullptr, 16);
  return v;
}

/// One answered (or failed) request as the load generator saw it.
struct Sample {
  std::uint32_t seq = 0;
  bool ok = false;
  std::uint64_t hash = 0;
  std::uint64_t trace_id = 0;
  double latency_ms = 0;  // from due time (open loop) or send (closed loop)
  double rtt_ms = 0;      // TcpClient::call alone
  double lag_ms = 0;      // how late the send was (open loop)
};

struct Fleet {
  std::vector<std::unique_ptr<serve::GenerationService>> services;
  std::vector<std::unique_ptr<serve::TcpServer>> servers;
  std::unique_ptr<serve::shard::WorkerPool> pool;
  std::unique_ptr<serve::shard::Router> router;
  std::unique_ptr<serve::TcpServer> front;

  Fleet(const std::string& pkg, double trace_sample_rate) {
    serve::ServiceConfig sc;
    sc.package_path = pkg;
    sc.slots = 8;
    sc.engines = 1;
    std::vector<serve::shard::WorkerEndpoint> eps;
    for (int w = 0; w < kWorkers; ++w) {
      services.push_back(std::make_unique<serve::GenerationService>(sc));
      services.back()->start();
      servers.push_back(std::make_unique<serve::TcpServer>(*services.back(), 0));
      servers.back()->start();
      eps.push_back({"127.0.0.1", servers.back()->port()});
    }
    pool = std::make_unique<serve::shard::WorkerPool>(eps);
    serve::shard::RouterConfig rc;
    rc.trace_sample_rate = trace_sample_rate;
    router = std::make_unique<serve::shard::Router>(*pool, rc);
    router->start();  // first health sweep
    front = std::make_unique<serve::TcpServer>(router->handler(), 0);
    front->start();
  }
  ~Fleet() {
    front->stop();
    router->stop();
    for (auto& s : servers) s->stop();
    for (auto& s : services) s->stop();
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
};

/// The load generator: kClients threads, one persistent connection each,
/// all drawing from one RequestStream.
class Load {
 public:
  Load(int port, RequestStream& stream, TraceCapture& trace)
      : port_(port), stream_(stream), trace_(trace) {
    for (int c = 0; c < kClients; ++c) conns_.push_back(connect());
  }

  /// `count` requests back to back, each connection sending the next one
  /// as soon as its reply is in.
  std::vector<Sample> closed(std::size_t count) {
    std::atomic<std::size_t> next{0};
    return run([&](int c, std::vector<Sample>& out) {
      while (next++ < count) out.push_back(send(c, Clock::now()));
    });
  }

  /// Poisson arrivals at `rate` for `seconds`; a request waits for a free
  /// connection, and its latency counts from when it was due.
  std::vector<Sample> open(double rate, double seconds, std::uint64_t seed) {
    nn::Rng rng(seed);
    std::vector<double> due_s;
    for (double t = -std::log(1.0 - rng.uniform()) / rate; t < seconds;
         t += -std::log(1.0 - rng.uniform()) / rate) {
      due_s.push_back(t);
    }
    std::atomic<std::size_t> next{0};
    const auto start = Clock::now();
    return run([&](int c, std::vector<Sample>& out) {
      for (std::size_t j = next++; j < due_s.size(); j = next++) {
        const auto due = start + to_duration(due_s[j]);
        std::this_thread::sleep_until(due);
        out.push_back(send(c, due));
      }
    });
  }

  /// The closed loop in `blocks` blocks of kBlockRequests. Before each
  /// block every client thread runs pace chunks, so the pace samples the
  /// cores the fleet runs on, while the fleet is idle. Adds to
  /// fleet_cpu_ms() the process CPU time of the blocks less the client
  /// threads' own.
  std::vector<Sample> paced_closed(std::size_t blocks, Pace& pace) {
    std::vector<Sample> all;
    paced_wall_s_ = 0;
    for (std::size_t b = 0; b < blocks; ++b) {
      run([&](int, std::vector<Sample>&) { pace.tick(kPaceChunksPerBlock); });
      const double process0 = process_cpu_ms();
      const double clients0 = client_cpu_ms_;
      const std::vector<Sample> block = closed(kBlockRequests);
      fleet_cpu_ms_ += process_cpu_ms() - process0 - (client_cpu_ms_ - clients0);
      paced_wall_s_ += elapsed_s_;
      all.insert(all.end(), block.begin(), block.end());
    }
    return all;
  }

  /// CPU ms the fleet (workers, servers, router) spent in paced blocks.
  double fleet_cpu_ms() const { return fleet_cpu_ms_; }
  /// Wall time of the paced blocks, pace chunks left out.
  double paced_wall_s() const { return paced_wall_s_; }

  /// Kept full reply texts (every 16th request) for complete validation.
  std::vector<std::pair<Request, std::string>>& kept() { return kept_; }

 private:
  static Clock::duration to_duration(double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  }

  std::unique_ptr<serve::TcpClient> connect() {
    auto conn = std::make_unique<serve::TcpClient>("127.0.0.1", port_);
    conn->set_recv_timeout_ms(kTimeoutMs);
    return conn;
  }

  template <typename Body>
  std::vector<Sample> run(const Body& body) {
    std::vector<std::vector<Sample>> per(kClients);
    std::vector<double> cpu_ms(kClients, 0.0);
    std::vector<Clock::time_point> done(kClients);
    std::atomic<int> running{kClients};
    const auto start = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        const auto i = static_cast<std::size_t>(c);
        const double cpu0 = thread_cpu_ms();
        body(c, per[i]);
        cpu_ms[i] = thread_cpu_ms() - cpu0;
        done[i] = Clock::now();
        --running;
      });
    }
    while (running.load() > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      trace_.drain();
    }
    for (std::thread& t : threads) t.join();
    elapsed_s_ = std::chrono::duration<double>(
                     *std::max_element(done.begin(), done.end()) - start)
                     .count();
    for (const double ms : cpu_ms) client_cpu_ms_ += ms;
    std::vector<Sample> all;
    for (auto& v : per) all.insert(all.end(), v.begin(), v.end());
    return all;
  }

  Sample send(int c, Clock::time_point due) {
    const std::size_t i = next_seq_++;
    const Request req = stream_.at(i);
    Sample s;
    s.seq = static_cast<std::uint32_t>(i);
    const auto t_send = Clock::now();
    s.lag_ms = std::chrono::duration<double, std::milli>(t_send - due).count();
    std::unique_ptr<serve::TcpClient>& conn = conns_[static_cast<std::size_t>(c)];
    std::string reply;
    try {
      if (!conn) conn = connect();
      reply = conn->call(req.line);
    } catch (const std::exception&) {
      // Transport error or timeout: the connection is unusable; the next
      // request on this thread redials.
      s.latency_ms = ms_since(due);
      conn.reset();
      return s;
    }
    s.rtt_ms = ms_since(t_send);
    s.latency_ms = ms_since(due);
    const ReplyView v = inspect(reply);
    s.ok = v.ok && v.count == req.count;
    s.hash = v.hash;
    s.trace_id = v.trace_id;
    if (i % 16 == 0) {
      std::lock_guard<std::mutex> lock(kept_mu_);
      if (kept_.size() < 2048) kept_.emplace_back(req, std::move(reply));
    }
    return s;
  }

  int port_;
  RequestStream& stream_;
  TraceCapture& trace_;
  std::vector<std::unique_ptr<serve::TcpClient>> conns_;
  std::atomic<std::size_t> next_seq_{0};
  std::mutex kept_mu_;
  std::vector<std::pair<Request, std::string>> kept_;
  double elapsed_s_ = 0;
  double client_cpu_ms_ = 0;  // CPU ms of the client threads, all phases
  double fleet_cpu_ms_ = 0;
  double paced_wall_s_ = 0;
};

std::vector<double> field(std::span<const Sample> v, double Sample::*f) {
  std::vector<double> out;
  out.reserve(v.size());
  for (const Sample& s : v) out.push_back(s.*f);
  return out;
}

struct CounterWindow {
  serve::StatsSnapshot workers;  // summed over the fleet
  std::map<std::string, std::uint64_t> router;
};

CounterWindow read_counters(Fleet& f) {
  CounterWindow w;
  for (auto& s : f.services) {
    const serve::StatsSnapshot st = s->stats();
    w.workers.rnn_steps += st.rnn_steps;
    w.workers.slot_steps_active += st.slot_steps_active;
    w.workers.slot_steps_total += st.slot_steps_total;
    w.workers.series_rejected += st.series_rejected;
  }
  for (const auto& [name, v] : f.router->registry().snapshot().counters) {
    w.router[name] = v;
  }
  return w;
}

/// Counter deltas of an untraced run: the batching counters over the
/// measured phases (a to b), the cache and rejection counters over the side
/// phase (b to c), reroutes and sheds over both. `repeats` is the number of
/// side-phase repeats; every one of them should hit the cache. A traced run
/// would understate the hit ratio: sampled replies are never cached.
void add_counter_layers(Result& r, const CounterWindow& a, const CounterWindow& b,
                        const CounterWindow& c, std::size_t measured,
                        std::size_t side, std::size_t repeats) {
  const auto d = [](std::uint64_t x, std::uint64_t y) {
    return static_cast<double>(y - x);
  };
  const double steps = d(a.workers.rnn_steps, b.workers.rnn_steps);
  const double active = d(a.workers.slot_steps_active, b.workers.slot_steps_active);
  const double total = d(a.workers.slot_steps_total, b.workers.slot_steps_total);
  r.layers["serve.rnn_steps"] = {steps, "count", measured};
  r.layers["serve.lanes_per_step"] = {steps > 0 ? active / steps : 0.0, "count", measured};
  r.layers["serve.occupancy"] = {total > 0 ? active / total : 0.0, "frac", measured};
  r.layers["serve.series_rejected"] = {
      d(b.workers.series_rejected, c.workers.series_rejected), "count", side};
  const auto rc = [](const CounterWindow& x, const CounterWindow& y, const char* name) {
    const auto get = [name](const CounterWindow& w) -> std::uint64_t {
      const auto it = w.router.find(name);
      return it == w.router.end() ? 0 : it->second;
    };
    return static_cast<double>(get(y) - get(x));
  };
  const double hits = rc(b, c, "router.cache_hits");
  r.layers["router.repeat_hit_frac"] = {
      repeats > 0 ? hits / static_cast<double>(repeats) : 0.0, "frac", repeats};
  r.layers["router.reroutes"] = {rc(a, c, "router.reroutes"), "count", measured + side};
  r.layers["router.shed"] = {rc(a, c, "router.shed_saturated") + rc(a, c, "router.shed_slo"),
                             "count", measured + side};
}

/// Per-layer numbers from the sampled requests' spans, and the split of a
/// sampled request's client round trip into disjoint layers.
void add_span_layers(Result& r, const std::vector<obs::TraceEvent>& ev,
                     const std::map<std::uint64_t, double>& rtt_by_trace) {
  std::map<std::string, std::vector<double>> ms;  // span name -> durations
  std::map<std::uint64_t, double> attempt_by_span, router_by_trace,
      attempts_by_trace, serve_by_trace, queue_by_trace;
  std::vector<double> transport;
  for (const obs::TraceEvent& e : ev) {
    const double d = static_cast<double>(e.dur_us) / 1e3;
    ms[e.name].push_back(d);
    if (e.name == "router.attempt") {
      attempt_by_span[e.span_id] = d;
      attempts_by_trace[e.trace_id] += d;
    } else if (e.name == "router.request") {
      router_by_trace[e.trace_id] = d;
    } else if (e.name == "serve.queue_wait") {
      queue_by_trace[e.trace_id] = d;
    }
  }
  for (const obs::TraceEvent& e : ev) {
    if (e.name != "serve.request") continue;
    const double d = static_cast<double>(e.dur_us) / 1e3;
    serve_by_trace[e.trace_id] = d;
    const auto a = attempt_by_span.find(e.parent_span);
    if (a != attempt_by_span.end()) transport.push_back(a->second - d);
  }
  const auto p = [&](const std::string& name, double q) {
    return quantile(ms[name], q);
  };
  const auto cnt = [&](const std::string& name) { return ms[name].size(); };
  r.layers["serve.queue_wait_ms_p50"] = {p("serve.queue_wait", 0.5), "ms", cnt("serve.queue_wait")};
  r.layers["serve.queue_wait_ms_p99"] = {p("serve.queue_wait", 0.99), "ms", cnt("serve.queue_wait")};
  r.layers["serve.request_ms_p50"] = {p("serve.request", 0.5), "ms", cnt("serve.request")};
  r.layers["serve.tape_replay_us_p50"] = {p("serve.tape_replay", 0.5) * 1e3, "us",
                                          cnt("serve.tape_replay")};
  r.layers["router.request_ms_p50"] = {p("router.request", 0.5), "ms", cnt("router.request")};
  r.layers["router.attempt_ms_p50"] = {p("router.attempt", 0.5), "ms", cnt("router.attempt")};
  r.layers["transport.ms_p50"] = {quantile(transport, 0.5), "ms", transport.size()};

  std::map<std::string, double> split;
  std::size_t n = 0;
  for (const auto& [trace, router_ms] : router_by_trace) {
    const auto rtt = rtt_by_trace.find(trace);
    if (rtt == rtt_by_trace.end()) continue;
    const auto get = [trace](const std::map<std::uint64_t, double>& m) {
      const auto it = m.find(trace);
      return it == m.end() ? 0.0 : it->second;
    };
    const double attempts = get(attempts_by_trace);
    const double serve_ms = get(serve_by_trace);
    const double queue_ms = get(queue_by_trace);
    split["client.outside_router"] += rtt->second - router_ms;
    split["router.self"] += router_ms - attempts;
    split["transport"] += attempts - serve_ms;
    split["serve.queue_wait"] += queue_ms;
    split["serve.engine"] += serve_ms - queue_ms;
    ++n;
  }
  for (auto& [name, v] : split) r.self_ms[name] = v / static_cast<double>(n);
  r.layers["obs.sampled_requests"] = {static_cast<double>(n), "count", n};
}

/// Full validation of a kept reply: parse, schema, lengths within the
/// request's cap, finite values, and the predicate on conditional requests.
bool reply_valid(const Request& req, const std::string& reply,
                 const data::Schema& schema) {
  try {
    const serve::GenResponse resp =
        serve::response_from_json(serve::json::parse(reply), schema);
    const int cap = req.max_len > 0 ? req.max_len : schema.max_timesteps;
    if (!resp.ok || !resp.complete ||
        static_cast<int>(resp.objects.size()) != req.count ||
        count_invalid(resp.objects, schema, cap) != 0) {
      return false;
    }
    if (req.conditional) {
      for (const data::Object& o : resp.objects) {
        if (o.attributes[0] != static_cast<float>(synth::gcut_event::kFail)) {
          return false;
        }
      }
    }
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace

Result run_serve(const Options& o) {
  nn::set_num_threads(1);
  const synth::SynthData d =
      synth::make_gcut({.n = o.smoke ? 100 : 800, .seed = o.seed});
  const data::Schema schema = committed_schema(o, "gcut", d.schema);
  const core::DoppelGangerConfig cfg = committed_config(o, "gcut");
  const std::string pkg = o.work + "/serve-gcut.dgpkg";
  {
    core::DoppelGanger fresh(schema, cfg);
    bias_flags_to_full_length(fresh);
    core::save_package_file(pkg, fresh);
  }

  Result r;
  // Set-up: worker construction (package load, preflight), servers, the
  // router's first health sweep, and the first reply (engines have built
  // their tapes). Eleven set-ups: one takes ~40 ms, mostly thread and
  // socket wake-ups, so a single one is noisy.
  std::unique_ptr<Fleet> fleet;
  const std::string probe_line = serve::json::dump(serve::request_to_json({}));
  const double setup_s = paced_setup_s(
      o.setup_repeats(11), [&] { fleet.reset(); },
      [&] {
        fleet = std::make_unique<Fleet>(pkg, o.trace ? 0.1 : 0.0);
        r.check(inspect(serve::send_line("127.0.0.1", fleet->front->port(), probe_line)).ok,
                "set-up probe request failed");
      });

  RequestStream stream(o.seed);
  TraceCapture traced(o.trace);
  Load load(fleet->front->port(), stream, traced);
  const auto requests = [&](double share) {
    return static_cast<std::size_t>(share * o.seconds * kNominalRps);
  };
  std::vector<Sample> all = load.closed(o.smoke ? 100 : 3000);  // warm-up

  traced.start();
  const CounterWindow before = read_counters(*fleet);
  const double s = o.seconds;
  Pace pace;
  const std::vector<Sample> closed = load.paced_closed(
      std::max<std::size_t>(1, requests(0.5) / kBlockRequests), pace);
  // Latency comes from `low`, where it is mostly service time; at the
  // higher rates queueing amplifies any slowdown of the host.
  const double phase_s[3] = {0.2 * s, 0.1 * s, 0.1 * s};
  std::vector<Sample> open[3];
  for (int k = 0; k < 3; ++k) {
    open[k] = load.open(kRates[k], phase_s[k], o.seed * 3 + static_cast<std::uint64_t>(k));
  }
  const CounterWindow measured_end = read_counters(*fleet);
  // Sampling stops with the collector, so every side-phase reply is cached.
  traced.stop();

  stream.start_side();
  const std::vector<Sample> side = load.closed(requests(0.1));
  const CounterWindow side_end = read_counters(*fleet);

  const std::size_t warm_up = all.size();
  all.insert(all.end(), closed.begin(), closed.end());
  for (const auto& v : open) all.insert(all.end(), v.begin(), v.end());
  const std::size_t measured_n = all.size() - warm_up;
  all.insert(all.end(), side.begin(), side.end());
  const std::span<const Sample> measured =
      std::span<const Sample>(all).subspan(warm_up, measured_n);

  // Every request: ok, complete, and the requested number of series.
  std::uint64_t bad = 0;
  for (const Sample& x : all) bad += x.ok ? 0 : 1;
  r.tally(all.size(), bad, "failed, incomplete or wrong-count replies");

  // Repeats are byte-identical to their originals, cache hit or not.
  std::map<int, std::uint64_t> hash_of;
  std::uint64_t mismatched = 0, repeats = 0;
  for (const Sample& x : all) {
    if (!x.ok) continue;
    const int distinct = stream.at(x.seq).distinct;
    const auto [it, fresh] = hash_of.emplace(distinct, x.hash);
    if (!fresh) {
      ++repeats;
      mismatched += it->second == x.hash ? 0 : 1;
    }
  }
  r.tally(repeats, mismatched, "a repeated request returned different series");

  // 16 distinct requests re-sent straight to worker 0 return the bytes the
  // router returned.
  {
    serve::TcpClient direct("127.0.0.1", fleet->servers[0]->port());
    direct.set_recv_timeout_ms(kTimeoutMs);
    const int distinct = static_cast<int>(hash_of.size());
    for (int k = 0; k < 16 && distinct > 0; ++k) {
      const int pick = std::next(hash_of.begin(), k * distinct / 16)->first;
      ReplyView v;
      try {
        v = inspect(direct.call(stream.distinct_line(pick)));
      } catch (const std::exception&) {
        v.ok = false;
      }
      r.check(v.ok && v.hash == hash_of[pick],
              "worker reply differs from the router's for distinct request " +
                  std::to_string(pick));
    }
  }

  std::uint64_t invalid = 0;
  for (const auto& [req, reply] : load.kept()) {
    invalid += reply_valid(req, reply, schema) ? 0 : 1;
  }
  r.tally(load.kept().size(), invalid, "a kept reply failed full validation");

  const std::vector<double> low = field(open[0], &Sample::latency_ms);
  double closed_ok = 0;
  for (const Sample& x : closed) closed_ok += x.ok ? 1 : 0;
  r.metrics["setup_s"] = {setup_s, "s", static_cast<std::size_t>(o.setup_repeats(11))};
  r.metrics["throughput_per_cpu_s"] = {
      closed_ok / (load.fleet_cpu_ms() * pace.scale() / 1e3), "1/s", closed.size()};
  r.layers["throughput_per_s"] = {closed_ok / load.paced_wall_s(), "1/s", closed.size()};
  r.layers["latency_ms_p50"] = {quantile(low, 0.5), "ms", low.size()};
  r.layers["latency_ms_p90"] = {quantile(low, 0.9), "ms", low.size()};
  r.layers["pace.chunk_us"] = {pace.chunk_ms() * 1e3, "us", closed.size()};
  r.info.set("unit", "request (latency at the low rate, from its due time)");

  // The rate ladder: latency at each fixed rate against the limit L. A
  // failed request misses the limit; a late generator means a backlog.
  serve::json::Array ladder;
  double best = 0;
  std::vector<double> lag;
  for (int k = 0; k < 3; ++k) {
    const std::vector<double> lat = field(open[k], &Sample::latency_ms);
    const std::vector<double> lag_k = field(open[k], &Sample::lag_ms);
    lag.insert(lag.end(), lag_k.begin(), lag_k.end());
    std::size_t ok = 0;
    for (const Sample& x : open[k]) ok += x.ok ? 1 : 0;
    const double p99 = quantile(lat, 0.99);
    const bool meets = ok == open[k].size() && p99 <= kLatencyLimitMs &&
                       quantile(lag_k, 0.99) <= kLatencyLimitMs;
    if (meets) best = kRates[k];
    Value row{serve::json::Object{}};
    row.set("name", kRateNames[k]);
    row.set("rate", kRates[k]);
    row.set("sent", static_cast<double>(open[k].size()));
    row.set("ok", static_cast<double>(ok));
    row.set("p50_ms", quantile(lat, 0.5));
    row.set("p99_ms", p99);
    row.set("meets_limit", meets);
    ladder.push_back(std::move(row));
  }
  r.info.set("ladder", std::move(ladder));
  r.info.set("latency_limit_ms", kLatencyLimitMs);
  r.info.set("max_rate_meeting_limit", best);

  r.layers["client.rtt_ms_p50"] = {quantile(field(measured, &Sample::rtt_ms), 0.5),
                                   "ms", measured.size()};
  r.layers["loadgen.send_lag_ms_p99"] = {quantile(lag, 0.99), "ms", lag.size()};
  if (!o.trace) {
    // The side paths, closed loop: latency per request kind.
    std::map<Kind, std::vector<double>> by_kind;
    std::size_t repeats = 0;
    for (const Sample& x : side) {
      const Kind kind = stream.at(x.seq).kind;
      repeats += kind == Kind::kRepeat ? 1 : 0;
      if (x.ok) by_kind[kind].push_back(x.latency_ms);
    }
    const std::pair<Kind, const char*> side_layers[] = {
        {Kind::kSingle, "serve.single_ms_p50"},
        {Kind::kConditional, "serve.conditional_ms_p50"},
        {Kind::kRepeat, "router.repeat_ms_p50"}};
    for (const auto& [kind, name] : side_layers) {
      r.layers[name] = {quantile(by_kind[kind], 0.5), "ms", by_kind[kind].size()};
    }
    add_counter_layers(r, before, measured_end, side_end, measured.size(), side.size(),
                       repeats);
  }

  if (traced.on()) {
    std::map<std::uint64_t, double> rtt_by_trace;
    for (const Sample& x : measured) {
      if (x.trace_id != 0) rtt_by_trace[x.trace_id] = x.rtt_ms;
    }
    add_span_layers(r, traced.events(), rtt_by_trace);
    double sum_ms = 0;
    for (const Sample& x : measured) sum_ms += x.latency_ms;
    add_profile_layers(r, static_cast<double>(measured.size()),
                       sum_ms / static_cast<double>(measured.size()));
    r.layers["obs.dropped_spans"] = {static_cast<double>(traced.dropped()),
                                     "count", 1};
    r.layers["obs.traced_latency_ms_p50"] = r.layers["latency_ms_p50"];
    fleet.reset();
    add_probe_layers(r, *core::load_package_file(pkg), d.data);
  }
  return r;
}

}  // namespace dg::ledger
