// dgcli — command-line front end for the DoppelGANger library.
//
//   dgcli make-synth --dataset wwt|mba|gcut --n N --schema S.schema --out D.csv
//   dgcli train      --schema S.schema --data D.csv --out M.dgpkg
//                    [--iterations N] [--sample-len S] [--batch B] [--seed X]
//                    [--no-minmax] [--no-aux] [--lstm-units U] [--d-steps K]
//                    [--run-dir DIR]
//   dgcli generate   --model M.dgpkg --n N --out synth.csv
//                    [--seed X] [--format csv|bin]
//   dgcli serve      --model M.dgpkg [--port P] [--slots W] [--engines E]
//                    [--queue Q] [--poll SECONDS] [--port-file F]
//   dgcli route      --model M.dgpkg [--workers N] [--port P] [--slots W]
//                    [--engines E] [--queue Q] [--poll SECONDS] [--cache C]
//                    [--max-inflight M] [--slo-p99 MS] [--port-file F]
//                    [--trace-sample RATE]
//   dgcli route      --endpoints h:p1,h:p2[,...] [--port P] [--cache C]
//                    [--max-inflight M] [--slo-p99 MS] [--port-file F]
//                    [--trace-sample RATE]
//   dgcli trace      --port P [--host H] [--out trace.json]
//   dgcli request    --port P [--host H] [--n N] [--seed X] [--max-len L]
//                    [--attempts A] [--fixed a=v,b=v] [--where "a=v,b>=v"]
//                    [--out synth.csv] [--stats] [--json] [--raw LINE]
//   dgcli stats      --schema S.schema --data D.csv [--compare other.csv]
//   dgcli stats      --port P [--host H] [--json]
//   dgcli top        --run DIR [--follow] [--rows N]
//   dgcli check      [--seed X] [--iterations N]
//   dgcli lint       --package M.dgpkg [--json] [--tape]
//   dgcli lint       --schema S.schema [--config C.cfg] [--json] [--tape]
//                    [--train] [--assume-first-order op1,op2]
//                    [--tape-mutate use-before-def|arena-overlap|
//                     double-def|unknown-op|stale-shape]
//                    [--train-mutate wrong-adjoint-shape|dropped-accum-edge|
//                     mislabel-det-class]
//
// Each subcommand accepts only the flags listed for it (commands() below).
// An unknown flag, or a number with characters left over or out of range,
// prints the usage text and exits 2 before any work starts.
//
// The .dgpkg package bundles schema + architecture + trained parameters, so
// `generate` needs nothing else — the paper's Fig 2 release flow. `serve`
// keeps a package resident behind a TCP JSON-lines endpoint (hot-reloading
// it when the file changes) and `request` is the matching client: `--fixed`
// clamps attributes (Fig 30 flexibility), `--where` rejection-samples
// against predicates (ops = != <= >=), labels or numbers both accepted.
//
// `route` runs the shard front tier: with `--model`, it spawns and
// supervises N worker `serve` processes itself (ephemeral ports, crash
// respawn); with `--endpoints`, it fronts externally-started workers.
// Requests shard by seed-hash (replies are byte-identical to a single
// server's — see src/serve/shard/router.h), a seed-addressed cache answers
// repeats, and overload gets structured `shed` errors. `--port-file` (both
// serve and route) writes the bound port after listen — how the router
// discovers its spawned workers' ephemeral ports, and how scripts discover
// the router's.
//
// `check` verifies the autograd engine on this machine: a finite-difference
// gradcheck battery (including the WGAN-GP second-order path) followed by an
// AnomalyGuard-instrumented mini training run of the full DoppelGANger graph
// (attribute MLP -> min/max MLP -> LSTM -> GP second-order pass).
//
// `lint` runs the static graph analyzer: `--package` preflights a .dgpkg
// (header, schema, config, generation trace, weight-shape census) without
// loading a float; `--schema [--config]` validates the config and traces
// the generation step symbolically. Either way it then runs the
// training-step audit fit() runs (analysis/train_step.h): one full WGAN-GP
// training step meta-executed symbolically — generator forward, both critic
// steps with the gradient-penalty double backward, generator step —
// verifying every adjoint's shape, that no critic-path op lacks
// double-backward support, def-before-use on every optimizer gradient slot,
// and the per-op determinism classes. `--assume-first-order` downgrades
// named ops in its registry (what-if / mutation-test hook).
// `--tape` additionally lowers the generation step to the serving replay
// tape (analysis/tape.h), runs the static verifier, and reports the plan
// census (instructions, arena peak bytes); `--tape-mutate`
// seeds one named defect class first — the negative control that proves the
// verifier rejects a corrupted tape (expected exit: FAIL).
// `--train` adds the training step's reduction-order census to the output
// (the accumulation sites a future data-parallel all-reduce must pin).
// `--train-mutate` seeds one named adjoint defect class first (the matching
// negative control; expected exit: FAIL).
//
// Observability: `train --run-dir DIR` streams per-iteration telemetry to
// DIR/metrics.jsonl and drops trace.json (chrome://tracing), trace.jsonl,
// profile.json (per-op/kernel wall+FLOPs) and registry.json there; `top`
// tails a run directory live; `stats --port` pretty-prints a running
// server's metrics registry (latency histograms include their slow-request
// exemplar: "p99 => trace 0x...").
//
// Distributed tracing: `route --trace-sample RATE` stamps that fraction of
// generate requests with a trace context that propagates
// router -> worker -> lane; `dgcli trace --port <router>` drains every
// process's span buffer, rebases worker timestamps onto the router's
// steady_clock via the health sweep's clock handshake, and writes ONE
// merged chrome://tracing / Perfetto file in which a request's span tree
// nests across processes.
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/adjoint.h"
#include "analysis/diag.h"
#include "analysis/model.h"
#include "analysis/tape.h"
#include "analysis/registry.h"
#include "analysis/train_step.h"
#include "core/doppelganger.h"
#include "core/package.h"
#include "core/preflight.h"
#include "core/wgan.h"
#include "data/io.h"
#include "eval/metrics.h"
#include "eval/report.h"
#include "nn/check.h"
#include "nn/gradcheck.h"
#include "nn/ops.h"
#include "nn/parallel.h"
#include "nn/simd/vec.h"
#include "obs/json_string.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/shard/router.h"
#include "synth/synth.h"

namespace {

using namespace dg;

/// A command line dgcli refuses: reported with the usage text, exit 2.
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  /// The flags the command declares (commands() below): parse() refuses any
  /// other, and reading an undeclared one is a bug in this file.
  std::span<const std::string_view> declared;

  bool flag(const std::string& name) const { return find(name) != nullptr; }
  std::string str(const std::string& name, const std::string& fallback = "") const {
    const std::string* v = find(name);
    if (v == nullptr) {
      if (fallback.empty()) {
        throw std::runtime_error("missing required option --" + name);
      }
      return fallback;
    }
    return *v;
  }
  /// --name read whole as a T no less than `lo`, or `fallback` when
  /// absent. A token with characters left over ("12abc") or out of range is
  /// a usage error, not the prefix std::stol would take.
  template <typename T>
  T num(const std::string& name, T fallback,
        T lo = std::numeric_limits<T>::lowest()) const {
    const std::string* v = find(name);
    if (v == nullptr) return fallback;
    T out{};
    const char* end = v->data() + v->size();
    const auto [stop, ec] = std::from_chars(v->data(), end, out);
    if (ec != std::errc() || stop != end || out < lo) {
      throw UsageError("--" + name + " expects a number in range, got '" +
                       *v + "'");
    }
    return out;
  }

 private:
  const std::string* find(const std::string& name) const {
    if (std::find(declared.begin(), declared.end(), name) == declared.end()) {
      throw std::logic_error("dgcli " + command + " reads --" + name +
                             ", which it does not declare");
    }
    const auto it = options.find(name);
    return it == options.end() ? nullptr : &it->second;
  }
};

int cmd_make_synth(const Args& a) {
  const std::string kind = a.str("dataset");
  const int n = a.num("n", 500, 0);
  const uint64_t seed = a.num<std::uint64_t>("seed", 1);
  synth::SynthData d;
  if (kind == "wwt") {
    d = synth::make_wwt({.n = n, .seed = seed});
  } else if (kind == "mba") {
    d = synth::make_mba({.n = n, .seed = seed});
  } else if (kind == "gcut") {
    d = synth::make_gcut({.n = n, .seed = seed});
  } else {
    throw std::runtime_error("unknown --dataset (wwt|mba|gcut)");
  }
  data::save_schema_file(a.str("schema"), d.schema);
  data::save_csv_file(a.str("out"), d.schema, d.data);
  std::printf("wrote %zu objects to %s (schema: %s)\n", d.data.size(),
              a.str("out").c_str(), a.str("schema").c_str());
  return 0;
}

core::DoppelGangerConfig config_from(const Args& a, const data::Schema& schema) {
  core::DoppelGangerConfig cfg;
  cfg.sample_len =
      a.num("sample-len", std::max(1, schema.max_timesteps / 28));
  cfg.lstm_units = a.num("lstm-units", 64);
  cfg.head_hidden = cfg.lstm_units;
  cfg.disc_hidden = a.num("disc-hidden", 128);
  cfg.disc_layers = 3;
  cfg.batch = a.num("batch", 32);
  cfg.iterations = a.num("iterations", 800);
  cfg.d_steps = a.num("d-steps", 2);
  cfg.seed = a.num<std::uint64_t>("seed", 0);
  cfg.use_minmax_generator = !a.flag("no-minmax");
  cfg.use_aux_discriminator = !a.flag("no-aux");
  return cfg;
}

int cmd_train(const Args& a) {
  const data::Schema schema = data::load_schema_file(a.str("schema"));
  const data::Dataset train = data::load_csv_file(a.str("data"), schema);
  const auto cfg = config_from(a, schema);
  core::DoppelGanger model(schema, cfg);

  // --run-dir: full instrumentation. Per-iteration telemetry streams to
  // DIR/metrics.jsonl while training runs (tail with `dgcli top --follow`);
  // trace + profiler dumps land there on completion.
  std::shared_ptr<obs::RunLogger> run_log;
  if (a.flag("run-dir")) {
    run_log = std::make_shared<obs::RunLogger>(a.str("run-dir"));
    model.set_run_logger(run_log);
    run_log->log_event("{\"event\":\"fit_start\",\"iterations\":" +
                       std::to_string(cfg.iterations) + ",\"batch\":" +
                       std::to_string(cfg.batch) + ",\"sample_len\":" +
                       std::to_string(cfg.sample_len) + "}");
    obs::Trace::start();
    obs::Profiler::start();
  }

  std::printf("training on %zu objects (%d iterations, S=%d)...\n",
              train.size(), cfg.iterations, cfg.sample_len);
  const auto stats = model.fit(train);
  if (!stats.d_loss.empty()) {  // none at --iterations 0
    std::printf("final losses: critic %.3f, generator %.3f\n",
                stats.d_loss.back(), stats.g_loss.back());
  }

  if (run_log) {
    obs::Trace::stop();
    obs::Profiler::stop();
    run_log->log_event("{\"event\":\"fit_end\"}");
    const std::string dir = run_log->dir();
    {
      std::ofstream os(dir + "/trace.json");
      obs::Trace::write_chrome(os);
    }
    {
      std::ofstream os(dir + "/trace.jsonl");
      obs::Trace::write_jsonl(os);
    }
    {
      std::ofstream os(dir + "/profile.json");
      os << obs::Profiler::to_json() << "\n";
    }
    {
      std::ofstream os(dir + "/registry.json");
      os << obs::to_json(obs::Registry::global().snapshot()) << "\n";
    }
    std::printf("run telemetry in %s (metrics.jsonl, trace.json, "
                "profile.json, registry.json)\n",
                dir.c_str());
  }

  core::save_package_file(a.str("out"), model);
  std::printf("wrote model package %s\n", a.str("out").c_str());
  return 0;
}

int cmd_generate(const Args& a) {
  const int n = a.num("n", 500, 0);
  auto model = core::load_package_file(a.str("model"));
  if (a.flag("seed")) model->reseed(a.num<std::uint64_t>("seed", 0));
  const data::Dataset out = model->generate(n);
  const std::string format = a.str("format", "csv");
  if (format == "bin") {
    data::save_binary_file(a.str("out"), model->schema(), out);
  } else if (format == "csv") {
    data::save_csv_file(a.str("out"), model->schema(), out);
  } else {
    throw std::runtime_error("unknown --format (csv|bin)");
  }
  std::printf("generated %d objects -> %s (%s)\n", n, a.str("out").c_str(),
              format.c_str());
  return 0;
}

// ---------------------------------------------------------------- serve

volatile std::sig_atomic_t g_stop_requested = 0;
void request_stop(int) { g_stop_requested = 1; }

/// Parks the calling thread until SIGINT/SIGTERM; lets destructors run on
/// the way out (a supervising router must get to kill its spawned workers).
void run_until_signal() {
  std::signal(SIGINT, request_stop);
  std::signal(SIGTERM, request_stop);
  while (!g_stop_requested) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
}

/// `--port-file F`: publish the actually-bound (possibly ephemeral) port
/// for whoever spawned us — the router's worker-discovery handshake.
void write_port_file(const Args& a, int port) {
  if (!a.flag("port-file")) return;
  std::ofstream pf(a.str("port-file"));
  pf << port << "\n";
}

int cmd_serve(const Args& a) {
  serve::ServiceConfig cfg;
  cfg.package_path = a.str("model");
  cfg.slots = a.num("slots", 32);
  cfg.engines = a.num("engines", 1);
  cfg.queue_capacity = a.num<std::size_t>("queue", 256);
  cfg.reload_poll_seconds = a.num("poll", 1.0);  // 0 disables hot reload
  serve::GenerationService service(cfg);
  // Collect spans from the start: a worker only records spans for requests
  // the router stamped (the sampling decision is the router's), so an idle
  // or unsampled fleet pays just the enabled-flag check. The ring is capped
  // (DG_OBS_SPAN_CAP) and drained by the router's `trace` op.
  obs::Trace::start();
  service.start();
  serve::TcpServer server(service, a.num("port", 7788));
  server.start();
  write_port_file(a, server.port());
  std::printf("serving %s on 127.0.0.1:%d (%d slots x %d engine%s)\n",
              cfg.package_path.c_str(), server.port(), cfg.slots, cfg.engines,
              cfg.engines == 1 ? "" : "s");
  std::fflush(stdout);
  run_until_signal();
  server.stop();
  service.stop();
  return 0;
}

// ---------------------------------------------------------------- route

std::vector<std::string> split_clauses(const std::string& s);

std::string self_exe_path() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) {
    throw std::runtime_error("route: cannot resolve /proc/self/exe");
  }
  buf[n] = '\0';
  return std::string(buf);
}

int cmd_route(const Args& a) {
  serve::shard::RouterConfig rcfg;
  rcfg.cache_capacity = a.num<std::size_t>("cache", 1024);
  rcfg.max_inflight_per_worker = a.num("max-inflight", 64);
  rcfg.slo_p99_ms = a.num("slo-p99", 0.0);
  rcfg.trace_sample_rate = a.num("trace-sample", 0.01);
  if (rcfg.trace_sample_rate > 0.0) obs::Trace::start();

  std::unique_ptr<serve::shard::WorkerPool> pool;
  if (a.flag("endpoints")) {
    std::vector<serve::shard::WorkerEndpoint> eps;
    for (const std::string& e : split_clauses(a.str("endpoints"))) {
      eps.push_back(serve::shard::parse_endpoint(e));
    }
    pool = std::make_unique<serve::shard::WorkerPool>(std::move(eps));
  } else {
    const int replicas = a.num("workers", 2);
    a.num("poll", 1.0);  // workers get the token as given: refuse it here
    serve::shard::SpawnSpec spec;
    spec.argv = {self_exe_path(),
                 "serve",
                 "--model",
                 a.str("model"),
                 "--slots",
                 std::to_string(a.num("slots", 32)),
                 "--engines",
                 std::to_string(a.num("engines", 1)),
                 "--queue",
                 std::to_string(a.num<std::size_t>("queue", 256)),
                 "--poll",
                 a.str("poll", "1")};
    char scratch[] = "/tmp/dgroute.XXXXXX";
    if (::mkdtemp(scratch) == nullptr) {
      throw std::runtime_error("route: mkdtemp failed for port-file scratch");
    }
    spec.port_file_dir = scratch;
    pool = std::make_unique<serve::shard::WorkerPool>(replicas,
                                                      std::move(spec));
    std::printf("spawning %d worker%s...\n", replicas,
                replicas == 1 ? "" : "s");
    std::fflush(stdout);
    pool->start();
  }

  serve::shard::Router router(*pool, rcfg);
  router.start();
  serve::TcpServer server(router.handler(),
                          a.num("port", 7799));
  server.start();
  write_port_file(a, server.port());
  std::printf("routing on 127.0.0.1:%d across %zu workers:\n", server.port(),
              pool->size());
  for (size_t i = 0; i < pool->size(); ++i) {
    const auto ep = pool->worker(i).endpoint();
    std::printf("  worker %zu: %s:%d (%s)\n", i, ep.host.c_str(), ep.port,
                serve::shard::to_string(pool->worker(i).state()));
  }
  std::fflush(stdout);
  run_until_signal();
  server.stop();
  router.stop();
  pool->shutdown();
  return 0;
}

// ---------------------------------------------------------------- trace

/// `dgcli trace --port <router>`: drains the fleet's span buffers through
/// the router's `trace` op and writes ONE merged chrome://tracing /
/// Perfetto file. Worker events are rebased onto the router's steady_clock
/// timebase using the offset the health sweep's clock handshake measured
/// (worker ts + offset ≈ router ts, ± skew); each event carries its
/// process's skew bound in args so a reader knows how much to trust
/// cross-process nesting. Pointing it at a single worker works too (that
/// reply has no process list — its events pass through unrebased).
int cmd_trace(const Args& a) {
  const std::string host = a.str("host", "127.0.0.1");
  const int port = a.num("port", 7799);
  const std::string reply =
      serve::send_line(host, port, "{\"op\":\"trace\"}");
  const serve::json::Value v = serve::json::parse(reply);
  if (!v.bool_or("ok", false)) {
    throw std::runtime_error("trace: server refused trace op: " + reply);
  }
  serve::json::Array procs;
  if (const auto* p = v.find("processes"); p != nullptr && p->is_array()) {
    procs = p->as_array();
  } else if (const auto* events = v.find("events")) {
    serve::json::Value row{serve::json::Object{}};
    row.set("pid", 1);
    row.set("name", "server");
    row.set("offset_us", 0);
    row.set("skew_us", 0);
    row.set("dropped", v.number_or("dropped", 0));
    row.set("events", *events);
    procs.push_back(std::move(row));
  }

  serve::json::Array out;
  std::size_t n_events = 0;
  double dropped = 0.0;
  std::int64_t max_skew = 0;
  std::set<std::string> traces;
  for (const auto& row : procs) {
    const double pid = row.number_or("pid", 1);
    const auto off = static_cast<std::int64_t>(row.number_or("offset_us", 0));
    const auto skew = static_cast<std::int64_t>(row.number_or("skew_us", 0));
    dropped += row.number_or("dropped", 0);
    max_skew = std::max(max_skew, skew);
    {
      serve::json::Value meta{serve::json::Object{}};
      meta.set("ph", "M");
      meta.set("name", "process_name");
      meta.set("pid", pid);
      serve::json::Value margs{serve::json::Object{}};
      margs.set("name", row.string_or("name", "proc"));
      meta.set("args", std::move(margs));
      out.push_back(std::move(meta));
      serve::json::Value sort{serve::json::Object{}};
      sort.set("ph", "M");
      sort.set("name", "process_sort_index");
      sort.set("pid", pid);
      serve::json::Value sargs{serve::json::Object{}};
      sargs.set("sort_index", pid);
      sort.set("args", std::move(sargs));
      out.push_back(std::move(sort));
    }
    const auto* events = row.find("events");
    if (events == nullptr || !events->is_array()) continue;
    for (const auto& ev : events->as_array()) {
      serve::json::Value e{serve::json::Object{}};
      e.set("name", ev.string_or("name", "?"));
      e.set("cat", ev.string_or("cat", ""));
      e.set("ph", "X");
      e.set("pid", pid);
      e.set("tid", ev.number_or("tid", 0));
      e.set("ts", static_cast<std::int64_t>(ev.number_or("ts_us", 0)) + off);
      e.set("dur", ev.number_or("dur_us", 0));
      serve::json::Value args{serve::json::Object{}};
      const std::string trace = ev.string_or("trace", "");
      if (!trace.empty()) {
        args.set("trace", trace);
        args.set("span", ev.string_or("span", ""));
        const std::string parent = ev.string_or("parent", "");
        if (!parent.empty()) args.set("parent", parent);
        traces.insert(trace);
      }
      args.set("skew_us", skew);
      e.set("args", std::move(args));
      out.push_back(std::move(e));
      ++n_events;
    }
  }
  serve::json::Value doc{serve::json::Object{}};
  doc.set("displayTimeUnit", "ms");
  doc.set("traceEvents", std::move(out));
  const std::string path = a.str("out", "trace.json");
  std::ofstream os(path);
  if (!os) throw std::runtime_error("trace: cannot open " + path);
  os << serve::json::dump(doc) << "\n";
  std::printf("wrote %s: %zu spans across %zu process%s, %zu sampled "
              "trace%s, %.0f dropped, max clock skew %lld us\n",
              path.c_str(), n_events, procs.size(),
              procs.size() == 1 ? "" : "es", traces.size(),
              traces.size() == 1 ? "" : "s", dropped,
              static_cast<long long>(max_skew));
  return 0;
}

/// Splits "a=1,b=two" style comma-separated clauses.
std::vector<std::string> split_clauses(const std::string& s) {
  std::vector<std::string> out;
  std::string cur;
  std::stringstream ss(s);
  while (std::getline(ss, cur, ',')) {
    if (!cur.empty()) out.push_back(cur);
  }
  return out;
}

/// True (and sets `value`) when the whole token parses as a number.
bool parse_number(const std::string& s, float& value) {
  char* end = nullptr;
  value = std::strtof(s.c_str(), &end);
  return end != nullptr && *end == '\0' && end != s.c_str();
}

serve::GenRequest request_from(const Args& a) {
  serve::GenRequest req;
  req.id = a.num<std::uint64_t>("id", 1);
  req.seed = a.num<std::uint64_t>("seed", 0);
  req.count = a.num("n", 1);
  req.max_len = a.num("max-len", 0);
  req.max_attempts = a.num("attempts", 16);
  if (a.flag("fixed")) {
    for (const std::string& clause : split_clauses(a.str("fixed"))) {
      const size_t eq = clause.find('=');
      if (eq == std::string::npos) {
        throw std::runtime_error("--fixed expects name=value clauses");
      }
      serve::FixedAttr f;
      f.attr = clause.substr(0, eq);
      const std::string v = clause.substr(eq + 1);
      if (!parse_number(v, f.value)) f.label = v;
      req.fixed.push_back(std::move(f));
    }
  }
  if (a.flag("where")) {
    for (const std::string& clause : split_clauses(a.str("where"))) {
      serve::AttrPredicate p;
      size_t at = std::string::npos;
      size_t skip = 2;
      if ((at = clause.find("!=")) != std::string::npos) {
        p.op = serve::AttrPredicate::Op::Ne;
      } else if ((at = clause.find(">=")) != std::string::npos) {
        p.op = serve::AttrPredicate::Op::Ge;
      } else if ((at = clause.find("<=")) != std::string::npos) {
        p.op = serve::AttrPredicate::Op::Le;
      } else if ((at = clause.find('=')) != std::string::npos) {
        p.op = serve::AttrPredicate::Op::Eq;
        skip = 1;
      } else {
        throw std::runtime_error("--where clause needs one of = != <= >=");
      }
      p.attr = clause.substr(0, at);
      const std::string v = clause.substr(at + skip);
      if (!parse_number(v, p.value)) p.label = v;
      req.where.push_back(std::move(p));
    }
  }
  return req;
}

int cmd_request(const Args& a) {
  const std::string host = a.str("host", "127.0.0.1");
  const int port = a.num("port", 7788);
  if (a.flag("stats")) {
    std::printf("%s\n", serve::send_line(host, port, "{\"op\":\"stats\"}").c_str());
    return 0;
  }
  if (a.flag("raw")) {
    // One verbatim protocol line -> one reply line. This is how the
    // router's admin ops (drain/undrain/restart) are reached from the CLI.
    std::printf("%s\n", serve::send_line(host, port, a.str("raw")).c_str());
    return 0;
  }
  const serve::GenRequest req = request_from(a);
  const std::string reply =
      serve::send_line(host, port, serve::json::dump(serve::request_to_json(req)));
  if (a.flag("json")) {
    std::printf("%s\n", reply.c_str());
    return 0;
  }
  // Decode: fetch the schema so objects round-trip through the typed form.
  const std::string schema_reply =
      serve::send_line(host, port, "{\"op\":\"schema\"}");
  const serve::json::Value sv = serve::json::parse(schema_reply);
  if (!sv.bool_or("ok", false)) {
    throw std::runtime_error("server refused schema op: " + schema_reply);
  }
  std::istringstream ss(sv.string_or("schema", ""));
  const data::Schema schema = data::load_schema(ss);
  const serve::GenResponse resp =
      serve::response_from_json(serve::json::parse(reply), schema);
  if (!resp.ok) {
    std::fprintf(stderr, "request failed: %s\n", resp.error.c_str());
    return 1;
  }
  std::printf("received %zu/%d objects (%s, %lld rejected, %.1f ms)\n",
              resp.objects.size(), req.count,
              resp.complete ? "complete" : "partial", resp.series_rejected,
              resp.latency_ms);
  if (!resp.complete) std::printf("note: %s\n", resp.error.c_str());
  if (a.flag("out")) {
    data::save_csv_file(a.str("out"), schema, resp.objects);
    std::printf("wrote %s\n", a.str("out").c_str());
  }
  return resp.complete ? 0 : 3;
}

void print_stats(const char* tag, const data::Schema& schema,
                 const data::Dataset& d) {
  std::printf("[%s] %zu objects\n", tag, d.size());
  double mean_len = 0;
  for (const auto& o : d) mean_len += o.length();
  std::printf("[%s] mean length %.1f / max %d\n", tag,
              mean_len / static_cast<double>(d.size()), schema.max_timesteps);
  for (size_t j = 0; j < schema.attributes.size(); ++j) {
    const auto& spec = schema.attributes[j];
    if (spec.type != data::FieldType::Categorical) continue;
    const auto m = eval::attribute_marginal(d, schema, static_cast<int>(j));
    std::printf("[%s] %s:", tag, spec.name.c_str());
    for (int c = 0; c < spec.n_categories; ++c) {
      std::printf(" %s=%.3f", spec.labels[static_cast<size_t>(c)].c_str(),
                  m[static_cast<size_t>(c)]);
    }
    std::printf("\n");
  }
}

// ------------------------------------------------------- registry printing

/// Pretty-prints one registry snapshot (the JSON form the server's
/// "metrics" op returns) as an aligned name/value table.
void print_metric_table(const char* title, const serve::json::Value& reg) {
  struct Row {
    std::string name;
    std::string value;
  };
  std::vector<Row> rows;
  char buf[160];
  if (const auto* c = reg.find("counters"); c && c->is_object()) {
    for (const auto& [name, v] : c->as_object()) {
      std::snprintf(buf, sizeof(buf), "%.0f", v.as_number());
      rows.push_back({name, buf});
    }
  }
  if (const auto* g = reg.find("gauges"); g && g->is_object()) {
    for (const auto& [name, v] : g->as_object()) {
      std::snprintf(buf, sizeof(buf), "%.6g",
                    v.is_number() ? v.as_number() : 0.0);
      rows.push_back({name, buf});
    }
  }
  if (const auto* h = reg.find("histograms"); h && h->is_object()) {
    for (const auto& [name, hv] : h->as_object()) {
      std::snprintf(buf, sizeof(buf),
                    "count %.0f  p50 %.3f  p90 %.3f  p99 %.3f  max %.3f",
                    hv.number_or("count", 0), hv.number_or("p50", 0),
                    hv.number_or("p90", 0), hv.number_or("p99", 0),
                    hv.number_or("max", 0));
      rows.push_back({name, buf});
      // Slow-request exemplar: the worst recent request in the highest
      // populated bucket — the p99 culprit's trace id, resolvable against
      // a `dgcli trace` dump of the same fleet.
      if (const auto* ex = hv.find("exemplars");
          ex != nullptr && ex->is_array() && !ex->as_array().empty()) {
        const serve::json::Value* worst = nullptr;
        for (const auto& e : ex->as_array()) {
          if (worst == nullptr ||
              e.number_or("bucket", 0) > worst->number_or("bucket", 0)) {
            worst = &e;
          }
        }
        std::snprintf(buf, sizeof(buf), "p99 bucket => trace 0x%s (%.3f)",
                      worst->string_or("trace", "?").c_str(),
                      worst->number_or("v", 0));
        rows.push_back({name + ".exemplar", buf});
      }
    }
  }
  std::printf("== %s ==\n", title);
  if (rows.empty()) {
    std::printf("  (no metrics)\n");
    return;
  }
  std::size_t width = 0;
  for (const Row& r : rows) width = std::max(width, r.name.size());
  for (const Row& r : rows) {
    std::printf("  %-*s  %s\n", static_cast<int>(width), r.name.c_str(),
                r.value.c_str());
  }
}

/// Router-mode rendering: the fleet-aggregated registry plus a per-shard
/// table (state, inflight, occupancy, p99, reloads, package hash) and a
/// one-line admission/cache summary — the operator's view of the tier.
int cmd_stats_router(const Args& a, const serve::json::Value& metrics) {
  const std::string host = a.str("host", "127.0.0.1");
  const int port = a.num("port", 7788);
  if (const auto* router = metrics.find("router")) {
    print_metric_table("router metrics", *router);
  }
  if (const auto* fleet = metrics.find("fleet")) {
    print_metric_table("fleet metrics (all workers, merged)", *fleet);
  }
  const serve::json::Value sv =
      serve::json::parse(serve::send_line(host, port, "{\"op\":\"stats\"}"));
  std::printf("== workers ==\n");
  std::printf("  %-3s %-21s %-9s %8s %6s %6s %9s %8s %s\n", "id", "endpoint",
              "state", "inflight", "queue", "occ", "p99_ms", "reloads",
              "package");
  if (const auto* workers = sv.find("workers")) {
    for (const auto& row : workers->as_array()) {
      const std::string ep = row.string_or("host", "?") + ":" +
                             std::to_string(static_cast<long>(
                                 row.number_or("port", 0)));
      std::printf("  %-3.0f %-21s %-9s %8.0f %6.0f %6.3f %9.3f %8.0f %s\n",
                  row.number_or("index", 0), ep.c_str(),
                  row.string_or("state", "?").c_str(),
                  row.number_or("inflight", 0),
                  row.number_or("queue_depth", 0),
                  row.number_or("occupancy", 0),
                  row.number_or("p99_latency_ms", 0),
                  row.number_or("package_reloads", 0),
                  row.string_or("package_hash", "-").c_str());
    }
  }
  if (const auto* r = sv.find("router")) {
    const double hits = r->number_or("cache_hits", 0);
    const double misses = r->number_or("cache_misses", 0);
    const double lookups = hits + misses;
    std::printf(
        "shed: %.0f saturated, %.0f slo, %.0f unroutable | cache: %.1f%% "
        "hit (%.0f/%.0f), %.0f entries, %.0f invalidations | reroutes %.0f, "
        "restarts %.0f\n",
        r->number_or("shed_saturated", 0), r->number_or("shed_slo", 0),
        r->number_or("unroutable", 0),
        lookups == 0 ? 0.0 : 100.0 * hits / lookups, hits, lookups,
        r->number_or("cache_entries", 0),
        r->number_or("cache_invalidations", 0), r->number_or("reroutes", 0),
        r->number_or("worker_restarts", 0));
  }
  return 0;
}

/// `stats --port P`: queries a running server's "metrics" op and renders
/// its registries — single-service (service + process) or, when the reply
/// identifies a router, the fleet view.
int cmd_stats_server(const Args& a) {
  const std::string host = a.str("host", "127.0.0.1");
  const int port = a.num("port", 7788);
  const std::string reply =
      serve::send_line(host, port, "{\"op\":\"metrics\"}");
  if (a.flag("json")) {
    std::printf("%s\n", reply.c_str());
    return 0;
  }
  const serve::json::Value v = serve::json::parse(reply);
  if (!v.bool_or("ok", false)) {
    throw std::runtime_error("server refused metrics op: " + reply);
  }
  if (v.string_or("tier", "") == "router") return cmd_stats_router(a, v);
  if (const auto* svc = v.find("service")) {
    print_metric_table("service metrics", *svc);
  }
  if (const auto* proc = v.find("process")) {
    print_metric_table("process metrics", *proc);
  }
  return 0;
}

int cmd_stats(const Args& a) {
  if (a.flag("port")) return cmd_stats_server(a);
  const data::Schema schema = data::load_schema_file(a.str("schema"));
  const data::Dataset d = data::load_csv_file(a.str("data"), schema);
  print_stats("data", schema, d);
  if (a.flag("compare")) {
    const data::Dataset other = data::load_csv_file(a.str("compare"), schema);
    print_stats("compare", schema, other);
    std::printf("\n");
    const auto report = eval::fidelity_report(schema, d, other);
    std::ostringstream os;
    eval::print_report(os, report);
    std::fputs(os.str().c_str(), stdout);
  }
  return 0;
}

// ---------------------------------------------------------------- top

/// Live view of a training run directory: renders DIR/metrics.jsonl as an
/// aligned table (last --rows iterations), and with --follow keeps tailing
/// the file as the trainer appends (each record is flushed per iteration).
int cmd_top(const Args& a) {
  const std::string path = a.str("run") + "/metrics.jsonl";
  const bool follow = a.flag("follow");
  const std::size_t want = a.num<std::size_t>("rows", 20);

  const auto print_header = [] {
    std::printf("%8s %9s %9s %9s %9s %9s %9s %9s %8s\n", "iter", "d_loss",
                "aux", "g_loss", "gp", "|gD|", "|gG|", "spread", "ms");
  };
  const auto print_row = [](const serve::json::Value& v) {
    std::printf("%8.0f %9.4f %9.4f %9.4f %9.4f %9.3f %9.3f %9.4f %8.1f\n",
                v.number_or("iter", 0), v.number_or("d_loss", 0),
                v.number_or("aux_loss", 0), v.number_or("g_loss", 0),
                v.number_or("gp_penalty", 0), v.number_or("d_grad_norm", 0),
                v.number_or("g_grad_norm", 0), v.number_or("feat_spread", 0),
                v.number_or("wall_ms", 0));
    std::fflush(stdout);
  };
  // Iteration records carry "iter"; event markers ({"event":...}) do not.
  const auto show_line = [&](const std::string& line) {
    try {
      const serve::json::Value v = serve::json::parse(line);
      if (v.find("iter")) print_row(v);
    } catch (const std::exception&) {
      // tolerate torn/foreign lines: a live writer may race us mid-record
    }
  };

  std::ifstream in(path);
  if (!in) throw std::runtime_error("top: cannot open " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  print_header();
  const std::size_t start = lines.size() > want ? lines.size() - want : 0;
  for (std::size_t i = start; i < lines.size(); ++i) show_line(lines[i]);
  if (!follow) return 0;

  // Tail: poll for appended lines (the trainer flushes one per iteration).
  // A line without a trailing newline yet is mid-write: rewind and retry.
  in.clear();
  for (;;) {
    const std::streampos pos = in.tellg();
    if (std::getline(in, line) && !in.eof()) {
      if (!line.empty()) show_line(line);
      continue;
    }
    in.clear();
    in.seekg(pos);
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
}

// ---------------------------------------------------------------- check

/// Runs one gradcheck battery item and prints a verdict line.
bool run_gradcheck_item(const char* name, const nn::GradCheckFn& fn,
                        std::vector<nn::Matrix> inputs,
                        const nn::GradCheckOptions& opts = {}) {
  const auto r = nn::gradcheck(fn, std::move(inputs), opts);
  std::printf("  %-28s %s\n", name, nn::to_string(r).c_str());
  return r.ok;
}

int cmd_check(const Args& a) {
  using nn::Matrix;
  using nn::Var;
  const uint64_t seed = a.num<std::uint64_t>("seed", 17);
  const int iterations = a.num("iterations", 2);
  nn::Rng rng(seed);
  const auto randn = [&rng](int r, int c) {
    Matrix m(r, c);
    for (float& v : m.flat()) v = static_cast<float>(rng.normal(0.0, 0.5));
    return m;
  };

  std::printf("== compute backend ==\n");
  std::printf("  intra-op pool: %d thread%s (%s)\n", nn::num_threads(),
              nn::num_threads() == 1 ? "" : "s", nn::num_threads_source());
  std::printf("  simd tier: %s (%s)\n",
              nn::simd::tier_name(nn::simd::active_tier()),
              nn::simd::simd_tier_source());

  bool ok = true;
  std::printf("== finite-difference gradcheck ==\n");

  // Dense tanh MLP chain: matmul + bias broadcast + nonlinearity + reduction.
  ok &= run_gradcheck_item(
      "mlp-tanh-chain",
      [](const std::vector<Var>& v) {
        Var h = nn::tanh_(nn::add_rowvec(nn::matmul(v[3], v[0]), v[1]));
        return nn::mean(nn::matmul(h, v[2]));
      },
      {randn(3, 4), randn(1, 4), randn(4, 1), randn(2, 3)});

  // Softmax rows (the categorical output path of every output block).
  ok &= run_gradcheck_item(
      "softmax-rows",
      [](const std::vector<Var>& v) {
        return nn::mean(nn::square(nn::softmax_rows(v[0])));
      },
      {randn(3, 5)});

  // One LSTM cell step with fixed parameters, differentiating x/h/c.
  {
    nn::Rng cell_rng(seed + 1);
    nn::LstmCell cell(3, 4, cell_rng);
    ok &= run_gradcheck_item(
        "lstm-cell-step",
        [&cell](const std::vector<Var>& v) {
          nn::LstmState s = cell.step(v[0], {v[1], v[2]});
          return nn::mean(nn::mul(s.h, s.c));
        },
        {randn(2, 3), randn(2, 4), randn(2, 4)});
  }

  // Second order: d/dx of a function of grad_x D(x) — the GP structure with
  // a smooth (tanh) critic so finite differences are well behaved.
  {
    const Matrix w1 = randn(3, 6), b1 = randn(1, 6), w2 = randn(6, 1);
    ok &= run_gradcheck_item(
        "second-order-gp-input",
        [&](const std::vector<Var>& v) {
          Var x = v[0];
          const auto critic = [&](const Var& in) {
            Var h = nn::tanh_(nn::add_rowvec(nn::matmul(in, nn::constant(w1)),
                                             nn::constant(b1)));
            return nn::matmul(h, nn::constant(w2));
          };
          Var out = nn::sum(critic(x));
          auto g = nn::autograd::grad(out, std::vector<Var>{x},
                                      /*create_graph=*/true);
          Var norms = nn::row_l2_norm(g[0]);
          return nn::mean(nn::square(nn::add_scalar(norms, -1.0f)));
        },
        {randn(4, 3)});
  }

  // The gradient the critic optimizer actually consumes: d(GP)/d(theta),
  // with the interpolation rng re-seeded so every probe uses the same t.
  {
    const Matrix real = randn(4, 3), fake = randn(4, 3);
    ok &= run_gradcheck_item(
        "gradient-penalty-params",
        [&](const std::vector<Var>& v) {
          const core::CriticFn critic = [&v](const Var& in) {
            Var h = nn::tanh_(nn::add_rowvec(nn::matmul(in, v[0]), v[1]));
            return nn::matmul(h, v[2]);
          };
          nn::Rng gp_rng(7);
          return core::gradient_penalty(critic, real, fake, gp_rng);
        },
        {randn(3, 6), randn(1, 6), randn(6, 1)});
  }

  std::printf("== instrumented training step (AnomalyGuard) ==\n");
  auto d = synth::make_gcut({.n = 64, .t_max = 25, .seed = seed});
  for (auto& o : d.data) {
    if (o.length() > 25) o.features.resize(25);
  }
  d.schema.max_timesteps = 25;
  core::DoppelGangerConfig cfg;
  cfg.attr_hidden = 16;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 16;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 16;
  cfg.head_hidden = 16;
  cfg.sample_len = 5;
  cfg.disc_hidden = 32;
  cfg.disc_layers = 2;
  cfg.batch = 16;
  cfg.iterations = iterations;
  cfg.seed = seed;
  std::printf("  dataset gcut n=%zu t=%d; %d generator iterations\n",
              d.data.size(), d.schema.max_timesteps, iterations);

  nn::AnomalyOptions guard_opts;
  guard_opts.forbid_stale_grads = true;  // the training loop always zero_grads
  nn::AnomalyGuard guard(guard_opts);
  try {
    core::DoppelGanger model(d.schema, cfg);
    model.fit(d.data);
  } catch (const nn::AnomalyError& e) {
    std::printf("  training step: FAIL — %s\n", e.what());
    ok = false;
  }
  const auto& st = guard.stats();
  std::printf("  forward values checked   %zu\n", st.forward_values_checked);
  std::printf("  backward grads checked   %zu\n", st.backward_grads_checked);
  std::printf("  backward runs            %zu\n", st.backward_runs);
  std::printf("  tape audits              %zu\n", st.tape_audits);
  const std::size_t leaked = guard.leaked_nodes();
  std::printf("  leaked nodes after teardown: %zu\n", leaked);
  if (leaked != 0) ok = false;
  if (st.backward_runs == 0 || st.forward_values_checked == 0) ok = false;

  // Everything the run pushed into the process registry (anomaly counters
  // from nn/check, training gauges from the fit above) plus the leak count,
  // so a scripted `dgcli check` has one machine-readable-ish summary block.
  obs::Registry::global().counter("nn.check.leaked_nodes").add(leaked);
  std::printf("== metrics registry (process) ==\n");
  const obs::RegistrySnapshot snap = obs::Registry::global().snapshot();
  std::size_t width = 0;
  for (const auto& [name, v] : snap.counters) width = std::max(width, name.size());
  for (const auto& [name, v] : snap.gauges) width = std::max(width, name.size());
  for (const auto& [name, v] : snap.counters) {
    std::printf("  %-*s  %llu\n", static_cast<int>(width), name.c_str(),
                static_cast<unsigned long long>(v));
  }
  for (const auto& [name, v] : snap.gauges) {
    std::printf("  %-*s  %.6g\n", static_cast<int>(width), name.c_str(), v);
  }

  std::printf("check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}

// ---------------------------------------------------------------- lint

/// Common tail of every lint mode: render diagnostics (human or JSON) and
/// map them to the exit code (0 clean, 1 errors). `tape`, when present,
/// adds the tape-plan census (a `tape` block in JSON output); `train` adds
/// the training-step adjoint audit's reduction-order census likewise.
int lint_report(std::span<const analysis::Diagnostic> diags, bool json,
                const analysis::TapeSummary* tape = nullptr,
                const analysis::TrainingStepAnalysis* train = nullptr) {
  const bool bad = analysis::has_errors(diags);
  if (json) {
    std::string tape_block;
    if (tape != nullptr) {
      tape_block = "\"tape\":{\"instructions\":" +
                   std::to_string(tape->instructions) +
                   ",\"arena_peak_bytes\":" +
                   std::to_string(tape->arena_peak_bytes) +
                   ",\"verified\":" + (tape->verified ? "true" : "false") +
                   "},";
    }
    std::string train_block;
    if (train != nullptr) {
      train_block = "\"train\":{\"graph_nodes\":" +
                    std::to_string(train->graph_nodes) +
                    ",\"grad_slot_writes\":" +
                    std::to_string(train->grad_slot_writes) +
                    ",\"accumulation_adds\":" +
                    std::to_string(train->accumulation_adds) + ",\"census\":[";
      bool first = true;
      for (const analysis::ReductionSite& site : train->census) {
        if (!first) train_block += ',';
        first = false;
        train_block += "{\"op\":";
        obs::append_json_string(train_block, site.op);
        train_block += std::string(",\"class\":\"") +
                       analysis::to_string(site.det) + "\",\"count\":" +
                       std::to_string(site.count) + ",\"where\":";
        obs::append_json_string(train_block, site.where);
        train_block += '}';
      }
      train_block += "]},";
    }
    std::printf("{\"ok\":%s,%s%s\"diagnostics\":%s}\n", bad ? "false" : "true",
                tape_block.c_str(), train_block.c_str(),
                analysis::to_json(diags).c_str());
    return bad ? 1 : 0;
  }
  if (tape != nullptr) {
    std::printf("tape: %d instructions, arena peak %lld bytes/lane, %s\n",
                tape->instructions, tape->arena_peak_bytes,
                tape->verified ? "verified" : "REJECTED");
  }
  if (train != nullptr) {
    std::printf("training step: %d graph nodes, %d gradient-slot writes, "
                "%d in-graph gradient accumulations\n",
                train->graph_nodes, train->grad_slot_writes,
                train->accumulation_adds);
    std::printf("reduction-order census (sites a data-parallel all-reduce "
                "must pin):\n");
    for (const analysis::ReductionSite& site : train->census) {
      std::printf("  %-16s %-18s x%-6d %s\n", site.op.c_str(),
                  analysis::to_string(site.det), site.count,
                  site.where.c_str());
    }
  }
  if (!diags.empty()) {
    std::ostringstream os;
    analysis::print_human(os, diags);
    std::fputs(os.str().c_str(), stdout);
  }
  std::printf("lint: %s (%zu finding%s)\n", bad ? "FAIL" : "PASS",
              diags.size(), diags.size() == 1 ? "" : "s");
  return bad ? 1 : 0;
}

/// Lowers + verifies the generation tape for --tape, optionally corrupting
/// it first (--tape-mutate CLASS, the lint-level mutation test). Appends
/// the verifier's findings to `diags` and returns the census.
analysis::TapeSummary run_tape_lint(const data::Schema& schema,
                                    const core::DoppelGangerConfig& cfg,
                                    const Args& a,
                                    std::vector<analysis::Diagnostic>& diags) {
  analysis::TapeReport rep = analysis::build_generation_tape(schema, cfg);
  if (a.flag("tape-mutate")) {
    if (!analysis::seed_tape_defect(rep, a.str("tape-mutate"))) {
      throw std::runtime_error("lint: unknown --tape-mutate class '" +
                               a.str("tape-mutate") + "'");
    }
  }
  for (const analysis::Diagnostic& d : rep.diagnostics) diags.push_back(d);
  return analysis::summarize_tape(rep);
}

/// Runs the training-step audit every lint runs (the one fit() runs, with
/// findings deduplicated against `diags`: both it and the model analysis
/// validate the config) and returns it for --train's census. The registry
/// it audits against is the builtin one, with --assume-first-order op1,op2
/// downgrades applied (proves the critic-path audit catches such ops) and
/// --train-mutate CLASS seeded (the adjoint-level mutation test).
analysis::TrainingStepAnalysis run_train_lint(
    const data::Schema& schema, const core::DoppelGangerConfig& cfg,
    const Args& a, std::vector<analysis::Diagnostic>& diags) {
  analysis::OpRegistry reg = analysis::OpRegistry::builtin();
  if (a.flag("assume-first-order")) {
    for (const std::string& op : split_clauses(a.str("assume-first-order"))) {
      const nn::OpDef* row = nn::find_op(op);
      if (row == nullptr) {
        throw std::runtime_error("lint: unknown op '" + op +
                                 "' in --assume-first-order");
      }
      reg[row->op].diff = analysis::DiffClass::kFirstOrderOnly;
    }
  }
  if (a.flag("train-mutate")) {
    if (!analysis::seed_adjoint_defect(reg, a.str("train-mutate"))) {
      throw std::runtime_error("lint: unknown --train-mutate class '" +
                               a.str("train-mutate") + "'");
    }
  }
  analysis::TrainStepOptions opts;
  opts.registry = &reg;
  analysis::TrainingStepAnalysis ts =
      analysis::analyze_training_step(schema, cfg, opts);
  for (const analysis::Diagnostic& d : ts.diagnostics) {
    if (std::find(diags.begin(), diags.end(), d) == diags.end()) {
      diags.push_back(d);
    }
  }
  return ts;
}

int cmd_lint(const Args& a) {
  const bool json = a.flag("json");
  const bool want_tape = a.flag("tape") || a.flag("tape-mutate");
  const bool want_train = a.flag("train") || a.flag("train-mutate");
  if (a.flag("package")) {
    const core::PackagePreflight pf =
        core::preflight_package_file(a.str("package"));
    if (!json && pf.header_ok) {
      std::printf("package %s: %d attributes, %d features, "
                  "%zu weight matrices\n",
                  a.str("package").c_str(),
                  pf.schema.num_attributes(), pf.schema.num_features(),
                  pf.weight_matrices.size());
    }
    std::vector<analysis::Diagnostic> diags = pf.diagnostics;
    analysis::TapeSummary tape = pf.tape;
    // The preflight already lowered + verified the tape; re-run only for
    // the mutation negative control, which needs the full report.
    if (want_tape && pf.header_ok && a.flag("tape-mutate")) {
      tape = run_tape_lint(pf.schema, pf.config, a, diags);
    }
    std::optional<analysis::TrainingStepAnalysis> train;
    if (pf.header_ok) train = run_train_lint(pf.schema, pf.config, a, diags);
    return lint_report(diags, json, want_tape ? &tape : nullptr,
                       want_train && train ? &*train : nullptr);
  }
  const data::Schema schema = data::load_schema_file(a.str("schema"));
  core::DoppelGangerConfig cfg;
  if (a.flag("config")) {
    std::ifstream is(a.str("config"));
    if (!is) throw std::runtime_error("lint: cannot open " + a.str("config"));
    cfg = core::load_config(is);
  } else {
    // No config given: lint the defaults dgcli train would use (sample_len
    // derived from the schema, as in config_from).
    cfg.sample_len = std::max(1, schema.max_timesteps / 28);
  }
  const analysis::ModelAnalysis ma = analysis::analyze_model(schema, cfg);
  if (!json) {
    std::printf("model: %zu parameter matrices, %d symbolic graph nodes, "
                "generation step width %d\n",
                ma.parameters.size(), ma.graph_nodes, ma.generation_step_cols);
  }
  std::vector<analysis::Diagnostic> diags = ma.diagnostics;
  std::optional<analysis::TapeSummary> tape;
  if (want_tape) tape = run_tape_lint(schema, cfg, a, diags);
  const analysis::TrainingStepAnalysis train =
      run_train_lint(schema, cfg, a, diags);
  return lint_report(diags, json, tape ? &*tape : nullptr,
                     want_train ? &train : nullptr);
}

/// A subcommand and every flag it reads. parse() refuses any other flag, so
/// a typo such as --confg is an error instead of a silently default run.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<std::string_view> flags;
};

const std::vector<Command>& commands() {
  static const std::vector<Command> kCommands = {
      {"make-synth", cmd_make_synth, {"dataset", "n", "seed", "schema", "out"}},
      {"train",
       cmd_train,
       {"schema", "data", "out", "run-dir", "iterations", "sample-len",
        "batch", "seed", "no-minmax", "no-aux", "lstm-units", "disc-hidden",
        "d-steps"}},
      {"generate", cmd_generate, {"model", "n", "out", "seed", "format"}},
      {"serve",
       cmd_serve,
       {"model", "port", "slots", "engines", "queue", "poll", "port-file"}},
      {"route",
       cmd_route,
       {"model", "endpoints", "workers", "port", "slots", "engines", "queue",
        "poll", "cache", "max-inflight", "slo-p99", "port-file",
        "trace-sample"}},
      {"trace", cmd_trace, {"port", "host", "out"}},
      {"request",
       cmd_request,
       {"port", "host", "id", "n", "seed", "max-len", "attempts", "fixed",
        "where", "out", "stats", "json", "raw"}},
      {"stats",
       cmd_stats,
       {"schema", "data", "compare", "port", "host", "json"}},
      {"top", cmd_top, {"run", "follow", "rows"}},
      {"check", cmd_check, {"seed", "iterations"}},
      {"lint",
       cmd_lint,
       {"package", "schema", "config", "json", "tape", "train",
        "assume-first-order", "tape-mutate", "train-mutate"}},
  };
  return kCommands;
}

const Command* find_command(std::string_view name) {
  for (const Command& c : commands()) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

Args parse(int argc, char** argv, const Command& cmd) {
  Args a;
  a.command = cmd.name;
  a.declared = cmd.flags;
  for (int i = 2; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw UsageError("bad option " + key);
    key = key.substr(2);
    if (std::find(cmd.flags.begin(), cmd.flags.end(), key) ==
        cmd.flags.end()) {
      throw UsageError("unknown option --" + key + " for " + a.command);
    }
    // Constructing the std::string up front (rather than assigning the char*
    // into the map slot) sidesteps a GCC 12 -Wrestrict false positive on the
    // basic_string::assign(const char*) path at -O3.
    const char* v = (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
                        ? argv[++i]
                        : "1";  // bare option = boolean flag
    a.options.insert_or_assign(std::move(key), std::string(v));
  }
  return a;
}

/// Prints the usage text (with `cmd`'s flags when known) and returns 2.
int usage(const Command* cmd) {
  std::fprintf(stderr,
               "usage: dgcli <make-synth|train|generate|serve|route|request|"
               "trace|stats|top|check|lint> [options]\n"
               "see the header of tools/dgcli.cpp for the option list\n");
  if (cmd != nullptr) {
    std::string flags;
    for (std::string_view f : cmd->flags) {
      flags += " --";
      flags += f;
    }
    std::fprintf(stderr, "dgcli %s flags:%s\n",
                 std::string(cmd->name).c_str(), flags.c_str());
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  const Command* cmd = argc < 2 ? nullptr : find_command(argv[1]);
  try {
    if (cmd == nullptr) {
      throw UsageError(argc < 2 ? "no command given"
                                : "unknown command " + std::string(argv[1]));
    }
    return cmd->run(parse(argc, argv, *cmd));
  } catch (const UsageError& e) {
    std::fprintf(stderr, "dgcli: %s\n", e.what());
    return usage(cmd);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dgcli: %s\n", e.what());
    return 1;
  }
}
