// Distributed-tracing smoke suite (ctest label trace-smoke; the tsan CI
// job runs it with DG_THREADS=4). Covers the acceptance criteria of the
// fleet tracing tier end to end:
//   * the router stamps sampled generate requests with a trace context
//     (deterministic 1-in-round(1/rate) pacing, only while obs::Trace is
//     collecting), the reply carries the trace id, and sampled replies are
//     never cached (a cached reply would replay a stale trace id);
//   * the p99 latency histogram carries a slow-request exemplar whose
//     trace id resolves to a recorded span tree;
//   * the `trace` op on a managed fleet (real spawned dgcli worker
//     processes) under concurrent mixed load merges every process's span
//     buffer into one view in which a sampled request's tree nests
//     correctly across the process boundary — router.request ->
//     router.attempt -> worker serve.request -> serve.queue_wait /
//     serve.slot — with worker timestamps aligned onto the router's
//     steady_clock timebase via the health sweep's clock handshake.
#include "serve/shard/router.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/doppelganger.h"
#include "core/package.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tracectx.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/shard/worker_pool.h"
#include "synth/synth.h"

namespace dg::serve::shard {
namespace {

core::DoppelGangerConfig tiny_cfg(uint64_t seed = 3) {
  core::DoppelGangerConfig cfg;
  cfg.attr_hidden = 12;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 12;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 12;
  cfg.head_hidden = 12;
  cfg.sample_len = 5;
  cfg.disc_hidden = 24;
  cfg.disc_layers = 2;
  cfg.batch = 8;
  cfg.iterations = 2;
  cfg.seed = seed;
  return cfg;
}

std::string make_package() {
  // One file per test: ctest runs this binary's tests as concurrent
  // processes, and a shared path lets one truncate what another loads.
  const std::string pkg =
      ::testing::TempDir() + "/traced_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".dgpkg";
  auto d = synth::make_gcut({.n = 8, .t_max = 20});
  for (auto& o : d.data) {
    if (o.length() > 20) o.features.resize(20);
  }
  d.schema.max_timesteps = 20;
  core::save_package_file(pkg, core::DoppelGanger(d.schema, tiny_cfg()));
  return pkg;
}

/// One in-process replica: a GenerationService behind a loopback TcpServer.
struct Replica {
  GenerationService service;
  TcpServer server;
  explicit Replica(const ServiceConfig& cfg)
      : service(cfg), server(service, 0) {
    service.start();
    server.start();
  }
  ~Replica() {
    server.stop();
    service.stop();
  }
};

struct Fleet {
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<WorkerPool> pool;
};

Fleet make_fleet(std::size_t n, const std::string& pkg) {
  ServiceConfig cfg;
  cfg.package_path = pkg;
  cfg.slots = 8;
  cfg.engines = 2;
  cfg.queue_capacity = 64;
  cfg.reload_poll_seconds = 0.0;
  Fleet f;
  std::vector<WorkerEndpoint> eps;
  for (std::size_t i = 0; i < n; ++i) {
    f.replicas.push_back(std::make_unique<Replica>(cfg));
    eps.push_back({"127.0.0.1", f.replicas.back()->server.port()});
  }
  f.pool = std::make_unique<WorkerPool>(std::move(eps));
  return f;
}

std::string gen_line(std::uint64_t id, std::uint64_t seed, int n) {
  GenRequest req;
  req.id = id;
  req.seed = seed;
  req.count = n;
  return json::dump(request_to_json(req));
}

/// RAII: every test collects spans from a clean buffer and leaves the
/// process-global trace disabled for the next one.
struct TraceSession {
  TraceSession() { obs::Trace::start(); }
  ~TraceSession() {
    obs::Trace::stop();
    obs::Trace::clear();
  }
};

// ---------------------------------------------------------------------------
// In-process: stamping, reply trace ids, cache interplay, exemplars.

TEST(RouterTrace, StampsSampledRequestsAndSkipsCacheInserts) {
  const std::string pkg = make_package();
  Fleet fleet = make_fleet(2, pkg);
  TraceSession session;
  RouterConfig rc;
  rc.trace_sample_rate = 1.0;
  Router router(*fleet.pool, rc);
  router.health().sweep_now();

  const json::Value r1 = json::parse(router.handle_line(gen_line(1, 55, 1)));
  ASSERT_TRUE(r1.bool_or("ok", false)) << json::dump(r1);
  const std::string trace1 = r1.string_or("trace", "");
  ASSERT_EQ(trace1.size(), 16u);
  EXPECT_NE(obs::trace_id_from_hex(trace1), 0u);

  // The identical request again: a sampled reply must never have been
  // inserted into the cache (it would replay trace1 to this client), so
  // this is a fresh generation with a fresh trace id.
  const json::Value r2 = json::parse(router.handle_line(gen_line(2, 55, 1)));
  ASSERT_TRUE(r2.bool_or("ok", false));
  const std::string trace2 = r2.string_or("trace", "");
  EXPECT_EQ(trace2.size(), 16u);
  EXPECT_NE(trace1, trace2);
  const json::Value stats = json::parse(router.handle_line(R"({"op":"stats"})"));
  EXPECT_EQ(stats.find("router")->number_or("cache_inserts", -1), 0.0);
  EXPECT_EQ(stats.find("router")->number_or("cache_hits", -1), 0.0);

  // Slow-request exemplar: the router's latency histogram names one of the
  // sampled traces as its worst recent request.
  const json::Value metrics =
      json::parse(router.handle_line(R"({"op":"metrics"})"));
  const json::Value* lat =
      metrics.find("router")->find("histograms")->find("router.latency_ms");
  ASSERT_NE(lat, nullptr);
  const json::Value* ex = lat->find("exemplars");
  ASSERT_NE(ex, nullptr);
  ASSERT_FALSE(ex->as_array().empty());
  const std::string ex_trace = ex->as_array().back().string_or("trace", "");
  EXPECT_TRUE(ex_trace == trace1 || ex_trace == trace2) << ex_trace;

  // Collection stopped: the same config stamps nothing (sampling is gated
  // on obs::Trace actually collecting).
  obs::Trace::stop();
  const json::Value r3 = json::parse(router.handle_line(gen_line(3, 56, 1)));
  ASSERT_TRUE(r3.bool_or("ok", false));
  EXPECT_EQ(r3.find("trace"), nullptr);
}

TEST(RouterTrace, SamplingPacingIsDeterministic) {
  const std::string pkg = make_package();
  Fleet fleet = make_fleet(1, pkg);
  TraceSession session;
  RouterConfig rc;
  rc.trace_sample_rate = 0.25;  // 1 in 4, counter-paced — not a coin flip
  Router router(*fleet.pool, rc);
  router.health().sweep_now();
  int sampled = 0;
  for (int i = 0; i < 16; ++i) {
    const json::Value r = json::parse(
        router.handle_line(gen_line(static_cast<std::uint64_t>(i) + 1,
                                    static_cast<std::uint64_t>(i) * 31, 1)));
    ASSERT_TRUE(r.bool_or("ok", false)) << json::dump(r);
    if (r.find("trace") != nullptr) ++sampled;
  }
  EXPECT_EQ(sampled, 4);
}

// ---------------------------------------------------------------------------
// The acceptance test: a managed 2-worker fleet (real processes) under
// concurrent load; the merged trace must nest one request's spans across
// the router and the worker that served it, with aligned timestamps, and
// cover at least two distinct worker processes overall.

struct Ev {
  std::string name;
  int pid = 0;
  std::int64_t ts = 0;   // rebased onto the router timebase
  std::int64_t dur = 0;
  std::int64_t slack = 0;  // clock-skew bound for this process (+ margin)
  std::string trace, span, parent;
};

TEST(RouterTrace, MergedFleetTraceNestsAcrossProcesses) {
  const std::string pkg = make_package();
  SpawnSpec spec;
  spec.argv = {DG_DGCLI_PATH, "serve",     "--model", pkg,  "--slots", "4",
               "--engines",   "1",         "--queue", "64", "--poll",  "0"};
  spec.port_file_dir = ::testing::TempDir();
  spec.quiet = true;  // a leaked worker must never hold ctest's output pipe
  WorkerPool pool(2, spec);
  pool.start();
  TraceSession session;
  RouterConfig rc;
  rc.trace_sample_rate = 1.0;
  rc.health.period_seconds = 0.05;
  Router router(pool, rc);
  router.start();

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((pool.worker(0).state() != WorkerState::Up ||
          pool.worker(1).state() != WorkerState::Up) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(pool.worker(0).state(), WorkerState::Up);
  ASSERT_EQ(pool.worker(1).state(), WorkerState::Up);
  // One more synchronous sweep so both clock offsets are freshly measured.
  router.health().sweep_now();

  // Mixed concurrent load: 4 client threads, seeds spread over both shards
  // (concurrent span emission on the router side is part of what the tsan
  // job checks here).
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 8; ++i) {
        const auto seed = static_cast<std::uint64_t>(t) * 100 +
                          static_cast<std::uint64_t>(i);
        try {
          const json::Value r =
              json::parse(router.handle_line(gen_line(seed + 1, seed, 1)));
          if (!r.bool_or("ok", false)) ++failures;
        } catch (const std::exception&) {
          ++failures;
        }
      }
    });
  }
  for (auto& c : clients) c.join();
  ASSERT_EQ(failures.load(), 0);

  const json::Value merged =
      json::parse(router.handle_line(R"({"op":"trace"})"));
  ASSERT_TRUE(merged.bool_or("ok", false)) << json::dump(merged);
  const json::Value* procs = merged.find("processes");
  ASSERT_NE(procs, nullptr);
  ASSERT_GE(procs->as_array().size(), 3u);  // router + both workers

  std::vector<Ev> evs;
  for (const json::Value& proc : procs->as_array()) {
    const int pid = static_cast<int>(proc.number_or("pid", 0));
    const auto off = static_cast<std::int64_t>(proc.number_or("offset_us", 0));
    const auto skew = static_cast<std::int64_t>(proc.number_or("skew_us", 0));
    if (pid >= 2) {
      // Worker rows carry a measured (non-negative) skew bound.
      EXPECT_GE(skew, 0) << "worker clock never measured";
    }
    const json::Value* events = proc.find("events");
    ASSERT_NE(events, nullptr);
    for (const json::Value& e : events->as_array()) {
      Ev ev;
      ev.name = e.string_or("name", "");
      ev.pid = pid;
      ev.ts = static_cast<std::int64_t>(e.number_or("ts_us", 0)) + off;
      ev.dur = static_cast<std::int64_t>(e.number_or("dur_us", 0));
      ev.slack = skew + 5000;  // skew bound + scheduling margin
      ev.trace = e.string_or("trace", "");
      ev.span = e.string_or("span", "");
      ev.parent = e.string_or("parent", "");
      evs.push_back(std::move(ev));
    }
  }

  // Group the sampled spans by trace id.
  std::map<std::string, std::vector<const Ev*>> by_trace;
  for (const Ev& e : evs) {
    if (!e.trace.empty()) by_trace[e.trace].push_back(&e);
  }
  ASSERT_GE(by_trace.size(), 16u);  // every request was sampled

  std::set<int> worker_pids_serving;
  int verified_trees = 0;
  for (const auto& [trace, spans] : by_trace) {
    const Ev* root = nullptr;
    const Ev* sreq = nullptr;
    std::set<std::string> attempt_spans;
    for (const Ev* e : spans) {
      if (e->name == "router.request") root = e;
      if (e->name == "serve.request") sreq = e;
      if (e->name == "router.attempt") attempt_spans.insert(e->span);
    }
    ASSERT_NE(root, nullptr) << "trace " << trace << " has no root span";
    EXPECT_EQ(root->pid, 1);
    EXPECT_TRUE(root->parent.empty());
    if (sreq == nullptr) continue;  // worker buffer overwrote it (ring cap)
    ++verified_trees;
    worker_pids_serving.insert(sreq->pid);

    // Cross-process parent/child: the worker's request span hangs under
    // one of the router's route attempts, and every attempt under the root.
    EXPECT_GE(sreq->pid, 2);
    EXPECT_TRUE(attempt_spans.count(sreq->parent) == 1)
        << "serve.request parent " << sreq->parent << " not a router.attempt";
    for (const Ev* e : spans) {
      if (e->name == "router.attempt") {
        EXPECT_EQ(e->parent, root->span);
      }
    }

    // Aligned timestamps: rebased worker time must sit inside the router's
    // attempt window (and hence the root), up to the recorded skew bound.
    const Ev* attempt = nullptr;
    for (const Ev* e : spans) {
      if (e->name == "router.attempt" && e->span == sreq->parent) attempt = e;
    }
    ASSERT_NE(attempt, nullptr);
    const std::int64_t slack = sreq->slack;
    EXPECT_GE(sreq->ts, attempt->ts - slack);
    EXPECT_LE(sreq->ts + sreq->dur, attempt->ts + attempt->dur + slack);
    EXPECT_GE(sreq->ts, root->ts - slack);
    EXPECT_LE(sreq->ts + sreq->dur, root->ts + root->dur + slack);

    // Worker-local children share the worker clock: exact containment.
    for (const Ev* e : spans) {
      if (e->pid != sreq->pid || e == sreq) continue;
      if (e->name == "serve.queue_wait" || e->name == "serve.slot") {
        EXPECT_EQ(e->parent, sreq->span) << e->name;
        EXPECT_GE(e->ts, sreq->ts) << e->name;
        EXPECT_LE(e->ts + e->dur, sreq->ts + sreq->dur) << e->name;
      }
    }
  }
  EXPECT_GE(verified_trees, 16);
  // The merged trace spans the router AND at least two worker processes.
  EXPECT_GE(worker_pids_serving.size(), 2u);

  // The p99 exemplar resolves into the merged trace: its trace id names a
  // tree we just verified the shape of.
  const json::Value metrics =
      json::parse(router.handle_line(R"({"op":"metrics"})"));
  const json::Value* lat =
      metrics.find("router")->find("histograms")->find("router.latency_ms");
  ASSERT_NE(lat, nullptr);
  const json::Value* ex = lat->find("exemplars");
  ASSERT_NE(ex, nullptr);
  ASSERT_FALSE(ex->as_array().empty());
  const std::string ex_trace = ex->as_array().back().string_or("trace", "");
  EXPECT_EQ(by_trace.count(ex_trace), 1u) << ex_trace;

  router.stop();
  pool.shutdown();
}

}  // namespace
}  // namespace dg::serve::shard
