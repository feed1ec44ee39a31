// Tests for the telemetry subsystem (src/obs): histogram quantile math
// against an independent sorted reference, partial-window correctness,
// concurrent writers (exercised under tsan in CI), trace span nesting —
// including spans opened on intra-op pool workers — Chrome trace JSON
// round-trips through the serve JSON parser, profiler FLOP attribution,
// run-logger JSONL round-trips, and the anomaly-counter bridge from
// nn::AnomalyGuard into the global registry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/doppelganger.h"
#include "core/tape_exec.h"
#include "nn/autograd.h"
#include "nn/check.h"
#include "nn/matrix.h"
#include "nn/parallel.h"
#include "nn/rng.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/runlog.h"
#include "obs/trace.h"
#include "obs/tracectx.h"
#include "serve/json.h"
#include "synth/synth.h"

namespace dg::obs {
namespace {

// ---------------------------------------------------------------------------
// exact_quantile: the single quantile definition every surface uses.

/// Independent nearest-rank reference: sort, take element ceil(q*n) (1-based).
double reference_quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  if (rank > v.size()) rank = v.size();
  return v[rank - 1];
}

TEST(ExactQuantile, MatchesSortedNearestRankReference) {
  nn::Rng rng(42);
  for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{100},
                              std::size_t{2048}, std::size_t{5000}}) {
    std::vector<double> vals;
    vals.reserve(n);
    for (std::size_t i = 0; i < n; ++i) vals.push_back(rng.normal(0.0, 10.0));
    for (const double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      EXPECT_DOUBLE_EQ(exact_quantile(vals, q), reference_quantile(vals, q))
          << "n=" << n << " q=" << q;
    }
  }
}

TEST(ExactQuantile, EmptySampleIsZero) {
  EXPECT_EQ(exact_quantile({}, 0.5), 0.0);
}

// ---------------------------------------------------------------------------
// Histogram: buckets, window quantiles, partial-window regression.

TEST(Histogram, PartialWindowQuantilesUseOnlyFilledSamples) {
  // Regression for the serve latency bug: 10 samples into a 2048-slot window
  // must compute order statistics over exactly those 10 samples, never over
  // stale/zero slots.
  Histogram h(HistogramOptions{.bounds = {}, .window = 2048});
  for (int i = 1; i <= 10; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 10u);
  EXPECT_EQ(s.window_filled, 10u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_DOUBLE_EQ(s.p50, 5.0);   // ceil(0.5*10) = rank 5
  EXPECT_DOUBLE_EQ(s.p90, 9.0);   // ceil(0.9*10) = rank 9
  EXPECT_DOUBLE_EQ(s.p99, 10.0);  // ceil(0.99*10) = rank 10
}

TEST(Histogram, RingKeepsLastWindowSamplesButLifetimeAggregates) {
  Histogram h(HistogramOptions{.bounds = {}, .window = 4});
  for (int i = 1; i <= 10; ++i) h.record(static_cast<double>(i));
  const HistogramSnapshot s = h.snapshot();
  // Quantiles see only the last 4 samples {7,8,9,10}...
  EXPECT_EQ(s.window_filled, 4u);
  EXPECT_DOUBLE_EQ(s.p50, 8.0);
  EXPECT_DOUBLE_EQ(s.p99, 10.0);
  // ...while count/sum/extrema cover the lifetime.
  EXPECT_EQ(s.count, 10u);
  EXPECT_DOUBLE_EQ(s.sum, 55.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
}

TEST(Histogram, BucketCountsWithUpperInclusiveBounds) {
  Histogram h(HistogramOptions{.bounds = {1.0, 10.0, 100.0}, .window = 16});
  for (const double v : {0.5, 1.0, 5.0, 50.0, 500.0, 5000.0}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.bounds.size(), 3u);
  ASSERT_EQ(s.buckets.size(), 4u);  // +1 implicit +inf bucket
  EXPECT_EQ(s.buckets[0], 2u);      // 0.5, 1.0 (bound is inclusive)
  EXPECT_EQ(s.buckets[1], 1u);      // 5.0
  EXPECT_EQ(s.buckets[2], 1u);      // 50.0
  EXPECT_EQ(s.buckets[3], 2u);      // 500, 5000 overflow
}

TEST(Histogram, QuantilesDisabledWithZeroWindow) {
  Histogram h(HistogramOptions{.bounds = {1.0}, .window = 0});
  h.record(3.0);
  h.record(7.0);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 2u);
  EXPECT_EQ(s.window_filled, 0u);
  EXPECT_DOUBLE_EQ(s.p50, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 7.0);  // lifetime extrema still tracked
}

// ---------------------------------------------------------------------------
// Concurrency: counters, gauges, and histograms under parallel writers while
// a reader snapshots. Run by the tsan CI job.

TEST(RegistryConcurrency, ParallelWritersNeverLoseUpdates) {
  Registry reg;
  Counter& hits = reg.counter("t.hits");
  Histogram& lat =
      reg.histogram("t.lat", HistogramOptions{.bounds = {}, .window = 512});
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&, t] {
      // Half the threads resolve names through the registry on every write
      // (exercising the name-map mutex), half use the cached references.
      for (int i = 0; i < kPerThread; ++i) {
        if (t % 2 == 0) {
          hits.add(1);
          lat.record(static_cast<double>(i % 100));
        } else {
          reg.counter("t.hits").add(1);
          reg.histogram("t.lat").record(static_cast<double>(i % 100));
        }
        reg.gauge("t.last").set(static_cast<double>(i));
      }
    });
  }
  // Concurrent reader: snapshots must be internally consistent and never
  // block the writers (we only assert monotonicity of the counter).
  std::uint64_t last_seen = 0;
  for (int i = 0; i < 50; ++i) {
    const RegistrySnapshot snap = reg.snapshot();
    for (const auto& [name, v] : snap.counters) {
      if (name == "t.hits") {
        EXPECT_GE(v, last_seen);
        last_seen = v;
      }
    }
  }
  for (std::thread& t : writers) t.join();
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count,
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.histograms[0].second.window_filled, 512u);
}

// ---------------------------------------------------------------------------
// Registry JSON export parses with the same parser the serve clients use.

TEST(RegistryJson, SnapshotRoundTripsThroughServeParser) {
  Registry reg;
  reg.counter("requests").add(3);
  reg.gauge("occupancy").set(0.75);
  Histogram& h =
      reg.histogram("lat_ms", HistogramOptions{.bounds = {1, 8}, .window = 8});
  h.record(0.5);
  h.record(4.0);
  h.record(100.0);

  const serve::json::Value v = serve::json::parse(to_json(reg.snapshot()));
  const serve::json::Value* counters = v.find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->number_or("requests", -1), 3.0);
  const serve::json::Value* gauges = v.find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_DOUBLE_EQ(gauges->number_or("occupancy", -1), 0.75);
  const serve::json::Value* hists = v.find("histograms");
  ASSERT_NE(hists, nullptr);
  const serve::json::Value* lat = hists->find("lat_ms");
  ASSERT_NE(lat, nullptr);
  EXPECT_DOUBLE_EQ(lat->number_or("count", -1), 3.0);
  EXPECT_DOUBLE_EQ(lat->number_or("p50", -1), 4.0);
  EXPECT_DOUBLE_EQ(lat->number_or("window", -1), 3.0);
  const serve::json::Value* buckets = lat->find("buckets");
  ASSERT_NE(buckets, nullptr);
  ASSERT_EQ(buckets->as_array().size(), 3u);
}

TEST(RegistryJson, ResetZeroesValuesButKeepsNames) {
  Registry reg;
  reg.counter("a").add(5);
  reg.gauge("b").set(2.5);
  reg.histogram("c").record(1.0);
  reg.reset();
  const RegistrySnapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].second, 0u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, 0.0);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count, 0u);
  EXPECT_EQ(snap.histograms[0].second.window_filled, 0u);
}

// ---------------------------------------------------------------------------
// Trace spans: nesting depth, per-thread stacks, export formats.

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override { Trace::start(); }
  void TearDown() override {
    Trace::stop();
    Trace::clear();
  }
};

const TraceEvent* find_event(const std::vector<TraceEvent>& evs,
                             const std::string& name) {
  for (const TraceEvent& e : evs) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

TEST_F(TraceTest, NestedSpansRecordDepthAndContainment) {
  {
    Span outer("outer", "test");
    {
      Span inner("inner", "test");
    }
  }
  Trace::stop();
  const std::vector<TraceEvent> evs = Trace::events();
  const TraceEvent* outer = find_event(evs, "outer");
  const TraceEvent* inner = find_event(evs, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(outer->tid, inner->tid);
  EXPECT_EQ(outer->category, "test");
  // Containment: the inner span starts no earlier and ends no later.
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us);
}

TEST_F(TraceTest, SpansOnPoolWorkersCarryPerThreadDepth) {
  const int old_threads = nn::num_threads();
  nn::set_num_threads(4);
  std::uint64_t caller_tid = 0;
  {
    Span outer("outer", "test");
    // Depth is thread-local: a span opened on a pool worker starts a fresh
    // stack (depth 0) while the caller-thread partition nests under "outer".
    nn::parallel_for(0, 8, 1, [](std::int64_t b, std::int64_t e) {
      for (std::int64_t i = b; i < e; ++i) {
        Span s("inner", "test");
      }
    });
  }
  Trace::stop();
  nn::set_num_threads(old_threads);
  const std::vector<TraceEvent> evs = Trace::events();
  const TraceEvent* outer = find_event(evs, "outer");
  ASSERT_NE(outer, nullptr);
  caller_tid = outer->tid;
  int inner_count = 0;
  for (const TraceEvent& e : evs) {
    if (e.name != "inner") continue;
    ++inner_count;
    if (e.tid == caller_tid) {
      EXPECT_EQ(e.depth, 1) << "caller-thread partition nests under outer";
    } else {
      EXPECT_EQ(e.depth, 0) << "worker threads carry their own span stack";
    }
  }
  EXPECT_GE(inner_count, 1);
}

TEST_F(TraceTest, ChromeTraceJsonRoundTrips) {
  {
    Span a("alpha", "test");
    Span b("beta", "test");
  }
  Trace::stop();
  const std::vector<TraceEvent> evs = Trace::events();
  ASSERT_EQ(evs.size(), 2u);

  std::ostringstream os;
  Trace::write_chrome(os);
  const serve::json::Value v = serve::json::parse(os.str());
  const serve::json::Value* arr = v.find("traceEvents");
  ASSERT_NE(arr, nullptr);
  ASSERT_EQ(arr->as_array().size(), evs.size());
  for (const serve::json::Value& ev : arr->as_array()) {
    EXPECT_EQ(ev.string_or("ph", ""), "X");
    EXPECT_DOUBLE_EQ(ev.number_or("pid", -1), 1.0);
    EXPECT_GE(ev.number_or("dur", -1), 0.0);
    const std::string name = ev.string_or("name", "");
    EXPECT_TRUE(name == "alpha" || name == "beta") << name;
    const serve::json::Value* args = ev.find("args");
    ASSERT_NE(args, nullptr);
    EXPECT_GE(args->number_or("depth", -1), 0.0);
  }

  std::ostringstream jl;
  Trace::write_jsonl(jl);
  std::istringstream lines(jl.str());
  std::string line;
  std::size_t n_lines = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const serve::json::Value e = serve::json::parse(line);
    EXPECT_FALSE(e.string_or("name", "").empty());
    ++n_lines;
  }
  EXPECT_EQ(n_lines, evs.size());
}

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  Trace::stop();
  Trace::clear();
  {
    Span s("ghost", "test");
  }
  EXPECT_TRUE(Trace::events().empty());
}

// ---------------------------------------------------------------------------
// Profiler: FLOP attribution exactness and hook wiring.

class ProfilerTest : public ::testing::Test {
 protected:
  void SetUp() override { Profiler::start(); }
  void TearDown() override {
    Profiler::stop();
    Profiler::clear();
  }
};

const OpStats* find_op(const std::vector<std::pair<std::string, OpStats>>& t,
                       const std::string& name) {
  for (const auto& [n, s] : t) {
    if (n == name) return &s;
  }
  return nullptr;
}

TEST_F(ProfilerTest, ToJsonParses) {
  Profiler::note_op("matmul", 16, 48);
  Profiler::stop();
  const serve::json::Value v = serve::json::parse(Profiler::to_json());
  const serve::json::Value* ops = v.find("ops");
  ASSERT_NE(ops, nullptr);
  const serve::json::Value* mm = ops->find("matmul");
  ASSERT_NE(mm, nullptr);
  EXPECT_DOUBLE_EQ(mm->number_or("calls", -1), 1.0);
  EXPECT_DOUBLE_EQ(mm->number_or("flops", -1), 16.0);
}

#ifdef DG_OBS_ENABLED
TEST_F(ProfilerTest, MatmulFlopsAreExact) {
  const nn::Var a(nn::Matrix(3, 4, 0.5f)), b(nn::Matrix(4, 5, 0.25f));
  (void)nn::matmul(a, b);
  (void)nn::matmul(a, b);
  Profiler::stop();
  const auto table = Profiler::snapshot();
  const OpStats* mm = find_op(table, "matmul");
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(mm->calls, 2u);
  EXPECT_EQ(mm->flops, 2u * (2ull * 3 * 4 * 5));  // 2nkm per call
}

TEST_F(ProfilerTest, ElementwiseOpsCountOneFlopPerOutput) {
  const nn::Var a(nn::Matrix(6, 7, 0.5f));
  (void)nn::exp_(a);
  (void)nn::transpose(a);
  Profiler::stop();
  const auto table = Profiler::snapshot();
  const OpStats* ew = find_op(table, "exp");
  ASSERT_NE(ew, nullptr);
  EXPECT_EQ(ew->flops, 42u);
  const OpStats* tr = find_op(table, "transpose");
  ASSERT_NE(tr, nullptr);
  EXPECT_EQ(tr->flops, 0u);  // shape ops move bytes, not flops
}

TEST_F(ProfilerTest, AutogradOpsAreAttributedThroughMakeOp) {
  nn::Var a(nn::Matrix(8, 16, 0.5f), false);
  nn::Var b(nn::Matrix(16, 4, 0.25f), false);
  nn::Var c = nn::matmul(a, b);
  (void)c;
  Profiler::stop();
  const auto table = Profiler::snapshot();
  const OpStats* mm = find_op(table, "matmul");
  ASSERT_NE(mm, nullptr);
  EXPECT_EQ(mm->calls, 1u);
  EXPECT_EQ(mm->flops, 2ull * 8 * 16 * 4);
}

TEST_F(ProfilerTest, KernelTimersRecordExactFlopRows) {
  const nn::Matrix x(8, 16, 1.0f);
  const nn::Matrix w(16, 4, 1.0f);
  (void)nn::matmul(x, w);
  Profiler::stop();
  const auto table = Profiler::snapshot();
  const OpStats* k = find_op(table, "kernel.matmul");
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(k->calls, 1u);
  EXPECT_EQ(k->flops, 2ull * 8 * 16 * 4);
  EXPECT_GT(k->bytes, 0u);
}

// The op row and the kernel row of one lstm_gates call count from the same
// formula: both products plus one add per output for the bias.
TEST_F(ProfilerTest, LstmGatesOpAndKernelRowsAgree) {
  const nn::Var x(nn::Matrix(6, 3, 0.5f)), wx(nn::Matrix(3, 8, 0.25f));
  const nn::Var h(nn::Matrix(6, 2, 0.5f)), wh(nn::Matrix(2, 8, 0.25f));
  const nn::Var b(nn::Matrix(1, 8, 0.1f));
  (void)nn::lstm_gates(x, wx, h, wh, b);
  Profiler::stop();
  const auto table = Profiler::snapshot();
  const OpStats* op = find_op(table, "lstm_gates");
  const OpStats* k = find_op(table, "kernel.lstm_gates");
  ASSERT_NE(op, nullptr);
  ASSERT_NE(k, nullptr);
  EXPECT_EQ(op->flops, k->flops);
  EXPECT_EQ(op->bytes, k->bytes);
  EXPECT_EQ(k->flops, 2ull * 6 * (3 + 2) * 8 + 6ull * 8);
}

// A tape step is one kernel row whose FLOPs are the autograd step's op rows
// summed; a step over half the lanes counts half.
TEST_F(ProfilerTest, TapeStepIsOneKernelRowCountingTheStepsOps) {
  const auto d = synth::make_gcut({.n = 4, .t_max = 20, .seed = 5});
  core::DoppelGangerConfig cfg;
  cfg.lstm_units = 8;
  cfg.head_hidden = 8;
  cfg.sample_len = 5;
  const core::DoppelGanger model(d.schema, cfg);
  const auto tape = core::TapeExecutor::create_or_throw(model, 4);
  nn::Rng rng(3);
  for (const int n : {4, 2}) {
    const core::GenContext ctx = model.sample_context(n, rng);
    const nn::Matrix noise = rng.normal_matrix(n, model.feat_noise_dim());
    core::GenState st = model.initial_gen_state(n);
    nn::Matrix records(n, model.sample_len() * model.record_width());
    Profiler::start();
    (void)model.generation_step(ctx, noise, st);
    std::uint64_t op_flops = 0;
    for (const auto& [name, stats] : Profiler::snapshot()) {
      if (name.rfind("kernel.", 0) != 0) op_flops += stats.flops;
    }
    Profiler::start();
    tape->step(ctx, noise, st, records);
    Profiler::stop();
    const auto table = Profiler::snapshot();
    ASSERT_EQ(table.size(), 1u) << "lanes " << n;
    const OpStats* k = find_op(table, "kernel.tape_step");
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->calls, 1u);
    EXPECT_EQ(k->flops, op_flops) << "lanes " << n;
    EXPECT_GT(k->bytes, 0u);
  }
}
#endif  // DG_OBS_ENABLED

TEST(Profiler, DisabledHooksRecordNothing) {
  ASSERT_FALSE(Profiler::enabled());
  Profiler::note_op("exp", 9, 72);
  Profiler::record_kernel("kernel.matmul", 10, 10, 10);
  EXPECT_TRUE(Profiler::snapshot().empty());
}

// ---------------------------------------------------------------------------
// Anomaly-counter bridge: nn::AnomalyGuard detections surface as registry
// counters (the signal `dgcli check` and the serve "metrics" op report).

TEST(AnomalyBridge, ForwardNanIncrementsGlobalCounter) {
  Counter& c = Registry::global().counter("nn.anomaly.nonfinite_forward");
  const std::uint64_t before = c.get();
  nn::AnomalyGuard guard;
  nn::Var x(nn::Matrix(2, 2, -1.0f), true);
  EXPECT_THROW((void)nn::log_(x), nn::AnomalyError);  // log(-1) = nan
  EXPECT_EQ(c.get(), before + 1);
}

// ---------------------------------------------------------------------------
// RunLogger: JSONL round-trip through the serve parser.

/// Fresh run directory under the test temp root (RunLogger appends, so a
/// stale metrics.jsonl from an earlier process would pollute assertions).
std::string fresh_run_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(RunLogger, IterationRecordsRoundTripThroughJson) {
  const std::string dir = fresh_run_dir("obs_runlog_test");
  RunLogger logger(dir);
  logger.log_event("{\"event\":\"fit_start\",\"iterations\":2}");
  for (int i = 0; i < 2; ++i) {
    TrainIterRecord rec;
    rec.iter = i;
    rec.d_loss = -1.25 + i;
    rec.g_loss = 0.5 * i;
    rec.gp_penalty = 0.0625;
    rec.feat_spread = 3.5;
    rec.wall_ms = 12.0;
    logger.log_iteration(rec);
  }

  std::ifstream in(logger.metrics_path());
  ASSERT_TRUE(in.good());
  std::string line;
  int events = 0, iters = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const serve::json::Value v = serve::json::parse(line);
    if (v.find("event") != nullptr) {
      ++events;
      EXPECT_EQ(v.string_or("event", ""), "fit_start");
      continue;
    }
    EXPECT_DOUBLE_EQ(v.number_or("iter", -1), iters);
    EXPECT_DOUBLE_EQ(v.number_or("d_loss", 0), -1.25 + iters);
    EXPECT_DOUBLE_EQ(v.number_or("gp_penalty", 0), 0.0625);
    EXPECT_DOUBLE_EQ(v.number_or("feat_spread", 0), 3.5);
    ++iters;
  }
  EXPECT_EQ(events, 1);
  EXPECT_EQ(iters, 2);
}

TEST(RunLogger, NonFiniteValuesSerializeAsNull) {
  const std::string dir = fresh_run_dir("obs_runlog_nan");
  RunLogger logger(dir);
  TrainIterRecord rec;
  rec.iter = 0;
  rec.d_loss = std::nan("");
  logger.log_iteration(rec);
  std::ifstream in(logger.metrics_path());
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  // Must stay parseable JSON (NaN is not valid JSON).
  const serve::json::Value v = serve::json::parse(line);
  const serve::json::Value* d = v.find("d_loss");
  ASSERT_NE(d, nullptr);
  EXPECT_TRUE(d->is_null());
}

// ---------------------------------------------------------------------------
// merge_snapshots: fleet-wide aggregation for the shard router's metrics op.

TEST(MergeSnapshots, SumsCountersGaugesAndExactHistogramMoments) {
  Registry a, b;
  a.counter("req").add(3);
  b.counter("req").add(5);
  b.counter("only_b").add(1);
  a.gauge("depth").set(2.0);
  b.gauge("depth").set(4.0);
  Histogram& ha = a.histogram("lat");
  Histogram& hb = b.histogram("lat");
  std::vector<double> all;
  for (double v : {0.02, 0.5, 3.0}) { ha.record(v); all.push_back(v); }
  for (double v : {0.1, 7.0, 40.0, 40.0}) { hb.record(v); all.push_back(v); }

  const RegistrySnapshot merged = merge_snapshots({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.counters.size(), 2u);
  EXPECT_EQ(merged.counters[0], (std::pair<std::string, std::uint64_t>{"only_b", 1}));
  EXPECT_EQ(merged.counters[1], (std::pair<std::string, std::uint64_t>{"req", 8}));
  ASSERT_EQ(merged.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(merged.gauges[0].second, 6.0);

  ASSERT_EQ(merged.histograms.size(), 1u);
  const HistogramSnapshot& h = merged.histograms[0].second;
  EXPECT_EQ(h.count, all.size());
  EXPECT_DOUBLE_EQ(h.sum, 0.02 + 0.5 + 3.0 + 0.1 + 7.0 + 80.0);
  EXPECT_DOUBLE_EQ(h.min, 0.02);
  EXPECT_DOUBLE_EQ(h.max, 40.0);
  std::uint64_t bucket_total = 0;
  for (std::uint64_t c : h.buckets) bucket_total += c;
  EXPECT_EQ(bucket_total, all.size());
  // Bucket-CDF quantiles: each must bound the exact quantile from above
  // (nearest-rank lands in the same bucket; the merged value is that
  // bucket's upper bound, clamped to the lifetime max).
  const double exact_p50 = exact_quantile(all, 0.50);
  EXPECT_GE(h.p50, exact_p50);
  EXPECT_LE(h.p50, h.max);
  EXPECT_GE(h.p99, exact_quantile(all, 0.99));
  EXPECT_LE(h.p99, h.max);
  EXPECT_GE(h.p50 + 1e-12, h.min);
}

TEST(MergeSnapshots, MismatchedBoundsFallBackToMaxOfPartQuantiles) {
  Registry a, b;
  Histogram& ha = a.histogram("lat");
  Histogram& hb =
      b.histogram("lat", HistogramOptions{.bounds = {1.0, 2.0}, .window = 64});
  ha.record(0.5);
  ha.record(0.7);
  hb.record(1.5);
  const RegistrySnapshot merged = merge_snapshots({a.snapshot(), b.snapshot()});
  ASSERT_EQ(merged.histograms.size(), 1u);
  const HistogramSnapshot& h = merged.histograms[0].second;
  EXPECT_EQ(h.count, 3u);    // exact moments survive the mismatch
  EXPECT_DOUBLE_EQ(h.min, 0.5);
  EXPECT_DOUBLE_EQ(h.max, 1.5);
  EXPECT_DOUBLE_EQ(h.p50, 1.5);  // max of the parts' own p50s
}

TEST(MergeSnapshots, EmptyInputYieldsEmptySnapshot) {
  const RegistrySnapshot merged = merge_snapshots({});
  EXPECT_TRUE(merged.counters.empty());
  EXPECT_TRUE(merged.gauges.empty());
  EXPECT_TRUE(merged.histograms.empty());
}

// Property suite: the bucket-CDF quantile merge against a sorted-reference
// oracle. Because every shard buckets by the same upper-inclusive bounds,
// the merged CDF ranks agree with the full sorted sample's ranks — so the
// merged quantile must land EXACTLY on the upper bound of the bucket that
// contains the nearest-rank element (clamped to the lifetime max; the
// overflow bucket reports the max itself). Random shard splits, including
// empty and partial-window parts, must never perturb that.
TEST(MergeSnapshots, PropertyQuantileMergeMatchesSortedOracleAcrossShardSplits) {
  nn::Rng rng(20260807);
  for (int trial = 0; trial < 40; ++trial) {
    // Random bounds ladder (1-4 bounds, strictly increasing).
    std::vector<double> bounds;
    double b = rng.uniform(0.2, 2.0);
    const int n_bounds = 1 + rng.uniform_int(4);
    for (int i = 0; i < n_bounds; ++i) {
      bounds.push_back(b);
      b *= rng.uniform(1.5, 4.0);
    }
    // Random shard split: one registry per shard, same bounds everywhere.
    // A deliberately small window on odd trials keeps some parts partial
    // (window < lifetime count) — bucket counts are lifetime, so the merge
    // must not care.
    const int n_shards = 1 + rng.uniform_int(5);
    const HistogramOptions opts{.bounds = bounds,
                                .window = (trial % 2 == 0) ? 512u : 8u};
    std::vector<std::unique_ptr<Histogram>> shards;
    for (int s = 0; s < n_shards; ++s) {
      shards.push_back(std::make_unique<Histogram>(opts));
    }
    const int n_vals = rng.uniform_int(120);  // 0 = all-empty edge case
    std::vector<double> all;
    for (int i = 0; i < n_vals; ++i) {
      // Log-uniform so every bucket (incl. overflow) gets traffic.
      const double v = std::exp(rng.uniform(-2.0, 4.0));
      all.push_back(v);
      shards[static_cast<std::size_t>(rng.uniform_int(n_shards))]->record(v);
    }
    std::vector<RegistrySnapshot> parts;
    for (const auto& h : shards) {
      RegistrySnapshot p;
      p.histograms.emplace_back("lat", h->snapshot());
      parts.push_back(std::move(p));
    }
    const RegistrySnapshot merged = merge_snapshots(parts);
    ASSERT_EQ(merged.histograms.size(), 1u);
    const HistogramSnapshot& h = merged.histograms[0].second;
    ASSERT_EQ(h.count, all.size());
    if (all.empty()) {
      EXPECT_DOUBLE_EQ(h.p50, 0.0);
      EXPECT_DOUBLE_EQ(h.p99, 0.0);
      continue;
    }
    const double max_seen = *std::max_element(all.begin(), all.end());
    EXPECT_DOUBLE_EQ(h.max, max_seen);
    for (const double q : {0.5, 0.9, 0.99}) {
      const double exact = reference_quantile(all, q);
      // Oracle: upper bound of the bucket holding the exact quantile.
      std::size_t bucket = bounds.size();  // overflow unless a bound covers it
      for (std::size_t i = 0; i < bounds.size(); ++i) {
        if (exact <= bounds[i]) {
          bucket = i;
          break;
        }
      }
      const double expect = bucket < bounds.size()
                                ? std::min(bounds[bucket], max_seen)
                                : max_seen;
      const double got = q == 0.5 ? h.p50 : (q == 0.9 ? h.p90 : h.p99);
      EXPECT_DOUBLE_EQ(got, expect)
          << "trial " << trial << " q " << q << " shards " << n_shards;
      EXPECT_GE(got, exact - 1e-12);  // never under-reports the true quantile
    }
  }
}

TEST(MergeSnapshots, MismatchedBoundsFallbackCoversAllThreeQuantiles) {
  Histogram ha(HistogramOptions{.bounds = {1.0, 2.0}, .window = 64});
  Histogram hb(HistogramOptions{.bounds = {8.0}, .window = 64});
  for (const double v : {0.5, 1.5, 1.9}) ha.record(v);
  for (const double v : {4.0, 6.0}) hb.record(v);
  RegistrySnapshot pa, pb;
  pa.histograms.emplace_back("lat", ha.snapshot());
  pb.histograms.emplace_back("lat", hb.snapshot());
  const HistogramSnapshot a = ha.snapshot(), b = hb.snapshot();
  const RegistrySnapshot merged = merge_snapshots({pa, pb});
  ASSERT_EQ(merged.histograms.size(), 1u);
  const HistogramSnapshot& h = merged.histograms[0].second;
  EXPECT_EQ(h.count, 5u);
  EXPECT_DOUBLE_EQ(h.p50, std::max(a.p50, b.p50));
  EXPECT_DOUBLE_EQ(h.p90, std::max(a.p90, b.p90));
  EXPECT_DOUBLE_EQ(h.p99, std::max(a.p99, b.p99));
}

// ---------------------------------------------------------------------------
// Slow-request exemplars: per-bucket worst recent request, snapshot-safe,
// merged by max value across shard parts.

TEST(HistogramExemplar, TracksWorstRequestPerBucket) {
  Histogram h(HistogramOptions{.bounds = {1.0, 10.0}, .window = 16});
  h.record(0.5);  // unsampled (trace 0): allocates nothing
  EXPECT_TRUE(h.snapshot().exemplars.empty());
  h.record(0.7, 0xaa);
  h.record(0.6, 0xbb);  // smaller than the held 0.7 — 0xaa stays
  h.record(5.0, 0xcc);
  h.record(7.0, 0xdd);   // worse — replaces 0xcc
  h.record(50.0, 0xee);  // overflow bucket
  const HistogramSnapshot s = h.snapshot();
  ASSERT_EQ(s.exemplars.size(), s.buckets.size());
  EXPECT_EQ(s.exemplars[0].trace_id, 0xaau);
  EXPECT_DOUBLE_EQ(s.exemplars[0].value, 0.7);
  EXPECT_EQ(s.exemplars[1].trace_id, 0xddu);
  EXPECT_DOUBLE_EQ(s.exemplars[1].value, 7.0);
  EXPECT_EQ(s.exemplars[2].trace_id, 0xeeu);
  h.reset();
  EXPECT_TRUE(h.snapshot().exemplars.empty());
}

TEST(HistogramExemplar, MergeKeepsMaxPerBucketAndDropsOnBoundsMismatch) {
  const HistogramOptions opts{.bounds = {1.0}, .window = 16};
  Histogram ha(opts), hb(opts);
  ha.record(0.5, 0x1);
  ha.record(9.0, 0x2);
  hb.record(0.8, 0x3);
  RegistrySnapshot pa, pb;
  pa.histograms.emplace_back("lat", ha.snapshot());
  pb.histograms.emplace_back("lat", hb.snapshot());
  const RegistrySnapshot merged = merge_snapshots({pa, pb});
  const HistogramSnapshot& h = merged.histograms[0].second;
  ASSERT_EQ(h.exemplars.size(), 2u);
  EXPECT_EQ(h.exemplars[0].trace_id, 0x3u);  // 0.8 beats 0.5
  EXPECT_EQ(h.exemplars[1].trace_id, 0x2u);
  // Bounds mismatch: bucket indices don't line up — exemplars are dropped
  // rather than mis-attributed.
  Histogram hc(HistogramOptions{.bounds = {5.0}, .window = 16});
  hc.record(2.0, 0x4);
  RegistrySnapshot pc;
  pc.histograms.emplace_back("lat", hc.snapshot());
  const RegistrySnapshot mixed = merge_snapshots({pa, pc});
  EXPECT_TRUE(mixed.histograms[0].second.exemplars.empty());
}

TEST(HistogramExemplar, SurvivesJsonRoundTripThroughServeParser) {
  Registry reg;
  Histogram& h =
      reg.histogram("lat", HistogramOptions{.bounds = {1.0, 10.0}, .window = 16});
  h.record(0.5, 0xdeadbeefull);
  h.record(42.0, 0xfeedull);
  const serve::json::Value v = serve::json::parse(to_json(reg.snapshot()));
  const serve::json::Value* lat = v.find("histograms")->find("lat");
  ASSERT_NE(lat, nullptr);
  const serve::json::Value* ex = lat->find("exemplars");
  ASSERT_NE(ex, nullptr);
  ASSERT_EQ(ex->as_array().size(), 2u);
  EXPECT_DOUBLE_EQ(ex->as_array()[0].number_or("bucket", -1), 0.0);
  EXPECT_EQ(ex->as_array()[0].string_or("trace", ""),
            trace_id_hex(0xdeadbeefull));
  EXPECT_DOUBLE_EQ(ex->as_array()[1].number_or("bucket", -1), 2.0);
  EXPECT_DOUBLE_EQ(ex->as_array()[1].number_or("v", 0), 42.0);
}

// ---------------------------------------------------------------------------
// Span ring cap, drain timebase, and trace-context propagation — the
// process-local half of the distributed-tracing contract.

TEST(TraceRing, EnvCapOverwritesOldestAndCountsDrops) {
  ::setenv("DG_OBS_SPAN_CAP", "8", 1);
  const std::uint64_t global_before =
      Registry::global().counter("obs.trace.dropped_spans").get();
  Trace::start();  // re-reads the cap
  ::unsetenv("DG_OBS_SPAN_CAP");
  std::vector<std::string> names;
  for (int i = 0; i < 20; ++i) names.push_back("span" + std::to_string(i));
  for (int i = 0; i < 20; ++i) {
    Span s(names[static_cast<std::size_t>(i)].c_str(), "test");
  }
  const std::uint64_t dropped = Trace::dropped();
  const std::vector<TraceEvent> evs = Trace::drain();
  Trace::stop();
  Trace::clear();
  ASSERT_EQ(evs.size(), 8u);
  EXPECT_EQ(dropped, 12u);
  // The ring keeps the NEWEST spans, returned oldest-first.
  EXPECT_EQ(evs.front().name, "span12");
  EXPECT_EQ(evs.back().name, "span19");
  EXPECT_EQ(Registry::global().counter("obs.trace.dropped_spans").get() -
                global_before,
            12u);
}

TEST(TraceRing, DrainPreservesTimebaseAcrossBatches) {
  Trace::clear();
  Trace::start();
  { Span s("first", "test"); }
  const std::vector<TraceEvent> batch1 = Trace::drain();
  { Span s("second", "test"); }
  const std::vector<TraceEvent> batch2 = Trace::drain();
  Trace::stop();
  Trace::clear();
  ASSERT_EQ(batch1.size(), 1u);
  ASSERT_EQ(batch2.size(), 1u);
  // drain() must not touch the epoch: successive batches share one
  // timebase, so the later span cannot appear to start earlier.
  EXPECT_GE(batch2[0].ts_us, batch1[0].ts_us);
}

TEST(TraceContext, AmbientContextChainsSpanParentIds) {
  Trace::clear();
  Trace::start();
  const std::uint64_t tid = next_trace_id();
  ASSERT_NE(tid, 0u);
  {
    TraceScope scope(TraceContext{tid, 0});
    Span outer("outer", "test");
    { Span inner("inner", "test"); }
  }
  { Span loose("loose", "test"); }  // outside any scope: unsampled
  Trace::stop();
  const std::vector<TraceEvent> evs = Trace::events();
  Trace::clear();
  const TraceEvent* outer = find_event(evs, "outer");
  const TraceEvent* inner = find_event(evs, "inner");
  const TraceEvent* loose = find_event(evs, "loose");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(loose, nullptr);
  EXPECT_EQ(outer->trace_id, tid);
  EXPECT_EQ(outer->parent_span, 0u);
  EXPECT_NE(outer->span_id, 0u);
  EXPECT_EQ(inner->trace_id, tid);
  EXPECT_EQ(inner->parent_span, outer->span_id);
  EXPECT_EQ(loose->trace_id, 0u);
  EXPECT_EQ(loose->span_id, 0u);
}

TEST(TraceContext, HexIdsRoundTripAndRejectMalformed) {
  for (const std::uint64_t id :
       {std::uint64_t{1}, std::uint64_t{0xdeadbeef},
        std::uint64_t{0xffffffffffffffffull}}) {
    const std::string hex = trace_id_hex(id);
    EXPECT_EQ(hex.size(), 16u);
    EXPECT_EQ(trace_id_from_hex(hex), id);
    EXPECT_EQ(trace_id_from_hex("0x" + hex), id);
  }
  // Malformed forms decode to 0 — "absent", never an exception (forward
  // compatibility: a garbled trace field degrades to unsampled).
  EXPECT_EQ(trace_id_from_hex(""), 0u);
  EXPECT_EQ(trace_id_from_hex("zzzz"), 0u);
  EXPECT_EQ(trace_id_from_hex("12 4"), 0u);
}

// ---------------------------------------------------------------------------
// End to end: a tiny training run streams its telemetry into TrainStats and
// the run directory.

synth::SynthData tiny_dataset(int n, int t) {
  synth::SynthData out;
  out.schema.name = "tiny";
  out.schema.max_timesteps = t;
  out.schema.attributes = {data::categorical_field("kind", {"low", "high"})};
  out.schema.features = {data::continuous_field("x", 0.0f, 10.0f)};
  nn::Rng rng(99);
  for (int i = 0; i < n; ++i) {
    data::Object o;
    const int kind = rng.bernoulli(0.5) ? 1 : 0;
    o.attributes = {static_cast<float>(kind)};
    const double level = kind ? 7.0 : 2.0;
    for (int j = 0; j < t; ++j) {
      o.features.push_back({static_cast<float>(
          level + std::sin(j * 0.8) + rng.normal(0.0, 0.1))});
    }
    out.data.push_back(std::move(o));
  }
  return out;
}

TEST(TrainingTelemetry, FitPopulatesStatsAndRunLog) {
  const synth::SynthData d = tiny_dataset(16, 8);
  core::DoppelGangerConfig cfg;
  cfg.attr_hidden = 8;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 8;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 8;
  cfg.head_hidden = 8;
  cfg.sample_len = 4;
  cfg.disc_hidden = 16;
  cfg.disc_layers = 1;
  cfg.batch = 8;
  cfg.iterations = 3;
  cfg.seed = 7;

  const std::string dir = fresh_run_dir("obs_train_run");
  core::DoppelGanger model(d.schema, cfg);
  model.set_run_logger(std::make_shared<RunLogger>(dir));
  const core::TrainStats stats = model.fit(d.data);

  // Every telemetry series has one entry per generator iteration.
  ASSERT_EQ(stats.d_loss.size(), 3u);
  EXPECT_EQ(stats.gp_penalty.size(), 3u);
  EXPECT_EQ(stats.d_grad_norm.size(), 3u);
  EXPECT_EQ(stats.g_grad_norm.size(), 3u);
  EXPECT_EQ(stats.feat_spread.size(), 3u);
  EXPECT_EQ(stats.feat_min.size(), 3u);
  EXPECT_EQ(stats.feat_max.size(), 3u);
  EXPECT_EQ(stats.wall_ms.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(std::isfinite(stats.gp_penalty[i]));
    EXPECT_GE(stats.d_grad_norm[i], 0.0f);
    EXPECT_GT(stats.g_grad_norm[i], 0.0f) << "generator got gradient signal";
    EXPECT_GT(stats.feat_spread[i], 0.0f) << "fresh generator never collapsed";
    EXPECT_LE(stats.feat_min[i], stats.feat_max[i]);
    EXPECT_GT(stats.wall_ms[i], 0.0f);
  }

  // The run dir received one parseable record per iteration, matching the
  // returned TrainStats.
  std::ifstream in(dir + "/metrics.jsonl");
  ASSERT_TRUE(in.good());
  std::string line;
  int iters = 0;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const serve::json::Value v = serve::json::parse(line);
    if (v.find("iter") == nullptr) continue;
    EXPECT_DOUBLE_EQ(v.number_or("iter", -1), iters);
    EXPECT_NEAR(v.number_or("d_loss", 1e9), stats.d_loss[iters], 1e-4);
    EXPECT_NEAR(v.number_or("feat_spread", 1e9), stats.feat_spread[iters],
                1e-4);
    ++iters;
  }
  EXPECT_EQ(iters, 3);

  // The global registry carries the training gauges + iteration counter.
  const RegistrySnapshot snap = Registry::global().snapshot();
  bool saw_iterations = false, saw_hist = false;
  for (const auto& [name, v] : snap.counters) {
    if (name == "train.iterations") {
      saw_iterations = true;
      EXPECT_GE(v, 3u);
    }
  }
  for (const auto& [name, h] : snap.histograms) {
    if (name == "train.iter_ms") {
      saw_hist = true;
      EXPECT_GE(h.count, 3u);
    }
  }
  EXPECT_TRUE(saw_iterations);
  EXPECT_TRUE(saw_hist);
}

}  // namespace
}  // namespace dg::obs
