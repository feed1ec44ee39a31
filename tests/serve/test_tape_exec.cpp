// Tape executor tests: bit-identity against the autograd forward (the
// oracle of the sampler's one engine), static rejection of corrupted tapes,
// and the zero-allocation steady state.
//
// This suite lives in its own test binary because it replaces the global
// operator new/delete pair with counting versions — the proof that the tape
// path's pump is allocation-free is a literal count of heap calls, not an
// argument about the code. Counting is armed only around the measured
// regions, with the kernel pool pinned to one thread (the pool's partition
// submission allocates std::function state by design; the claim under test
// is about the tape executor, not the pool).
//
// Bit-identity battery: the SAME 12 architecture variants the analysis
// differential suite pins (tests/analysis/test_differential.cpp), stepped
// at DG_THREADS ∈ {1, 4, 16}. The executor replicates the autograd
// kernels' partition grains and accumulation orders exactly, so equality
// here is memcmp, not almost-equal.
#include "core/tape_exec.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/planner.h"
#include "analysis/tape.h"
#include "core/doppelganger.h"
#include "core/package.h"
#include "nn/parallel.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "serve/sampler.h"
#include "synth/synth.h"

// ---------------------------------------------------------------------------
// Counting global allocator. Relaxed atomics: the measured regions run with
// the pool pinned to one thread, the counter only needs to be exact there.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_armed{false};
std::atomic<std::uint64_t> g_alloc_calls{0};

void note_alloc() {
  if (g_count_armed.load(std::memory_order_relaxed)) {
    g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  }
}

void* counted_alloc(std::size_t n) {
  note_alloc();
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

void* counted_alloc(std::size_t n, std::size_t align) {
  note_alloc();
  // aligned_alloc requires the size to be a multiple of the alignment.
  const std::size_t rounded = (n + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, rounded ? rounded : align)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dg::serve {
namespace {

using core::TapeExecutor;

/// Arms the counter for the enclosing scope and reports calls seen.
class AllocationWatch {
 public:
  AllocationWatch() {
    g_alloc_calls.store(0, std::memory_order_relaxed);
    g_count_armed.store(true, std::memory_order_relaxed);
  }
  ~AllocationWatch() { g_count_armed.store(false, std::memory_order_relaxed); }
  std::uint64_t calls() const {
    return g_alloc_calls.load(std::memory_order_relaxed);
  }
};

struct Variant {
  const char* dataset;
  core::DoppelGangerConfig cfg;
};

core::DoppelGangerConfig small_cfg(uint64_t seed) {
  core::DoppelGangerConfig cfg;
  cfg.attr_hidden = 8;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 8;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 8;
  cfg.head_hidden = 8;
  cfg.sample_len = 5;
  cfg.disc_hidden = 16;
  cfg.disc_layers = 2;
  cfg.batch = 4;
  cfg.iterations = 1;
  cfg.seed = seed;
  return cfg;
}

std::vector<Variant> variants() {
  std::vector<Variant> out;
  const char* datasets[] = {"gcut", "wwt", "mba"};
  uint64_t seed = 11;
  for (const char* ds : datasets) {
    for (const bool minmax : {true, false}) {
      for (const bool aux : {true, false}) {
        core::DoppelGangerConfig cfg = small_cfg(seed++);
        cfg.use_minmax_generator = minmax;
        cfg.use_aux_discriminator = aux;
        cfg.attr_layers = static_cast<int>(seed % 3);
        cfg.sample_len = (seed % 2) ? 5 : 7;
        out.push_back({ds, cfg});
      }
    }
  }
  return out;
}

data::Schema schema_for(const std::string& dataset) {
  if (dataset == "gcut") {
    return synth::make_gcut({.n = 4, .t_max = 20, .seed = 5}).schema;
  }
  if (dataset == "wwt") {
    return synth::make_wwt({.n = 4, .t = 20, .seed = 5}).schema;
  }
  return synth::make_mba({.n = 4, .t = 20, .seed = 5}).schema;
}

std::string describe(const Variant& v) {
  std::ostringstream os;
  os << v.dataset << " minmax=" << v.cfg.use_minmax_generator
     << " aux=" << v.cfg.use_aux_discriminator
     << " attr_layers=" << v.cfg.attr_layers << " S=" << v.cfg.sample_len;
  return os.str();
}

void expect_bits_equal(const nn::Matrix& a, const nn::Matrix& b,
                       const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(),
                           static_cast<size_t>(a.rows()) *
                               static_cast<size_t>(a.cols()) * sizeof(float)))
      << what << " diverged from the autograd forward";
}

/// Restores the ambient pool size when a test returns.
class ThreadGuard {
 public:
  ThreadGuard() : saved_(nn::num_threads()) {}
  ~ThreadGuard() { nn::set_num_threads(saved_); }

 private:
  int saved_;
};

TEST(TapeExec, BitIdenticalToAutogradAcrossVariantsAndThreads) {
  ThreadGuard guard;
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const core::DoppelGanger model(schema_for(v.dataset), v.cfg);
    const int n = 3;
    auto tape = TapeExecutor::create(model, n);
    ASSERT_NE(tape, nullptr) << "tape did not verify for this variant";

    for (const int threads : {1, 4, 16}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      nn::set_num_threads(threads);

      nn::Rng rng(v.cfg.seed + 17);
      const core::GenContext ctx = model.sample_context(n, rng);
      core::GenState ref_state = model.initial_gen_state(n);
      core::GenState tape_state = model.initial_gen_state(n);
      nn::Matrix tape_records(n, model.sample_len() * model.record_width());

      // Several chained steps: state flows output -> input, so a divergence
      // anywhere compounds and cannot cancel.
      for (int step = 0; step < 3; ++step) {
        SCOPED_TRACE("step=" + std::to_string(step));
        const nn::Matrix noise =
            rng.normal_matrix(n, model.feat_noise_dim());
        const nn::Matrix ref_records =
            model.generation_step(ctx, noise, ref_state);
        tape->step(ctx, noise, tape_state, tape_records);

        expect_bits_equal(ref_records, tape_records, "records");
        expect_bits_equal(ref_state.h, tape_state.h, "state.h");
        expect_bits_equal(ref_state.c, tape_state.c, "state.c");
        expect_bits_equal(ref_state.mask, tape_state.mask, "state.mask");
        ASSERT_EQ(ref_state.step, tape_state.step);
      }
    }
  }
}

/// Biases the head's continue/end flag logits so the end flag never wins
/// and every series runs to its cap. Untrained flag logits end most series
/// within a record or two.
void run_series_to_cap(core::DoppelGanger& model) {
  auto params = model.generator_parameters();
  nn::Matrix& head_bias = params.back().mutable_value();  // head.l1.b
  ASSERT_EQ(head_bias.rows(), 1);
  const int rw = model.record_width();
  ASSERT_EQ(head_bias.cols(), model.sample_len() * rw);
  for (int s = 0; s < model.sample_len(); ++s) {
    head_bias.at(0, s * rw + rw - 2) += 8.0f;  // continue flag logit
    head_bias.at(0, s * rw + rw - 1) -= 8.0f;  // end flag logit
  }
}

/// One series the way SlotSampler must produce it, built on the autograd
/// path from the job alone: its context, one noise row per step drawn from
/// its own stream, generation_step, flag termination, then decode and the
/// cap trim.
data::Object reference_series(const core::DoppelGanger& model, nn::Rng rng,
                              int max_len) {
  const data::GanCodec& codec = model.codec();
  const int cap = max_len > 0 ? max_len : codec.tmax();
  const int rw = model.record_width();
  const core::GenContext ctx = model.sample_context_fixed(1, {}, rng);
  core::GenState state = model.initial_gen_state(1);
  nn::Matrix feats(1, codec.feature_row_dim());
  int emitted = 0;
  bool ended = false;
  while (!ended && emitted < cap) {
    nn::Matrix noise(1, model.feat_noise_dim());
    for (int j = 0; j < noise.cols(); ++j) {
      noise.at(0, j) = static_cast<float>(rng.normal(0.0, 1.0));
    }
    const nn::Matrix records = model.generation_step(ctx, noise, state);
    const int take = std::min(model.sample_len(), cap - emitted);
    for (int s = 0; s < take && !ended; ++s, ++emitted) {
      for (int j = 0; j < rw; ++j) {
        feats.at(0, emitted * rw + j) = records.at(0, s * rw + j);
      }
      ended = records.at(0, s * rw + rw - 1) > records.at(0, s * rw + rw - 2);
    }
  }
  data::Object obj =
      std::move(codec.decode(ctx.attributes, ctx.minmax, feats).front());
  if (obj.length() > cap) obj.features.resize(static_cast<size_t>(cap));
  return obj;
}

// The sampler end to end: its series, replayed on the tape while lanes turn
// over, must be byte-identical to the same jobs run one at a time through
// the autograd forward — ended by their flags (the untrained model) and by
// their caps, including a cap that cuts a step's records short.
TEST(TapeExec, SamplerTapeAndAutogradPathsAgree) {
  const Variant v = variants()[0];
  for (const bool to_cap : {false, true}) {
    SCOPED_TRACE(to_cap ? "series run to their caps" : "flag-ended series");
    auto model =
        std::make_shared<core::DoppelGanger>(schema_for(v.dataset), v.cfg);
    if (to_cap) run_series_to_cap(*model);

    SlotSampler sampler(model, 4);
    std::vector<SeriesJob> jobs;
    for (int i = 0; i < 8; ++i) {
      SeriesJob job;
      job.request_id = 1;
      job.index = i;
      job.rng = nn::Rng(1000 + static_cast<uint64_t>(i));
      job.max_len = i % 3 == 0 ? 7 : 0;
      jobs.push_back(job);
      sampler.submit(job);
    }
    while (!sampler.idle()) sampler.pump();

    const std::vector<SeriesResult> got = sampler.drain();
    ASSERT_EQ(got.size(), jobs.size());
    for (const SeriesResult& r : got) {
      SCOPED_TRACE("series " + std::to_string(r.index));
      const SeriesJob& job = jobs[static_cast<size_t>(r.index)];
      const data::Object want =
          reference_series(*model, job.rng, job.max_len);
      ASSERT_EQ(r.object.attributes, want.attributes);
      ASSERT_EQ(r.object.features.size(), want.features.size());
      for (size_t t = 0; t < want.features.size(); ++t) {
        EXPECT_EQ(r.object.features[t], want.features[t]) << "record " << t;
      }
    }
  }
}

bool has_code(const std::vector<analysis::Diagnostic>& diags,
              const std::string& code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const analysis::Diagnostic& d) {
                       return d.code == code;
                     });
}

// Verified means runnable: over the differential variants, the executor
// accepts exactly the tapes the verifier accepts — each variant's own tape;
// the tape with a unary op swapped for transpose (same arity, but a
// whole-batch op the executor has no kernel for); the tape with an output
// dropped from the step's signature; the tape whose state.h output names
// the LSTM's gate pre-activation, four times state.h's width, which the
// executor would copy into the caller's state.h; and the tape with one
// more instruction, relu of a [1, k] bias, which the executor would run
// over every lane of the bias.
TEST(TapeExec, ExecutorAcceptsExactlyTheVerifiedTapes) {
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const data::Schema schema = schema_for(v.dataset);
    const core::DoppelGanger model(schema, v.cfg);
    const analysis::TapeReport clean =
        analysis::build_generation_tape(schema, v.cfg);
    ASSERT_TRUE(clean.ok());
    analysis::TapeReport swapped = clean;
    const auto relu = std::find_if(
        swapped.tape.instrs.begin(), swapped.tape.instrs.end(),
        [](const analysis::TapeInstr& i) { return i.op == nn::Op::kRelu; });
    ASSERT_NE(relu, swapped.tape.instrs.end());
    relu->op = nn::Op::kTranspose;  // a whole-batch kernel: no tape runs one
    analysis::TapeReport short_signature = clean;
    short_signature.tape.outputs.pop_back();
    analysis::TapeReport wide_state = clean;
    const auto gates = std::find_if(
        wide_state.tape.instrs.begin(), wide_state.tape.instrs.end(),
        [](const analysis::TapeInstr& i) {
          return i.op == nn::Op::kLstmGates;
        });
    ASSERT_NE(gates, wide_state.tape.instrs.end());
    wide_state.tape.outputs[1] = gates->dst;
    wide_state.plan = analysis::plan_arena(wide_state.tape);
    analysis::TapeReport fixed_rows = clean;
    std::vector<analysis::TapeValue>& values = fixed_rows.tape.values;
    const auto bias = std::find_if(
        values.begin(), values.end(), [](const analysis::TapeValue& tv) {
          return tv.kind == analysis::TapeValueKind::kParam &&
                 tv.shape.rows == analysis::Dim::of(1);
        });
    ASSERT_NE(bias, values.end());
    const int bias_id = static_cast<int>(bias - values.begin());
    values.push_back({analysis::TapeValueKind::kLocal, -1, bias->shape});
    fixed_rows.tape.instrs.push_back({nn::Op::kRelu,
                                      static_cast<int>(values.size()) - 1,
                                      {bias_id},
                                      {}});
    fixed_rows.plan = analysis::plan_arena(fixed_rows.tape);
    const struct {
      const char* name;
      const analysis::TapeReport* report;
      const char* refusal;  // the verifier's finding; null if it verifies
    } cases[] = {{"clean", &clean, nullptr},
                 {"swapped", &swapped, "tape-no-kernel"},
                 {"short-signature", &short_signature, "tape-signature"},
                 {"wide-state-output", &wide_state, "tape-signature"},
                 {"fixed-rows-local", &fixed_rows, "tape-not-batch"}};
    for (const auto& c : cases) {
      const std::vector<analysis::Diagnostic> diags =
          analysis::verify_tape(c.report->tape, c.report->plan);
      const bool verified = !analysis::has_errors(diags);
      EXPECT_EQ(verified, c.refusal == nullptr) << c.name;
      if (c.refusal != nullptr) {
        EXPECT_TRUE(has_code(diags, c.refusal)) << c.name;
      }
      analysis::TapeReport forged = *c.report;
      forged.verified = true;  // only the executor's own verdict counts
      const bool runs =
          TapeExecutor::from_report(model, std::move(forged), 4) != nullptr;
      EXPECT_EQ(verified, runs) << c.name << " tape: verified=" << verified;
    }
  }
}

// Acceptance criterion: once warm, replaying the tape touches the heap
// exactly zero times. Thread pool pinned to 1 — parallel_for's inline path
// (range fits one grain or a single-thread pool) performs no allocation, so
// any heap call counted here is the executor's own.
TEST(TapeExec, StepIsAllocationFreeOnceWarm) {
  ThreadGuard guard;
  nn::set_num_threads(1);
  const Variant v = variants()[0];
  const core::DoppelGanger model(schema_for(v.dataset), v.cfg);
  const int n = 8;
  auto tape = TapeExecutor::create(model, n);
  ASSERT_NE(tape, nullptr);

  nn::Rng rng(99);
  const core::GenContext ctx = model.sample_context(n, rng);
  core::GenState state = model.initial_gen_state(n);
  nn::Matrix records(n, model.sample_len() * model.record_width());
  const nn::Matrix noise = rng.normal_matrix(n, model.feat_noise_dim());

  tape->step(ctx, noise, state, records);  // warm-up

  AllocationWatch watch;
  for (int i = 0; i < 16; ++i) {
    tape->step(ctx, noise, state, records);
  }
  EXPECT_EQ(watch.calls(), 0u)
      << "tape replay allocated on the steady-state path";
}

// A traced run pays for timing, not for bookkeeping: with the profiler on,
// a warm tape step allocates nothing, and an op outside the tape (the
// autograd forward's own kernels) allocates only its result. The reductions
// run on shapes of three fixed chunks each, and keep no per-chunk partials.
TEST(TapeExec, TracedStepsAndOpsAllocateOnlyTheirResults) {
  ThreadGuard guard;
  nn::set_num_threads(1);
  const Variant v = variants()[0];
  const core::DoppelGanger model(schema_for(v.dataset), v.cfg);
  const int n = 8;
  auto tape = TapeExecutor::create(model, n);
  ASSERT_NE(tape, nullptr);

  nn::Rng rng(99);
  const core::GenContext ctx = model.sample_context(n, rng);
  core::GenState state = model.initial_gen_state(n);
  nn::Matrix records(n, model.sample_len() * model.record_width());
  const nn::Matrix noise = rng.normal_matrix(n, model.feat_noise_dim());
  const nn::Matrix x = rng.normal_matrix(n, 24);
  const nn::Matrix bias = rng.normal_matrix(1, 24);
  const nn::Matrix tall = rng.normal_matrix(5000, 8);  // 2048-row chunks
  const nn::Matrix wide = rng.normal_matrix(9, 5000);  // 16 Ki-float chunks

  obs::Profiler::start();
  tape->step(ctx, noise, state, records);  // warm-up: creates the rows
  (void)nn::add_rowvec(x, bias);
  (void)nn::col_sum(tall);
  (void)nn::sum(wide);
  std::uint64_t step_calls = 0;
  std::uint64_t op_calls = 0;
  std::uint64_t col_sum_calls = 0;
  std::uint64_t sum_calls = 0;
  {
    AllocationWatch watch;
    for (int i = 0; i < 16; ++i) tape->step(ctx, noise, state, records);
    step_calls = watch.calls();
  }
  {
    AllocationWatch watch;
    const nn::Matrix y = nn::add_rowvec(x, bias);
    op_calls = watch.calls();
  }
  {
    AllocationWatch watch;
    const nn::Matrix y = nn::col_sum(tall);
    col_sum_calls = watch.calls();
  }
  {
    AllocationWatch watch;
    (void)nn::sum(wide);
    sum_calls = watch.calls();
  }
  const auto rows = obs::Profiler::snapshot();
  obs::Profiler::stop();
  obs::Profiler::clear();

  EXPECT_EQ(step_calls, 0u) << "a traced tape step hit the heap";
  EXPECT_EQ(op_calls, 1u) << "a traced add_rowvec allocated beyond its result";
  EXPECT_EQ(col_sum_calls, 1u) << "a traced col_sum allocated beyond its result";
  EXPECT_EQ(sum_calls, 1u) << "a traced sum allocated beyond its result";
  const auto calls = [&](const std::string& name) -> std::uint64_t {
    for (const auto& [row, stats] : rows) {
      if (row == name) return stats.calls;
    }
    return 0;
  };
  EXPECT_EQ(calls("kernel.tape_step"), 17u);
  EXPECT_EQ(calls("kernel.add_rowvec"), 2u);
  EXPECT_EQ(calls("kernel.col_sum"), 2u);
  EXPECT_EQ(calls("kernel.sum"), 2u);
}

// step() binds only buffers of the verified widths: an operand one column
// narrower or wider than the tape's, like generation_step's noise check,
// throws before any kernel reads or writes it.
TEST(TapeExec, StepRefusesOperandsOfTheWrongWidth) {
  const Variant v = variants()[0];
  const core::DoppelGanger model(schema_for(v.dataset), v.cfg);
  const int n = 4;
  auto tape = TapeExecutor::create(model, n);
  ASSERT_NE(tape, nullptr);

  nn::Rng rng(7);
  const core::GenContext ctx = model.sample_context(n, rng);
  const nn::Matrix noise = rng.normal_matrix(n, model.feat_noise_dim());
  const core::GenState state = model.initial_gen_state(n);
  const nn::Matrix records(n, model.sample_len() * model.record_width());
  {
    core::GenState s = state;
    nn::Matrix r = records;
    tape->step(ctx, noise, s, r);  // the right widths step
  }
  for (const int delta : {-1, 1}) {
    const auto resized = [&](const nn::Matrix& m) {
      return nn::Matrix(m.rows(), m.cols() + delta);
    };
    for (int operand = 0; operand < 6; ++operand) {
      SCOPED_TRACE("operand " + std::to_string(operand) + " width " +
                   (delta < 0 ? "-1" : "+1"));
      core::GenContext c = ctx;
      nn::Matrix z = noise;
      core::GenState s = state;
      nn::Matrix r = records;
      nn::Matrix* const target[] = {&c.cond, &z, &s.h, &s.c, &s.mask, &r};
      *target[operand] = resized(*target[operand]);
      EXPECT_THROW(tape->step(c, z, s, r), std::invalid_argument);
      EXPECT_EQ(s.step, state.step) << "a refused step advanced the state";
    }
  }
}

// The same property at the sampler level: a pump in which no lane is
// admitted or retired (pure mid-series advance) must not allocate. Lane
// turnover pumps legitimately allocate (context sampling, decode) — the
// watch is armed per pump and only quiescent pumps are asserted on.
TEST(TapeExec, SamplerSteadyStatePumpIsAllocationFree) {
  ThreadGuard guard;
  nn::set_num_threads(1);
  auto model = std::make_shared<core::DoppelGanger>(schema_for("gcut"),
                                                    small_cfg(11));

  // Every pump that retires and admits lanes legitimately allocates: run
  // every series to its cap, guaranteeing mid-series pumps to measure.
  run_series_to_cap(*model);

  SlotSampler sampler(model, 4);
  for (int i = 0; i < 4; ++i) {
    SeriesJob job;
    job.request_id = 7;
    job.index = i;
    job.rng = nn::Rng(500 + static_cast<uint64_t>(i));
    sampler.submit(job);
  }

  int quiescent_pumps = 0;
  while (!sampler.idle()) {
    const auto before = sampler.stats();
    const int occupied_before = sampler.occupied();
    const std::size_t pending_before = sampler.pending();

    AllocationWatch watch;
    sampler.pump();
    const std::uint64_t calls = watch.calls();

    const auto after = sampler.stats();
    const bool turnover =
        pending_before != sampler.pending() ||
        occupied_before != sampler.occupied() ||
        before.series_completed != after.series_completed ||
        before.series_rejected != after.series_rejected;
    if (!turnover) {
      ++quiescent_pumps;
      EXPECT_EQ(calls, 0u) << "steady-state pump " << quiescent_pumps
                           << " hit the heap";
    }
  }
  sampler.drain();
  EXPECT_GT(quiescent_pumps, 0)
      << "no quiescent pump observed — lengthen the series";
}

// The context forward is row-local: a batch of rows, each with its own
// noise and clamps, gives every row the bytes it gets alone. The sampler's
// batched admission rests on this, at every variant and thread count.
TEST(ContextForward, BatchedRowsEqualSoloRows) {
  ThreadGuard guard;
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const core::DoppelGanger model(schema_for(v.dataset), v.cfg);
    const data::Schema& schema = model.schema();
    // Row 1 clamps the first attribute, row 3 the last one as well.
    const int last = schema.num_attributes() - 1;
    const float last_raw =
        schema.attributes[static_cast<size_t>(last)].type ==
                data::FieldType::Categorical
            ? 1.0f
            : schema.attributes[static_cast<size_t>(last)].lo;
    const std::vector<std::pair<int, float>> first{{0, 0.0f}};
    const std::vector<std::pair<int, float>> both{{0, 1.0f}, {last, last_raw}};
    const std::vector<const std::vector<std::pair<int, float>>*> fixed{
        nullptr, &first, nullptr, &both, &first};
    const int n = static_cast<int>(fixed.size());
    nn::Rng rng(v.cfg.seed + 5);
    const nn::Matrix attr_noise = rng.normal_matrix(n, model.attr_noise_dim());
    const nn::Matrix minmax_noise =
        rng.normal_matrix(n, model.minmax_noise_dim());

    for (const int threads : {1, 4}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      nn::set_num_threads(threads);
      const core::GenContext batch =
          model.context_forward(attr_noise, minmax_noise, fixed);
      for (int i = 0; i < n; ++i) {
        nn::Matrix a(1, attr_noise.cols());
        nn::Matrix m(1, minmax_noise.cols());
        for (int j = 0; j < a.cols(); ++j) a.at(0, j) = attr_noise.at(i, j);
        for (int j = 0; j < m.cols(); ++j) m.at(0, j) = minmax_noise.at(i, j);
        const core::GenContext solo = model.context_forward(
            std::move(a), std::move(m), {&fixed[static_cast<size_t>(i)], 1});
        ASSERT_EQ(solo.cond.cols(), batch.cond.cols());
        EXPECT_EQ(0, std::memcmp(solo.cond.data(),
                                 batch.cond.data() + i * batch.cond.cols(),
                                 sizeof(float) * static_cast<size_t>(
                                                     solo.cond.cols())))
            << "row " << i << " of the batch differs from its solo forward";
      }
    }
  }
}

// A loaded package's tape is lowered once, by the preflight inside
// load_package: generate() and every sampler build their executors from
// that verified report. A model built in-process lowers on first use.
TEST(TapeExec, LoadedPackageLowersItsTapeOnce) {
  const core::DoppelGanger built(schema_for("gcut"), small_cfg(11));
  std::stringstream pkg;
  core::save_package(pkg, built);
  const obs::Counter& builds =
      obs::Registry::global().counter("analysis.tape_builds");

  const std::uint64_t before_load = builds.get();
  std::shared_ptr<core::DoppelGanger> loaded = core::load_package(pkg);
  ASSERT_NE(loaded->generation_tape(), nullptr);
  EXPECT_EQ(builds.get(), before_load + 1) << "the preflight lowers it";

  const std::uint64_t loaded_builds = builds.get();
  EXPECT_EQ(loaded->generate(3).size(), 3u);
  SlotSampler a(loaded, 4);
  SlotSampler b(loaded, 8);
  EXPECT_EQ(builds.get(), loaded_builds)
      << "generate() or a sampler lowered the tape of a loaded package again";

  core::DoppelGanger fresh(schema_for("gcut"), small_cfg(11));
  EXPECT_EQ(fresh.generation_tape(), nullptr);
  EXPECT_EQ(fresh.generate(1).size(), 1u);
  EXPECT_EQ(builds.get(), loaded_builds + 1);
}

// Corrupted tapes never reach the executor: from_report() re-verifies and
// refuses every seeded defect class.
TEST(TapeExec, RefusesEveryMutatedReport) {
  const Variant v = variants()[0];
  const data::Schema schema = schema_for(v.dataset);
  const core::DoppelGanger model(schema, v.cfg);

  analysis::TapeReport clean = analysis::build_generation_tape(schema, v.cfg);
  ASSERT_TRUE(clean.ok());
  EXPECT_NE(TapeExecutor::from_report(model, clean, 4), nullptr);

  for (const char* defect :
       {"use-before-def", "arena-overlap", "double-def", "unknown-op",
        "stale-shape"}) {
    SCOPED_TRACE(defect);
    analysis::TapeReport r = analysis::build_generation_tape(schema, v.cfg);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(analysis::seed_tape_defect(r, defect));
    EXPECT_EQ(TapeExecutor::from_report(model, r, 4), nullptr)
        << "executor accepted a " << defect << " tape";
    // Even lying about the verdict must not help: from_report re-verifies.
    r.verified = true;
    EXPECT_EQ(TapeExecutor::from_report(model, r, 4), nullptr)
        << "executor trusted a forged verified flag for " << defect;
  }
}

}  // namespace
}  // namespace dg::serve
