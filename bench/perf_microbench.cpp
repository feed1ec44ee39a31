// Throughput microbenchmarks (google-benchmark): the primitive costs behind
// every experiment — matmul, LSTM step, critic forward/backward with
// gradient penalty, one full DoppelGANger training iteration, and synthetic
// sample generation.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/doppelganger.h"
#include "core/package.h"
#include "core/tape_exec.h"
#include "core/wgan.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/parallel.h"
#include "nn/rng.h"
#include "nn/simd/vec.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/protocol.h"
#include "serve/sampler.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/shard/router.h"
#include "synth/synth.h"

namespace {

using namespace dg;
using nn::Matrix;
using nn::Var;

// Kernel benchmarks take the intra-op thread count as their last argument
// (overriding DG_THREADS), so one run sweeps the scaling curve:
//   BM_Matmul/1024/8 = 1024x1024 matmul on an 8-thread pool.
// Only the product kernels fork (nn/ops.cpp); every other kernel runs on the
// calling thread at any count, so BM_Transpose/*/4 now times a transpose on
// the calling thread, the same work as BM_Transpose/*/1.

void BM_Matmul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  nn::set_num_threads(static_cast<int>(state.range(1)));
  nn::Rng rng(1);
  const Matrix a = rng.normal_matrix(n, n);
  const Matrix b = rng.normal_matrix(n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * n * n);
}
BENCHMARK(BM_Matmul)->ArgsProduct({{64, 128, 256, 512, 1024}, {1, 2, 4, 8}});

/// One parallel_for region over four 16 Ki-float grains on a
/// `threads`-wide pool (args: body, threads): the fork-join alone with an
/// empty body (0), or with each grain's floats incremented through the
/// SIMD tier (1). Wall time, since the partitions run on pool threads. It
/// measures what a grain must amortize (nn/parallel.h).
void BM_ForkJoin(benchmark::State& state) {
  const bool work = state.range(0) != 0;
  nn::set_num_threads(static_cast<int>(state.range(1)));
  constexpr std::int64_t kGrain = 1 << 14;
  std::vector<float> buf(4 * kGrain, 1.0f);
  float* const p = buf.data();
  const auto add_scalar = nn::simd::kernels().add_scalar;
  for (auto _ : state) {
    nn::parallel_for(0, 4 * kGrain, kGrain,
                     [&](std::int64_t i0, std::int64_t i1) {
                       if (work) add_scalar(p + i0, 1.0f, p + i0, i1 - i0);
                     });
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForkJoin)->ArgsProduct({{0, 1}, {1, 2, 4}})->UseRealTime();

/// nn::transpose of a normal [rows, cols] matrix on a `threads`-wide pool.
/// Items are floats moved; the output's allocation is timed too, as every
/// nn::transpose pays it.
void run_transpose(benchmark::State& state, int rows, int cols, int threads) {
  nn::set_num_threads(threads);
  nn::Rng rng(4);
  const Matrix a = rng.normal_matrix(rows, cols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::transpose(a));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(rows) * cols);
}

void BM_Transpose(benchmark::State& state) {
  // rows >> cols — the LSTM gate-slice shape whose column-strided writes the
  // blocked kernel exists for — plus its transpose-square counterpart.
  run_transpose(state, static_cast<int>(state.range(0)),
                static_cast<int>(state.range(1)),
                static_cast<int>(state.range(2)));
}
BENCHMARK(BM_Transpose)
    ->Args({4096, 64, 1})
    ->Args({4096, 64, 4})
    ->Args({1024, 1024, 1})
    ->Args({1024, 1024, 4});

void BM_LstmStep(benchmark::State& state) {
  const int batch = static_cast<int>(state.range(0));
  nn::set_num_threads(static_cast<int>(state.range(1)));
  nn::Rng rng(2);
  nn::LstmCell cell(32, 64, rng);
  const Var x(rng.normal_matrix(batch, 32), false);
  auto s = cell.initial_state(batch);
  for (auto _ : state) {
    nn::NoGradGuard guard;
    benchmark::DoNotOptimize(cell.step(x, s).h.value().data());
  }
}
BENCHMARK(BM_LstmStep)->ArgsProduct({{1, 32, 256}, {1, 4}});

// ---- SIMD microkernel gates (nn/simd/vec.h). Single-threaded, shapes sized
// to the L2-resident regime the register-tiled micro-kernel targets, so the
// scalar->avx2 ratio measures the vector tier rather than memory bandwidth.
// BM_MatmulMicro and BM_LstmGatesMicro have widths that are multiples of 32;
// BM_MatmulMicroTail has the model's own widths, which are not multiples of
// 8, so the gate also covers the tile's masked last vector. BM_TransposeMicro
// times the transpose kernel's 8x8 blocks and scalar edges.
// CI's bench-smoke job runs these twice on one DG_NATIVE_ARCH=OFF binary
// (DG_SIMD=scalar, then DG_SIMD=avx2) and gates the vectorized tier at
// >= 2x scalar cpu_time via tools/bench_compare.py --best; the transpose,
// which only moves floats, at >= 1.25x. BM_GaussianFill and BM_AdamStep
// (below) are gated the same way.

#ifdef DG_OBS_ENABLED
/// Attaches the obs profiler's exact FLOP attribution for one call of `fn`
/// as the "flops" counter, which tools/bench_compare.py --flops joins with
/// cpu_time to report GFLOP/s per kernel in the CI job summary.
template <typename Fn>
void attach_kernel_flops(benchmark::State& state, const char* row, Fn&& fn) {
  obs::Profiler::start();
  fn();
  obs::Profiler::stop();
  for (const auto& [name, stats] : obs::Profiler::snapshot()) {
    if (name == row) {
      state.counters["flops"] = static_cast<double>(stats.flops);
    }
  }
  obs::Profiler::clear();
}
#endif

/// One-threaded [n,k] x [k,m] matmul on normal operands drawn from `seed`.
void run_matmul_micro(benchmark::State& state, int n, int k, int m,
                      std::uint64_t seed) {
  nn::set_num_threads(1);
  nn::Rng rng(seed);
  const Matrix a = rng.normal_matrix(n, k);
  const Matrix b = rng.normal_matrix(k, m);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * k * m);
#ifdef DG_OBS_ENABLED
  attach_kernel_flops(state, "kernel.matmul",
                      [&] { benchmark::DoNotOptimize(nn::matmul(a, b)); });
#endif
}

void BM_MatmulMicro(benchmark::State& state) {
  run_matmul_micro(state, 64, 256, 256, 7);
}
BENCHMARK(BM_MatmulMicro);

void BM_MatmulMicroTail(benchmark::State& state) {
  // DoppelGANger's own widths, none a multiple of 8: the LSTM input and
  // state gradients (k = 4 x 100 gate columns, m = 21 wwt input columns or
  // 100 state units) and the batched head output (100 units -> S x record
  // width = 30). Each row ends in a masked vector of the avx2 tile.
  run_matmul_micro(state, static_cast<int>(state.range(0)),
                   static_cast<int>(state.range(1)),
                   static_cast<int>(state.range(2)), 9);
}
BENCHMARK(BM_MatmulMicroTail)
    ->Args({50, 400, 21})
    ->Args({50, 100, 30})
    ->Args({50, 400, 100});

void BM_MatmulOuterProduct(benchmark::State& state) {
  // A [64,1]x[1,48] outer product, the shape of a per-example weight
  // gradient: k = 1, so zeroing the output costs about as much as the
  // product.
  run_matmul_micro(state, 64, 1, 48, 10);
}
BENCHMARK(BM_MatmulOuterProduct);

void BM_LstmGatesMicro(benchmark::State& state) {
  // The fused gate pre-activation at the training shape: x*wx + h*wh + b.
  const int batch = 64, xc = 48, hc = 64;
  nn::set_num_threads(1);
  nn::Rng rng(8);
  const Matrix x = rng.normal_matrix(batch, xc);
  const Matrix wx = rng.normal_matrix(xc, 4 * hc);
  const Matrix h = rng.normal_matrix(batch, hc);
  const Matrix wh = rng.normal_matrix(hc, 4 * hc);
  const Matrix b = rng.normal_matrix(1, 4 * hc);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::lstm_gates(x, wx, h, wh, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * batch * (xc + hc) * 4 *
                          hc);
#ifdef DG_OBS_ENABLED
  attach_kernel_flops(state, "kernel.lstm_gates", [&] {
    benchmark::DoNotOptimize(nn::lstm_gates(x, wx, h, wh, b));
  });
#endif
}
BENCHMARK(BM_LstmGatesMicro);

void BM_TransposeMicro(benchmark::State& state) {
  // The transposes the backward rules build at DoppelGANger's training
  // shapes: a critic's [200,200] hidden weight, the wwt critic's [856,200]
  // input layer and the LSTM's [100,400] recurrent weight.
  run_transpose(state, static_cast<int>(state.range(0)),
                static_cast<int>(state.range(1)), 1);
}
BENCHMARK(BM_TransposeMicro)
    ->Args({200, 200})
    ->Args({856, 200})
    ->Args({100, 400});

// The backward rules' products with a transposed operand, each beside the
// transpose + matmul it replaced, on the same operands (args n, k, m):
//   BM_MatmulNTMicro        matmul_nt(g, w) for g [n,k], w [m,k]
//   BM_MatmulNTByTranspose  matmul(g, transpose(w))
//   BM_MatmulTNMicro        matmul_tn(x, g) for x [n,k], g [n,m]
//   BM_MatmulTNByTranspose  matmul(transpose(x), g)
// At the rules' own shapes: a critic's [200,200] hidden weight under a
// 7-row DP microbatch, wwt's LSTM recurrent and input weights ([100,400],
// [21,400]) and its critic's [856,200] input layer at batch 50. CI gates
// the two *Micro rows at 2x scalar like BM_MatmulMicro; the *ByTranspose
// rows are the comparison, timed in the same runs.

/// One thread, normal operands a [n, k] and b [b_rows, b_cols], `product`
/// timed; the first call's FLOPs from the profiler row `kernel_row`.
template <typename Product>
void run_product_micro(benchmark::State& state, int b_rows, int b_cols,
                       const char* kernel_row, const Product& product) {
  const int n = static_cast<int>(state.range(0));
  const int k = static_cast<int>(state.range(1));
  const int m = static_cast<int>(state.range(2));
  nn::set_num_threads(1);
  nn::Rng rng(11);
  const Matrix a = rng.normal_matrix(n, k);
  const Matrix b = rng.normal_matrix(b_rows, b_cols);
  for (auto _ : state) {
    benchmark::DoNotOptimize(product(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * k * m);
#ifdef DG_OBS_ENABLED
  attach_kernel_flops(state, kernel_row,
                      [&] { benchmark::DoNotOptimize(product(a, b)); });
#else
  (void)kernel_row;
#endif
}

/// g [n, k] times the transpose of w [m, k].
template <typename Product>
void run_nt(benchmark::State& state, const Product& product) {
  run_product_micro(state, static_cast<int>(state.range(2)),
                    static_cast<int>(state.range(1)), "kernel.matmul_nt",
                    product);
}

/// The transpose of x [n, k] times g [n, m].
template <typename Product>
void run_tn(benchmark::State& state, const Product& product) {
  run_product_micro(state, static_cast<int>(state.range(0)),
                    static_cast<int>(state.range(2)), "kernel.matmul_tn",
                    product);
}

void BM_MatmulNTMicro(benchmark::State& state) {
  run_nt(state, [](const Matrix& g, const Matrix& w) {
    return nn::matmul_nt(g, w);
  });
}

void BM_MatmulNTByTranspose(benchmark::State& state) {
  run_nt(state, [](const Matrix& g, const Matrix& w) {
    return nn::matmul(g, nn::transpose(w));
  });
}

void BM_MatmulTNMicro(benchmark::State& state) {
  run_tn(state, [](const Matrix& x, const Matrix& g) {
    return nn::matmul_tn(x, g);
  });
}

void BM_MatmulTNByTranspose(benchmark::State& state) {
  run_tn(state, [](const Matrix& x, const Matrix& g) {
    return nn::matmul(nn::transpose(x), g);
  });
}

void nt_shapes(benchmark::internal::Benchmark* b) {
  b->Args({7, 200, 200})
      ->Args({50, 400, 100})
      ->Args({50, 400, 21})
      ->Args({50, 200, 856});
}

void tn_shapes(benchmark::internal::Benchmark* b) {
  b->Args({7, 200, 200})->Args({50, 100, 400});
}

BENCHMARK(BM_MatmulNTMicro)->Apply(nt_shapes);
BENCHMARK(BM_MatmulNTByTranspose)->Apply(nt_shapes);
BENCHMARK(BM_MatmulTNMicro)->Apply(tn_shapes);
BENCHMARK(BM_MatmulTNByTranspose)->Apply(tn_shapes);

/// The forward kernel's zero-skip (`if (av == 0) continue` per element of a)
/// on a [50,200] · b [200,200], one thread: no zero in a (arg 0), the first
/// half of each row of a zero (1), or each element of a zero with
/// probability 1/2 (2). Each iteration takes the next of 16 a matrices, so
/// the random pattern is fresh and no branch history can learn it.
void BM_MatmulZeroSkip(benchmark::State& state) {
  constexpr int n = 50, k = 200, m = 200;
  const auto mode = state.range(0);
  nn::set_num_threads(1);
  nn::Rng rng(12);
  std::vector<Matrix> as;
  for (int p = 0; p < 16; ++p) {
    Matrix a = rng.normal_matrix(n, k);
    for (int i = 0; i < n; ++i) {
      for (int c = 0; c < k; ++c) {
        if (mode == 1 ? c < k / 2 : mode == 2 && rng.bernoulli(0.5)) {
          a.at(i, c) = 0.0f;
        }
      }
    }
    as.push_back(std::move(a));
  }
  const Matrix b = rng.normal_matrix(k, m);
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn::matmul(as[next], b));
    next = (next + 1) % as.size();
  }
  state.SetItemsProcessed(state.iterations() * 2LL * n * k * m);
}
BENCHMARK(BM_MatmulZeroSkip)->Arg(0)->Arg(1)->Arg(2);

// DP-SGD's per-parameter work at train-gcut-dp's size: each critic step
// draws one Gaussian per critic parameter and takes one Adam update of it,
// 296,002 parameters per iteration (173,001 in the full critic, 123,001 in
// the auxiliary one). One thread; items are elements. CI's bench-smoke job
// times both under DG_SIMD=scalar and DG_SIMD=avx2 and gates the ratio.
constexpr int kDpCriticParams = 296002;

void BM_GaussianFill(benchmark::State& state) {
  nn::set_num_threads(1);
  nn::Rng rng(5);
  std::vector<float> noise(kDpCriticParams);
  for (auto _ : state) {
    rng.fill_normal(noise, 0.0, 1.0);
    benchmark::DoNotOptimize(noise.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kDpCriticParams);
}
BENCHMARK(BM_GaussianFill);

void BM_AdamStep(benchmark::State& state) {
  nn::set_num_threads(1);
  nn::Rng rng(6);
  Var p(rng.normal_matrix(1, kDpCriticParams), /*requires_grad=*/true);
  p.set_grad(rng.normal_matrix(1, kDpCriticParams));
  nn::Adam opt({p});
  for (auto _ : state) {
    opt.step();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * kDpCriticParams);
}
BENCHMARK(BM_AdamStep);

// One full WGAN-GP critic step (forward, second-order gradient-penalty
// backward, Adam update) — the training hot loop. Shared by the critic
// benchmark proper and the BM_ObsOverhead* benches below, which must time
// the *identical* workload across telemetry configurations.
struct CriticStepWorkload {
  nn::Rng rng{3};
  nn::Mlp critic{512, 1, 128, 3, rng};
  nn::Adam opt{critic.parameters()};
  Matrix real = rng.uniform_matrix(32, 512);
  Matrix fake = rng.uniform_matrix(32, 512);

  void step() {
    const core::CriticFn fn = [this](const Var& x) {
      return critic.forward(x);
    };
    Var loss = core::critic_loss(fn, real, fake, 10.0f, rng);
    opt.zero_grad();
    loss.backward();
    opt.step();
  }
};

void BM_CriticStepWithGradientPenalty(benchmark::State& state) {
  nn::set_num_threads(static_cast<int>(state.range(0)));
  CriticStepWorkload w;
  for (auto _ : state) {
    w.step();
  }
}
BENCHMARK(BM_CriticStepWithGradientPenalty)->Arg(1)->Arg(4);

// ---- telemetry overhead gate. Three single-threaded views of the same
// critic-step workload:
//   BM_ObsOverheadOff     hooks not compiled (only exists when -DDG_OBS=OFF)
//   BM_ObsOverheadIdleOn  hooks compiled, profiler/trace disabled (the
//                         production default: one relaxed load per op)
//   BM_ObsOverheadActive  profiler attributing every op (diagnosis mode)
// CI builds both configurations and gates IdleOn within 2% of Off via
// tools/bench_compare.py --rename BM_ObsOverheadOff=BM_ObsOverheadIdleOn.

#ifndef DG_OBS_ENABLED
void BM_ObsOverheadOff(benchmark::State& state) {
  nn::set_num_threads(1);
  CriticStepWorkload w;
  for (auto _ : state) {
    w.step();
  }
}
BENCHMARK(BM_ObsOverheadOff)->Unit(benchmark::kMillisecond);
#else
void BM_ObsOverheadIdleOn(benchmark::State& state) {
  nn::set_num_threads(1);
  obs::Profiler::stop();
  obs::Trace::stop();
  CriticStepWorkload w;
  for (auto _ : state) {
    w.step();
  }
}
BENCHMARK(BM_ObsOverheadIdleOn)->Unit(benchmark::kMillisecond);

void BM_ObsOverheadActive(benchmark::State& state) {
  nn::set_num_threads(1);
  CriticStepWorkload w;
  obs::Profiler::start();
  for (auto _ : state) {
    w.step();
  }
  obs::Profiler::stop();
  obs::Profiler::clear();
}
BENCHMARK(BM_ObsOverheadActive)->Unit(benchmark::kMillisecond);
#endif  // DG_OBS_ENABLED

void BM_DoppelGangerTrainIteration(benchmark::State& state) {
  nn::set_num_threads(static_cast<int>(state.range(0)));
  auto d = synth::make_gcut({.n = 128, .t_max = 50});
  core::DoppelGangerConfig cfg;
  cfg.lstm_units = 64;
  cfg.head_hidden = 64;
  cfg.disc_hidden = 128;
  cfg.disc_layers = 3;
  cfg.sample_len = 5;
  cfg.batch = 32;
  cfg.iterations = 1;
  core::DoppelGanger model(d.schema, cfg);
  for (auto _ : state) {
    model.fit_more(d.data, 1);
  }
}
BENCHMARK(BM_DoppelGangerTrainIteration)
    ->Arg(1)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_DoppelGangerGenerate(benchmark::State& state) {
  nn::set_num_threads(1);
  auto d = synth::make_gcut({.n = 64, .t_max = 50});
  core::DoppelGangerConfig cfg;
  cfg.lstm_units = 64;
  cfg.sample_len = 5;
  cfg.batch = 32;
  cfg.iterations = 2;
  core::DoppelGanger model(d.schema, cfg);
  model.fit(d.data);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.generate(32));
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(BM_DoppelGangerGenerate)->Unit(benchmark::kMillisecond);

// ---- serving throughput: sequential per-request generate() vs the slot-
// recycling sampler on a mixed-length workload (half the series are capped
// well below max_len/2, the shape continuous batching exists for). The
// sampler's items/sec over the sequential baseline's is the serving PR's
// headline number; CI gates both via bench/baseline_ci.json.

std::shared_ptr<core::DoppelGanger> serve_bench_model() {
  auto d = synth::make_gcut({.n = 16, .t_max = 50});
  for (auto& o : d.data) {
    if (o.length() > 50) o.features.resize(50);
  }
  d.schema.max_timesteps = 50;
  core::DoppelGangerConfig cfg;
  cfg.lstm_units = 64;
  cfg.head_hidden = 64;
  cfg.sample_len = 5;
  cfg.batch = 16;
  cfg.iterations = 1;
  cfg.seed = 11;
  auto model = std::make_shared<core::DoppelGanger>(d.schema, cfg);
  // Untrained flag logits end most series after a record or two, which
  // would make these benchmarks measure admission + decode instead of the
  // LSTM unroll. Bias the head's continue/end logits so series run to their
  // caps — the long-unroll shape trained models actually serve (and the
  // regime the variable-length flag scheme exists for).
  auto params = model->generator_parameters();
  nn::Matrix& head_bias = params.back().mutable_value();  // head.l1.b
  const int rw = model->record_width();
  for (int s = 0; s < cfg.sample_len; ++s) {
    head_bias.at(0, s * rw + rw - 2) += 8.0f;  // continue flag logit
    head_bias.at(0, s * rw + rw - 1) -= 8.0f;  // end flag logit
  }
  return model;
}

constexpr int kServeRequests = 32;

/// Per-request series cap for the mixed workload: half end after one LSTM
/// step (5 of 50 records), a quarter at mid-series, a quarter run full.
int serve_bench_cap(int i) {
  if (i % 2 == 0) return 5;
  if (i % 4 == 1) return 25;
  return 0;
}

void BM_ServeSequentialPerRequest(benchmark::State& state) {
  nn::set_num_threads(1);
  auto model = serve_bench_model();
  for (auto _ : state) {
    // The pre-serving baseline: each request unrolls its own full-horizon
    // generate(1) regardless of where its series actually ends.
    for (int i = 0; i < kServeRequests; ++i) {
      benchmark::DoNotOptimize(model->generate(1));
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeRequests);
}
BENCHMARK(BM_ServeSequentialPerRequest)->Unit(benchmark::kMillisecond);

/// The serving sampler: one service-shaped SlotSampler replaying the
/// verified tape (core/tape_exec.h) over the mixed workload.
void BM_ServeSlotSamplerTape(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  // One thread, like the sequential baseline above: google-benchmark
  // divides by the calling thread's CPU time, which leaves out any pool
  // worker's, so only a one-thread pair compares like with like.
  nn::set_num_threads(1);
  auto model = serve_bench_model();
  // One sampler for the whole run, like a service: the tape is lowered and
  // verified once at load, not per request batch.
  serve::SlotSampler sampler(model, width);
  for (auto _ : state) {
    for (int i = 0; i < kServeRequests; ++i) {
      nn::Rng root(static_cast<uint64_t>(i) + 1);
      serve::SeriesJob job;
      job.request_id = static_cast<uint64_t>(i);
      job.rng = root.fork();
      job.max_len = serve_bench_cap(i);
      sampler.submit(std::move(job));
    }
    while (!sampler.idle()) {
      sampler.pump();
      benchmark::DoNotOptimize(sampler.drain());
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeRequests);
}
BENCHMARK(BM_ServeSlotSamplerTape)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMillisecond);

// ---- one series' generation steps, autograd vs tape: the pair CI gates the
// tape at >= 2x on. Both chain steps_per_series() steps over the same fixed
// context and noise under the same 4-thread pool, so the engine is the only
// difference: generation_step builds an autograd graph and pays a pool
// round-trip per product op, while the tape replays the verified instruction
// list in one fork-join. The gate sits here, not on the sampler, because a sampler
// also draws each series' context and decodes it: work both engines would
// pay, and close to half of BM_ServeSlotSamplerTape's time.

struct StepBench {
  std::shared_ptr<core::DoppelGanger> model = serve_bench_model();
  nn::Rng rng{7};
  int width;
  core::GenContext ctx;
  nn::Matrix noise;

  explicit StepBench(int w)
      : width(w),
        ctx(model->sample_context(w, rng)),
        noise(rng.normal_matrix(w, model->feat_noise_dim())) {
    nn::set_num_threads(4);
  }
};

void BM_GenerationStep(benchmark::State& state) {
  StepBench b(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::GenState st = b.model->initial_gen_state(b.width);
    for (int s = 0; s < b.model->steps_per_series(); ++s) {
      benchmark::DoNotOptimize(b.model->generation_step(b.ctx, b.noise, st));
    }
  }
  state.SetItemsProcessed(state.iterations() * b.width);
}
BENCHMARK(BM_GenerationStep)->Arg(8)->Arg(32)->Unit(benchmark::kMicrosecond);

void BM_GenerationStepTape(benchmark::State& state) {
  StepBench b(static_cast<int>(state.range(0)));
  auto tape = core::TapeExecutor::create_or_throw(*b.model, b.width);
  nn::Matrix records(b.width, b.model->sample_len() * b.model->record_width());
  for (auto _ : state) {
    core::GenState st = b.model->initial_gen_state(b.width);
    for (int s = 0; s < b.model->steps_per_series(); ++s) {
      tape->step(b.ctx, b.noise, st, records);
      benchmark::DoNotOptimize(records.data());
      benchmark::ClobberMemory();
    }
  }
  state.SetItemsProcessed(state.iterations() * b.width);
}
BENCHMARK(BM_GenerationStepTape)
    ->Arg(8)
    ->Arg(32)
    ->Unit(benchmark::kMicrosecond);

// ---- shard router throughput: the front-tier scaling story. All three
// benches serve the same mixed-length workload (serve_bench_cap) over real
// loopback TCP with 4 concurrent clients. The baseline is ONE worker
// (engines=1, slots=8) serving alone; BM_RouterThroughputMixed fronts FOUR
// identical workers with the seed-hash router. CI gates the router at >= the
// baseline's items/sec (threshold 0.0) — in practice the margin is ~Nx, the
// point being that the tier scales horizontally instead of taxing the path.
// BM_RouterThroughputCached replays a fixed seed set against package-backed
// workers, so after the first pass every reply comes from the router's
// seed-addressed cache (provably the worker's own answer; see
// serve/shard/cache.h) — the memory-speed ceiling of the tier.

constexpr int kRouterClients = 4;
constexpr int kRouterRequestsPerClient = 16;

serve::ServiceConfig router_bench_service_cfg() {
  serve::ServiceConfig cfg;
  cfg.slots = 8;
  cfg.engines = 1;
  cfg.queue_capacity = 256;
  cfg.reload_poll_seconds = 0.0;
  return cfg;
}

std::string router_bench_line(int client, int i) {
  serve::GenRequest req;
  req.id = static_cast<std::uint64_t>(client) * 1000 +
           static_cast<std::uint64_t>(i);
  req.seed = req.id + 1;
  // Eight series per request keeps the workload generation-bound: the
  // router bench is a scaling story about worker compute, not loopback RPC
  // cost. (On a single-core machine the fleet can only tie the baseline
  // minus the router hop; the CI gate runs where the workers' engine
  // threads actually get cores.)
  req.count = 8;
  req.max_len = serve_bench_cap(i);
  return serve::json::dump(serve::request_to_json(req));
}

/// Drives kRouterClients threads of kRouterRequestsPerClient requests each
/// against `call` (one timed iteration's worth of load).
template <typename Call>
void drive_router_clients(const Call& call) {
  std::vector<std::thread> clients;
  clients.reserve(kRouterClients);
  for (int c = 0; c < kRouterClients; ++c) {
    clients.emplace_back([&call, c] {
      for (int i = 0; i < kRouterRequestsPerClient; ++i) {
        benchmark::DoNotOptimize(call(c, router_bench_line(c, i)));
      }
    });
  }
  for (auto& t : clients) t.join();
}

void BM_RouterSingleServiceBaseline(benchmark::State& state) {
  nn::set_num_threads(1);
  serve::GenerationService service(serve_bench_model(),
                                   router_bench_service_cfg());
  service.start();
  serve::TcpServer server(service, 0);
  server.start();
  for (auto _ : state) {
    drive_router_clients([&](int, const std::string& line) {
      // One fresh connection per client per iteration, like the router's
      // pooled connections: dial cost amortizes over the request burst.
      thread_local std::unique_ptr<serve::TcpClient> conn;
      if (!conn) {
        conn = std::make_unique<serve::TcpClient>("127.0.0.1", server.port());
      }
      return conn->call(line);
    });
  }
  state.SetItemsProcessed(state.iterations() * kRouterClients *
                          kRouterRequestsPerClient);
  server.stop();
  service.stop();
}
// UseRealTime on all three: the work happens in client threads and worker
// engines, so main-thread CPU time says nothing about throughput.
BENCHMARK(BM_RouterSingleServiceBaseline)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RouterThroughputMixed(benchmark::State& state) {
  nn::set_num_threads(1);
  std::vector<std::unique_ptr<serve::GenerationService>> services;
  std::vector<std::unique_ptr<serve::TcpServer>> servers;
  std::vector<serve::shard::WorkerEndpoint> eps;
  for (int w = 0; w < 4; ++w) {
    services.push_back(std::make_unique<serve::GenerationService>(
        serve_bench_model(), router_bench_service_cfg()));
    services.back()->start();
    servers.push_back(
        std::make_unique<serve::TcpServer>(*services.back(), 0));
    servers.back()->start();
    eps.push_back({"127.0.0.1", servers.back()->port()});
  }
  serve::shard::WorkerPool pool(eps);
  serve::shard::Router router(pool, serve::shard::RouterConfig{});
  router.health().sweep_now();  // promote workers; no monitor thread needed
  for (auto _ : state) {
    drive_router_clients([&](int, const std::string& line) {
      return router.handle_line(line);
    });
  }
  state.SetItemsProcessed(state.iterations() * kRouterClients *
                          kRouterRequestsPerClient);
  for (auto& s : servers) s->stop();
  for (auto& s : services) s->stop();
}
BENCHMARK(BM_RouterThroughputMixed)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_RouterThroughputCached(benchmark::State& state) {
  nn::set_num_threads(1);
  // Package-backed workers: the shared content hash is what makes replies
  // cacheable (injected models have no package identity).
  const std::string pkg =
      (std::filesystem::temp_directory_path() / "dg_router_bench.dgpkg")
          .string();
  core::save_package_file(pkg, *serve_bench_model());
  serve::ServiceConfig cfg = router_bench_service_cfg();
  cfg.package_path = pkg;
  std::vector<std::unique_ptr<serve::GenerationService>> services;
  std::vector<std::unique_ptr<serve::TcpServer>> servers;
  std::vector<serve::shard::WorkerEndpoint> eps;
  for (int w = 0; w < 2; ++w) {
    services.push_back(std::make_unique<serve::GenerationService>(cfg));
    services.back()->start();
    servers.push_back(
        std::make_unique<serve::TcpServer>(*services.back(), 0));
    servers.back()->start();
    eps.push_back({"127.0.0.1", servers.back()->port()});
  }
  serve::shard::WorkerPool pool(eps);
  serve::shard::Router router(pool, serve::shard::RouterConfig{});
  router.health().sweep_now();
  // Warm pass: every (seed, caps) pair gets generated once and inserted.
  drive_router_clients(
      [&](int, const std::string& line) { return router.handle_line(line); });
  for (auto _ : state) {
    drive_router_clients([&](int, const std::string& line) {
      return router.handle_line(line);
    });
  }
  state.SetItemsProcessed(state.iterations() * kRouterClients *
                          kRouterRequestsPerClient);
  for (auto& s : servers) s->stop();
  for (auto& s : services) s->stop();
  std::filesystem::remove(pkg);
}
BENCHMARK(BM_RouterThroughputCached)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---- serve-path tracing overhead gate. Same single-worker serve workload
// through the shard router twice: tracing off entirely, then collecting at
// the production 1% sample rate (request stamping + router/worker span
// emission + exemplar updates). CI's bench-smoke job gates the sampled run
// within 5% of off via tools/bench_compare.py
// --rename BM_ObsOverheadTraceServeOff=BM_ObsOverheadTraceServe.

void run_trace_serve_bench(benchmark::State& state, double sample_rate) {
  nn::set_num_threads(1);
  serve::GenerationService service(serve_bench_model(),
                                   router_bench_service_cfg());
  service.start();
  serve::TcpServer server(service, 0);
  server.start();
  serve::shard::WorkerPool pool(
      std::vector<serve::shard::WorkerEndpoint>{{"127.0.0.1", server.port()}});
  serve::shard::RouterConfig rc;
  // No cache: sampled replies are never inserted, so a warm cache would give
  // the two configurations different work. Every request generates.
  rc.cache_capacity = 0;
  rc.trace_sample_rate = sample_rate;
  serve::shard::Router router(pool, rc);
  router.health().sweep_now();
  if (sample_rate > 0.0) {
    obs::Trace::start();  // sampling is gated on an active collector
  }
  std::uint64_t id = 0;
  for (auto _ : state) {
    for (int i = 0; i < kServeRequests; ++i) {
      serve::GenRequest req;
      req.id = ++id;
      req.seed = id;  // distinct seeds: no two requests share a series
      req.max_len = serve_bench_cap(i);
      benchmark::DoNotOptimize(
          router.handle_line(serve::json::dump(serve::request_to_json(req))));
    }
  }
  state.SetItemsProcessed(state.iterations() * kServeRequests);
  obs::Trace::stop();
  obs::Trace::clear();
  server.stop();
  service.stop();
}

void BM_ObsOverheadTraceServeOff(benchmark::State& state) {
  run_trace_serve_bench(state, 0.0);
}
BENCHMARK(BM_ObsOverheadTraceServeOff)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ObsOverheadTraceServe(benchmark::State& state) {
  run_trace_serve_bench(state, 0.01);
}
BENCHMARK(BM_ObsOverheadTraceServe)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_SynthWwt(benchmark::State& state) {
  nn::set_num_threads(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(synth::make_wwt({.n = 100, .t = 280}));
  }
  state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_SynthWwt)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
