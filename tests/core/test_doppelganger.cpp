#include "core/doppelganger.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>

#include "eval/metrics.h"
#include "nn/autograd.h"
#include "nn/parallel.h"
#include "nn/rng.h"
#include "nn/simd/vec.h"
#include "obs/trace.h"
#include "synth/synth.h"

#if defined(__x86_64__) || defined(_M_X64)
#include <xmmintrin.h>
#endif

namespace dg::core {
namespace {

/// Tiny dataset: fixed-length sine-ish series whose level depends on a
/// binary attribute. Small enough for smoke-training in a test.
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

DoppelGangerConfig tiny_config() {
  DoppelGangerConfig cfg;
  cfg.attr_hidden = 16;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 16;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 16;
  cfg.head_hidden = 16;
  cfg.sample_len = 4;
  cfg.disc_hidden = 32;
  cfg.disc_layers = 2;
  cfg.batch = 16;
  cfg.iterations = 30;
  cfg.seed = 7;
  return cfg;
}

TEST(DoppelGanger, ConstructionValidatesSampleLen) {
  const auto d = tiny_dataset(4, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.sample_len = 0;
  EXPECT_THROW(DoppelGanger(d.schema, cfg), std::invalid_argument);
  cfg.sample_len = 13;
  EXPECT_THROW(DoppelGanger(d.schema, cfg), std::invalid_argument);
}

TEST(DoppelGanger, GeneratesSchemaValidObjectsEvenUntrained) {
  const auto d = tiny_dataset(4, 12);
  DoppelGanger model(d.schema, tiny_config());
  const auto gen = model.generate(9);
  EXPECT_EQ(gen.size(), 9u);
  EXPECT_NO_THROW(data::validate(d.schema, gen));
}

TEST(DoppelGanger, SampleLenNotDividingHorizonStillWorks) {
  const auto d = tiny_dataset(4, 10);
  DoppelGangerConfig cfg = tiny_config();
  cfg.sample_len = 4;  // 3 steps of 4 records -> truncated to 10
  DoppelGanger model(d.schema, cfg);
  const auto gen = model.generate(3);
  for (const auto& o : gen) EXPECT_LE(o.length(), 10);
}

TEST(DoppelGanger, FitReturnsPerIterationStats) {
  const auto d = tiny_dataset(24, 12);
  DoppelGanger model(d.schema, tiny_config());
  const TrainStats stats = model.fit(d.data);
  EXPECT_EQ(stats.d_loss.size(), 30u);
  EXPECT_EQ(stats.g_loss.size(), 30u);
  for (float v : stats.d_loss) EXPECT_TRUE(std::isfinite(v));
  for (float v : stats.g_loss) EXPECT_TRUE(std::isfinite(v));
}

TEST(DoppelGanger, TrainingMovesOutputTowardDataScale) {
  const auto d = tiny_dataset(48, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.iterations = 150;
  DoppelGanger model(d.schema, cfg);
  model.fit(d.data);
  const auto gen = model.generate(48);

  const auto real_totals = eval::per_object_totals(d.data, 0);
  const auto gen_totals = eval::per_object_totals(gen, 0);
  double real_mean = 0, gen_mean = 0;
  for (double v : real_totals) real_mean += v;
  for (double v : gen_totals) gen_mean += v;
  real_mean /= real_totals.size();
  gen_mean /= gen_totals.size();
  // Untrained models emit ~mid-range everywhere; after training the totals
  // should be within a factor ~2 of the real mean.
  EXPECT_GT(gen_mean, real_mean * 0.4);
  EXPECT_LT(gen_mean, real_mean * 2.5);
}

TEST(DoppelGanger, FixedLengthDataYieldsMostlyFullLengthSamples) {
  const auto d = tiny_dataset(48, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.iterations = 150;
  DoppelGanger model(d.schema, cfg);
  model.fit(d.data);
  const auto gen = model.generate(32);
  int full = 0;
  for (const auto& o : gen) full += (o.length() == 12);
  EXPECT_GT(full, 20);
}

TEST(DoppelGanger, WorksWithoutMinmaxGenerator) {
  const auto d = tiny_dataset(16, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.use_minmax_generator = false;
  DoppelGanger model(d.schema, cfg);
  model.fit(d.data);
  EXPECT_NO_THROW(data::validate(d.schema, model.generate(5)));
}

TEST(DoppelGanger, WorksWithoutAuxDiscriminator) {
  const auto d = tiny_dataset(16, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.use_aux_discriminator = false;
  DoppelGanger model(d.schema, cfg);
  const TrainStats stats = model.fit(d.data);
  for (float v : stats.aux_loss) EXPECT_FLOAT_EQ(v, 0.0f);
  EXPECT_NO_THROW(data::validate(d.schema, model.generate(5)));
}

TEST(DoppelGanger, VariableLengthDatasetRoundTrips) {
  auto d = synth::make_gcut({.n = 32, .t_max = 16});
  // Clamp long series to the reduced horizon for this smoke test.
  for (auto& o : d.data) {
    if (o.length() > 16) o.features.resize(16);
  }
  d.schema.max_timesteps = 16;
  DoppelGangerConfig cfg = tiny_config();
  cfg.iterations = 40;
  DoppelGanger model(d.schema, cfg);
  model.fit(d.data);
  const auto gen = model.generate(10);
  for (const auto& o : gen) {
    EXPECT_GE(o.length(), 1);
    EXPECT_LE(o.length(), 16);
  }
}

TEST(DoppelGanger, SaveLoadRoundTripsParameters) {
  const auto d = tiny_dataset(16, 12);
  DoppelGanger a(d.schema, tiny_config());
  a.fit(d.data);
  std::stringstream ss;
  a.save(ss);

  DoppelGangerConfig cfg = tiny_config();
  cfg.seed = 1234;  // different init
  DoppelGanger b(d.schema, cfg);
  b.load(ss);
  const auto pa = a.generator_parameters();
  const auto pb = b.generator_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(nn::allclose(pa[i].value(), pb[i].value(), 0.0f));
  }
  EXPECT_NO_THROW(data::validate(d.schema, b.generate(4)));
}

TEST(DoppelGanger, LoadRejectsMismatchedArchitecture) {
  const auto d = tiny_dataset(8, 12);
  DoppelGanger a(d.schema, tiny_config());
  std::stringstream ss;
  a.save(ss);
  DoppelGangerConfig cfg = tiny_config();
  cfg.lstm_units = 24;
  DoppelGanger b(d.schema, cfg);
  EXPECT_THROW(b.load(ss), std::runtime_error);
}

TEST(DoppelGanger, RetrainAttributesShiftsMarginal) {
  const auto d = tiny_dataset(48, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.iterations = 80;
  DoppelGanger model(d.schema, cfg);
  model.fit(d.data);

  // Target: always "high".
  model.retrain_attributes(
      [](nn::Rng&) { return std::vector<float>{1.0f}; }, 120);
  const auto gen = model.generate(60);
  const auto marginal = eval::attribute_marginal(gen, d.schema, 0);
  EXPECT_GT(marginal[1], 0.85);
}

TEST(DoppelGanger, GenerateConditionalFiltersAttributes) {
  const auto d = tiny_dataset(48, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.iterations = 100;
  DoppelGanger model(d.schema, cfg);
  model.fit(d.data);
  const ConditionalResult highs = model.generate_conditional(
      20, [](const data::Object& o) { return o.attributes[0] == 1.0f; });
  EXPECT_TRUE(highs.complete);
  EXPECT_EQ(highs.objects.size(), 20u);
  for (const auto& o : highs.objects) EXPECT_FLOAT_EQ(o.attributes[0], 1.0f);

  const ConditionalResult all = model.generate_conditional(
      3, [](const data::Object&) { return true; });
  EXPECT_TRUE(all.complete);
  EXPECT_EQ(all.objects.size(), 3u);
  EXPECT_EQ(all.batches_used, 1);
}

TEST(DoppelGanger, GenerateConditionalImpossiblePredicateIsIncomplete) {
  const auto d = tiny_dataset(8, 12);
  DoppelGanger model(d.schema, tiny_config());
  const ConditionalResult r = model.generate_conditional(
      4, [](const data::Object&) { return false; }, 2);
  EXPECT_FALSE(r.complete);
  EXPECT_TRUE(r.objects.empty());
  EXPECT_EQ(r.batches_used, 2);
  EXPECT_EQ(r.candidates, 2 * tiny_config().batch);
}

TEST(DoppelGanger, GenerateConditionalKeepsPartialMatchesOfRarePredicate) {
  const auto d = tiny_dataset(8, 12);
  DoppelGanger model(d.schema, tiny_config());
  // Accept one category only: some candidates match, but never 500 within
  // a 2-round budget — the result must still hold what DID match.
  const ConditionalResult r = model.generate_conditional(
      500, [](const data::Object& o) { return o.attributes[0] == 1.0f; }, 2);
  EXPECT_FALSE(r.complete);
  EXPECT_EQ(r.batches_used, 2);
  EXPECT_EQ(r.candidates, 2 * tiny_config().batch);
  EXPECT_FALSE(r.objects.empty());
  EXPECT_LT(r.objects.size(), 500u);
  for (const auto& o : r.objects) EXPECT_FLOAT_EQ(o.attributes[0], 1.0f);
}

/// Every attribute and feature float of `ds`, as raw bytes.
std::string dataset_bytes(const data::Dataset& ds) {
  std::string out;
  const auto put = [&out](const std::vector<float>& v) {
    out.append(reinterpret_cast<const char*>(v.data()), v.size() * sizeof(float));
  };
  for (const data::Object& o : ds) {
    put(o.attributes);
    for (const auto& rec : o.features) put(rec);
  }
  return out;
}

/// generate()'s loop on the autograd forward, drawing from `rng` in
/// generate()'s order: the engine the tape replaced, and its oracle.
data::Dataset autograd_generate(const DoppelGanger& model, int n,
                                nn::Rng& rng) {
  const data::GanCodec& codec = model.codec();
  const int rw = model.record_width();
  data::Dataset out;
  for (int remaining = n; remaining > 0; remaining -= model.config().batch) {
    const int b = std::min(remaining, model.config().batch);
    const GenContext ctx = model.sample_context(b, rng);
    GenState st = model.initial_gen_state(b);
    nn::Matrix feats(b, codec.feature_row_dim());
    for (int emitted = 0; emitted < codec.tmax();) {
      const nn::Matrix recs = model.generation_step(
          ctx, rng.normal_matrix(b, model.feat_noise_dim()), st);
      const int take = std::min(model.sample_len(), codec.tmax() - emitted);
      for (int i = 0; i < b; ++i) {
        for (int j = 0; j < take * rw; ++j) {
          feats.at(i, emitted * rw + j) = recs.at(i, j);
        }
      }
      emitted += take;
    }
    for (auto& o : codec.decode(ctx.attributes, ctx.minmax, feats)) {
      out.push_back(std::move(o));
    }
  }
  return out;
}

// generate() replays the tape; its bytes are the autograd loop's, including
// the short last batch (2.5 batches), at every pool size and SIMD tier.
TEST(DoppelGanger, GenerateIsByteIdenticalToTheAutogradLoop) {
  const auto d = tiny_dataset(8, 10);  // S = 4: the last step is cut short
  const DoppelGangerConfig cfg = tiny_config();
  const int n = cfg.batch * 5 / 2;
  const nn::simd::Tier tier = nn::simd::active_tier();
  const int threads = nn::num_threads();
  std::string reference;
  for (const auto t : {nn::simd::Tier::kScalar, nn::simd::Tier::kAvx2}) {
    if (!nn::simd::set_simd_tier(t)) continue;  // no avx2 on this host
    for (const int pool : {1, 4}) {
      SCOPED_TRACE(std::string(nn::simd::tier_name(t)) + " tier at " +
                   std::to_string(pool) + " threads");
      nn::set_num_threads(pool);
      DoppelGanger model(d.schema, cfg);
      model.reseed(5);
      const data::Dataset got = model.generate(n);
      ASSERT_EQ(got.size(), static_cast<size_t>(n));
      nn::Rng rng(5);
      const std::string want = dataset_bytes(autograd_generate(model, n, rng));
      EXPECT_TRUE(dataset_bytes(got) == want);
      if (reference.empty()) reference = want;
      EXPECT_TRUE(want == reference);
    }
  }
  nn::simd::set_simd_tier(tier);
  nn::set_num_threads(threads);
}

// The model caches its executor across generate() calls; load() moves new
// matrices into the weights, and the next generate() must read those.
TEST(DoppelGanger, GenerateAfterLoadReadsTheLoadedWeights) {
  const auto d = tiny_dataset(8, 12);
  DoppelGangerConfig other_cfg = tiny_config();
  other_cfg.seed = 99;
  std::stringstream saved;
  DoppelGanger(d.schema, other_cfg).save(saved);
  const std::string weights = saved.str();

  DoppelGanger model(d.schema, tiny_config());
  model.reseed(3);
  const std::string before = dataset_bytes(model.generate(20));
  std::istringstream in(weights);
  model.load(in);
  model.reseed(3);
  const std::string after = dataset_bytes(model.generate(20));

  DoppelGanger fresh(d.schema, tiny_config());
  std::istringstream fresh_in(weights);
  fresh.load(fresh_in);
  fresh.reseed(3);
  EXPECT_TRUE(after == dataset_bytes(fresh.generate(20)));
  EXPECT_FALSE(after == before);
}

TEST(DoppelGanger, GenerateRefusesANegativeCount) {
  const auto d = tiny_dataset(4, 12);
  DoppelGanger model(d.schema, tiny_config());
  try {
    (void)model.generate(-5);
    FAIL() << "generate(-5) returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("n = -5"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(model.generate(0).empty());
}

// No autograd fallback: a model whose generation tape does not build (a
// config the analyzer refuses) cannot generate.
TEST(DoppelGanger, GenerateRefusesAModelWhoseTapeDoesNotBuild) {
  const auto d = tiny_dataset(4, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.lr = 0.0f;
  DoppelGanger model(d.schema, cfg);
  try {
    (void)model.generate(2);
    FAIL() << "generate() ran without a tape";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("tape-config"), std::string::npos)
        << e.what();
  }
}

TEST(DoppelGanger, StandardGanLossTrains) {
  const auto d = tiny_dataset(24, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.loss = GanLoss::Standard;
  cfg.iterations = 40;
  DoppelGanger model(d.schema, cfg);
  const TrainStats stats = model.fit(d.data);
  for (float v : stats.d_loss) EXPECT_TRUE(std::isfinite(v));
  EXPECT_NO_THROW(data::validate(d.schema, model.generate(5)));
}

TEST(DoppelGanger, DpTrainingRunsAndStaysFinite) {
  const auto d = tiny_dataset(24, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.iterations = 10;
  cfg.dp = DpOptions{.clip_norm = 1.0f, .noise_multiplier = 1.0f, .microbatches = 4};
  DoppelGanger model(d.schema, cfg);
  const TrainStats stats = model.fit(d.data);
  for (float v : stats.d_loss) EXPECT_TRUE(std::isfinite(v));
  EXPECT_NO_THROW(data::validate(d.schema, model.generate(4)));
}

TEST(DoppelGanger, DpMechanismsPerIterationMatchesCriticSteps) {
#ifndef DG_OBS_ENABLED
  GTEST_SKIP() << "spans are compiled out (DG_OBS=OFF)";
#else
  const auto d = tiny_dataset(24, 12);
  for (const bool aux : {true, false}) {
    DoppelGangerConfig cfg = tiny_config();
    cfg.iterations = 2;
    cfg.d_steps = 2;
    cfg.use_aux_discriminator = aux;
    cfg.dp = DpOptions{.noise_multiplier = 1.0f, .microbatches = 2};
    DoppelGanger model(d.schema, cfg);
    obs::Trace::start();
    model.fit(d.data);
    obs::Trace::stop();
    int mechanisms = 0;
    for (const obs::TraceEvent& e : obs::Trace::events()) {
      mechanisms += e.name == "train.dp_critic_step";
    }
    obs::Trace::clear();
    EXPECT_EQ(mechanisms, cfg.iterations * dp_mechanisms_per_iteration(cfg))
        << "aux critic " << (aux ? "on" : "off");
  }
#endif
}

TEST(DoppelGanger, DpSamplingRateIsTheBatchRunTrainingDraws) {
  // run_training draws min(batch, n) rows, so q never exceeds 1 (an
  // accountant refuses q > 1) when the data is smaller than the batch.
  DoppelGangerConfig cfg;
  cfg.batch = 50;
  EXPECT_DOUBLE_EQ(dp_sampling_rate(cfg, 20), 1.0);
  EXPECT_DOUBLE_EQ(dp_sampling_rate(cfg, 50), 1.0);
  EXPECT_DOUBLE_EQ(dp_sampling_rate(cfg, 200), 0.25);
  EXPECT_THROW(dp_sampling_rate(cfg, 0), std::invalid_argument);
}

TEST(DoppelGanger, FitMoreContinuesTraining) {
  const auto d = tiny_dataset(16, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.iterations = 5;
  DoppelGanger model(d.schema, cfg);
  model.fit(d.data);
  const TrainStats more = model.fit_more(d.data, 7);
  EXPECT_EQ(more.d_loss.size(), 7u);
}

/// The op nodes one fit_more(d, 1) builds, by op name, and how many of its
/// matmul_nt nodes were built in grad mode: the ones a later backward pass
/// differentiates again.
struct FitCensus {
  std::map<std::string, int> ops;
  int grad_mode_nt = 0;
};

FitCensus one_iteration_census(DoppelGanger& model, const data::Dataset& d) {
  FitCensus c;
  nn::OpObserverGuard observe([&c](const char* op, int, int) {
    ++c.ops[op];
    if (nn::grad_enabled() && std::strcmp(op, "matmul_nt") == 0) {
      ++c.grad_mode_nt;
    }
  });
  model.fit_more(d, 1);
  return c;
}

TEST(DoppelGanger, FirstOrderTrainingBuildsNoTranspose) {
  // Every backward rule reads its transposed operand in place (matmul_nt,
  // matmul_tn), so training that never differentiates a gradient builds no
  // transpose node.
  const auto d = tiny_dataset(16, 12);
  DoppelGangerConfig cfg = tiny_config();
  cfg.gp_weight = 0.0f;
  DoppelGanger model(d.schema, cfg);
  FitCensus c = one_iteration_census(model, d.data);
  EXPECT_EQ(c.ops.count("transpose"), 0u);
  EXPECT_GT(c.ops["matmul_tn"], 0);  // the weight gradients ran
  EXPECT_GT(c.ops["matmul_nt"], 0);  // and the input gradients
}

TEST(DoppelGanger, GradientPenaltyBuildsOneTransposePerSecondOrderProduct) {
  // The gradient penalty builds the critic's input gradient with
  // create_graph, so each of its g·Wᵀ products (a matmul_nt in grad mode)
  // is differentiated again, and W's gradient there, (gᵀ·G)ᵀ, is the one
  // transpose left in a training step: with and without DP-SGD.
  const auto d = tiny_dataset(16, 12);
  for (const bool dp : {false, true}) {
    SCOPED_TRACE(dp ? "DP-SGD" : "WGAN-GP");
    DoppelGangerConfig cfg = tiny_config();
    if (dp) cfg.dp = DpOptions{.microbatches = 4};
    DoppelGanger model(d.schema, cfg);
    FitCensus c = one_iteration_census(model, d.data);
    EXPECT_GT(c.grad_mode_nt, 0);
    EXPECT_EQ(c.ops["transpose"], c.grad_mode_nt);
  }
}

TEST(DoppelGanger, CategoricalFeaturesGenerateValidOneHots) {
  // Per-record categorical features (e.g. packet protocol) flow through the
  // softmax record blocks; decoded values must be valid category indices
  // with a sensible marginal.
  data::Schema s;
  s.max_timesteps = 8;
  s.attributes = {data::categorical_field("kind", {"a", "b"})};
  s.features = {data::categorical_field("state", {"idle", "busy", "burst"}),
                data::continuous_field("x", 0.0f, 1.0f)};
  data::Dataset train;
  nn::Rng rng(55);
  for (int i = 0; i < 64; ++i) {
    data::Object o;
    o.attributes = {static_cast<float>(rng.uniform_int(2))};
    for (int t = 0; t < 8; ++t) {
      // "busy" dominates; "burst" rare.
      const double w[3] = {0.3, 0.6, 0.1};
      o.features.push_back(
          {static_cast<float>(rng.categorical(std::span<const double>(w, 3))),
           static_cast<float>(rng.uniform(0.2, 0.8))});
    }
    train.push_back(std::move(o));
  }
  DoppelGangerConfig cfg = tiny_config();
  cfg.iterations = 150;
  DoppelGanger model(s, cfg);
  model.fit(train);
  const auto gen = model.generate(64);
  EXPECT_NO_THROW(data::validate(s, gen));
  int busy = 0, total = 0;
  for (const auto& o : gen) {
    for (const auto& rec : o.features) {
      const int c = static_cast<int>(rec[0]);
      EXPECT_GE(c, 0);
      EXPECT_LT(c, 3);
      busy += (c == 1);
      ++total;
    }
  }
  // The dominant state should remain dominant in generated data.
  EXPECT_GT(busy / static_cast<double>(total), 0.35);
}

/// The caller's FP control bits: MXCSR less its six sticky status flags on
/// x86-64, 0 on targets where training leaves the FP mode alone.
std::uint32_t fp_control() {
#if defined(__x86_64__) || defined(_M_X64)
  return _mm_getcsr() & ~0x3Fu;
#else
  return 0;
#endif
}

/// Classified by bits (zero exponent, nonzero mantissa), not by a float
/// compare: under DAZ a subnormal operand compares equal to zero.
bool is_subnormal(float v) {
  const auto bits = std::bit_cast<std::uint32_t>(v);
  return (bits & 0x7f800000u) == 0 && (bits & 0x007fffffu) != 0;
}

/// Narrow wwt shape: T=200 at S=10 unrolls 20 LSTM steps, long enough for
/// the continuation mask to reach the subnormal range in one iteration.
synth::SynthData narrow_wwt_data() {
  return synth::make_wwt({.n = 32, .t = 200});
}

DoppelGangerConfig narrow_wwt_config() {
  DoppelGangerConfig cfg;
  cfg.sample_len = 10;
  cfg.attr_hidden = 16;
  cfg.minmax_hidden = 16;
  cfg.lstm_units = 16;
  cfg.head_hidden = 16;
  cfg.disc_hidden = 16;
  cfg.batch = 16;
  return cfg;
}

/// Every grad-slot entry training left behind, in parameter order.
std::vector<float> grad_entries(const DoppelGanger& model) {
  std::vector<float> out;
  for (const auto& [name, p] : model.named_parameters()) {
    const nn::Var g = p.grad();
    if (!g.defined()) continue;
    const auto flat = g.value().flat();
    out.insert(out.end(), flat.begin(), flat.end());
  }
  return out;
}

TEST(DoppelGanger, TrainingFlushesSubnormalsAndRestoresCallersFpMode) {
  const auto d = narrow_wwt_data();
  DoppelGanger model(d.schema, narrow_wwt_config());
  const std::uint32_t caller = fp_control();
  model.fit_more(d.data, 1);
  EXPECT_EQ(fp_control(), caller);
  const std::vector<float> grads = grad_entries(model);
  // 210 with gradual underflow.
  EXPECT_EQ(std::count_if(grads.begin(), grads.end(), is_subnormal), 0);

  model.retrain_attributes(
      [&d](nn::Rng&) { return d.data.front().attributes; }, 1);
  EXPECT_EQ(fp_control(), caller);
}

TEST(DoppelGanger, PreflightFailureRestoresCallersFpMode) {
  const auto d = narrow_wwt_data();
  DoppelGanger model(d.schema, narrow_wwt_config());
  // A fully frozen model fails the fit preflight, inside the trainer's guard.
  for (auto [name, p] : model.named_parameters()) p.set_requires_grad(false);
  const std::uint32_t caller = fp_control();
  EXPECT_THROW(model.fit_more(d.data, 1), std::invalid_argument);
  EXPECT_EQ(fp_control(), caller);
  // A caller that already flushes keeps flushing.
  const nn::FlushDenormalsGuard outer;
  const std::uint32_t flushing = fp_control();
  EXPECT_THROW(model.fit_more(d.data, 1), std::invalid_argument);
  EXPECT_EQ(fp_control(), flushing);
}

TEST(DoppelGanger, FlushedTrainingIsThreadAndTierInvariant) {
  const auto d = narrow_wwt_data();
  DoppelGangerConfig dp_cfg = narrow_wwt_config();
  dp_cfg.dp = DpOptions{
      .clip_norm = 1.0f, .noise_multiplier = 1.0f, .microbatches = 4};
  const nn::simd::Tier tier = nn::simd::active_tier();
  const int threads = nn::num_threads();
  for (const DoppelGangerConfig& cfg : {narrow_wwt_config(), dp_cfg}) {
    SCOPED_TRACE(cfg.dp ? "DP-SGD" : "WGAN-GP");
    std::string reference;
    for (const auto t : {nn::simd::Tier::kScalar, nn::simd::Tier::kAvx2}) {
      if (!nn::simd::set_simd_tier(t)) continue;  // no avx2 on this host
      for (const int n : {1, 4}) {
        nn::set_num_threads(n);
        // Spawn the workers outside training, under gradual underflow, as an
        // earlier generate() would: training must still flush on all of
        // them.
        nn::matmul(nn::Matrix(64, 256, 1.0f), nn::Matrix(256, 64, 1.0f));
        DoppelGanger model(d.schema, cfg);
        const TrainStats st = model.fit_more(d.data, 1);
        // Parameters and grad slots: a worker that did not flush would
        // leave subnormals in the grad slots of its rows even where Adam,
        // flushing on the caller, reads them as zeros. d_grad_norm is
        // global_grad_norm's output, the sum DP clipping runs per microbatch.
        std::ostringstream bytes;
        model.save(bytes);
        const std::vector<float> grads = grad_entries(model);
        for (const std::vector<float>* v : {&grads, &st.d_grad_norm}) {
          bytes.write(reinterpret_cast<const char*>(v->data()),
                      static_cast<std::streamsize>(v->size() * sizeof(float)));
        }
        if (reference.empty()) reference = bytes.str();
        EXPECT_TRUE(bytes.str() == reference)
            << nn::simd::tier_name(t) << " tier at " << n << " threads";
      }
    }
  }
  nn::simd::set_simd_tier(tier);
  nn::set_num_threads(threads);
}

TEST(DoppelGanger, EmptyTrainingSetThrows) {
  const auto d = tiny_dataset(4, 12);
  DoppelGanger model(d.schema, tiny_config());
  EXPECT_THROW(model.fit({}), std::invalid_argument);
}

}  // namespace
}  // namespace dg::core
