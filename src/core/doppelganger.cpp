#include "core/doppelganger.h"

#include <algorithm>
#include <chrono>
#include <span>
#include <stdexcept>

#include "analysis/train_step.h"
#include "core/preflight.h"
#include "core/tape_exec.h"
#include "core/wgan.h"
#include "nn/parallel.h"
#include "nn/serialize.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace dg::core {

namespace {
using nn::Matrix;
using nn::Var;

Matrix take_rows(const Matrix& x, std::span<const int> idx) {
  Matrix out(static_cast<int>(idx.size()), x.cols());
  for (size_t i = 0; i < idx.size(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      out.at(static_cast<int>(i), j) = x.at(idx[i], j);
    }
  }
  return out;
}

Matrix hcat(const Matrix& a, const Matrix& b) {
  const Matrix* parts[] = {&a, &b};
  return nn::concat_cols(parts);
}

Matrix hcat(const Matrix& a, const Matrix& b, const Matrix& c) {
  const Matrix* parts[] = {&a, &b, &c};
  return nn::concat_cols(parts);
}

/// Collapse sentinel: how much of the output range the fake batch spans.
/// Mode collapse shows up as per-column (max - min) shrinking toward zero
/// while losses still look plausible.
struct FeatureSpread {
  float mean_spread = 0.0f;
  float min = 0.0f;
  float max = 0.0f;
};

FeatureSpread feature_spread(const Matrix& feats) {
  FeatureSpread out;
  const int n = feats.rows(), d = feats.cols();
  if (n == 0 || d == 0) return out;
  double spread_sum = 0.0;
  float gmin = feats.at(0, 0), gmax = feats.at(0, 0);
  for (int j = 0; j < d; ++j) {
    float lo = feats.at(0, j), hi = lo;
    for (int i = 1; i < n; ++i) {
      const float v = feats.at(i, j);
      lo = std::min(lo, v);
      hi = std::max(hi, v);
    }
    spread_sum += static_cast<double>(hi) - lo;
    gmin = std::min(gmin, lo);
    gmax = std::max(gmax, hi);
  }
  out.mean_spread = static_cast<float>(spread_sum / d);
  out.min = gmin;
  out.max = gmax;
  return out;
}
}  // namespace

int dp_mechanisms_per_iteration(const DoppelGangerConfig& cfg) {
  // One dp_critic_step per critic per d-step (see run_training).
  return cfg.d_steps * (cfg.use_aux_discriminator ? 2 : 1);
}

double dp_sampling_rate(const DoppelGangerConfig& cfg, int n) {
  if (n <= 0) throw std::invalid_argument("dp_sampling_rate: n must be positive");
  return static_cast<double>(std::min(cfg.batch, n)) / static_cast<double>(n);
}

DoppelGanger::DoppelGanger(data::Schema schema, DoppelGangerConfig cfg)
    : cfg_(cfg),
      codec_(std::move(schema), cfg.use_minmax_generator),
      rng_(cfg.seed) {
  const data::Schema& s = codec_.schema();
  minmax_enabled_ = cfg_.use_minmax_generator && codec_.minmax_dim() > 0;

  attr_blocks_ = attribute_blocks(s);
  minmax_blocks_ = minmax_blocks(s);
  const auto rec = record_blocks(s, minmax_enabled_);
  record_width_ = total_width(rec);
  if (record_width_ != codec_.record_width()) {
    throw std::logic_error("DoppelGanger: record width disagreement");
  }
  if (cfg_.sample_len <= 0 || cfg_.sample_len > s.max_timesteps) {
    throw std::invalid_argument("DoppelGanger: bad sample_len (S)");
  }
  steps_per_series_ =
      (s.max_timesteps + cfg_.sample_len - 1) / cfg_.sample_len;
  step_blocks_ = repeat_blocks(rec, cfg_.sample_len);

  nn::Rng init = rng_.fork();
  const int attr_w = codec_.attribute_dim();
  const int mm_w = minmax_enabled_ ? codec_.minmax_dim() : 0;

  attr_gen_ = nn::Mlp(cfg_.attr_noise_dim, attr_w, cfg_.attr_hidden,
                      cfg_.attr_layers, init);
  if (minmax_enabled_) {
    minmax_gen_ = nn::Mlp(attr_w + cfg_.minmax_noise_dim, mm_w,
                          cfg_.minmax_hidden, cfg_.minmax_layers, init);
  }
  lstm_ = nn::LstmCell(attr_w + mm_w + cfg_.feat_noise_dim, cfg_.lstm_units, init);
  head_ = nn::Mlp(cfg_.lstm_units, cfg_.sample_len * record_width_,
                  cfg_.head_hidden, 1, init);

  const int full_w = attr_w + mm_w + codec_.feature_row_dim();
  disc_ = nn::Mlp(full_w, 1, cfg_.disc_hidden, cfg_.disc_layers, init);
  if (cfg_.use_aux_discriminator) {
    aux_disc_ = nn::Mlp(attr_w + mm_w, 1, cfg_.disc_hidden, cfg_.disc_layers, init);
  }

  g_opt_ = nn::Adam(generator_parameters(), {.lr = cfg_.lr});
  d_opt_ = nn::Adam(disc_.parameters(), {.lr = cfg_.lr});
  if (cfg_.use_aux_discriminator) {
    aux_opt_ = nn::Adam(aux_disc_.parameters(), {.lr = cfg_.lr});
  }
}

DoppelGanger::~DoppelGanger() = default;

std::vector<nn::Var> DoppelGanger::generator_parameters() const {
  std::vector<Var> params = attr_gen_.parameters();
  if (minmax_enabled_) {
    auto p = minmax_gen_.parameters();
    params.insert(params.end(), p.begin(), p.end());
  }
  auto pl = lstm_.parameters();
  params.insert(params.end(), pl.begin(), pl.end());
  auto ph = head_.parameters();
  params.insert(params.end(), ph.begin(), ph.end());
  return params;
}

std::vector<std::pair<std::string, Var>> DoppelGanger::named_parameters()
    const {
  std::vector<std::pair<std::string, Var>> out;
  const auto add_mlp = [&out](const std::string& net, const nn::Mlp& m) {
    const std::vector<Var> p = m.parameters();  // (w, b) per layer
    for (size_t i = 0; i < p.size(); ++i) {
      out.emplace_back(net + ".l" + std::to_string(i / 2) +
                           (i % 2 == 0 ? ".w" : ".b"),
                       p[i]);
    }
  };
  add_mlp("attr_gen", attr_gen_);
  if (minmax_enabled_) add_mlp("minmax_gen", minmax_gen_);
  const std::vector<Var> lstm = lstm_.parameters();  // wx, wh, b
  out.emplace_back("lstm.wx", lstm[0]);
  out.emplace_back("lstm.wh", lstm[1]);
  out.emplace_back("lstm.b", lstm[2]);
  add_mlp("head", head_);
  add_mlp("disc", disc_);
  if (cfg_.use_aux_discriminator) add_mlp("aux_disc", aux_disc_);
  return out;
}

const nn::Mlp& DoppelGanger::critic_net(Critic c) const {
  return c == Critic::kFull ? disc_ : aux_disc_;
}

std::vector<Var> DoppelGanger::critic_parameters(Critic c) const {
  return critic_net(c).parameters();
}

Var DoppelGanger::noise(int n, int dim) {
  return nn::constant(rng_.normal_matrix(n, dim));
}

DoppelGanger::GenOut DoppelGanger::forward(int n) {
  GenOut out;
  out.attributes =
      apply_blocks(attr_gen_.forward(noise(n, cfg_.attr_noise_dim)), attr_blocks_);
  if (minmax_enabled_) {
    std::vector<Var> in{out.attributes, noise(n, cfg_.minmax_noise_dim)};
    out.minmax =
        apply_blocks(minmax_gen_.forward(nn::concat_cols(in)), minmax_blocks_);
  } else {
    out.minmax = nn::constant(Matrix(n, 0));
  }

  std::vector<Var> cond_parts{out.attributes, out.minmax};
  const Var cond = nn::concat_cols(cond_parts);

  // The unroll is the generation step's graph, once per LSTM step, with the
  // differentiable continuation mask carried across steps.
  const nn::LstmState init = lstm_.initial_state(n);
  StepVars st{Var(), init.h, init.c, nn::ones(n, 1)};
  std::vector<Var> steps;
  steps.reserve(static_cast<size_t>(steps_per_series_));
  for (int step = 0; step < steps_per_series_; ++step) {
    st = generation_step_graph(cond, noise(n, cfg_.feat_noise_dim), st.h, st.c,
                               st.mask);
    steps.push_back(st.records);
  }
  out.features = nn::concat_cols(steps);
  // When S does not divide T the last step's surplus records are cut.
  const int width = codec_.tmax() * record_width_;
  if (out.features.cols() > width) {
    out.features = nn::slice_cols(out.features, 0, width);
  }
  return out;
}

GenContext DoppelGanger::sample_context(int n, nn::Rng& rng) const {
  return sample_context_fixed(n, {}, rng);
}

GenContext DoppelGanger::sample_context_fixed(
    int n, const std::vector<std::pair<int, float>>& fixed,
    nn::Rng& rng) const {
  Matrix attr_noise = rng.normal_matrix(n, cfg_.attr_noise_dim);
  Matrix minmax_noise = rng.normal_matrix(n, minmax_noise_dim());
  const std::vector<std::pair<int, float>>* every_row[] = {&fixed};
  return context_forward(std::move(attr_noise), std::move(minmax_noise),
                         every_row);
}

GenContext DoppelGanger::context_forward(
    Matrix attr_noise, Matrix minmax_noise,
    std::span<const std::vector<std::pair<int, float>>* const> fixed) const {
  const int n = attr_noise.rows();
  if (attr_noise.cols() != cfg_.attr_noise_dim ||
      minmax_noise.rows() != n || minmax_noise.cols() != minmax_noise_dim() ||
      (fixed.size() != 1 && fixed.size() != static_cast<size_t>(n))) {
    throw std::invalid_argument("context_forward: noise shape mismatch");
  }
  nn::NoGradGuard guard;
  GenContext ctx;
  ctx.attributes =
      apply_blocks(attr_gen_.forward(nn::constant(std::move(attr_noise))),
                   attr_blocks_)
          .value();

  // Fixed-attribute requests clamp fields *after* sampling: the generated
  // row keeps the model's joint structure for the free fields while the
  // fixed ones are overwritten in encoded space (one-hot / scaled [0,1])
  // before conditioning the min/max generator and the LSTM.
  const data::Schema& s = codec_.schema();
  const auto clamp = [&](const std::vector<std::pair<int, float>>& list,
                         int r0, int r1) {
    for (const auto& [field, raw] : list) {
      if (field < 0 || field >= s.num_attributes()) {
        throw std::invalid_argument("sample_context_fixed: bad attribute index");
      }
      int col = 0;
      for (int j = 0; j < field; ++j) col += s.attributes[static_cast<size_t>(j)].width();
      const data::FieldSpec& spec = s.attributes[static_cast<size_t>(field)];
      if (spec.type == data::FieldType::Categorical) {
        const int c = static_cast<int>(raw);
        if (c < 0 || c >= spec.n_categories) {
          throw std::invalid_argument("sample_context_fixed: category range");
        }
        for (int i = r0; i < r1; ++i) {
          for (int j = 0; j < spec.n_categories; ++j) {
            ctx.attributes.at(i, col + j) = (j == c) ? 1.0f : 0.0f;
          }
        }
      } else {
        const float v01 = data::scale01(spec, raw);
        for (int i = r0; i < r1; ++i) ctx.attributes.at(i, col) = v01;
      }
    }
  };
  if (fixed.size() == 1) {
    if (fixed[0] != nullptr) clamp(*fixed[0], 0, n);
  } else {
    for (int i = 0; i < n; ++i) {
      if (fixed[static_cast<size_t>(i)] != nullptr) {
        clamp(*fixed[static_cast<size_t>(i)], i, i + 1);
      }
    }
  }

  if (minmax_enabled_) {
    std::vector<Var> in{nn::constant(ctx.attributes),
                        nn::constant(std::move(minmax_noise))};
    ctx.minmax =
        apply_blocks(minmax_gen_.forward(nn::concat_cols(in)), minmax_blocks_)
            .value();
  } else {
    ctx.minmax = Matrix(n, 0);
  }
  ctx.cond = hcat(ctx.attributes, ctx.minmax);
  return ctx;
}

GenState DoppelGanger::initial_gen_state(int n) const {
  GenState st;
  st.h = Matrix(n, cfg_.lstm_units, 0.0f);
  st.c = Matrix(n, cfg_.lstm_units, 0.0f);
  st.mask = Matrix(n, 1, 1.0f);
  st.step = 0;
  return st;
}

DoppelGanger::StepVars DoppelGanger::generation_step_graph(
    const Var& cond, const Var& noise, const Var& h, const Var& c,
    const Var& mask) const {
  std::vector<Var> in{cond, noise};
  const nn::LstmState st = lstm_.step(nn::concat_cols(in), {h, c});
  Var block = apply_blocks(head_.forward(st.h), step_blocks_);
  // Continuation-mask each of the S records exactly like the training-time
  // unroll: record s is scaled by the running mask, and the masked continue
  // flag becomes the mask for record s+1.
  Var m = mask;
  std::vector<Var> records;
  records.reserve(static_cast<size_t>(cfg_.sample_len));
  for (int s = 0; s < cfg_.sample_len; ++s) {
    Var rec = nn::mul_colvec(
        nn::slice_cols(block, s * record_width_, (s + 1) * record_width_), m);
    m = nn::slice_cols(rec, record_width_ - 2, record_width_ - 1);
    records.push_back(std::move(rec));
  }
  return {nn::concat_cols(records), st.h, st.c, m};
}

nn::Matrix DoppelGanger::generation_step(const GenContext& ctx,
                                         const nn::Matrix& noise,
                                         GenState& state) const {
  const int n = ctx.cond.rows();
  if (noise.rows() != n || noise.cols() != cfg_.feat_noise_dim) {
    throw std::invalid_argument("generation_step: noise shape mismatch");
  }
  nn::NoGradGuard guard;
  const StepVars out = generation_step_graph(
      nn::constant(ctx.cond), nn::constant(noise), nn::constant(state.h),
      nn::constant(state.c), nn::constant(state.mask));
  state.h = out.h.value();
  state.c = out.c.value();
  state.mask = out.mask.value();
  ++state.step;
  return out.records.value();
}

data::Dataset DoppelGanger::generate(int n) {
  if (n < 0) {
    throw std::invalid_argument("generate: n must be >= 0, got n = " +
                                std::to_string(n));
  }
  if (!tape_) tape_ = TapeExecutor::create_or_throw(*this, cfg_.batch);
  data::Dataset out;
  out.reserve(static_cast<size_t>(n));
  int remaining = n;
  while (remaining > 0) {
    const int b = std::min(remaining, cfg_.batch);
    GenContext ctx = sample_context(b, rng_);
    GenState st = initial_gen_state(b);
    Matrix recs(b, cfg_.sample_len * record_width_);
    Matrix feats(b, codec_.feature_row_dim());
    int emitted = 0;  // records written so far (per lane, all lanes aligned)
    while (emitted < codec_.tmax()) {
      tape_->step(ctx, rng_.normal_matrix(b, cfg_.feat_noise_dim), st, recs);
      const int take =
          std::min(cfg_.sample_len, codec_.tmax() - emitted) * record_width_;
      for (int i = 0; i < b; ++i) {
        for (int j = 0; j < take; ++j) {
          feats.at(i, emitted * record_width_ + j) = recs.at(i, j);
        }
      }
      emitted += take / record_width_;
    }
    data::Dataset chunk = codec_.decode(ctx.attributes, ctx.minmax, feats);
    for (auto& o : chunk) out.push_back(std::move(o));
    remaining -= b;
  }
  return out;
}

ConditionalResult DoppelGanger::generate_conditional(
    int n, const std::function<bool(const data::Object&)>& accept,
    int max_batches) {
  ConditionalResult res;
  for (int round = 0;
       round < max_batches && static_cast<int>(res.objects.size()) < n;
       ++round) {
    data::Dataset batch = generate(cfg_.batch);
    res.candidates += static_cast<long long>(batch.size());
    ++res.batches_used;
    for (auto& o : batch) {
      if (static_cast<int>(res.objects.size()) >= n) break;
      if (accept(o)) res.objects.push_back(std::move(o));
    }
  }
  res.complete = static_cast<int>(res.objects.size()) >= n;
  return res;
}

DoppelGanger::FakeBatch DoppelGanger::fake_batch(int n) {
  nn::NoGradGuard guard;
  const GenOut f = forward(n);
  return {hcat(f.attributes.value(), f.minmax.value(), f.features.value()),
          hcat(f.attributes.value(), f.minmax.value())};
}

Var DoppelGanger::critic_loss(Critic c, const Matrix& real, const Matrix& fake,
                              float* gp_out) {
  const nn::Mlp& critic = critic_net(c);
  const CriticFn fn = [&critic](const Var& x) { return critic.forward(x); };
  if (cfg_.loss == GanLoss::WassersteinGp) {
    return core::critic_loss(fn, real, fake, cfg_.gp_weight, rng_, gp_out);
  }
  if (gp_out) *gp_out = 0.0f;
  return standard_critic_loss(fn, real, fake);
}

Var DoppelGanger::critic_backward(Critic c, const Matrix& real,
                                  const Matrix& fake, float* gp_out) {
  Var loss = critic_loss(c, real, fake, gp_out);
  critic_net(c).zero_grad();
  loss.backward();
  return loss;
}

Var DoppelGanger::generator_loss(int n, Var* features) {
  const GenOut f = forward(n);
  const auto term = [this](const nn::Mlp& critic, const Var& fake) {
    const CriticFn fn = [&critic](const Var& x) { return critic.forward(x); };
    return cfg_.loss == GanLoss::WassersteinGp
               ? core::generator_loss(fn, fake)
               : standard_generator_loss(fn, fake);
  };
  std::vector<Var> full_parts{f.attributes, f.minmax, f.features};
  Var loss = term(disc_, nn::concat_cols(full_parts));
  if (cfg_.use_aux_discriminator) {
    std::vector<Var> head_parts{f.attributes, f.minmax};
    loss = nn::add(loss, nn::mul_scalar(
                             term(aux_disc_, nn::concat_cols(head_parts)),
                             cfg_.aux_alpha));
  }
  if (features) *features = f.features;
  return loss;
}

Var DoppelGanger::generator_backward(int n, Var* features) {
  // The critics are frozen so this backward pass neither builds graph
  // through their weights nor accumulates garbage into their grad slots
  // (which the next critic step would otherwise have to zero out).
  nn::FreezeGuard freeze_disc(disc_);
  nn::FreezeGuard freeze_aux(aux_disc_);
  Var loss = generator_loss(n, features);
  g_opt_.zero_grad();
  loss.backward();
  return loss;
}

void DoppelGanger::critic_step(Critic c, const Matrix& real,
                               const Matrix& fake, float& loss_out,
                               float* gp_out, float* grad_norm_out) {
  DG_OBS_SPAN("train.critic_step", "train");
  const Var loss = critic_backward(c, real, fake, gp_out);
  loss_out = loss.value().at(0, 0);
  if (grad_norm_out) *grad_norm_out = nn::global_grad_norm(critic_parameters(c));
  (c == Critic::kFull ? d_opt_ : aux_opt_).step();
}

void DoppelGanger::dp_critic_step(Critic c, const Matrix& real,
                                  const Matrix& fake, float& loss_out,
                                  float* gp_out, float* grad_norm_out) {
  DG_OBS_SPAN("train.dp_critic_step", "train");
  const DpOptions& dp = *cfg_.dp;
  const nn::Mlp& critic = critic_net(c);
  const CriticFn fn = [&critic](const Var& x) { return critic.forward(x); };
  const auto params = critic.parameters();
  std::vector<Matrix> acc;
  acc.reserve(params.size());
  for (const Var& p : params) acc.emplace_back(p.rows(), p.cols(), 0.0f);

  const int n = real.rows();
  const int micro = std::max(1, std::min(dp.microbatches, n));
  float total_loss = 0.0f, total_gp = 0.0f;
  int n_micro = 0;
  for (int start = 0; start < n; start += (n + micro - 1) / micro) {
    const int end = std::min(n, start + (n + micro - 1) / micro);
    if (end <= start) break;
    float micro_gp = 0.0f;
    Var loss = core::critic_loss(fn, nn::slice_rows(real, start, end),
                                 nn::slice_rows(fake, start, end),
                                 cfg_.gp_weight, rng_, &micro_gp);
    total_loss += loss.value().at(0, 0);
    total_gp += micro_gp;
    ++n_micro;
    critic.zero_grad();
    loss.backward();
    nn::clip_grad_norm(params, dp.clip_norm);
    for (size_t i = 0; i < params.size(); ++i) {
      Var g = params[i].grad();
      if (!g.defined()) continue;
      const float* gv = g.value().data();
      float* av = acc[i].data();
      for (size_t j = 0; j < acc[i].size(); ++j) av[j] += gv[j];
    }
  }
  // Gaussian noise calibrated to the clipping norm, then average; the
  // result is written straight into each trainable parameter's grad slot.
  // One draw per element, a stack block at a time, in element order.
  const float sigma = dp.noise_multiplier * dp.clip_norm;
  const auto denom = static_cast<float>(n_micro);
  constexpr std::size_t kNoiseBlock = 1024;
  float noise[kNoiseBlock];
  critic.zero_grad();
  for (size_t i = 0; i < params.size(); ++i) {
    const std::span<float> sum = acc[i].flat();
    for (std::size_t j0 = 0; j0 < sum.size(); j0 += kNoiseBlock) {
      const std::span<float> z(noise, std::min(kNoiseBlock, sum.size() - j0));
      rng_.fill_normal(z, 0.0, sigma);
      for (std::size_t j = 0; j < z.size(); ++j) {
        sum[j0 + j] = (sum[j0 + j] + z[j]) / denom;
      }
    }
    Var p = params[i];
    if (p.requires_grad()) p.set_grad(std::move(acc[i]));
  }
  // The installed gradient is the released one (clipped + noised), so the
  // reported norm reflects what the optimizer actually consumes.
  if (grad_norm_out) *grad_norm_out = nn::global_grad_norm(params);
  (c == Critic::kFull ? d_opt_ : aux_opt_).step();
  loss_out = n_micro > 0 ? total_loss / static_cast<float>(n_micro) : 0.0f;
  if (gp_out) *gp_out = n_micro > 0 ? total_gp / static_cast<float>(n_micro) : 0.0f;
}

TrainStats DoppelGanger::run_training(const data::Dataset& train,
                                      int iterations) {
  // The continuation mask is a running product of continue probabilities:
  // over a long series (T=280) it sinks through the float subnormal range,
  // where every operand costs x86 a microcode assist. Training flushes
  // subnormals, as TensorFlow's CPU workers do; generation keeps gradual
  // underflow. The guard also covers the pool's partitions (nn/parallel.h).
  const nn::FlushDenormalsGuard flush_denormals;
  if (train.empty()) throw std::invalid_argument("fit: empty training set");
  // Preflight: meta-execute one full training step with the live
  // parameters overlaid (config validation, shape rules, the WGAN-GP
  // double-backward audit, adjoint shapes, def-before-use on every optimizer
  // gradient slot; see analysis/train_step.h), so structural defects —
  // including an accidentally frozen model — fail here with attribution
  // instead of mid-training or, worse, training that converges wrong.
  {
    std::vector<analysis::RuntimeParamInfo> runtime;
    for (const auto& [name, p] : named_parameters()) {
      runtime.push_back({name, p.rows(), p.cols(), p.requires_grad()});
    }
    analysis::TrainStepOptions opts;
    opts.runtime_params = runtime;
    const analysis::TrainingStepAnalysis preflight =
        analysis::analyze_training_step(codec_.schema(), cfg_, opts);
    if (!preflight.ok()) {
      throw std::invalid_argument("fit: preflight failed:\n" +
                                  render_diagnostics(preflight.diagnostics));
    }
  }
  const data::EncodedDataset enc = codec_.encode(train);
  const int n = static_cast<int>(train.size());

  TrainStats stats;
  stats.d_loss.reserve(static_cast<size_t>(iterations));
  stats.g_loss.reserve(static_cast<size_t>(iterations));

  for (int iter = 0; iter < iterations; ++iter) {
    DG_OBS_SPAN("train.iteration", "train");
    const auto iter_t0 = std::chrono::steady_clock::now();
    float d_loss = 0.0f, aux_loss = 0.0f;
    float gp_penalty = 0.0f, d_grad_norm = 0.0f;
    for (int ds = 0; ds < cfg_.d_steps; ++ds) {
      // Real batch.
      const int b = std::min(cfg_.batch, n);
      auto idx = rng_.sample_without_replacement(n, b);
      Matrix real_attr = take_rows(enc.attributes, idx);
      Matrix real_mm = minmax_enabled_ ? take_rows(enc.minmax, idx) : Matrix(b, 0);
      Matrix real_feat = take_rows(enc.features, idx);
      Matrix real_full = hcat(real_attr, real_mm, real_feat);
      Matrix real_head = hcat(real_attr, real_mm);

      // Fake batch, detached (the critics' step must not touch G).
      const FakeBatch fake = fake_batch(b);

      // Telemetry follows the full critic's last d-step (the aux critic's
      // penalty/norm are secondary; its loss is already reported).
      if (cfg_.dp) {
        dp_critic_step(Critic::kFull, real_full, fake.full, d_loss,
                       &gp_penalty, &d_grad_norm);
        if (cfg_.use_aux_discriminator) {
          dp_critic_step(Critic::kAux, real_head, fake.head, aux_loss);
        }
      } else {
        critic_step(Critic::kFull, real_full, fake.full, d_loss, &gp_penalty,
                    &d_grad_norm);
        if (cfg_.use_aux_discriminator) {
          critic_step(Critic::kAux, real_head, fake.head, aux_loss);
        }
      }
    }

    // Generator step: L1 + alpha * L2 (Eq. 2), minimized over G.
    const int b = std::min(cfg_.batch, n);
    DG_OBS_SPAN("train.generator_step", "train");
    Var features;
    const Var g_loss = generator_backward(b, &features);
    const float g_grad_norm = nn::global_grad_norm(generator_parameters());
    g_opt_.step();

    const FeatureSpread spread = feature_spread(features.value());
    const float wall_ms =
        std::chrono::duration<float, std::milli>(
            std::chrono::steady_clock::now() - iter_t0)
            .count();
    const float g_loss_v = g_loss.value().at(0, 0);

    stats.d_loss.push_back(d_loss);
    stats.aux_loss.push_back(aux_loss);
    stats.g_loss.push_back(g_loss_v);
    stats.gp_penalty.push_back(gp_penalty);
    stats.d_grad_norm.push_back(d_grad_norm);
    stats.g_grad_norm.push_back(g_grad_norm);
    stats.feat_spread.push_back(spread.mean_spread);
    stats.feat_min.push_back(spread.min);
    stats.feat_max.push_back(spread.max);
    stats.wall_ms.push_back(wall_ms);

    // Last-value gauges in the process registry (picked up by `dgcli check`
    // and any co-resident metrics export); the full series goes to the run
    // logger when one is attached.
    obs::Registry& reg = obs::Registry::global();
    reg.counter("train.iterations").add(1);
    reg.gauge("train.d_loss").set(d_loss);
    reg.gauge("train.g_loss").set(g_loss_v);
    reg.gauge("train.gp_penalty").set(gp_penalty);
    reg.gauge("train.feat_spread").set(spread.mean_spread);
    reg.histogram("train.iter_ms").record(wall_ms);

    const std::uint64_t global_iter = iters_done_++;
    if (run_logger_) {
      obs::TrainIterRecord rec;
      rec.iter = static_cast<int>(global_iter);
      rec.d_loss = d_loss;
      rec.aux_loss = aux_loss;
      rec.g_loss = g_loss_v;
      rec.gp_penalty = gp_penalty;
      rec.g_grad_norm = g_grad_norm;
      rec.d_grad_norm = d_grad_norm;
      rec.feat_spread = spread.mean_spread;
      rec.feat_min = spread.min;
      rec.feat_max = spread.max;
      rec.wall_ms = wall_ms;
      run_logger_->log_iteration(rec);
    }
  }
  return stats;
}

TrainStats DoppelGanger::fit(const data::Dataset& train) {
  return run_training(train, cfg_.iterations);
}

TrainStats DoppelGanger::fit_more(const data::Dataset& train, int iterations) {
  return run_training(train, iterations);
}

void DoppelGanger::retrain_attributes(
    const std::function<std::vector<float>(nn::Rng&)>& target_sampler,
    int iterations) {
  const nn::FlushDenormalsGuard flush_denormals;  // as in run_training
  nn::Rng init = rng_.fork();
  nn::Mlp critic(codec_.attribute_dim(), 1, cfg_.disc_hidden, cfg_.disc_layers,
                 init);
  nn::Adam c_opt(critic.parameters(), {.lr = cfg_.lr});
  nn::Adam g_opt(attr_gen_.parameters(), {.lr = cfg_.lr});
  const CriticFn fn = [&critic](const Var& x) { return critic.forward(x); };

  for (int iter = 0; iter < iterations; ++iter) {
    const int b = cfg_.batch;
    for (int ds = 0; ds < cfg_.d_steps; ++ds) {
      std::vector<std::vector<float>> rows;
      rows.reserve(static_cast<size_t>(b));
      for (int i = 0; i < b; ++i) rows.push_back(target_sampler(rng_));
      Matrix real = data::encode_attribute_rows(codec_.schema(), rows);

      Matrix fake;
      {
        nn::NoGradGuard guard;
        fake = apply_blocks(attr_gen_.forward(noise(b, cfg_.attr_noise_dim)),
                            attr_blocks_)
                   .value();
      }
      Var closs = core::critic_loss(fn, real, fake, cfg_.gp_weight, rng_);
      c_opt.zero_grad();
      closs.backward();
      c_opt.step();
    }

    // As in run_training: freeze the critic for the generator's step.
    nn::FreezeGuard freeze_critic(critic);
    Var fake_attr = apply_blocks(
        attr_gen_.forward(noise(b, cfg_.attr_noise_dim)), attr_blocks_);
    Var gloss = core::generator_loss(fn, fake_attr);
    g_opt.zero_grad();
    gloss.backward();
    g_opt.step();
  }
}

void DoppelGanger::save(std::ostream& os) const {
  std::vector<Var> all;
  for (const auto& [name, p] : named_parameters()) all.push_back(p);
  nn::save_parameters(os, all);
}

void DoppelGanger::load(std::istream& is) {
  std::vector<Var> all;
  for (const auto& [name, p] : named_parameters()) all.push_back(p);
  nn::load_parameters(is, all);
}

}  // namespace dg::core
