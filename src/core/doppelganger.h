// DoppelGANger (Lin et al., IMC 2020): the paper's architecture of Fig 6.
//
//   attribute MLP  ->  min/max MLP  ->  LSTM + MLP head (S records/step)
//        |                 |                  |
//        +---------+-------+------------------+
//                  v                          v
//          auxiliary critic             full-object critic
//
// Key mechanics implemented here:
//  * decoupled attribute / feature generation with the attributes (and the
//    generated per-sample min/max "fake attributes") fed to the LSTM at
//    every step (§4.1.2, §4.1.3);
//  * batched generation: the MLP head emits S consecutive records per LSTM
//    step (§4.1.1);
//  * generation flags with a differentiable continuation mask so generated
//    series are zero-padded past their end exactly like real ones (§4.1.1);
//  * two WGAN-GP critics combined as L1 + alpha * L2 (§4.2-4.3);
//  * attribute-generator retraining for flexibility / attribute-distribution
//    masking (§5.2, §5.3.2);
//  * optional DP-SGD training of the critics (§5.3.1).
#pragma once

#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/output_blocks.h"
#include "data/encoding.h"
#include "data/types.h"
#include "nn/layers.h"
#include "nn/optim.h"
#include "nn/rng.h"
#include "obs/runlog.h"

namespace dg::analysis {
struct TapeReport;
}  // namespace dg::analysis

namespace dg::core {

/// Loss family (§4.3): the paper adopts Wasserstein-with-gradient-penalty
/// after finding the original cross-entropy loss markedly worse for
/// categorical variables; Standard is kept for that ablation.
enum class GanLoss { WassersteinGp, Standard };

/// DP-SGD settings for the critics (the only networks that see real data).
struct DpOptions {
  float clip_norm = 1.0f;
  float noise_multiplier = 1.0f;
  int microbatches = 8;
};

struct DoppelGangerConfig {
  // Generator sizes (defaults follow Appendix B).
  int attr_noise_dim = 5;
  int minmax_noise_dim = 5;
  int feat_noise_dim = 5;
  int attr_hidden = 100;
  int attr_layers = 2;
  int minmax_hidden = 100;
  int minmax_layers = 2;
  int lstm_units = 100;
  int head_hidden = 100;
  /// S: records emitted per LSTM step; the paper recommends T/S ~= 50.
  int sample_len = 10;
  /// Auto-normalization via the min/max generator (§4.1.3). Also controls
  /// whether training data is per-sample normalized.
  bool use_minmax_generator = true;
  /// Auxiliary attribute critic (§4.2).
  bool use_aux_discriminator = true;
  /// alpha weighting of the auxiliary critic loss (Eq. 2).
  float aux_alpha = 1.0f;

  // Critics.
  GanLoss loss = GanLoss::WassersteinGp;
  int disc_hidden = 200;
  int disc_layers = 4;
  float gp_weight = 10.0f;
  int d_steps = 1;

  // Optimization.
  float lr = 1e-3f;
  int batch = 50;
  int iterations = 400;
  uint64_t seed = 0;
  std::optional<DpOptions> dp;
};

/// Gaussian-mechanism invocations one DP-SGD training iteration makes on
/// real data: one noised update per critic per d-step, so the auxiliary
/// critic doubles the count. An accountant for a DP run of `iterations`
/// charges `iterations * dp_mechanisms_per_iteration(cfg)` steps.
int dp_mechanisms_per_iteration(const DoppelGangerConfig& cfg);

/// The sampling rate q of each of those mechanisms on a training set of n
/// rows: run_training draws min(batch, n) distinct rows per d-step, so
/// q = min(batch, n) / n, at most 1. Throws on n <= 0.
double dp_sampling_rate(const DoppelGangerConfig& cfg, int n);

struct TrainStats {
  std::vector<float> d_loss;
  std::vector<float> aux_loss;
  std::vector<float> g_loss;
  // Telemetry series, one entry per iteration (same length as the above):
  std::vector<float> gp_penalty;   // raw E[(||grad||-1)^2] of the full critic's
                                   // last d-step (before gp_weight scaling)
  std::vector<float> d_grad_norm;  // global L2 of the full critic's gradients
                                   // after its last d-step backward
  std::vector<float> g_grad_norm;  // global L2 of the generator's gradients
  std::vector<float> feat_spread;  // collapse sentinel: mean per-column
                                   // (max - min) over the fake feature batch
  std::vector<float> feat_min;     // batch-global extrema of fake features
  std::vector<float> feat_max;
  std::vector<float> wall_ms;      // wall time of the iteration
};

/// Per-series conditioning sampled once up front: the activated attribute
/// and min/max generator outputs (the LSTM sees them at every step). Rows
/// are independent lanes — the batched stepper below never mixes rows, so a
/// lane's output depends only on its own context and noise stream.
struct GenContext {
  nn::Matrix attributes;  // [n, attr_dim]
  nn::Matrix minmax;      // [n, minmax_dim] (0-wide when disabled)
  nn::Matrix cond;        // [n, attr_dim + minmax_dim] (precomputed concat)
};

/// Recurrent state of a batch of lanes advanced one LSTM step at a time.
struct GenState {
  nn::Matrix h;     // [n, lstm_units]
  nn::Matrix c;     // [n, lstm_units]
  nn::Matrix mask;  // [n, 1] continuation mask (product of continue flags)
  int step = 0;     // LSTM steps taken so far
};

/// Outcome of conditional generation; `objects` holds whatever matched even
/// when the target count was not reached.
struct ConditionalResult {
  data::Dataset objects;
  bool complete = false;   // objects.size() == requested
  int batches_used = 0;    // generation rounds consumed
  long long candidates = 0;  // total candidates drawn
};

class TapeExecutor;

class DoppelGanger {
 public:
  DoppelGanger(data::Schema schema, DoppelGangerConfig cfg);
  ~DoppelGanger();

  /// Trains for cfg.iterations generator steps (call repeatedly with
  /// fit_more to continue — useful for epoch sweeps).
  TrainStats fit(const data::Dataset& train);
  TrainStats fit_more(const data::Dataset& train, int iterations);

  /// Streams every training iteration's telemetry (losses, grad norms,
  /// gradient-penalty magnitude, the feature-range collapse sentinel) to a
  /// run directory as JSONL, consumable live by `dgcli top` and offline by
  /// tools/plot_run.py. Iteration numbering is cumulative across fit /
  /// fit_more calls. Pass nullptr to detach.
  void set_run_logger(std::shared_ptr<obs::RunLogger> logger) {
    run_logger_ = std::move(logger);
  }

  /// Draws n synthetic objects from the trained model, cfg.batch at a
  /// time: sample_context from the model's own RNG, then one noise draw per
  /// step, each step replayed on the verified generation tape
  /// (core/tape_exec.h), which the model builds on first use. The bytes are
  /// those of the same loop over generation_step. Throws
  /// std::invalid_argument for n < 0 or a model whose tape does not build.
  data::Dataset generate(int n);

  /// Rejection-samples n objects whose attributes satisfy `accept` — the
  /// consumer-side "desired attribute distribution" input of Fig 2 when
  /// retraining the attribute generator is not warranted — from at most
  /// `max_batches` generate(cfg.batch) rounds. A predicate too rare for
  /// that budget gives a partial result (complete == false), not an error.
  /// The serving path degrades the same way through SlotSampler's
  /// per-series `where` predicates and attempt budgets (serve/sampler.h).
  ConditionalResult generate_conditional(
      int n, const std::function<bool(const data::Object&)>& accept,
      int max_batches = 200);

  // ---- stepwise generation (inference; the serving runtime's substrate) --
  //
  // A series is produced as: ctx = sample_context(...), st = initial state,
  // then steps_per_series() steps, each emitting sample_len() records per
  // lane. generate() and the sampler take each step on the tape
  // (core/tape_exec.h); generation_step() takes it on autograd and is the
  // tape's oracle. All methods are const and draw solely
  // from the caller-supplied RNG / noise, so independent callers can share
  // one loaded model. Row r of every matrix is an independent lane: the
  // kernels underneath are row-partitioned, so a lane's records are
  // bit-identical regardless of what the other lanes in the batch carry —
  // the determinism contract src/serve's slot recycling is built on.

  /// Samples n series' conditioning (attribute + min/max rows) from `rng`.
  GenContext sample_context(int n, nn::Rng& rng) const;

  /// As sample_context, but clamps the listed attribute fields to fixed raw
  /// values after sampling (categorical: category index; continuous: raw
  /// value), re-encoding the row before the min/max generator sees it. An
  /// empty index list means "fix nothing" and is identical to
  /// sample_context. Field indices are schema attribute positions. This is
  /// context_forward after one stream's draws: all n rows of attribute
  /// noise, then all n rows of min/max noise.
  GenContext sample_context_fixed(
      int n, const std::vector<std::pair<int, float>>& fixed,
      nn::Rng& rng) const;

  /// The context forward over noise the caller drew: row i of `attr_noise`
  /// [n, attr_noise_dim()] and of `minmax_noise` [n, minmax_noise_dim()]
  /// give row i of the context, with the clamps *fixed[i]* (none when null)
  /// applied between the attribute and the min/max generator, as in
  /// sample_context_fixed; a one-entry `fixed` clamps every row alike.
  /// Every op is row-local, so row i's bytes depend on row i's noise and
  /// clamps only, at any n: the sampler draws the contexts of every lane it
  /// admits in one pump, each row from its lane's stream, as one forward.
  /// Throws std::invalid_argument on a shape mismatch or a clamp outside the
  /// schema.
  GenContext context_forward(
      nn::Matrix attr_noise, nn::Matrix minmax_noise,
      std::span<const std::vector<std::pair<int, float>>* const> fixed) const;

  /// Zeroed LSTM state + all-ones continuation masks for n lanes.
  GenState initial_gen_state(int n) const;

  /// Advances every lane one LSTM step: consumes noise [n, feat_noise_dim]
  /// (one row per lane, drawn by the caller), updates `state` in place and
  /// returns the sample_len() new records [n, sample_len * record_width()],
  /// already continuation-masked exactly like the training-time unroll.
  /// This is the autograd forward: generation replays the tape lowered from
  /// it, and the tests and the analyzer use it as that tape's oracle.
  nn::Matrix generation_step(const GenContext& ctx, const nn::Matrix& noise,
                             GenState& state) const;

  /// One generation step on autograd values: generation_step wraps this
  /// with constants, and the generation tape is lowered from a meta-mode
  /// trace of it (analysis/tape.h).
  struct StepVars {
    nn::Var records;  // [n, sample_len * record_width]
    nn::Var h;
    nn::Var c;
    nn::Var mask;
  };
  StepVars generation_step_graph(const nn::Var& cond, const nn::Var& noise,
                                 const nn::Var& h, const nn::Var& c,
                                 const nn::Var& mask) const;

  int steps_per_series() const { return steps_per_series_; }
  int sample_len() const { return cfg_.sample_len; }
  int record_width() const { return record_width_; }
  int feat_noise_dim() const { return cfg_.feat_noise_dim; }
  int attr_noise_dim() const { return cfg_.attr_noise_dim; }
  /// Min/max noise columns per context row: 0 when the min/max generator is
  /// off, so a row draws nothing after its attribute noise.
  int minmax_noise_dim() const {
    return minmax_enabled_ ? cfg_.minmax_noise_dim : 0;
  }

  /// The verified generation tape the package preflight lowered, when this
  /// model came from load_package (core/package.h); null for a model built
  /// in-process. TapeExecutor::create_or_throw builds from it, so a loaded
  /// model's generate() and samplers lower no tape of their own.
  const analysis::TapeReport* generation_tape() const {
    return gen_tape_.get();
  }

  /// Re-seeds the model's own generation RNG (used by `dgcli generate
  /// --seed` and the package round-trip tests to pin regeneration).
  void reseed(uint64_t seed) { rng_ = nn::Rng(seed); }

  /// Flexibility / business-secret masking (§5.2, §5.3.2): adversarially
  /// retrains ONLY the attribute generator against raw attribute rows drawn
  /// from `target_sampler`; the conditional feature generator is untouched.
  void retrain_attributes(
      const std::function<std::vector<float>(nn::Rng&)>& target_sampler,
      int iterations);

  /// Model release (Fig 2): (de)serializes every network's parameters. The
  /// receiving side must construct the model with the same schema + config.
  void save(std::ostream& os) const;
  void load(std::istream& is);

  const data::Schema& schema() const { return codec_.schema(); }
  const DoppelGangerConfig& config() const { return cfg_; }
  const data::GanCodec& codec() const { return codec_; }
  std::vector<nn::Var> generator_parameters() const;
  /// Every parameter matrix with its name ("attr_gen.l0.w", "lstm.wh",
  /// "disc.l2.b", ...) in save() order: the generator networks, the full
  /// critic, then the auxiliary critic.
  std::vector<std::pair<std::string, nn::Var>> named_parameters() const;

  // ---- one training iteration, phase by phase ----
  //
  // run_training composes these with batch sampling, telemetry and the
  // optimizer steps; none of them samples real data or steps an optimizer.
  // The static analyzer meta-executes them (analysis/train_step.h), so it
  // audits this code rather than a copy of it.

  /// The two WGAN critics (§4.2).
  enum class Critic { kFull, kAux };
  std::vector<nn::Var> critic_parameters(Critic c) const;

  /// The critics' fake batches from one detached n-sample generator pass
  /// (under NoGradGuard): [attributes | minmax | features] for the full
  /// critic, [attributes | minmax] for the auxiliary one.
  struct FakeBatch {
    nn::Matrix full;
    nn::Matrix head;
  };
  FakeBatch fake_batch(int n);

  /// A critic's loss on (real, fake) — WGAN-GP, whose gradient penalty
  /// differentiates through autograd::grad(create_graph=true), or the
  /// standard loss — then its backward pass into the critic's zeroed grad
  /// slots. `gp_out` receives the raw penalty (0 without one).
  nn::Var critic_backward(Critic c, const nn::Matrix& real,
                          const nn::Matrix& fake, float* gp_out = nullptr);

  /// The generator objective L1 + alpha * L2 (Eq. 2) through both critics,
  /// frozen, on a fresh n-sample forward pass, then its backward pass into
  /// the generator's zeroed grad slots; `features` receives the fake
  /// features.
  nn::Var generator_backward(int n, nn::Var* features = nullptr);

 private:
  // The losses critic_backward and generator_backward differentiate.
  nn::Var critic_loss(Critic c, const nn::Matrix& real, const nn::Matrix& fake,
                      float* gp_out);
  nn::Var generator_loss(int n, nn::Var* features);

  struct GenOut {
    nn::Var attributes;  // [n, attr_dim]
    nn::Var minmax;      // [n, minmax_dim] (0-wide when disabled)
    nn::Var features;    // [n, tmax * record_width]
  };

  GenOut forward(int n);
  nn::Var noise(int n, int dim);
  const nn::Mlp& critic_net(Critic c) const;
  void critic_step(Critic c, const nn::Matrix& real, const nn::Matrix& fake,
                   float& loss_out, float* gp_out = nullptr,
                   float* grad_norm_out = nullptr);
  void dp_critic_step(Critic c, const nn::Matrix& real, const nn::Matrix& fake,
                      float& loss_out, float* gp_out = nullptr,
                      float* grad_norm_out = nullptr);
  TrainStats run_training(const data::Dataset& train, int iterations);

  DoppelGangerConfig cfg_;
  data::GanCodec codec_;
  bool minmax_enabled_ = false;

  std::vector<OutputBlock> attr_blocks_;
  std::vector<OutputBlock> minmax_blocks_;
  std::vector<OutputBlock> step_blocks_;  // S records worth of blocks
  int record_width_ = 0;
  int steps_per_series_ = 0;

  nn::Mlp attr_gen_;
  nn::Mlp minmax_gen_;
  nn::LstmCell lstm_;
  nn::Mlp head_;
  nn::Mlp disc_;
  nn::Mlp aux_disc_;

  nn::Adam g_opt_;
  nn::Adam d_opt_;
  nn::Adam aux_opt_;
  nn::Rng rng_;

  std::shared_ptr<obs::RunLogger> run_logger_;
  std::uint64_t iters_done_ = 0;  // cumulative across fit / fit_more
  /// generate()'s engine, built at width cfg.batch on first use.
  std::unique_ptr<TapeExecutor> tape_;
  /// Set once, by load_package, from the preflight that checked the package.
  std::shared_ptr<const analysis::TapeReport> gen_tape_;
  friend std::unique_ptr<DoppelGanger> load_package(std::istream& is);
};

}  // namespace dg::core
