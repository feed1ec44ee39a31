// Training workloads: the data holder's side of the paper's Fig 2 workflow.
//
//   train-wwt      paper sizes (T=280, S=10: a 28-step unroll, an ~850-column
//                  critic input, the GP double backward). FLOP-bound: kernel
//                  and generator-backward work dominate.
//   train-gcut-dp  gcut sizes (10 LSTM steps) with DP-SGD: every critic step
//                  becomes 8 small GP passes plus the proxy-backward gradient
//                  install, so per-op overhead dominates, not FLOPs.
#include <algorithm>
#include <cmath>
#include <memory>

#include "ledger.h"
#include "nn/parallel.h"
#include "synth/synth.h"

namespace dg::ledger {
namespace {

/// Mean per-iteration split of the train.* spans the trainer emits. Each
/// iteration span holds the full critic step, then the auxiliary critic
/// step, then the generator step; the rest of it is the fake forward and
/// batch preparation. The four parts sum to the iteration span.
void add_train_span_layers(Result& r, const std::vector<obs::TraceEvent>& ev,
                           double wall_ms_mean) {
  std::vector<const obs::TraceEvent*> iters, critics, gens;
  for (const obs::TraceEvent& e : ev) {
    if (e.name == "train.iteration") {
      iters.push_back(&e);
    } else if (e.name == "train.critic_step" ||
               e.name == "train.dp_critic_step") {
      critics.push_back(&e);
    } else if (e.name == "train.generator_step") {
      gens.push_back(&e);
    }
  }
  if (iters.empty()) return;
  const auto inside = [](const obs::TraceEvent* c, const obs::TraceEvent* p) {
    return c->tid == p->tid && c->ts_us >= p->ts_us &&
           c->ts_us + c->dur_us <= p->ts_us + p->dur_us;
  };
  double iter_us = 0, full_us = 0, aux_us = 0, gen_us = 0;
  for (const obs::TraceEvent* it : iters) {
    iter_us += static_cast<double>(it->dur_us);
    int k = 0;
    for (const obs::TraceEvent* c : critics) {
      if (!inside(c, it)) continue;
      (k++ == 0 ? full_us : aux_us) += static_cast<double>(c->dur_us);
    }
    for (const obs::TraceEvent* g : gens) {
      if (inside(g, it)) gen_us += static_cast<double>(g->dur_us);
    }
  }
  const double n = static_cast<double>(iters.size());
  const auto per_iter = [n](double us) { return us / n / 1e3; };
  const double self = per_iter(iter_us - full_us - aux_us - gen_us);
  const std::size_t count = iters.size();
  r.layers["train.critic_full_ms"] = {per_iter(full_us), "ms", count};
  r.layers["train.critic_aux_ms"] = {per_iter(aux_us), "ms", count};
  r.layers["train.generator_step_ms"] = {per_iter(gen_us), "ms", count};
  r.layers["train.iter_self_ms"] = {self, "ms", count};
  r.layers["train.iter_span_ms"] = {per_iter(iter_us), "ms", count};
  // Span time versus the TrainStats::wall_ms the end-to-end metrics use.
  r.layers["train.iter_residual_ms"] = {per_iter(iter_us) - wall_ms_mean,
                                        "ms", count};
  r.self_ms = {{"train.critic_full", per_iter(full_us)},
               {"train.critic_aux", per_iter(aux_us)},
               {"train.generator_step", per_iter(gen_us)},
               {"train.iter_self", self}};
}

/// Hash of the final losses and every generator parameter: equal across
/// two commits iff the training arithmetic is unchanged.
std::uint64_t train_fingerprint(const core::TrainStats& st,
                                const core::DoppelGanger& model) {
  std::uint64_t h = fnv1a(st.d_loss.data(), st.d_loss.size());
  h = fnv1a(st.aux_loss.data(), st.aux_loss.size(), h);
  h = fnv1a(st.g_loss.data(), st.g_loss.size(), h);
  for (const nn::Var& p : model.generator_parameters()) {
    h = fnv1a(p.value().data(), p.value().size(), h);
  }
  return h;
}

}  // namespace

Result run_train(const Options& o, bool gcut_dp) {
  // One thread: the pace chunks sample the host where the work runs.
  nn::set_num_threads(1);
  const std::string name = gcut_dp ? "gcut" : "wwt";
  const synth::SynthData d =
      gcut_dp ? synth::make_gcut({.n = o.smoke ? 100 : 800, .seed = o.seed})
              : synth::make_wwt({.n = o.smoke ? 60 : 400, .seed = o.seed});
  const data::Schema schema = committed_schema(o, name, d.schema);
  core::DoppelGangerConfig cfg = committed_config(o, name);
  if (gcut_dp) cfg.dp = core::DpOptions{};  // clip 1, noise 1, 8 microbatches
  const int warmup_iterations = o.smoke ? 1 : 3;

  Result r;
  // Set-up: construction plus a short warm-up fit (allocator warm),
  // repeated so its median is steady.
  std::unique_ptr<core::DoppelGanger> model;
  const double setup_s = paced_setup_s(
      o.setup_repeats(5), [&] { model.reset(); },
      [&] {
        model = std::make_unique<core::DoppelGanger>(schema, cfg);
        model->fit_more(d.data, warmup_iterations);
      });

  // Timed: a fixed number of iterations, so two commits do the same work
  // from the same state. Iteration cost moves with the training state (the
  // first ~30 train-wwt iterations run ~2.5x slower than later ones), so a
  // fixed wall-time window would compare different mixes. Each iteration is
  // a fit_more call of its own with a pace chunk before it; every call also
  // re-runs the fit preflight and encodes the data, which
  // TrainStats::wall_ms leaves out.
  const int iterations =
      static_cast<int>(std::ceil(o.seconds * (gcut_dp ? 10.0 : 6.0)));
  Pace pace;
  core::TrainStats all;
  TraceCapture trace(o.trace);
  trace.start();
  for (int i = 0; i < iterations; ++i) {
    pace.tick(1);
    const core::TrainStats st = model->fit_more(d.data, 1);
    all.d_loss.push_back(st.d_loss.at(0));
    all.aux_loss.push_back(st.aux_loss.at(0));
    all.g_loss.push_back(st.g_loss.at(0));
    all.wall_ms.push_back(st.wall_ms.at(0));
  }
  trace.stop();
  std::vector<double> wall_ms(all.wall_ms.begin(), all.wall_ms.end());
  for (std::size_t i = 0; i < all.wall_ms.size(); ++i) {
    r.check(std::isfinite(all.d_loss[i]) && std::isfinite(all.aux_loss[i]) &&
                std::isfinite(all.g_loss[i]),
            "non-finite loss at timed iteration " + std::to_string(i));
  }

  const std::size_t n = wall_ms.size();
  double sum_ms = 0;
  for (const double w : wall_ms) sum_ms += w;
  const double batch = std::min<double>(cfg.batch, d.data.size());
  const double samples = batch * static_cast<double>(n);
  r.metrics["setup_s"] = {setup_s, "s", static_cast<std::size_t>(o.setup_repeats(5))};
  // One thread, so an iteration's wall time is its CPU time.
  r.metrics["throughput_per_cpu_s"] = {samples / (sum_ms * pace.scale() / 1e3), "1/s", n};
  r.layers["throughput_per_s"] = {samples / (sum_ms / 1e3), "1/s", n};
  r.layers["latency_ms_p50"] = {quantile(wall_ms, 0.5), "ms", n};
  r.layers["latency_ms_p90"] = {quantile(wall_ms, 0.9), "ms", n};
  r.layers["pace.chunk_us"] = {pace.chunk_ms() * 1e3, "us", n};
  r.info.set("unit", "training iteration (batch " +
                         std::to_string(static_cast<int>(batch)) + ")");
  r.info.set("fingerprint", hex(train_fingerprint(all, *model)));

  if (trace.on()) {
    const double mean_ms = sum_ms / static_cast<double>(n);
    add_train_span_layers(r, trace.events(), mean_ms);
    add_profile_layers(r, static_cast<double>(n), mean_ms);
    r.layers["obs.dropped_spans"] = {static_cast<double>(trace.dropped()),
                                     "count", 1};
    r.layers["obs.traced_latency_ms_p50"] = r.layers["latency_ms_p50"];
    add_probe_layers(r, *model, d.data);
  }
  return r;
}

}  // namespace dg::ledger
