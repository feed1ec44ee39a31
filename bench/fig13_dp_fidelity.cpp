// Figure 13 (+ Fig 32): DP-SGD training of DoppelGANger destroys temporal
// fidelity as the privacy budget epsilon shrinks. For each noise multiplier
// we train with DP-SGD on the critics, account epsilon with the RDP
// accountant, and report the autocorrelation (and its MSE vs real data).
#include "common.h"
#include "eval/metrics.h"
#include "privacy/rdp_accountant.h"

int main() {
  using namespace dg;
  bench::header("Figure 13 / Figure 32 — DP-SGD: privacy budget vs autocorrelation fidelity");

  const int t = 140;
  const auto d = bench::wwt_data(bench::scaled(200), t);
  const int max_lag = t * 4 / 7;
  const auto real_ac = eval::mean_autocorrelation(d.data, 0, max_lag);

  struct Variant {
    const char* label;
    double noise_multiplier;  // 0 = no DP (epsilon = inf)
  };
  const Variant variants[] = {
      {"epsilon=+inf (no DP)", 0.0},
      {"sigma=0.1", 0.1},
      {"sigma=0.5", 0.5},
      {"sigma=1.0", 1.0},
      {"sigma=2.0", 2.0},
  };

  std::vector<std::vector<double>> acs;
  std::vector<std::string> labels;
  std::printf("variant,epsilon(delta=1e-5),autocorr_mse\n");
  for (const auto& v : variants) {
    auto cfg = bench::dg_config(t, 350, 5);
    if (v.noise_multiplier > 0) {
      cfg.dp = core::DpOptions{.clip_norm = 1.0f,
                               .noise_multiplier =
                                   static_cast<float>(v.noise_multiplier),
                               .microbatches = 4};
    }
    core::DoppelGanger model(d.schema, cfg);
    std::fprintf(stderr, "[fig13] training %s...\n", v.label);
    model.fit(d.data);
    const auto gen = model.generate(80);
    const auto ac = eval::mean_autocorrelation(gen, 0, max_lag);

    double eps = -1;
    if (v.noise_multiplier > 0) {
      const double q =
          core::dp_sampling_rate(cfg, static_cast<int>(d.data.size()));
      privacy::RdpAccountant acc(q, v.noise_multiplier);
      acc.add_steps(cfg.iterations * core::dp_mechanisms_per_iteration(cfg));
      eps = acc.epsilon(1e-5).first;
    }
    if (eps < 0) {
      std::printf("%s,inf,%.5f\n", v.label, eval::mse(real_ac, ac));
    } else {
      std::printf("%s,%.2f,%.5f\n", v.label, eps, eval::mse(real_ac, ac));
    }
    std::fflush(stdout);
    acs.push_back(ac);
    labels.push_back(v.label);
  }

  std::printf("\nAutocorrelation series:\nlag");
  std::printf(",Real");
  for (const auto& l : labels) std::printf(",%s", l.c_str());
  std::printf("\n");
  for (int l = 0; l <= max_lag; l += 4) {
    std::printf("%d,%.4f", l, real_ac[static_cast<size_t>(l)]);
    for (const auto& ac : acs) std::printf(",%.4f", ac[static_cast<size_t>(l)]);
    std::printf("\n");
  }
  std::printf(
      "\nPaper shape: smaller epsilon (more noise) progressively destroys the "
      "weekly/annual autocorrelation structure; even moderate budgets hurt.\n");
  return 0;
}
