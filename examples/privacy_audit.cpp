// Privacy audit (§5.3): before releasing a model, a data holder can measure
// its exposure.
//
//   1. Membership inference: train on a small and a large subset and attack
//      both — the paper's "less is more" lesson is that SMALL training sets
//      are the risky ones.
//   2. DP accounting: what epsilon would DP-SGD training cost at various
//      noise multipliers (before paying the fidelity price of Fig 13)?
#include <cstdio>

#include "core/doppelganger.h"
#include "data/split.h"
#include "nn/rng.h"
#include "privacy/membership.h"
#include "privacy/rdp_accountant.h"
#include "synth/synth.h"

int main() {
  using namespace dg;
  const synth::SynthData d = synth::make_wwt({.n = 440, .t = 140, .annual_period = 70});
  nn::Rng rng(55);
  const auto [pool, nonmembers] = data::train_test_split(d.data, 0.5, rng);

  core::DoppelGangerConfig cfg;
  cfg.sample_len = 5;
  cfg.lstm_units = 48;
  cfg.disc_hidden = 96;
  cfg.disc_layers = 3;
  cfg.batch = 32;
  cfg.d_steps = 2;
  cfg.iterations = 400;
  cfg.seed = 11;

  std::printf("== membership inference audit ==\n");
  std::printf("%-14s %-12s %s\n", "train size", "attack rate", "verdict");
  for (int n_train : {40, 200}) {
    data::Dataset members(pool.begin(), pool.begin() + n_train);
    core::DoppelGanger model(d.schema, cfg);
    model.fit(members);
    const auto generated = model.generate(n_train);
    const int n_non = std::min<int>(n_train, static_cast<int>(nonmembers.size()));
    data::Dataset non(nonmembers.begin(), nonmembers.begin() + n_non);
    const auto res = privacy::membership_inference_attack(generated, members, non, 0);
    std::printf("%-14d %-12.3f %s\n", n_train, res.success_rate,
                res.success_rate > 0.65 ? "EXPOSED — train on more data"
                                        : "near chance (ok)");
  }

  // The aux critic is a second Gaussian mechanism on every d-step's batch.
  const int mechanisms =
      cfg.iterations * core::dp_mechanisms_per_iteration(cfg);
  constexpr int kPlannedRows = 200;
  std::printf("\n== DP-SGD budget planning ==\n");
  std::printf("(batch %d of %d samples, %d Gaussian mechanisms, delta=1e-5)\n",
              cfg.batch, kPlannedRows, mechanisms);
  std::printf("%-8s %-10s\n", "sigma", "epsilon");
  for (double sigma : {0.5, 1.0, 2.0, 4.0}) {
    privacy::RdpAccountant acc(core::dp_sampling_rate(cfg, kPlannedRows),
                               sigma);
    acc.add_steps(mechanisms);
    std::printf("%-8.1f %-10.2f\n", sigma, acc.epsilon(1e-5).first);
  }
  std::printf("\nNote (paper §5.3.1): at the sigmas needed for single-digit\n"
              "epsilon, temporal fidelity degrades badly — run\n"
              "bench/fig13_dp_fidelity to see the trade-off on this build.\n");
  return 0;
}
