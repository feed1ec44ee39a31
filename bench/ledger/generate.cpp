// generate-wwt: the data consumer regenerating from a released model — the
// offline path `dgcli generate` takes. DoppelGanger::generate runs the
// autograd generation_step with no backward pass, no tape, no TCP and no
// cache, so this workload bypasses both training and serving.
#include <memory>

#include "core/package.h"
#include "ledger.h"
#include "nn/parallel.h"
#include "synth/synth.h"

namespace dg::ledger {

Result run_generate(const Options& o) {
  // One thread: the pace chunks sample the host where the work runs.
  nn::set_num_threads(1);
  const int round = o.smoke ? 100 : 1000;
  const synth::SynthData d =
      synth::make_wwt({.n = o.smoke ? 60 : 400, .seed = o.seed});
  const data::Schema schema = committed_schema(o, "wwt", d.schema);
  const core::DoppelGangerConfig cfg = committed_config(o, "wwt");

  // The released model: committed config, flag logits biased so every
  // series runs the full 28-step unroll.
  const std::string pkg = o.work + "/generate-wwt.dgpkg";
  {
    core::DoppelGanger fresh(schema, cfg);
    bias_flags_to_full_length(fresh);
    core::save_package_file(pkg, fresh);
  }

  Result r;
  const int max_len = schema.max_timesteps;
  // Set-up: package load plus a first round of `round` series.
  std::unique_ptr<core::DoppelGanger> model;
  data::Dataset first;
  const double setup_s = paced_setup_s(
      o.setup_repeats(5), [&] { model.reset(); },
      [&] {
        model = core::load_package_file(pkg);
        model->reseed(o.seed);
        first = model->generate(round);
      });
  r.tally(first.size(), count_invalid(first, schema, max_len),
          "invalid series in round 0");

  // Timed: one generation batch (cfg.batch series, as generate() splits
  // any request) after another for --seconds, a pace chunk before each.
  const int unit = cfg.batch;
  Pace pace;
  std::vector<double> unit_ms;
  double cpu_ms = 0;
  TraceCapture trace(o.trace);
  trace.start();
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(o.seconds));
  while (Clock::now() < end) {
    pace.tick(1);
    const auto t0 = Clock::now();
    const double c0 = thread_cpu_ms();
    const data::Dataset ds = model->generate(unit);
    cpu_ms += thread_cpu_ms() - c0;
    unit_ms.push_back(ms_since(t0));
    r.tally(ds.size(), count_invalid(ds, schema, max_len),
            "invalid generated series");
  }
  trace.stop();

  model->reseed(o.seed);
  r.check(fingerprint(model->generate(round)) == fingerprint(first),
          "reseeded round 0 is not byte-identical");

  const std::size_t n = unit_ms.size();
  const double series = static_cast<double>(n) * unit;
  double wall_ms = 0;
  for (const double t : unit_ms) wall_ms += t;
  r.metrics["setup_s"] = {setup_s, "s", static_cast<std::size_t>(o.setup_repeats(5))};
  r.metrics["throughput_per_cpu_s"] = {series / (cpu_ms * pace.scale() / 1e3), "1/s", n};
  r.layers["throughput_per_s"] = {series / (wall_ms / 1e3), "1/s", n};
  r.layers["latency_ms_p50"] = {quantile(unit_ms, 0.5), "ms", n};
  r.layers["latency_ms_p90"] = {quantile(unit_ms, 0.9), "ms", n};
  r.layers["pace.chunk_us"] = {pace.chunk_ms() * 1e3, "us", n};
  r.info.set("unit", "generation batch (" + std::to_string(unit) + " series)");
  r.info.set("fingerprint", hex(fingerprint(first)));

  if (trace.on()) {
    add_profile_layers(r, static_cast<double>(n), wall_ms / static_cast<double>(n));
    // No spans on this path: split the batch into the timed kernels and
    // the rest (graph bookkeeping, sampling, decode).
    for (const auto& [name, m] : r.layers) {
      if (name.rfind("nn.kernel.", 0) == 0 && m.unit == "ms") {
        r.self_ms[name.substr(0, name.size() - 3)] = m.value;
      }
    }
    r.self_ms["outside_kernels"] = r.layers["nn.unattributed_ms"].value;
    r.layers["obs.dropped_spans"] = {static_cast<double>(trace.dropped()),
                                     "count", 1};
    r.layers["obs.traced_latency_ms_p50"] = r.layers["latency_ms_p50"];
    add_probe_layers(r, *model, d.data);
  }
  return r;
}

}  // namespace dg::ledger
