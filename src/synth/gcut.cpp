#include <algorithm>
#include <cmath>
#include <span>

#include "nn/rng.h"
#include "synth/synth.h"

namespace dg::synth {

namespace {
/// Clamp helper for the [0,1] usage features.
float u01(double v) {
  return static_cast<float>(std::clamp(v, 0.0, 1.0));
}
}  // namespace

SynthData make_gcut(const GcutOptions& opt) {
  SynthData out;
  out.schema.name = "gcut";
  out.schema.max_timesteps = opt.t_max;
  out.schema.attributes = {
      data::categorical_field("end_event_type",
                              {"EVICT", "FAIL", "FINISH", "KILL"}),
  };
  out.schema.features = {
      data::continuous_field("cpu_rate", 0.0f, 1.0f),
      data::continuous_field("memory_usage", 0.0f, 1.0f),
      data::continuous_field("disk_io", 0.0f, 1.0f),
  };

  nn::Rng rng(opt.seed);
  const double event_w[4] = {0.12, 0.18, 0.45, 0.25};
  // Probability a task is in the long-duration mode, per event type. FINISH
  // tasks are mostly short batch jobs; KILLed tasks are mostly long-running
  // services — this yields the bimodal duration histogram of Fig 7.
  const double long_mode_p[4] = {0.25, 0.45, 0.15, 0.75};

  out.data.reserve(opt.n);
  for (int i = 0; i < opt.n; ++i) {
    data::Object o;
    const int ev = rng.categorical(std::span<const double>(event_w, 4));
    o.attributes = {static_cast<float>(ev)};

    int dur;
    if (rng.bernoulli(long_mode_p[ev])) {
      dur = static_cast<int>(std::lround(rng.normal(40.0, 4.0)));
      dur = std::clamp(dur, std::min(25, opt.t_max), opt.t_max);
    } else {
      dur = static_cast<int>(std::lround(rng.normal(7.0, 2.5)));
      dur = std::clamp(dur, std::min(2, opt.t_max), std::min(15, opt.t_max));
    }

    // Per-task operating points.
    const double cpu_base = rng.uniform(0.15, 0.6);
    const double mem_start = rng.uniform(0.05, 0.3);
    const double disk_base = rng.uniform(0.02, 0.2);

    o.features.reserve(dur);
    double spike = 0.0;
    for (int t = 0; t < dur; ++t) {
      const double frac = dur > 1 ? static_cast<double>(t) / (dur - 1) : 0.0;
      double cpu = cpu_base, mem = mem_start, disk = disk_base;
      switch (ev) {
        case gcut_event::kEvict:
          // Bursty, preempted workloads: cpu spikes, low steady memory.
          if (rng.bernoulli(0.25)) spike = rng.uniform(0.3, 0.6);
          spike *= 0.5;
          cpu = cpu_base * 0.6 + spike;
          mem = mem_start * (1.0 + 0.2 * frac);
          break;
        case gcut_event::kFail:
          // The paper's example: memory climbs until the task dies.
          mem = mem_start + (0.9 - mem_start) * frac;
          cpu = cpu_base * (1.0 - 0.3 * frac);
          disk = disk_base * (1.0 + frac);
          break;
        case gcut_event::kFinish:
          // Healthy batch task: steady cpu, gentle memory ramp, end-of-job
          // output burst on disk.
          cpu = cpu_base;
          mem = mem_start * (1.0 + 0.4 * frac);
          disk = disk_base + (frac > 0.85 ? 0.25 : 0.0);
          break;
        case gcut_event::kKill:
          // Long-running service: oscillating load at a high plateau.
          cpu = 0.45 + 0.25 * std::sin(t * 0.9) * rng.uniform(0.7, 1.3);
          mem = 0.4 + 0.1 * std::sin(t * 0.35);
          break;
      }
      o.features.push_back({u01(cpu + rng.normal(0.0, 0.03)),
                            u01(mem + rng.normal(0.0, 0.02)),
                            u01(disk + rng.normal(0.0, 0.02))});
    }
    out.data.push_back(std::move(o));
  }
  return out;
}

}  // namespace dg::synth
