// dg_ledger --workload NAME --seed N --seconds S --trace 0|1
//           --configs DIR --work DIR [--smoke]
//
// Runs one ledger workload in this process and prints one JSON line:
// machine facts, attempted/failed operations, end-to-end metrics, and for
// --trace 1 the per-layer tree. run.py builds this binary, runs it, and
// checks the line against BENCHMARK.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "ledger.h"
#include "nn/parallel.h"
#include "nn/simd/vec.h"

namespace {

using dg::serve::json::Object;
using dg::serve::json::Value;

Value metrics_json(const dg::ledger::Metrics& m) {
  Value v{Object{}};
  for (const auto& [name, metric] : m) {
    Value row{Object{}};
    row.set("value", metric.value);
    row.set("unit", metric.unit);
    row.set("n", static_cast<double>(metric.n));
    v.set(name, std::move(row));
  }
  return v;
}

int usage() {
  std::fprintf(stderr,
               "usage: dg_ledger --workload train-wwt|train-gcut-dp|"
               "generate-wwt|serve-gcut --seed N --seconds S --trace 0|1 "
               "--configs DIR --work DIR [--smoke]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  dg::ledger::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      o.smoke = true;
    } else if (a == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      o.seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      o.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (a == "--configs" && has_value) {
      o.configs = argv[++i];
    } else if (a == "--work" && has_value) {
      o.work = argv[++i];
    } else {
      return usage();
    }
  }
  if (o.configs.empty() || o.work.empty() || !(o.seconds > 0)) return usage();

  dg::ledger::Result r;
  try {
    if (o.workload == "train-wwt") {
      r = dg::ledger::run_train(o, false);
    } else if (o.workload == "train-gcut-dp") {
      r = dg::ledger::run_train(o, true);
    } else if (o.workload == "generate-wwt") {
      r = dg::ledger::run_generate(o);
    } else if (o.workload == "serve-gcut") {
      r = dg::ledger::run_serve(o);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dg_ledger: %s: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  r.metrics["peak_rss_mb"] = {dg::ledger::peak_rss_mb(), "MB", 1};

  Value machine{Object{}};
  machine.set("nproc", static_cast<int>(std::thread::hardware_concurrency()));
  machine.set("simd_tier",
              dg::nn::simd::tier_name(dg::nn::simd::active_tier()));
  machine.set("pool_threads", dg::nn::num_threads());
  machine.set("compiler", "GCC " __VERSION__);
  machine.set("build_type", DG_LEDGER_BUILD_TYPE);

  dg::serve::json::Array failures;
  for (const std::string& f : r.failures) failures.push_back(f);
  Value self{Object{}};
  for (const auto& [name, ms] : r.self_ms) self.set(name, ms);

  Value out{Object{}};
  out.set("workload", o.workload);
  out.set("seed", static_cast<double>(o.seed));
  out.set("seconds", o.seconds);
  out.set("trace", o.trace);
  out.set("machine", std::move(machine));
  out.set("attempted", static_cast<double>(r.attempted));
  out.set("failed", static_cast<double>(r.failed));
  out.set("failures", std::move(failures));
  out.set("metrics", metrics_json(r.metrics));
  out.set("layers", metrics_json(r.layers));
  out.set("self_ms", std::move(self));
  out.set("info", std::move(r.info));
  std::printf("%s\n", dg::serve::json::dump(out).c_str());
  return 0;
}
