#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analysis/model.h"
#include "analysis/train_step.h"
#include "core/package.h"
#include "data/encoding.h"
#include "data/io.h"
#include "ledger.h"
#include "nn/matrix.h"
#include "nn/parallel.h"
#include "nn/rng.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "serve/tape_exec.h"

namespace dg::ledger {

void Result::tally(std::uint64_t n, std::uint64_t bad, const std::string& what) {
  attempted += n;
  failed += bad;
  if (bad > 0 && failures.size() < 8) failures.push_back(what);
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double quantile(std::vector<double> v, double q) {
  return obs::exact_quantile(std::move(v), q);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double peak_rss_mb() {
  std::ifstream is("/proc/self/status");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
    }
  }
  return 0.0;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

std::uint64_t fnv1a(const float* p, std::size_t n, std::uint64_t h) {
  return fnv1a(std::string_view(reinterpret_cast<const char*>(p),
                                n * sizeof(float)),
               h);
}

namespace {

std::string read_text(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// Median wall time of `reps` calls of fn, in ms.
template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(std::move(t));
}

}  // namespace

std::uint64_t fingerprint(const data::Dataset& d, std::uint64_t h) {
  for (const data::Object& o : d) {
    h = fnv1a(o.attributes.data(), o.attributes.size(), h);
    for (const auto& rec : o.features) {
      h = fnv1a(rec.data(), rec.size(), h);
    }
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

namespace {

bool object_valid(const data::Object& o, const data::Schema& schema,
                  int max_len) {
  if (o.attributes.size() != schema.attributes.size()) return false;
  for (std::size_t j = 0; j < o.attributes.size(); ++j) {
    const float v = o.attributes[j];
    const data::FieldSpec& f = schema.attributes[j];
    if (!std::isfinite(v)) return false;
    if (f.type == data::FieldType::Categorical &&
        (v != std::floor(v) || v < 0 || v >= static_cast<float>(f.n_categories))) {
      return false;
    }
  }
  if (o.length() < 1 || o.length() > max_len) return false;
  for (const auto& rec : o.features) {
    if (static_cast<int>(rec.size()) != schema.num_features()) return false;
    for (const float x : rec) {
      if (!std::isfinite(x)) return false;
    }
  }
  return true;
}

}  // namespace

std::uint64_t count_invalid(const data::Dataset& d, const data::Schema& schema,
                            int max_len) {
  std::uint64_t bad = 0;
  for (const data::Object& o : d) bad += object_valid(o, schema, max_len) ? 0 : 1;
  return bad;
}

data::Schema committed_schema(const Options& o, const std::string& name,
                              const data::Schema& synth) {
  const std::string path = o.configs + "/" + name + ".schema";
  const std::string committed = read_text(path);
  std::ostringstream ours;
  data::save_schema(ours, synth);
  if (ours.str() != committed) {
    throw std::runtime_error("input guard: the synthetic " + name +
                             " schema differs from " + path);
  }
  std::istringstream is(committed);
  return data::load_schema(is);
}

core::DoppelGangerConfig committed_config(const Options& o,
                                          const std::string& name) {
  std::istringstream is(read_text(o.configs + "/" + name + ".cfg"));
  return core::load_config(is);
}

void bias_flags_to_full_length(core::DoppelGanger& model) {
  auto params = model.generator_parameters();
  nn::Matrix& head_bias = params.back().mutable_value();  // head's last bias
  const int rw = model.record_width();
  for (int s = 0; s < model.sample_len(); ++s) {
    head_bias.at(0, s * rw + rw - 2) += 8.0f;  // continue flag logit
    head_bias.at(0, s * rw + rw - 1) -= 8.0f;  // end flag logit
  }
}

void TraceCapture::start() {
  if (!on_ || running_) return;
  obs::Trace::start();
  obs::Profiler::start();
  running_ = true;
}

TraceCapture::~TraceCapture() { stop(); }

void TraceCapture::drain() {
  if (!running_) return;
  std::vector<obs::TraceEvent> batch = obs::Trace::drain();
  events_.insert(events_.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
}

void TraceCapture::stop() {
  if (!running_) return;
  obs::Profiler::stop();
  drain();
  dropped_ = obs::Trace::dropped();
  obs::Trace::stop();
  running_ = false;
}

void add_profile_layers(Result& r, double units, double unit_ms) {
  if (units <= 0) return;
  double kernel_ns = 0, kernel_flops = 0, op_calls = 0;
  for (const auto& [name, s] : obs::Profiler::snapshot()) {
    if (name.rfind("kernel.", 0) != 0) {
      op_calls += static_cast<double>(s.calls);
      continue;
    }
    kernel_ns += static_cast<double>(s.wall_ns);
    kernel_flops += static_cast<double>(s.flops);
    const std::string row = "nn." + name;
    const double ms = static_cast<double>(s.wall_ns) / 1e6 / units;
    r.layers[row + ".ms"] = {ms, "ms", s.calls};
    if (s.flops > 0 && s.wall_ns > 0) {
      r.layers[row + ".gflops"] = {
          static_cast<double>(s.flops) / static_cast<double>(s.wall_ns),
          "GFLOP/s", s.calls};
    }
  }
  const double kernel_ms = kernel_ns / 1e6 / units;
  const auto n = static_cast<std::size_t>(units);
  r.layers["nn.kernel_ms"] = {kernel_ms, "ms", n};
  r.layers["nn.kernel_gflops"] = {
      kernel_ns > 0 ? kernel_flops / kernel_ns : 0.0, "GFLOP/s", n};
  r.layers["nn.ops"] = {op_calls / units, "count", n};
  r.layers["nn.unattributed_ms"] = {unit_ms - kernel_ms, "ms", n};
}

void add_probe_layers(Result& r, const core::DoppelGanger& model,
                      const data::Dataset& data) {
  const data::Schema& schema = model.schema();
  const core::DoppelGangerConfig& cfg = model.config();
  const data::GanCodec& codec = model.codec();

  r.layers["analysis.preflight_ms"] = {median_ms(3, [&] {
    const auto m = analysis::analyze_model(schema, cfg);
    const auto s = analysis::analyze_training_step(schema, cfg);
    if (!m.ok() || !s.ok()) throw std::runtime_error("probe: preflight failed");
  }), "ms", 3};
  r.layers["analysis.tape_build_ms"] = {median_ms(3, [&] {
    if (!serve::TapeExecutor::create(model, 8)) {
      throw std::runtime_error("probe: tape did not verify");
    }
  }), "ms", 3};

  r.layers["data.encode_ms"] = {
      median_ms(3, [&] { (void)codec.encode(data); }), "ms", 3};
  const data::EncodedDataset enc = codec.encode(data);
  r.layers["data.decode_us_per_series"] = {
      median_ms(3, [&] {
        (void)codec.decode(enc.attributes, enc.minmax, enc.features);
      }) * 1e3 / static_cast<double>(data.size()),
      "us", 3};

  // The three generation paths at width 50, one step's worth each.
  constexpr int kWidth = 50;
  nn::Rng rng(7);
  const int steps = model.steps_per_series();
  r.layers["gen.sample_context_us"] = {
      median_ms(20, [&] { (void)model.sample_context(kWidth, rng); }) * 1e3,
      "us", 20};
  const core::GenContext ctx = model.sample_context(kWidth, rng);
  const nn::Matrix noise = rng.normal_matrix(kWidth, model.feat_noise_dim());
  std::vector<double> autograd_ms;
  for (int rep = 0; rep < 2; ++rep) {
    core::GenState st = model.initial_gen_state(kWidth);
    for (int s = 0; s < steps; ++s) {
      const auto t0 = Clock::now();
      (void)model.generation_step(ctx, noise, st);
      autograd_ms.push_back(ms_since(t0));
    }
  }
  r.layers["gen.autograd_step_us"] = {median(autograd_ms) * 1e3, "us",
                                      autograd_ms.size()};
  auto tape = serve::TapeExecutor::create(model, kWidth);
  if (!tape) throw std::runtime_error("probe: tape did not verify");
  nn::Matrix records(kWidth, model.sample_len() * model.record_width());
  std::vector<double> tape_ms;
  for (int rep = 0; rep < 2; ++rep) {
    core::GenState st = model.initial_gen_state(kWidth);
    for (int s = 0; s < steps; ++s) {
      const auto t0 = Clock::now();
      tape->step(ctx, noise, st, records);
      tape_ms.push_back(ms_since(t0));
    }
  }
  r.layers["gen.tape_step_us"] = {median(tape_ms) * 1e3, "us", tape_ms.size()};

  // Single-thread peak of the matmul micro-kernel at the 64x256x256 shape
  // the microbenchmarks gate on.
  const int threads = nn::num_threads();
  nn::set_num_threads(1);
  const nn::Matrix a = rng.normal_matrix(64, 256);
  const nn::Matrix b = rng.normal_matrix(256, 256);
  constexpr int kCalls = 50;
  const double batch_ms = median_ms(5, [&] {
    for (int i = 0; i < kCalls; ++i) (void)nn::matmul(a, b);
  });
  nn::set_num_threads(threads);
  r.layers["nn.kernel.peak_gflops"] = {
      2.0 * 64 * 256 * 256 * kCalls / (batch_ms * 1e6), "GFLOP/s", 5};
}

}  // namespace dg::ledger
