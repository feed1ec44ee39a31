// Pinned invariants of the static analyzer and of training bytes, recorded
// at a known-good commit. They hold across refactors of how the analyzer
// obtains its graphs (any change here is a behaviour change, not a
// refactor):
//   * over the committed examples/configs pairs: the parameter census, the
//     generation-step width, the generation tape's instruction count and
//     arena peak, and the training step's gradient-slot writes,
//     in-graph accumulations and reduction-order census counts;
//   * FNV-1a hashes of the losses and serialized parameters after a short
//     fit() of a tiny config (one WGAN-GP arm, one DP-SGD arm), and of one
//     generate() batch.
// The project builds with -ffp-contract=off, so the byte hashes hold in
// portable and -march=native builds alike: one value per hash.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "analysis/model.h"
#include "analysis/tape.h"
#include "analysis/train_step.h"
#include "core/doppelganger.h"
#include "core/package.h"
#include "data/io.h"
#include "synth/synth.h"

namespace dg::analysis {
namespace {

struct Pinned {
  const char* name;
  int step_cols;
  int tape_instrs;
  long long arena_bytes;
  int accumulation_adds;
  std::map<std::string, int> census;
};

const Pinned kPinned[] = {
    {"wwt", 30, 140, 4072, 1737,
     {{"affine", 164}, {"col_sum", 110}, {"lstm_gates", 56},
      {"matmul", 8}, {"matmul_nt", 152}, {"matmul_tn", 148},
      {"row_sum", 1130}, {"sum", 10}}},
    {"gcut", 25, 100, 3996, 487,
     {{"affine", 92}, {"col_sum", 56}, {"lstm_gates", 20},
      {"matmul", 8}, {"matmul_nt", 80}, {"matmul_tn", 76},
      {"row_sum", 204}, {"sum", 10}}},
};

std::string example_path(const char* name, const char* ext) {
  std::string path = DG_SOURCE_DIR;
  path += "/examples/configs/";
  path += name;
  path += ext;
  return path;
}

TEST(Invariants, ExampleConfigsAnalyzeToPinnedCensus) {
  for (const Pinned& p : kPinned) {
    SCOPED_TRACE(p.name);
    const data::Schema schema =
        data::load_schema_file(example_path(p.name, ".schema"));
    std::ifstream cfg_in(example_path(p.name, ".cfg"));
    ASSERT_TRUE(cfg_in.good());
    const core::DoppelGangerConfig cfg = core::load_config(cfg_in);

    const ModelAnalysis ma = analyze_model(schema, cfg);
    EXPECT_TRUE(ma.ok());
    EXPECT_EQ(ma.parameters.size(), 39u);
    EXPECT_EQ(ma.generation_step_cols, p.step_cols);

    const TapeSummary tape = summarize_tape(build_generation_tape(schema, cfg));
    EXPECT_EQ(tape.instructions, p.tape_instrs);
    EXPECT_EQ(tape.arena_peak_bytes, p.arena_bytes);
    EXPECT_TRUE(tape.verified);

    const TrainingStepAnalysis ts = analyze_training_step(schema, cfg);
    EXPECT_TRUE(ts.ok());
    EXPECT_EQ(ts.grad_slot_writes, 39);
    EXPECT_EQ(ts.accumulation_adds, p.accumulation_adds);
    std::map<std::string, int> reductions;
    for (const ReductionSite& site : ts.census) {
      if (site.det == DetClass::kOrderedReduction) {
        reductions[site.op] = site.count;
      }
    }
    EXPECT_EQ(reductions, p.census);
  }
}

// ---- byte hashes ----------------------------------------------------------

struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void floats(const std::vector<float>& v) {
    if (!v.empty()) bytes(v.data(), v.size() * sizeof(float));
  }
};

constexpr std::uint64_t kWganFitHash = 0x75599bda390af20full;
constexpr std::uint64_t kGenerateHash = 0x0fe41966593899a9ull;
constexpr std::uint64_t kDpFitHash = 0x155a289b6cbf70a6ull;

core::DoppelGangerConfig tiny_cfg() {
  core::DoppelGangerConfig cfg;
  cfg.attr_hidden = 8;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 8;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 8;
  cfg.head_hidden = 8;
  cfg.sample_len = 5;
  cfg.disc_hidden = 16;
  cfg.disc_layers = 2;
  cfg.batch = 4;
  cfg.iterations = 2;
  cfg.seed = 21;
  return cfg;
}

synth::SynthData tiny_gcut() {
  auto d = synth::make_gcut({.n = 8, .t_max = 20, .seed = 5});
  for (auto& o : d.data) {
    if (o.length() > 20) o.features.resize(20);
  }
  d.schema.max_timesteps = 20;
  return d;
}

/// Hash of a 2-iteration fit: every reported loss series, then the
/// serialized parameters.
std::uint64_t fit_hash(core::DoppelGanger& model, const data::Dataset& data) {
  const core::TrainStats st = model.fit(data);
  Fnv1a f;
  for (const auto* series : {&st.d_loss, &st.aux_loss, &st.g_loss,
                             &st.gp_penalty, &st.d_grad_norm,
                             &st.g_grad_norm}) {
    f.floats(*series);
  }
  std::ostringstream os;
  model.save(os);
  const std::string params = os.str();
  f.bytes(params.data(), params.size());
  return f.h;
}

std::uint64_t dataset_hash(const data::Dataset& ds) {
  Fnv1a f;
  for (const data::Object& o : ds) {
    f.floats(o.attributes);
    for (const auto& rec : o.features) f.floats(rec);
  }
  return f.h;
}

TEST(Invariants, WganGpFitAndGenerateBytesArePinned) {
  const synth::SynthData d = tiny_gcut();
  core::DoppelGanger model(d.schema, tiny_cfg());
  EXPECT_EQ(fit_hash(model, d.data), kWganFitHash);
  EXPECT_EQ(dataset_hash(model.generate(6)), kGenerateHash);
}

TEST(Invariants, DpFitBytesArePinned) {
  const synth::SynthData d = tiny_gcut();
  core::DoppelGangerConfig cfg = tiny_cfg();
  cfg.dp = core::DpOptions{.clip_norm = 1.0f,
                           .noise_multiplier = 0.8f,
                           .microbatches = 2};
  core::DoppelGanger model(d.schema, cfg);
  EXPECT_EQ(fit_hash(model, d.data), kDpFitHash);
}

}  // namespace
}  // namespace dg::analysis
