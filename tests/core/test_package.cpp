#include "core/package.h"

#include <gtest/gtest.h>

#include <sstream>

#include "synth/synth.h"

namespace dg::core {
namespace {

DoppelGangerConfig tiny_cfg() {
  DoppelGangerConfig cfg;
  cfg.attr_hidden = 12;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 12;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 12;
  cfg.head_hidden = 12;
  cfg.sample_len = 5;
  cfg.disc_hidden = 24;
  cfg.disc_layers = 2;
  cfg.batch = 8;
  cfg.iterations = 4;
  cfg.seed = 3;
  return cfg;
}

TEST(ConfigIo, RoundTripsEveryField) {
  DoppelGangerConfig cfg = tiny_cfg();
  cfg.use_minmax_generator = false;
  cfg.use_aux_discriminator = false;
  cfg.aux_alpha = 0.25f;
  cfg.gp_weight = 7.5f;
  cfg.lr = 2e-4f;
  cfg.d_steps = 3;
  cfg.loss = GanLoss::Standard;
  std::stringstream ss;
  save_config(ss, cfg);
  const DoppelGangerConfig back = load_config(ss);
  EXPECT_EQ(back.attr_hidden, cfg.attr_hidden);
  EXPECT_EQ(back.lstm_units, cfg.lstm_units);
  EXPECT_EQ(back.sample_len, cfg.sample_len);
  EXPECT_EQ(back.use_minmax_generator, cfg.use_minmax_generator);
  EXPECT_EQ(back.use_aux_discriminator, cfg.use_aux_discriminator);
  EXPECT_FLOAT_EQ(back.aux_alpha, cfg.aux_alpha);
  EXPECT_FLOAT_EQ(back.gp_weight, cfg.gp_weight);
  EXPECT_FLOAT_EQ(back.lr, cfg.lr);
  EXPECT_EQ(back.d_steps, cfg.d_steps);
  EXPECT_EQ(back.seed, cfg.seed);
  EXPECT_EQ(back.loss, GanLoss::Standard);
}

TEST(ConfigIo, RejectsGarbage) {
  std::stringstream ss("nonsense");
  EXPECT_THROW(load_config(ss), std::runtime_error);
}

TEST(Package, FullRoundTripGeneratesIdentically) {
  auto d = synth::make_gcut({.n = 24, .t_max = 15});
  for (auto& o : d.data) {
    if (o.length() > 15) o.features.resize(15);
  }
  d.schema.max_timesteps = 15;
  DoppelGanger model(d.schema, tiny_cfg());
  model.fit(d.data);

  std::stringstream ss;
  save_package(ss, model);
  auto loaded = load_package(ss);

  // Same parameters...
  const auto pa = model.generator_parameters();
  const auto pb = loaded->generator_parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t i = 0; i < pa.size(); ++i) {
    EXPECT_TRUE(nn::allclose(pa[i].value(), pb[i].value(), 0.0f));
  }
  // ...same schema, and generation works.
  EXPECT_EQ(loaded->schema().max_timesteps, 15);
  EXPECT_EQ(loaded->schema().attributes[0].labels[1], "FAIL");
  EXPECT_NO_THROW(data::validate(loaded->schema(), loaded->generate(5)));
}

TEST(Package, FileRoundTrip) {
  const auto d = synth::make_wwt({.n = 8, .t = 10});
  DoppelGanger model(d.schema, tiny_cfg());
  const std::string path = ::testing::TempDir() + "/model.dgpkg";
  save_package_file(path, model);
  auto loaded = load_package_file(path);
  EXPECT_EQ(loaded->config().lstm_units, 12);
  EXPECT_THROW(load_package_file("/nonexistent/m.dgpkg"), std::runtime_error);
}

void expect_datasets_identical(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].attributes, b[i].attributes) << "object " << i;
    EXPECT_EQ(a[i].features, b[i].features) << "object " << i;
  }
}

// The release contract the serving runtime depends on: a package round trip
// plus a fixed seed reproduces generation bit-exactly.
TEST(Package, RegenerationIsBitIdenticalUnderFixedSeed) {
  auto d = synth::make_gcut({.n = 24, .t_max = 15});
  for (auto& o : d.data) {
    if (o.length() > 15) o.features.resize(15);
  }
  d.schema.max_timesteps = 15;
  DoppelGanger model(d.schema, tiny_cfg());
  model.fit(d.data);

  std::stringstream ss;
  save_package(ss, model);
  auto loaded = load_package(ss);

  model.reseed(99);
  loaded->reseed(99);
  expect_datasets_identical(model.generate(6), loaded->generate(6));
}

// Fig 30 flexibility path: retraining ONLY the attribute generator must
// survive the package round trip too — regeneration from the retrained
// model and its reloaded copy stays bit-identical.
TEST(Package, RetrainedAttributeGeneratorRoundTrips) {
  auto d = synth::make_gcut({.n = 24, .t_max = 15});
  for (auto& o : d.data) {
    if (o.length() > 15) o.features.resize(15);
  }
  d.schema.max_timesteps = 15;
  DoppelGanger model(d.schema, tiny_cfg());
  model.fit(d.data);

  model.retrain_attributes(
      [&](nn::Rng& rng) {
        // Target distribution: always category 1, uniform continuous attrs.
        std::vector<float> row(d.data[0].attributes.size(), 0.0f);
        row[0] = 1.0f;
        for (size_t j = 1; j < row.size(); ++j) {
          row[j] = static_cast<float>(rng.uniform());
        }
        return row;
      },
      8);

  std::stringstream ss;
  save_package(ss, model);
  auto loaded = load_package(ss);

  model.reseed(7);
  loaded->reseed(7);
  expect_datasets_identical(model.generate(6), loaded->generate(6));
}

// An offline load refuses what the preflight refuses, before it builds the
// model at the config's sizes: a config line edited so the weights no longer
// fit names the mismatch instead of failing inside the weight read.
TEST(Package, LoadRefusesWhatThePreflightRefuses) {
  const auto d = synth::make_wwt({.n = 4, .t = 10});
  DoppelGangerConfig cfg = tiny_cfg();
  cfg.lstm_units = 8;
  DoppelGanger model(d.schema, cfg);
  std::stringstream ss;
  save_package(ss, model);
  std::string text = ss.str();
  const std::string line = "\nlstm_units 8\n";
  const std::size_t at = text.find(line);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, line.size(), "\nlstm_units 9\n");
  std::stringstream edited(text);
  try {
    load_package(edited);
    FAIL() << "load_package accepted weights that do not fit the config";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("weight-shape"), std::string::npos)
        << e.what();
  }
}

TEST(Package, RejectsTruncatedStream) {
  const auto d = synth::make_wwt({.n = 4, .t = 10});
  DoppelGanger model(d.schema, tiny_cfg());
  std::stringstream ss;
  save_package(ss, model);
  std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() * 3 / 4));
  EXPECT_THROW(load_package(cut), std::runtime_error);
}

}  // namespace
}  // namespace dg::core
