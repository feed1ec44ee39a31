#include "data/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "synth/synth.h"

namespace dg::data {
namespace {

TEST(SchemaIo, RoundTrip) {
  const auto d = synth::make_gcut({.n = 2});
  std::stringstream ss;
  save_schema(ss, d.schema);
  const Schema back = load_schema(ss);
  EXPECT_EQ(back.name, d.schema.name);
  EXPECT_EQ(back.max_timesteps, d.schema.max_timesteps);
  ASSERT_EQ(back.attributes.size(), d.schema.attributes.size());
  EXPECT_EQ(back.attributes[0].labels, d.schema.attributes[0].labels);
  ASSERT_EQ(back.features.size(), d.schema.features.size());
  EXPECT_FLOAT_EQ(back.features[0].lo, d.schema.features[0].lo);
  EXPECT_FLOAT_EQ(back.features[0].hi, d.schema.features[0].hi);
}

TEST(SchemaIo, RejectsGarbage) {
  std::stringstream ss("definitely not a schema");
  EXPECT_THROW(load_schema(ss), std::runtime_error);
}

TEST(SchemaIo, RejectsNamesWithCommas) {
  Schema s;
  s.max_timesteps = 2;
  s.attributes = {categorical_field("bad,name", {"a"})};
  s.features = {continuous_field("x", 0, 1)};
  std::stringstream ss;
  EXPECT_THROW(save_schema(ss, s), std::invalid_argument);
}

// A repeated name or label would leave one of its fields or categories
// unnameable by `fixed`, `where` and the reply's attribute keys.
TEST(SchemaIo, RejectsRepeatedNamesAndLabels) {
  const std::string head =
      "doppelganger-schema v1\nname s\nmax_timesteps 4\n";
  const auto refusal = [&](const std::string& fields) -> std::string {
    std::stringstream ss(head + fields);
    try {
      load_schema(ss);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  EXPECT_EQ(refusal("attribute categorical code A B\n"
                    "attribute continuous code 0 1\n"
                    "feature continuous x 0 1\n"),
            "io: repeated field name 'code'");
  EXPECT_EQ(refusal("feature continuous x 0 1\nfeature continuous x 0 2\n"),
            "io: repeated field name 'x'");
  EXPECT_EQ(refusal("attribute continuous x 0 1\nfeature continuous x 0 1\n"),
            "io: repeated field name 'x'");
  EXPECT_EQ(refusal("attribute categorical code A B A\n"
                    "feature continuous x 0 1\n"),
            "io: repeated label 'A' in field 'code'");
  EXPECT_EQ(refusal("attribute categorical code A B\n"
                    "feature categorical state A B\n"),
            "accepted");  // labels are per field
}

TEST(CsvIo, RoundTripVariableLengths) {
  const auto d = synth::make_gcut({.n = 25, .t_max = 20});
  data::Dataset clamped = d.data;
  for (auto& o : clamped) {
    if (o.length() > 20) o.features.resize(20);
  }
  std::stringstream ss;
  save_csv(ss, d.schema, clamped);
  const Dataset back = load_csv(ss, d.schema);
  ASSERT_EQ(back.size(), clamped.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].length(), clamped[i].length());
    EXPECT_EQ(back[i].attributes, clamped[i].attributes);
    for (int t = 0; t < back[i].length(); ++t) {
      for (size_t f = 0; f < back[i].features[t].size(); ++f) {
        EXPECT_NEAR(back[i].features[t][f], clamped[i].features[t][f], 1e-4f);
      }
    }
  }
}

TEST(CsvIo, CategoricalAttributesWrittenAsLabels) {
  const auto d = synth::make_mba({.n = 3});
  std::stringstream ss;
  save_csv(ss, d.schema, d.data);
  const std::string text = ss.str();
  // At least one of the technology labels must appear verbatim.
  EXPECT_TRUE(text.find("Cable") != std::string::npos ||
              text.find("DSL") != std::string::npos ||
              text.find("Fiber") != std::string::npos ||
              text.find("Satellite") != std::string::npos ||
              text.find("IPBB") != std::string::npos);
}

TEST(CsvIo, RejectsHeaderMismatch) {
  const auto gcut = synth::make_gcut({.n = 2});
  const auto mba = synth::make_mba({.n = 2});
  std::stringstream ss;
  save_csv(ss, gcut.schema, gcut.data);
  EXPECT_THROW(load_csv(ss, mba.schema), std::runtime_error);
}

TEST(CsvIo, RejectsUnknownLabel) {
  const auto d = synth::make_gcut({.n = 1});
  std::stringstream ss;
  save_csv(ss, d.schema, d.data);
  std::string text = ss.str();
  const auto pos = text.find("FINISH");
  if (pos != std::string::npos) text.replace(pos, 6, "BOGUSS");
  const auto pos2 = text.find("KILL");
  if (pos2 != std::string::npos) text.replace(pos2, 4, "BOGU");
  std::stringstream broken(text);
  EXPECT_THROW(load_csv(broken, d.schema), std::runtime_error);
}

TEST(BinaryIo, RoundTripIsBitExact) {
  const auto d = synth::make_gcut({.n = 6, .t_max = 14});
  std::stringstream ss;
  save_binary(ss, d.schema, d.data);
  const Dataset back = load_binary(ss, d.schema);
  ASSERT_EQ(back.size(), d.data.size());
  for (size_t i = 0; i < back.size(); ++i) {
    EXPECT_EQ(back[i].attributes, d.data[i].attributes);
    EXPECT_EQ(back[i].features, d.data[i].features);
  }
}

TEST(BinaryIo, RejectsTruncation) {
  const auto d = synth::make_wwt({.n = 3, .t = 10});
  std::stringstream ss;
  save_binary(ss, d.schema, d.data);
  const std::string full = ss.str();
  std::stringstream cut(full.substr(0, full.size() - 7));
  EXPECT_THROW(load_binary(cut, d.schema), std::runtime_error);
  std::stringstream garbage("not a dg binary stream");
  EXPECT_THROW(load_binary(garbage, d.schema), std::runtime_error);
}

TEST(BinaryIo, FileHelpersRoundTrip) {
  const auto d = synth::make_wwt({.n = 4, .t = 12});
  const std::string path = ::testing::TempDir() + "/d.dgbin";
  save_binary_file(path, d.schema, d.data);
  const Dataset back = load_binary_file(path, d.schema);
  EXPECT_EQ(back.size(), d.data.size());
  EXPECT_THROW(load_binary_file("/nonexistent/x.dgbin", d.schema),
               std::runtime_error);
}

TEST(CsvIo, FileHelpersRoundTrip) {
  const auto d = synth::make_wwt({.n = 4, .t = 12});
  const std::string dir = ::testing::TempDir();
  save_schema_file(dir + "/s.schema", d.schema);
  save_csv_file(dir + "/d.csv", d.schema, d.data);
  const Schema s = load_schema_file(dir + "/s.schema");
  const Dataset back = load_csv_file(dir + "/d.csv", s);
  EXPECT_EQ(back.size(), d.data.size());
  EXPECT_THROW(load_schema_file("/nonexistent/x"), std::runtime_error);
  EXPECT_THROW(load_csv_file("/nonexistent/x", s), std::runtime_error);
}

}  // namespace
}  // namespace dg::data
