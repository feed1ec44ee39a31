#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <utility>

#include "data/encoding.h"
#include "nn/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/tracectx.h"
#include "serve/json.h"
#include "serve/queue.h"
#include "serve/types.h"
#include "synth/synth.h"

namespace dg::serve {
namespace {

// ------------------------------------------------------------------ json

std::string nested(int depth) {
  return std::string(static_cast<size_t>(depth), '[') +
         std::string(static_cast<size_t>(depth), ']');
}

TEST(Json, ParsesScalarsAndContainers) {
  const json::Value v = json::parse(
      R"({"a":1,"b":-2.5,"c":"hi","d":true,"e":null,"f":[1,2,3],"g":{"x":7}})");
  EXPECT_EQ(v.number_or("a", 0), 1.0);
  EXPECT_EQ(v.number_or("b", 0), -2.5);
  EXPECT_EQ(v.string_or("c", ""), "hi");
  EXPECT_TRUE(v.bool_or("d", false));
  EXPECT_TRUE(v.find("e")->is_null());
  EXPECT_EQ(v.find("f")->as_array().size(), 3u);
  EXPECT_EQ(v.find("g")->number_or("x", 0), 7.0);
  // The nesting bound counts open containers, not containers seen.
  EXPECT_TRUE(json::parse(nested(json::kMaxDepth)).is_array());
  std::string wide = "[";
  for (int i = 0; i < 2 * json::kMaxDepth; ++i) wide += i ? ",[[]]" : "[[]]";
  EXPECT_EQ(json::parse(wide + "]").as_array().size(),
            static_cast<size_t>(2 * json::kMaxDepth));
}

TEST(Json, DumpParseRoundTripIsValueExact) {
  json::Value v{json::Object{}};
  v.set("n", 0.15625);  // exactly representable
  v.set("big", 123456789.0);
  v.set("s", "quote \" backslash \\ newline \n tab \t");
  json::Array arr;
  arr.push_back(true);
  arr.push_back(json::Value());
  arr.push_back(-1e-7);
  v.set("arr", std::move(arr));
  const json::Value back = json::parse(json::dump(v));
  EXPECT_EQ(back.number_or("n", 0), 0.15625);
  EXPECT_EQ(back.number_or("big", 0), 123456789.0);
  EXPECT_EQ(back.string_or("s", ""), "quote \" backslash \\ newline \n tab \t");
  EXPECT_EQ(back.find("arr")->as_array().size(), 3u);
  EXPECT_EQ(back.find("arr")->as_array()[2].as_number(), -1e-7);
}

TEST(Json, Float32ValuesRoundTripBitExact) {
  // The wire carries float32 series values; %.9g must reproduce them.
  const float vals[] = {0.1f, 1.0f / 3.0f, 3.4e38f, -1.17549435e-38f, 42.0f};
  for (const float x : vals) {
    json::Value v{json::Object{}};
    v.set("x", static_cast<double>(x));
    const json::Value back = json::parse(json::dump(v));
    EXPECT_EQ(static_cast<float>(back.number_or("x", 0)), x);
  }
}

// append_number writes a non-integral number with std::to_chars(general,
// 9), which the standard defines as printf's "%.9g": hold it to printf on
// float bit patterns across the whole range, random doubles and values
// next to a 9-digit rounding tie.
TEST(Json, NumbersMatchPrintfG9) {
  const auto printf_g9 = [](double n) -> std::string {
    if (!std::isfinite(n)) return "null";
    if (std::fabs(n) < 9.0e15 &&
        n == static_cast<double>(static_cast<long long>(n))) {
      return std::to_string(static_cast<long long>(n));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", n);
    return buf;
  };
  const auto check = [&](double n) {
    std::string out;
    json::append_number(out, n);
    ASSERT_EQ(out, printf_g9(n)) << "bits of " << n;
  };
  for (std::uint64_t bits = 0; bits <= 0xffffffffull; bits += 65521) {
    const auto b = static_cast<std::uint32_t>(bits);
    float f;
    std::memcpy(&f, &b, sizeof(f));
    check(static_cast<double>(f));
  }
  nn::Rng rng(2026);
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t b = rng.next_u64();
    double d;
    std::memcpy(&d, &b, sizeof(d));
    check(d);
    check(rng.uniform(-1.0, 1.0));
    // 10 significant digits ending in 5: the 9-digit rounding tie, give or
    // take the binary representation's last bit.
    const double tie = (static_cast<double>(rng.uniform_int(1'000'000'000)) *
                            10.0 + 5.0) * std::pow(10.0, rng.uniform_int(40) - 20);
    check(tie);
    check(std::nextafter(tie, 0.0));
    check(std::nextafter(tie, 1e300));
  }
  for (const double n : {0.0, -0.0, 1e-300, -2.5, 9e15, 9.0e15 + 2.0, 1e16,
                         static_cast<double>(1ull << 63), 5e-324}) {
    check(n);
  }
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  const json::Value v = json::parse(R"({"s":"Aé€"})");
  EXPECT_EQ(v.string_or("s", ""), "A\xc3\xa9\xe2\x82\xac");
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(json::parse("{"), std::runtime_error);
  EXPECT_THROW(json::parse("[1,2"), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":}"), std::runtime_error);
  EXPECT_THROW(json::parse("tru"), std::runtime_error);
  EXPECT_THROW(json::parse("1 2"), std::runtime_error);
  EXPECT_THROW(json::parse("\"unterminated"), std::runtime_error);
  // The parser recurses per level: 100,000 levels must be a parse error,
  // not a stack overflow.
  EXPECT_THROW(json::parse(nested(100'000)), std::runtime_error);
  EXPECT_THROW(json::parse(nested(json::kMaxDepth + 1)), std::runtime_error);
  EXPECT_THROW(json::parse("{\"a\":" + nested(json::kMaxDepth) + "}"),
               std::runtime_error);
}

// -------------------------------------------------------------- protocol

TEST(Protocol, OutOfRangeIntegerFieldsAreRefused) {
  // Each integer request field refuses values its type cannot hold (the
  // cast would be undefined).
  const std::pair<const char*, const char*> refused[] = {
      {"id", "-1"},          {"id", "1.8446744073709552e19"},
      {"id", "1e300"},       {"seed", "-1"},
      {"seed", "-1e300"},    {"seed", "1.8446744073709552e19"},
      {"n", "2147483648"},   {"n", "-2147483649"},
      {"n", "1e300"},        {"max_len", "2147483648"},
      {"max_len", "-1e10"},  {"attempts", "3e9"},
      {"attempts", "-2147483649"}};
  for (const auto& [field, value] : refused) {
    SCOPED_TRACE(std::string(field) + "=" + value);
    const json::Value v = json::parse(std::string("{\"op\":\"generate\",\"") +
                                      field + "\":" + value + "}");
    EXPECT_THROW(request_from_json(v), std::runtime_error);
  }
  EXPECT_THROW(json::parse(R"({"n":1e999})"), std::runtime_error);
  // The extremes that fit are accepted; the cast truncates toward zero.
  const GenRequest top = request_from_json(json::parse(
      R"({"id":18446744073709549568,"seed":-0.5,"n":2147483647})"));
  EXPECT_EQ(top.id, 18446744073709549568ull);  // largest double below 2^64
  EXPECT_EQ(top.seed, 0u);
  EXPECT_EQ(top.count, 2147483647);
  // An error reply echoes only an id that is one.
  EXPECT_EQ(request_id(json::parse(R"({"id":-1})")), 0u);
  EXPECT_EQ(request_id(json::parse(R"({"id":"x"})")), 0u);
  EXPECT_EQ(request_id(json::parse(R"({"id":42})")), 42u);
}

TEST(Protocol, RequestRoundTrip) {
  GenRequest req;
  req.id = 9;
  req.seed = 1234567;
  req.count = 5;
  req.max_len = 17;
  req.max_attempts = 4;
  req.fixed.push_back({"code", 0.0f, "FAIL"});
  req.fixed.push_back({"scale", 2.5f, ""});
  AttrPredicate p;
  p.attr = "dc";
  p.op = AttrPredicate::Op::Ge;
  p.value = 1.0f;
  req.where.push_back(p);

  const GenRequest back =
      request_from_json(json::parse(json::dump(request_to_json(req))));
  EXPECT_EQ(back.id, 9u);
  EXPECT_EQ(back.seed, 1234567u);
  EXPECT_EQ(back.count, 5);
  EXPECT_EQ(back.max_len, 17);
  EXPECT_EQ(back.max_attempts, 4);
  ASSERT_EQ(back.fixed.size(), 2u);
  EXPECT_EQ(back.fixed[0].label, "FAIL");
  EXPECT_EQ(back.fixed[1].value, 2.5f);
  ASSERT_EQ(back.where.size(), 1u);
  EXPECT_EQ(back.where[0].op, AttrPredicate::Op::Ge);
  EXPECT_EQ(back.where[0].value, 1.0f);
}

TEST(Protocol, ObjectAndResponseRoundTrip) {
  const auto d = synth::make_gcut({.n = 3, .t_max = 10});
  GenResponse resp;
  resp.id = 2;
  resp.ok = true;
  resp.complete = true;
  resp.series_rejected = 1;
  resp.latency_ms = 12.5;
  resp.objects = d.data;

  const GenResponse back = response_from_json(
      json::parse(json::dump(response_to_json(resp, d.schema))), d.schema);
  EXPECT_EQ(back.id, 2u);
  EXPECT_TRUE(back.ok);
  EXPECT_TRUE(back.complete);
  EXPECT_EQ(back.series_rejected, 1);
  ASSERT_EQ(back.objects.size(), d.data.size());
  for (size_t i = 0; i < d.data.size(); ++i) {
    const auto& a = d.data[i];
    const auto& b = back.objects[i];
    ASSERT_EQ(a.attributes.size(), b.attributes.size());
    for (size_t j = 0; j < a.attributes.size(); ++j) {
      EXPECT_EQ(a.attributes[j], b.attributes[j]);
    }
    ASSERT_EQ(a.features.size(), b.features.size());
    for (size_t t = 0; t < a.features.size(); ++t) {
      for (size_t k = 0; k < a.features[t].size(); ++k) {
        EXPECT_EQ(a.features[t][k], b.features[t][k]);
      }
    }
  }
}

// ---- the generate reply writer against its oracle

/// append_response's bytes, which must be json::dump(response_to_json(...)).
std::string written(const GenResponse& resp, const data::Schema& schema) {
  std::string out;
  append_response(out, resp, schema);
  return out;
}

void expect_writer_matches_oracle(const GenResponse& resp,
                                  const data::Schema& schema) {
  EXPECT_EQ(written(resp, schema),
            json::dump(response_to_json(resp, schema)));
}

TEST(ResponseWriter, MatchesTheOracleOnFullLengthReplies) {
  const auto gcut = synth::make_gcut({.n = 6, .t_max = 50});
  const auto wwt = synth::make_wwt({.n = 3, .t = 280});
  for (const auto* d : {&gcut, &wwt}) {
    GenResponse resp;
    resp.id = 41;
    resp.ok = resp.complete = true;
    resp.package_hash = "0123456789abcdef";
    resp.series_rejected = 12;
    resp.latency_ms = 3.0517578125e-05 + 17.25;
    resp.objects = d->data;
    expect_writer_matches_oracle(resp, d->schema);
  }
}

TEST(ResponseWriter, MatchesTheOracleOnHeaderFields) {
  const data::Schema none;
  GenResponse err;
  err.id = 17;
  err.error = "all workers at inflight cap";
  err.code = error_code::kShed;
  expect_writer_matches_oracle(err, none);
  EXPECT_EQ(written(err, none),
            R"({"id":17,"ok":false,"complete":false,"error":"all workers at )"
            R"(inflight cap","code":"shed","rejected":0,"latency_ms":0,)"
            R"("objects":[]})");

  GenResponse traced;
  traced.ok = traced.complete = true;
  traced.trace_id = obs::trace_id_hex(0x00c0ffee0ddba11ull);
  expect_writer_matches_oracle(traced, none);

  // Ids travel as doubles through json::Value: above 2^53 they round, and
  // from 9e15 up they print in %.9g form. The writer does the same.
  for (const std::uint64_t id :
       {(1ull << 53) - 1, 1ull << 53, (1ull << 53) + 1, 8'999'999'999'999'999ull,
        9'000'000'000'000'001ull, 1ull << 60, ~0ull}) {
    GenResponse r;
    r.id = id;
    expect_writer_matches_oracle(r, none);
  }

  GenResponse odd;
  odd.error = "quote \" backslash \\ newline \n tab \t bell \x07 nul-free";
  odd.code = "c\x1f";
  odd.package_hash = "\"objects\":[]";
  odd.series_rejected = -3;
  odd.latency_ms = std::numeric_limits<double>::quiet_NaN();
  expect_writer_matches_oracle(odd, none);
  odd.latency_ms = -std::numeric_limits<double>::infinity();
  expect_writer_matches_oracle(odd, none);
}

TEST(ResponseWriter, MatchesTheOracleOnOddValues) {
  data::Schema schema;
  schema.max_timesteps = 4;
  schema.attributes = {
      data::categorical_field("code \"q\"", {"A\n", "B\\", "\x01C"}),
      data::continuous_field("x", 0.0f, 10.0f)};
  schema.features = {data::continuous_field("v", 0.0f, 1.0f),
                     data::continuous_field("w", -1.0f, 1.0f)};
  const float inf = std::numeric_limits<float>::infinity();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  GenResponse resp;
  resp.ok = true;
  // Category codes in and out of the label range, integral and non-finite
  // continuous values, a zero-length series.
  for (const float code : {0.0f, 1.0f, 2.0f, 2.5f, 3.0f, 7.0f, -1.0f, -0.5f}) {
    data::Object o;
    o.attributes = {code, code * 1.5f};
    o.features = {{0.0f, -0.0f}, {1.0f, 16777216.0f}, {1e10f, -3.0f},
                  {inf, -inf}, {nan, 1.0f / 3.0f}, {1e-45f, 3.4e38f}};
    resp.objects.push_back(std::move(o));
  }
  resp.objects.push_back({{1.0f, nan}, {}});
  expect_writer_matches_oracle(resp, schema);
}

TEST(ResponseWriter, MatchesTheOracleWithAZeroWideMinMaxBlock) {
  // Only categorical features: the codec's min/max block has no columns.
  data::Schema schema;
  schema.max_timesteps = 3;
  schema.attributes = {data::categorical_field("tech", {"dsl", "cable"})};
  schema.features = {data::categorical_field("state", {"up", "down", "idle"})};
  data::GanCodec codec(schema, true);
  ASSERT_EQ(codec.minmax_dim(), 0);
  GenResponse resp;
  resp.ok = resp.complete = true;
  resp.objects = {{{1.0f}, {{0.0f}, {2.0f}, {1.0f}}}, {{0.0f}, {{2.0f}}}};
  expect_writer_matches_oracle(resp, schema);
}

// One reply spelled out, so a change that moved writer and oracle together
// still shows.
TEST(ResponseWriter, GoldenReply) {
  data::Schema schema;
  schema.max_timesteps = 2;
  schema.attributes = {data::categorical_field("code", {"A", "B"}),
                       data::continuous_field("x", 0.0f, 10.0f)};
  schema.features = {data::continuous_field("v", 0.0f, 1.0f)};
  GenResponse resp;
  resp.id = 3;
  resp.ok = resp.complete = true;
  resp.package_hash = "00ff";
  resp.trace_id = "0a";
  resp.series_rejected = 1;
  resp.latency_ms = 2.5;
  resp.objects = {{{1.0f, 0.1f}, {{0.5f}, {1.0f / 3.0f}}}};
  EXPECT_EQ(written(resp, schema),
            R"({"id":3,"ok":true,"complete":true,"package_hash":"00ff",)"
            R"("trace":"0a","rejected":1,"latency_ms":2.5,"objects":[{)"
            R"("attributes":{"code":"B","x":0.100000001},"features":[[0.5],)"
            R"([0.333333343]]}]})");
  expect_writer_matches_oracle(resp, schema);
}

// The router reads replies by byte scans (serve/shard/cache.h): the id is a
// `{"id":` prefix, and the first `"objects":` is the reply's own, after
// every header field, even when a header string or an attribute name spells
// the key.
TEST(ResponseWriter, IdComesFirstAndObjectsLast) {
  data::Schema schema;
  schema.max_timesteps = 2;
  schema.attributes = {data::continuous_field("objects", 0.0f, 1.0f),
                       data::continuous_field("ok", 0.0f, 1.0f)};
  schema.features = {data::continuous_field("v", 0.0f, 1.0f)};
  GenResponse resp;
  resp.id = 77;
  resp.ok = true;
  resp.error = R"("objects":[] "ok":true)";
  resp.package_hash = "abc";
  resp.objects = {{{0.25f, 0.5f}, {{0.75f}}}};
  const std::string reply = written(resp, schema);
  EXPECT_EQ(reply.rfind(R"({"id":77,)", 0), 0u);
  const std::size_t at = reply.find(R"("objects":)");
  ASSERT_NE(at, std::string::npos);
  json::Array objects;
  for (const data::Object& o : resp.objects) {
    objects.push_back(object_to_json(o, schema));
  }
  EXPECT_EQ(reply.substr(at),
            R"("objects":)" + json::dump(json::Value(std::move(objects))) + "}");
  EXPECT_NE(reply.substr(0, at).find(R"("package_hash":"abc")"),
            std::string::npos);
}

TEST(Protocol, ErrorCodeAndPackageHashRoundTripAndStayOptional) {
  GenResponse resp;
  resp.id = 9;
  resp.error = "all workers at inflight cap";
  resp.code = error_code::kShed;
  resp.package_hash = "deadbeef01234567";
  const json::Value v = response_to_json(resp, data::Schema{});
  EXPECT_EQ(v.string_or("code", ""), "shed");
  EXPECT_EQ(v.string_or("package_hash", ""), "deadbeef01234567");
  const GenResponse back =
      response_from_json(json::parse(json::dump(v)), data::Schema{});
  EXPECT_EQ(back.code, error_code::kShed);
  EXPECT_EQ(back.package_hash, "deadbeef01234567");

  // Old-style replies without the new fields still parse (and new replies
  // omit them when empty, so old clients see an unchanged wire format).
  GenResponse plain;
  plain.ok = plain.complete = true;
  const json::Value pv = response_to_json(plain, data::Schema{});
  EXPECT_EQ(pv.find("code"), nullptr);
  EXPECT_EQ(pv.find("package_hash"), nullptr);
  const GenResponse pback =
      response_from_json(json::parse(json::dump(pv)), data::Schema{});
  EXPECT_TRUE(pback.code.empty());
  EXPECT_TRUE(pback.package_hash.empty());
}

TEST(Protocol, TraceContextRoundTripsAndStaysOptional) {
  GenRequest req;
  req.id = 4;
  req.seed = 99;
  req.trace.trace_id = 0xabcdef0123456789ull;
  req.trace.parent_span = 0x42ull;
  const json::Value v = request_to_json(req);
  const json::Value* t = v.find("trace");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t->string_or("id", ""), obs::trace_id_hex(req.trace.trace_id));
  EXPECT_EQ(t->string_or("parent", ""), obs::trace_id_hex(0x42ull));
  const GenRequest back = request_from_json(json::parse(json::dump(v)));
  EXPECT_EQ(back.trace.trace_id, req.trace.trace_id);
  EXPECT_EQ(back.trace.parent_span, 0x42ull);

  // Unsampled requests carry NO trace field — the wire format an old
  // worker sees from a new router is byte-for-byte the old format.
  GenRequest plain;
  plain.id = 5;
  EXPECT_EQ(request_to_json(plain).find("trace"), nullptr);
  EXPECT_EQ(request_from_json(json::parse(json::dump(request_to_json(plain))))
                .trace.trace_id,
            0u);

  // Responses: trace id present only when sampled.
  GenResponse resp;
  resp.ok = resp.complete = true;
  resp.trace_id = obs::trace_id_hex(0x77ull);
  const json::Value rv = response_to_json(resp, data::Schema{});
  EXPECT_EQ(rv.string_or("trace", ""), resp.trace_id);
  EXPECT_EQ(response_from_json(json::parse(json::dump(rv)), data::Schema{})
                .trace_id,
            resp.trace_id);
  GenResponse unsampled;
  unsampled.ok = true;
  EXPECT_EQ(response_to_json(unsampled, data::Schema{}).find("trace"), nullptr);
}

TEST(Protocol, ForwardCompatUnknownFieldsAreIgnoredBothWays) {
  // A new-router request with fields this parser has never heard of (the
  // old-worker view of a newer router) must parse cleanly, reading just
  // the fields it knows — including a `trace` object with extra members.
  const GenRequest req = request_from_json(json::parse(
      R"({"op":"generate","id":7,"seed":3,"n":2,)"
      R"("trace":{"id":"00000000000000ff","parent":"0000000000000001",)"
      R"("flags":"debug","baggage":{"tenant":"t9"}},)"
      R"("future_knob":true,"priority_hint":0.5})"));
  EXPECT_EQ(req.id, 7u);
  EXPECT_EQ(req.count, 2);
  EXPECT_EQ(req.trace.trace_id, 0xffu);
  EXPECT_EQ(req.trace.parent_span, 1u);

  // A malformed trace field degrades to "unsampled", never an error: a
  // garbled observability hint must not fail a generation request.
  EXPECT_EQ(request_from_json(
                json::parse(R"({"id":1,"seed":2,"trace":{"id":"nothex"}})"))
                .trace.trace_id,
            0u);
  EXPECT_EQ(request_from_json(json::parse(R"({"id":1,"seed":2,"trace":"x"})"))
                .trace.trace_id,
            0u);

  // A new-worker reply with unknown fields is accepted by an old client's
  // parse (what `dgcli request` does with the reply line).
  const GenResponse resp = response_from_json(
      json::parse(R"({"id":7,"ok":true,"complete":true,"objects":[],)"
                  R"("trace":"00000000000000ff","queue_class":"bulk",)"
                  R"("server_build":"v99"})"),
      data::Schema{});
  EXPECT_TRUE(resp.ok);
  EXPECT_EQ(resp.trace_id, "00000000000000ff");
}

TEST(Protocol, TraceEventsRoundTripThroughJson) {
  std::vector<obs::TraceEvent> evs(2);
  evs[0].name = "router.request";
  evs[0].category = "router";
  evs[0].tid = 3;
  evs[0].ts_us = 100;
  evs[0].dur_us = 250;
  evs[0].depth = 0;
  evs[0].trace_id = 0xaabbull;
  evs[0].span_id = 0x1ull;
  evs[1].name = "serve.slot";
  evs[1].category = "serve";
  evs[1].ts_us = 140;
  evs[1].dur_us = 80;
  evs[1].depth = 1;
  evs[1].trace_id = 0xaabbull;
  evs[1].span_id = 0x2ull;
  evs[1].parent_span = 0x1ull;

  const std::vector<obs::TraceEvent> back = trace_events_from_json(
      json::parse(json::dump(trace_events_to_json(evs))));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].name, "router.request");
  EXPECT_EQ(back[0].category, "router");
  EXPECT_EQ(back[0].tid, 3u);
  EXPECT_EQ(back[0].ts_us, 100);
  EXPECT_EQ(back[0].dur_us, 250);
  EXPECT_EQ(back[0].trace_id, 0xaabbull);
  EXPECT_EQ(back[0].span_id, 0x1ull);
  EXPECT_EQ(back[0].parent_span, 0u);
  EXPECT_EQ(back[1].parent_span, 0x1ull);
  EXPECT_EQ(back[1].depth, 1);
}

TEST(Protocol, RegistrySnapshotParsesExemplars) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram(
      "lat", obs::HistogramOptions{.bounds = {1.0, 10.0}, .window = 16});
  h.record(0.5, 0xbeefull);
  h.record(40.0, 0xcafeull);
  const obs::RegistrySnapshot back =
      registry_snapshot_from_json(json::parse(obs::to_json(reg.snapshot())));
  ASSERT_EQ(back.histograms.size(), 1u);
  const obs::HistogramSnapshot& hs = back.histograms[0].second;
  ASSERT_EQ(hs.exemplars.size(), hs.buckets.size());
  EXPECT_EQ(hs.exemplars[0].trace_id, 0xbeefull);
  EXPECT_DOUBLE_EQ(hs.exemplars[0].value, 0.5);
  EXPECT_EQ(hs.exemplars[1].trace_id, 0u);  // sparse: untouched bucket
  EXPECT_EQ(hs.exemplars[2].trace_id, 0xcafeull);
  EXPECT_DOUBLE_EQ(hs.exemplars[2].value, 40.0);
  // Out-of-range bucket indices in a foreign snapshot are ignored, not UB.
  const obs::RegistrySnapshot hostile = registry_snapshot_from_json(json::parse(
      R"({"histograms":{"lat":{"count":1,"sum":1,"bounds":[1.0],)"
      R"("buckets":[1,0],"exemplars":[{"bucket":9,"trace":"ff","v":2}]}}})"));
  ASSERT_EQ(hostile.histograms.size(), 1u);
  for (const obs::Exemplar& ex : hostile.histograms[0].second.exemplars) {
    EXPECT_EQ(ex.trace_id, 0u);
  }
}

TEST(Protocol, StatsSnapshotRoundTrip) {
  StatsSnapshot s;
  s.requests = 10;
  s.responses = 9;
  s.queue_depth = 3;
  s.package_reloads = 2;
  s.reload_rejected = 1;
  s.occupancy = 0.75;
  s.p50_latency_ms = 1.5;
  s.p99_latency_ms = 8.25;
  s.package_hash = "0123456789abcdef";
  const StatsSnapshot back =
      stats_from_json(json::parse(json::dump(stats_to_json(s))));
  EXPECT_EQ(back.requests, 10u);
  EXPECT_EQ(back.responses, 9u);
  EXPECT_EQ(back.queue_depth, 3u);
  EXPECT_EQ(back.package_reloads, 2u);
  EXPECT_EQ(back.reload_rejected, 1u);
  EXPECT_DOUBLE_EQ(back.occupancy, 0.75);
  EXPECT_DOUBLE_EQ(back.p50_latency_ms, 1.5);
  EXPECT_DOUBLE_EQ(back.p99_latency_ms, 8.25);
  EXPECT_EQ(back.package_hash, "0123456789abcdef");
}

TEST(Protocol, RegistrySnapshotFromJsonReadsTheMetricsOpPayload) {
  obs::Registry reg;
  reg.counter("service.requests").add(4);
  reg.gauge("service.queue_depth").set(2.0);
  obs::Histogram& h = reg.histogram("service.latency_ms");
  h.record(0.5);
  h.record(3.0);
  const obs::RegistrySnapshot back =
      registry_snapshot_from_json(json::parse(obs::to_json(reg.snapshot())));
  ASSERT_EQ(back.counters.size(), 1u);
  EXPECT_EQ(back.counters[0].first, "service.requests");
  EXPECT_EQ(back.counters[0].second, 4u);
  ASSERT_EQ(back.gauges.size(), 1u);
  EXPECT_DOUBLE_EQ(back.gauges[0].second, 2.0);
  ASSERT_EQ(back.histograms.size(), 1u);
  const obs::HistogramSnapshot& hs = back.histograms[0].second;
  EXPECT_EQ(hs.count, 2u);
  EXPECT_DOUBLE_EQ(hs.sum, 3.5);
  EXPECT_DOUBLE_EQ(hs.min, 0.5);
  EXPECT_DOUBLE_EQ(hs.max, 3.0);
  ASSERT_FALSE(hs.bounds.empty());
  EXPECT_EQ(hs.buckets.size(), hs.bounds.size() + 1);
  std::uint64_t total = 0;
  for (std::uint64_t c : hs.buckets) total += c;
  EXPECT_EQ(total, 2u);
}

TEST(Protocol, ResolveRequestValidates) {
  const auto d = synth::make_gcut({.n = 2, .t_max = 10});
  GenRequest req;
  req.count = 1;
  req.fixed.push_back({"no-such-attr", 0.0f, ""});
  EXPECT_THROW(resolve_request(req, d.schema), std::invalid_argument);

  GenRequest bad_len;
  bad_len.max_len = d.schema.max_timesteps + 1;
  EXPECT_THROW(resolve_request(bad_len, d.schema), std::invalid_argument);

  // The count is capped: an engine allocates the whole reply up front.
  GenRequest most;
  most.count = kMaxRequestCount;
  resolve_request(most, d.schema);
  for (const int count : {0, -1, kMaxRequestCount + 1, 2'000'000'000}) {
    GenRequest bad_count;
    bad_count.count = count;
    EXPECT_THROW(resolve_request(bad_count, d.schema), std::invalid_argument)
        << count;
  }

  // A categorical value is range-checked before any int cast.
  for (const float bad : {-1.0f, 1e30f, -1e30f}) {
    GenRequest bad_category;
    bad_category.fixed.push_back({d.schema.attributes[0].name, bad, ""});
    EXPECT_THROW(resolve_request(bad_category, d.schema),
                 std::invalid_argument)
        << bad;
  }

  // A request with a `where` may cost at most kMaxRequestDraws draws;
  // without one, `attempts` is unused and not bounded.
  const AttrPredicate any{d.schema.attributes[0].name, AttrPredicate::Op::Eq,
                          0.0f, ""};
  const auto conditional = [&](int count, int attempts, bool where) {
    GenRequest r;
    r.count = count;
    r.max_attempts = attempts;
    if (where) r.where.push_back(any);
    return r;
  };
  for (const auto& [count, attempts] :
       {std::pair{kMaxRequestCount, 17}, std::pair{1, 2147483647}}) {
    GenRequest r = conditional(count, attempts, true);
    EXPECT_THROW(resolve_request(r, d.schema), std::invalid_argument)
        << count << " x " << attempts;
  }
  GenRequest widest = conditional(kMaxRequestCount, 16, true);
  EXPECT_NO_THROW(resolve_request(widest, d.schema));
  GenRequest plain_many = conditional(1, 2147483647, false);
  EXPECT_NO_THROW(resolve_request(plain_many, d.schema));

  // Label resolution fills in the numeric category.
  GenRequest ok;
  ok.fixed.push_back({d.schema.attributes[0].name, 0.0f,
                      d.schema.attributes[0].labels[1]});
  resolve_request(ok, d.schema);
  EXPECT_EQ(ok.fixed[0].value, 1.0f);
}

// ----------------------------------------------------------------- queue

TEST(BoundedQueue, BlocksProducersAtCapacityAndDrainsAfterClose) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.try_push(1));
  ASSERT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full

  std::thread producer([&] { q.push(3); });  // blocks until a pop frees room
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  q.close();
  EXPECT_FALSE(q.push(9));  // closed: rejected
  EXPECT_EQ(q.pop().value(), 2);  // but the backlog still drains
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.pop(), std::nullopt);  // closed and drained
}

TEST(BoundedQueue, PopForTimesOut) {
  BoundedQueue<int> q(1);
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(q.pop_for(std::chrono::milliseconds(30)), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(25));
}

}  // namespace
}  // namespace dg::serve
