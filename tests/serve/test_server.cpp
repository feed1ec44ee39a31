// Loopback smoke test for the serving stack (GenerationService + TcpServer).
// Runs under the CI tsan job (label serve-smoke) with DG_THREADS=4, so it is
// also the data-race canary for the whole serve path: connection threads,
// engine threads, the intra-op pool, and hot reload all execute here.
#include "serve/server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/doppelganger.h"
#include "core/package.h"
#include "core/preflight.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "synth/synth.h"

namespace dg::serve {
namespace {

core::DoppelGangerConfig tiny_cfg(uint64_t seed = 3) {
  core::DoppelGangerConfig cfg;
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
  cfg.iterations = 2;
  cfg.seed = seed;
  return cfg;
}

std::shared_ptr<core::DoppelGanger> make_model(
    const core::DoppelGangerConfig& cfg) {
  auto d = synth::make_gcut({.n = 8, .t_max = 20});
  for (auto& o : d.data) {
    if (o.length() > 20) o.features.resize(20);
  }
  d.schema.max_timesteps = 20;
  return std::make_shared<core::DoppelGanger>(d.schema, cfg);
}

std::shared_ptr<core::DoppelGanger> make_model(uint64_t seed = 3) {
  return make_model(tiny_cfg(seed));
}

ServiceConfig small_service_cfg() {
  ServiceConfig cfg;
  cfg.slots = 8;
  cfg.engines = 2;
  cfg.queue_capacity = 64;
  cfg.reload_poll_seconds = 0.0;
  return cfg;
}

GenRequest plain_request(std::uint64_t id, std::uint64_t seed, int n) {
  GenRequest req;
  req.id = id;
  req.seed = seed;
  req.count = n;
  return req;
}

TEST(GenerationService, AnswersPlainRequests) {
  GenerationService service(make_model(), small_service_cfg());
  service.start();
  auto fut = service.submit(plain_request(1, 99, 4));
  const GenResponse resp = fut.get();
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(resp.complete);
  EXPECT_EQ(resp.objects.size(), 4u);
  EXPECT_GE(resp.latency_ms, 0.0);
  const StatsSnapshot st = service.stats();
  EXPECT_EQ(st.requests, 1u);
  EXPECT_EQ(st.responses, 1u);
  EXPECT_EQ(st.series_completed, 4u);
  EXPECT_GT(st.rnn_steps, 0u);
  service.stop();
}

TEST(GenerationService, RejectsInvalidRequestsWithoutEnqueueing) {
  GenerationService service(make_model(), small_service_cfg());
  service.start();
  GenRequest req = plain_request(5, 1, 1);
  req.fixed.push_back({"no-such-attribute", 0.0f, ""});
  const GenResponse resp = service.submit(req).get();
  EXPECT_FALSE(resp.ok);
  EXPECT_NE(resp.error.find("no-such-attribute"), std::string::npos);
  service.stop();
}

// Acceptance criterion: same seed => bit-identical series, solo or
// co-batched with 31 concurrent requests across multiple engine threads.
TEST(GenerationService, PerRequestDeterminismUnderConcurrency) {
  auto model = make_model();
  data::Dataset solo_objects;
  {
    GenerationService service(model, small_service_cfg());
    service.start();
    const GenResponse solo = service.submit(plain_request(1, 777, 2)).get();
    ASSERT_TRUE(solo.ok);
    solo_objects = solo.objects;
    service.stop();
  }
  {
    GenerationService service(model, small_service_cfg());
    service.start();
    std::vector<std::future<GenResponse>> noise;
    noise.reserve(31);
    for (int i = 0; i < 31; ++i) {
      GenRequest req = plain_request(100 + static_cast<std::uint64_t>(i),
                                     static_cast<std::uint64_t>(i) * 13 + 1, 1);
      if (i % 3 == 0) req.max_len = 4;  // mixed lengths churn the slots
      noise.push_back(service.submit(req));
    }
    const GenResponse busy = service.submit(plain_request(1, 777, 2)).get();
    for (auto& f : noise) EXPECT_TRUE(f.get().ok);
    ASSERT_TRUE(busy.ok);
    ASSERT_EQ(busy.objects.size(), solo_objects.size());
    for (size_t i = 0; i < solo_objects.size(); ++i) {
      const auto& a = solo_objects[i];
      const auto& b = busy.objects[i];
      ASSERT_EQ(a.attributes, b.attributes);
      ASSERT_EQ(a.features, b.features);
    }
    service.stop();
  }
}

TEST(GenerationService, ConditionalDegradesToPartial) {
  GenerationService service(make_model(), small_service_cfg());
  service.start();
  GenRequest req = plain_request(3, 11, 3);
  AttrPredicate p;
  p.attr = service.schema().attributes[0].name;
  p.op = AttrPredicate::Op::Eq;
  p.value = -5.0f;  // unsatisfiable
  req.where.push_back(p);
  req.max_attempts = 2;
  const GenResponse resp = service.submit(req).get();
  EXPECT_TRUE(resp.ok);           // the request executed
  EXPECT_FALSE(resp.complete);    // ...but matched nothing
  EXPECT_TRUE(resp.objects.empty());
  EXPECT_EQ(resp.series_rejected, 6);  // 3 series x 2 attempts
  EXPECT_NE(resp.error.find("0/3"), std::string::npos);
  service.stop();
}

// A predicate no series can meet, sent with the largest `attempts`, would
// keep an engine retrying for hours; submit refuses it before it queues.
TEST(GenerationService, RefusesUnboundedConditionalRequestAtOnce) {
  auto service = std::make_unique<GenerationService>(make_model(),
                                                     small_service_cfg());
  service->start();
  GenRequest req = plain_request(9, 1, kMaxRequestCount);
  req.max_attempts = 2147483647;
  req.where.push_back({service->schema().attributes[0].name,
                       AttrPredicate::Op::Eq, -5.0f, ""});
  std::future<GenResponse> fut = service->submit(req);
  if (fut.wait_for(std::chrono::seconds(5)) != std::future_status::ready) {
    // Admitted: stop() would wait for the request to finish, so leave the
    // service running rather than hang the test.
    (void)service.release();
    FAIL() << "the request was admitted";
  }
  const GenResponse resp = fut.get();
  EXPECT_FALSE(resp.ok);
  EXPECT_EQ(resp.code, error_code::kBadRequest);
  EXPECT_EQ(service->stats().series_rejected, 0u);
  service->stop();
}

TEST(GenerationService, HotReloadSwapsThePackage) {
  const std::string path = ::testing::TempDir() + "/served.dgpkg";
  core::save_package_file(path, *make_model(3));
  ServiceConfig cfg = small_service_cfg();
  cfg.package_path = path;
  cfg.engines = 1;
  cfg.reload_poll_seconds = 0.01;
  GenerationService service(cfg);
  service.start();
  const GenResponse before = service.submit(plain_request(1, 5, 1)).get();
  ASSERT_TRUE(before.ok);

  // Replace the package with differently-seeded weights; ensure the mtime
  // moves even on coarse-grained filesystems.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  core::save_package_file(path, *make_model(1234));
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.reloads() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    service.submit(plain_request(2, 5, 1)).get();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(service.reloads(), 1u);
  const GenResponse after = service.submit(plain_request(3, 5, 1)).get();
  ASSERT_TRUE(after.ok);
  // Same request seed, different weights => different series.
  EXPECT_NE(before.objects[0].features, after.objects[0].features);
  EXPECT_GE(service.stats().package_reloads, 1u);
  service.stop();
}

TEST(GenerationService, HotReloadRejectsCorruptPackageAndKeepsServing) {
  const std::string path = ::testing::TempDir() + "/rejected.dgpkg";
  core::save_package_file(path, *make_model(3));
  ServiceConfig cfg = small_service_cfg();
  cfg.package_path = path;
  cfg.engines = 1;
  cfg.reload_poll_seconds = 0.01;
  GenerationService service(cfg);
  service.start();
  const GenResponse before = service.submit(plain_request(1, 5, 1)).get();
  ASSERT_TRUE(before.ok);

  // Truncate the package on disk (a crashed writer mid-release). The
  // preflight must refuse the swap, bump the rejection counter exactly once
  // for this file version, and keep the old weights serving.
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // move mtime
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() - 128));
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.reloads_rejected() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    const GenResponse r = service.submit(plain_request(2, 5, 1)).get();
    ASSERT_TRUE(r.ok);  // old weights keep serving throughout
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(service.reloads_rejected(), 1u);
  EXPECT_EQ(service.reloads(), 0u);
  EXPECT_EQ(service.stats().reload_rejected, 1u);
  // Same request, same seed: bit-identical to pre-corruption output.
  const GenResponse during = service.submit(plain_request(3, 5, 1)).get();
  ASSERT_TRUE(during.ok);
  EXPECT_EQ(before.objects[0].features, during.objects[0].features);

  // A good package landing afterwards must still swap in.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  core::save_package_file(path, *make_model(1234));
  const auto deadline2 =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (service.reloads() == 0 &&
         std::chrono::steady_clock::now() < deadline2) {
    service.submit(plain_request(4, 5, 1)).get();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(service.reloads(), 1u);
  EXPECT_EQ(service.reloads_rejected(), 1u);  // still the one bad version
  service.stop();
}

TEST(GenerationService, ConstructionRefusesCorruptPackage) {
  const std::string path = ::testing::TempDir() + "/corrupt-ctor.dgpkg";
  {
    std::ofstream out(path, std::ios::binary);
    out << "doppelganger-package v1\nschema_bytes 9999\n";  // truncated
  }
  ServiceConfig cfg = small_service_cfg();
  cfg.package_path = path;
  try {
    GenerationService service(cfg);
    FAIL() << "construction must refuse a package that fails preflight";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("preflight"), std::string::npos);
  }
}

TEST(GenerationService, ConstructionRefusesModelWhoseTapeDoesNotBuild) {
  // lr = 0 constructs a model but fails the config checks, so no generation
  // tape verifies for it. An injected model skips the package preflight;
  // the service must still refuse it, naming why, before any engine thread
  // could try to build a sampler for it.
  core::DoppelGangerConfig cfg = tiny_cfg();
  cfg.lr = 0.0f;
  const auto model = make_model(cfg);
  try {
    GenerationService service(model, small_service_cfg());
    FAIL() << "construction must refuse a model whose tape does not build";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tape-config"), std::string::npos) << what;
    EXPECT_NE(what.find("learning rate must be positive"), std::string::npos)
        << what;
  }
}

TEST(GenerationService, PreflightCostIsSmall) {
  // Acceptance criterion: the preflight adds < 5ms to a package load. It is
  // header-only (no float payload is read) plus one symbolic walk, so even
  // on a loaded CI machine the best-of-5 must clear the bar comfortably.
  // Sanitizer builds still run and check all five preflights but skip the
  // bound: their instrumentation, not the preflight, sets the wall time.
  const std::string path = ::testing::TempDir() + "/timed.dgpkg";
  core::save_package_file(path, *make_model(3));
  double best_ms = 1e9;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const core::PackagePreflight pf = core::preflight_package_file(path);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    ASSERT_TRUE(pf.ok);
    best_ms = std::min(best_ms, ms);
  }
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
  GTEST_SKIP() << "sanitizer build: best preflight " << best_ms
               << " ms is instrumentation overhead; the 5 ms bound is "
                  "checked in builds without sanitizers";
#endif
  EXPECT_LT(best_ms, 5.0);
}

TEST(ServiceHandler, HostileLinesAreBadRequestsAndServingContinues) {
  // Each line must get a bad_request reply, and the worker must then answer
  // the next request: a 100,000-deep line must not overflow the parser's
  // stack, and a count no engine may allocate must not abort one.
  GenerationService service(make_model(), small_service_cfg());
  service.start();
  const LineHandler handle = service_handler(service);
  const std::string deep =
      std::string(100'000, '[') + std::string(100'000, ']');
  for (const std::string& line :
       {deep, R"({"op":"generate","n":1,"fixed":)" + deep + "}",
        std::string(R"({"op":"generate","n":2000000000})"),
        std::string(R"({"op":"generate","n":1e999})"),
        std::string(R"({"op":"generate","n":-1})"),
        std::string(R"({"op":"generate","seed":-1})"),
        std::string(R"({"op":"generate","fixed":{"end_event_type":1e30}})")}) {
    SCOPED_TRACE(line.substr(0, 48));
    const json::Value err = json::parse(handle(line));
    EXPECT_FALSE(err.bool_or("ok", true));
    EXPECT_EQ(err.string_or("code", ""), error_code::kBadRequest);
    const json::Value next = json::parse(
        handle(json::dump(request_to_json(plain_request(7, 11, 2)))));
    EXPECT_TRUE(next.bool_or("ok", false));
    EXPECT_EQ(next.find("objects")->as_array().size(), 2u);
  }
  service.stop();
}

TEST(TcpServer, LoopbackRoundTrip) {
  GenerationService service(make_model(), small_service_cfg());
  service.start();
  TcpServer server(service, /*port=*/0);
  server.start();
  ASSERT_GT(server.port(), 0);

  // generate op
  GenRequest req = plain_request(42, 2024, 3);
  const std::string reply = send_line(
      "127.0.0.1", server.port(), json::dump(request_to_json(req)));
  const GenResponse resp =
      response_from_json(json::parse(reply), service.schema());
  EXPECT_TRUE(resp.ok);
  EXPECT_TRUE(resp.complete);
  EXPECT_EQ(resp.id, 42u);
  EXPECT_EQ(resp.objects.size(), 3u);

  // stats op
  const json::Value stats =
      json::parse(send_line("127.0.0.1", server.port(), R"({"op":"stats"})"));
  EXPECT_GE(stats.number_or("responses", 0), 1.0);
  EXPECT_GT(stats.number_or("rnn_steps", 0), 0.0);
  EXPECT_GT(stats.number_or("occupancy", 0), 0.0);

  // schema op round-trips through the text schema format
  const json::Value sv =
      json::parse(send_line("127.0.0.1", server.port(), R"({"op":"schema"})"));
  EXPECT_TRUE(sv.bool_or("ok", false));
  EXPECT_FALSE(sv.string_or("schema", "").empty());

  // malformed line => JSON error, connection (and server) survive
  const json::Value err =
      json::parse(send_line("127.0.0.1", server.port(), "not json"));
  EXPECT_FALSE(err.bool_or("ok", true));

  server.stop();
  service.stop();
}

TEST(TcpServer, ConcurrentClients) {
  GenerationService service(make_model(), small_service_cfg());
  service.start();
  TcpServer server(service, 0);
  server.start();
  std::vector<std::thread> clients;
  std::atomic<int> ok_count{0};
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&, i] {
      GenRequest req = plain_request(static_cast<std::uint64_t>(i),
                                     static_cast<std::uint64_t>(i) + 1, 2);
      const std::string reply = send_line("127.0.0.1", server.port(),
                                          json::dump(request_to_json(req)));
      const GenResponse resp =
          response_from_json(json::parse(reply), service.schema());
      if (resp.ok && resp.objects.size() == 2) ++ok_count;
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(ok_count.load(), 6);
  server.stop();
  service.stop();
}

}  // namespace
}  // namespace dg::serve
