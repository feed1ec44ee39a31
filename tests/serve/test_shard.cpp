// Shard-tier smoke suite (ctest label shard-smoke; the tsan CI job runs it
// with DG_THREADS=4). Covers the acceptance criteria of the sharded serving
// tier end to end:
//   * seed-hash routing is stable, uniform, and byte-identical to a single
//     service at replica counts {1, 2, 4};
//   * the generation cache hits, rewrites ids, and invalidates on package
//     reload; a corrupt package is rejected by every worker's preflight
//     while the old weights keep serving;
//   * admission control sheds with structured `shed` errors when the fleet
//     is saturated or over its p99 SLO; drains reroute transparently;
//   * chaos: SIGKILLing a managed worker mid-load loses zero client
//     requests, and the respawn is visible in router metrics.
// In-process tests drive Router::handle_line directly and pump the health
// monitor with sweep_now() — deterministic, no background thread; the chaos
// test runs the real thing (spawned dgcli workers + monitor thread).
#include "serve/shard/router.h"

#include <gtest/gtest.h>
#include <signal.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/doppelganger.h"
#include "core/package.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/shard/cache.h"
#include "serve/shard/health.h"
#include "serve/shard/worker_pool.h"
#include "synth/synth.h"

namespace dg::serve::shard {
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

std::shared_ptr<core::DoppelGanger> make_model(uint64_t seed = 3) {
  auto d = synth::make_gcut({.n = 8, .t_max = 20});
  for (auto& o : d.data) {
    if (o.length() > 20) o.features.resize(20);
  }
  d.schema.max_timesteps = 20;
  return std::make_shared<core::DoppelGanger>(d.schema, tiny_cfg(seed));
}

ServiceConfig small_service_cfg() {
  ServiceConfig cfg;
  cfg.slots = 8;
  cfg.engines = 2;
  cfg.queue_capacity = 64;
  cfg.reload_poll_seconds = 0.0;
  return cfg;
}

std::string gen_line(std::uint64_t id, std::uint64_t seed, int n) {
  GenRequest req;
  req.id = id;
  req.seed = seed;
  req.count = n;
  return json::dump(request_to_json(req));
}

/// One in-process replica: a GenerationService behind a loopback TcpServer,
/// exactly what `dgcli serve` runs minus the process boundary.
struct Replica {
  GenerationService service;
  TcpServer server;
  explicit Replica(const ServiceConfig& cfg) : service(cfg), server(service, 0) {
    service.start();
    server.start();
  }
  ~Replica() {
    server.stop();
    service.stop();
  }
};

struct Fleet {
  std::vector<std::unique_ptr<Replica>> replicas;
  std::unique_ptr<WorkerPool> pool;
};

Fleet make_fleet(std::size_t n, const ServiceConfig& cfg) {
  Fleet f;
  std::vector<WorkerEndpoint> eps;
  for (std::size_t i = 0; i < n; ++i) {
    f.replicas.push_back(std::make_unique<Replica>(cfg));
    eps.push_back({"127.0.0.1", f.replicas.back()->server.port()});
  }
  f.pool = std::make_unique<WorkerPool>(std::move(eps));
  return f;
}

// Every test that compares series across serving topologies reduces a reply
// to its decoded objects; float equality is exact by design (the routing
// invariant promises bit-identity, not closeness).
data::Dataset objects_of(const std::string& reply, const data::Schema& schema) {
  const GenResponse resp = response_from_json(json::parse(reply), schema);
  EXPECT_TRUE(resp.ok) << reply;
  return resp.objects;
}

void expect_same_objects(const data::Dataset& a, const data::Dataset& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].attributes, b[i].attributes);
    ASSERT_EQ(a[i].features, b[i].features);
  }
}

// ---------------------------------------------------------------------------
// shard_of: the routing hash.

TEST(ShardOf, StableAndSingleWorkerDegenerate) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xffffffffffffffffull}) {
    EXPECT_EQ(shard_of(seed, 1), 0u);
    // Same seed, same n => same shard, every time (the whole invariant).
    EXPECT_EQ(shard_of(seed, 4), shard_of(seed, 4));
  }
}

TEST(ShardOf, SpreadsConsecutiveSeeds) {
  // splitmix64 finalizer: sequential seeds must not stride the modulus.
  // With 4 shards and 400 consecutive seeds, every shard should see a
  // healthy share (a plain `seed % n` would be exactly uniform here too,
  // but would collapse for strided seed patterns; check one of those).
  std::vector<int> counts(4, 0);
  for (std::uint64_t s = 0; s < 400; ++s) ++counts[shard_of(s, 4)];
  for (int c : counts) EXPECT_GT(c, 50);
  std::fill(counts.begin(), counts.end(), 0);
  for (std::uint64_t s = 0; s < 1600; s += 4) ++counts[shard_of(s, 4)];
  for (int c : counts) EXPECT_GT(c, 50);  // seed stride == n still spreads
}

// ---------------------------------------------------------------------------
// parse_endpoint.

TEST(ParseEndpoint, AcceptsAllThreeForms) {
  EXPECT_EQ(parse_endpoint("7788").port, 7788);
  EXPECT_EQ(parse_endpoint("7788").host, "127.0.0.1");
  EXPECT_EQ(parse_endpoint(":7788").port, 7788);
  const WorkerEndpoint ep = parse_endpoint("10.0.0.5:7001");
  EXPECT_EQ(ep.host, "10.0.0.5");
  EXPECT_EQ(ep.port, 7001);
}

TEST(ParseEndpoint, RejectsMalformedInput) {
  EXPECT_THROW(parse_endpoint(""), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:0"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:99999"), std::invalid_argument);
  EXPECT_THROW(parse_endpoint("host:12x"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// GenCache: key canonicalization, id rewrite, LRU.

TEST(GenCacheUnit, KeyIgnoresClientIdAndRequiresHash) {
  GenRequest a;
  a.id = 7;
  a.seed = 99;
  a.count = 2;
  GenRequest b = a;
  b.id = 12345;  // id is an echo field, not an input to generation
  EXPECT_EQ(cache_key("deadbeef", a), cache_key("deadbeef", b));
  b.seed = 100;
  EXPECT_NE(cache_key("deadbeef", a), cache_key("deadbeef", b));
  EXPECT_NE(cache_key("deadbeef", a), cache_key("cafe", a));
  EXPECT_TRUE(cache_key("", a).empty());  // no hash => uncacheable
}

TEST(GenCacheUnit, RewriteReplyId) {
  EXPECT_EQ(rewrite_reply_id(R"({"id":0,"ok":true})", 42),
            R"({"id":42,"ok":true})");
  EXPECT_EQ(rewrite_reply_id(R"({"id":998877,"ok":true})", 5),
            R"({"id":5,"ok":true})");
  // Non-canonical field order falls back to a JSON round-trip but still
  // lands the right id.
  const std::string odd = rewrite_reply_id(R"({"ok":true,"id":3})", 9);
  EXPECT_EQ(json::parse(odd).number_or("id", -1), 9.0);
}

/// The DOM parser's reading of reply_cacheable's decision.
bool parsed_cacheable(const std::string& reply, const std::string& fleet) {
  const json::Value v = json::parse(reply);
  return !fleet.empty() && v.bool_or("ok", false) &&
         v.bool_or("complete", false) &&
         v.string_or("package_hash", "") == fleet;
}

TEST(GenCacheUnit, ReplyCacheableAgreesWithTheParser) {
  const std::string fleet = "00c0ffee12345678";
  // Schemas whose attribute names are reply fields, labelled with the
  // fleet hash and "true": entries of the objects that byte-match a field.
  std::vector<data::Schema> schemas(4);
  const auto attribute = [](std::string name, std::vector<std::string> labels) {
    data::FieldSpec f;
    f.name = std::move(name);
    f.type = data::FieldType::Categorical;
    f.n_categories = static_cast<int>(labels.size());
    f.labels = std::move(labels);
    return f;
  };
  schemas[1].attributes = {attribute("package_hash", {fleet, "x"})};
  schemas[2].attributes = {attribute("ok", {"true"}),
                           attribute("complete", {"true"})};
  schemas[3].attributes = {attribute("package_hash", {fleet}),
                           attribute("ok", {"true"}),
                           attribute("complete", {"true"})};
  const std::vector<std::string> errors = {
      "",
      R"("ok":true)",
      R"(x","ok":true,"complete":true,"package_hash":")" + fleet,
      R"(say "hi" \ and \\ "objects":[)",
      "\\",
  };
  const std::vector<std::string> hashes = {fleet, "", "0badc0de",
                                           fleet + "0"};
  int cacheable = 0, checked = 0;
  for (const data::Schema& schema : schemas) {
    for (const std::string& error : errors) {
      for (const std::string& hash : hashes) {
        for (const int flags : {0, 1, 2, 3}) {
          GenResponse resp;
          resp.id = 17;
          resp.ok = (flags & 1) != 0;
          resp.complete = (flags & 2) != 0;
          resp.error = error;
          resp.package_hash = hash;
          if (!schema.attributes.empty()) {
            data::Object o;
            o.attributes.assign(schema.attributes.size(), 0.0f);
            o.features = {{1.5f, -2.0f}};
            resp.objects = {o, o};
          }
          std::string line;
          append_response(line, resp, schema);
          for (const std::string& f : {fleet, std::string()}) {
            const bool want = parsed_cacheable(line, f);
            EXPECT_EQ(reply_cacheable(line, f), want) << line;
            cacheable += want ? 1 : 0;
            ++checked;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 4 * 5 * 4 * 4 * 2);
  EXPECT_EQ(cacheable, 4 * 5);  // ok, complete and the fleet's hash
}

TEST(GenCacheUnit, LruEvictionAndInvalidate) {
  GenCache cache(2);
  std::string out;
  EXPECT_FALSE(cache.lookup("a", out));
  EXPECT_FALSE(cache.insert("a", "ra"));
  EXPECT_FALSE(cache.insert("b", "rb"));
  EXPECT_TRUE(cache.lookup("a", out));  // refreshes a => b becomes LRU
  EXPECT_EQ(out, "ra");
  EXPECT_TRUE(cache.insert("c", "rc"));  // evicts b
  EXPECT_FALSE(cache.lookup("b", out));
  EXPECT_TRUE(cache.lookup("a", out));
  EXPECT_TRUE(cache.lookup("c", out));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.invalidate(), 2u);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup("a", out));
}

TEST(GenCacheUnit, CapacityZeroDisables) {
  GenCache cache(0);
  std::string out;
  EXPECT_FALSE(cache.insert("a", "ra"));
  EXPECT_FALSE(cache.lookup("a", out));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------------
// Routing determinism: the headline invariant. The same request must yield
// byte-identical series through 1, 2, or 4 workers as from a lone service.

TEST(ShardRouter, SeedRoutingMatchesSingleServiceAtAnyReplicaCount) {
  const std::string pkg = ::testing::TempDir() + "/routed.dgpkg";
  core::save_package_file(pkg, *make_model(3));
  ServiceConfig cfg = small_service_cfg();
  cfg.package_path = pkg;

  const std::vector<std::uint64_t> seeds = {5, 777, 424242};
  std::vector<data::Dataset> solo;
  data::Schema schema;
  {
    GenerationService service(cfg);
    service.start();
    schema = service.schema();
    for (std::uint64_t s : seeds) {
      GenRequest req;
      req.id = 1;
      req.seed = s;
      req.count = 2;
      const GenResponse resp = service.submit(req).get();
      ASSERT_TRUE(resp.ok);
      solo.push_back(resp.objects);
    }
    service.stop();
  }

  for (std::size_t n : {1u, 2u, 4u}) {
    Fleet fleet = make_fleet(n, cfg);
    Router router(*fleet.pool, RouterConfig{});
    router.health().sweep_now();
    EXPECT_FALSE(router.health().fleet_hash().empty());
    for (std::size_t i = 0; i < seeds.size(); ++i) {
      const std::string reply =
          router.handle_line(gen_line(100 + i, seeds[i], 2));
      expect_same_objects(solo[i], objects_of(reply, schema));
      // Every reply names the weights that produced it.
      EXPECT_EQ(json::parse(reply).string_or("package_hash", ""),
                router.health().fleet_hash());
    }
  }
}

// ---------------------------------------------------------------------------
// Cache behaviour through the router.

TEST(ShardRouter, CacheHitIsByteIdenticalAndRewritesIds) {
  const std::string pkg = ::testing::TempDir() + "/cached.dgpkg";
  core::save_package_file(pkg, *make_model(3));
  ServiceConfig cfg = small_service_cfg();
  cfg.package_path = pkg;
  Fleet fleet = make_fleet(2, cfg);
  Router router(*fleet.pool, RouterConfig{});
  router.health().sweep_now();

  const std::string first = router.handle_line(gen_line(7, 99, 2));
  ASSERT_TRUE(json::parse(first).bool_or("ok", false));
  // Identical request => the cached reply, byte for byte (latency included:
  // it IS the stored worker reply, not a re-execution).
  const std::string second = router.handle_line(gen_line(7, 99, 2));
  EXPECT_EQ(first, second);
  // A different client id gets the same series under its own id.
  const std::string third = router.handle_line(gen_line(12345, 99, 2));
  EXPECT_EQ(third, rewrite_reply_id(first, 12345));

  obs::Registry& reg = router.registry();
  EXPECT_EQ(reg.counter("router.cache_hits").get(), 2u);
  EXPECT_EQ(reg.counter("router.cache_misses").get(), 1u);
  EXPECT_EQ(reg.counter("router.cache_inserts").get(), 1u);
  EXPECT_EQ(router.cache().size(), 1u);
}

TEST(ShardRouter, RollingReloadInvalidatesCacheAndSwapsWeights) {
  const std::string pkg = ::testing::TempDir() + "/rolled.dgpkg";
  core::save_package_file(pkg, *make_model(3));
  ServiceConfig cfg = small_service_cfg();
  cfg.package_path = pkg;
  cfg.engines = 1;
  cfg.reload_poll_seconds = 0.01;
  Fleet fleet = make_fleet(2, cfg);
  Router router(*fleet.pool, RouterConfig{});
  router.health().sweep_now();
  const std::string old_hash = router.health().fleet_hash();
  ASSERT_FALSE(old_hash.empty());
  data::Schema schema = fleet.replicas[0]->service.schema();

  const std::string before = router.handle_line(gen_line(1, 42, 1));
  ASSERT_TRUE(json::parse(before).bool_or("ok", false));
  EXPECT_EQ(router.cache().size(), 1u);

  // Release new weights under the same path. Workers preflight + hot-swap
  // independently; the fleet hash passes through "" (mixed) to the new
  // consensus, and every transition drops the cache.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  core::save_package_file(pkg, *make_model(1234));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t poke = 1000;
  while (std::chrono::steady_clock::now() < deadline) {
    router.handle_line(gen_line(2, ++poke, 1));  // keep engines cycling
    router.health().sweep_now();
    const std::string h = router.health().fleet_hash();
    if (!h.empty() && h != old_hash) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const std::string new_hash = router.health().fleet_hash();
  ASSERT_FALSE(new_hash.empty());
  ASSERT_NE(new_hash, old_hash);
  EXPECT_GE(router.registry().counter("router.cache_invalidations").get(), 1u);

  // Same seed, new weights: a fresh (different) series, served and cached
  // under the new identity.
  const std::string after = router.handle_line(gen_line(3, 42, 1));
  const data::Dataset a = objects_of(before, schema);
  const data::Dataset b = objects_of(after, schema);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(a[0].features, b[0].features);
  EXPECT_EQ(json::parse(after).string_or("package_hash", ""), new_hash);
}

TEST(ShardRouter, CorruptPackageIsRejectedFleetWideOldWeightsKeepServing) {
  const std::string pkg = ::testing::TempDir() + "/poisoned.dgpkg";
  core::save_package_file(pkg, *make_model(3));
  ServiceConfig cfg = small_service_cfg();
  cfg.package_path = pkg;
  cfg.engines = 1;
  cfg.reload_poll_seconds = 0.01;
  Fleet fleet = make_fleet(2, cfg);
  Router router(*fleet.pool, RouterConfig{});
  router.health().sweep_now();
  const std::string old_hash = router.health().fleet_hash();
  ASSERT_FALSE(old_hash.empty());

  // Truncate the shared package (a crashed writer mid-release).
  {
    std::ifstream in(pkg, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    std::this_thread::sleep_for(std::chrono::milliseconds(20));  // move mtime
    std::ofstream out(pkg, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 128));
  }

  // Drive traffic until BOTH workers' preflights have refused the swap —
  // visible through the router's aggregated stats — with every reply along
  // the way still served from the old weights.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::uint64_t poke = 2000;
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string r = router.handle_line(gen_line(4, ++poke, 1));
    ASSERT_TRUE(json::parse(r).bool_or("ok", false)) << r;
    router.health().sweep_now();
    const json::Value stats = json::parse(router.handle_line(R"({"op":"stats"})"));
    if (stats.find("fleet")->number_or("reload_rejected", 0) >= 2.0) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const json::Value stats = json::parse(router.handle_line(R"({"op":"stats"})"));
  EXPECT_GE(stats.find("fleet")->number_or("reload_rejected", 0), 2.0);
  // The fleet identity never moved, and new requests still carry it.
  EXPECT_EQ(router.health().fleet_hash(), old_hash);
  const std::string reply = router.handle_line(gen_line(5, 31337, 1));
  EXPECT_EQ(json::parse(reply).string_or("package_hash", ""), old_hash);
}

// ---------------------------------------------------------------------------
// Structured errors, shedding, drains.

TEST(ShardRouter, StructuredErrorCodes) {
  // Nothing listening on the endpoint: worker never promotes, generate gets
  // a machine-readable worker_down, not a hang or prose-only error.
  WorkerPool pool({WorkerEndpoint{"127.0.0.1", 1}});
  Router router(pool, RouterConfig{});
  router.health().sweep_now();
  const json::Value down = json::parse(router.handle_line(gen_line(1, 5, 1)));
  EXPECT_FALSE(down.bool_or("ok", true));
  EXPECT_EQ(down.string_or("code", ""), error_code::kWorkerDown);

  const json::Value bad = json::parse(router.handle_line("not json"));
  EXPECT_FALSE(bad.bool_or("ok", true));
  EXPECT_EQ(bad.string_or("code", ""), error_code::kBadRequest);

  const json::Value unknown =
      json::parse(router.handle_line(R"({"op":"frobnicate"})"));
  EXPECT_FALSE(unknown.bool_or("ok", true));
  EXPECT_EQ(unknown.string_or("code", ""), error_code::kBadRequest);

  const json::Value admin =
      json::parse(router.handle_line(R"({"op":"drain","worker":99})"));
  EXPECT_FALSE(admin.bool_or("ok", true));
  EXPECT_EQ(admin.string_or("code", ""), error_code::kBadRequest);
}

TEST(ShardRouter, HostileLinesAreBadRequestsAndTheFleetKeepsServing) {
  // A 100,000-deep line must not overflow the router's parser, and a count
  // no worker may serve must come back as the worker's bad_request rather
  // than take a replica down and fail over to the next one.
  const std::string pkg = ::testing::TempDir() + "/hostile.dgpkg";
  core::save_package_file(pkg, *make_model(3));
  ServiceConfig cfg = small_service_cfg();
  cfg.package_path = pkg;
  Fleet fleet = make_fleet(2, cfg);
  Router router(*fleet.pool, RouterConfig{});
  router.health().sweep_now();
  const std::string deep =
      std::string(100'000, '[') + std::string(100'000, ']');
  std::uint64_t seed = 0;  // fresh seeds: a cache hit would skip the fleet
  // A worker index is integral and in range, or the admin op is refused:
  // 0.5 must not truncate to worker 0, nor 1.9 to worker 1, and a missing,
  // negative or huge index must not reach a float-to-integer cast.
  for (const std::string& line :
       {deep, R"({"op":"generate","id":3,"n":1,"fixed":)" + deep + "}",
        std::string(R"({"op":"generate","id":4,"n":2000000000})"),
        std::string(R"({"op":"generate","id":5,"seed":-1})"),
        std::string(R"({"op":"drain","worker":0.5})"),
        std::string(R"({"op":"drain","worker":1.9})"),
        std::string(R"({"op":"drain"})"),
        std::string(R"({"op":"drain","worker":-1})"),
        std::string(R"({"op":"drain","worker":1e300})"),
        std::string(R"({"op":"restart","worker":-3})")}) {
    SCOPED_TRACE(line.substr(0, 48));
    const json::Value bad = json::parse(router.handle_line(line));
    EXPECT_FALSE(bad.bool_or("ok", true));
    EXPECT_EQ(bad.string_or("code", ""), error_code::kBadRequest);
    for (std::size_t w = 0; w < 2; ++w) {
      EXPECT_EQ(fleet.pool->worker(w).state(), WorkerState::Up) << w;
    }
    // Both replicas still answer.
    std::set<std::size_t> homes;
    while (homes.size() < 2) {
      homes.insert(shard_of(seed, 2));
      const json::Value ok =
          json::parse(router.handle_line(gen_line(10 + seed, seed, 1)));
      EXPECT_TRUE(ok.bool_or("ok", false)) << seed;
      ++seed;
    }
  }
  EXPECT_EQ(json::parse(router.handle_line(
                R"({"op":"generate","id":4,"n":2000000000})"))
                .number_or("id", 0),
            4.0);
}

TEST(ShardRouter, ShedsWithStructuredErrorWhenSaturated) {
  // A fake worker whose generate op blocks until released: lets the test
  // hold the single inflight slot open deterministically.
  std::atomic<bool> entered{false};
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  LineHandler slow = [&](const std::string& line) -> std::string {
    const json::Value v = json::parse(line);
    if (v.string_or("op", "generate") == "stats") {
      return json::dump(stats_to_json(StatsSnapshot{}));
    }
    entered.store(true);
    released.wait();
    GenResponse resp;
    resp.id = static_cast<std::uint64_t>(v.number_or("id", 0));
    resp.ok = resp.complete = true;
    return json::dump(response_to_json(resp, data::Schema{}));
  };
  TcpServer server(slow, 0);
  server.start();
  WorkerPool pool({WorkerEndpoint{"127.0.0.1", server.port()}});
  RouterConfig rc;
  rc.max_inflight_per_worker = 1;
  Router router(pool, rc);
  router.health().sweep_now();
  ASSERT_TRUE(pool.worker(0).routable());

  std::string first;
  std::thread blocked([&] { first = router.handle_line(gen_line(1, 5, 1)); });
  while (!entered.load()) std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const json::Value shed = json::parse(router.handle_line(gen_line(2, 6, 1)));
  EXPECT_FALSE(shed.bool_or("ok", true));
  EXPECT_EQ(shed.string_or("code", ""), error_code::kShed);
  EXPECT_EQ(router.registry().counter("router.shed_saturated").get(), 1u);

  release.set_value();
  blocked.join();
  EXPECT_TRUE(json::parse(first).bool_or("ok", false));
  server.stop();
}

TEST(ShardRouter, ShedsWhenFleetP99ExceedsSlo) {
  // Fake worker reporting a catastrophic p99 through its stats op.
  LineHandler laggard = [](const std::string& line) -> std::string {
    const json::Value v = json::parse(line);
    StatsSnapshot s;
    s.p99_latency_ms = 500.0;
    if (v.string_or("op", "generate") == "stats") {
      return json::dump(stats_to_json(s));
    }
    GenResponse resp;
    resp.ok = resp.complete = true;
    return json::dump(response_to_json(resp, data::Schema{}));
  };
  TcpServer server(laggard, 0);
  server.start();
  WorkerPool pool({WorkerEndpoint{"127.0.0.1", server.port()}});
  RouterConfig rc;
  rc.slo_p99_ms = 10.0;
  Router router(pool, rc);
  router.health().sweep_now();
  EXPECT_EQ(router.health().max_p99_ms(), 500.0);

  const json::Value shed = json::parse(router.handle_line(gen_line(1, 5, 1)));
  EXPECT_FALSE(shed.bool_or("ok", true));
  EXPECT_EQ(shed.string_or("code", ""), error_code::kShed);
  EXPECT_EQ(router.registry().counter("router.shed_slo").get(), 1u);
  server.stop();
}

TEST(ShardRouter, DrainReroutesSeedsTransparently) {
  // Fleet of injected models (no package file): replicas share no hash, so
  // the cache stays cold and every request really crosses the wire.
  auto model = make_model(3);
  std::vector<WorkerEndpoint> eps;
  std::vector<std::unique_ptr<GenerationService>> services;
  std::vector<std::unique_ptr<TcpServer>> servers;
  for (int i = 0; i < 2; ++i) {
    services.push_back(
        std::make_unique<GenerationService>(model, small_service_cfg()));
    services.back()->start();
    servers.push_back(std::make_unique<TcpServer>(*services.back(), 0));
    servers.back()->start();
    eps.push_back({"127.0.0.1", servers.back()->port()});
  }
  WorkerPool pool(eps);
  Router router(pool, RouterConfig{});
  router.health().sweep_now();

  // A seed homed on worker 0, which we then drain.
  std::uint64_t seed = 0;
  while (shard_of(seed, 2) != 0) ++seed;
  const json::Value drained =
      json::parse(router.handle_line(R"({"op":"drain","worker":0})"));
  EXPECT_TRUE(drained.bool_or("ok", false));
  EXPECT_EQ(drained.string_or("state", ""), "draining");
  EXPECT_FALSE(pool.worker(0).routable());

  const json::Value reply =
      json::parse(router.handle_line(gen_line(1, seed, 1)));
  EXPECT_TRUE(reply.bool_or("ok", false));
  EXPECT_GE(router.registry().counter("router.reroutes").get(), 1u);

  const json::Value undrained =
      json::parse(router.handle_line(R"({"op":"undrain","worker":0})"));
  EXPECT_TRUE(undrained.bool_or("ok", false));
  EXPECT_EQ(undrained.string_or("state", ""), "up");

  for (auto& s : servers) s->stop();
  for (auto& s : services) s->stop();
}

// ---------------------------------------------------------------------------
// Chaos: real spawned workers, SIGKILL mid-load, zero failed requests.

TEST(ShardRouter, ChaosKillRespawnLosesNoRequests) {
  const std::string pkg = ::testing::TempDir() + "/chaos.dgpkg";
  core::save_package_file(pkg, *make_model(3));
  SpawnSpec spec;
  spec.argv = {DG_DGCLI_PATH, "serve",     "--model", pkg,  "--slots", "4",
               "--engines",   "1",         "--queue", "64", "--poll",  "0"};
  spec.port_file_dir = ::testing::TempDir();
  spec.quiet = true;  // a leaked worker must never hold ctest's output pipe
  WorkerPool pool(2, spec);
  pool.start();
  RouterConfig rc;
  rc.health.period_seconds = 0.02;
  Router router(pool, rc);
  router.start();

  const auto up_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((pool.worker(0).state() != WorkerState::Up ||
          pool.worker(1).state() != WorkerState::Up) &&
         std::chrono::steady_clock::now() < up_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_EQ(pool.worker(0).state(), WorkerState::Up);
  ASSERT_EQ(pool.worker(1).state(), WorkerState::Up);

  // 4 client threads, ~30 requests each; worker 0 is SIGKILLed mid-load.
  // The contract under test: not one client request may fail — in-flight
  // casualties retry on the surviving replica, and the health monitor
  // respawns the victim.
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int i = 0; i < 30; ++i) {
        const std::uint64_t seed =
            static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i);
        const std::string reply =
            router.handle_line(gen_line(seed, seed, 1));
        try {
          if (!json::parse(reply).bool_or("ok", false)) ++failures;
        } catch (const std::exception&) {
          ++failures;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  const pid_t victim = pool.pid_of(0);
  ASSERT_GT(victim, 0);
  ::kill(victim, SIGKILL);
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0);

  // The kill is visible in router metrics, and the victim comes back Up.
  const auto back_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while ((pool.respawns() < 1 || pool.worker(0).state() != WorkerState::Up) &&
         std::chrono::steady_clock::now() < back_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(pool.respawns(), 1u);
  EXPECT_EQ(pool.worker(0).state(), WorkerState::Up);
  const json::Value stats = json::parse(router.handle_line(R"({"op":"stats"})"));
  EXPECT_GE(stats.find("router")->number_or("worker_restarts", 0), 1.0);

  // Rolling restart through the admin op (the zero-downtime reload path):
  // drains, replaces, and repromotes without a failed request.
  const json::Value restarted =
      json::parse(router.handle_line(R"({"op":"restart","worker":1})"));
  EXPECT_TRUE(restarted.bool_or("ok", false)) << json::dump(restarted);
  const json::Value after = json::parse(router.handle_line(gen_line(9, 9, 1)));
  EXPECT_TRUE(after.bool_or("ok", false));

  router.stop();
  pool.shutdown();
}

}  // namespace
}  // namespace dg::serve::shard
