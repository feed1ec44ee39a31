// GenerationService: the inference runtime around the slot sampler. Owns a
// released model package (Fig 2's artifact), a bounded MPMC admission queue,
// and one or more engine threads, each driving its own SlotSampler over a
// shared read-only model. Requests are split into per-series jobs with
// request-private RNG streams, interleaved into slots by the continuous
// batcher, and reassembled into responses delivered through futures.
//
// Hot reload: when constructed from a package path, the package file's
// mtime is polled; on change the new package is loaded and each engine
// drains its in-flight series on the old weights, then swaps — no request
// ever mixes weights mid-series, and the old model stays alive (shared_ptr)
// until its last series finishes.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/doppelganger.h"
#include "core/package.h"
#include "obs/metrics.h"
#include "serve/queue.h"
#include "serve/sampler.h"
#include "serve/types.h"

namespace dg::serve {

struct ServiceConfig {
  std::string package_path;  // "" when a model is injected directly
  int slots = 32;            // slot-array width per engine
  int engines = 1;           // sampler threads
  std::size_t queue_capacity = 256;  // admission queue bound (backpressure)
  double reload_poll_seconds = 1.0;  // package mtime poll period; 0 = off
};

class GenerationService {
 public:
  /// Loads the package at cfg.package_path (throws if unreadable or if it
  /// fails the package preflight).
  explicit GenerationService(ServiceConfig cfg);
  /// Serves an already-loaded model; hot reload is off unless
  /// cfg.package_path is also set. Throws std::invalid_argument, naming the
  /// tape's findings, when the model's generation tape does not build.
  GenerationService(std::shared_ptr<const core::DoppelGanger> model,
                    ServiceConfig cfg);
  ~GenerationService();

  GenerationService(const GenerationService&) = delete;
  GenerationService& operator=(const GenerationService&) = delete;

  void start();
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Validates + enqueues; the future resolves when every series is done.
  /// Invalid requests resolve immediately with ok=false. Blocks while the
  /// admission queue is full (bounded backpressure).
  std::future<GenResponse> submit(GenRequest req);

  StatsSnapshot stats() const;
  /// Full metrics-registry snapshot of this service instance as a JSON
  /// object ({"counters":...,"gauges":...,"histograms":...}) — the TCP
  /// "metrics" op's payload. Superset of stats(): same counters plus the
  /// latency histogram's buckets and window.
  std::string metrics_json() const;
  /// Schema snapshot of the currently-served model.
  data::Schema schema() const;
  std::uint64_t reloads() const { return reloads_.get(); }
  /// Hot reloads refused by the package preflight (bad/truncated package on
  /// disk; the old weights stay live). At most one bump per distinct bad
  /// file version.
  std::uint64_t reloads_rejected() const { return reload_rejected_.get(); }
  /// Hex FNV-1a-64 over the exact package bytes the served weights were
  /// loaded from; "" when serving an injected model that never came from a
  /// package file. The shard tier's cache identity: responses carry the
  /// hash of the weights that actually produced them (captured at engine
  /// swap time, so a response mid-rolling-reload is never mislabeled).
  std::string package_hash() const;

  const ServiceConfig& config() const { return cfg_; }

 private:
  struct PendingRequest {
    GenRequest req;
    std::uint64_t ticket = 0;  // service-internal id (client ids may collide)
    std::promise<GenResponse> promise;
    std::chrono::steady_clock::time_point t_submit;
    // Distributed tracing (sampled requests only, see types.h): the
    // worker-side request span, allocated at submit so queue-wait and lane
    // spans can parent under it before it is recorded at delivery.
    std::uint64_t span_id = 0;
    std::int64_t t_submit_us = 0;  // obs::Trace::now_us() timebase
  };
  using PendingPtr = std::shared_ptr<PendingRequest>;

  void engine_loop();
  std::shared_ptr<const core::DoppelGanger> current_model() const;
  void maybe_reload();
  void record_latency(double ms, std::uint64_t trace_id = 0);
  void add_sampler_delta(const SamplerStats& now, SamplerStats& last);

  ServiceConfig cfg_;

  mutable std::mutex model_mu_;
  std::shared_ptr<const core::DoppelGanger> model_;
  std::uint64_t model_generation_ = 1;
  std::string package_hash_;  // guarded by model_mu_; "" = no package file
  std::int64_t package_mtime_ = 0;  // filesystem ticks; 0 = unknown
  std::int64_t rejected_mtime_ = 0;  // last mtime refused by preflight
  std::chrono::steady_clock::time_point last_poll_{};

  BoundedQueue<PendingPtr> queue_;
  std::vector<std::thread> engines_;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> next_ticket_{1};

  // All service telemetry lives in a per-instance metrics registry: one
  // GenerationService per test must not bleed counters into another, so the
  // process-global registry is not used here. The references are cached at
  // construction (registry metrics live as long as the registry) and the
  // engines write them directly — counter adds are relaxed atomics, exactly
  // what the raw std::atomic members used to be.
  mutable obs::Registry registry_;  // metrics_json() refreshes gauges
  obs::Counter& requests_ = registry_.counter("serve.requests");
  obs::Counter& responses_ = registry_.counter("serve.responses");
  obs::Counter& reloads_ = registry_.counter("serve.package_reloads");
  obs::Counter& reload_rejected_ = registry_.counter("serve.reload_rejected");
  obs::Counter& rnn_steps_ = registry_.counter("serve.rnn_steps");
  obs::Counter& slot_steps_active_ =
      registry_.counter("serve.slot_steps_active");
  obs::Counter& slot_steps_total_ = registry_.counter("serve.slot_steps_total");
  obs::Counter& series_completed_ = registry_.counter("serve.series_completed");
  obs::Counter& series_rejected_ = registry_.counter("serve.series_rejected");
  // Request latencies: exact p50/p99 over the last `window` samples (the
  // snapshot sorts a copy of only the filled portion, so a partially-filled
  // window never reads stale slots — the bug the old hand-rolled reservoir
  // had to dodge by hand).
  obs::Histogram& latency_ms_ = registry_.histogram(
      "serve.latency_ms", obs::HistogramOptions{.bounds = {}, .window = 2048});
};

}  // namespace dg::serve
