// Continuous-batching sampler: a fixed-width slot array over the LSTM
// feature generator. Each slot carries one in-flight series — its own
// deterministic RNG stream, attribute/min-max conditioning row, and flag
// state — and every pump() advances ALL occupied slots by one batched LSTM
// step. When a slot's generation flag ends its series (or its length cap is
// hit), the slot is retired and refilled from the pending queue at the top
// of the next pump, mid-unroll, instead of idling until the longest series
// in the batch finishes. With the paper's variable-length flag scheme
// (§4.1.1) this is the difference between paying for max_len steps per
// request and paying for ~mean_len.
//
// Determinism contract: a series' bytes are a function of (model weights,
// its own Rng stream, its spec) only. The batched kernels underneath are
// row-partitioned — row r of every matmul/elementwise/softmax output is
// computed from row r of the inputs with a fixed association order — so
// co-batched traffic, slot position, and slot-array width never change a
// series' output. tests/serve/test_sampler.cpp asserts this bit-exactly.
//
// Admission draws the contexts of every lane admitted in a pump, and of
// every lane a `where` rejection sends back for another attempt, as one
// batched forward (DoppelGanger::context_forward): row i's noise comes from
// lane i's own stream in sample_context's order, and every context op is
// row-local, so batching changes no byte.
//
// One engine: every step replays the model's verified generation tape
// (core/tape_exec.h), as DoppelGanger::generate does. A model whose tape does
// not build is refused at construction; DoppelGanger::generation_step, the
// autograd forward, is the oracle tests/serve/test_tape_exec.cpp diffs the
// sampler's series against.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "core/doppelganger.h"
#include "serve/types.h"

namespace dg::core {
class TapeExecutor;
}  // namespace dg::core

namespace dg::serve {

/// Resolved per-request generation spec shared by all of its series.
struct SeriesSpec {
  std::vector<std::pair<int, float>> fixed;  // attr index -> raw value
  std::vector<AttrPredicate> where;          // resolved predicates
};
using SeriesSpecPtr = std::shared_ptr<const SeriesSpec>;

/// One series' worth of work. `rng` is the series' private stream: every
/// random draw the series consumes (context noise, per-step feature noise,
/// rejection re-draws) comes from it and nothing else.
struct SeriesJob {
  std::uint64_t request_id = 0;
  int index = 0;  // position within the request's `count`
  nn::Rng rng{0};
  int max_len = 0;        // record cap; 0 = schema max_timesteps
  int attempts_left = 1;  // rejection-sampling budget
  SeriesSpecPtr spec;     // may be null (plain request)
  // Distributed-trace context (trace_id, worker request span); sampled
  // jobs record a slot-occupancy span per series plus step spans. Never a
  // generation input.
  obs::TraceContext trace;
};

struct SeriesResult {
  std::uint64_t request_id = 0;
  int index = 0;
  bool accepted = false;  // predicate satisfied (always true without one)
  int attempts_used = 1;
  data::Object object;  // the accepted series (or the last rejected draw)
};

struct SamplerStats {
  std::uint64_t rnn_steps = 0;          // batched LSTM steps executed
  std::uint64_t slot_steps_active = 0;  // lane-steps carrying a series
  std::uint64_t slot_steps_total = 0;   // lane-steps paid for
  std::uint64_t series_completed = 0;   // accepted results
  std::uint64_t series_rejected = 0;    // predicate discards (incl. retries)
};

class SlotSampler {
 public:
  /// `width` is the slot count W: every pump costs one W-row LSTM step.
  /// Throws std::invalid_argument, naming the tape's findings, when the
  /// model's generation tape does not build.
  SlotSampler(std::shared_ptr<const core::DoppelGanger> model, int width);
  ~SlotSampler();

  void submit(SeriesJob job);

  /// Admits pending jobs into free slots, advances every occupied slot one
  /// LSTM step, retires finished series into the result buffer. Returns
  /// the number of occupied slots this step (0 = nothing to do).
  int pump();

  /// Moves out everything finished since the last drain.
  std::vector<SeriesResult> drain();

  bool idle() const { return occupied_ == 0 && pending_.empty(); }
  int occupied() const { return occupied_; }
  std::size_t pending() const { return pending_.size(); }
  int width() const { return width_; }
  const SamplerStats& stats() const { return stats_; }
  const core::DoppelGanger& model() const { return *model_; }

 private:
  struct Lane {
    bool busy = false;
    SeriesJob job;
    int attempts_used = 0;
    int emitted = 0;      // records accumulated so far
    int cap_records = 0;  // min(max_len or tmax, tmax)
    std::vector<float> features;  // feature_row_dim floats, zero-padded
    std::uint64_t span_id = 0;    // slot-occupancy span (traced jobs only)
    std::int64_t t_begin_us = 0;  // lane admission, trace timebase
  };

  /// Fills free lanes from the pending queue, then begins a series on every
  /// lane that needs one: the new lanes and the retries finish_lane queued.
  void admit();
  /// Begins a series on each row of `starting_`, one context forward for
  /// all of them.
  void begin_series();
  void finish_lane(Lane& lane, int row);

  std::shared_ptr<const core::DoppelGanger> model_;
  int width_;
  int record_width_;
  int feature_row_dim_;

  core::GenContext ctx_;   // row r = lane r's conditioning
  core::GenState state_;   // row r = lane r's recurrent state
  nn::Matrix noise_;       // persistent [width, feat_noise_dim] staging
  nn::Matrix records_;     // persistent [width, S * record_width] step output
  std::unique_ptr<core::TapeExecutor> tape_;  // the model's verified step
  std::vector<Lane> lanes_;
  int occupied_ = 0;
  // Admission scratch, reserved to `width` entries at construction.
  std::vector<int> starting_;  // rows whose series begins at the next admit
  std::vector<const std::vector<std::pair<int, float>>*> starting_fixed_;

  std::deque<SeriesJob> pending_;
  std::vector<SeriesResult> results_;
  SamplerStats stats_;
};

}  // namespace dg::serve
