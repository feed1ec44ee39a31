#include "serve/sampler.h"

#include <algorithm>
#include <stdexcept>

#include "core/tape_exec.h"
#include "obs/trace.h"

namespace dg::serve {

namespace {

/// Copies the n-column row `src_row` of `src` into row `dst_row` of `dst`.
void copy_row(const nn::Matrix& src, int src_row, nn::Matrix& dst,
              int dst_row) {
  for (int j = 0; j < src.cols(); ++j) {
    dst.at(dst_row, j) = src.at(src_row, j);
  }
}

void zero_row(nn::Matrix& m, int row) {
  for (int j = 0; j < m.cols(); ++j) m.at(row, j) = 0.0f;
}

void record_span(const char* name, std::int64_t t0_us, std::int64_t t1_us,
                 const obs::TraceContext& ctx, std::uint64_t span_id,
                 std::uint64_t parent_span) {
  obs::TraceEvent e;
  e.name = name;
  e.category = "serve";
  e.ts_us = t0_us;
  e.dur_us = t1_us - t0_us;
  e.trace_id = ctx.trace_id;
  e.span_id = span_id;
  e.parent_span = parent_span;
  obs::Trace::record(std::move(e));
}

}  // namespace

SlotSampler::SlotSampler(std::shared_ptr<const core::DoppelGanger> model,
                         int width)
    : model_(std::move(model)), width_(width) {
  if (!model_) throw std::invalid_argument("SlotSampler: null model");
  if (width_ < 1) throw std::invalid_argument("SlotSampler: width must be >= 1");
  const data::GanCodec& codec = model_->codec();
  record_width_ = model_->record_width();
  feature_row_dim_ = codec.feature_row_dim();

  ctx_.attributes = nn::Matrix(width_, codec.attribute_dim());
  ctx_.minmax = nn::Matrix(width_, codec.minmax_dim());
  ctx_.cond = nn::Matrix(width_, codec.attribute_dim() + codec.minmax_dim());
  state_ = model_->initial_gen_state(width_);
  noise_ = nn::Matrix(width_, model_->feat_noise_dim());
  records_ = nn::Matrix(width_, model_->sample_len() * record_width_);
  tape_ = core::TapeExecutor::create_or_throw(*model_, width_);
  lanes_.resize(static_cast<size_t>(width_));
  for (Lane& lane : lanes_) {
    lane.features.assign(static_cast<size_t>(feature_row_dim_), 0.0f);
  }
  starting_.reserve(static_cast<size_t>(width_));
  starting_fixed_.reserve(static_cast<size_t>(width_));
}

SlotSampler::~SlotSampler() = default;

void SlotSampler::submit(SeriesJob job) {
  const int tmax = model_->codec().tmax();
  if (job.max_len <= 0 || job.max_len > tmax) job.max_len = tmax;
  if (job.attempts_left < 1) job.attempts_left = 1;
  pending_.push_back(std::move(job));
}

void SlotSampler::admit() {
  for (int r = 0; r < width_ && !pending_.empty(); ++r) {
    Lane& lane = lanes_[static_cast<size_t>(r)];
    if (lane.busy) continue;
    lane.job = std::move(pending_.front());
    pending_.pop_front();
    lane.attempts_used = 0;
    lane.busy = true;
    ++occupied_;
    starting_.push_back(r);
  }
  if (!starting_.empty()) begin_series();
}

void SlotSampler::begin_series() {
  // All of a series' randomness comes from its own stream: its context
  // noise row here (attribute noise, then min/max noise, as
  // sample_context_fixed(1, ...) draws them), one feature-noise row per
  // step in pump(). Slot position and the other rows of the batch
  // contribute nothing.
  const int k = static_cast<int>(starting_.size());
  nn::Matrix attr_noise(k, model_->attr_noise_dim());
  nn::Matrix minmax_noise(k, model_->minmax_noise_dim());
  starting_fixed_.clear();
  for (int i = 0; i < k; ++i) {
    Lane& lane = lanes_[static_cast<size_t>(starting_[static_cast<size_t>(i)])];
    lane.job.rng.fill_normal(attr_noise.flat().subspan(
        static_cast<size_t>(i) * attr_noise.cols(),
        static_cast<size_t>(attr_noise.cols())));
    lane.job.rng.fill_normal(minmax_noise.flat().subspan(
        static_cast<size_t>(i) * minmax_noise.cols(),
        static_cast<size_t>(minmax_noise.cols())));
    starting_fixed_.push_back(lane.job.spec ? &lane.job.spec->fixed : nullptr);
  }
  const core::GenContext ctx = model_->context_forward(
      std::move(attr_noise), std::move(minmax_noise), starting_fixed_);

  for (int i = 0; i < k; ++i) {
    const int row = starting_[static_cast<size_t>(i)];
    Lane& lane = lanes_[static_cast<size_t>(row)];
    copy_row(ctx.attributes, i, ctx_.attributes, row);
    copy_row(ctx.minmax, i, ctx_.minmax, row);
    copy_row(ctx.cond, i, ctx_.cond, row);
    zero_row(state_.h, row);
    zero_row(state_.c, row);
    state_.mask.at(row, 0) = 1.0f;
    lane.emitted = 0;
    lane.cap_records = lane.job.max_len;
    std::fill(lane.features.begin(), lane.features.end(), 0.0f);
    ++lane.attempts_used;
    if (lane.attempts_used == 1) {
      // Slot-occupancy span: admission to retirement (rejection retries
      // stay inside the same span — the lane is occupied throughout).
      lane.span_id = 0;
      if (lane.job.trace.sampled() && obs::Trace::enabled()) {
        lane.span_id = obs::next_trace_id();
        lane.t_begin_us = obs::Trace::now_us();
      }
    }
  }
  starting_.clear();
}

int SlotSampler::pump() {
  admit();
  if (occupied_ == 0) return 0;
  const int active = occupied_;

  // Per-lane noise rows, drawn lane-by-lane from each series' own stream in
  // the same scalar order (row-major, like a 1 x feat_noise_dim
  // normal_matrix) the reference single-series path draws, so the
  // consumption order per stream is identical. The staging matrix is
  // persistent: stale rows under idle lanes feed only those lanes' own
  // discarded state, which begin_series re-zeroes on admission.
  const bool tracing = obs::Trace::enabled();
  const Lane* traced_lane = nullptr;  // first traced occupant, if any
  const int noise_dim = noise_.cols();
  for (int r = 0; r < width_; ++r) {
    Lane& lane = lanes_[static_cast<size_t>(r)];
    if (!lane.busy) continue;
    if (tracing && traced_lane == nullptr && lane.span_id != 0) {
      traced_lane = &lane;
    }
    lane.job.rng.fill_normal(
        noise_.flat().subspan(static_cast<std::size_t>(r) * noise_dim,
                              static_cast<std::size_t>(noise_dim)));
  }

  // The batched step serves every occupied lane at once; attribute its span
  // to the first traced occupant (the step has no single owner).
  const std::int64_t t_step = traced_lane ? obs::Trace::now_us() : 0;
  tape_->step(ctx_, noise_, state_, records_);
  if (traced_lane != nullptr) {
    record_span("serve.tape_replay", t_step, obs::Trace::now_us(),
                traced_lane->job.trace, obs::next_trace_id(),
                traced_lane->span_id);
  }
  const nn::Matrix& records = records_;
  stats_.rnn_steps += 1;
  stats_.slot_steps_active += static_cast<std::uint64_t>(active);
  stats_.slot_steps_total += static_cast<std::uint64_t>(width_);

  const int sample_len = model_->sample_len();
  for (int r = 0; r < width_; ++r) {
    Lane& lane = lanes_[static_cast<size_t>(r)];
    if (!lane.busy) continue;
    const int take = std::min(sample_len, lane.cap_records - lane.emitted);
    bool ended = false;
    for (int s = 0; s < take; ++s) {
      const int dst = (lane.emitted + s) * record_width_;
      for (int j = 0; j < record_width_; ++j) {
        lane.features[static_cast<size_t>(dst + j)] =
            records.at(r, s * record_width_ + j);
      }
      // Generation-flag termination, same comparison decode() applies: the
      // series ends at the first record whose end flag dominates.
      const float cont = records.at(r, s * record_width_ + record_width_ - 2);
      const float end = records.at(r, s * record_width_ + record_width_ - 1);
      if (end > cont) {
        lane.emitted += s + 1;
        ended = true;
        break;
      }
    }
    if (!ended) lane.emitted += take;
    if (ended || lane.emitted >= lane.cap_records) {
      finish_lane(lane, r);
    }
  }
  return active;
}

void SlotSampler::finish_lane(Lane& lane, int row) {
  // Decode through the same codec path as DoppelGanger::generate: the
  // accumulated (zero-padded) feature row plus the lane's conditioning.
  const data::GanCodec& codec = model_->codec();
  nn::Matrix attr(1, ctx_.attributes.cols());
  nn::Matrix minmax(1, ctx_.minmax.cols());
  copy_row(ctx_.attributes, row, attr, 0);
  copy_row(ctx_.minmax, row, minmax, 0);
  nn::Matrix feats(1, feature_row_dim_);
  for (int j = 0; j < feature_row_dim_; ++j) {
    feats.at(0, j) = lane.features[static_cast<size_t>(j)];
  }
  data::Dataset decoded = codec.decode(attr, minmax, feats);
  data::Object obj = std::move(decoded.front());
  // A cap-terminated series never fired its end flag, so decode() saw only
  // zero padding past the cap and kept the full horizon — trim to the cap.
  if (obj.length() > lane.cap_records) {
    obj.features.resize(static_cast<size_t>(lane.cap_records));
  }

  const bool accepted =
      !lane.job.spec || lane.job.spec->where.empty() ||
      matches(obj, codec.schema(), lane.job.spec->where);
  if (!accepted) {
    ++stats_.series_rejected;
    if (lane.attempts_used < lane.job.attempts_left) {
      // Retry in place: the SAME stream keeps drawing, so the accept/reject
      // trajectory of this series is deterministic too. The lane stays
      // occupied; its new context is drawn at the next pump's admission,
      // in one batch with the lanes admitted there.
      starting_.push_back(row);
      return;
    }
  } else {
    ++stats_.series_completed;
  }
  SeriesResult res;
  res.request_id = lane.job.request_id;
  res.index = lane.job.index;
  res.accepted = accepted;
  res.attempts_used = lane.attempts_used;
  res.object = std::move(obj);
  results_.push_back(std::move(res));
  if (lane.span_id != 0) {
    record_span("serve.slot", lane.t_begin_us, obs::Trace::now_us(),
                lane.job.trace, lane.span_id, lane.job.trace.parent_span);
    lane.span_id = 0;
  }
  lane.busy = false;
  --occupied_;
}

std::vector<SeriesResult> SlotSampler::drain() {
  std::vector<SeriesResult> out;
  out.swap(results_);
  return out;
}

}  // namespace dg::serve
