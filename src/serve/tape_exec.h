// Allocation-free replay of the verified generation tape (analysis/tape.h).
//
// The executor is the serving counterpart of DoppelGanger::generation_step:
// it binds the model's generator weights once at build time, lays every
// intermediate into one arena sized by the liveness planner, and compiles
// the tape into a flat opcode array executed with a switch — no autograd
// node allocation, no virtual dispatch, no shared_ptr traffic, and zero
// heap allocations per step() in steady state.
//
// Bit-identity contract: step() produces byte-for-byte the records and
// state updates generation_step produces, at any DG_THREADS setting and
// SIMD tier. Both paths run the same kernels (nn/simd/vec.h) in the same
// per-row accumulation order, and an elementwise instruction runs its op
// row's EwFn (nn/ops.h), which is the autograd forward's kernel. The
// executor does not copy nn/matrix.cpp's per-kernel partitioning: it
// partitions lanes once per step and each worker replays every instruction
// on its lanes, which is sound because every opcode is row-local, so no
// result depends on the partition. tests/serve/test_tape_exec.cpp enforces
// this differentially.
//
// Trust model: construction re-runs analysis::verify_tape and returns
// nullptr on any error — a corrupted tape is rejected statically, never
// executed. Callers fall back to the autograd path on nullptr.
#pragma once

#include <memory>

#include "analysis/tape.h"
#include "core/doppelganger.h"
#include "nn/matrix.h"

namespace dg::serve {

class TapeExecutor {
 public:
  /// Lowers + verifies a tape for the model's schema/config and binds the
  /// model's generator weights. Returns nullptr when verification fails or
  /// the weights cannot be bound (caller keeps the autograd path).
  static std::unique_ptr<TapeExecutor> create(const core::DoppelGanger& model,
                                              int width);

  /// Same, from an externally built report (tests, lint). The report is
  /// re-verified here regardless of what its `verified` flag claims.
  static std::unique_ptr<TapeExecutor> from_report(
      const core::DoppelGanger& model, analysis::TapeReport report, int width);

  ~TapeExecutor();
  TapeExecutor(const TapeExecutor&) = delete;
  TapeExecutor& operator=(const TapeExecutor&) = delete;

  /// One generation step over all `width` lanes: reads ctx.cond, `noise`
  /// [width, feat_noise_dim] and `state`; writes the step's records into
  /// `records` [width, sample_len * record_width] and advances `state` in
  /// place (h, c, mask, ++step) exactly like generation_step.
  void step(const core::GenContext& ctx, const nn::Matrix& noise,
            core::GenState& state, nn::Matrix& records);

  int width() const { return width_; }
  const analysis::TapeSummary& summary() const { return summary_; }

 private:
  TapeExecutor() = default;

  struct Impl;
  std::unique_ptr<Impl> impl_;
  int width_ = 0;
  analysis::TapeSummary summary_;
};

}  // namespace dg::serve
