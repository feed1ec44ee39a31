// Allocation-free replay of the verified generation tape (analysis/tape.h),
// the one engine that steps generation: DoppelGanger::generate,
// generate_conditional and serve's SlotSampler all run through it.
//
// The executor replays DoppelGanger::generation_step: it lays every
// intermediate into one arena sized by the liveness planner, and compiles
// each instruction to {its op row's kernel, operands, attributes}
// (nn/ops.h) — no autograd node allocation, no per-op code, zero heap
// allocations per step() once warm.
// The model's weights are read through their Vars at every step(), so a
// cached executor follows load() and training, which replace or update them.
//
// Bit-identity contract: step() produces byte-for-byte the records and
// state updates generation_step produces, at any DG_THREADS setting and
// SIMD tier: an instruction runs its row's kernel (row kernel or EwFn), the
// body the autograd forward runs. The executor does not copy the forward's
// per-kernel partitioning: it partitions lanes once per step and each
// worker replays every instruction on its lanes, which is sound because
// every kernel is row-local. tests/serve/test_tape_exec.cpp enforces this
// differentially, with generation_step as the oracle.
//
// Trust model: construction re-runs analysis::verify_tape and returns
// nullptr on any error — a corrupted tape is rejected statically, never
// executed — and the verifier refuses an op without a kernel, so a tape it
// accepts is one the executor can run. A model without an executor
// cannot generate: generate() and SlotSampler refuse it (create_or_throw).
#pragma once

#include <memory>

#include "analysis/tape.h"
#include "core/doppelganger.h"
#include "nn/matrix.h"

namespace dg::core {

class TapeExecutor {
 public:
  /// Lowers + verifies a tape for the model's schema/config and binds the
  /// model's generator weights. Returns nullptr when verification fails or
  /// the weights cannot be bound.
  static std::unique_ptr<TapeExecutor> create(const DoppelGanger& model,
                                              int width);

  /// The engine generate() and the serving stack build: from the report a
  /// package load handed the model (DoppelGanger::generation_tape), lowering
  /// a tape only for a model that has none. A refusal throws
  /// std::invalid_argument carrying the tape report's findings: how
  /// generate() and the serving stack refuse a model they cannot replay.
  static std::unique_ptr<TapeExecutor> create_or_throw(
      const DoppelGanger& model, int width);

  /// As create(), from an externally built report (tests, lint). The report
  /// is re-verified here regardless of what its `verified` flag claims.
  static std::unique_ptr<TapeExecutor> from_report(
      const DoppelGanger& model, const analysis::TapeReport& report,
      int width);

  ~TapeExecutor();
  TapeExecutor(const TapeExecutor&) = delete;
  TapeExecutor& operator=(const TapeExecutor&) = delete;

  /// One generation step over lanes [0, n), n = ctx.cond.rows() in
  /// 1..width(): reads ctx.cond, `noise` [n, feat_noise_dim] and `state`;
  /// writes the step's records into `records` [n, sample_len *
  /// record_width] and advances `state` in place (h, c, mask, ++step)
  /// exactly like generation_step. Throws std::invalid_argument, before
  /// touching any buffer, when a matrix's shape is not the tape's.
  void step(const GenContext& ctx, const nn::Matrix& noise, GenState& state,
            nn::Matrix& records);

  int width() const { return width_; }
  const analysis::TapeSummary& summary() const { return summary_; }

 private:
  TapeExecutor() = default;

  struct Impl;
  std::unique_ptr<Impl> impl_;
  int width_ = 0;
  analysis::TapeSummary summary_;
};

}  // namespace dg::core
