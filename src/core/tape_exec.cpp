#include "core/tape_exec.h"

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/preflight.h"
#include "nn/ops.h"
#include "nn/parallel.h"
#include "nn/simd/vec.h"
#include "obs/profile.h"

namespace dg::core {

namespace {

using analysis::Tape;
using analysis::TapeInstr;
using analysis::TapeValue;
using analysis::TapeValueKind;

// Every instruction runs its op row's kernel (nn/ops.h) — the row kernel,
// or for an elementwise op the EwFn — which is the kernel the autograd
// forward runs, so tape replay is bit-identical to it on every SIMD tier.

/// One compiled instruction: its row, destination and operand buffers.
struct Step {
  const nn::OpDef* row = nullptr;
  int dst = -1;  // value id; pointers resolve through the table at run time
  int dst_cols = 0;
  std::vector<nn::RowIn> in;  // operand buffers, rebound when any moves
  std::vector<int> args;      // operand value ids
  nn::OpAttrs attrs;
};

}  // namespace

struct TapeExecutor::Impl {
  int width = 0;  // rows of every batch-shaped arena slot
  std::vector<float> arena;
  /// Per-value data pointer: arena slots are fixed at build time; the input
  /// and parameter entries are rebound at every step() call.
  std::vector<float*> ptr;
  /// Parameter value ids and the model's weights they read. A Var stays the
  /// model's parameter while load() moves a new matrix into it, so step()
  /// reads the data pointer through it every call.
  std::vector<std::pair<int, nn::Var>> params;
  std::vector<Step> steps;
  /// One full-width step's FLOPs and bytes, summed from the op rows.
  std::uint64_t flops = 0, bytes = 0;
  /// The step's input value ids (the tape's kInput values in value order:
  /// cond, noise, state.h, state.c, state.mask) and their widths, which
  /// step() checks the caller's matrices against.
  std::array<int, analysis::kTapeInputs> in{}, in_cols{};
  /// Output value ids (records, state.h, state.c, state.mask) and widths;
  /// each state output has its state input's width (verified).
  std::array<int, analysis::kTapeOutputs> out{}, out_cols{};

  void run(const Step& s, std::int64_t r0, std::int64_t r1) const;
};

/// Executes one compiled step on lanes [r0, r1). Every tape opcode is
/// row-local — lane i of the destination depends only on lane i of each
/// operand (reductions reduce along columns within a row) — so step() can
/// partition lanes across the pool ONCE and let each worker replay the whole
/// instruction sequence on its lane range: one fork-join per step instead of
/// one per instruction, and each worker's slice of the arena stays hot in
/// its own cache. Row-locality also makes results independent of the
/// partition, which is what keeps the tape bit-identical to the autograd
/// forward at every thread count.
void TapeExecutor::Impl::run(const Step& s, std::int64_t r0,
                             std::int64_t r1) const {
  float* dst = ptr[static_cast<size_t>(s.dst)];
  const int m = s.dst_cols;
  if (m <= 0) return;
  if (s.row->rows != nullptr) {
    s.row->rows({s.in, dst, m, s.attrs}, r0, r1);
    return;
  }
  // An elementwise row: dst <- fn(a) or fn(a, b), per element. Reading `a`
  // and writing `dst` in one pass matches the forward's copy-then-transform
  // bit for bit (same-index elementwise).
  const std::int64_t e0 = r0 * m, e1 = r1 * m;
  const float* b = s.in.size() > 1 ? s.in[1].data + e0 : nullptr;
  nn::simd::kernels().apply_ew(*s.row->ew, s.in[0].data + e0, b, dst + e0,
                               e1 - e0);
}

std::unique_ptr<TapeExecutor> TapeExecutor::create(const DoppelGanger& model,
                                                   int width) {
  return from_report(
      model, analysis::build_generation_tape(model.schema(), model.config()),
      width);
}

std::unique_ptr<TapeExecutor> TapeExecutor::create_or_throw(
    const DoppelGanger& model, int width) {
  std::optional<analysis::TapeReport> lowered;
  const analysis::TapeReport* report = model.generation_tape();
  if (report == nullptr) {
    lowered = analysis::build_generation_tape(model.schema(), model.config());
    report = &*lowered;
  }
  auto exec = from_report(model, *report, width);
  if (!exec) {
    throw std::invalid_argument(
        "the model's generation tape does not build, so the model cannot "
        "generate:\n" + render_diagnostics(report->diagnostics));
  }
  return exec;
}

std::unique_ptr<TapeExecutor> TapeExecutor::from_report(
    const DoppelGanger& model, const analysis::TapeReport& report, int width) {
  if (width < 1) return nullptr;
  if (!report.ok()) return nullptr;
  // License to execute is a clean verifier run HERE, not the report's flag:
  // a corrupted tape whose flag still says "verified" must die right here.
  if (analysis::has_errors(analysis::verify_tape(report.tape, report.plan))) {
    return nullptr;
  }
  const Tape& tape = report.tape;

  // ---- bind weights: each parameter value names the traced leaf's
  // position in named_parameters(), the same list on the live model ----
  const auto params = model.named_parameters();

  auto impl = std::make_unique<Impl>();
  impl->width = width;
  impl->arena.assign(
      static_cast<size_t>(report.plan.peak_cols) * static_cast<size_t>(width),
      0.0f);
  impl->ptr.assign(tape.values.size(), nullptr);

  int n_inputs = 0;
  for (size_t id = 0; id < tape.values.size(); ++id) {
    const TapeValue& v = tape.values[id];
    const long long off = report.plan.offsets[id];
    if (off >= 0) {
      impl->ptr[id] = impl->arena.data() + static_cast<size_t>(off) * width;
    }
    if (v.kind == TapeValueKind::kInput) {
      impl->in[static_cast<size_t>(n_inputs)] = static_cast<int>(id);
      impl->in_cols[static_cast<size_t>(n_inputs++)] = v.cols();
    }
    if (v.kind != TapeValueKind::kParam) continue;
    if (v.param_index < 0 ||
        static_cast<size_t>(v.param_index) >= params.size()) {
      return nullptr;
    }
    const nn::Var& p = params[static_cast<size_t>(v.param_index)].second;
    const nn::Matrix& m = p.value();
    if (!v.shape.rows.concrete() || m.rows() != v.shape.rows.value ||
        m.cols() != v.cols()) {
      return nullptr;
    }
    impl->params.emplace_back(static_cast<int>(id), p);
  }
  const auto val = [&](int id) -> const TapeValue& {
    return tape.values[static_cast<size_t>(id)];
  };
  for (size_t k = 0; k < impl->out.size(); ++k) {
    impl->out[k] = tape.outputs[k];
    impl->out_cols[k] = val(tape.outputs[k]).cols();
  }

  // ---- compile: every instruction becomes one step running its row's
  // kernel, which the verifier proved it has ----
  for (const TapeInstr& ins : tape.instrs) {
    Step s;
    s.row = &nn::op_def(ins.op);
    s.dst = ins.dst;
    s.dst_cols = val(ins.dst).cols();
    s.args = ins.args;
    for (int a : ins.args) {
      s.in.push_back({impl->ptr[static_cast<size_t>(a)], val(a).cols()});
    }
    s.attrs = ins.attrs;
    impl->steps.push_back(std::move(s));
  }

  // ---- cost: a full-width step's FLOPs and bytes as the op rows count
  // them, for the step's kernel timer ----
  const auto dims = [&](int id) -> nn::Dims {
    const TapeValue& v = val(id);
    const bool batch = !v.shape.rows.concrete();
    return {batch ? width : static_cast<int>(v.shape.rows.value), v.cols()};
  };
  for (const TapeInstr& ins : tape.instrs) {
    std::vector<nn::Dims> in;
    for (int a : ins.args) in.push_back(dims(a));
    impl->flops += nn::op_def(ins.op).flops(in, dims(ins.dst));
    impl->bytes += nn::op_bytes(in, dims(ins.dst));
  }

  auto exec = std::unique_ptr<TapeExecutor>(new TapeExecutor());
  exec->width_ = width;
  exec->summary_ = analysis::summarize_tape(report);
  exec->impl_ = std::move(impl);
  return exec;
}

TapeExecutor::~TapeExecutor() = default;

void TapeExecutor::step(const GenContext& ctx, const nn::Matrix& noise,
                        GenState& state, nn::Matrix& records) {
  Impl& im = *impl_;
  const int n = ctx.cond.rows();
  if (n < 1 || n > im.width) {
    throw std::invalid_argument("TapeExecutor::step: lane count " +
                                std::to_string(n) + " outside 1.." +
                                std::to_string(im.width));
  }
  // Every buffer the step reads or writes has the shape the tape was
  // verified for, so no kernel reads or writes past it.
  const nn::Matrix* const bound[] = {&ctx.cond, &noise, &state.h, &state.c,
                                     &state.mask};
  const char* const kNames[] = {"ctx.cond", "noise", "state.h", "state.c",
                                "state.mask"};
  for (size_t k = 0; k < im.in.size(); ++k) {
    if (bound[k]->rows() != n || bound[k]->cols() != im.in_cols[k]) {
      throw std::invalid_argument(std::string("TapeExecutor::step: ") +
                                  kNames[k] + " shape mismatch");
    }
  }
  if (records.rows() != n || records.cols() != im.out_cols[0]) {
    throw std::invalid_argument("TapeExecutor::step: records shape mismatch");
  }

  // Inputs and weights are read-only (every instruction destination is a
  // verified local), so the const_cast never turns into a write. The steps'
  // operands are rebound only when a buffer moved: a caller that steps the
  // same buffers again (SlotSampler does) writes nothing the workers read,
  // so their copies of the steps stay in their caches.
  bool moved = false;
  const auto bind = [&](int id, const nn::Matrix& m) {
    float* p = const_cast<float*>(m.data());
    moved |= std::exchange(im.ptr[static_cast<size_t>(id)], p) != p;
  };
  for (size_t k = 0; k < im.in.size(); ++k) bind(im.in[k], *bound[k]);
  for (const auto& [id, p] : im.params) bind(id, p.value());
  if (moved) {
    for (Step& s : im.steps) {
      for (size_t k = 0; k < s.args.size(); ++k) {
        s.in[k].data = im.ptr[static_cast<size_t>(s.args[k])];
      }
    }
  }

  // The whole step is one profiler kernel row; a row-local step's FLOPs
  // and bytes scale with its lanes.
  DG_OBS_KERNEL_TIMER("tape_step", im.flops * n / im.width,
                      im.bytes * n / im.width);

  // One fork-join for the whole step. The autograd forward pays a pool
  // round-trip per product op that clears the product grain; here each
  // worker takes a static lane range up front and replays the entire
  // instruction sequence over it, which is legal because every opcode is
  // row-local (see run()).
  // The output copies ride along: a worker only writes its own lanes of
  // state.h/c/mask, and the other workers' reads of those buffers (as
  // in_h/in_c/in_mask) are confined to their own lanes too.
  const std::int64_t grain = std::max<std::int64_t>(
      1, (n + nn::num_threads() - 1) / nn::num_threads());
  float* const dst[] = {records.data(), state.h.data(), state.c.data(),
                        state.mask.data()};
  nn::parallel_for(0, n, grain, [&](std::int64_t r0, std::int64_t r1) {
    for (const Step& s : im.steps) im.run(s, r0, r1);
    for (size_t k = 0; k < im.out.size(); ++k) {
      const size_t cols = static_cast<size_t>(im.out_cols[k]);
      if (cols == 0) continue;
      std::memcpy(dst[k] + static_cast<size_t>(r0) * cols,
                  im.ptr[static_cast<size_t>(im.out[k])] +
                      static_cast<size_t>(r0) * cols,
                  static_cast<size_t>(r1 - r0) * cols * sizeof(float));
    }
  });
  ++state.step;
}

}  // namespace dg::core
