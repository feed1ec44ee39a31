#include "core/tape_exec.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <unordered_map>
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

using Fn = nn::simd::EwFn;

// Every instruction runs its op row's kernel (nn/ops.h) — the row kernel,
// or for an elementwise op the EwFn — which is the kernel the autograd
// forward runs, so tape replay is bit-identical to it on every SIMD tier.

/// One operand of a fused micro-op: a value id (resolved through the pointer
/// table per element) or a register written earlier in the same group.
struct MicroOp {
  Fn fn{};
  bool binary = false;
  int a_id = -1;  // value id, or -1 => register a_reg
  int a_reg = 0;
  int b_id = -1;
  int b_reg = 0;
  int dst_reg = 0;
  int store_id = -1;  // materialized members also write their arena slot
};

/// One compiled instruction, or (non-empty `prog`) one fused group.
struct Step {
  const nn::OpDef* row = nullptr;  // unfused: its row kernel, else its EwFn
  int dst = -1;  // value id; pointers resolve through the table at run time
  int dst_cols = 0;
  std::vector<nn::RowIn> in;  // operand buffers, rebound when any moves
  std::vector<MicroOp> prog;  // fused group program, if any
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
  // Input value ids, in Tape::inputs order.
  int in_cond = -1, in_noise = -1, in_h = -1, in_c = -1, in_mask = -1;
  // Output value ids + widths.
  int out_records = -1, out_h = -1, out_c = -1, out_mask = -1;
  int records_cols = 0, h_cols = 0;

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
  const nn::simd::KernelTable& kt = nn::simd::kernels();
  // A fused group's `dst` is its first member, which is usually a fused
  // temp living only in registers — the group needs just the iteration
  // domain (rows x dst_cols), not a destination pointer. Every other opcode
  // writes through dst directly.
  float* dst = ptr[static_cast<size_t>(s.dst)];
  const int m = s.dst_cols;
  if (m == 0 || (dst == nullptr && s.prog.empty())) return;
  if (!s.prog.empty()) {
    // Tile-at-a-time interpretation: each micro-op runs over a whole tile
    // before the next dispatches, so the switch costs O(ops) per tile
    // instead of O(ops) per element and the arithmetic loops vectorize.
    // Per element the dependency chain is unchanged (every tile position
    // is an independent SSA evaluation), so bits match the per-element
    // interpreter exactly.
    const std::int64_t e0 = r0 * m, e1 = r1 * m;
    float* const* table = ptr.data();
    constexpr std::int64_t kTile = 64;
    float regs[analysis::kMaxFusionMembers][kTile];
    for (std::int64_t base = e0; base < e1; base += kTile) {
      const std::int64_t len = std::min<std::int64_t>(kTile, e1 - base);
      for (const MicroOp& mo : s.prog) {
        const float* av = mo.a_id >= 0
                              ? table[static_cast<size_t>(mo.a_id)] + base
                              : regs[mo.a_reg];
        const float* bv = !mo.binary ? nullptr
                          : mo.b_id >= 0
                              ? table[static_cast<size_t>(mo.b_id)] + base
                              : regs[mo.b_reg];
        kt.apply_ew(mo.fn, av, bv, regs[mo.dst_reg], len);
        if (mo.store_id >= 0) {
          std::memcpy(table[static_cast<size_t>(mo.store_id)] + base,
                      regs[mo.dst_reg],
                      static_cast<size_t>(len) * sizeof(float));
        }
      }
    }
    return;
  }
  if (s.row->rows != nullptr) {
    s.row->rows({s.in, dst, m, s.attrs}, r0, r1);
    return;
  }
  // An elementwise row: dst <- fn(a) or fn(a, b), per element. Reading `a`
  // and writing `dst` in one pass matches the forward's copy-then-transform
  // bit for bit (same-index elementwise), including when the planner gave
  // `dst` the slot `a` just vacated.
  const std::int64_t e0 = r0 * m, e1 = r1 * m;
  const float* b = s.in.size() > 1 ? s.in[1].data + e0 : nullptr;
  kt.apply_ew(*s.row->ew, s.in[0].data + e0, b, dst + e0, e1 - e0);
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

  for (const TapeValue& v : tape.values) {
    const long long off = report.plan.offsets[static_cast<size_t>(v.id)];
    if (off >= 0) {
      impl->ptr[static_cast<size_t>(v.id)] =
          impl->arena.data() + static_cast<size_t>(off) * width;
    }
  }
  for (int pid : tape.params) {
    const TapeValue& v = tape.values[static_cast<size_t>(pid)];
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
    impl->params.emplace_back(pid, p);
  }
  if (tape.inputs.size() != analysis::kTapeInputs ||
      tape.outputs.size() != analysis::kTapeOutputs) {
    return nullptr;
  }
  impl->in_cond = tape.inputs[0];
  impl->in_noise = tape.inputs[1];
  impl->in_h = tape.inputs[2];
  impl->in_c = tape.inputs[3];
  impl->in_mask = tape.inputs[4];
  impl->out_records = tape.outputs[0];
  impl->out_h = tape.outputs[1];
  impl->out_c = tape.outputs[2];
  impl->out_mask = tape.outputs[3];
  impl->records_cols =
      tape.values[static_cast<size_t>(impl->out_records)].cols();
  impl->h_cols = tape.values[static_cast<size_t>(impl->out_h)].cols();

  // ---- compile: fused groups become one step (a micro-program) at their
  // first member; every other instruction becomes one step running its
  // row's kernel, which the verifier proved it has ----
  const auto val = [&](int id) -> const TapeValue& {
    return tape.values[static_cast<size_t>(id)];
  };
  std::unordered_map<int, int> reg_of;  // value id -> register, per group
  for (size_t i = 0; i < tape.instrs.size(); ++i) {
    const TapeInstr& ins = tape.instrs[i];
    Step s;
    s.dst = ins.dst;
    s.dst_cols = val(ins.dst).cols();
    if (ins.group >= 0) {
      if (i > 0 && tape.instrs[i - 1].group == ins.group) continue;  // compiled below
      // Compile the whole contiguous group into one micro-program.
      Step g;
      reg_of.clear();
      size_t j = i;
      for (; j < tape.instrs.size() && tape.instrs[j].group == ins.group; ++j) {
        const TapeInstr& m = tape.instrs[j];
        const nn::OpDef& row = nn::op_def(m.op);
        if (!row.ew) return nullptr;
        MicroOp mo;
        mo.fn = *row.ew;
        mo.binary = row.min_arity == 2;
        if (m.args.empty() || (mo.binary && m.args.size() < 2)) return nullptr;
        const auto bind = [&](int arg, int& id, int& reg) {
          const auto it = reg_of.find(arg);
          if (it != reg_of.end() && impl->ptr[static_cast<size_t>(arg)] == nullptr) {
            id = -1;
            reg = it->second;
          } else {
            id = arg;  // materialized or defined before the group
          }
        };
        bind(m.args[0], mo.a_id, mo.a_reg);
        if (mo.binary) bind(m.args[1], mo.b_id, mo.b_reg);
        mo.dst_reg = static_cast<int>(reg_of.size());
        if (mo.dst_reg >= analysis::kMaxFusionMembers) return nullptr;
        mo.store_id =
            impl->ptr[static_cast<size_t>(m.dst)] != nullptr ? m.dst : -1;
        reg_of.emplace(m.dst, mo.dst_reg);
        g.prog.push_back(mo);
      }
      // The group's iteration domain: every member shares it (verified).
      g.dst = ins.dst;
      g.dst_cols = val(ins.dst).cols();
      impl->steps.push_back(std::move(g));
      continue;
    }
    s.row = &nn::op_def(ins.op);
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
  const auto expect = [&](const nn::Matrix& m, const char* what) {
    if (m.rows() != n) {
      throw std::invalid_argument(std::string("TapeExecutor::step: ") + what +
                                  " row count != ctx.cond's");
    }
  };
  expect(noise, "noise");
  expect(state.h, "state.h");
  expect(state.c, "state.c");
  expect(state.mask, "state.mask");
  if (records.rows() != n || records.cols() != im.records_cols) {
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
  bind(im.in_cond, ctx.cond);
  bind(im.in_noise, noise);
  bind(im.in_h, state.h);
  bind(im.in_c, state.c);
  bind(im.in_mask, state.mask);
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
  // round-trip per op (~90 per generation step); here each worker takes a
  // static lane range up front and replays the entire instruction sequence
  // over it, which is legal because every opcode is row-local (see run()).
  // The output copies ride along: a worker only writes its own lanes of
  // state.h/c/mask, and the other workers' reads of those buffers (as
  // in_h/in_c/in_mask) are confined to their own lanes too.
  const std::int64_t grain = std::max<std::int64_t>(
      1, (n + nn::num_threads() - 1) / nn::num_threads());
  nn::parallel_for(0, n, grain, [&](std::int64_t r0, std::int64_t r1) {
    for (const Step& s : im.steps) im.run(s, r0, r1);
    const size_t rows = static_cast<size_t>(r1 - r0);
    const auto lanes = [&](auto* base, int cols) {
      return base + static_cast<size_t>(r0) * cols;
    };
    std::memcpy(lanes(records.data(), im.records_cols),
                lanes(im.ptr[static_cast<size_t>(im.out_records)],
                      im.records_cols),
                rows * im.records_cols * sizeof(float));
    std::memcpy(lanes(state.h.data(), im.h_cols),
                lanes(im.ptr[static_cast<size_t>(im.out_h)], im.h_cols),
                rows * im.h_cols * sizeof(float));
    std::memcpy(lanes(state.c.data(), im.h_cols),
                lanes(im.ptr[static_cast<size_t>(im.out_c)], im.h_cols),
                rows * im.h_cols * sizeof(float));
    std::memcpy(lanes(state.mask.data(), 1),
                lanes(im.ptr[static_cast<size_t>(im.out_mask)], 1),
                rows * sizeof(float));
  });
  ++state.step;
}

}  // namespace dg::core
