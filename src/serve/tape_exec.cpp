#include "serve/tape_exec.h"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "nn/ops.h"
#include "nn/parallel.h"
#include "nn/simd/vec.h"

namespace dg::serve {

namespace {

using analysis::Tape;
using analysis::TapeInstr;
using analysis::TapeValue;
using analysis::TapeValueKind;

using Fn = nn::simd::EwFn;

// The matmul/elementwise/reduction micro-kernels live in the SIMD dispatch
// tier (nn/simd/vec.h) since PR 7 — the same kernel table nn/matrix.cpp
// dispatches into, which is what keeps tape replay bit-identical to the
// autograd forward on every tier: both paths literally run the same code.
// An elementwise instruction runs its op row's EwFn (nn/ops.h), the kernel
// the autograd forward runs.

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

constexpr int kMaxFusedRegs = 64;

/// One compiled instruction, or (non-empty `prog`) one fused group.
struct Step {
  nn::Op op{};
  int dst = -1;  // value ids; pointers resolve through the table at run time
  int dst_cols = 0;
  int a = -1;
  int a_cols = 0;
  int b = -1;
  int c = -1;
  int d = -1;
  int e = -1;
  int i0 = 0;
  Fn fn{};
  bool binary = false;
  std::vector<std::pair<int, int>> parts;  // concat: (value id, cols)
  std::vector<MicroOp> prog;               // fused group program, if any
};

}  // namespace

struct TapeExecutor::Impl {
  int n = 0;  // batch width (rows of every batch-shaped buffer)
  std::vector<float> arena;
  /// Per-value data pointer: arena slots and parameters are fixed at build
  /// time; the input entries are rebound at every step() call.
  std::vector<float*> ptr;
  std::vector<nn::Var> held_params;  // keeps the weight matrices alive
  std::vector<Step> steps;
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
  const auto src = [&](int id) -> const float* {
    return ptr[static_cast<size_t>(id)];
  };
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
    float regs[kMaxFusedRegs][kTile];
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
  switch (s.op) {
    case nn::Op::kConcatCols: {  // dst rows <- memcpy of each part row
      int offset = 0;
      for (const auto& [id, cols] : s.parts) {
        if (cols == 0) continue;
        const float* p = src(id);
        for (std::int64_t i = r0; i < r1; ++i) {
          std::memcpy(dst + static_cast<size_t>(i) * m + offset,
                      p + static_cast<size_t>(i) * cols,
                      static_cast<size_t>(cols) * sizeof(float));
        }
        offset += cols;
      }
      break;
    }
    case nn::Op::kSliceCols: {  // dst <- a[:, i0 : i0 + dst_cols]
      const float* a = src(s.a);
      for (std::int64_t i = r0; i < r1; ++i) {
        std::memcpy(dst + static_cast<size_t>(i) * m,
                    a + static_cast<size_t>(i) * s.a_cols + s.i0,
                    static_cast<size_t>(m) * sizeof(float));
      }
      break;
    }
    case nn::Op::kLstmGates: {  // dst <- bias rows; += a*b; += c*d
      const float* x = src(s.a);
      const float* wx = src(s.b);
      const float* h = src(s.c);
      const float* wh = src(s.d);
      const float* bias = src(s.e);
      const int xc = s.a_cols, hc = s.i0;  // i0 carries h's width here
      for (std::int64_t i = r0; i < r1; ++i) {
        std::memcpy(dst + static_cast<size_t>(i) * m, bias,
                    static_cast<size_t>(m) * sizeof(float));
      }
      kt.matmul_acc_rows(x, xc, wx, m, dst, r0, r1);
      kt.matmul_acc_rows(h, hc, wh, m, dst, r0, r1);
      break;
    }
    case nn::Op::kAffine: {  // dst <- bias rows; += a*b
      const float* x = src(s.a);
      const float* w = src(s.b);
      const float* bias = src(s.e);
      for (std::int64_t i = r0; i < r1; ++i) {
        std::memcpy(dst + static_cast<size_t>(i) * m, bias,
                    static_cast<size_t>(m) * sizeof(float));
      }
      kt.matmul_acc_rows(x, s.a_cols, w, m, dst, r0, r1);
      break;
    }
    case nn::Op::kMulColvec: {  // dst <- copy(a); row i *= b[i]
      // Single pass (a[j] * sc == copy-then-scale, bit for bit).
      const float* a = src(s.a);
      const float* v = src(s.b);
      for (std::int64_t i = r0; i < r1; ++i) {
        kt.mul_scalar(a + static_cast<size_t>(i) * m, v[i],
                      dst + static_cast<size_t>(i) * m, m);
      }
      break;
    }
    case nn::Op::kRowSum: {  // dst[i] <- ascending sum of a row i
      kt.row_sum(src(s.a), s.a_cols, dst, r0, r1);
      break;
    }
    case nn::Op::kNegRowMax: {  // dst[i] <- -max(a row i)
      // The same kernel autograd's softmax_rows uses for its shift, so the
      // 8-lane-blocked max association matches the forward exactly.
      kt.neg_row_max(src(s.a), s.a_cols, dst, r0, r1);
      break;
    }
    case nn::Op::kAddColvec: {  // dst[i][j] <- a[i][j] + b[i]
      const float* a = src(s.a);
      const float* v = src(s.b);
      for (std::int64_t i = r0; i < r1; ++i) {
        kt.add_scalar(a + static_cast<size_t>(i) * m, v[i],
                      dst + static_cast<size_t>(i) * m, m);
      }
      break;
    }
    default: {  // dst <- fn(a) or fn(a, b), per element
      // Single pass: reading `a` and writing `dst` directly matches the
      // copy-then-transform result bit for bit (same-index elementwise),
      // including when the planner gave `dst` the slot `a` just vacated.
      const float* a = src(s.a);
      const float* b = s.binary ? src(s.b) : nullptr;
      const std::int64_t e0 = r0 * m, e1 = r1 * m;
      kt.apply_ew(s.fn, a + e0, b ? b + e0 : nullptr, dst + e0, e1 - e0);
      break;
    }
  }
}

std::unique_ptr<TapeExecutor> TapeExecutor::create(
    const core::DoppelGanger& model, int width) {
  return from_report(
      model, analysis::build_generation_tape(model.schema(), model.config()),
      width);
}

std::unique_ptr<TapeExecutor> TapeExecutor::from_report(
    const core::DoppelGanger& model, analysis::TapeReport report, int width) {
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
  impl->n = width;
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
    impl->held_params.push_back(p);
    impl->ptr[static_cast<size_t>(pid)] =
        const_cast<float*>(m.data());  // never written: dsts are locals
  }
  if (tape.inputs.size() != 5 || tape.outputs.size() != 4) return nullptr;
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
  // first member; every other instruction becomes one step of its Op ----
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
        const nn::OpDef* row = nn::find_op(m.op);
        if (row == nullptr || !row->ew) return nullptr;
        MicroOp mo;
        mo.fn = *row->ew;
        mo.binary = row->min_arity == 2;
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
        if (mo.dst_reg >= kMaxFusedRegs) return nullptr;
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
    const nn::OpDef* row = nn::find_op(ins.op);
    if (row == nullptr) return nullptr;
    s.op = row->op;
    if (!ins.args.empty()) {
      s.a = ins.args[0];
      s.a_cols = val(s.a).cols();
    }
    if (ins.args.size() > 1) s.b = ins.args[1];
    switch (row->op) {
      case nn::Op::kConcatCols:
        for (int a : ins.args) s.parts.emplace_back(a, val(a).cols());
        break;
      case nn::Op::kSliceCols:
        s.i0 = static_cast<int>(ins.attrs.i0);
        break;
      case nn::Op::kLstmGates:
        s.c = ins.args[2];
        s.i0 = val(s.c).cols();  // h width rides in i0
        s.d = ins.args[3];
        s.e = ins.args[4];
        break;
      case nn::Op::kAffine:
        s.e = ins.args[2];
        break;
      case nn::Op::kMulColvec:
      case nn::Op::kRowSum:
      case nn::Op::kNegRowMax:
      case nn::Op::kAddColvec:
        break;
      default:
        if (!row->ew) return nullptr;  // op the executor has no kernel for
        s.fn = *row->ew;
        s.binary = row->min_arity == 2;
        break;
    }
    impl->steps.push_back(std::move(s));
  }

  auto exec = std::unique_ptr<TapeExecutor>(new TapeExecutor());
  exec->width_ = width;
  exec->summary_ = analysis::summarize_tape(report);
  exec->impl_ = std::move(impl);
  return exec;
}

TapeExecutor::~TapeExecutor() = default;

void TapeExecutor::step(const core::GenContext& ctx, const nn::Matrix& noise,
                        core::GenState& state, nn::Matrix& records) {
  Impl& im = *impl_;
  const auto expect = [&](const nn::Matrix& m, const char* what) {
    if (m.rows() != im.n) {
      throw std::invalid_argument(std::string("TapeExecutor::step: ") + what +
                                  " row count != width");
    }
  };
  expect(ctx.cond, "cond");
  expect(noise, "noise");
  expect(state.h, "state.h");
  expect(state.c, "state.c");
  expect(state.mask, "state.mask");
  if (records.rows() != im.n || records.cols() != im.records_cols) {
    throw std::invalid_argument("TapeExecutor::step: records shape mismatch");
  }

  // Inputs are read-only (every instruction destination is a verified
  // local), so the const_cast never turns into a write.
  im.ptr[static_cast<size_t>(im.in_cond)] = const_cast<float*>(ctx.cond.data());
  im.ptr[static_cast<size_t>(im.in_noise)] = const_cast<float*>(noise.data());
  im.ptr[static_cast<size_t>(im.in_h)] = const_cast<float*>(state.h.data());
  im.ptr[static_cast<size_t>(im.in_c)] = const_cast<float*>(state.c.data());
  im.ptr[static_cast<size_t>(im.in_mask)] =
      const_cast<float*>(state.mask.data());

  // One fork-join for the whole step. The autograd forward pays a pool
  // round-trip per op (~90 per generation step); here each worker takes a
  // static lane range up front and replays the entire instruction sequence
  // over it, which is legal because every opcode is row-local (see run()).
  // The output copies ride along: a worker only writes its own lanes of
  // state.h/c/mask, and the other workers' reads of those buffers (as
  // in_h/in_c/in_mask) are confined to their own lanes too.
  const std::int64_t grain = std::max<std::int64_t>(
      1, (im.n + nn::num_threads() - 1) / nn::num_threads());
  nn::parallel_for(0, im.n, grain, [&](std::int64_t r0, std::int64_t r1) {
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

}  // namespace dg::serve
