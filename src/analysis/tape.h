// Tape IR: the generation path lowered to a flat, SSA-like instruction
// list that a dumb interpreter can replay with zero allocations. An
// instruction carries its nn::Op; names appear only in diagnostics. One tape
// covers one `generation_step` (the serving hot loop's unit of work): the
// lowering traces DoppelGanger::generation_step_graph of a meta_model
// (analysis/trace.h) — so the instructions are the ops generation_step
// really runs, in its order, with registry-derived shapes — and hands the
// result to the arena planner (analysis/planner.h).
//
// Trust model: a tape is DATA, not code — it may come from lowering, from a
// test mutation, or (in principle) from disk. A tape stores only its
// instruction list, its values' kinds and shapes, and which values are the
// step's outputs; every other fact (which instruction writes a value, which
// reads it last) is derived from the instructions (planner.h's liveness()),
// so no stored field can contradict them. Nothing executes a tape until
// `verify_tape` proves, statically:
//   * every local is written by exactly one instruction, and before its
//     first use;
//   * every op is a row of the op table (the Op is in range) with matching
//     arity, and re-running its shape rule reproduces the recorded result
//     shape (stale-shape);
//   * every instruction's row has a kernel the executor runs (a row kernel
//     or an elementwise EwFn, nn/ops.h), and its result is batch-shaped,
//     since the executor runs every instruction over the step's lanes: a
//     verified tape is a runnable one;
//   * the tape has the step's signature (kTapeInputs inputs, kTapeOutputs
//     outputs, each output a local and each state output of its state
//     input's shape), which the executor binds by position;
//   * the arena plan is sound: no two values with overlapping lifetimes
//     share bytes, and values that share bytes share a whole slot.
// Failures surface as analysis::Diagnostic records naming the offending
// instruction — the same machinery `dgcli lint` and the .dgpkg preflight
// already speak.
#pragma once

#include <string_view>
#include <vector>

#include "analysis/diag.h"
#include "analysis/registry.h"
#include "core/doppelganger.h"
#include "data/types.h"

namespace dg::analysis {

enum class TapeValueKind {
  kParam,  ///< model weight, bound once at executor build time
  kInput,  ///< per-step input (cond, noise, state.h/c/mask)
  kLocal,  ///< written by one instruction; lives in the arena
};

/// The step's signature, bound by position: inputs cond, noise, state.h,
/// state.c, state.mask (the kInput values in value order); outputs records,
/// state.h, state.c, state.mask.
inline constexpr int kTapeInputs = 5;
inline constexpr int kTapeOutputs = 4;

/// A value is its position in Tape::values; an instruction its position in
/// Tape::instrs.
struct TapeValue {
  TapeValueKind kind = TapeValueKind::kLocal;
  /// kParam: the traced leaf's position in DoppelGanger::named_parameters(),
  /// which is what an executor binds the model's weight by.
  int param_index = -1;
  Shape shape;  ///< rows is Dim::sym("B") for batch-shaped values

  /// Concrete column count (every tape value has concrete cols).
  int cols() const { return static_cast<int>(shape.cols.value); }
};

struct TapeInstr {
  /// Range-checked by verify_tape: a tape is data, and may be edited.
  Op op = Op::kLeaf;
  int dst = -1;
  std::vector<int> args;
  OpAttrs attrs;  ///< slice bounds etc., exactly as the registry rules read
};

/// The lowering numbers the values: inputs first, then the weights the step
/// reads (named_parameters() order), then one local per instruction.
struct Tape {
  std::vector<TapeValue> values;
  std::vector<TapeInstr> instrs;
  std::vector<int> outputs;  ///< records, state.h, state.c, state.mask
};

/// Arena plan for a tape (planner.h computes it; carried here so a tape and
/// its plan travel and get verified together).
struct ArenaPlan {
  /// Per-value float offset of the value's row-0 lane slot, -1 = no slot.
  /// Offsets are in floats PER LANE: lane-major layout means value v of a
  /// width-n batch occupies [offset[v]*n, (offset[v]+cols)*n).
  std::vector<long long> offsets;
  long long peak_cols = 0;  ///< arena floats per lane

  long long peak_bytes_per_lane() const {
    return peak_cols * static_cast<long long>(sizeof(float));
  }
};

struct TapeReport {
  Tape tape;
  ArenaPlan plan;
  std::vector<Diagnostic> diagnostics;
  /// verify_tape ran and found no errors. The executor refuses anything else.
  bool verified = false;

  bool ok() const { return verified && !has_errors(diagnostics); }
};

/// Lowers one generation_step for the given schema + config, plans the
/// arena and verifies the result. Never throws on bad input — an invalid
/// config comes back as diagnostics with `verified == false`.
TapeReport build_generation_tape(const data::Schema& schema,
                                 const core::DoppelGangerConfig& cfg);

/// The static verifier (see the header comment for the rule list). Returns
/// every finding; an empty error set is the executor's license to run.
std::vector<Diagnostic> verify_tape(
    const Tape& tape, const ArenaPlan& plan,
    const OpRegistry& registry = OpRegistry::builtin());

/// Compact census for lint output and the .dgpkg preflight.
struct TapeSummary {
  int instructions = 0;
  long long arena_peak_bytes = 0;  ///< per lane
  bool verified = false;
};

TapeSummary summarize_tape(const TapeReport& report);

/// Negative-control hook (mutation tests, `dgcli lint --tape-mutate`):
/// corrupts the tape/plan with one of the seeded defect classes —
/// "use-before-def", "arena-overlap", "double-def" (the last instruction
/// writes the first one's destination), "unknown-op" (an Op past the
/// table), "stale-shape" — then re-verifies, updating
/// report.diagnostics and report.verified. Returns false for an unknown
/// class or a tape too small to corrupt. A mutated tape must be rejected by
/// verify_tape, never run.
bool seed_tape_defect(TapeReport& report, std::string_view defect_class);

}  // namespace dg::analysis
