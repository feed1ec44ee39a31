#include "analysis/tape.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "analysis/model.h"
#include "analysis/planner.h"
#include "analysis/trace.h"
#include "obs/metrics.h"

namespace dg::analysis {

namespace {

using Sev = Severity;

/// Whether `op` is a row of the op table. A tape is data, and a hand-edited
/// one may hold any value.
bool in_table(Op op) { return static_cast<size_t>(op) < nn::kNumOps; }

/// The op's name, for output; "op#N" for a value past the table.
std::string op_name(Op op) {
  return in_table(op) ? nn::op_def(op).name
                      : "op#" + std::to_string(static_cast<int>(op));
}

// ---- lowering -----------------------------------------------------------

/// Builds tape values and instructions from a traced SymGraph: inputs,
/// then parameters, then one local per instruction — the numbering the
/// planner and executor expect.
class Lowering {
 public:
  explicit Lowering(const SymGraph& g)
      : ids_(static_cast<size_t>(g.size()), -1) {}

  Tape tape;
  std::vector<Diagnostic> diags;

  void input(const SymNode* n) { value(n, TapeValueKind::kInput); }

  void param(const SymNode* n) {
    const int id = value(n, TapeValueKind::kParam);
    tape.values[static_cast<size_t>(id)].param_index = n->param;
  }

  /// Lowers an op node to an instruction; the bound inputs are skipped.
  void emit(const SymNode* n) {
    if (id_of(n) >= 0) return;
    std::vector<int> args;
    args.reserve(n->parents.size());
    for (const SymNode* p : n->parents) {
      if (id_of(p) < 0) {
        diags.push_back({Sev::kError, "tape-lower",
                         "operand has no tape binding (only the step's "
                         "inputs and weights may enter it)",
                         nn::op_def(n->op).name, SymGraph::path(n)});
        return;
      }
      args.push_back(id_of(p));
    }
    const int dst = value(n, TapeValueKind::kLocal);
    tape.instrs.push_back({n->op, dst, std::move(args), n->attrs});
  }

  void mark_output(const SymNode* n, const std::string& name) {
    if (id_of(n) < 0) {
      diags.push_back({Sev::kError, "tape-lower",
                       "step output '" + name + "' was not lowered", "tape",
                       {}});
      return;
    }
    tape.outputs.push_back(id_of(n));
  }

 private:
  /// The tape value a graph node was lowered to, -1 if none yet.
  int id_of(const SymNode* n) const {
    return ids_[static_cast<size_t>(n->id)];
  }

  int value(const SymNode* n, TapeValueKind kind) {
    const int id = static_cast<int>(tape.values.size());
    tape.values.push_back({kind, -1, n->shape});
    ids_[static_cast<size_t>(n->id)] = id;
    return id;
  }

  std::vector<int> ids_;  ///< by graph node id
};

// ---- verifier -----------------------------------------------------------

std::string instr_str(const Tape& t, int i) {
  const TapeInstr& ins = t.instrs[static_cast<size_t>(i)];
  std::string s = "instr #" + std::to_string(i) + ": v" +
                  std::to_string(ins.dst) + " = " + op_name(ins.op) + "(";
  for (size_t a = 0; a < ins.args.size(); ++a) {
    if (a > 0) s += ", ";
    s += 'v';
    s += std::to_string(ins.args[a]);
  }
  s += ")";
  return s;
}

void finding(std::vector<Diagnostic>& out, std::string code, std::string msg,
             const Tape& t, int instr) {
  out.push_back({Sev::kError, std::move(code), std::move(msg),
                 instr >= 0 ? op_name(t.instrs[static_cast<size_t>(instr)].op)
                            : std::string("tape"),
                 instr >= 0 ? instr_str(t, instr) : std::string{}});
}

}  // namespace

std::vector<Diagnostic> verify_tape(const Tape& tape, const ArenaPlan& plan,
                                    const OpRegistry& registry) {
  std::vector<Diagnostic> out;
  const int n_instrs = static_cast<int>(tape.instrs.size());
  const int n_values = static_cast<int>(tape.values.size());

  const auto valid_value = [&](int id) { return id >= 0 && id < n_values; };
  const auto val = [&](int id) -> const TapeValue& {
    return tape.values[static_cast<size_t>(id)];
  };
  const auto vstr = [](int id) { return 'v' + std::to_string(id); };

  // ---- structural sanity: every value id the later rules index by ----
  for (int i = 0; i < n_instrs; ++i) {
    const TapeInstr& ins = tape.instrs[static_cast<size_t>(i)];
    if (!valid_value(ins.dst)) {
      finding(out, "tape-malformed", "destination value id out of range",
              tape, i);
      return out;
    }
    if (val(ins.dst).kind != TapeValueKind::kLocal) {
      finding(out, "tape-malformed",
              "instruction writes a parameter/input value", tape, i);
    }
    for (int a : ins.args) {
      if (!valid_value(a)) {
        finding(out, "tape-malformed", "operand value id out of range", tape,
                i);
        return out;
      }
    }
  }
  for (int o : tape.outputs) {
    if (!valid_value(o)) {
      finding(out, "tape-malformed", "output value id out of range", tape, -1);
      return out;
    }
  }
  if (plan.offsets.size() != tape.values.size()) {
    finding(out, "tape-malformed",
            "arena plan covers " + std::to_string(plan.offsets.size()) +
                " values; tape has " + std::to_string(tape.values.size()),
            tape, -1);
    return out;
  }
  const Liveness lv = liveness(tape);
  const auto writer = [&](int v) {
    return lv.live[static_cast<size_t>(v)].begin;
  };

  // ---- signature: the executor binds the inputs (the kInput values in
  // value order) and the outputs by position, and copies each state output
  // into the caller's buffer for its state input ----
  std::vector<int> inputs;
  for (int v = 0; v < n_values; ++v) {
    if (val(v).kind == TapeValueKind::kInput) inputs.push_back(v);
  }
  if (inputs.size() != kTapeInputs || tape.outputs.size() != kTapeOutputs) {
    finding(out, "tape-signature",
            "tape has " + std::to_string(inputs.size()) + " inputs and " +
                std::to_string(tape.outputs.size()) +
                " outputs; the executor binds the step's " +
                std::to_string(kTapeInputs) + " and " +
                std::to_string(kTapeOutputs),
            tape, -1);
  } else {
    for (int k = 1; k < kTapeOutputs; ++k) {
      const int o = tape.outputs[static_cast<size_t>(k)];
      const int in = inputs[static_cast<size_t>(k + 1)];
      if (val(o).shape != val(in).shape) {
        finding(out, "tape-signature",
                "state output " + vstr(o) + " has shape " +
                    val(o).shape.str() + "; its state input " + vstr(in) +
                    " has " + val(in).shape.str(),
                tape, writer(o));
      }
    }
  }
  for (int o : tape.outputs) {
    if (val(o).kind != TapeValueKind::kLocal) {
      finding(out, "tape-signature",
              "output " + vstr(o) + " is a parameter/input, not a local "
              "the step writes",
              tape, -1);
    }
  }

  // ---- every local is written by exactly one instruction: the derived
  // lifetimes (and so the arena check below) rest on it ----
  for (int v = 0; v < n_values; ++v) {
    const int writes = lv.writes[static_cast<size_t>(v)];
    if (val(v).kind != TapeValueKind::kLocal || writes == 1) continue;
    int again = -1;  // the second writer, if any
    for (int i = writer(v) + 1; writes > 1 && again < 0; ++i) {
      if (tape.instrs[static_cast<size_t>(i)].dst == v) again = i;
    }
    finding(out, "tape-double-def",
            "local " + vstr(v) + " is written by " + std::to_string(writes) +
                " instructions; a local is written by exactly one",
            tape, again);
  }

  // ---- per-instruction: def-before-use, registry, arity, shapes ----
  for (int i = 0; i < n_instrs; ++i) {
    const TapeInstr& ins = tape.instrs[static_cast<size_t>(i)];
    bool order_ok = true;
    for (int a : ins.args) {
      const int w = writer(a);
      if (val(a).kind != TapeValueKind::kLocal || (w >= 0 && w < i)) continue;
      finding(out, "tape-use-before-def",
              "operand " + vstr(a) +
                  (w < 0 ? std::string(" is never written")
                         : " is written at instr #" + std::to_string(w) +
                               ", after its use"),
              tape, i);
      order_ok = false;
    }
    if (!in_table(ins.op)) {
      finding(out, "tape-unknown-op",
              "op value " + std::to_string(static_cast<int>(ins.op)) +
                  " is not a row of the op table (" +
                  std::to_string(nn::kNumOps) + " rows)",
              tape, i);
      continue;
    }
    const OpInfo& info = registry[ins.op];
    const int arity = static_cast<int>(ins.args.size());
    if (arity < info.min_arity ||
        (info.max_arity >= 0 && arity > info.max_arity)) {
      finding(out, "tape-arity",
              std::string("op '") + info.name + "' takes " +
                  std::to_string(info.min_arity) + ".." +
                  (info.max_arity < 0 ? std::string("*")
                                      : std::to_string(info.max_arity)) +
                  " operands; tape records " + std::to_string(arity),
              tape, i);
      continue;
    }
    if (info.rows == nullptr && !info.ew) {
      // Verified must mean runnable: the executor runs an instruction
      // through its row's kernel and has no other code for it.
      finding(out, "tape-no-kernel",
              std::string("op '") + info.name +
                  "' has no row kernel for the executor to run",
              tape, i);
    }
    const Shape& recorded = val(ins.dst).shape;
    if (recorded.rows.concrete()) {
      // The executor runs every instruction over the step's lanes, reading
      // each batch operand's rows [r0, r1); a result of fixed rows could
      // only come from operands that have no such rows.
      finding(out, "tape-not-batch",
              "result shape " + recorded.str() +
                  " is not batch-shaped; the executor runs every "
                  "instruction over the step's lanes",
              tape, i);
    }
    if (!order_ok) continue;  // one root cause per defect; shapes would lie
    std::vector<Shape> in;
    in.reserve(ins.args.size());
    for (int a : ins.args) in.push_back(val(a).shape);
    const ShapeResult r = info.shape(in, ins.attrs);
    if (!r.shape) {
      finding(out, "tape-stale-shape",
              "shape rule rejects the recorded operands: " + r.error, tape, i);
    } else if (*r.shape != recorded) {
      finding(out, "tape-stale-shape",
              "recorded result shape " + recorded.str() +
                  " does not match the shape rule's " + r.shape->str(),
              tape, i);
    }
  }

  // ---- arena plan: coverage, bounds, and overlap of the derived
  // lifetimes ----
  std::vector<int> slotted;
  for (int v = 0; v < n_values; ++v) {
    const long long off = plan.offsets[static_cast<size_t>(v)];
    if (val(v).kind != TapeValueKind::kLocal) {
      if (off >= 0) {
        finding(out, "tape-malformed",
                "parameter/input " + vstr(v) + " must not own an arena slot",
                tape, -1);
      }
      continue;
    }
    if (val(v).cols() <= 0) continue;
    if (off < 0) {
      finding(out, "tape-malformed",
              "local " + vstr(v) + " has no slot in the arena plan", tape,
              writer(v));
      continue;
    }
    if (off + val(v).cols() > plan.peak_cols) {
      finding(out, "tape-arena-overlap",
              vstr(v) + " slot [" + std::to_string(off) + ", " +
                  std::to_string(off + val(v).cols()) +
                  ") exceeds the arena peak of " +
                  std::to_string(plan.peak_cols),
              tape, writer(v));
    }
    slotted.push_back(v);
  }
  for (size_t x = 0; x < slotted.size(); ++x) {
    for (size_t y = x + 1; y < slotted.size(); ++y) {
      const int a = slotted[x];
      const int b = slotted[y];
      const long long ao = plan.offsets[static_cast<size_t>(a)];
      const long long bo = plan.offsets[static_cast<size_t>(b)];
      const int ac = val(a).cols();
      const int bc = val(b).cols();
      if (ao >= bo + bc || bo >= ao + ac) continue;  // disjoint
      if (lv.live[static_cast<size_t>(a)].overlaps(
              lv.live[static_cast<size_t>(b)])) {
        finding(out, "tape-arena-overlap",
                vstr(a) + " (written at instr #" + std::to_string(writer(a)) +
                    ") and " + vstr(b) +
                    " have overlapping lifetimes but share arena floats [" +
                    std::to_string(std::max(ao, bo)) + ", " +
                    std::to_string(std::min(ao + ac, bo + bc)) + ")",
                tape, writer(b));
      } else if (ao != bo || ac != bc) {
        // Partition safety: time-disjoint values may share floats only as an
        // exact slot match. With slab-major layout, a shifted or nested
        // overlap maps lane i of one value onto lane j != i of the other, so
        // the lane-partitioned replay (one worker per lane range, each at its
        // own position in the instruction stream) would race across workers
        // even though sequential execution is clean.
        finding(out, "tape-arena-overlap",
                vstr(a) + " slot [" + std::to_string(ao) + ", " +
                    std::to_string(ao + ac) + ") and " + vstr(b) + " slot [" +
                    std::to_string(bo) + ", " + std::to_string(bo + bc) +
                    ") partially overlap; slot reuse must be exact "
                    "(same offset and width) to keep lane-partitioned "
                    "replay race-free",
                tape, writer(b));
      }
    }
  }
  return out;
}

TapeReport build_generation_tape(const data::Schema& schema,
                                 const core::DoppelGangerConfig& cfg) {
  obs::Registry::global().counter("analysis.tape_builds").add(1);
  TapeReport rep;
  std::vector<Diagnostic> config_findings;  // named in the refusal below
  const std::unique_ptr<core::DoppelGanger> model =
      checked_meta_model(schema, cfg, config_findings);
  if (!model) {
    std::string msg =
        "schema + config do not describe a constructible generation step";
    for (const Diagnostic& d : config_findings) {
      if (d.severity == Sev::kError) msg += "; " + d.op + ": " + d.message;
    }
    rep.diagnostics.push_back(
        {Sev::kError, "tape-config", std::move(msg), "tape", {}});
    return rep;
  }

  // The step's input shapes, from the model itself (shape-only: nothing
  // here is recorded).
  core::GenContext ctx;
  core::GenState state;
  nn::Matrix noise;
  {
    nn::MetaModeGuard shapes_only;
    nn::Rng rng(cfg.seed);
    ctx = model->sample_context(kMetaBatch, rng);
    state = model->initial_gen_state(kMetaBatch);
    noise = nn::Matrix(kMetaBatch, model->feat_noise_dim());
  }

  // Trace one step, wrapping the inputs as generation_step does.
  SymGraph graph;
  Trace trace(graph);
  trace.bind_params(model->named_parameters());
  std::vector<nn::Var> inputs;
  core::DoppelGanger::StepVars out;
  trace.run([&] {
    nn::NoGradGuard no_grad;
    for (const nn::Matrix* m :
         {&ctx.cond, &noise, &state.h, &state.c, &state.mask}) {
      inputs.push_back(nn::constant(*m));
    }
    out = model->generation_step_graph(inputs[0], inputs[1], inputs[2],
                                       inputs[3], inputs[4]);
  });
  rep.diagnostics = graph.diagnostics();
  if (has_errors(rep.diagnostics)) return rep;

  // Inputs in the order TapeExecutor::step binds them, then the weights the
  // step reads (named_parameters() order), then every traced op in order.
  Lowering lw(graph);
  for (const nn::Var& in : inputs) lw.input(trace.node(in));
  std::vector<char> read(static_cast<size_t>(graph.size()), 0);
  for (int i = 0; i < graph.size(); ++i) {
    for (const SymNode* p : graph.node(i)->parents) {
      read[static_cast<size_t>(p->id)] = 1;
    }
  }
  for (const SymNode* p : trace.params()) {
    if (read[static_cast<size_t>(p->id)] != 0) lw.param(p);
  }
  for (int i = 0; i < graph.size(); ++i) {
    const SymNode* n = graph.node(i);
    if (n->op != Op::kLeaf) lw.emit(n);
  }
  lw.mark_output(trace.node(out.records), "records");
  lw.mark_output(trace.node(out.h), "state.h");
  lw.mark_output(trace.node(out.c), "state.c");
  lw.mark_output(trace.node(out.mask), "state.mask");

  rep.tape = std::move(lw.tape);
  for (Diagnostic& diag : lw.diags) rep.diagnostics.push_back(std::move(diag));
  if (has_errors(rep.diagnostics)) return rep;

  rep.plan = plan_arena(rep.tape);
  std::vector<Diagnostic> verdict = verify_tape(rep.tape, rep.plan);
  rep.verified = !has_errors(verdict);
  for (Diagnostic& diag : verdict) rep.diagnostics.push_back(std::move(diag));
  return rep;
}

TapeSummary summarize_tape(const TapeReport& report) {
  TapeSummary s;
  s.instructions = static_cast<int>(report.tape.instrs.size());
  s.arena_peak_bytes = report.plan.peak_bytes_per_lane();
  s.verified = report.verified;
  return s;
}

bool seed_tape_defect(TapeReport& report, std::string_view defect_class) {
  Tape& t = report.tape;
  ArenaPlan& plan = report.plan;
  bool seeded = false;
  // A tape whose lowering failed has no plan to corrupt.
  if (t.instrs.size() < 2 || plan.offsets.size() != t.values.size()) {
    return false;
  }
  if (defect_class == "use-before-def") {
    // Point an early instruction's operand at the last instruction's result.
    if (!t.instrs.front().args.empty()) {
      t.instrs.front().args[0] = t.instrs.back().dst;
      seeded = true;
    }
  } else if (defect_class == "arena-overlap") {
    // Collapse two overlapping-lifetime slots onto the same offset.
    const Liveness lv = liveness(t);
    for (size_t x = 0; x < t.values.size() && !seeded; ++x) {
      for (size_t y = x + 1; y < t.values.size() && !seeded; ++y) {
        if (plan.offsets[x] < 0 || plan.offsets[y] < 0) continue;
        if (plan.offsets[x] == plan.offsets[y]) continue;
        if (lv.live[x].overlaps(lv.live[y])) {
          plan.offsets[y] = plan.offsets[x];
          seeded = true;
        }
      }
    }
  } else if (defect_class == "double-def") {
    // The last instruction overwrites the first instruction's result.
    t.instrs.back().dst = t.instrs.front().dst;
    seeded = true;
  } else if (defect_class == "unknown-op") {
    // An op value past the table, as a hand-edited tape could hold.
    t.instrs.front().op = Op::kCount;
    seeded = true;
  } else if (defect_class == "stale-shape") {
    // Widen one result value without touching its producer: the re-run
    // shape rule no longer reproduces the recorded shape.
    Shape& s = t.values[static_cast<size_t>(t.instrs.front().dst)].shape;
    s.cols = Dim::of(s.cols.value + 1);
    seeded = true;
  }
  if (!seeded) return false;
  std::vector<Diagnostic> verdict = verify_tape(t, plan);
  report.verified = !has_errors(verdict);
  for (Diagnostic& diag : verdict) report.diagnostics.push_back(std::move(diag));
  return true;
}

}  // namespace dg::analysis
