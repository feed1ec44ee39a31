#include "analysis/tape.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
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

  void input(const SymNode* n, std::string name) {
    tape.inputs.push_back(value(n, TapeValueKind::kInput, std::move(name)));
  }

  void param(const SymNode* n) {
    const int id = value(n, TapeValueKind::kParam, n->label);
    tape.values[static_cast<size_t>(id)].param_index = n->param;
    tape.params.push_back(id);
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
    const int instr_id = static_cast<int>(tape.instrs.size());
    const int dst = value(n, TapeValueKind::kLocal, "");
    tape.values[static_cast<size_t>(dst)].def = instr_id;
    tape.instrs.push_back({instr_id, n->op, dst, std::move(args), n->attrs, -1});
  }

  void mark_output(const SymNode* n, std::string name) {
    if (id_of(n) < 0) {
      diags.push_back({Sev::kError, "tape-lower",
                       "step output '" + name + "' was not lowered", "tape",
                       {}});
      return;
    }
    TapeValue& v = tape.values[static_cast<size_t>(id_of(n))];
    v.output = true;
    if (v.name.empty()) v.name = std::move(name);
    tape.outputs.push_back(v.id);
  }

 private:
  /// The tape value a graph node was lowered to, -1 if none yet.
  int id_of(const SymNode* n) const {
    return ids_[static_cast<size_t>(n->id)];
  }

  int value(const SymNode* n, TapeValueKind kind, std::string name) {
    const int id = static_cast<int>(tape.values.size());
    TapeValue v;
    v.id = id;
    v.kind = kind;
    v.name = std::move(name);
    v.shape = n->shape;
    tape.values.push_back(std::move(v));
    ids_[static_cast<size_t>(n->id)] = id;
    return id;
  }

  std::vector<int> ids_;  ///< by graph node id
};

/// True for ops a fusion group may contain: rows with an elementwise kernel
/// (one output element per input element, no cross-element reads).
bool is_elementwise(Op op) {
  return in_table(op) && nn::op_def(op).ew.has_value();
}

/// Greedy run-based fusion: a fusion group is a maximal contiguous run of at
/// most kMaxFusionMembers elementwise instructions over one iteration
/// domain, where every operand is either produced inside the run or defined
/// before it. Contiguity holds by construction, which is exactly what the
/// verifier later demands.
void fuse_elementwise(Tape& t) {
  const int n = static_cast<int>(t.instrs.size());
  int run_lo = -1;
  std::vector<std::pair<int, int>> runs;  // closed [lo, hi]
  const auto close_run = [&](int hi) {
    if (run_lo >= 0 && hi > run_lo) runs.emplace_back(run_lo, hi);
    run_lo = -1;
  };
  for (int i = 0; i < n; ++i) {
    const TapeInstr& ins = t.instrs[static_cast<size_t>(i)];
    if (!is_elementwise(ins.op)) {
      close_run(i - 1);
      continue;
    }
    bool join = run_lo >= 0 && i - run_lo < kMaxFusionMembers;
    if (join) {
      const Shape& run_shape =
          t.values[static_cast<size_t>(t.instrs[static_cast<size_t>(run_lo)].dst)]
              .shape;
      const Shape& my_shape = t.values[static_cast<size_t>(ins.dst)].shape;
      join = run_shape == my_shape;
    }
    if (join) {
      for (int a : ins.args) {
        const int def = t.values[static_cast<size_t>(a)].def;
        if (def >= run_lo && def < i) continue;  // produced inside the run
        if (def < run_lo) continue;              // run input
        join = false;
        break;
      }
    }
    if (!join) {
      close_run(i - 1);
      run_lo = i;
    }
  }
  close_run(n - 1);

  for (const auto& [lo, hi] : runs) {
    const int gid = t.fusion_groups++;
    for (int i = lo; i <= hi; ++i) t.instrs[static_cast<size_t>(i)].group = gid;
  }

  // Values consumed entirely inside their own group never materialize: the
  // executor carries them in per-element registers.
  std::vector<std::vector<int>> uses(t.values.size());
  for (const TapeInstr& ins : t.instrs) {
    for (int a : ins.args) uses[static_cast<size_t>(a)].push_back(ins.id);
  }
  for (TapeValue& v : t.values) {
    if (v.kind != TapeValueKind::kLocal || v.output || v.def < 0) continue;
    const int gid = t.instrs[static_cast<size_t>(v.def)].group;
    if (gid < 0 || uses[static_cast<size_t>(v.id)].empty()) continue;
    bool inside = true;
    for (int u : uses[static_cast<size_t>(v.id)]) {
      if (t.instrs[static_cast<size_t>(u)].group != gid) {
        inside = false;
        break;
      }
    }
    v.fused_temp = inside;
  }
}

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
  if (ins.group >= 0) s += " [group " + std::to_string(ins.group) + "]";
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

  // ---- structural sanity: the cross-links the later rules lean on ----
  for (int i = 0; i < n_instrs; ++i) {
    const TapeInstr& ins = tape.instrs[static_cast<size_t>(i)];
    if (!valid_value(ins.dst)) {
      finding(out, "tape-malformed", "destination value id out of range",
              tape, i);
      return out;
    }
    const TapeValue& dst = tape.values[static_cast<size_t>(ins.dst)];
    if (dst.kind != TapeValueKind::kLocal) {
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
  if (plan.offsets.size() != tape.values.size()) {
    finding(out, "tape-malformed",
            "arena plan covers " + std::to_string(plan.offsets.size()) +
                " values; tape has " + std::to_string(tape.values.size()),
            tape, -1);
    return out;
  }
  if (tape.inputs.size() != kTapeInputs ||
      tape.outputs.size() != kTapeOutputs) {
    finding(out, "tape-signature",
            "tape has " + std::to_string(tape.inputs.size()) +
                " inputs and " + std::to_string(tape.outputs.size()) +
                " outputs; the executor binds the step's " +
                std::to_string(kTapeInputs) + " and " +
                std::to_string(kTapeOutputs),
            tape, -1);
  }

  // ---- per-instruction: def-before-use, registry, arity, shapes ----
  for (int i = 0; i < n_instrs; ++i) {
    const TapeInstr& ins = tape.instrs[static_cast<size_t>(i)];
    bool order_ok = true;
    for (int a : ins.args) {
      const TapeValue& v = tape.values[static_cast<size_t>(a)];
      if (v.kind == TapeValueKind::kLocal && (v.def < 0 || v.def >= i)) {
        finding(out, "tape-use-before-def",
                "operand v" + std::to_string(a) + " is defined at instr #" +
                    std::to_string(v.def) + ", after its use",
                tape, i);
        order_ok = false;
      }
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
    if (ins.group < 0 && info.rows == nullptr && !info.ew) {
      // Verified must mean runnable: the executor runs an unfused
      // instruction through its row's kernel and has no other code for it.
      finding(out, "tape-no-kernel",
              std::string("op '") + info.name +
                  "' has no row kernel for the executor to run",
              tape, i);
    }
    if (!order_ok) continue;  // one root cause per defect; shapes would lie
    std::vector<Shape> in;
    in.reserve(ins.args.size());
    for (int a : ins.args) in.push_back(tape.values[static_cast<size_t>(a)].shape);
    const ShapeResult r = info.shape(in, ins.attrs);
    const Shape& recorded = tape.values[static_cast<size_t>(ins.dst)].shape;
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

  // ---- fusion legality ----
  struct GroupExtent {
    int lo = -1;
    int hi = -1;
  };
  std::map<int, GroupExtent> groups;
  for (int i = 0; i < n_instrs; ++i) {
    const int gid = tape.instrs[static_cast<size_t>(i)].group;
    if (gid < 0) continue;
    auto& g = groups[gid];
    if (g.lo < 0) g.lo = i;
    g.hi = i;
  }
  for (const auto& [gid, ext] : groups) {
    const Shape* domain = nullptr;
    int members = 0;
    for (int i = ext.lo; i <= ext.hi; ++i) {
      const TapeInstr& ins = tape.instrs[static_cast<size_t>(i)];
      if (ins.group != gid) {
        finding(out, "tape-illegal-fusion",
                "group " + std::to_string(gid) + " spans instrs #" +
                    std::to_string(ext.lo) + "..#" + std::to_string(ext.hi) +
                    " but this instruction is not a member (groups must be "
                    "contiguous)",
                tape, i);
        continue;
      }
      if (++members == kMaxFusionMembers + 1) {
        finding(out, "tape-fusion-size",
                "group " + std::to_string(gid) + " has more than " +
                    std::to_string(kMaxFusionMembers) +
                    " members, the executor's register count",
                tape, i);
      }
      if (!in_table(ins.op) || !registry[ins.op].ew) {
        finding(out, "tape-illegal-fusion",
                "op '" + op_name(ins.op) +
                    "' is not elementwise and cannot be fused",
                tape, i);
        continue;
      }
      const Shape& s = tape.values[static_cast<size_t>(ins.dst)].shape;
      if (domain == nullptr) {
        domain = &s;
      } else if (*domain != s) {
        finding(out, "tape-illegal-fusion",
                "iteration domain " + s.str() +
                    " differs from the group's " + domain->str(),
                tape, i);
      }
    }
  }
  for (const TapeValue& v : tape.values) {
    if (!v.fused_temp) continue;
    const int gid =
        v.def >= 0 ? tape.instrs[static_cast<size_t>(v.def)].group : -1;
    bool bad = v.kind != TapeValueKind::kLocal || v.output || gid < 0;
    if (!bad) {
      for (const TapeInstr& ins : tape.instrs) {
        for (int a : ins.args) {
          if (a == v.id && ins.group != gid) {
            bad = true;
            break;
          }
        }
      }
    }
    if (bad) {
      finding(out, "tape-illegal-fusion",
              "v" + std::to_string(v.id) +
                  " is marked as a fusion-local intermediate but escapes its "
                  "group",
              tape, v.def);
    }
    if (plan.offsets[static_cast<size_t>(v.id)] >= 0) {
      finding(out, "tape-illegal-fusion",
              "fusion-local intermediate v" + std::to_string(v.id) +
                  " must not own an arena slot",
              tape, v.def);
    }
  }

  // ---- arena plan: coverage, bounds, overlap ----
  const auto needs_slot = [&](const TapeValue& v) {
    return v.kind == TapeValueKind::kLocal && !v.fused_temp && v.cols() > 0;
  };
  std::vector<int> slotted;
  for (const TapeValue& v : tape.values) {
    const long long off = plan.offsets[static_cast<size_t>(v.id)];
    if (needs_slot(v)) {
      if (off < 0) {
        finding(out, "tape-malformed",
                "v" + std::to_string(v.id) +
                    " is materialized but the arena plan gives it no slot",
                tape, v.def);
      } else {
        if (off + v.cols() > plan.peak_cols) {
          finding(out, "tape-arena-overlap",
                  "v" + std::to_string(v.id) + " slot [" +
                      std::to_string(off) + ", " +
                      std::to_string(off + v.cols()) +
                      ") exceeds the arena peak of " +
                      std::to_string(plan.peak_cols),
                  tape, v.def);
        }
        slotted.push_back(v.id);
      }
    } else if (off >= 0 && v.kind != TapeValueKind::kLocal) {
      finding(out, "tape-malformed",
              "parameter/input v" + std::to_string(v.id) +
                  " must not own an arena slot",
              tape, -1);
    }
  }
  std::set<std::pair<int, int>> reported;
  for (size_t x = 0; x < slotted.size(); ++x) {
    for (size_t y = x + 1; y < slotted.size(); ++y) {
      const TapeValue& a = tape.values[static_cast<size_t>(slotted[x])];
      const TapeValue& b = tape.values[static_cast<size_t>(slotted[y])];
      const long long ao = plan.offsets[static_cast<size_t>(a.id)];
      const long long bo = plan.offsets[static_cast<size_t>(b.id)];
      if (ao >= bo + b.cols() || bo >= ao + a.cols()) continue;  // disjoint
      if (live_interval(tape, a.id).overlaps(live_interval(tape, b.id))) {
        finding(out, "tape-arena-overlap",
                "v" + std::to_string(a.id) + " (defined at instr #" +
                    std::to_string(a.def) + ") and v" + std::to_string(b.id) +
                    " have overlapping lifetimes but share arena floats [" +
                    std::to_string(std::max(ao, bo)) + ", " +
                    std::to_string(std::min(ao + a.cols(), bo + b.cols())) +
                    ")",
                tape, b.def);
        reported.emplace(std::min(a.id, b.id), std::max(a.id, b.id));
      } else if (ao != bo || a.cols() != b.cols()) {
        // Partition safety: time-disjoint values may share floats only as an
        // exact slot match. With slab-major layout, a shifted or nested
        // overlap maps lane i of one value onto lane j != i of the other, so
        // the lane-partitioned replay (one worker per lane range, each at its
        // own position in the instruction stream) would race across workers
        // even though sequential execution is clean.
        finding(out, "tape-arena-overlap",
                "v" + std::to_string(a.id) + " slot [" + std::to_string(ao) +
                    ", " + std::to_string(ao + a.cols()) + ") and v" +
                    std::to_string(b.id) + " slot [" + std::to_string(bo) +
                    ", " + std::to_string(bo + b.cols()) +
                    ") partially overlap; slot reuse must be exact "
                    "(same offset and width) to keep lane-partitioned "
                    "replay race-free",
                tape, b.def);
        reported.emplace(std::min(a.id, b.id), std::max(a.id, b.id));
      }
    }
  }

  // ---- alias clobber: recomputed from the instruction stream, trusting
  // nothing the liveness metadata says (a corrupted last_use must not let a
  // write land on a buffer a later instruction still reads) ----
  std::vector<int> true_end(tape.values.size(), -1);
  for (const TapeInstr& ins : tape.instrs) {
    for (int a : ins.args) {
      true_end[static_cast<size_t>(a)] =
          std::max(true_end[static_cast<size_t>(a)], ins.id);
    }
  }
  for (int o : tape.outputs) {
    if (valid_value(o)) true_end[static_cast<size_t>(o)] = n_instrs;
  }
  for (int i = 0; i < n_instrs; ++i) {
    const TapeInstr& ins = tape.instrs[static_cast<size_t>(i)];
    const TapeValue& d = tape.values[static_cast<size_t>(ins.dst)];
    const long long doff = plan.offsets[static_cast<size_t>(d.id)];
    if (doff < 0) continue;
    for (int u : slotted) {
      const TapeValue& v = tape.values[static_cast<size_t>(u)];
      if (v.id == d.id || v.def > i || true_end[static_cast<size_t>(u)] < i) {
        continue;  // not yet defined, or already dead at this write
      }
      const long long voff = plan.offsets[static_cast<size_t>(u)];
      if (doff < voff + v.cols() && voff < doff + d.cols() &&
          reported.count({std::min(d.id, v.id), std::max(d.id, v.id)}) == 0) {
        finding(out, "tape-alias-clobber",
                "writing v" + std::to_string(d.id) + " clobbers v" +
                    std::to_string(u) + ", still read at instr #" +
                    std::to_string(true_end[static_cast<size_t>(u)]),
                tape, i);
        reported.emplace(std::min(d.id, v.id), std::max(d.id, v.id));
      }
    }
  }

  // ---- outputs must be materialized locals ----
  for (int o : tape.outputs) {
    if (!valid_value(o)) {
      finding(out, "tape-malformed", "output value id out of range", tape, -1);
      continue;
    }
    const TapeValue& v = tape.values[static_cast<size_t>(o)];
    if (v.kind == TapeValueKind::kLocal &&
        (v.fused_temp || (v.cols() > 0 &&
                          plan.offsets[static_cast<size_t>(o)] < 0))) {
      finding(out, "tape-malformed",
              "output v" + std::to_string(o) + " is not materialized", tape,
              v.def);
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
  const char* const kInputNames[] = {"cond", "noise", "state.h", "state.c",
                                     "state.mask"};
  for (size_t i = 0; i < inputs.size(); ++i) {
    lw.input(trace.node(inputs[i]), kInputNames[i]);
  }
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

  fuse_elementwise(rep.tape);
  compute_liveness(rep.tape);
  rep.plan = plan_arena(rep.tape);
  std::vector<Diagnostic> verdict = verify_tape(rep.tape, rep.plan);
  rep.verified = !has_errors(verdict);
  for (Diagnostic& diag : verdict) rep.diagnostics.push_back(std::move(diag));
  return rep;
}

TapeSummary summarize_tape(const TapeReport& report) {
  TapeSummary s;
  s.instructions = static_cast<int>(report.tape.instrs.size());
  s.fusion_groups = report.tape.fusion_groups;
  s.arena_peak_bytes = report.plan.peak_bytes_per_lane();
  s.verified = report.verified;
  return s;
}

bool seed_tape_defect(TapeReport& report, std::string_view defect_class) {
  Tape& t = report.tape;
  ArenaPlan& plan = report.plan;
  bool seeded = false;
  if (defect_class == "use-before-def") {
    // Point an early instruction's operand at the last instruction's result.
    if (t.instrs.size() >= 2 && !t.instrs.front().args.empty()) {
      t.instrs.front().args[0] = t.instrs.back().dst;
      seeded = true;
    }
  } else if (defect_class == "arena-overlap") {
    // Collapse two overlapping-lifetime slots onto the same offset.
    for (size_t x = 0; x < t.values.size() && !seeded; ++x) {
      for (size_t y = x + 1; y < t.values.size() && !seeded; ++y) {
        const TapeValue& a = t.values[x];
        const TapeValue& b = t.values[y];
        if (plan.offsets[x] < 0 || plan.offsets[y] < 0) continue;
        if (plan.offsets[x] == plan.offsets[y]) continue;
        if (live_interval(t, a.id).overlaps(live_interval(t, b.id))) {
          plan.offsets[y] = plan.offsets[x];
          seeded = true;
        }
      }
    }
  } else if (defect_class == "illegal-fusion") {
    // Claim a non-elementwise instruction for a fusion group.
    for (TapeInstr& ins : t.instrs) {
      if (!is_elementwise(ins.op) && ins.group < 0) {
        ins.group = 0;
        if (t.fusion_groups == 0) t.fusion_groups = 1;
        seeded = true;
        break;
      }
    }
  } else if (defect_class == "unknown-op") {
    // An op value past the table, as a hand-edited tape could hold.
    if (!t.instrs.empty()) {
      t.instrs.front().op = Op::kCount;
      seeded = true;
    }
  } else if (defect_class == "stale-shape") {
    // Widen one result value without touching its producer: the re-run
    // shape rule no longer reproduces the recorded shape.
    for (TapeValue& v : t.values) {
      if (v.kind == TapeValueKind::kLocal && v.def >= 0 && !v.fused_temp) {
        v.shape.cols = Dim::of(v.shape.cols.value + 1);
        seeded = true;
        break;
      }
    }
  }
  if (!seeded) return false;
  std::vector<Diagnostic> verdict = verify_tape(t, plan);
  report.verified = !has_errors(verdict);
  for (Diagnostic& diag : verdict) report.diagnostics.push_back(std::move(diag));
  return true;
}

}  // namespace dg::analysis
