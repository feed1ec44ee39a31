#include "analysis/adjoint.h"

#include <utility>

namespace dg::analysis {

// ---- determinism-class audit --------------------------------------------

namespace {

/// One shape probe: symbolic inputs with uniquely-named extents, plus the
/// attrs some ops need.
struct Probe {
  std::vector<Shape> in;
  OpAttrs attrs;
};

std::vector<Probe> make_probes(const OpInfo& info) {
  const Dim P = Dim::sym("P"), Q = Dim::sym("Q"), R = Dim::sym("R");
  const Dim H = Dim::sym("H"), G = Dim::sym("G");
  const Dim one = Dim::of(1);
  std::vector<Probe> probes;
  OpAttrs target;  // for attrs-shaped ops (leaf/constant/broadcast_scalar)
  target.rows = P;
  target.cols = Q;
  switch (info.min_arity) {
    case 0:
      probes.push_back({{}, target});
      break;
    case 1: {
      // Plain [P,Q]; a variant with a slice/pad range for the
      // attrs-consuming layout ops; and a 1x1 broadcast to [P,Q] for the
      // scalar broadcast, which rejects both [P,Q] probes.
      probes.push_back({{{P, Q}}, {}});
      OpAttrs range;
      range.i0 = 0;
      range.i1 = 1;
      probes.push_back({{{P, Q}}, range});
      probes.push_back({{{one, one}}, target});
      break;
    }
    case 2:
      probes.push_back({{{P, Q}, {P, Q}}, {}});    // elementwise
      probes.push_back({{{P, Q}, {Q, R}}, {}});    // matmul-like
      probes.push_back({{{P, Q}, {one, Q}}, {}});  // rowvec broadcast
      probes.push_back({{{P, Q}, {P, one}}, {}});  // colvec broadcast
      probes.push_back({{{P, Q}, {P, R}}, {}});    // concat_cols
      probes.push_back({{{P, Q}, {R, Q}}, {}});    // concat_rows
      break;
    case 3:
      probes.push_back({{{P, Q}, {Q, R}, {one, R}}, {}});  // affine
      break;
    case 5:
      probes.push_back(
          {{{P, Q}, {Q, G}, {P, H}, {H, G}, {one, G}}, {}});  // lstm_gates
      break;
    default:
      break;
  }
  return probes;
}

/// True if `name` appears as a '+'-separated component of `dim`'s symbolic
/// expression (add_dims composes names like "0+Q+R", so surviving extents
/// stay findable after concatenation).
bool dim_mentions(const Dim& dim, const std::string& name) {
  if (dim.concrete()) return false;
  const std::string& s = dim.name;
  size_t pos = 0;
  while (pos <= s.size()) {
    size_t next = s.find('+', pos);
    if (next == std::string::npos) next = s.size();
    if (s.compare(pos, next - pos, name) == 0) return true;
    pos = next + 1;
  }
  return false;
}

}  // namespace

std::vector<Diagnostic> audit_registry(const OpRegistry& r,
                                       std::span<const std::string> where) {
  std::vector<Diagnostic> out;
  for (const nn::OpDef& row : nn::op_table()) {
    const Op op = row.op;
    const OpInfo& info = r[op];
    const auto finding = [&](Severity sev, const char* code, std::string msg) {
      out.push_back({sev, code, std::move(msg), row.name,
                     where.empty() ? std::string()
                                   : where[static_cast<size_t>(op)]});
    };
    if (op == Op::kGrad) {
      // The slot itself is the read-modify-write accumulation target; the
      // vanishing-extent law does not apply to a leaf.
      if (info.det != DetClass::kAccumulating) {
        finding(Severity::kError, "determinism-class",
                "the gradient slot accumulates contributions in traversal "
                "order and must be kAccumulating");
      }
      continue;
    }
    if (op == Op::kSliceCols || op == Op::kSliceRows ||
        op == Op::kNegRowMax) {
      // Exempt from the vanishing-extent law: the input extent leaves the
      // output without a floating-point fold — slicing copies an
      // attrs-defined sub-range, and a row max compares without adding.
      // Pinned kOrderFree.
      if (info.det != DetClass::kOrderFree) {
        finding(Severity::kError, "determinism-class",
                "op drops an extent without accumulating over it; it must "
                "be kOrderFree");
      }
      continue;
    }

    bool verified = false;
    for (const Probe& probe : make_probes(info)) {
      const ShapeResult sr = info.shape(probe.in, probe.attrs);
      if (!sr.shape) continue;
      verified = true;
      // The law: an op folds (reduces) iff some non-unit input extent
      // vanishes from the output shape.
      bool vanished = false;
      std::string gone;
      for (const Shape& s : probe.in) {
        for (const Dim* d : {&s.rows, &s.cols}) {
          if (d->concrete()) continue;  // probes only use units concretely
          if (!dim_mentions(sr.shape->rows, d->name) &&
              !dim_mentions(sr.shape->cols, d->name)) {
            vanished = true;
            gone = d->name;
          }
        }
      }
      const DetClass proved =
          vanished ? DetClass::kOrderedReduction : DetClass::kOrderFree;
      if (info.det != proved) {
        finding(Severity::kError, "determinism-class",
                std::string("declared ") + to_string(info.det) +
                    " but the shape probe proves " + to_string(proved) +
                    (vanished ? " (extent " + gone + " is folded away: " +
                                    probe.in[0].str() + " -> " +
                                    sr.shape->str() + ")"
                              : " (every non-unit input extent survives to "
                                "the output)"));
      }
      break;
    }
    if (!verified) {
      finding(Severity::kWarning, "determinism-unverified",
              "no generic shape probe satisfies this op's shape rule; its "
              "determinism class is declared but unproven");
    }
  }
  return out;
}

// ---- mutation seeding ----------------------------------------------------

std::vector<std::string> adjoint_defect_classes() {
  return {"wrong-adjoint-shape", "dropped-accum-edge", "mislabel-det-class"};
}

bool seed_adjoint_defect(OpRegistry& r, std::string_view defect) {
  if (defect == "wrong-adjoint-shape") {
    // row_sum's gradient must expand [n,1] back to [n,d]; returning the
    // output gradient unexpanded is the classic transposed-convention bug.
    r[Op::kRowSum].fault = [](std::vector<nn::Var>& grads,
                              const nn::Var& gout) { grads[0] = gout; };
    return true;
  }
  if (defect == "dropped-accum-edge") {
    // affine silently loses its bias gradient: nothing crashes, the slot
    // just never receives a contribution and Adam never updates the bias.
    r[Op::kAffine].fault = [](std::vector<nn::Var>& grads, const nn::Var&) {
      grads[2] = nn::Var();
    };
    return true;
  }
  if (defect == "mislabel-det-class") {
    // matmul_tn declared order-free would hide every weight-gradient
    // reduction (aᵀ·g) from the census.
    r[Op::kMatmulTN].det = DetClass::kOrderFree;
    return true;
  }
  return false;
}

}  // namespace dg::analysis
