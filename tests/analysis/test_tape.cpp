// Tape IR tests: lowering, the static verifier, and the arena planner.
//
// The battery mirrors tests/analysis/test_differential.cpp's 12 randomized
// architecture variants — every dataset family, min/max generator on/off,
// aux critic on/off, attr-MLP depth 0..2, sample_len dividing and not
// dividing the horizon — so a tape that only lowers for the default layout
// fails here, not in serving. The mutation tests seed each documented
// defect class and require (a) static rejection and (b) a diagnostic that
// names the offending instruction: the executor's refusal contract
// (core/tape_exec.h) leans on exactly these verdicts.
#include "analysis/tape.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/planner.h"
#include "core/doppelganger.h"
#include "nn/autograd.h"
#include "synth/synth.h"

namespace dg::analysis {
namespace {

struct Variant {
  const char* dataset;
  core::DoppelGangerConfig cfg;
};

core::DoppelGangerConfig small_cfg(uint64_t seed) {
  core::DoppelGangerConfig cfg;
  cfg.attr_hidden = 8;
  cfg.attr_layers = 1;
  cfg.minmax_hidden = 8;
  cfg.minmax_layers = 1;
  cfg.lstm_units = 8;
  cfg.head_hidden = 8;
  cfg.sample_len = 5;
  cfg.disc_hidden = 16;
  cfg.disc_layers = 2;
  cfg.batch = 4;
  cfg.iterations = 1;
  cfg.seed = seed;
  return cfg;
}

std::vector<Variant> variants() {
  std::vector<Variant> out;
  const char* datasets[] = {"gcut", "wwt", "mba"};
  uint64_t seed = 11;
  for (const char* ds : datasets) {
    for (const bool minmax : {true, false}) {
      for (const bool aux : {true, false}) {
        core::DoppelGangerConfig cfg = small_cfg(seed++);
        cfg.use_minmax_generator = minmax;
        cfg.use_aux_discriminator = aux;
        cfg.attr_layers = static_cast<int>(seed % 3);
        cfg.sample_len = (seed % 2) ? 5 : 7;
        out.push_back({ds, cfg});
      }
    }
  }
  return out;
}

data::Schema schema_for(const std::string& dataset) {
  if (dataset == "gcut") {
    return synth::make_gcut({.n = 4, .t_max = 20, .seed = 5}).schema;
  }
  if (dataset == "wwt") {
    return synth::make_wwt({.n = 4, .t = 20, .seed = 5}).schema;
  }
  return synth::make_mba({.n = 4, .t = 20, .seed = 5}).schema;
}

std::string describe(const Variant& v) {
  std::ostringstream os;
  os << v.dataset << " minmax=" << v.cfg.use_minmax_generator
     << " aux=" << v.cfg.use_aux_discriminator
     << " attr_layers=" << v.cfg.attr_layers << " S=" << v.cfg.sample_len;
  return os.str();
}

bool any_code(const std::vector<Diagnostic>& diags, std::string_view code) {
  return std::any_of(diags.begin(), diags.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

std::string render(const std::vector<Diagnostic>& diags) {
  std::ostringstream os;
  print_human(os, diags);
  return os.str();
}

TEST(Tape, LowersAndVerifiesAcrossVariants) {
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const TapeReport r = build_generation_tape(schema_for(v.dataset), v.cfg);
    EXPECT_TRUE(r.ok());
    EXPECT_TRUE(r.verified);
    EXPECT_TRUE(r.diagnostics.empty());
    EXPECT_FALSE(r.tape.instrs.empty());
    // cond, noise, h, c, mask: the values lowered first.
    for (size_t id = 0; id < r.tape.values.size(); ++id) {
      EXPECT_EQ(r.tape.values[id].kind == TapeValueKind::kInput, id < 5) << id;
    }
    EXPECT_EQ(r.tape.outputs.size(), 4u);  // records, h', c', mask'
    EXPECT_GT(r.plan.peak_cols, 0);

    const TapeSummary s = summarize_tape(r);
    EXPECT_EQ(s.instructions, static_cast<int>(r.tape.instrs.size()));
    EXPECT_EQ(s.arena_peak_bytes, r.plan.peak_bytes_per_lane());
    EXPECT_TRUE(s.verified);
  }
}

// Re-running the verifier on a freshly planned tape must agree with the
// bundled verdict (build_generation_tape verifies what it returns).
TEST(Tape, VerifierAcceptsFreshPlan) {
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const TapeReport r = build_generation_tape(schema_for(v.dataset), v.cfg);
    ASSERT_TRUE(r.ok());
    const auto diags = verify_tape(r.tape, r.plan);
    EXPECT_FALSE(has_errors(diags)) << render(diags);
  }
}

// Planner soundness, checked directly against the lifetimes the
// instruction list implies: every local is written once, two values whose
// lifetimes overlap never share arena floats, every slot fits under the
// reported peak, and the peak is genuinely smaller than the sum of all
// value widths (i.e. slots ARE reused — the point of the planner).
TEST(Tape, ArenaPlanIsSoundAndReusesSlots) {
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const TapeReport r = build_generation_tape(schema_for(v.dataset), v.cfg);
    ASSERT_TRUE(r.ok());
    const Liveness lv = liveness(r.tape);

    long long total_cols = 0;
    std::vector<int> slotted;
    for (size_t id = 0; id < r.tape.values.size(); ++id) {
      const TapeValue& val = r.tape.values[id];
      if (val.kind == TapeValueKind::kLocal) {
        EXPECT_EQ(lv.writes[id], 1) << "value v" << id;
      }
      const long long off = r.plan.offsets[id];
      if (off < 0) continue;
      EXPECT_LE(off + val.cols(), r.plan.peak_cols) << "value v" << id;
      total_cols += val.cols();
      slotted.push_back(static_cast<int>(id));
    }
    EXPECT_LT(r.plan.peak_cols, total_cols)
        << "planner never reused a slot — first-fit is not firing";

    for (size_t i = 0; i < slotted.size(); ++i) {
      const int a = slotted[i];
      for (size_t j = i + 1; j < slotted.size(); ++j) {
        const int b = slotted[j];
        if (!lv.live[static_cast<size_t>(a)].overlaps(
                lv.live[static_cast<size_t>(b)])) {
          continue;
        }
        const long long ao = r.plan.offsets[static_cast<size_t>(a)];
        const long long bo = r.plan.offsets[static_cast<size_t>(b)];
        EXPECT_TRUE(ao + r.tape.values[static_cast<size_t>(a)].cols() <= bo ||
                    bo + r.tape.values[static_cast<size_t>(b)].cols() <= ao)
            << "v" << a << " and v" << b << " live at once but share floats";
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Mutation battery: every documented defect class must be rejected
// statically, with a diagnostic that names the offending instruction.
// ---------------------------------------------------------------------------

struct DefectCase {
  const char* defect;
  const char* code;  // the diagnostic code the class must surface
};

const DefectCase kDefects[] = {
    {"use-before-def", "tape-use-before-def"},
    {"arena-overlap", "tape-arena-overlap"},
    {"double-def", "tape-double-def"},
    {"unknown-op", "tape-unknown-op"},
    {"stale-shape", "tape-stale-shape"},
};

TEST(TapeMutation, EveryDefectClassIsRejected) {
  for (const Variant& v : variants()) {
    for (const DefectCase& dc : kDefects) {
      SCOPED_TRACE(describe(v) + " defect=" + dc.defect);
      TapeReport r = build_generation_tape(schema_for(v.dataset), v.cfg);
      ASSERT_TRUE(r.ok());
      ASSERT_TRUE(seed_tape_defect(r, dc.defect));
      EXPECT_FALSE(r.verified);
      EXPECT_FALSE(r.ok());
      EXPECT_TRUE(has_errors(r.diagnostics)) << "defect survived the verifier";
      EXPECT_TRUE(any_code(r.diagnostics, dc.code)) << render(r.diagnostics);
      // The diagnostic must point at a concrete instruction, not just say
      // "tape bad": the path carries the `instr #K: vN = op(...)` rendering.
      bool named = false;
      for (const Diagnostic& d : r.diagnostics) {
        if (d.path.find("instr #") != std::string::npos) named = true;
      }
      EXPECT_TRUE(named) << render(r.diagnostics);
    }
  }
}

// Verified means runnable: an instruction whose op's row has no kernel the
// executor can run draws exactly one finding, and it names the
// instruction. mul_scalar in place of relu has the same arity and shape
// rule, and its row kernel reads its scalar from the instruction's
// attributes, so the table's own rows verify the swap; a registry copy
// whose mul_scalar row has lost its kernel refuses it.
TEST(TapeMutation, OpWithoutAKernelIsRefused) {
  OpRegistry kernelless = OpRegistry::builtin();
  kernelless[Op::kMulScalar].rows = nullptr;
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    TapeReport r = build_generation_tape(schema_for(v.dataset), v.cfg);
    ASSERT_TRUE(r.ok());
    const auto relu =
        std::find_if(r.tape.instrs.begin(), r.tape.instrs.end(),
                     [](const TapeInstr& i) { return i.op == Op::kRelu; });
    ASSERT_NE(relu, r.tape.instrs.end());
    relu->op = Op::kMulScalar;
    EXPECT_TRUE(verify_tape(r.tape, r.plan).empty());
    const std::vector<Diagnostic> diags =
        verify_tape(r.tape, r.plan, kernelless);
    ASSERT_EQ(diags.size(), 1u) << render(diags);
    EXPECT_EQ(diags[0].code, "tape-no-kernel");
    EXPECT_EQ(diags[0].op, "mul_scalar");
    const auto at = relu - r.tape.instrs.begin();
    EXPECT_NE(diags[0].path.find("instr #" + std::to_string(at) + ":"),
              std::string::npos)
        << render(diags);
  }
}

TEST(TapeMutation, UnknownDefectClassRefused) {
  TapeReport r = build_generation_tape(schema_for("gcut"), small_cfg(11));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(seed_tape_defect(r, "hamming-weight"));
  EXPECT_TRUE(r.ok());  // refusal must not corrupt the report
}

// The softmax micro-ops the executor runs are engine ops: the tape is
// lowered from the engine's own softmax_rows, so every instruction carries
// an op of the table, and the softmax's three appear.
TEST(Tape, IntrinsicsAreEngineOps) {
  for (const Variant& v : variants()) {
    const TapeReport r = build_generation_tape(schema_for(v.dataset), v.cfg);
    std::set<Op> seen;
    for (const TapeInstr& ins : r.tape.instrs) {
      EXPECT_LT(static_cast<size_t>(ins.op), nn::kNumOps);
      seen.insert(ins.op);
    }
    for (const Op op : {Op::kNegRowMax, Op::kAddColvec, Op::kRecip}) {
      EXPECT_TRUE(seen.count(op)) << nn::op_def(op).name;
    }
  }
}

}  // namespace
}  // namespace dg::analysis
