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
    EXPECT_EQ(r.tape.inputs.size(), 5u);   // cond, noise, h, c, mask
    EXPECT_EQ(r.tape.outputs.size(), 4u);  // records, h', c', mask'
    EXPECT_GE(r.tape.fusion_groups, 1);    // the LSTM gate tail always fuses
    EXPECT_GT(r.plan.peak_cols, 0);

    const TapeSummary s = summarize_tape(r);
    EXPECT_EQ(s.instructions, static_cast<int>(r.tape.instrs.size()));
    EXPECT_EQ(s.fusion_groups, r.tape.fusion_groups);
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

// Planner soundness, checked directly against the liveness intervals: two
// values whose lifetimes overlap never share arena floats, every slot fits
// under the reported peak, and the peak is genuinely smaller than the sum
// of all value widths (i.e. slots ARE reused — the point of the planner).
TEST(Tape, ArenaPlanIsSoundAndReusesSlots) {
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    const TapeReport r = build_generation_tape(schema_for(v.dataset), v.cfg);
    ASSERT_TRUE(r.ok());

    long long total_cols = 0;
    std::vector<int> slotted;
    for (const TapeValue& val : r.tape.values) {
      const long long off = r.plan.offsets[static_cast<size_t>(val.id)];
      if (off < 0) continue;
      EXPECT_LE(off + val.cols(), r.plan.peak_cols) << "value v" << val.id;
      total_cols += val.cols();
      slotted.push_back(val.id);
    }
    EXPECT_LT(r.plan.peak_cols, total_cols)
        << "planner never reused a slot — first-fit is not firing";

    for (size_t i = 0; i < slotted.size(); ++i) {
      const LiveInterval li = live_interval(r.tape, slotted[i]);
      const TapeValue& a = r.tape.values[static_cast<size_t>(slotted[i])];
      for (size_t j = i + 1; j < slotted.size(); ++j) {
        const LiveInterval lj = live_interval(r.tape, slotted[j]);
        if (!li.overlaps(lj)) continue;
        const TapeValue& b = r.tape.values[static_cast<size_t>(slotted[j])];
        const long long ao = r.plan.offsets[static_cast<size_t>(a.id)];
        const long long bo = r.plan.offsets[static_cast<size_t>(b.id)];
        EXPECT_TRUE(ao + a.cols() <= bo || bo + b.cols() <= ao)
            << "v" << a.id << " and v" << b.id
            << " live at once but share floats";
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
    {"illegal-fusion", "tape-illegal-fusion"},
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

// Verified means runnable: an unfused instruction whose op's row has no
// kernel the executor can run draws exactly one finding, and it names the
// instruction. mul_scalar in place of relu has the same arity and shape
// rule, and its row kernel reads its scalar from the instruction's
// attributes, so the table's own rows verify the swap; a registry copy
// whose mul_scalar row has lost its kernel refuses it.
TEST(TapeMutation, UnfusedOpWithoutAKernelIsRefused) {
  OpRegistry kernelless = OpRegistry::builtin();
  kernelless[Op::kMulScalar].rows = nullptr;
  for (const Variant& v : variants()) {
    SCOPED_TRACE(describe(v));
    TapeReport r = build_generation_tape(schema_for(v.dataset), v.cfg);
    ASSERT_TRUE(r.ok());
    const auto relu =
        std::find_if(r.tape.instrs.begin(), r.tape.instrs.end(),
                     [](const TapeInstr& i) {
                       return i.group < 0 && i.op == Op::kRelu;
                     });
    ASSERT_NE(relu, r.tape.instrs.end());
    relu->op = Op::kMulScalar;
    EXPECT_TRUE(verify_tape(r.tape, r.plan).empty());
    const std::vector<Diagnostic> diags =
        verify_tape(r.tape, r.plan, kernelless);
    ASSERT_EQ(diags.size(), 1u) << render(diags);
    EXPECT_EQ(diags[0].code, "tape-no-kernel");
    EXPECT_EQ(diags[0].op, "mul_scalar");
    EXPECT_NE(diags[0].path.find("instr #" + std::to_string(relu->id) + ":"),
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
      EXPECT_LT(static_cast<size_t>(ins.op), nn::kNumOps) << ins.id;
      seen.insert(ins.op);
    }
    for (const Op op : {Op::kNegRowMax, Op::kAddColvec, Op::kRecip}) {
      EXPECT_TRUE(seen.count(op)) << nn::op_def(op).name;
    }
  }
}

}  // namespace
}  // namespace dg::analysis
