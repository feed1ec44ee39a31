#include "analysis/planner.h"

#include <algorithm>
#include <utility>

namespace dg::analysis {

namespace {

/// Instruction span [lo, hi] of the fusion group containing `instr`
/// (the singleton span when the instruction is unfused).
std::pair<int, int> group_extent(const Tape& t, int instr) {
  const int gid = t.instrs[static_cast<size_t>(instr)].group;
  if (gid < 0) return {instr, instr};
  int lo = instr;
  int hi = instr;
  for (const TapeInstr& ins : t.instrs) {
    if (ins.group == gid) {
      lo = std::min(lo, ins.id);
      hi = std::max(hi, ins.id);
    }
  }
  return {lo, hi};
}

}  // namespace

void compute_liveness(Tape& tape) {
  for (TapeValue& v : tape.values) v.last_use = -1;
  for (const TapeInstr& ins : tape.instrs) {
    for (int a : ins.args) {
      TapeValue& v = tape.values[static_cast<size_t>(a)];
      v.last_use = std::max(v.last_use, ins.id);
    }
  }
  for (int o : tape.outputs) {
    tape.values[static_cast<size_t>(o)].last_use = kLiveToEnd;
  }
}

LiveInterval live_interval(const Tape& tape, int value_id) {
  const TapeValue& v = tape.values[static_cast<size_t>(value_id)];
  LiveInterval iv;
  // A fusion group executes per element, so every member's reads and writes
  // are treated as simultaneous: the whole group span is occupied.
  iv.begin = v.def >= 0 ? group_extent(tape, v.def).first : 0;
  if (v.last_use == kLiveToEnd) {
    iv.end = static_cast<int>(tape.instrs.size());
  } else if (v.last_use >= 0) {
    iv.end = group_extent(tape, v.last_use).second;
  } else {
    iv.end = v.def >= 0 ? group_extent(tape, v.def).second : iv.begin;
  }
  return iv;
}

ArenaPlan plan_arena(const Tape& tape) {
  ArenaPlan plan;
  plan.offsets.assign(tape.values.size(), -1);

  // Values are placed in lifetime-start order (left-edge interval coloring):
  // within each width class this reaches the clique number, i.e. the minimum
  // slot count that exact-width reuse permits.
  std::vector<int> order;
  for (const TapeValue& v : tape.values) {
    if (v.kind == TapeValueKind::kLocal && !v.fused_temp && v.cols() > 0) {
      order.push_back(v.id);
    }
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const int ba = live_interval(tape, a).begin;
    const int bb = live_interval(tape, b).begin;
    if (ba != bb) return ba < bb;
    return a < b;
  });

  // Exact-slot reuse: a value may only take over a slot of exactly its own
  // width, never a gap carved out of a wider one. Identical (offset, width)
  // for every pair of values that share floats is what makes the plan safe
  // under lane-partitioned replay (core/tape_exec.cpp): with slab-major
  // layout, two same-slot values put lane i at the same addresses, so a
  // worker that owns lanes [r0, r1) never touches bytes of another worker's
  // lanes no matter which instruction either is executing. A shifted or
  // nested overlap would interleave different lanes of the two values and
  // is rejected by the verifier (tape-arena-overlap).
  struct Slot {
    long long off;
    int cols;
    std::vector<int> occupants;
  };
  std::vector<Slot> slots;
  for (int id : order) {
    const TapeValue& v = tape.values[static_cast<size_t>(id)];
    const LiveInterval iv = live_interval(tape, id);
    Slot* home = nullptr;
    for (Slot& s : slots) {
      if (s.cols != v.cols()) continue;
      bool vacant = true;
      for (int u : s.occupants) {
        if (live_interval(tape, u).overlaps(iv)) {
          vacant = false;
          break;
        }
      }
      if (vacant) {
        home = &s;
        break;
      }
    }
    if (home == nullptr) {
      slots.push_back({plan.peak_cols, v.cols(), {}});
      home = &slots.back();
      plan.peak_cols += v.cols();
    }
    home->occupants.push_back(id);
    plan.offsets[static_cast<size_t>(id)] = home->off;
  }
  return plan;
}

}  // namespace dg::analysis
