#include "analysis/planner.h"

#include <algorithm>

namespace dg::analysis {

Liveness liveness(const Tape& tape) {
  const size_t n = tape.values.size();
  Liveness lv{std::vector<int>(n, 0), std::vector<LiveInterval>(n)};
  const auto valid = [&](int v) {
    return v >= 0 && static_cast<size_t>(v) < n;
  };
  const int end = static_cast<int>(tape.instrs.size());
  for (int i = 0; i < end; ++i) {
    const TapeInstr& ins = tape.instrs[static_cast<size_t>(i)];
    for (int a : ins.args) {
      if (valid(a)) lv.live[static_cast<size_t>(a)].end = i;
    }
    if (valid(ins.dst) && lv.writes[static_cast<size_t>(ins.dst)]++ == 0) {
      lv.live[static_cast<size_t>(ins.dst)].begin = i;
    }
  }
  for (int o : tape.outputs) {
    if (valid(o)) lv.live[static_cast<size_t>(o)].end = end;
  }
  for (LiveInterval& iv : lv.live) iv.end = std::max(iv.end, iv.begin);
  return lv;
}

ArenaPlan plan_arena(const Tape& tape) {
  ArenaPlan plan;
  plan.offsets.assign(tape.values.size(), -1);
  const Liveness lv = liveness(tape);
  const auto live = [&](int v) { return lv.live[static_cast<size_t>(v)]; };

  // Values are placed in lifetime-start order (left-edge interval coloring):
  // within each width class this reaches the clique number, i.e. the minimum
  // slot count that exact-width reuse permits.
  std::vector<int> order;
  for (size_t v = 0; v < tape.values.size(); ++v) {
    const TapeValue& val = tape.values[v];
    if (val.kind == TapeValueKind::kLocal && val.cols() > 0) {
      order.push_back(static_cast<int>(v));
    }
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (live(a).begin != live(b).begin) return live(a).begin < live(b).begin;
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
    const int cols = tape.values[static_cast<size_t>(id)].cols();
    Slot* home = nullptr;
    for (Slot& s : slots) {
      if (s.cols != cols) continue;
      if (std::none_of(s.occupants.begin(), s.occupants.end(),
                       [&](int u) { return live(u).overlaps(live(id)); })) {
        home = &s;
        break;
      }
    }
    if (home == nullptr) {
      slots.push_back({plan.peak_cols, cols, {}});
      home = &slots.back();
      plan.peak_cols += cols;
    }
    home->occupants.push_back(id);
    plan.offsets[static_cast<size_t>(id)] = home->off;
  }
  return plan;
}

}  // namespace dg::analysis
