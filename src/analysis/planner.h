// Liveness-based arena planner: packs every local of a tape into one flat
// buffer so steady-state tape execution performs zero heap allocations.
// Lifetimes are inclusive instruction intervals derived from the
// instruction list (liveness()), never stored in the tape; placement is
// exact-slot interval coloring — values in lifetime-start order each reuse
// the first slot of exactly their width whose occupants are all dead, or
// open a fresh slot at the arena end. Exact (offset, width) sharing is a
// hard rule, not a packing heuristic: it is what lets the executor replay
// the whole tape lane-partitioned across threads without cross-worker races
// (see plan_arena's definition). The verifier re-checks the resulting plan
// independently, against the same derived intervals (tape-arena-overlap),
// so a planner bug is a rejected tape, not a silent corruption.
#pragma once

#include <vector>

#include "analysis/tape.h"

namespace dg::analysis {

/// Lifetime of a value in instruction indices, both ends inclusive: from
/// the instruction that writes it to the last that reads it. Two values
/// whose intervals overlap never share arena floats, so an instruction's
/// destination never takes the slot of an operand it reads.
struct LiveInterval {
  int begin = -1;
  int end = -1;
  bool overlaps(const LiveInterval& o) const {
    return begin <= o.end && o.begin <= end;
  }
};

/// What the instruction list says about each value, indexed by value.
struct Liveness {
  /// How many instructions write the value (a sound tape: one per local).
  std::vector<int> writes;
  /// begin: the first instruction writing the value, -1 if none. end: the
  /// last instruction reading it; instrs.size() for the step's outputs,
  /// which live to the end; begin for a value nothing reads.
  std::vector<LiveInterval> live;
};

/// Derives every value's writers and lifetime from the instruction list.
/// The planner, the verifier and the mutation hook all call it, so they
/// cannot disagree about what "overlapping" means. Value ids out of range
/// are skipped (the verifier reports them).
Liveness liveness(const Tape& tape);

/// Exact-slot interval coloring over the derived lifetimes. Values that
/// need no slot (params, inputs, zero-width locals) get offset -1.
ArenaPlan plan_arena(const Tape& tape);

}  // namespace dg::analysis
