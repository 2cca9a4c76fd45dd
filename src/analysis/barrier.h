// Barrier memory semantics (§III-A / §IV-A of the paper).
//
// A polygeist.barrier's effects are the union of the memory effects of
// the code before it (up to the previous barrier or the start of the
// thread-parallel region) and after it (up to the next barrier or the end
// of the region), EXCLUDING accesses that are provably thread-private —
// addresses injective in the thread IVs ("the hole"), and thread-local
// allocations. A barrier is redundant when the before/after effect sets
// have no conflict other than read-after-read.
#pragma once

#include "analysis/memory.h"

#include <vector>

namespace paralift::analysis {

/// A set of memory effects with an "unknown" escape hatch.
struct EffectSet {
  std::vector<MemoryEffect> reads;
  std::vector<MemoryEffect> writes; ///< includes alloc/free
  bool unknown = false;

  bool empty() const { return reads.empty() && writes.empty() && !unknown; }
};

/// Effects of everything that may execute between the previous barrier (or
/// region start) and `barrier`, excluding thread-private accesses.
/// `threadPar` is the enclosing gpu.block scf.parallel. If the barrier is
/// nested inside loops, entire loop bodies are included conservatively
/// (a prior iteration's tail executes before the barrier).
EffectSet effectsBefore(ir::Op *barrier, ir::Op *threadPar);

/// Symmetric: effects between `barrier` and the next barrier / region end.
EffectSet effectsAfter(ir::Op *barrier, ir::Op *threadPar);

/// True if the two effect sets contain a conflicting pair (same or
/// unknown location, at least one write/alloc/free).
bool conflicts(const EffectSet &a, const EffectSet &b);

/// True if `barrier` is redundant per the paper's criterion:
/// (M†_before ∩ M_after) \ RAR = ∅.
bool isBarrierRedundant(ir::Op *barrier, ir::Op *threadPar);

} // namespace paralift::analysis
