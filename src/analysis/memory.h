// Memory-effect modelling and base-object alias analysis.
//
// Effects follow the MLIR convention used by the paper (§III-A): each op
// contributes (kind, location) pairs where the location is an SSA memref
// base or "unknown". Kernel pointer arguments are treated as pairwise
// noalias (restrict semantics), matching how Polygeist compiles the
// Rodinia/PyTorch kernels; this assumption is documented in DESIGN.md.
#pragma once

#include "ir/op.h"

#include <vector>

namespace paralift::analysis {

using ir::Op;
using ir::Value;

enum class EffectKind : uint8_t { Read, Write, Alloc, Free };

struct MemoryEffect {
  EffectKind kind;
  /// The affected memref base; a null Value means "unknown location".
  Value base;
  /// The op performing the access (Load/Store/...); may be null for
  /// synthesized effects.
  Op *accessOp = nullptr;
};

/// Appends the direct effects of `op` (without recursing into regions).
/// Calls contribute unknown read+write (the inliner removes calls from
/// kernels before barrier reasoning runs).
void getOpEffects(Op *op, std::vector<MemoryEffect> &out);

/// Appends effects of `op` including everything nested in its regions.
void getEffectsRecursive(Op *op, std::vector<MemoryEffect> &out);

/// True if `op` (recursively) may write, allocate, free or have unknown
/// effects.
bool mayWrite(Op *op);
/// True if `op` (recursively) only reads or is pure.
bool isReadOnly(Op *op);
/// True for serial code that only reads memory: a load, or a read-only
/// region op (e.g. a reduction scf.for) with no parallel op, barrier or
/// call inside. LICM hoists such code out of loops, and omp-lower's
/// region fusion runs it on every thread of a fused region.
bool isReadOnlySerial(Op *op);
/// True if `op` (recursively) has no memory effects at all.
bool isEffectFree(Op *op);

/// Strips SubView chains to the underlying allocation/argument.
Value getBase(Value memref);

/// May the two memref values reference overlapping memory?
/// Distinct allocations never alias; distinct function arguments are
/// assumed noalias (restrict); everything else is conservative.
bool mayAlias(Value a, Value b);

/// True if the base is an allocation (alloca/alloc) whose uses are all
/// loads, stores, subviews, or deallocs — i.e. its address does not escape.
bool isNonEscapingAlloc(Value base);

} // namespace paralift::analysis
