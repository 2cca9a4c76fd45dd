// Integer range analysis: bounds on every value an integer SSA value takes
// at run time, under the IR's integer semantics (ir/intmath.h) as the VM
// and native code compute them. Casts between integer types are value-
// preserving there, and i32 arithmetic keeps 64 bits and then cuts the
// result to 32, so an i32 value is not always within the i32 range (an
// index.cast of a large index is not), but the result of an op that cuts
// to 32 bits is.
//
// Facts, each checked for overflow in the analysis itself:
//  - a constant is its value;
//  - index.cast and extsi keep their operand's range;
//  - addi, subi and muli combine their operands' ranges; when the exact
//    result may leave the result type, an i32 result gets the i32 range
//    (it wraps) and a wider one the full range;
//  - divsi by a positive constant divides both ends;
//  - minsi and maxsi take the min/max of both ends;
//  - an i32 load lies in the i32 range; a load of a rank-0 alloca whose
//    only uses are loads and stores of it lies in the join of 0 (allocas
//    start zeroed) and every stored value's range;
//  - the IV of an scf.for, scf.parallel or omp.wsloop with a step of at
//    least 1 lies in [lb, ub - 1].
// Any other value gets the range of its type.
//
// canonicalize uses it to prove that a guard's i32 arithmetic cannot wrap
// before folding the guard into loop bounds, and omp-lower to prove that
// a grid x block product fits i32 before linearizing the nest.
#pragma once

#include "ir/op.h"

#include <cstdint>

namespace paralift::analysis {

/// The closed interval [lo, hi].
struct IntRange {
  int64_t lo, hi;
  bool within(int64_t min, int64_t max) const { return min <= lo && hi <= max; }
};

/// Bounds on every value `v` takes (see the file comment). Each call
/// analyzes from scratch, in time linear in the values `v` depends on.
IntRange intRange(ir::Value v);

} // namespace paralift::analysis
