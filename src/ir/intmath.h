// Integer semantics of the IR, defined once. The VM interpreter
// (vm::Interp::step), the C units of the native tier (native/emit.h),
// canonicalize's constant folder and loop-bound folds, the frontend's
// array-extent evaluator and unroll's trip-count evaluator all compute
// through these functions, so a value folded at compile time always
// equals the value the VM and native code compute at run time, and no
// operand makes the compiler, the VM or native code trap or hit
// undefined behaviour.
//
// Values are int64_t; narrower types are computed in 64 bits and then
// cut to their width with `truncate`. Every operation is total:
//  - add, sub and mul wrap around modulo 2^64;
//  - x / 0 == 0 and x % 0 == 0;
//  - INT64_MIN / -1 == INT64_MIN (the wrapped quotient) and
//    INT64_MIN % -1 == 0;
//  - a shift count is taken modulo 64: only its low six bits are used,
//    as x86-64 does for 64-bit shifts, so 1 << 64 == 1 and
//    1 << 70 == 64. >> is arithmetic;
//  - a float converts to int64_t truncating toward zero, and NaN or a
//    value outside [-2^63, 2^63) converts to INT64_MIN, as x86-64's
//    cvttsd2si does (a plain C++ cast is undefined for those).
#pragma once

#include "ir/op.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <optional>

namespace paralift::ir::intmath {

// The total primitives, between the two marker lines below, are written
// in the common subset of C11 and C++20. Configuring the build cuts them
// out of this file into the prelude of every C unit the native tier
// emits (native/emit.cpp), so native code computes integers with these
// very definitions.
// BEGIN C CORE
static inline int64_t add(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a + (uint64_t)b);
}

static inline int64_t sub(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a - (uint64_t)b);
}

static inline int64_t mul(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a * (uint64_t)b);
}

static inline int64_t div(int64_t a, int64_t b) {
  if (b == 0)
    return 0;
  if (b == -1)
    return sub(0, a);
  return a / b;
}

static inline int64_t rem(int64_t a, int64_t b) {
  return b == 0 || b == -1 ? 0 : a % b;
}

static inline int64_t shl(int64_t a, int64_t b) {
  return (int64_t)((uint64_t)a << (b & 63));
}

static inline int64_t shr(int64_t a, int64_t b) { return a >> (b & 63); }

/* FPToSI: `x` truncated toward zero; INT64_MIN for NaN and for values
   outside [-2^63, 2^63). */
static inline int64_t fpToSI(double x) {
  return x >= -0x1p63 && x < 0x1p63 ? (int64_t)x : INT64_MIN;
}

/* An i32 result: the low 32 bits, sign-extended. */
static inline int64_t truncI32(int64_t v) { return (int32_t)v; }
// END C CORE

/// Cuts a 64-bit result to the width of `t`: i32 wraps to 32 bits
/// (sign-extended), i1 keeps bit 0, i64 and index are unchanged.
inline int64_t truncate(TypeKind t, int64_t v) {
  return t == TypeKind::I32 ? truncI32(v)
         : t == TypeKind::I1 ? (v & 1)
                             : v;
}

/// Evaluates the integer binary op `k` (AddI .. MaxSI) in 64 bits.
inline int64_t binary(OpKind k, int64_t a, int64_t b) {
  switch (k) {
  case OpKind::AddI: return add(a, b);
  case OpKind::SubI: return sub(a, b);
  case OpKind::MulI: return mul(a, b);
  case OpKind::DivSI: return div(a, b);
  case OpKind::RemSI: return rem(a, b);
  case OpKind::AndI: return a & b;
  case OpKind::OrI: return a | b;
  case OpKind::XOrI: return a ^ b;
  case OpKind::ShLI: return shl(a, b);
  case OpKind::ShRSI: return shr(a, b);
  case OpKind::MinSI: return std::min(a, b);
  case OpKind::MaxSI: return std::max(a, b);
  default: assert(false && "not an integer binary op"); return 0;
  }
}

inline bool compare(CmpIPred p, int64_t a, int64_t b) {
  switch (p) {
  case CmpIPred::eq: return a == b;
  case CmpIPred::ne: return a != b;
  case CmpIPred::slt: return a < b;
  case CmpIPred::sle: return a <= b;
  case CmpIPred::sgt: return a > b;
  case CmpIPred::sge: return a >= b;
  }
  return false;
}

/// The number of trips of a loop from `lb` to `ub` (exclusive) by
/// `step`, as the VM runs it: the IV starts at lb, and the loop exits once
/// the IV, stepped with wrap-around, is >= ub. Nullopt ("unknown") when
/// the loop does not stop: step <= 0 with lb < ub, or an exact count
/// whose arithmetic overflows int64_t, including a last step past ub that
/// wraps the IV below ub again.
inline std::optional<int64_t> tripCount(int64_t lb, int64_t ub,
                                        int64_t step) {
  if (lb >= ub)
    return 0;
  int64_t span, end;
  if (step <= 0 || __builtin_sub_overflow(ub, lb, &span))
    return std::nullopt;
  int64_t trips = span / step + (span % step != 0);
  if (__builtin_mul_overflow(trips, step, &end) ||
      __builtin_add_overflow(lb, end, &end))
    return std::nullopt;
  return trips;
}

} // namespace paralift::ir::intmath
