#include "analysis/int_range.h"

#include "ir/ophelpers.h"

#include <algorithm>
#include <climits>
#include <unordered_map>

using namespace paralift::ir;

namespace paralift::analysis {

namespace {

constexpr IntRange kFull{INT64_MIN, INT64_MAX};
constexpr IntRange kI32{INT32_MIN, INT32_MAX};

/// Whether the VM and native code cut an i32 result of `k` to 32 bits.
bool cutsToI32(OpKind k) {
  switch (k) {
  case OpKind::AddI: case OpKind::SubI: case OpKind::MulI:
  case OpKind::DivSI: case OpKind::RemSI: case OpKind::ShLI:
  case OpKind::TruncI: case OpKind::Load:
    return true;
  default:
    return false;
  }
}

/// The range of `v`'s type, as far as its producer guarantees it.
IntRange typeRange(Value v) {
  Op *def = v.definingOp();
  return v.type().kind() == TypeKind::I32 && def && cutsToI32(def->kind())
             ? kI32
             : kFull;
}

IntRange join(IntRange a, IntRange b) {
  return {std::min(a.lo, b.lo), std::max(a.hi, b.hi)};
}

/// Memoizes the values of one query. A value whose analysis is under way
/// reads as its type's range, which cuts cycles through loads and stores
/// of an alloca soundly.
class RangeSolver {
public:
  IntRange of(Value v) {
    auto [it, fresh] = memo_.try_emplace(v.impl(), typeRange(v));
    if (!fresh)
      return it->second;
    IntRange r = compute(v);
    memo_[v.impl()] = r;
    return r;
  }

private:
  /// `exact` if it fits `v`'s type; otherwise what a wrapped result may be.
  IntRange fit(Value v, std::optional<IntRange> exact) {
    IntRange type = v.type().kind() == TypeKind::I32 ? kI32 : kFull;
    return exact && exact->within(type.lo, type.hi) ? *exact : type;
  }

  /// addi, subi or muli over the operands' ranges; nullopt on overflow.
  std::optional<IntRange> arith(OpKind k, IntRange a, IntRange b) {
    int64_t corners[4];
    const int64_t as[2] = {a.lo, a.hi}, bs[2] = {b.lo, b.hi};
    for (int i = 0; i < 4; ++i) {
      int64_t x = as[i / 2], y = bs[i % 2];
      bool overflow = k == OpKind::AddI   ? __builtin_add_overflow(x, y, &corners[i])
                      : k == OpKind::SubI ? __builtin_sub_overflow(x, y, &corners[i])
                                          : __builtin_mul_overflow(x, y, &corners[i]);
      if (overflow)
        return std::nullopt;
    }
    return IntRange{*std::min_element(corners, corners + 4),
                    *std::max_element(corners, corners + 4)};
  }

  /// The IV of a loop with a step of at least 1 lies in [lb, ub - 1].
  IntRange ivRange(Value v) {
    Op *loop = v.definingBlock()->parentOp();
    if (!loop)
      return kFull;
    unsigned dims, d = v.index();
    if (loop->kind() == OpKind::ScfFor && d == 0)
      dims = 1;
    else if (hasParallelLayout(loop->kind()) && d < ParallelOp(loop).numDims())
      dims = ParallelOp(loop).numDims();
    else
      return kFull;
    IntRange lb = of(loop->operand(d)), ub = of(loop->operand(dims + d)),
             step = of(loop->operand(2 * dims + d));
    int64_t next, last;
    // The IV steps with wrap-around: below ub + step it cannot wrap.
    if (step.lo < 1 || __builtin_add_overflow(ub.hi, step.hi, &next))
      return kFull;
    if (__builtin_sub_overflow(ub.hi, 1, &last) || last < lb.lo)
      return {lb.lo, lb.lo}; // the body never runs
    return {lb.lo, last};
  }

  /// A rank-0 alloca's loads see 0 or a value some store wrote.
  IntRange loadRange(Op *load) {
    Value mem = load->operand(0);
    Op *alloca = mem.definingOp();
    if (!alloca || alloca->kind() != OpKind::Alloca || mem.type().rank() != 0)
      return typeRange(load->result());
    IntRange r{0, 0};
    for (auto &[user, idx] : mem.uses()) {
      if (user->kind() == OpKind::Store && idx == 1)
        r = join(r, of(user->operand(0)));
      else if (user->kind() != OpKind::Load)
        return typeRange(load->result());
    }
    return fit(load->result(), r);
  }

  IntRange compute(Value v) {
    Op *def = v.definingOp();
    if (!def)
      return ivRange(v);
    switch (def->kind()) {
    case OpKind::ConstInt: {
      int64_t c = def->attrs().getInt("value");
      return {c, c};
    }
    case OpKind::IndexCast:
    case OpKind::ExtSI:
      return of(def->operand(0));
    case OpKind::AddI:
    case OpKind::SubI:
    case OpKind::MulI:
      return fit(v, arith(def->kind(), of(def->operand(0)),
                          of(def->operand(1))));
    case OpKind::DivSI: {
      std::optional<int64_t> c = getConstInt(def->operand(1));
      if (!c || *c <= 0)
        return typeRange(v);
      IntRange a = of(def->operand(0));
      return fit(v, IntRange{a.lo / *c, a.hi / *c});
    }
    case OpKind::MinSI:
    case OpKind::MaxSI: {
      IntRange a = of(def->operand(0)), b = of(def->operand(1));
      return def->kind() == OpKind::MinSI
                 ? IntRange{std::min(a.lo, b.lo), std::min(a.hi, b.hi)}
                 : IntRange{std::max(a.lo, b.lo), std::max(a.hi, b.hi)};
    }
    case OpKind::Load:
      return loadRange(def);
    default:
      return typeRange(v);
    }
  }

  std::unordered_map<ValueImpl *, IntRange> memo_;
};

} // namespace

IntRange intRange(Value v) { return RangeSolver().of(v); }

} // namespace paralift::analysis
