// Canonicalization: constant folding (integer, float, and math ops),
// algebraic identities, folding of structured control flow with constant
// conditions/trip counts, guarded-loop index-set restriction, and dead
// code elimination. Runs to fixpoint.
//
// Guarded-loop index-set restriction shrinks a loop to the iterations in
// which its body does anything. It applies alike to each dimension of an
// scf.parallel or omp.wsloop and to an scf.for without iter-args, when:
//  - the body holds only pure region-free ops plus exactly one
//    result-less scf.if with an empty else and no polygeist.barrier or
//    omp.barrier inside (so the iterations the guard rejects have no
//    effect);
//  - the dimension steps by 1, and the range analysis (analysis/
//    int_range.h) puts its lb at 0 or above and its ub at INT32_MAX or
//    below, so every cast of the IV is exact;
//  - the guard is a cmpi (eq, slt, sle, sgt, sge, in either operand
//    order) of a comparand n with `iv` or with `base + iv`, the IV used
//    directly or through index.cast/extsi, or `remsi(iv, P) == 0` with a
//    constant P > 0 (constant bounds only).
// With constant bounds and a constant n (and no base), the dimension's
// [lb, ub) is intersected with the guard's range as constants (`% P`
// instead raises lb to a multiple of P and sets step P). Otherwise n and
// base must be constants or defined outside the loop (outside every
// enclosing scf.parallel for an scf.parallel, so omp-lower can still
// collapse the nest), and the range analysis must prove that the add of
// `base + iv` cannot wrap over the loop's range; the new bounds clamp
// n - base to [lb, ub], e.g. [lb, max(lb, min(ub, n - base))) for `<`,
// computed in index before the loop, as early as their operands allow.
// The facts the proof uses are constants, value-preserving casts, addi,
// subi and muli with overflow checks, divsi by a positive constant (the
// grid (n + 63) / 64 lies in [-2^25, 2^25)), minsi/maxsi, i32 loads, and
// an IV bounded by its loop; a grid taken straight from an int argument
// proves nothing about bx * 64, and its guard stays. Either way the
// guard's body is inlined into the loop, and the trip folds below remove
// a loop left with zero or one trip.
//
// Two rewrites give more loops a sole guard:
//  - `&&` chains: `%c = scf.if(%a) -> i1 { ops; yield %b } else { yield
//    false }; scf.if(%c) { B }` becomes `scf.if(%a) { ops; scf.if(%b)
//    { B } }` when %c has no other use and ops are pure or loads;
//  - a sole guard of an scf.for that does not depend on its IV moves out
//    of the loop, so the conjunct of hotspot's `row < rows && col < cols`
//    that the inner (row) thread loop leaves invariant reaches the outer
//    (col) loop it restricts.
// Left alone: `ne`, `||` chains, and a guard that shares its loop with an
// unguarded effect (backprop layerforward's `ty % 16 == 0`, which would
// need index-set splitting).
#include "analysis/int_range.h"
#include "analysis/memory.h"
#include "ir/builder.h"
#include "ir/intmath.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

#include <algorithm>
#include <climits>
#include <cmath>
#include <unordered_set>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

double foldFloatBinary(OpKind k, double a, double b) {
  switch (k) {
  case OpKind::AddF: return a + b;
  case OpKind::SubF: return a - b;
  case OpKind::MulF: return a * b;
  case OpKind::DivF: return a / b;
  case OpKind::RemF: return std::fmod(a, b);
  case OpKind::MinF: return std::fmin(a, b);
  case OpKind::MaxF: return std::fmax(a, b);
  case OpKind::Pow: return std::pow(a, b);
  default: assert(false); return 0;
  }
}

double foldFloatUnary(OpKind k, double a) {
  switch (k) {
  case OpKind::NegF: return -a;
  case OpKind::Sqrt: return std::sqrt(a);
  case OpKind::Exp: return std::exp(a);
  case OpKind::Log: return std::log(a);
  case OpKind::Abs: return std::fabs(a);
  case OpKind::Sin: return std::sin(a);
  case OpKind::Cos: return std::cos(a);
  case OpKind::Tanh: return std::tanh(a);
  case OpKind::Floor: return std::floor(a);
  case OpKind::Ceil: return std::ceil(a);
  default: assert(false); return 0;
  }
}

bool foldCmpF(CmpFPred p, double a, double b) {
  switch (p) {
  case CmpFPred::oeq: return a == b;
  case CmpFPred::one: return a != b;
  case CmpFPred::olt: return a < b;
  case CmpFPred::ole: return a <= b;
  case CmpFPred::ogt: return a > b;
  case CmpFPred::oge: return a >= b;
  }
  return false;
}

/// Replaces `op`'s single result with a fresh constant and erases it.
void replaceWithConstInt(Op *op, int64_t v) {
  Builder b;
  b.setInsertionPoint(op);
  Type t = op->result().type();
  Value c = b.constInt(intmath::truncate(t.kind(), v), t);
  op->result().replaceAllUsesWith(c);
  op->erase();
}

/// Whether the VM rounds an f32 result of `k` to float (normFloat in
/// vm/interp.cpp). Negation, abs, floor, ceil, min, max and the float
/// casts pass their operand's double through, as they are exact on
/// floats; but an f32 constant keeps its literal's decimal value (the
/// frontend does not round it), so their folds must not round either, or
/// `-0.3f` would fold to a value the unfolded program never sees.
bool vmRoundsF32Result(OpKind k) {
  switch (k) {
  case OpKind::NegF: case OpKind::Abs: case OpKind::Floor:
  case OpKind::Ceil: case OpKind::MinF: case OpKind::MaxF:
  case OpKind::FPExt: case OpKind::FPTrunc:
    return false;
  default:
    return true;
  }
}

void replaceWithConstFloat(Op *op, double v) {
  Builder b;
  b.setInsertionPoint(op);
  if (op->result().type() == Type::f32() && vmRoundsF32Result(op->kind()))
    v = static_cast<float>(v);
  Value c = b.constFloat(v, op->result().type());
  op->result().replaceAllUsesWith(c);
  op->erase();
}

/// Inlines the single block of `region` before `op`, replacing the ops'
/// results with the yield's operands. Region block must have no args.
void inlineRegionBefore(Op *op, Region &region) {
  Block &block = region.front();
  assert(block.numArgs() == 0);
  Op *term = block.terminator();
  std::vector<Value> yielded;
  if (term) {
    for (unsigned i = 0; i < term->numOperands(); ++i)
      yielded.push_back(term->operand(i));
    term->dropAllOperands();
  }
  // Move all ops except the terminator before `op`.
  for (Op *inner = block.front(), *next = nullptr; inner; inner = next) {
    next = inner->next();
    if (inner == term) {
      inner->removeFromParent();
      Op::destroy(inner);
      continue;
    }
    inner->removeFromParent();
    op->parent()->insertBefore(op, inner);
  }
  for (unsigned i = 0; i < op->numResults(); ++i)
    op->result(i).replaceAllUsesWith(yielded[i]);
  op->erase();
}

bool containsAnyBarrier(Op *op) {
  bool found = false;
  op->walk([&](Op *inner) {
    found |= inner->kind() == OpKind::Barrier ||
             inner->kind() == OpKind::OmpBarrier;
  });
  return found;
}

/// The one guard of a loop body that otherwise holds only pure
/// region-free ops: a result-less, barrier-free scf.if with an empty
/// else. Null if the body has any other shape.
Op *soleGuard(Block &body) {
  Op *guard = nullptr;
  for (Op *op : body) {
    if (op == body.terminator() ||
        (isPure(op->kind()) && op->numRegions() == 0))
      continue;
    if (op->kind() != OpKind::ScfIf || guard)
      return nullptr;
    guard = op;
  }
  if (!guard || guard->numResults() != 0 || containsAnyBarrier(guard))
    return nullptr;
  IfOp ifOp(guard);
  if (ifOp.hasElse() &&
      ifOp.elseBlock().front() != ifOp.elseBlock().terminator())
    return nullptr;
  return guard;
}

/// `v` seen through the exact integer casts (index.cast, extsi) that
/// carry an IV to a guard.
Value stripIntCasts(Value v) {
  while (Op *def = v.definingOp()) {
    if ((def->kind() != OpKind::IndexCast && def->kind() != OpKind::ExtSI) ||
        def->result().type() == Type::i1())
      break;
    v = def->operand(0);
  }
  return v;
}

/// `x pred y` as `y pred' x`.
CmpIPred mirror(CmpIPred pred) {
  return pred == CmpIPred::slt   ? CmpIPred::sgt
         : pred == CmpIPred::sle ? CmpIPred::sge
         : pred == CmpIPred::sgt ? CmpIPred::slt
         : pred == CmpIPred::sge ? CmpIPred::sle
                                 : pred;
}

/// The iterations `lb, lb + step, ... < ub` of a loop dimension.
struct IndexSet {
  int64_t lb, ub, step;
};

/// If `cond` is a guard on `iv` against a constant (see the file
/// comment), the iterations of the constant `[lb, ub)` with step 1 in
/// which it holds. Requires 0 <= lb and ub <= INT32_MAX.
std::optional<IndexSet> guardedIndexSet(Value cond, Value iv, int64_t lb,
                                        int64_t ub) {
  Op *cmp = cond.definingOp();
  if (!cmp || cmp->kind() != OpKind::CmpI)
    return std::nullopt;
  auto pred = static_cast<CmpIPred>(cmp->attrs().getInt("pred"));
  Value x = cmp->operand(0);
  std::optional<int64_t> c = getConstInt(cmp->operand(1));
  if (!c) {
    x = cmp->operand(1);
    c = getConstInt(cmp->operand(0));
    pred = mirror(pred);
  }
  if (!c)
    return std::nullopt;

  // `iv % P == 0`: the multiples of P from the first one >= lb.
  if (Op *rem = x.definingOp(); rem && rem->kind() == OpKind::RemSI) {
    std::optional<int64_t> p = getConstInt(rem->operand(1));
    if (pred != CmpIPred::eq || *c != 0 || !p || *p <= 0 ||
        stripIntCasts(rem->operand(0)) != iv)
      return std::nullopt;
    // ceil(lb / P) * P, or unknown if it overflows.
    std::optional<int64_t> k = intmath::tripCount(0, lb, *p);
    if (!k)
      return std::nullopt;
    int64_t first = *k * *p;
    return IndexSet{first, std::max(first, ub), *p};
  }

  if (stripIntCasts(x) != iv)
    return std::nullopt;
  // Clamping c to [lb - 1, ub] keeps the guard's value on every
  // iteration and keeps c + 1 from overflowing.
  int64_t k = std::clamp(*c, lb - 1, ub);
  int64_t lo = lb, hi = ub;
  switch (pred) {
  case CmpIPred::eq: lo = k, hi = k + 1; break;
  case CmpIPred::slt: hi = k; break;
  case CmpIPred::sle: hi = k + 1; break;
  case CmpIPred::sgt: lo = k + 1; break;
  case CmpIPred::sge: lo = k; break;
  case CmpIPred::ne: return std::nullopt;
  }
  lo = std::max(lo, lb);
  return IndexSet{lo, std::max(lo, std::min(hi, ub)), 1};
}

/// A constant, or a value defined outside `scope`.
bool invariantIn(Value v, Op *scope) {
  return getConstInt(v) || isDefinedOutside(v, scope);
}

/// `v` as an index value before the builder's insertion point.
Value indexBefore(Builder &b, Value v) {
  if (std::optional<int64_t> c = getConstInt(v))
    return b.constIndex(*c);
  return b.toIndex(v);
}

/// Restricts dimension `d` of `loop` to the iterations in which the
/// guard `cmp` holds, when it compares `iv` or `base + iv` (in either
/// operand order, through index.cast and extsi) with a comparand `n`, and
/// `n` and `base` are invariant in `scope`. The range analysis must put
/// the loop within [0, INT32_MAX] and prove that `base + iv` does not
/// wrap over it.
bool restrictToGuard(Op *loop, unsigned dims, unsigned d, Op *cmp, Value iv,
                     Op *scope) {
  auto pred = static_cast<CmpIPred>(cmp->attrs().getInt("pred"));
  // The side holding the IV, as `iv + base` (a null base for `iv`).
  Value base, n;
  Op *add = nullptr;
  auto ivSide = [&](Value x) {
    add = nullptr;
    if (stripIntCasts(x) == iv)
      return true;
    add = x.definingOp();
    if (!add || add->kind() != OpKind::AddI)
      return false;
    for (unsigned i = 0; i < 2; ++i)
      if (stripIntCasts(add->operand(i)) == iv &&
          invariantIn(add->operand(1 - i), scope)) {
        base = add->operand(1 - i);
        return true;
      }
    return false;
  };
  if (ivSide(cmp->operand(0))) {
    n = cmp->operand(1);
  } else if (ivSide(cmp->operand(1))) {
    n = cmp->operand(0);
    pred = mirror(pred);
  } else {
    return false;
  }
  if (pred == CmpIPred::ne || !invariantIn(n, scope))
    return false;
  Value lb = loop->operand(d), ub = loop->operand(dims + d);
  analysis::IntRange lbR = analysis::intRange(lb);
  analysis::IntRange ubR = analysis::intRange(ub);
  if (lbR.lo < 0 || ubR.hi > INT32_MAX)
    return false;
  if (base) {
    // `base + iv` must not wrap in the add's type, and |base| <= 2^62
    // keeps the bound arithmetic below from overflowing.
    analysis::IntRange b = analysis::intRange(base);
    bool i32 = add->result().type().kind() == TypeKind::I32;
    int64_t lo, hi, min = i32 ? INT32_MIN : INT64_MIN,
                    max = i32 ? INT32_MAX : INT64_MAX;
    if (!b.within(-(int64_t(1) << 62), int64_t(1) << 62) ||
        __builtin_add_overflow(b.lo, lbR.lo, &lo) ||
        __builtin_add_overflow(b.hi, ubR.hi - 1, &hi) || lo < min || hi > max)
      return false;
  }

  // `iv + base pred n` is `iv pred n - base`. clamp(n - s, lb, ub), with
  // s = base - delta, is min(max(n, lb + s), ub + s) - s: it clamps n
  // before subtracting, so no step overflows, whatever n is. The bounds
  // are computed as early as their operands allow.
  std::vector<Value> operands{lb, ub};
  for (Value v : {n, base})
    if (v && !getConstInt(v))
      operands.push_back(v);
  Builder b;
  b.setInsertionPoint(outermostScopeOutside(loop, operands));
  Value nIndex = indexBefore(b, n);
  // Only ops that do not fold away are built: each folded one would cost
  // the fixpoint another walk of the function.
  auto clampShifted = [&](int64_t delta) {
    Value s = base ? indexBefore(b, base) : Value();
    if (delta)
      s = s ? b.subi(s, b.constIndex(delta)) : b.constIndex(-delta);
    auto shift = [&](Value v) {
      return !s ? v : getConstInt(v) == 0 ? s : b.addi(v, s);
    };
    Value c = b.binary(OpKind::MaxSI, nIndex, shift(lb));
    c = b.binary(OpKind::MinSI, c, shift(ub));
    return s ? b.subi(c, s) : c;
  };
  switch (pred) {
  case CmpIPred::eq:
    loop->setOperand(d, clampShifted(0));
    loop->setOperand(dims + d, clampShifted(1));
    break;
  case CmpIPred::slt: loop->setOperand(dims + d, clampShifted(0)); break;
  case CmpIPred::sle: loop->setOperand(dims + d, clampShifted(1)); break;
  case CmpIPred::sgt: loop->setOperand(d, clampShifted(1)); break;
  case CmpIPred::sge: loop->setOperand(d, clampShifted(0)); break;
  case CmpIPred::ne: break;
  }
  return true;
}

/// An scf.for whose sole guard's condition does not depend on its IV:
/// `for { if (c) { B } }` becomes `if (c) { for { B } }`, the pure ops
/// computing c moving before the loop. The conjunct of a nested `&&`
/// that an inner thread loop leaves invariant thus moves out to the loop
/// it restricts.
bool hoistInvariantGuard(Op *loop, Op *guard) {
  Block &body = loop->region(0).front();
  Value cond = IfOp(guard).cond();
  // The body's (pure, region-free) ops that cond depends on.
  std::unordered_set<Op *> deps;
  std::vector<Value> work{cond};
  while (!work.empty()) {
    Value v = work.back();
    work.pop_back();
    if (isDefinedOutside(v, loop))
      continue;
    Op *def = v.definingOp();
    if (!def)
      return false; // the IV
    if (deps.insert(def).second)
      for (unsigned i = 0; i < def->numOperands(); ++i)
        work.push_back(def->operand(i));
  }
  for (Op *op = body.front(), *next = nullptr; op; op = next) {
    next = op->next();
    if (deps.count(op))
      op->moveBefore(loop);
  }
  Builder b;
  b.setInsertionPoint(loop);
  IfOp outer = IfOp::create(b, cond);
  Builder(&outer.thenBlock()).yield();
  loop->moveBefore(outer.thenBlock().terminator());
  inlineRegionBefore(guard, guard->region(0));
  return true;
}

/// Guarded-loop index-set restriction (see the file comment) on an
/// scf.for, scf.parallel or omp.wsloop, or for an scf.for whose guard is
/// invariant in it, hoistInvariantGuard. Returns true if the IR changed.
bool restrictGuardedLoop(Op *loop) {
  Block &body = loop->region(0).front();
  Op *guard = soleGuard(body);
  if (!guard)
    return false;
  Op *cmp = IfOp(guard).cond().definingOp();
  if (!cmp || cmp->kind() != OpKind::CmpI)
    return loop->kind() == OpKind::ScfFor && hoistInvariantGuard(loop, guard);
  // An scf.parallel's new bounds stay invariant in the scf.parallel loops
  // around it, so omp-lower can still collapse the nest.
  Op *scope = loop;
  if (loop->kind() == OpKind::ScfParallel)
    while (Op *outer = getEnclosing(scope, OpKind::ScfParallel))
      scope = outer;
  // scf.for's (lb, ub, step) operands have the parallel layout with one
  // dimension.
  unsigned dims = loop->kind() == OpKind::ScfFor
                      ? 1
                      : ParallelOp(loop).numDims();
  for (unsigned d = 0; d < dims; ++d) {
    if (getConstInt(loop->operand(2 * dims + d)) != 1)
      continue;
    auto lb = getConstInt(loop->operand(d));
    auto ub = getConstInt(loop->operand(dims + d));
    bool constant = lb && ub && *lb >= 0 && *ub <= INT32_MAX;
    Builder b;
    b.setInsertionPoint(loop);
    if (auto set = constant ? guardedIndexSet(IfOp(guard).cond(),
                                              body.arg(d), *lb, *ub)
                            : std::nullopt) {
      loop->setOperand(d, b.constIndex(set->lb));
      loop->setOperand(dims + d, b.constIndex(set->ub));
      loop->setOperand(2 * dims + d, b.constIndex(set->step));
    } else if (!restrictToGuard(loop, dims, d, cmp, body.arg(d), scope)) {
      continue;
    }
    inlineRegionBefore(guard, guard->region(0));
    return true;
  }
  return loop->kind() == OpKind::ScfFor && hoistInvariantGuard(loop, guard);
}

/// `%c = scf.if(%a) -> i1 { ops; yield(%b) } else { yield(false) }`
/// followed by `scf.if(%c) { B }`, the frontend's `if (a && b)`, becomes
/// `scf.if(%a) { ops; scf.if(%b) { B } }`, so each conjunct is a guard of
/// its own. Applies when %c has no other use, ops are pure or loads, and
/// B holds no barrier and no else.
bool nestConjunction(Op *first) {
  Op *second = first->next();
  if (first->numResults() != 1 || !second ||
      second->kind() != OpKind::ScfIf ||
      second->operand(0) != first->result() ||
      first->result().numUses() != 1 || second->numResults() != 0 ||
      containsAnyBarrier(second))
    return false;
  IfOp f(first), s(second);
  if (!f.hasElse() || getConstInt(f.elseBlock().terminator()->operand(0)) !=
                          std::optional<int64_t>(0))
    return false;
  if (s.hasElse() && s.elseBlock().front() != s.elseBlock().terminator())
    return false;
  Op *thenYield = f.thenBlock().terminator();
  for (Op *op : f.thenBlock())
    if (op != thenYield && op->kind() != OpKind::Load &&
        !(isPure(op->kind()) && op->numRegions() == 0))
      return false;
  Builder b;
  b.setInsertionPoint(first);
  IfOp nested = IfOp::create(b, f.cond());
  Block &inner = nested.thenBlock();
  for (Op *op = f.thenBlock().front(), *next = nullptr; op != thenYield;
       op = next) {
    next = op->next();
    op->removeFromParent();
    inner.push_back(op);
  }
  second->setOperand(0, thenYield->operand(0));
  second->removeFromParent();
  inner.push_back(second);
  Builder(&inner).yield();
  first->erase();
  return true;
}

/// One canonicalization attempt on `op`. Returns true if IR changed
/// (including erasure of `op`).
bool canonicalizeOp(Op *op) {
  OpKind k = op->kind();

  // DCE: pure op with no uses.
  if (isPure(k) && !op->hasAnyUse()) {
    op->erase();
    return true;
  }
  // Allocation with no uses.
  if ((k == OpKind::Alloca || k == OpKind::Alloc) && !op->hasAnyUse()) {
    op->erase();
    return true;
  }

  // Integer binary folds.
  switch (k) {
  case OpKind::AddI:
  case OpKind::SubI:
  case OpKind::MulI:
  case OpKind::DivSI:
  case OpKind::RemSI:
  case OpKind::AndI:
  case OpKind::OrI:
  case OpKind::XOrI:
  case OpKind::ShLI:
  case OpKind::ShRSI:
  case OpKind::MinSI:
  case OpKind::MaxSI: {
    auto c0 = getConstInt(op->operand(0));
    auto c1 = getConstInt(op->operand(1));
    if (c0 && c1) {
      replaceWithConstInt(op, intmath::binary(k, *c0, *c1));
      return true;
    }
    // Identities.
    if (c1 && *c1 == 0 && (k == OpKind::AddI || k == OpKind::SubI ||
                           k == OpKind::ShLI || k == OpKind::ShRSI ||
                           k == OpKind::OrI || k == OpKind::XOrI)) {
      op->result().replaceAllUsesWith(op->operand(0));
      op->erase();
      return true;
    }
    if (c0 && *c0 == 0 && k == OpKind::AddI) {
      op->result().replaceAllUsesWith(op->operand(1));
      op->erase();
      return true;
    }
    if (c1 && *c1 == 1 && (k == OpKind::MulI || k == OpKind::DivSI)) {
      op->result().replaceAllUsesWith(op->operand(0));
      op->erase();
      return true;
    }
    if (c0 && *c0 == 1 && k == OpKind::MulI) {
      op->result().replaceAllUsesWith(op->operand(1));
      op->erase();
      return true;
    }
    if (((c0 && *c0 == 0) || (c1 && *c1 == 0)) &&
        (k == OpKind::MulI || k == OpKind::AndI)) {
      replaceWithConstInt(op, 0);
      return true;
    }
    return false;
  }
  case OpKind::AddF:
  case OpKind::SubF:
  case OpKind::MulF:
  case OpKind::DivF:
  case OpKind::RemF:
  case OpKind::MinF:
  case OpKind::MaxF:
  case OpKind::Pow: {
    auto c0 = getConstFloat(op->operand(0));
    auto c1 = getConstFloat(op->operand(1));
    if (c0 && c1) {
      replaceWithConstFloat(op, foldFloatBinary(k, *c0, *c1));
      return true;
    }
    return false;
  }
  case OpKind::NegF:
  case OpKind::Sqrt:
  case OpKind::Exp:
  case OpKind::Log:
  case OpKind::Abs:
  case OpKind::Sin:
  case OpKind::Cos:
  case OpKind::Tanh:
  case OpKind::Floor:
  case OpKind::Ceil: {
    if (auto c = getConstFloat(op->operand(0))) {
      replaceWithConstFloat(op, foldFloatUnary(k, *c));
      return true;
    }
    return false;
  }
  case OpKind::CmpI: {
    auto c0 = getConstInt(op->operand(0));
    auto c1 = getConstInt(op->operand(1));
    if (c0 && c1) {
      auto pred = static_cast<CmpIPred>(op->attrs().getInt("pred"));
      replaceWithConstInt(op, intmath::compare(pred, *c0, *c1) ? 1 : 0);
      return true;
    }
    return false;
  }
  case OpKind::CmpF: {
    auto c0 = getConstFloat(op->operand(0));
    auto c1 = getConstFloat(op->operand(1));
    if (c0 && c1) {
      auto pred = static_cast<CmpFPred>(op->attrs().getInt("pred"));
      replaceWithConstInt(op, foldCmpF(pred, *c0, *c1) ? 1 : 0);
      return true;
    }
    return false;
  }
  case OpKind::Select: {
    if (auto c = getConstInt(op->operand(0))) {
      op->result().replaceAllUsesWith(op->operand(*c ? 1 : 2));
      op->erase();
      return true;
    }
    if (op->operand(1) == op->operand(2)) {
      op->result().replaceAllUsesWith(op->operand(1));
      op->erase();
      return true;
    }
    return false;
  }
  case OpKind::SIToFP: {
    if (auto c = getConstInt(op->operand(0))) {
      replaceWithConstFloat(op, static_cast<double>(*c));
      return true;
    }
    return false;
  }
  case OpKind::FPToSI: {
    if (auto c = getConstFloat(op->operand(0))) {
      replaceWithConstInt(op, intmath::fpToSI(*c));
      return true;
    }
    return false;
  }
  case OpKind::IndexCast:
  case OpKind::ExtSI:
  case OpKind::TruncI: {
    if (auto c = getConstInt(op->operand(0))) {
      replaceWithConstInt(op, *c);
      return true;
    }
    // Fold cast-of-cast to the same type as the original value.
    if (Op *def = op->operand(0).definingOp())
      if ((def->kind() == OpKind::IndexCast || def->kind() == OpKind::ExtSI) &&
          def->operand(0).type() == op->result().type()) {
        op->result().replaceAllUsesWith(def->operand(0));
        op->erase();
        return true;
      }
    return false;
  }
  case OpKind::FPExt:
  case OpKind::FPTrunc: {
    if (auto c = getConstFloat(op->operand(0))) {
      replaceWithConstFloat(op, *c);
      return true;
    }
    return false;
  }
  case OpKind::ScfIf: {
    // Fold a constant condition by inlining the taken branch.
    if (auto c = getConstInt(op->operand(0))) {
      if (*c) {
        inlineRegionBefore(op, op->region(0));
        return true;
      }
      if (!op->region(1).empty()) {
        inlineRegionBefore(op, op->region(1));
        return true;
      }
      assert(op->numResults() == 0);
      op->erase();
      return true;
    }
    // DCE: no results and both branches effect-free.
    if (op->numResults() == 0 && analysis::isEffectFree(op)) {
      op->erase();
      return true;
    }
    return nestConjunction(op);
  }
  case OpKind::ScfFor: {
    auto lb = getConstInt(ForOp(op).lb());
    auto ub = getConstInt(ForOp(op).ub());
    auto step = getConstInt(ForOp(op).step());
    // Zero-trip loop: results are the inits.
    if (lb && ub && *lb >= *ub) {
      ForOp f(op);
      for (unsigned i = 0; i < f.numIterArgs(); ++i)
        op->result(i).replaceAllUsesWith(f.init(i));
      op->erase();
      return true;
    }
    // Single-trip loop: inline the body.
    if (lb && ub && step && intmath::tripCount(*lb, *ub, *step) == 1) {
      ForOp f(op);
      Block &body = f.body();
      Builder b;
      b.setInsertionPoint(op);
      // iv := lb; iter args := inits.
      f.iv().replaceAllUsesWith(f.lb());
      for (unsigned i = 0; i < f.numIterArgs(); ++i)
        f.iterArg(i).replaceAllUsesWith(f.init(i));
      Op *term = body.terminator();
      std::vector<Value> yielded;
      for (unsigned i = 0; i < term->numOperands(); ++i)
        yielded.push_back(term->operand(i));
      term->dropAllOperands();
      for (Op *inner = body.front(), *next = nullptr; inner; inner = next) {
        next = inner->next();
        inner->removeFromParent();
        if (inner == term) {
          Op::destroy(inner);
          continue;
        }
        op->parent()->insertBefore(op, inner);
      }
      for (unsigned i = 0; i < op->numResults(); ++i)
        op->result(i).replaceAllUsesWith(yielded[i]);
      op->erase();
      return true;
    }
    // DCE: unused results, effect-free body.
    if (!op->hasAnyUse() && analysis::isEffectFree(op)) {
      op->erase();
      return true;
    }
    return ForOp(op).numIterArgs() == 0 && restrictGuardedLoop(op);
  }
  case OpKind::ScfParallel: {
    // DCE for empty parallel bodies (only the yield remains) and for
    // loops with a zero-trip dimension.
    ParallelOp par(op);
    Block &body = par.body();
    bool dead = body.front() == body.terminator();
    for (unsigned d = 0; d < par.numDims() && !dead; ++d) {
      auto lb = getConstInt(par.lb(d));
      auto ub = getConstInt(par.ub(d));
      dead = lb && ub && *lb >= *ub;
    }
    if (dead) {
      op->erase();
      return true;
    }
    return restrictGuardedLoop(op);
  }
  case OpKind::OmpWsLoop:
    return restrictGuardedLoop(op);
  case OpKind::SubView: {
    // subview with zero indices is the identity.
    if (op->numOperands() == 1) {
      op->result().replaceAllUsesWith(op->operand(0));
      op->erase();
      return true;
    }
    return false;
  }
  default:
    return false;
  }
}

/// Runs canonicalization to fixpoint; returns whether any fold fired.
bool canonicalizeRoot(Op *root) {
  bool ever = false;
  bool changed = true;
  while (changed) {
    changed = false;
    // Post-order so producers are folded before consumers retry, and so
    // erasing an op whose operands become dead is picked up next round.
    root->walkPostOrder([&](Op *op) {
      if (op->kind() == OpKind::Module || op->kind() == OpKind::Func)
        return;
      changed |= canonicalizeOp(op);
    });
    ever |= changed;
  }
  return ever;
}

class CanonicalizePass : public FunctionPass {
public:
  CanonicalizePass()
      : FunctionPass("canonicalize",
                     "fold constants, simplify control flow, DCE"),
        removed_(&statistic("ops-removed")) {}

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    bool any;
    if (!statisticsEnabled()) {
      any = canonicalizeRoot(func);
    } else {
      size_t before = countNestedOps(func);
      any = canonicalizeRoot(func);
      size_t after = countNestedOps(func);
      if (after < before)
        *removed_ += before - after;
    }
    if (any)
      noteIRChanged();
    return true;
  }

  bool tracksIRChange() const override { return true; }

private:
  Statistic *removed_;
};

} // namespace

void runCanonicalize(ModuleOp module) { canonicalizeRoot(module.op); }

std::unique_ptr<Pass> createCanonicalizePass() {
  return std::make_unique<CanonicalizePass>();
}

} // namespace paralift::transforms
