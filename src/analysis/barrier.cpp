#include "analysis/barrier.h"

#include "analysis/affine.h"
#include "ir/ophelpers.h"

using namespace paralift::ir;

namespace paralift::analysis {

namespace {

std::vector<Value> threadIvsOf(Op *threadPar) {
  ir::ParallelOp p(threadPar);
  std::vector<Value> ivs;
  for (unsigned i = 0; i < p.numDims(); ++i)
    ivs.push_back(p.iv(i));
  return ivs;
}

/// Adds the effects of `op` (recursively) into `set`. Accesses to
/// thread-local allocations (defined inside the thread-parallel body) are
/// excluded outright: no other thread can ever observe them.
void addEffects(Op *op, Op *threadPar, EffectSet &set) {
  std::vector<MemoryEffect> effects;
  getOpEffects(op, effects);
  for (auto &e : effects) {
    if (e.accessOp &&
        (e.accessOp->kind() == OpKind::Load ||
         e.accessOp->kind() == OpKind::Store)) {
      Value base = getBase(accessedMemRef(e.accessOp));
      if (base.definingOp() && threadPar->isAncestorOf(base.definingOp()))
        continue; // thread-local allocation
    }
    if (!e.base && e.kind != EffectKind::Read && e.kind != EffectKind::Write) {
      set.unknown = true;
      continue;
    }
    if (e.kind == EffectKind::Read)
      set.reads.push_back(e);
    else
      set.writes.push_back(e);
    if (!e.base)
      set.unknown = true;
  }
  for (unsigned r = 0; r < op->numRegions(); ++r)
    for (auto &block : op->region(r).blocks())
      for (Op *inner : *block)
        addEffects(inner, threadPar, set);
}

/// The "hole" of §III-A, refined per Fig. 5: a pair of accesses does not
/// conflict across a barrier when both touch the same memref with the
/// same (syntactically identical) index vector that is injective in the
/// thread IVs — two distinct threads then touch distinct addresses, and
/// the same-thread access pair is already ordered by program order.
bool sameThreadPrivatePair(const MemoryEffect &a, const MemoryEffect &b,
                           const std::vector<Value> &tvs) {
  Op *oa = a.accessOp, *ob = b.accessOp;
  if (!oa || !ob)
    return false;
  bool loadsStores =
      (oa->kind() == OpKind::Load || oa->kind() == OpKind::Store) &&
      (ob->kind() == OpKind::Load || ob->kind() == OpKind::Store);
  if (!loadsStores)
    return false;
  if (accessedMemRef(oa) != accessedMemRef(ob))
    return false;
  if (!sameIndices(oa, ob))
    return false;
  return isThreadPrivateAccess(oa, tvs);
}

bool pairConflicts(const MemoryEffect &a, const MemoryEffect &b,
                   const std::vector<Value> &tvs) {
  if (a.kind == EffectKind::Read && b.kind == EffectKind::Read)
    return false;
  if (!a.base || !b.base)
    return true;
  if (!mayAlias(a.base, b.base))
    return false;
  if (sameThreadPrivatePair(a, b, tvs))
    return false;
  return true;
}

bool conflictsImpl(const EffectSet &a, const EffectSet &b,
                   const std::vector<Value> &tvs) {
  if (a.unknown && !(b.reads.empty() && b.writes.empty()))
    return true;
  if (b.unknown && !(a.reads.empty() && a.writes.empty()))
    return true;
  for (const auto &w : a.writes) {
    for (const auto &e : b.writes)
      if (pairConflicts(w, e, tvs))
        return true;
    for (const auto &e : b.reads)
      if (pairConflicts(w, e, tvs))
        return true;
  }
  for (const auto &w : b.writes)
    for (const auto &e : a.reads)
      if (pairConflicts(w, e, tvs))
        return true;
  return false;
}

} // namespace

EffectSet effectsBefore(Op *barrier, Op *threadPar) {
  EffectSet out;
  Op *cur = barrier;
  while (true) {
    // Scan backwards in cur's block until another barrier or block start.
    for (Op *prev = cur->prev(); prev; prev = prev->prev()) {
      if (prev->kind() == OpKind::Barrier)
        break;
      addEffects(prev, threadPar, out);
    }
    Op *parent = cur->parentOp();
    if (!parent || parent == threadPar)
      break;
    if (isLoopLike(parent->kind())) {
      // A previous iteration may have executed the whole body before this
      // barrier: include the entire loop conservatively.
      addEffects(parent, threadPar, out);
    }
    cur = parent;
  }
  return out;
}

EffectSet effectsAfter(Op *barrier, Op *threadPar) {
  EffectSet out;
  Op *cur = barrier;
  while (true) {
    for (Op *next = cur->next(); next; next = next->next()) {
      if (next->kind() == OpKind::Barrier)
        break;
      addEffects(next, threadPar, out);
    }
    Op *parent = cur->parentOp();
    if (!parent || parent == threadPar)
      break;
    if (isLoopLike(parent->kind()))
      addEffects(parent, threadPar, out);
    cur = parent;
  }
  return out;
}

bool conflicts(const EffectSet &a, const EffectSet &b) {
  return conflictsImpl(a, b, {});
}

bool isBarrierRedundant(Op *barrier, Op *threadPar) {
  EffectSet before = effectsBefore(barrier, threadPar);
  if (before.empty())
    return true; // nothing before the barrier can be ordered by it
  EffectSet after = effectsAfter(barrier, threadPar);
  if (after.empty())
    return true;
  return !conflictsImpl(before, after, threadIvsOf(threadPar));
}

} // namespace paralift::analysis
