// Store-to-load forwarding and dead-store elimination on memrefs with
// syntactically identical indices, across barriers when the access is
// thread-private (§IV-B; reproduces the Fig. 9 "Unnecessary Store #1 /
// Unnecessary Load #1" elimination in Rodinia backprop).
#include "analysis/affine.h"
#include "analysis/barrier.h"
#include "analysis/memory.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

using namespace paralift::ir;
using namespace paralift::analysis;

namespace paralift::transforms {

namespace {

std::vector<Value> threadIvsOf(Op *threadPar) {
  ir::ParallelOp p(threadPar);
  std::vector<Value> ivs;
  for (unsigned i = 0; i < p.numDims(); ++i)
    ivs.push_back(p.iv(i));
  return ivs;
}

/// Is it safe for the dataflow fact "location (base,indices) holds value V
/// for the current thread" to survive `op`?
/// `store` is the store op establishing the fact.
bool survivesOp(Op *store, Op *op) {
  Value base = getBase(accessedMemRef(store));
  switch (op->kind()) {
  case OpKind::Load:
    return true; // reads never invalidate
  case OpKind::Barrier: {
    // The hole: a thread-private location is unaffected by barriers.
    Op *threadPar = getEnclosingThreadParallel(store);
    if (!threadPar)
      return false;
    return isThreadPrivateAccess(store, threadIvsOf(threadPar));
  }
  case OpKind::Store: {
    Value otherBase = getBase(accessedMemRef(op));
    if (!mayAlias(base, otherBase))
      return true;
    // Same base: distinct syntactic indices might still collide at
    // runtime, unless both accesses are thread-private with identical
    // index expressions (then different threads touch different slots).
    return false;
  }
  default: {
    // Region ops / calls: check recursive write effects against base.
    std::vector<MemoryEffect> effects;
    getEffectsRecursive(op, effects);
    for (auto &e : effects)
      if (e.kind != EffectKind::Read && (!e.base || mayAlias(e.base, base)))
        return false;
    return true;
  }
  }
}

/// Forward stores to subsequent identical loads within `block`.
bool forwardInBlock(Block &block) {
  bool changed = false;
  for (Op *op = block.front(); op; op = op->next()) {
    if (op->kind() != OpKind::Store)
      continue;
    Value base = accessedMemRef(op);
    for (Op *later = op->next(); later; later = later->next()) {
      if (later->kind() == OpKind::Load &&
          accessedMemRef(later) == base && sameIndices(op, later)) {
        later->result().replaceAllUsesWith(op->operand(0));
        Op *dead = later;
        later = later->prev();
        dead->erase();
        changed = true;
        continue;
      }
      if (!survivesOp(op, later))
        break;
    }
  }
  return changed;
}

/// Erase stores overwritten before any possible read.
bool deadStoreInBlock(Block &block) {
  bool changed = false;
  for (Op *op = block.front(), *next = nullptr; op; op = next) {
    next = op->next();
    if (op->kind() != OpKind::Store)
      continue;
    Value base = accessedMemRef(op);
    for (Op *later = op->next(); later; later = later->next()) {
      if (later->kind() == OpKind::Store &&
          accessedMemRef(later) == base && sameIndices(op, later)) {
        // Overwritten without an intervening read: dead.
        op->erase();
        changed = true;
        break;
      }
      if (later->kind() == OpKind::Load) {
        // A load aliasing the base may read our location.
        if (mayAlias(getBase(accessedMemRef(later)), getBase(base)))
          break;
        continue;
      }
      if (later->kind() == OpKind::Barrier) {
        // After a barrier another thread may read the location, unless it
        // is provably thread-private.
        Op *threadPar = getEnclosingThreadParallel(op);
        if (!threadPar ||
            !isThreadPrivateAccess(op, threadIvsOf(threadPar)))
          break;
        continue;
      }
      // Any other op with read effects aliasing base blocks DSE; writes
      // to other memory are fine.
      std::vector<MemoryEffect> effects;
      getEffectsRecursive(later, effects);
      bool blocked = false;
      for (auto &e : effects)
        if (e.kind == EffectKind::Read &&
            (!e.base || mayAlias(e.base, getBase(base))))
          blocked = true;
      if (blocked)
        break;
    }
  }
  return changed;
}

/// Returns whether anything was forwarded or eliminated.
bool storeForwardRoot(Op *root) {
  bool any = false;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Block *> blocks;
    root->walk([&](Op *op) {
      for (unsigned r = 0; r < op->numRegions(); ++r)
        for (Block *b : op->region(r).blocks())
          blocks.push_back(b);
    });
    for (Block *b : blocks)
      changed |= forwardInBlock(*b);
    for (Block *b : blocks)
      changed |= deadStoreInBlock(*b);
    any |= changed;
  }
  return any;
}

class StoreForwardPass : public FunctionPass {
public:
  StoreForwardPass()
      : FunctionPass("store-forward",
                     "store-to-load forwarding across barriers (§IV-B)"),
        removed_(&statistic("ops-removed")) {}

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    bool any;
    if (!statisticsEnabled()) {
      any = storeForwardRoot(func);
    } else {
      size_t before = countNestedOps(func);
      any = storeForwardRoot(func);
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

void runStoreForward(ModuleOp module) { storeForwardRoot(module.op); }

std::unique_ptr<Pass> createStoreForwardPass() {
  return std::make_unique<StoreForwardPass>();
}

} // namespace paralift::transforms
