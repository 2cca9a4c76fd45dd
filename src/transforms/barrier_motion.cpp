// Barrier motion (§IV-A, final paragraph): a barrier may be moved to a
// new position if a fictitious barrier placed there would make the
// current one redundant under the memory-semantics criterion. We use
// this to hoist barriers earlier within their block whenever doing so
// shrinks the set of SSA values that are live across the barrier —
// directly reducing the cache traffic the subsequent fission (cpuify)
// must introduce.
#include "analysis/barrier.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

/// Maps `user` to its ancestor op directly contained in `block`, or null
/// if `user` is not nested in `block`.
Op *ancestorInBlock(Op *user, Block *block) {
  while (user && user->parent() != block)
    user = user->parentOp();
  return user;
}

/// Total byte width of op results defined strictly before `anchor` in its
/// block that are used by `anchor` or any later op (i.e. values a fission
/// at `anchor` would need to cache or recompute).
int64_t crossingBytes(Op *anchor) {
  Block *block = anchor->parent();
  int64_t bytes = 0;
  // Positions: ops before anchor are "defs"; anchor and later are "uses".
  for (Op *def = block->front(); def && def != anchor; def = def->next()) {
    for (unsigned r = 0; r < def->numResults(); ++r) {
      Value v = def->result(r);
      bool crosses = false;
      for (auto &[user, idx] : v.uses()) {
        (void)idx;
        Op *top = ancestorInBlock(user, block);
        if (!top)
          continue;
        // Is `top` at or after `anchor`?
        for (Op *cur = anchor; cur; cur = cur->next()) {
          if (cur == top) {
            crosses = true;
            break;
          }
        }
        if (crosses)
          break;
      }
      if (crosses)
        bytes += byteWidth(v.type().kind());
    }
  }
  return bytes;
}

/// Checks the paper's motion criterion: with a fictitious barrier
/// inserted before `target`, is `barrier` redundant? Leaves the IR
/// unchanged.
bool motionLegal(Op *barrier, Op *target, Op *threadPar) {
  Op *fict =
      Op::create(barrier->arena(), OpKind::Barrier, barrier->loc(), {}, {}, 0);
  target->parent()->insertBefore(target, fict);
  bool ok = analysis::isBarrierRedundant(barrier, threadPar);
  fict->erase();
  return ok;
}

/// Hoists `barrier` up past preceding ops while legal and strictly
/// profitable (fewer bytes live across). Returns true if it moved.
bool hoistBarrier(Op *barrier, Op *threadPar) {
  bool moved = false;
  while (Op *prev = barrier->prev()) {
    // Never hoist past another barrier (ordering between barriers is
    // structural) or past ops with regions (that would be interchange,
    // handled by cpuify, not motion).
    if (prev->kind() == OpKind::Barrier || prev->numRegions() > 0)
      break;
    int64_t before = crossingBytes(barrier);
    if (!motionLegal(barrier, prev, threadPar))
      break;
    barrier->moveBefore(prev);
    int64_t after = crossingBytes(barrier);
    if (after >= before) {
      // Legal but not profitable; undo and stop.
      barrier->moveAfter(prev);
      break;
    }
    moved = true;
  }
  return moved;
}

unsigned barrierMotionRoot(Op *root) {
  unsigned moved = 0;
  std::vector<Op *> barriers;
  root->walk([&](Op *op) {
    if (op->kind() == OpKind::Barrier)
      barriers.push_back(op);
  });
  for (Op *barrier : barriers) {
    Op *threadPar = getEnclosingThreadParallel(barrier);
    if (!threadPar)
      continue;
    // Motion only applies to barriers directly in the parallel body (the
    // position fission will split at); nested ones are exposed later by
    // interchange.
    if (barrier->parent() != &ir::ParallelOp(threadPar).body())
      continue;
    if (hoistBarrier(barrier, threadPar))
      ++moved;
  }
  return moved;
}

class BarrierMotionPass : public FunctionPass {
public:
  BarrierMotionPass()
      : FunctionPass("barrier-motion",
                     "hoist barriers to shrink fission caches (§IV-A)"),
        moved_(&statistic("barriers-moved")) {}

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    unsigned moved = barrierMotionRoot(func);
    *moved_ += moved;
    if (moved)
      noteIRChanged();
    return true;
  }

  bool tracksIRChange() const override { return true; }

private:
  Statistic *moved_;
};

} // namespace

void runBarrierMotion(ModuleOp module) { barrierMotionRoot(module.op); }

std::unique_ptr<Pass> createBarrierMotionPass() {
  return std::make_unique<BarrierMotionPass>();
}

} // namespace paralift::transforms
