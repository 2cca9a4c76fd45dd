// Barrier elimination (§IV-A): a barrier whose before/after effect sets
// (computed with the thread-private hole) have no non-RAR conflict is
// subsumed by its neighbours and erased. Covers the trivial cases
// (no effects at all, adjacent barriers) and the Fig. 9 backprop cases.
#include "analysis/barrier.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

/// Sweeps to a fixpoint: each barrier's redundancy is recomputed at the
/// moment it is visited, so it observes the erasures made earlier in the
/// same round.
unsigned barrierElimRoot(Op *root) {
  unsigned erased = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Op *> barriers;
    root->walk([&](Op *op) {
      if (op->kind() == OpKind::Barrier)
        barriers.push_back(op);
    });
    for (Op *barrier : barriers) {
      Op *threadPar = getEnclosingThreadParallel(barrier);
      if (!threadPar)
        continue;
      if (analysis::isBarrierRedundant(barrier, threadPar)) {
        barrier->erase();
        ++erased;
        changed = true;
      }
    }
  }
  return erased;
}

class BarrierElimPass : public FunctionPass {
public:
  BarrierElimPass()
      : FunctionPass("barrier-elim", "erase redundant barriers (§IV-A)"),
        erased_(&statistic("barriers-erased")) {}

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    unsigned erased = barrierElimRoot(func);
    *erased_ += erased;
    if (erased)
      noteIRChanged();
    return true;
  }

  bool tracksIRChange() const override { return true; }

private:
  Statistic *erased_;
};

} // namespace

void runBarrierElim(ModuleOp module) { barrierElimRoot(module.op); }

std::unique_ptr<Pass> createBarrierElimPass() {
  return std::make_unique<BarrierElimPass>();
}

} // namespace paralift::transforms
