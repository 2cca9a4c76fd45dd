// Loop-invariant code motion.
//
// Serial loops (scf.for/scf.while) use the classic rule: an op may be
// hoisted when its operands are loop-invariant and, if it reads memory,
// nothing in the loop writes conflicting locations.
//
// Parallel loops use the lock-step rule of §IV-C: because iterations of a
// parallel loop may be interleaved arbitrarily (subject only to barriers),
// it is legal to imagine executing the body in lock-step. An op may then
// be hoisted when its operands are invariant and no op *earlier* in the
// body conflicts with its memory accesses — later ops need not be
// checked. This is what hoists the whole sum-reduction out of the
// normalize kernel of Fig. 1, turning O(N^2) work into O(N).
#include "analysis/memory.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

using namespace paralift::ir;
using namespace paralift::analysis;

namespace paralift::transforms {

namespace {

/// All operands (including those of nested ops referencing outer values)
/// defined outside `loop`.
bool allOperandsOutside(Op *op, Op *loop) {
  bool ok = true;
  op->walk([&](Op *inner) {
    for (unsigned i = 0; i < inner->numOperands(); ++i) {
      Value v = inner->operand(i);
      // Values defined inside `op` itself are fine.
      if (Op *def = v.definingOp()) {
        if (op->isAncestorOf(def))
          continue;
      } else if (Op *owner = v.definingBlock()->parentOp()) {
        if (op == owner || op->isAncestorOf(owner))
          continue;
      }
      if (!isDefinedOutside(v, loop))
        ok = false;
    }
  });
  return ok;
}

/// Conflicts between the (read) effects of `op` and write effects in
/// `others`.
bool readsConflictWithWrites(Op *op, const std::vector<MemoryEffect> &writes) {
  std::vector<MemoryEffect> effects;
  getEffectsRecursive(op, effects);
  for (auto &e : effects) {
    if (e.kind != EffectKind::Read)
      return true; // op itself writes: never hoist
    for (auto &w : writes)
      if (!w.base || !e.base || mayAlias(w.base, e.base))
        return true;
  }
  return false;
}

/// Hoists eligible ops out of `loop` (a for or parallel op). Returns true
/// if anything moved.
bool hoistFromLoop(Op *loop) {
  bool isParallel = hasParallelLayout(loop->kind());
  Block &body = loop->region(0).front();

  // Pre-collect write effects. For serial loops: all writes in the body.
  // For parallel loops we accumulate writes as we scan (lock-step rule).
  std::vector<MemoryEffect> allWrites;
  if (!isParallel) {
    std::vector<MemoryEffect> effects;
    for (Op *op : body)
      getEffectsRecursive(op, effects);
    for (auto &e : effects)
      if (e.kind != EffectKind::Read)
        allWrites.push_back(e);
  }

  bool changed = false;
  std::vector<MemoryEffect> priorWrites;
  for (Op *op = body.front(), *next = nullptr; op; op = next) {
    next = op->next();
    if (isTerminator(op->kind()))
      break;
    if (op->kind() == OpKind::Barrier || op->kind() == OpKind::OmpBarrier) {
      // Conservatively stop hoisting at synchronization: after a barrier,
      // every thread's earlier effects are ordered before us.
      break;
    }

    bool hoistable = false;
    if (isPure(op->kind()) && op->numRegions() == 0) {
      hoistable = allOperandsOutside(op, loop);
    } else if (isReadOnlySerial(op) && allOperandsOutside(op, loop)) {
      const auto &writes = isParallel ? priorWrites : allWrites;
      hoistable = !readsConflictWithWrites(op, writes);
    }

    if (hoistable) {
      op->moveBefore(loop);
      changed = true;
      continue;
    }

    if (isParallel) {
      std::vector<MemoryEffect> effects;
      getEffectsRecursive(op, effects);
      for (auto &e : effects)
        if (e.kind != EffectKind::Read)
          priorWrites.push_back(e);
    }
  }
  return changed;
}

unsigned licmRoot(Op *root) {
  unsigned rounds = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Op *> loops;
    root->walk([&](Op *op) {
      if (op->kind() == OpKind::ScfFor || op->kind() == OpKind::ScfParallel)
        loops.push_back(op);
    });
    // Innermost first so ops bubble outward across several levels.
    for (auto it = loops.rbegin(); it != loops.rend(); ++it)
      changed |= hoistFromLoop(*it);
    if (changed)
      ++rounds;
  }
  return rounds;
}

class LICMPass : public FunctionPass {
public:
  LICMPass()
      : FunctionPass("licm",
                     "loop-invariant code motion (parallel rule §IV-C)"),
        hoistRounds_(&statistic("hoist-rounds")) {}

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    unsigned rounds = licmRoot(func);
    *hoistRounds_ += rounds;
    if (rounds)
      noteIRChanged();
    return true;
  }

  bool tracksIRChange() const override { return true; }

private:
  Statistic *hoistRounds_;
};

} // namespace

void runLICM(ModuleOp module) { licmRoot(module.op); }

std::unique_ptr<Pass> createLICMPass() {
  return std::make_unique<LICMPass>();
}

} // namespace paralift::transforms
