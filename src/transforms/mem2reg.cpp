// Memory-to-register promotion for rank-0 (scalar) allocas.
//
// Locals produced by the frontend are rank-0 memrefs; this pass rebuilds
// SSA form through scf.if (as extra results) and scf.for (as iter_args).
// Barriers at the same nesting level are transparently crossed — the
// "hole" of §III-A: a thread's own locals are not part of barrier
// semantics — which is what later allows fission's min-cut to decide
// whether such values are cached or recomputed.
//
// Promotion is skipped when:
//  - the alloca escapes (address passed somewhere),
//  - a user sits inside a while loop or a (different) parallel region,
//  - a user sits inside an if/for that contains both a barrier and a
//    store to the alloca (promotion would create region results crossing
//    a barrier, which interchange cannot handle; replication in cpuify
//    covers these).
// A scalar that is only read inside a barrier-containing if/for is
// promoted: the reaching value is substituted directly and the region
// gains no results, so e.g. `tx` and indices derived from it become SSA
// values the min-cut may recompute instead of per-thread caches.
#include "ir/builder.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

#include <unordered_set>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

class Promoter {
public:
  Promoter(Op *allocaOp)
      : allocaOp_(allocaOp), mem_(allocaOp->result()),
        elemType_(Type(mem_.type().elemKind())) {}

  bool canPromote() {
    if (mem_.type().rank() != 0)
      return false;
    for (auto &[user, idx] : mem_.uses()) {
      if (user->kind() == OpKind::Load) {
        // ok
      } else if (user->kind() == OpKind::Store && idx == 1) {
        // ok (value operand would mean escape, but rank-0 stores of the
        // memref itself are impossible since elem types are scalar)
      } else {
        return false;
      }
      // Validate the path of region ops between the alloca and the user:
      // only scf.if / scf.for may be crossed, and a barrier-containing
      // one only when it never stores the alloca (read-only crossings
      // add no region results).
      for (Op *cur = user; cur->parent() != allocaOp_->parent();) {
        Op *crossed = cur->parentOp();
        if (!crossed)
          return false;
        if (crossed->kind() != OpKind::ScfIf &&
            crossed->kind() != OpKind::ScfFor)
          return false;
        if (containsBarrier(crossed) && subtreeStores(crossed))
          return false;
        cur = crossed;
      }
    }
    return true;
  }

  void promote() {
    Builder b;
    b.setInsertionPoint(allocaOp_);
    Value init = elemType_.isFloat() ? b.constFloat(0.0, elemType_)
                                     : b.constInt(0, elemType_);
    processBlock(*allocaOp_->parent(), init);
    assert(!mem_.hasUses());
    allocaOp_->erase();
  }

private:
  bool isLoadOfMem(Op *op) const {
    return op->kind() == OpKind::Load && op->operand(0) == mem_;
  }
  bool isStoreOfMem(Op *op) const {
    return op->kind() == OpKind::Store && op->operand(1) == mem_;
  }
  bool subtreeUses(Op *op) const {
    bool found = false;
    op->walk([&](Op *inner) {
      if (isLoadOfMem(inner) || isStoreOfMem(inner))
        found = true;
    });
    return found;
  }
  bool subtreeStores(Op *op) const {
    bool found = false;
    op->walk([&](Op *inner) {
      if (isStoreOfMem(inner))
        found = true;
    });
    return found;
  }

  /// Rewrites all users in `block`, threading the current value; returns
  /// the value live at the end of the block.
  Value processBlock(Block &block, Value cur) {
    for (Op *op = block.front(), *next = nullptr; op; op = next) {
      next = op->next();
      if (isLoadOfMem(op)) {
        op->result().replaceAllUsesWith(cur);
        op->erase();
        continue;
      }
      if (isStoreOfMem(op)) {
        cur = op->operand(0);
        op->erase();
        continue;
      }
      if (op->kind() == OpKind::ScfIf && subtreeUses(op)) {
        cur = processIf(op, cur);
        continue;
      }
      if (op->kind() == OpKind::ScfFor && subtreeUses(op)) {
        cur = processFor(op, cur);
        continue;
      }
    }
    return cur;
  }

  Value processIf(Op *op, Value cur) {
    IfOp ifOp(op);
    if (!subtreeStores(op)) {
      processBlock(ifOp.thenBlock(), cur);
      if (ifOp.hasElse())
        processBlock(ifOp.elseBlock(), cur);
      return cur;
    }
    // Rebuild with one extra result carrying the merged value.
    ifOp.getOrCreateElse();
    Value thenEnd = processBlock(ifOp.thenBlock(), cur);
    Value elseEnd = processBlock(ifOp.elseBlock(), cur);

    std::vector<Type> resultTypes;
    for (unsigned i = 0; i < op->numResults(); ++i)
      resultTypes.push_back(op->result(i).type());
    resultTypes.push_back(elemType_);
    Op *newOp = Op::create(op->arena(), OpKind::ScfIf, op->loc(), resultTypes,
                           {op->operand(0)}, 2);
    newOp->attrs() = op->attrs();
    op->parent()->insertBefore(op, newOp);
    newOp->region(0).takeBlocks(op->region(0));
    newOp->region(1).takeBlocks(op->region(1));
    newOp->region(0).front().terminator()->appendOperand(thenEnd);
    newOp->region(1).front().terminator()->appendOperand(elseEnd);
    for (unsigned i = 0; i < op->numResults(); ++i)
      op->result(i).replaceAllUsesWith(newOp->result(i));
    op->erase();
    return newOp->result(newOp->numResults() - 1);
  }

  Value processFor(Op *op, Value cur) {
    ForOp forOp(op);
    if (!subtreeStores(op)) {
      processBlock(forOp.body(), cur);
      return cur;
    }
    // Rebuild with one extra iter_arg.
    std::vector<Type> resultTypes;
    for (unsigned i = 0; i < op->numResults(); ++i)
      resultTypes.push_back(op->result(i).type());
    resultTypes.push_back(elemType_);
    std::vector<Value> operands(op->operands().begin(), op->operands().end());
    operands.push_back(cur);
    Op *newOp = Op::create(op->arena(), OpKind::ScfFor, op->loc(), resultTypes,
                           operands, 1);
    newOp->attrs() = op->attrs();
    op->parent()->insertBefore(op, newOp);
    newOp->region(0).takeBlocks(op->region(0));
    Block &body = newOp->region(0).front();
    Value carried = body.addArg(elemType_);
    Value bodyEnd = processBlock(body, carried);
    body.terminator()->appendOperand(bodyEnd);
    for (unsigned i = 0; i < op->numResults(); ++i)
      op->result(i).replaceAllUsesWith(newOp->result(i));
    op->erase();
    return newOp->result(newOp->numResults() - 1);
  }

  Op *allocaOp_;
  Value mem_;
  Type elemType_;
};

size_t mem2regRoot(Op *root, Pass::Statistic *promoted) {
  size_t count = 0;
  // Collect candidates first: promotion mutates the region structure.
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Op *> candidates;
    root->walk([&](Op *op) {
      if (op->kind() == OpKind::Alloca &&
          op->result().type().rank() == 0)
        candidates.push_back(op);
    });
    for (Op *a : candidates) {
      Promoter p(a);
      if (p.canPromote()) {
        p.promote();
        ++count;
        if (promoted)
          *promoted += 1;
        changed = true;
        break; // region structure changed; re-collect
      }
    }
  }
  return count;
}

class Mem2RegPass : public FunctionPass {
public:
  Mem2RegPass()
      : FunctionPass("mem2reg",
                     "promote scalar allocas to SSA (barrier-aware)"),
        promoted_(&statistic("allocas-promoted")) {}

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    if (mem2regRoot(func, promoted_))
      noteIRChanged();
    return true;
  }

  bool tracksIRChange() const override { return true; }

private:
  Statistic *promoted_;
};

} // namespace

void runMem2Reg(ModuleOp module) {
  mem2regRoot(module.op, /*promoted=*/nullptr);
}

std::unique_ptr<Pass> createMem2RegPass() {
  return std::make_unique<Mem2RegPass>();
}

} // namespace paralift::transforms
