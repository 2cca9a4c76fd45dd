// cpuify: barrier lowering for CPU execution (§III-B).
//
// Eliminates every polygeist.barrier from thread-parallel loops by:
//  1. Parallel loop splitting (fission) at top-level barriers, with
//     crossing SSA values cached in per-thread arrays or recomputed
//     (min-cut, transforms/mincut.h). Thread-local allocas that cross a
//     split are replicated into block-level arrays indexed by thread IVs.
//  2. Parallel loop interchange for barriers nested inside scf.for,
//     scf.if and scf.while (the Fig. 7/8 patterns). Loop bounds and
//     conditions must be uniform across the block; uniform computation
//     chains are hoisted out of the parallel, and while-conditions are
//     communicated through a block-level helper variable written by the
//     first thread (Fig. 8).
// The process repeats until no barrier remains; each step either erases a
// barrier or strictly reduces its region nesting depth.
#include "analysis/affine.h"
#include "analysis/memory.h"
#include "ir/builder.h"
#include "ir/ophelpers.h"
#include "ir/verifier.h"
#include "ir/printer.h"
#include "transforms/mincut.h"
#include "transforms/passes.h"

#include <cstdio>
#include <cstdlib>
#include <unordered_map>
#include <unordered_set>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

/// Remaps operands of `op` and all nested ops through `map`.
void remapUses(Op *op, const std::unordered_map<ValueImpl *, Value> &map) {
  op->walk([&](Op *inner) {
    for (unsigned i = 0; i < inner->numOperands(); ++i) {
      auto it = map.find(inner->operand(i).impl());
      if (it != map.end())
        inner->setOperand(i, it->second);
    }
  });
}

/// The top-level ancestor of `op` within `block` (or nullptr).
Op *topLevelAncestor(Op *op, Block *block) {
  for (Op *cur = op; cur; cur = cur->parentOp())
    if (cur->parent() == block)
      return cur;
  return nullptr;
}

class Cpuify {
public:
  Cpuify(Op *root, bool useMinCut, DiagnosticEngine &diag)
      : root_(root), useMinCut_(useMinCut), diag_(diag) {}

  bool run() {
    const bool debug = std::getenv("PARALIFT_DEBUG_CPUIFY") != nullptr;
    for (int iter = 0; iter < 10000; ++iter) {
      Op *barrier = findAnyBarrier();
      if (!barrier)
        return true;
      Op *threadPar = getEnclosingThreadParallel(barrier);
      if (!threadPar) {
        diag_.error(barrier->loc(), "barrier outside thread-parallel loop");
        return false;
      }
      if (debug && iter < 40)
        std::fprintf(stderr, "cpuify iter %d:\n%s\n", iter,
                     ir::printOp(getEnclosing(threadPar, OpKind::Func))
                         .c_str());
      if (!step(threadPar))
        return false;
    }
    diag_.error(SourceLoc(), "cpuify did not converge");
    return false;
  }

private:
  Op *findAnyBarrier() {
    Op *found = nullptr;
    root_->walk([&](Op *op) {
      if (!found && op->kind() == OpKind::Barrier)
        found = op;
    });
    return found;
  }

  /// One lowering step on `threadPar`. Returns false on a hard error.
  bool step(Op *threadPar) {
    Block &body = threadPar->region(0).front();
    // Case 1: a top-level barrier -> fission at the first one.
    for (Op *op : body)
      if (op->kind() == OpKind::Barrier) {
        if (std::getenv("PARALIFT_DEBUG_CPUIFY"))
          std::fprintf(stderr, "action: fission\n");
        return fission(threadPar, op);
      }

    // Case 2: some top-level op contains a barrier.
    Op *container = nullptr;
    for (Op *op : body)
      if (op->numRegions() > 0 && containsBarrier(op)) {
        container = op;
        break;
      }
    if (!container) {
      diag_.error(threadPar->loc(), "barrier bookkeeping failure");
      return false;
    }

    // Best-effort: hoist the container's uniform bound/condition chains
    // out of the parallel *now*, before any fission turns them into
    // per-thread cached values (which would no longer look uniform to the
    // interchange step). Failures are diagnosed later by the interchange
    // itself.
    for (Value v : controlValues(container))
      (void)hoistUniformChain(v, threadPar);

    // Decide between splitting around the container and interchanging.
    bool prefixImpure = false;
    for (Op *op = body.front(); op != container; op = op->next())
      if (!analysis::isReadOnly(op))
        prefixImpure = true;
    bool hasSuffix = container->next() != body.terminator();

    if (prefixImpure || hasSuffix) {
      if (std::getenv("PARALIFT_DEBUG_CPUIFY"))
        std::fprintf(stderr, "action: insert barriers around %s (pre=%d suf=%d)\n",
                     std::string(opKindName(container->kind())).c_str(),
                     (int)prefixImpure, (int)hasSuffix);
      // Adding barriers is always legal in our model; fission will then
      // isolate the container.
      Builder b;
      if (prefixImpure) {
        b.setInsertionPoint(container);
        b.barrier();
      }
      if (hasSuffix) {
        b.setInsertionPointAfter(container);
        b.barrier();
      }
      return true; // next iteration performs the fission
    }

    if (std::getenv("PARALIFT_DEBUG_CPUIFY"))
      std::fprintf(stderr, "action: interchange %s\n",
                   std::string(opKindName(container->kind())).c_str());
    switch (container->kind()) {
    case OpKind::ScfFor:
      return interchangeFor(threadPar, container);
    case OpKind::ScfIf:
      return interchangeIf(threadPar, container);
    case OpKind::ScfWhile:
      return interchangeWhile(threadPar, container);
    default:
      diag_.error(container->loc(),
                  "cannot lower barrier nested in this construct");
      return false;
    }
  }

  //===--------------------------------------------------------------------===//
  // Fission
  //===--------------------------------------------------------------------===//

  /// Builds `(ub-lb+step-1)/step` extent expressions for the parallel's
  /// dims, inserted before `threadPar`.
  std::vector<Value> buildExtents(Op *threadPar) {
    ir::ParallelOp par(threadPar);
    Builder b;
    b.setInsertionPoint(threadPar);
    std::vector<Value> extents;
    for (unsigned i = 0; i < par.numDims(); ++i) {
      Value range = b.subi(par.ub(i), par.lb(i));
      Value stepm1 = b.subi(par.step(i), b.constIndex(1));
      extents.push_back(b.divsi(b.addi(range, stepm1), par.step(i)));
    }
    return extents;
  }

  /// `(iv-lb)/step` normalized thread indices, inserted at builder point.
  std::vector<Value> buildThreadIndices(Builder &b, ir::ParallelOp par,
                                        const std::vector<Value> &ivs) {
    std::vector<Value> idxs;
    for (unsigned i = 0; i < par.numDims(); ++i)
      idxs.push_back(b.divsi(b.subi(ivs[i], par.lb(i)), par.step(i)));
    return idxs;
  }

  /// Replicates top-level allocas of `threadPar`'s body whose values are
  /// used at-or-after `barrier` into block-level arrays with leading
  /// per-thread dimensions, replacing them with subviews.
  void replicateCrossingAllocas(Op *threadPar, Op *barrier) {
    Block &body = threadPar->region(0).front();
    ir::ParallelOp par(threadPar);
    std::vector<Op *> crossing;
    for (Op *op = body.front(); op != barrier; op = op->next()) {
      if (op->kind() != OpKind::Alloca)
        continue;
      bool usedAfter = false;
      for (auto &[user, idx] : op->result().uses()) {
        (void)idx;
        Op *anc = topLevelAncestor(user, &body);
        if (anc && (anc == barrier || isBeforeInBlock(barrier, anc)))
          usedAfter = true;
      }
      if (usedAfter)
        crossing.push_back(op);
    }
    if (crossing.empty())
      return;

    std::vector<Value> extents = buildExtents(threadPar);
    for (Op *allocaOp : crossing) {
      Type orig = allocaOp->result().type();
      std::vector<int64_t> shape(par.numDims(), Type::kDynamic);
      shape.insert(shape.end(), orig.shape().begin(), orig.shape().end());
      Builder b;
      b.setInsertionPoint(threadPar);
      std::vector<Value> dyn = extents;
      // Original dynamic extents (operands of the alloca) must be values
      // defined outside the parallel to move the allocation out.
      for (unsigned i = 0; i < allocaOp->numOperands(); ++i)
        dyn.push_back(allocaOp->operand(i));
      Value replicated = b.allocaMem(Type::memref(orig.elemKind(), shape), dyn);

      Builder vb;
      vb.setInsertionPoint(allocaOp);
      std::vector<Value> ivs;
      for (unsigned i = 0; i < par.numDims(); ++i)
        ivs.push_back(par.iv(i));
      std::vector<Value> tIdx = buildThreadIndices(vb, par, ivs);
      Value view = vb.subview(replicated, tIdx);
      allocaOp->result().replaceAllUsesWith(view);
      allocaOp->erase();
    }
  }

  /// The bounds of a for or the condition of an if: what interchanging a
  /// barrier-containing container needs to be uniform.
  static std::vector<Value> controlValues(Op *container) {
    if (container->kind() == OpKind::ScfFor) {
      ForOp f(container);
      return {f.lb(), f.ub(), f.step()};
    }
    if (container->kind() == OpKind::ScfIf)
      return {IfOp(container).cond()};
    return {};
  }

  bool fission(Op *threadPar, Op *barrier) {
    replicateCrossingAllocas(threadPar, barrier);

    Block &body = threadPar->region(0).front();
    ir::ParallelOp par(threadPar);
    // A later container's control value computed before this barrier (CSE
    // gives two `if (u > 1)` one condition) would be split into a
    // per-thread cache below, which the interchange no longer sees as
    // uniform: hoist its chain out first, where it is uniform.
    for (Op *op = barrier->next(); op; op = op->next())
      if (op->numRegions() > 0 && containsBarrier(op))
        for (Value v : controlValues(op))
          if (Op *def = v.definingOp()) {
            Op *anc = topLevelAncestor(def, &body);
            if (anc && isBeforeInBlock(anc, barrier))
              (void)hoistUniformChain(v, threadPar);
          }

    // Live-out analysis: values of top-level ops before the barrier used
    // at-or-after it.
    std::vector<Value> liveOut;
    for (Op *op = body.front(); op != barrier; op = op->next()) {
      for (unsigned r = 0; r < op->numResults(); ++r) {
        Value v = op->result(r);
        for (auto &[user, idx] : v.uses()) {
          (void)idx;
          Op *anc = topLevelAncestor(user, &body);
          if (anc && (anc == barrier || isBeforeInBlock(barrier, anc))) {
            liveOut.push_back(v);
            break;
          }
        }
      }
    }

    SplitPlan plan = planSplit(liveOut, useMinCut_);

    // Allocate caches at block level.
    std::vector<Value> extents = buildExtents(threadPar);
    std::unordered_map<ValueImpl *, Value> cacheFor;
    {
      Builder b;
      b.setInsertionPoint(threadPar);
      std::vector<int64_t> shape(par.numDims(), Type::kDynamic);
      for (Value v : plan.cached)
        cacheFor[v.impl()] =
            b.allocaMem(Type::memref(v.type().kind(), shape), extents);
    }

    // Store each cached value immediately after its definition. Any
    // position before the split works (the two parallels are sequenced);
    // storing at the def keeps the container op last in its loop so that
    // the interchange step recognizes it.
    {
      Builder b;
      b.setInsertionPointToStart(&body);
      std::vector<Value> ivs;
      for (unsigned i = 0; i < par.numDims(); ++i)
        ivs.push_back(par.iv(i));
      std::vector<Value> tIdx = buildThreadIndices(b, par, ivs);
      for (Value v : plan.cached) {
        b.setInsertionPointAfter(v.definingOp());
        b.store(v, cacheFor[v.impl()], tIdx);
      }
    }

    // Create the tail parallel loop after the original.
    std::vector<Value> lbs, ubs, steps;
    for (unsigned i = 0; i < par.numDims(); ++i) {
      lbs.push_back(par.lb(i));
      ubs.push_back(par.ub(i));
      steps.push_back(par.step(i));
    }
    Builder b;
    b.setInsertionPointAfter(threadPar);
    ir::ParallelOp tail =
        ir::ParallelOp::create(b, OpKind::ScfParallel, lbs, ubs, steps);
    tail.op->attrs() = threadPar->attrs();

    Builder tb(&tail.body());
    std::unordered_map<ValueImpl *, Value> map;
    std::vector<Value> newIvs;
    for (unsigned i = 0; i < par.numDims(); ++i) {
      newIvs.push_back(tail.iv(i));
      map[par.iv(i).impl()] = tail.iv(i);
    }
    // Loads of cached values.
    std::vector<Value> tIdx = buildThreadIndices(tb, tail, newIvs);
    for (Value v : plan.cached)
      map[v.impl()] = tb.load(cacheFor[v.impl()], tIdx);
    // Recompute clones (already ordered).
    for (Op *op : plan.recompute) {
      Op *clone = cloneOp(op, map);
      tail.body().push_back(clone);
      // cloneOp consulted `map` at clone time; operands referencing other
      // recomputed values resolve because we clone in program order.
    }
    // Move the ops after the barrier into the tail.
    Op *term = body.terminator();
    for (Op *op = barrier->next(), *next = nullptr; op && op != term;
         op = next) {
      next = op->next();
      op->removeFromParent();
      tail.body().push_back(op);
    }
    tb.setInsertionPointToEnd(&tail.body());
    tb.yield({});
    // Remap moved ops (IVs, cached, recomputed values).
    for (Op *op : tail.body())
      remapUses(op, map);
    barrier->erase();
    return true;
  }

  //===--------------------------------------------------------------------===//
  // Interchange
  //===--------------------------------------------------------------------===//

  /// Hoists the uniform computation chain of `v` out of `threadPar`.
  /// Returns false if `v` is not uniform.
  bool hoistUniformChain(Value v, Op *threadPar) {
    if (isDefinedOutside(v, threadPar))
      return true;
    if (!analysis::isUniform(v, threadPar))
      return false;
    Op *def = v.definingOp();
    if (!def)
      return false;
    for (unsigned i = 0; i < def->numOperands(); ++i)
      if (!hoistUniformChain(def->operand(i), threadPar))
        return false;
    def->moveBefore(threadPar);
    return true;
  }

  /// Moves/clones the read-only prefix ops [body.front, container) into
  /// the target block start, remapping thread IVs. `clone` leaves the
  /// originals in place (for multi-branch constructs).
  void sinkPrefix(Op *threadPar, Op *container, Block &target,
                  std::unordered_map<ValueImpl *, Value> &map, bool clone) {
    Block &body = threadPar->region(0).front();
    std::vector<Op *> prefix;
    for (Op *op = body.front(); op != container; op = op->next())
      prefix.push_back(op);
    Op *anchor = target.front(); // insert before existing content
    for (Op *op : prefix) {
      if (clone) {
        Op *c = cloneOp(op, map);
        target.insertBefore(anchor, c);
      } else {
        op->removeFromParent();
        target.insertBefore(anchor, op);
      }
    }
  }

  /// Creates a fresh thread-parallel with the same bounds as `threadPar`,
  /// inserted by `b`, recording IV mappings into `map`.
  ir::ParallelOp makeSibling(Builder &b, Op *threadPar,
                             std::unordered_map<ValueImpl *, Value> &map) {
    ir::ParallelOp par(threadPar);
    std::vector<Value> lbs, ubs, steps;
    for (unsigned i = 0; i < par.numDims(); ++i) {
      lbs.push_back(par.lb(i));
      ubs.push_back(par.ub(i));
      steps.push_back(par.step(i));
    }
    ir::ParallelOp fresh =
        ir::ParallelOp::create(b, OpKind::ScfParallel, lbs, ubs, steps);
    fresh.op->attrs() = threadPar->attrs();
    for (unsigned i = 0; i < par.numDims(); ++i)
      map[par.iv(i).impl()] = fresh.iv(i);
    return fresh;
  }

  /// Moves all ops of `from` except its terminator into `to` (before its
  /// terminator if present, else at the end).
  static void moveBodyOps(Block &from, Block &to) {
    Op *fromTerm = from.terminator();
    Op *anchor = to.terminator();
    for (Op *op = from.front(), *next = nullptr; op && op != fromTerm;
         op = next) {
      next = op->next();
      op->removeFromParent();
      to.insertBefore(anchor, op);
    }
  }

  bool interchangeFor(Op *threadPar, Op *forOp) {
    ForOp f(forOp);
    if (f.numIterArgs() != 0) {
      diag_.error(forOp->loc(),
                  "barrier inside for-loop with loop-carried SSA values");
      return false;
    }
    if (!hoistUniformChain(f.lb(), threadPar) ||
        !hoistUniformChain(f.ub(), threadPar) ||
        !hoistUniformChain(f.step(), threadPar)) {
      diag_.error(forOp->loc(),
                  "barrier inside for-loop with non-uniform bounds");
      return false;
    }

    Builder b;
    b.setInsertionPoint(threadPar);
    ForOp outer = ForOp::create(b, f.lb(), f.ub(), f.step(), {});
    Builder ob(&outer.body());
    std::unordered_map<ValueImpl *, Value> map;
    map[f.iv().impl()] = outer.iv();
    ir::ParallelOp inner = makeSibling(ob, threadPar, map);
    ob.yield({});

    // Inner body: prefix ops + for-body ops.
    Builder ib(&inner.body());
    ib.yield({});
    sinkPrefix(threadPar, forOp, inner.body(), map, /*clone=*/false);
    moveBodyOps(f.body(), inner.body());
    for (Op *op : inner.body())
      remapUses(op, map);

    eraseShell(forOp);
    eraseShell(threadPar);
    return true;
  }

  bool interchangeIf(Op *threadPar, Op *ifOp) {
    IfOp cIf(ifOp);
    if (ifOp->numResults() != 0) {
      diag_.error(ifOp->loc(), "barrier inside if yielding SSA values");
      return false;
    }
    if (!hoistUniformChain(cIf.cond(), threadPar)) {
      diag_.error(ifOp->loc(), "barrier inside if with non-uniform condition");
      return false;
    }

    bool hasElse = cIf.hasElse() &&
                   cIf.elseBlock().front() != cIf.elseBlock().terminator();
    Builder b;
    b.setInsertionPoint(threadPar);
    IfOp outer = IfOp::create(b, cIf.cond(), {}, hasElse);

    {
      Builder tb(&outer.thenBlock());
      std::unordered_map<ValueImpl *, Value> map;
      ir::ParallelOp inner = makeSibling(tb, threadPar, map);
      tb.yield({});
      Builder ib(&inner.body());
      ib.yield({});
      sinkPrefix(threadPar, ifOp, inner.body(), map, /*clone=*/true);
      moveBodyOps(cIf.thenBlock(), inner.body());
      for (Op *op : inner.body())
        remapUses(op, map);
    }
    if (hasElse) {
      Builder eb(&outer.elseBlock());
      std::unordered_map<ValueImpl *, Value> map;
      ir::ParallelOp inner = makeSibling(eb, threadPar, map);
      eb.yield({});
      Builder ib(&inner.body());
      ib.yield({});
      sinkPrefix(threadPar, ifOp, inner.body(), map, /*clone=*/true);
      moveBodyOps(cIf.elseBlock(), inner.body());
      for (Op *op : inner.body())
        remapUses(op, map);
    }

    eraseShell(ifOp);
    eraseShell(threadPar);
    return true;
  }

  bool interchangeWhile(Op *threadPar, Op *whileOp) {
    WhileOp w(whileOp);
    if (whileOp->numOperands() != 0 || whileOp->numResults() != 0) {
      diag_.error(whileOp->loc(),
                  "barrier inside while carrying SSA values");
      return false;
    }
    Op *condTerm = w.before().terminator();
    Value condVal = condTerm->operand(0);

    // Block-level helper holding the first thread's condition (Fig. 8).
    Builder b;
    b.setInsertionPoint(threadPar);
    Value helper = b.allocaMem(Type::memrefScalar(TypeKind::I1));

    WhileOp outer = WhileOp::create(b, {}, {});

    // Before region: parallel { prefix; old-before-ops; if first: store }.
    {
      Builder bb(&outer.before());
      std::unordered_map<ValueImpl *, Value> map;
      ir::ParallelOp inner = makeSibling(bb, threadPar, map);
      Builder ib(&inner.body());
      ib.yield({});
      sinkPrefix(threadPar, whileOp, inner.body(), map, /*clone=*/true);
      moveBodyOps(w.before(), inner.body());
      // Append: if (all ivs == lb) store cond -> helper.
      ir::ParallelOp innerPar(inner.op);
      Builder fb;
      fb.setInsertionPoint(inner.body().terminator());
      Value isFirst = fb.constBool(true);
      for (unsigned i = 0; i < innerPar.numDims(); ++i) {
        Value eq = fb.cmpi(CmpIPred::eq, innerPar.iv(i), innerPar.lb(i));
        isFirst = fb.binary(OpKind::AndI, isFirst, eq);
      }
      IfOp first = IfOp::create(fb, isFirst, {}, false);
      Builder sb(&first.thenBlock());
      sb.store(condVal, helper, {});
      sb.yield({});
      for (Op *op : inner.body())
        remapUses(op, map);
      // After the parallel: reload and emit the condition.
      bb.setInsertionPointToEnd(&outer.before());
      Value c = bb.load(helper, {});
      bb.condition(c, {});
    }
    // After region: parallel { prefix clone; old-after-ops }; yield.
    {
      Builder ab(&outer.after());
      std::unordered_map<ValueImpl *, Value> map;
      ir::ParallelOp inner = makeSibling(ab, threadPar, map);
      ab.yield({});
      Builder ib(&inner.body());
      ib.yield({});
      sinkPrefix(threadPar, whileOp, inner.body(), map, /*clone=*/true);
      moveBodyOps(w.after(), inner.body());
      for (Op *op : inner.body())
        remapUses(op, map);
    }

    eraseShell(whileOp);
    eraseShell(threadPar);
    return true;
  }

  /// Erases a structured op whose regions have been emptied of payload
  /// (only terminators / leftover pure prefix remain).
  void eraseShell(Op *op) {
    // Remaining ops inside must be unused terminators or dead prefix ops;
    // drop them by destroying regions via op->erase(). Results unused.
    assert(!op->hasAnyUse());
    op->erase();
  }

  Op *root_;
  bool useMinCut_;
  DiagnosticEngine &diag_;
};

class CpuifyPass : public FunctionPass {
public:
  CpuifyPass()
      : FunctionPass("cpuify",
                     "lower barriers by fission (min-cut) + interchange"),
        lowered_(&statistic("barriers-lowered")) {
    declareBoolOption("mincut", &useMinCut_, true);
  }

  /// Fission/interchange rewrites the whole parallel nest (and erases
  /// every barrier on success): nothing survives, even "no-op" runs
  /// restructure loop bodies into the cache form. Inherits none().

  bool runOnFunction(Op *func, DiagnosticEngine &diag) override {
    size_t before =
        statisticsEnabled() ? countNestedOps(func, OpKind::Barrier) : 0;
    Cpuify c(func, useMinCut_, diag);
    bool ok = c.run();
    if (statisticsEnabled()) {
      // Count only barriers actually lowered (on failure some remain).
      size_t after = countNestedOps(func, OpKind::Barrier);
      if (before > after)
        *lowered_ += before - after;
    }
    return ok;
  }

private:
  bool useMinCut_ = true;
  Statistic *lowered_;
};

} // namespace

void runCpuify(ModuleOp module, bool useMinCut, DiagnosticEngine &diag) {
  Cpuify c(module.op, useMinCut, diag);
  c.run();
}

std::unique_ptr<Pass> createCpuifyPass(bool useMinCut) {
  auto pass = std::make_unique<CpuifyPass>();
  pass->setOption("mincut", useMinCut ? "true" : "false");
  return pass;
}

} // namespace paralift::transforms
