// Lowering of scf.parallel to the OpenMP-like dialect (§IV-D):
//   - collapse of grid x block loops into one parallel loop when the grid
//     body holds no shared memory. When the body uses each grid IV bx and
//     its block IV tx only as `bx * B + tx` (B the block extent, in index
//     or i32 form), the pair becomes one linear dimension t over
//     [0, G * B): CUDA's global thread index. The range analysis must
//     prove G * B cannot overflow and, for the i32 form, that every t
//     fits i32, so `i32(bx) * B + i32(tx)` is exactly i32(t);
//     canonicalize then folds a `t < n` guard into the loop's bound,
//     which it could not do on the block loop without making the block
//     bound depend on bx (and so stopping the collapse),
//   - omp.parallel { omp.wsloop } structure for outer loops,
//   - parallel-region fusion across adjacent regions (Fig. 10), also
//     across the read-only serial code between them,
//   - parallel-region hoisting out of serial for loops (Fig. 11),
//   - inner serialization: nested (block-level) scf.parallel loops become
//     serial scf.for nests (PolygeistInnerSer) or nested omp regions
//     (PolygeistInnerPar).
#include "analysis/int_range.h"
#include "analysis/memory.h"
#include "ir/builder.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

#include <algorithm>
#include <climits>
#include <optional>
#include <unordered_map>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

/// Moves all ops of `from` except its terminator before `anchor`.
void spliceBefore(Block &from, Block &to, Op *anchor) {
  Op *term = from.terminator();
  for (Op *op = from.front(), *next = nullptr; op && op != term; op = next) {
    next = op->next();
    op->removeFromParent();
    to.insertBefore(anchor, op);
  }
}

void remapUses(Op *op, const std::unordered_map<ValueImpl *, Value> &map) {
  op->walk([&](Op *inner) {
    for (unsigned i = 0; i < inner->numOperands(); ++i) {
      auto it = map.find(inner->operand(i).impl());
      if (it != map.end())
        inner->setOperand(i, it->second);
    }
  });
}

/// The ops computing `bx * B + tx` from grid IV `bx` and block IV `tx`,
/// where B is the block loop's ub `extent`: the adds (i32 or index), and
/// the muls and i32 casts that feed only them.
struct LinearIndex {
  std::vector<Op *> adds, muls, casts;
};

/// Whether `v` is the block extent: its ub, an i32 cast of it, or a
/// constant of the same value.
bool isExtent(Value v, Value extent) {
  if (Op *def = v.definingOp(); def && def->kind() == OpKind::IndexCast)
    v = def->operand(0);
  auto c = getConstInt(v), e = getConstInt(extent);
  return v == extent || (c && e && *c == *e);
}

/// If every use of `bx` and `tx` is part of `bx * B + tx`, in index form
/// or through their i32 casts, the ops that compute it.
std::optional<LinearIndex> matchLinearIndex(Value bx, Value tx,
                                            Value extent) {
  LinearIndex li;
  // Every form of bx (the IV and its i32 casts) is multiplied by B, and
  // every product is added to the same form of tx.
  auto isTxForm = [&](Value v) {
    Op *def = v.definingOp();
    return v == tx || (def && def->kind() == OpKind::IndexCast &&
                       def->operand(0) == tx);
  };
  std::vector<Value> bxForms{bx};
  for (auto &[user, idx] : bx.uses())
    if (user->kind() == OpKind::IndexCast &&
        user->result().type() == Type::i32()) {
      li.casts.push_back(user);
      bxForms.push_back(user->result());
    }
  for (Value form : bxForms)
    for (auto &[mul, idx] : form.uses()) {
      if (form == bx && mul->kind() == OpKind::IndexCast &&
          mul->result().type() == Type::i32())
        continue; // a form recorded above
      if (mul->kind() != OpKind::MulI || !isExtent(mul->operand(1 - idx), extent))
        return std::nullopt;
      li.muls.push_back(mul);
      for (auto &[add, j] : mul->result().uses()) {
        if (add->kind() != OpKind::AddI || !isTxForm(add->operand(1 - j)))
          return std::nullopt;
        li.adds.push_back(add);
      }
    }
  auto isAdd = [&](Op *op) {
    return std::find(li.adds.begin(), li.adds.end(), op) != li.adds.end();
  };
  for (auto &[user, idx] : tx.uses()) {
    if (isAdd(user))
      continue;
    if (user->kind() != OpKind::IndexCast ||
        user->result().type() != Type::i32())
      return std::nullopt;
    for (auto &[add, j] : user->result().uses())
      if (!isAdd(add))
        return std::nullopt;
    li.casts.push_back(user);
  }
  if (li.adds.empty())
    return std::nullopt;
  return li;
}

/// Whether every grid dimension i of `grid` pairs with block dimension i
/// of `inner` as `bx * B + tx` (matchLinearIndex), both loops from 0 by
/// 1, and the range analysis proves that G * B cannot overflow and, for
/// an i32 index, that every linear index fits i32, so its i32 value is
/// exactly `i32(bx) * B + i32(tx)`.
bool matchLinearNest(ParallelOp grid, ParallelOp inner,
                     std::vector<LinearIndex> &pairs) {
  if (grid.numDims() != inner.numDims())
    return false;
  for (unsigned i = 0; i < grid.numDims(); ++i) {
    for (ParallelOp loop : {grid, inner})
      if (getConstInt(loop.lb(i)) != 0 || getConstInt(loop.step(i)) != 1)
        return false;
    analysis::IntRange g = analysis::intRange(grid.ub(i));
    analysis::IntRange b = analysis::intRange(inner.ub(i));
    int64_t corner;
    if (b.lo < 0 || __builtin_mul_overflow(g.lo, b.hi, &corner) ||
        __builtin_mul_overflow(g.hi, b.hi, &corner))
      return false;
    std::optional<LinearIndex> li =
        matchLinearIndex(grid.iv(i), inner.iv(i), inner.ub(i));
    if (!li)
      return false;
    bool i32 = std::any_of(li->adds.begin(), li->adds.end(), [](Op *add) {
      return add->result().type() == Type::i32();
    });
    if (i32 && corner > int64_t(INT32_MAX) + 1)
      return false;
    pairs.push_back(std::move(*li));
  }
  return true;
}

/// Grid parallel whose body is { pure ops...; thread-parallel; yield }
/// with thread bounds defined outside: merge into a single scf.parallel
/// (pure prefix ops — e.g. LICM-hoisted index math — sink into the
/// merged body). When the body uses each grid IV and its block IV only
/// as `bx * B + tx` (matchLinearNest), each pair becomes one dimension
/// over [0, G * B) whose IV t is that index; otherwise the merged loop
/// has the grid dimensions, then the block ones.
bool collapseOne(Op *gridOp) {
  Block &gridBody = gridOp->region(0).front();
  Op *first = gridBody.front();
  // Skip a pure regionless prefix.
  std::vector<Op *> prefix;
  while (first && isPure(first->kind()) && first->numRegions() == 0) {
    prefix.push_back(first);
    first = first->next();
  }
  if (!first || first->kind() != OpKind::ScfParallel ||
      first->next() != gridBody.terminator())
    return false;
  ir::ParallelOp grid(gridOp), inner(first);
  for (unsigned i = 0; i < inner.op->numOperands(); ++i)
    if (!isDefinedOutside(inner.op->operand(i), gridOp))
      return false;

  std::vector<LinearIndex> pairs;
  bool linear = matchLinearNest(grid, inner, pairs);
  Builder b;
  std::vector<Value> lbs, ubs, steps;
  for (unsigned i = 0; i < grid.numDims(); ++i) {
    lbs.push_back(grid.lb(i));
    ubs.push_back(grid.ub(i));
    steps.push_back(grid.step(i));
    if (linear) {
      // G * B goes where both are defined, so a host loop's body is still
      // the region alone for hoisting.
      b.setInsertionPoint(
          outermostScopeOutside(gridOp, {grid.ub(i), inner.ub(i)}));
      ubs.back() = b.muli(grid.ub(i), inner.ub(i));
    }
  }
  b.setInsertionPoint(gridOp);
  for (unsigned i = 0; i < inner.numDims() && !linear; ++i) {
    lbs.push_back(inner.lb(i));
    ubs.push_back(inner.ub(i));
    steps.push_back(inner.step(i));
  }
  ir::ParallelOp merged =
      ir::ParallelOp::create(b, OpKind::ScfParallel, lbs, ubs, steps);
  merged.op->attrs().set("gpu.grid", true);
  Builder mb(&merged.body());
  mb.yield({});
  // Move the pure prefix first, then the thread body.
  for (Op *op : prefix) {
    op->removeFromParent();
    merged.body().insertBefore(merged.body().terminator(), op);
  }
  spliceBefore(inner.body(), merged.body(), merged.body().terminator());
  if (linear) {
    // t, and its i32 cast, replace each `bx * B + tx`.
    for (unsigned i = 0; i < pairs.size(); ++i) {
      mb.setInsertionPoint(merged.body().front());
      Value t = merged.iv(i), t32;
      for (Op *add : pairs[i].adds) {
        if (add->result().type() == Type::i32() && !t32)
          t32 = mb.cast(OpKind::IndexCast, t, Type::i32());
        add->result().replaceAllUsesWith(add->result().type() == Type::i32()
                                             ? t32
                                             : t);
      }
      for (auto *ops : {&pairs[i].adds, &pairs[i].muls, &pairs[i].casts})
        for (Op *op : *ops)
          op->erase();
    }
  } else {
    std::unordered_map<ValueImpl *, Value> map;
    for (unsigned i = 0; i < grid.numDims(); ++i)
      map[grid.iv(i).impl()] = merged.iv(i);
    for (unsigned i = 0; i < inner.numDims(); ++i)
      map[inner.iv(i).impl()] = merged.iv(grid.numDims() + i);
    for (Op *op : merged.body())
      remapUses(op, map);
  }
  first->erase();
  gridOp->erase();
  return true;
}

/// Rewrites a scf.parallel as omp.parallel { omp.wsloop }.
void toOmp(Op *parOp) {
  ir::ParallelOp par(parOp);
  Builder b;
  b.setInsertionPoint(parOp);
  OmpParallelOp region = OmpParallelOp::create(b);
  Builder rb(&region.body());
  std::vector<Value> lbs, ubs, steps;
  for (unsigned i = 0; i < par.numDims(); ++i) {
    lbs.push_back(par.lb(i));
    ubs.push_back(par.ub(i));
    steps.push_back(par.step(i));
  }
  ir::ParallelOp ws =
      ir::ParallelOp::create(rb, OpKind::OmpWsLoop, lbs, ubs, steps);
  rb.yield({});
  std::unordered_map<ValueImpl *, Value> map;
  for (unsigned i = 0; i < par.numDims(); ++i)
    map[par.iv(i).impl()] = ws.iv(i);
  Builder wb(&ws.body());
  wb.yield({});
  spliceBefore(parOp->region(0).front(), ws.body(),
               ws.body().terminator());
  for (Op *op : ws.body())
    remapUses(op, map);
  parOp->erase();
}

/// Rewrites a scf.parallel as a serial scf.for nest.
void serialize(Op *parOp) {
  ir::ParallelOp par(parOp);
  Builder b;
  b.setInsertionPoint(parOp);
  std::unordered_map<ValueImpl *, Value> map;
  Block *innerBlock = nullptr;
  for (unsigned i = 0; i < par.numDims(); ++i) {
    ForOp loop = ForOp::create(b, par.lb(i), par.ub(i), par.step(i), {});
    map[par.iv(i).impl()] = loop.iv();
    Builder body(&loop.body());
    body.yield({});
    innerBlock = &loop.body();
    b.setInsertionPoint(innerBlock->terminator());
  }
  spliceBefore(parOp->region(0).front(), *innerBlock,
               innerBlock->terminator());
  for (Op *op : *innerBlock)
    remapUses(op, map);
  parOp->erase();
}

/// May `second` write memory that `moved` reads?
bool clobbersReads(const std::vector<Op *> &moved, Op *second) {
  std::vector<analysis::MemoryEffect> reads, writes;
  for (Op *m : moved)
    analysis::getEffectsRecursive(m, reads);
  analysis::getEffectsRecursive(second, writes);
  for (auto &w : writes) {
    if (w.kind == analysis::EffectKind::Read)
      continue;
    for (auto &r : reads)
      if (!w.base || !r.base || analysis::mayAlias(w.base, r.base))
        return true;
  }
  return false;
}

/// Fig. 10: fuse adjacent omp.parallel siblings, inserting an omp.barrier
/// between their bodies. Between the two regions there may be:
///  - pure ops, which move above the first region so they stay visible
///    to both;
///  - read-only serial ops (analysis::isReadOnlySerial), with the pure ops
///    that depend on them, whose results are used only by each other or
///    inside the second region. They move into the fused region after
///    the barrier, where every thread runs them, followed by a second
///    omp.barrier if the second body may write memory they read.
bool fuseAdjacent(Block &block) {
  for (Op *op = block.front(); op; op = op->next()) {
    if (op->kind() != OpKind::OmpParallel)
      continue;
    std::vector<Op *> hoisted, moved;
    auto dependsOnMoved = [&](Op *cur) {
      for (unsigned i = 0; i < cur->numOperands(); ++i)
        if (std::find(moved.begin(), moved.end(),
                      cur->operand(i).definingOp()) != moved.end())
          return true;
      return false;
    };
    Op *second = nullptr;
    for (Op *cur = op->next(); cur; cur = cur->next()) {
      if (cur->kind() == OpKind::OmpParallel) {
        second = cur;
        break;
      }
      bool pure = isPure(cur->kind()) && cur->numRegions() == 0;
      if (pure && !dependsOnMoved(cur))
        hoisted.push_back(cur);
      else if (pure || analysis::isReadOnlySerial(cur))
        moved.push_back(cur);
      else
        break;
    }
    if (!second)
      continue;
    // Moved results stay inside the fused region.
    bool contained = std::all_of(moved.begin(), moved.end(), [&](Op *m) {
      for (unsigned r = 0; r < m->numResults(); ++r)
        for (auto &use : m->result(r).uses())
          if (!second->isAncestorOf(use.first) &&
              std::find(moved.begin(), moved.end(), use.first) ==
                  moved.end())
            return false;
      return true;
    });
    if (!contained)
      continue;
    for (Op *p : hoisted)
      p->moveBefore(op);
    Block &firstBody = op->region(0).front();
    Op *end = firstBody.terminator();
    Builder b;
    b.setInsertionPoint(end);
    b.createOp(OpKind::OmpBarrier, {}, {});
    for (Op *m : moved)
      m->moveBefore(end);
    if (!moved.empty() && clobbersReads(moved, second))
      b.createOp(OpKind::OmpBarrier, {}, {});
    spliceBefore(second->region(0).front(), firstBody, end);
    second->erase();
    return true;
  }
  return false;
}

/// Fig. 11: hoist omp.parallel out of a serial scf.for whose body is
/// exactly { omp.parallel; yield }.
bool hoistOne(Op *forOp) {
  ForOp f(forOp);
  if (f.numIterArgs() != 0)
    return false;
  Block &body = f.body();
  Op *inner = body.front();
  if (!inner || inner->kind() != OpKind::OmpParallel ||
      inner->next() != body.terminator())
    return false;
  // All loop bounds already dominate the loop. Build:
  // omp.parallel { scf.for { <inner body>; omp.barrier } }
  Builder b;
  b.setInsertionPoint(forOp);
  OmpParallelOp region = OmpParallelOp::create(b);
  Builder rb(&region.body());
  ForOp newFor = ForOp::create(rb, f.lb(), f.ub(), f.step(), {});
  rb.yield({});
  Builder fb(&newFor.body());
  fb.yield({});
  std::unordered_map<ValueImpl *, Value> map;
  map[f.iv().impl()] = newFor.iv();
  spliceBefore(inner->region(0).front(), newFor.body(),
               newFor.body().terminator());
  Builder bb;
  bb.setInsertionPoint(newFor.body().terminator());
  bb.createOp(OpKind::OmpBarrier, {}, {});
  for (Op *op : newFor.body())
    remapUses(op, map);
  inner->erase();
  forOp->erase();
  return true;
}

} // namespace

namespace {

void ompLowerRoot(Op *root, const OmpLowerOptions &opts) {
  // 1. Collapse grid x block where possible.
  if (opts.collapse) {
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<Op *> grids;
      root->walk([&](Op *op) {
        if (op->kind() == OpKind::ScfParallel &&
            op->attrs().getBool("gpu.grid"))
          grids.push_back(op);
      });
      for (Op *g : grids)
        if (collapseOne(g)) {
          changed = true;
          break;
        }
    }
  }

  // 2. Outermost scf.parallel -> omp.parallel + wsloop.
  {
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<Op *> outers;
      root->walk([&](Op *op) {
        if (op->kind() == OpKind::ScfParallel &&
            !getEnclosing(op, OpKind::ScfParallel) &&
            !getEnclosing(op, OpKind::OmpParallel))
          outers.push_back(op);
      });
      for (Op *p : outers) {
        toOmp(p);
        changed = true;
        break; // re-walk; op pointers invalidated
      }
    }
  }

  // 3. Nested scf.parallel: serialize or lower to nested omp regions.
  {
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<Op *> inners;
      root->walk([&](Op *op) {
        if (op->kind() == OpKind::ScfParallel)
          inners.push_back(op);
      });
      for (Op *p : inners) {
        if (opts.innerSerialize || opts.outerOnly)
          serialize(p);
        else
          toOmp(p);
        changed = true;
        break;
      }
    }
  }

  // 4. OpenMP region optimizations.
  if (opts.fuseRegions) {
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
        if (fuseAdjacent(*b)) {
          changed = true;
          break;
        }
    }
  }
  if (opts.hoistRegions) {
    bool changed = true;
    while (changed) {
      changed = false;
      std::vector<Op *> fors;
      root->walk([&](Op *op) {
        if (op->kind() == OpKind::ScfFor &&
            !getEnclosing(op, OpKind::OmpParallel))
          fors.push_back(op);
      });
      for (Op *f : fors)
        if (hoistOne(f)) {
          changed = true;
          break;
        }
    }
  }
}

class OmpLowerPass : public FunctionPass {
public:
  OmpLowerPass()
      : FunctionPass("omp-lower",
                     "lower scf.parallel to omp with fusion/hoist/collapse"),
        regions_(&statistic("omp-regions")) {
    declareBoolOption("collapse", &opts_.collapse, true);
    declareBoolOption("fuse", &opts_.fuseRegions, true);
    declareBoolOption("hoist", &opts_.hoistRegions, true);
    declareBoolOption("inner-serialize", &opts_.innerSerialize, true);
    declareBoolOption("outer-only", &opts_.outerOnly, false);
  }

  /// Lowering replaces scf.parallel with omp regions wholesale (the
  /// gpu.block parallels the affine analysis tracks disappear).
  /// Inherits none().

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    size_t before =
        statisticsEnabled() ? countNestedOps(func, OpKind::OmpParallel) : 0;
    ompLowerRoot(func, opts_);
    if (statisticsEnabled()) {
      // Delta, not total: a re-run must not re-count existing regions.
      size_t after = countNestedOps(func, OpKind::OmpParallel);
      if (after > before)
        *regions_ += after - before;
    }
    return true;
  }

private:
  OmpLowerOptions opts_;
  Statistic *regions_;
};

} // namespace

void runOmpLower(ModuleOp module, const OmpLowerOptions &opts) {
  ompLowerRoot(module.op, opts);
}

std::unique_ptr<Pass> createOmpLowerPass(const OmpLowerOptions &opts) {
  auto pass = std::make_unique<OmpLowerPass>();
  auto setBool = [&pass](const char *key, bool v) {
    pass->setOption(key, v ? "true" : "false");
  };
  setBool("collapse", opts.collapse);
  setBool("fuse", opts.fuseRegions);
  setBool("hoist", opts.hoistRegions);
  setBool("inner-serialize", opts.innerSerialize);
  setBool("outer-only", opts.outerOnly);
  return pass;
}

} // namespace paralift::transforms
