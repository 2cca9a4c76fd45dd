// Full unrolling of loops with small constant trip counts — the "affine"
// optimization axis of the paper's ablation (Fig. 13 left). The headline
// effect: unrolling a barrier-containing reduction loop (e.g. backprop
// layerforward) turns nested synchronization into straight-line
// barriers, which fission then lowers without interchange, and folds the
// per-iteration `1 << i` / `pow(2, i)` terms into constants.
//
// Counted scf.while loops are raised to scf.for first. The frontend
// lowers any loop that is not `i < n; i++`-shaped, such as the CUDA tree
// reduction `for (s = TB / 2; s > 0; s /= 2)`, to a memory-form while
// whose state lives in rank-0 allocas ("control scalars"). A while with
// no operands or results is raised when:
//  - its `before` region holds only pure ops and loads of control
//    scalars, each a rank-0 alloca in the while's own block used only by
//    loads and stores;
//  - each control scalar is stored exactly once inside the loop, at the
//    top level of the `after` block, with a value computed purely from
//    control-scalar loads and constants;
//  - each control scalar holds a constant on entry, taken from the
//    nearest earlier store in the block with nothing in between that may
//    write it;
//  - running the condition and the updates from those constants (with
//    the VM's integer semantics, ir/intmath.h) ends within the unroll
//    budget.
// The while then becomes `scf.for %k = 0 to N` over the `after` ops,
// which the scf.for unrolling below expands. Every other while is left
// for cpuify's interchange.
#include "ir/builder.h"
#include "ir/intmath.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

#include <algorithm>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

/// Fully unrolls `op`. Caller guarantees a constant, positive trip count.
void unrollFor(Op *op, int64_t lb, int64_t step, int64_t trips) {
  ForOp forOp(op);
  Builder b;
  b.setInsertionPoint(op);

  std::vector<Value> carried;
  for (unsigned i = 0; i < forOp.numIterArgs(); ++i)
    carried.push_back(forOp.init(i));

  for (int64_t t = 0; t < trips; ++t) {
    std::unordered_map<ValueImpl *, Value> map;
    b.setInsertionPoint(op);
    Value ivConst = b.constIndex(lb + t * step);
    map[forOp.iv().impl()] = ivConst;
    for (unsigned i = 0; i < forOp.numIterArgs(); ++i)
      map[forOp.iterArg(i).impl()] = carried[i];
    std::vector<Value> nextCarried;
    for (Op *inner : forOp.body()) {
      if (inner->kind() == OpKind::Yield) {
        for (unsigned i = 0; i < inner->numOperands(); ++i) {
          Value v = inner->operand(i);
          auto it = map.find(v.impl());
          nextCarried.push_back(it == map.end() ? v : it->second);
        }
        break;
      }
      Op *clone = cloneOp(inner, map);
      op->parent()->insertBefore(op, clone);
    }
    carried = nextCarried;
  }
  for (unsigned i = 0; i < op->numResults(); ++i)
    op->result(i).replaceAllUsesWith(carried[i]);
  op->erase();
}

/// Unroll budget for `loop`: barrier-containing loops get a higher one,
/// since removing nested synchronization is worth the code growth.
int64_t tripBudget(Op *loop, int64_t maxTrip) {
  return containsBarrier(loop) ? std::max<int64_t>(maxTrip, 32) : maxTrip;
}

/// Evaluates pure integer values with the VM's semantics (ir/intmath.h),
/// where recorded loads read fixed values. Results are memoized until
/// clear(), so a shared subexpression is evaluated once.
class IntEvaluator {
public:
  void clear() {
    loads_.clear();
    memo_.clear();
  }
  void record(Op *load, int64_t value) { loads_[load] = value; }

  /// Nullopt unless `v` is a pure function of recorded loads and
  /// constants.
  std::optional<int64_t> eval(Value v) {
    if (auto it = memo_.find(v.impl()); it != memo_.end())
      return it->second;
    std::optional<int64_t> r = compute(v);
    memo_[v.impl()] = r;
    return r;
  }

private:
  std::optional<int64_t> compute(Value v) {
    Op *def = v.definingOp();
    if (!def)
      return std::nullopt;
    TypeKind t = v.type().kind();
    switch (def->kind()) {
    case OpKind::ConstInt:
      return def->attrs().getInt("value");
    case OpKind::Load: {
      auto it = loads_.find(def);
      if (it == loads_.end())
        return std::nullopt;
      return it->second;
    }
    case OpKind::AddI: case OpKind::SubI: case OpKind::MulI:
    case OpKind::DivSI: case OpKind::RemSI: case OpKind::AndI:
    case OpKind::OrI: case OpKind::XOrI: case OpKind::ShLI:
    case OpKind::ShRSI: case OpKind::MinSI: case OpKind::MaxSI: {
      auto a = eval(def->operand(0));
      auto b = a ? eval(def->operand(1)) : std::nullopt;
      if (!b)
        return std::nullopt;
      return intmath::truncate(t, intmath::binary(def->kind(), *a, *b));
    }
    case OpKind::CmpI: {
      auto a = eval(def->operand(0));
      auto b = a ? eval(def->operand(1)) : std::nullopt;
      if (!b)
        return std::nullopt;
      auto pred = static_cast<CmpIPred>(def->attrs().getInt("pred"));
      return intmath::compare(pred, *a, *b) ? 1 : 0;
    }
    case OpKind::Select: {
      auto c = eval(def->operand(0));
      if (!c)
        return std::nullopt;
      return eval(def->operand(*c ? 1 : 2));
    }
    case OpKind::IndexCast:
    case OpKind::ExtSI:
    case OpKind::TruncI: {
      auto a = eval(def->operand(0));
      if (!a)
        return std::nullopt;
      return intmath::truncate(t, *a);
    }
    default:
      return std::nullopt;
    }
  }

  std::unordered_map<Op *, int64_t> loads_;
  std::unordered_map<ValueImpl *, std::optional<int64_t>> memo_;
};

/// The rank-0 alloca in `block` that `load` reads, or nullptr.
Op *controlScalarOf(Op *load, Block *block) {
  if (load->kind() != OpKind::Load || load->numOperands() != 1)
    return nullptr;
  Op *alloca = load->operand(0).definingOp();
  if (!alloca || alloca->kind() != OpKind::Alloca ||
      alloca->parent() != block || alloca->result().type().rank() != 0)
    return nullptr;
  return alloca;
}

/// The constant `mem` holds right before `op`: the value of the nearest
/// earlier store in `op`'s block, if nothing in between may write `mem`.
std::optional<int64_t> constantBefore(Op *op, Value mem) {
  for (Op *cur = op->prev(); cur && cur != mem.definingOp();
       cur = cur->prev()) {
    if (cur->kind() == OpKind::Store && cur->operand(1) == mem)
      return getConstInt(cur->operand(0));
    for (auto &[user, idx] : mem.uses())
      if (user->kind() == OpKind::Store && cur->isAncestorOf(user))
        return std::nullopt;
  }
  return std::nullopt;
}

/// The trip count of `whileOp` if it is a counted loop over control
/// scalars (see the header comment) that ends within `budget` trips.
std::optional<int64_t> countedWhileTrips(Op *whileOp, int64_t budget) {
  if (whileOp->numOperands() != 0 || whileOp->numResults() != 0)
    return std::nullopt;
  WhileOp loop(whileOp);
  Block *block = whileOp->parent();
  Op *cond = loop.before().terminator();
  if (!cond || cond->kind() != OpKind::Condition || cond->numOperands() != 1)
    return std::nullopt;

  // The condition: pure ops over loads of control scalars.
  std::unordered_map<Op *, int64_t> state; // control scalar -> its value
  std::vector<std::pair<Op *, Op *>> condLoads; // (load, control scalar)
  for (Op *op : loop.before()) {
    if (op == cond)
      continue;
    if (Op *alloca = controlScalarOf(op, block)) {
      condLoads.push_back({op, alloca});
      state[alloca] = 0;
    } else if (!isPure(op->kind()) || op->numRegions() != 0) {
      return std::nullopt;
    }
  }
  if (state.empty())
    return std::nullopt;

  // Each control scalar: loads and stores only, one store in the loop at
  // the top level of `after`, and a constant on entry.
  std::unordered_set<Op *> updates;
  for (auto &[alloca, value] : state) {
    Value mem = alloca->result();
    Op *update = nullptr;
    for (auto &[user, idx] : mem.uses()) {
      bool isStore = user->kind() == OpKind::Store && idx == 1;
      if (user->kind() != OpKind::Load && !isStore)
        return std::nullopt;
      if (!isStore || !whileOp->isAncestorOf(user))
        continue;
      if (update || user->parent() != &loop.after())
        return std::nullopt;
      update = user;
    }
    std::optional<int64_t> entry = constantBefore(whileOp, mem);
    if (!update || !entry)
      return std::nullopt;
    updates.insert(update);
    value = *entry;
  }

  // A trip of `after` as far as the control scalars see it: their
  // top-level loads and their updates, in block order.
  std::vector<std::pair<Op *, Op *>> tripSteps; // (load or update, scalar)
  for (Op *op : loop.after()) {
    if (Op *alloca = controlScalarOf(op, block); alloca && state.count(alloca))
      tripSteps.push_back({op, alloca});
    else if (updates.count(op))
      tripSteps.push_back({op, op->operand(1).definingOp()});
  }

  // Run the loop on the constants: each load reads the value its scalar
  // holds at that point of the trip.
  IntEvaluator eval;
  for (int64_t trips = 0;; ++trips) {
    eval.clear();
    for (auto &[load, alloca] : condLoads)
      eval.record(load, state[alloca]);
    auto go = eval.eval(cond->operand(0));
    if (!go)
      return std::nullopt;
    if (!*go)
      return trips;
    if (trips == budget)
      return std::nullopt;
    eval.clear();
    for (auto &[op, alloca] : tripSteps) {
      if (op->kind() == OpKind::Load) {
        eval.record(op, state[alloca]);
        continue;
      }
      auto v = eval.eval(op->operand(0));
      if (!v)
        return std::nullopt;
      state[alloca] = *v;
    }
  }
}

/// Replaces the counted `whileOp` by `scf.for %k = 0 to trips` whose body
/// is the while's `after` block (the `before` region is pure and is
/// dropped).
void raiseWhile(Op *whileOp, int64_t trips) {
  Builder b;
  b.setInsertionPoint(whileOp);
  ForOp forOp = ForOp::create(b, b.constIndex(0), b.constIndex(trips),
                              b.constIndex(1));
  Block &after = WhileOp(whileOp).after();
  while (Op *inner = after.front()) {
    inner->removeFromParent();
    forOp.body().push_back(inner);
  }
  whileOp->erase();
}

unsigned unrollRoot(Op *root, int64_t maxTrip) {
  unsigned unrolled = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    std::vector<Op *> loops;
    root->walk([&](Op *op) {
      if (op->kind() == OpKind::ScfFor || op->kind() == OpKind::ScfWhile)
        loops.push_back(op);
    });
    for (Op *op : loops) {
      if (op->kind() == OpKind::ScfWhile) {
        auto trips = countedWhileTrips(op, tripBudget(op, maxTrip));
        if (!trips)
          continue;
        // A zero-trip while only evaluates its pure condition: drop it.
        // Otherwise the raised loop is unrolled next round.
        if (*trips == 0) {
          op->erase();
          ++unrolled;
        } else {
          raiseWhile(op, *trips);
        }
        changed = true;
        break; // re-collect
      }
      ForOp forOp(op);
      auto lb = getConstInt(forOp.lb());
      auto ub = getConstInt(forOp.ub());
      auto step = getConstInt(forOp.step());
      if (!lb || !ub || !step)
        continue;
      auto trips = intmath::tripCount(*lb, *ub, *step);
      if (!trips || *trips == 0 || *trips > tripBudget(op, maxTrip))
        continue;
      unrollFor(op, *lb, *step, *trips);
      ++unrolled;
      changed = true;
      break; // re-collect: nested loops may have been cloned
    }
  }
  return unrolled;
}

class UnrollPass : public FunctionPass {
public:
  UnrollPass()
      : FunctionPass("unroll", "raise counted scf.while loops and fully "
                               "unroll constant-trip loops"),
        unrolled_(&statistic("loops-unrolled")) {
    declareIntOption("max-trip", &maxTrip_, 8, /*min=*/0,
                     /*max=*/1 << 20);
  }

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    unsigned unrolled = unrollRoot(func, maxTrip_);
    *unrolled_ += unrolled;
    if (unrolled)
      noteIRChanged();
    return true;
  }

  bool tracksIRChange() const override { return true; }

private:
  int64_t maxTrip_ = 8;
  Statistic *unrolled_;
};

} // namespace

void runUnroll(ModuleOp module, int64_t maxTrip) {
  unrollRoot(module.op, maxTrip);
}

std::unique_ptr<Pass> createUnrollPass(int64_t maxTrip) {
  auto pass = std::make_unique<UnrollPass>();
  pass->setOption("max-trip", std::to_string(maxTrip));
  return pass;
}

} // namespace paralift::transforms
