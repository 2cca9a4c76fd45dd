// Canonicalization: constant folding (integer, float, and math ops),
// algebraic identities, folding of structured control flow with constant
// conditions/trip counts, and dead code elimination. Runs to fixpoint.
#include "analysis/memory.h"
#include "ir/builder.h"
#include "ir/intmath.h"
#include "ir/ophelpers.h"
#include "transforms/passes.h"

#include <cmath>

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
/// Structural: folding an operand of a non-affine expression to a
/// constant can make an access index newly decomposable (e.g.
/// muli(%tid, addi(2,3)) -> muli(%tid, 5)), flipping thread-privacy and
/// barrier-redundancy verdicts.
void replaceWithConstInt(Op *op, int64_t v, bool &structural) {
  structural = true;
  Builder b;
  b.setInsertionPoint(op);
  Type t = op->result().type();
  Value c = b.constInt(intmath::truncate(t.kind(), v), t);
  op->result().replaceAllUsesWith(c);
  op->erase();
}

void replaceWithConstFloat(Op *op, double v, bool &structural) {
  structural = true;
  Builder b;
  b.setInsertionPoint(op);
  if (op->result().type() == Type::f32())
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

/// One canonicalization attempt on `op`. Returns true if IR changed
/// (including erasure of `op`). Sets `structural` for folds that can
/// change analysis results: anything that destroys/restructures regions,
/// erases memory ops, redirects uses to an *existing* value (merging SSA
/// identities changes syntactic access equality, the §IV-B/§IV-A rules),
/// or replaces a value with a fresh constant (which can make an index
/// expression newly affine-decomposable). The only analysis-invariant
/// rewrite is DCE of pure region-less ops.
bool canonicalizeOp(Op *op, bool &structural) {
  OpKind k = op->kind();

  // DCE: pure op with no uses.
  if (isPure(k) && !op->hasAnyUse()) {
    op->erase();
    return true;
  }
  // Allocation with no uses.
  if ((k == OpKind::Alloca || k == OpKind::Alloc) && !op->hasAnyUse()) {
    structural = true;
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
      replaceWithConstInt(op, intmath::binary(k, *c0, *c1), structural);
      return true;
    }
    // Identities.
    if (c1 && *c1 == 0 && (k == OpKind::AddI || k == OpKind::SubI ||
                           k == OpKind::ShLI || k == OpKind::ShRSI ||
                           k == OpKind::OrI || k == OpKind::XOrI)) {
      structural = true;
      op->result().replaceAllUsesWith(op->operand(0));
      op->erase();
      return true;
    }
    if (c0 && *c0 == 0 && k == OpKind::AddI) {
      structural = true;
      op->result().replaceAllUsesWith(op->operand(1));
      op->erase();
      return true;
    }
    if (c1 && *c1 == 1 && (k == OpKind::MulI || k == OpKind::DivSI)) {
      structural = true;
      op->result().replaceAllUsesWith(op->operand(0));
      op->erase();
      return true;
    }
    if (c0 && *c0 == 1 && k == OpKind::MulI) {
      structural = true;
      op->result().replaceAllUsesWith(op->operand(1));
      op->erase();
      return true;
    }
    if (((c0 && *c0 == 0) || (c1 && *c1 == 0)) &&
        (k == OpKind::MulI || k == OpKind::AndI)) {
      replaceWithConstInt(op, 0, structural);
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
      replaceWithConstFloat(op, foldFloatBinary(k, *c0, *c1), structural);
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
      replaceWithConstFloat(op, foldFloatUnary(k, *c), structural);
      return true;
    }
    return false;
  }
  case OpKind::CmpI: {
    auto c0 = getConstInt(op->operand(0));
    auto c1 = getConstInt(op->operand(1));
    if (c0 && c1) {
      auto pred = static_cast<CmpIPred>(op->attrs().getInt("pred"));
      replaceWithConstInt(op, intmath::compare(pred, *c0, *c1) ? 1 : 0,
                          structural);
      return true;
    }
    return false;
  }
  case OpKind::CmpF: {
    auto c0 = getConstFloat(op->operand(0));
    auto c1 = getConstFloat(op->operand(1));
    if (c0 && c1) {
      auto pred = static_cast<CmpFPred>(op->attrs().getInt("pred"));
      replaceWithConstInt(op, foldCmpF(pred, *c0, *c1) ? 1 : 0, structural);
      return true;
    }
    return false;
  }
  case OpKind::Select: {
    if (auto c = getConstInt(op->operand(0))) {
      structural = true;
      op->result().replaceAllUsesWith(op->operand(*c ? 1 : 2));
      op->erase();
      return true;
    }
    if (op->operand(1) == op->operand(2)) {
      structural = true;
      op->result().replaceAllUsesWith(op->operand(1));
      op->erase();
      return true;
    }
    return false;
  }
  case OpKind::SIToFP: {
    if (auto c = getConstInt(op->operand(0))) {
      replaceWithConstFloat(op, static_cast<double>(*c), structural);
      return true;
    }
    return false;
  }
  case OpKind::FPToSI: {
    if (auto c = getConstFloat(op->operand(0))) {
      replaceWithConstInt(op, static_cast<int64_t>(*c), structural);
      return true;
    }
    return false;
  }
  case OpKind::IndexCast:
  case OpKind::ExtSI:
  case OpKind::TruncI: {
    if (auto c = getConstInt(op->operand(0))) {
      replaceWithConstInt(op, *c, structural);
      return true;
    }
    // Fold cast-of-cast to the same type as the original value.
    if (Op *def = op->operand(0).definingOp())
      if ((def->kind() == OpKind::IndexCast || def->kind() == OpKind::ExtSI) &&
          def->operand(0).type() == op->result().type()) {
        structural = true;
        op->result().replaceAllUsesWith(def->operand(0));
        op->erase();
        return true;
      }
    return false;
  }
  case OpKind::FPExt:
  case OpKind::FPTrunc: {
    if (auto c = getConstFloat(op->operand(0))) {
      replaceWithConstFloat(op, *c, structural);
      return true;
    }
    return false;
  }
  case OpKind::ScfIf: {
    // Fold a constant condition by inlining the taken branch.
    if (auto c = getConstInt(op->operand(0))) {
      structural = true;
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
      structural = true; // the branches may still hold barriers/regions
      op->erase();
      return true;
    }
    return false;
  }
  case OpKind::ScfFor: {
    auto lb = getConstInt(ForOp(op).lb());
    auto ub = getConstInt(ForOp(op).ub());
    auto step = getConstInt(ForOp(op).step());
    // Zero-trip loop: results are the inits.
    if (lb && ub && *lb >= *ub) {
      structural = true;
      ForOp f(op);
      for (unsigned i = 0; i < f.numIterArgs(); ++i)
        op->result(i).replaceAllUsesWith(f.init(i));
      op->erase();
      return true;
    }
    // Single-trip loop: inline the body.
    if (lb && ub && step && *lb + *step >= *ub) {
      structural = true;
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
      structural = true; // the body may still hold barriers/parallels
      op->erase();
      return true;
    }
    return false;
  }
  case OpKind::ScfParallel: {
    // DCE for empty parallel bodies (only the yield remains).
    Block &body = op->region(0).front();
    if (body.front() == body.terminator()) {
      structural = true;
      op->erase();
      return true;
    }
    return false;
  }
  case OpKind::SubView: {
    // subview with zero indices is the identity.
    if (op->numOperands() == 1) {
      structural = true; // merges memref identities
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

/// Runs canonicalization to fixpoint; returns whether any structural
/// (analysis-affecting) fold fired. `changedAny` (optional) additionally
/// reports whether *any* fold fired, structural or not — the exact
/// per-call signal repeat{until=fixpoint} consumes (non-structural folds
/// like pure DCE still change the IR).
bool canonicalizeRoot(Op *root, bool *changedAny = nullptr) {
  bool structural = false;
  bool ever = false;
  bool changed = true;
  while (changed) {
    changed = false;
    // Post-order so producers are folded before consumers retry, and so
    // erasing an op whose operands become dead is picked up next round.
    root->walkPostOrder([&](Op *op) {
      if (op->kind() == OpKind::Module || op->kind() == OpKind::Func)
        return;
      changed |= canonicalizeOp(op, structural);
    });
    ever |= changed;
  }
  if (changedAny)
    *changedAny = ever;
  return structural;
}

class CanonicalizePass : public FunctionPass {
public:
  CanonicalizePass()
      : FunctionPass("canonicalize",
                     "fold constants, simplify control flow, DCE"),
        removed_(&statistic("ops-removed")) {}

  bool runOnFunction(Op *func, DiagnosticEngine &) override {
    bool structural;
    bool any = false;
    if (!statisticsEnabled()) {
      structural = canonicalizeRoot(func, &any);
    } else {
      size_t before = countNestedOps(func);
      structural = canonicalizeRoot(func, &any);
      size_t after = countNestedOps(func);
      if (after < before)
        *removed_ += before - after;
    }
    if (structural)
      structural_.store(true, std::memory_order_relaxed);
    if (any)
      noteIRChanged();
    return true;
  }

  bool tracksIRChange() const override { return true; }

  void beginRun() override {
    structural_.store(false, std::memory_order_relaxed);
  }

  /// Pure DCE is analysis-invariant; any fold (constants, identity
  /// merges, region folds, memory-op erasure) conservatively invalidates
  /// everything — in the steady state canonicalize finds nothing to do
  /// and preserves all.
  PreservedAnalyses preservedAnalyses() const override {
    return structural_.load(std::memory_order_relaxed)
               ? PreservedAnalyses::none()
               : PreservedAnalyses::all();
  }

private:
  Statistic *removed_;
  std::atomic<bool> structural_{false};
};

} // namespace

void runCanonicalize(ModuleOp module) { canonicalizeRoot(module.op); }

std::unique_ptr<Pass> createCanonicalizePass() {
  return std::make_unique<CanonicalizePass>();
}

} // namespace paralift::transforms
