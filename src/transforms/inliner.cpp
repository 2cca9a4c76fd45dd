// Function inlining. The GPU pipelines inline every device call nested in
// a kernel's parallel nest so that barrier analysis and the SIMT executor
// see straight-line kernels (the paper relies on the same property: the
// kernel body is fully visible at the launch site).
#include "ir/ophelpers.h"
#include "ir/verifier.h"
#include "transforms/passes.h"

#include <atomic>
#include <unordered_map>
#include <unordered_set>

using namespace paralift::ir;

namespace paralift::transforms {

namespace {

/// Callees must have a single return at the end of their body (the
/// frontend's return-lowering guarantees this).
bool canInline(Op *callee) {
  Block &body = FuncOp(callee).body();
  Op *term = body.terminator();
  if (!term || term->kind() != OpKind::Return)
    return false;
  // No other returns anywhere.
  bool multipleReturns = false;
  callee->walk([&](Op *op) {
    if (op->kind() == OpKind::Return && op != term)
      multipleReturns = true;
  });
  return !multipleReturns;
}

/// Inlines one call site; returns true on success.
bool inlineCall(ModuleOp module, Op *call) {
  Op *callee = module.lookupFunc(CallOp(call).callee());
  if (!callee || !canInline(callee))
    return false;

  // Clone the callee body mapping params -> call args.
  std::unordered_map<ValueImpl *, Value> map;
  FuncOp fn(callee);
  for (unsigned i = 0; i < fn.numArgs(); ++i)
    map[fn.arg(i).impl()] = call->operand(i);

  std::vector<Value> returned;
  Block &body = fn.body();
  for (Op *op : body) {
    if (op->kind() == OpKind::Return) {
      for (unsigned i = 0; i < op->numOperands(); ++i) {
        auto it = map.find(op->operand(i).impl());
        returned.push_back(it == map.end() ? op->operand(i) : it->second);
      }
      break;
    }
    Op *clone = cloneOp(op, map);
    call->parent()->insertBefore(call, clone);
  }
  for (unsigned i = 0; i < call->numResults(); ++i)
    call->result(i).replaceAllUsesWith(returned[i]);
  call->erase();
  return true;
}

bool isInKernelNest(Op *op) {
  return getEnclosing(op, OpKind::ScfParallel) != nullptr;
}

} // namespace

bool runInliner(ModuleOp module, bool onlyInKernels) {
  bool any = false;
  // Iterate: inlining may expose further call sites. Guard against
  // recursion with an iteration cap proportional to module size.
  for (int iter = 0; iter < 64; ++iter) {
    std::vector<Op *> sites;
    module.op->walk([&](Op *op) {
      if (op->kind() == OpKind::Call &&
          (!onlyInKernels || isInKernelNest(op)))
        sites.push_back(op);
    });
    if (sites.empty())
      return any;
    bool changed = false;
    for (Op *call : sites)
      changed |= inlineCall(module, call);
    if (!changed)
      return any;
    any = true;
  }
  return any;
}

namespace {

/// Module-scope pass: inlining looks across functions (callee lookup), so
/// it cannot be scheduled per-function.
class InlinerPass : public Pass {
public:
  InlinerPass() : Pass("inline", "inline module-local calls") {
    declareBoolOption("kernels-only", &kernelsOnly_, false);
    // Created up front: statistic() creation is not thread-safe, and the
    // DAG batch scheduler runs this pass on several modules at once.
    statistic("calls-inlined");
  }

  bool run(ModuleOp module, DiagnosticEngine &) override {
    // Change detection comes from the transform itself: a call-count
    // delta would miss the case where an inlined callee body carries a
    // non-inlinable call of its own (count unchanged, IR changed).
    if (!statisticsEnabled()) {
      noteChanged(runInliner(module, kernelsOnly_));
      return true;
    }
    size_t before = countNestedOps(module.op, OpKind::Call);
    noteChanged(runInliner(module, kernelsOnly_));
    size_t after = countNestedOps(module.op, OpKind::Call);
    if (after < before)
      statistic("calls-inlined") += before - after;
    return true;
  }

  void beginRun() override {
    changed_.store(false, std::memory_order_relaxed);
  }

  /// Inlining splices callee bodies into kernels — everything shifts; a
  /// run that found no inlinable calls (every rerun after the first)
  /// preserves everything.
  PreservedAnalyses preservedAnalyses() const override {
    return changed_.load(std::memory_order_relaxed)
               ? PreservedAnalyses::none()
               : PreservedAnalyses::all();
  }

private:
  /// ORs across every module run since beginRun — like the function
  /// passes' dynamic declarations, and required because a batch runs one
  /// pass object on several modules concurrently.
  void noteChanged(bool c) {
    if (c)
      changed_.store(true, std::memory_order_relaxed);
  }

  bool kernelsOnly_ = false;
  std::atomic<bool> changed_{false};
};

} // namespace

std::unique_ptr<Pass> createInlinerPass(bool onlyInKernels) {
  auto pass = std::make_unique<InlinerPass>();
  pass->setOption("kernels-only", onlyInKernels ? "true" : "false");
  return pass;
}

} // namespace paralift::transforms
