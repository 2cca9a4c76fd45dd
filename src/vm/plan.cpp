#include "vm/plan.h"

using namespace paralift::ir;

namespace paralift::vm {

void FunctionPlan::plan(FuncOp fn) {
  values.clear();
  loops_.clear();
  regions_.clear();
  nextLoop_ = nextRegion_ = 0;
  serial_ = 0;
  for (Op *op : fn.body())
    visit(op);
}

void FunctionPlan::visit(Op *op) {
  const uint32_t serial = ++serial_;
  const bool parallel = op->kind() == OpKind::ScfParallel ||
                        op->kind() == OpKind::OmpParallel;
  if (parallel) {
    open_.push_back({regions_.size(), serial});
    regions_.push_back({op, {}});
  }
  // Outside every parallel region there is nothing to capture, and a
  // value missing from the table has depth 0.
  const auto depth = static_cast<uint32_t>(open_.size());
  if (depth > 0) {
    // A value is a capture of every open region around the use that does
    // not hold its definition; it was captured already by each one it was
    // used in before, the innermost first.
    for (unsigned i = 0; i < op->numOperands(); ++i) {
      Value v = op->operand(i);
      ValueInfo &info = values[v.impl()];
      for (size_t r = open_.size(); r-- > info.depth;) {
        if (info.lastUse >= open_[r].entered)
          break;
        regions_[open_[r].region].captures.push_back(v);
      }
      info.lastUse = serial;
    }
    // An op's results and block arguments count as inside it, so a
    // region's own block arguments are never its captures.
    for (unsigned i = 0; i < op->numResults(); ++i)
      values[op->result(i).impl()].depth = depth;
  }
  size_t loopIdx = SIZE_MAX;
  if (op->kind() == OpKind::ScfFor || op->kind() == OpKind::ScfWhile ||
      op->kind() == OpKind::OmpWsLoop) {
    loopIdx = loops_.size();
    loops_.push_back({op});
  } else if (op->kind() == OpKind::Alloca) {
    // Every loop body around it takes a scope, the closures' included.
    // Once one is marked, the loops around it were marked with it.
    for (size_t l = openLoops_.size(); l-- > 0;) {
      Loop &loop = loops_[openLoops_[l]];
      if (loop.scoped)
        break;
      loop.scoped = true;
    }
  }
  for (unsigned r = 0; r < op->numRegions(); ++r) {
    // The loop body: a while loop's after region, else the only one.
    bool body = loopIdx != SIZE_MAX && r == (op->kind() == OpKind::ScfWhile);
    if (body)
      openLoops_.push_back(loopIdx);
    for (Block *block : op->region(r).blocks()) {
      for (unsigned i = 0; depth > 0 && i < block->numArgs(); ++i)
        values[block->arg(i).impl()].depth = depth;
      for (Op *inner : *block)
        visit(inner);
    }
    if (body)
      openLoops_.pop_back();
  }
  if (parallel)
    open_.pop_back();
}

} // namespace paralift::vm
