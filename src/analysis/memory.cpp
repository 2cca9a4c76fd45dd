#include "analysis/memory.h"

using namespace paralift::ir;

namespace paralift::analysis {

void getOpEffects(Op *op, std::vector<MemoryEffect> &out) {
  switch (op->kind()) {
  case OpKind::Load:
    out.push_back({EffectKind::Read, getBase(op->operand(0)), op});
    break;
  case OpKind::Store:
    out.push_back({EffectKind::Write, getBase(op->operand(1)), op});
    break;
  case OpKind::Alloca:
  case OpKind::Alloc:
    out.push_back({EffectKind::Alloc, op->result(), op});
    break;
  case OpKind::Dealloc:
    out.push_back({EffectKind::Free, getBase(op->operand(0)), op});
    break;
  case OpKind::Call:
    // Unknown callee behaviour: reads and writes everything.
    out.push_back({EffectKind::Read, Value(), op});
    out.push_back({EffectKind::Write, Value(), op});
    break;
  case OpKind::Barrier:
  case OpKind::OmpBarrier:
    // Barriers themselves contribute no effects; their *semantics* are
    // derived from surrounding code (analysis/barrier.h).
    break;
  default:
    break; // pure or structured op (regions handled by recursive variant)
  }
}

void getEffectsRecursive(Op *op, std::vector<MemoryEffect> &out) {
  getOpEffects(op, out);
  for (unsigned r = 0; r < op->numRegions(); ++r)
    for (auto &block : op->region(r).blocks())
      for (Op *inner : *block)
        getEffectsRecursive(inner, out);
}

bool mayWrite(Op *op) {
  std::vector<MemoryEffect> effects;
  getEffectsRecursive(op, effects);
  for (auto &e : effects)
    if (e.kind != EffectKind::Read)
      return true;
  return false;
}

bool isReadOnly(Op *op) { return !mayWrite(op); }

bool isReadOnlySerial(Op *op) {
  if (op->kind() == OpKind::Load)
    return true;
  if (op->numRegions() == 0 || !isReadOnly(op))
    return false;
  bool serial = true;
  op->walk([&](Op *inner) {
    switch (inner->kind()) {
    case OpKind::ScfParallel:
    case OpKind::OmpParallel:
    case OpKind::OmpWsLoop:
    case OpKind::Barrier:
    case OpKind::OmpBarrier:
    case OpKind::Call:
      serial = false;
      break;
    default:
      break;
    }
  });
  return serial;
}

bool isEffectFree(Op *op) {
  std::vector<MemoryEffect> effects;
  getEffectsRecursive(op, effects);
  return effects.empty();
}

Value getBase(Value memref) {
  while (Op *def = memref.definingOp()) {
    if (def->kind() == OpKind::SubView) {
      memref = def->operand(0);
      continue;
    }
    break;
  }
  return memref;
}

/// Classifies a base for the alias rules below.
namespace {
enum class BaseKind { Allocation, FuncArg, Other };

BaseKind classify(Value base) {
  if (Op *def = base.definingOp()) {
    if (def->kind() == OpKind::Alloca || def->kind() == OpKind::Alloc)
      return BaseKind::Allocation;
    return BaseKind::Other;
  }
  ir::Block *block = base.definingBlock();
  if (block && block->parentOp() &&
      block->parentOp()->kind() == OpKind::Func)
    return BaseKind::FuncArg;
  return BaseKind::Other;
}
} // namespace

bool mayAlias(Value a, Value b) {
  a = getBase(a);
  b = getBase(b);
  if (!a || !b)
    return true; // unknown location aliases everything
  if (a == b)
    return true;
  BaseKind ka = classify(a), kb = classify(b);
  // Two distinct allocations never alias.
  if (ka == BaseKind::Allocation && kb == BaseKind::Allocation)
    return false;
  // An allocation does not alias a function argument (allocations are
  // fresh memory; arguments pre-exist the function).
  if ((ka == BaseKind::Allocation && kb == BaseKind::FuncArg) ||
      (ka == BaseKind::FuncArg && kb == BaseKind::Allocation))
    return false;
  // Distinct function arguments: noalias (restrict) assumption.
  if (ka == BaseKind::FuncArg && kb == BaseKind::FuncArg)
    return false;
  return true;
}

bool isNonEscapingAlloc(Value base) {
  Op *def = base.definingOp();
  if (!def ||
      (def->kind() != OpKind::Alloca && def->kind() != OpKind::Alloc))
    return false;
  // BFS through subviews.
  std::vector<Value> worklist = {base};
  while (!worklist.empty()) {
    Value v = worklist.back();
    worklist.pop_back();
    for (auto &[user, idx] : v.uses()) {
      switch (user->kind()) {
      case OpKind::Load:
        break;
      case OpKind::Store:
        if (idx == 0)
          return false; // the memref itself is stored somewhere
        break;
      case OpKind::Dealloc:
      case OpKind::Dim:
        break;
      case OpKind::SubView:
        worklist.push_back(user->result());
        break;
      default:
        return false; // passed to call / yielded / unknown use
      }
    }
  }
  return true;
}

} // namespace paralift::analysis
