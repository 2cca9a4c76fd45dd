#include "ir/ophelpers.h"

#include <algorithm>
#include <unordered_map>

namespace paralift::ir {

//===----------------------------------------------------------------------===//
// ModuleOp / FuncOp / CallOp
//===----------------------------------------------------------------------===//

ModuleOp ModuleOp::create() {
  // The module op is the root of a fresh arena: destroying it (via
  // ~OwnedModule) releases every node of the module in O(1).
  auto *arena = new IRArena();
  Op *op = Op::create(*arena, OpKind::Module, SourceLoc(), {}, {}, 1);
  arena->setRoot(op);
  op->region(0).emplaceBlock();
  return ModuleOp(op);
}

Op *ModuleOp::lookupFunc(const std::string &name) const {
  for (Op *fn : body())
    if (fn->kind() == OpKind::Func &&
        fn->attrs().getString("sym_name") == name)
      return fn;
  return nullptr;
}

FuncOp FuncOp::create(ModuleOp module, const std::string &name,
                      const std::vector<Type> &argTypes,
                      const std::vector<Type> &resultTypes) {
  Op *op = Op::create(module.op->arena(), OpKind::Func, SourceLoc(), {}, {}, 1);
  op->attrs().set("sym_name", name);
  std::vector<int64_t> resKinds;
  // Result types are encoded as attributes: scalar kinds only (functions
  // never return memrefs in this IR; buffers are out-parameters).
  for (const Type &t : resultTypes) {
    assert(!t.isMemRef() && "function results must be scalar");
    resKinds.push_back(static_cast<int64_t>(t.kind()));
  }
  op->attrs().set("res_types", resKinds);
  Block &entry = op->region(0).emplaceBlock();
  for (const Type &t : argTypes)
    entry.addArg(t);
  module.body().push_back(op);
  return FuncOp(op);
}

std::vector<Type> FuncOp::resultTypes() const {
  std::vector<Type> out;
  for (int64_t k : op->attrs().getIntVec("res_types"))
    out.push_back(Type(static_cast<TypeKind>(k)));
  return out;
}

CallOp CallOp::create(Builder &b, const std::string &callee,
                      const std::vector<Value> &args,
                      const std::vector<Type> &resultTypes) {
  Op *op = b.createOp(OpKind::Call, resultTypes, args);
  op->attrs().set("callee", callee);
  return CallOp(op);
}

//===----------------------------------------------------------------------===//
// Structured control flow
//===----------------------------------------------------------------------===//

ForOp ForOp::create(Builder &b, Value lb, Value ub, Value step,
                    const std::vector<Value> &inits) {
  assert(lb.type().isIndex() && ub.type().isIndex() && step.type().isIndex());
  std::vector<Value> operands = {lb, ub, step};
  operands.insert(operands.end(), inits.begin(), inits.end());
  std::vector<Type> resultTypes;
  for (Value v : inits)
    resultTypes.push_back(v.type());
  Op *op = b.createOp(OpKind::ScfFor, resultTypes, operands, 1);
  Block &body = op->region(0).emplaceBlock();
  body.addArg(Type::index());
  for (Value v : inits)
    body.addArg(v.type());
  return ForOp(op);
}

IfOp IfOp::create(Builder &b, Value cond, const std::vector<Type> &resultTypes,
                  bool withElse) {
  assert(cond.type() == Type::i1());
  Op *op = b.createOp(OpKind::ScfIf, resultTypes, {cond}, 2);
  op->region(0).emplaceBlock();
  if (withElse || !resultTypes.empty())
    op->region(1).emplaceBlock();
  return IfOp(op);
}

Block &IfOp::getOrCreateElse() {
  if (!hasElse()) {
    Block &blk = op->region(1).emplaceBlock();
    Builder eb(&blk);
    eb.yield({});
    return blk;
  }
  return elseBlock();
}

WhileOp WhileOp::create(Builder &b, const std::vector<Value> &inits,
                        const std::vector<Type> &afterTypes) {
  std::vector<Type> resultTypes = afterTypes;
  Op *op = b.createOp(OpKind::ScfWhile, resultTypes, inits, 2);
  Block &before = op->region(0).emplaceBlock();
  for (Value v : inits)
    before.addArg(v.type());
  Block &after = op->region(1).emplaceBlock();
  for (const Type &t : afterTypes)
    after.addArg(t);
  return WhileOp(op);
}

ParallelOp ParallelOp::create(Builder &b, OpKind kind,
                              const std::vector<Value> &lbs,
                              const std::vector<Value> &ubs,
                              const std::vector<Value> &steps) {
  assert(hasParallelLayout(kind));
  assert(lbs.size() == ubs.size() && ubs.size() == steps.size());
  std::vector<Value> operands;
  operands.insert(operands.end(), lbs.begin(), lbs.end());
  operands.insert(operands.end(), ubs.begin(), ubs.end());
  operands.insert(operands.end(), steps.begin(), steps.end());
  Op *op = b.createOp(kind, {}, operands, 1);
  op->attrs().set("dims", static_cast<int64_t>(lbs.size()));
  Block &body = op->region(0).emplaceBlock();
  for (size_t i = 0; i < lbs.size(); ++i)
    body.addArg(Type::index());
  return ParallelOp(op);
}

OmpParallelOp OmpParallelOp::create(Builder &b) {
  Op *op = b.createOp(OpKind::OmpParallel, {}, {}, 1);
  op->region(0).emplaceBlock();
  return OmpParallelOp(op);
}

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

std::optional<int64_t> getConstInt(Value v) {
  if (Op *def = v.definingOp())
    if (def->kind() == OpKind::ConstInt)
      return def->attrs().getInt("value");
  return std::nullopt;
}

std::optional<double> getConstFloat(Value v) {
  if (Op *def = v.definingOp())
    if (def->kind() == OpKind::ConstFloat)
      return def->attrs().getFloat("value");
  return std::nullopt;
}

static Value mapValue(Value v, std::unordered_map<ValueImpl *, Value> &map) {
  auto it = map.find(v.impl());
  return it == map.end() ? v : it->second;
}

OwnedModule cloneModule(ModuleOp module) {
  // The clone gets its own arena (a fresh OwnedModule); funcs are cloned
  // into it one by one. Ops never migrate between arenas.
  OwnedModule dst;
  std::unordered_map<ValueImpl *, Value> map;
  // Seeded above the typical per-module value count: the incremental
  // rehashes otherwise dominate the map's cost on kernel-sized funcs.
  map.reserve(1024);
  IRArena &arena = dst.arena();
  Block &body = dst.get().body();
  for (Op *fn : module.body())
    body.push_back(cloneOpInto(arena, fn, map));
  dst.op()->attrs() = module.op->attrs();
  return dst;
}

namespace {

/// Scratch buffers shared across one clone's whole recursion: both are
/// fully consumed by Op::create before any nested op is cloned, so inner
/// frames may freely clobber them — one pair of heap buffers per clone
/// instead of two per op.
struct CloneScratch {
  std::vector<Type> resultTypes;
  std::vector<Value> operands;
};

Op *cloneOpRec(IRArena &arena, Op *src,
               std::unordered_map<ValueImpl *, Value> &map,
               CloneScratch &scratch) {
  scratch.resultTypes.clear();
  for (unsigned i = 0; i < src->numResults(); ++i)
    scratch.resultTypes.push_back(src->result(i).type());
  scratch.operands.clear();
  for (unsigned i = 0; i < src->numOperands(); ++i)
    scratch.operands.push_back(mapValue(src->operand(i), map));
  Op *clone = Op::create(arena, src->kind(), src->loc(), scratch.resultTypes,
                         scratch.operands, src->numRegions());
  clone->attrs() = src->attrs();
  for (unsigned i = 0; i < src->numResults(); ++i)
    map[src->result(i).impl()] = clone->result(i);
  for (unsigned r = 0; r < src->numRegions(); ++r) {
    for (Block *srcBlock : src->region(r).blocks()) {
      Block &dstBlock = clone->region(r).emplaceBlock();
      for (unsigned a = 0; a < srcBlock->numArgs(); ++a) {
        Value newArg = dstBlock.addArg(srcBlock->arg(a).type());
        map[srcBlock->arg(a).impl()] = newArg;
      }
      for (Op *inner : *srcBlock)
        dstBlock.push_back(cloneOpRec(arena, inner, map, scratch));
    }
  }
  return clone;
}

} // namespace

Op *cloneOpInto(IRArena &arena, Op *src,
                std::unordered_map<ValueImpl *, Value> &map) {
  CloneScratch scratch;
  return cloneOpRec(arena, src, map, scratch);
}

Op *cloneOp(Op *src, std::unordered_map<ValueImpl *, Value> &map) {
  return cloneOpInto(src->arena(), src, map);
}

bool isDefinedOutside(Value v, Op *op) {
  if (Op *def = v.definingOp())
    return !op->isAncestorOf(def);
  Op *owner = v.definingBlock()->parentOp();
  // A block argument is "outside" op unless its owning region op is op
  // itself or nested within op.
  return !(owner && op->isAncestorOf(owner));
}

bool containsBarrier(Op *op) {
  bool found = false;
  op->walk([&](Op *inner) {
    if (inner->kind() == OpKind::Barrier)
      found = true;
  });
  return found;
}

Op *getEnclosing(Op *op, OpKind kind) {
  for (Op *cur = op->parentOp(); cur; cur = cur->parentOp())
    if (cur->kind() == kind)
      return cur;
  return nullptr;
}

Op *outermostScopeOutside(Op *op, const std::vector<Value> &vals) {
  for (Op *parent = op->parentOp();
       parent && parent->kind() != OpKind::Func &&
       std::all_of(vals.begin(), vals.end(),
                   [&](Value v) { return isDefinedOutside(v, parent); });
       parent = op->parentOp())
    op = parent;
  return op;
}

Op *getEnclosingThreadParallel(Op *op) {
  for (Op *cur = op->parentOp(); cur; cur = cur->parentOp())
    if (cur->kind() == OpKind::ScfParallel &&
        cur->attrs().getBool("gpu.block"))
      return cur;
  return nullptr;
}

} // namespace paralift::ir
