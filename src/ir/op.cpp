#include "ir/op.h"

#include <algorithm>

namespace paralift::ir {

//===----------------------------------------------------------------------===//
// OpKind names and traits
//===----------------------------------------------------------------------===//

std::string_view opKindName(OpKind k) {
  switch (k) {
  case OpKind::Module: return "module";
  case OpKind::Func: return "func";
  case OpKind::Return: return "return";
  case OpKind::Call: return "call";
  case OpKind::Yield: return "yield";
  case OpKind::Condition: return "condition";
  case OpKind::ConstInt: return "const.int";
  case OpKind::ConstFloat: return "const.float";
  case OpKind::AddI: return "addi";
  case OpKind::SubI: return "subi";
  case OpKind::MulI: return "muli";
  case OpKind::DivSI: return "divsi";
  case OpKind::RemSI: return "remsi";
  case OpKind::AndI: return "andi";
  case OpKind::OrI: return "ori";
  case OpKind::XOrI: return "xori";
  case OpKind::ShLI: return "shli";
  case OpKind::ShRSI: return "shrsi";
  case OpKind::MinSI: return "minsi";
  case OpKind::MaxSI: return "maxsi";
  case OpKind::CmpI: return "cmpi";
  case OpKind::AddF: return "addf";
  case OpKind::SubF: return "subf";
  case OpKind::MulF: return "mulf";
  case OpKind::DivF: return "divf";
  case OpKind::RemF: return "remf";
  case OpKind::NegF: return "negf";
  case OpKind::MinF: return "minf";
  case OpKind::MaxF: return "maxf";
  case OpKind::CmpF: return "cmpf";
  case OpKind::Select: return "select";
  case OpKind::SIToFP: return "sitofp";
  case OpKind::FPToSI: return "fptosi";
  case OpKind::IndexCast: return "index.cast";
  case OpKind::ExtSI: return "extsi";
  case OpKind::TruncI: return "trunci";
  case OpKind::FPExt: return "fpext";
  case OpKind::FPTrunc: return "fptrunc";
  case OpKind::Sqrt: return "math.sqrt";
  case OpKind::Exp: return "math.exp";
  case OpKind::Log: return "math.log";
  case OpKind::Pow: return "math.pow";
  case OpKind::Abs: return "math.abs";
  case OpKind::Sin: return "math.sin";
  case OpKind::Cos: return "math.cos";
  case OpKind::Tanh: return "math.tanh";
  case OpKind::Floor: return "math.floor";
  case OpKind::Ceil: return "math.ceil";
  case OpKind::Alloca: return "memref.alloca";
  case OpKind::Alloc: return "memref.alloc";
  case OpKind::Dealloc: return "memref.dealloc";
  case OpKind::Load: return "memref.load";
  case OpKind::Store: return "memref.store";
  case OpKind::Dim: return "memref.dim";
  case OpKind::SubView: return "memref.subview";
  case OpKind::ScfFor: return "scf.for";
  case OpKind::ScfIf: return "scf.if";
  case OpKind::ScfWhile: return "scf.while";
  case OpKind::ScfParallel: return "scf.parallel";
  case OpKind::Barrier: return "polygeist.barrier";
  case OpKind::OmpParallel: return "omp.parallel";
  case OpKind::OmpWsLoop: return "omp.wsloop";
  case OpKind::OmpBarrier: return "omp.barrier";
  case OpKind::kNumOpKinds: break;
  }
  return "<invalid>";
}

bool isTerminator(OpKind k) {
  return k == OpKind::Return || k == OpKind::Yield || k == OpKind::Condition;
}

bool isPure(OpKind k) {
  switch (k) {
  case OpKind::ConstInt:
  case OpKind::ConstFloat:
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
  case OpKind::MaxSI:
  case OpKind::CmpI:
  case OpKind::AddF:
  case OpKind::SubF:
  case OpKind::MulF:
  case OpKind::DivF:
  case OpKind::RemF:
  case OpKind::NegF:
  case OpKind::MinF:
  case OpKind::MaxF:
  case OpKind::CmpF:
  case OpKind::Select:
  case OpKind::SIToFP:
  case OpKind::FPToSI:
  case OpKind::IndexCast:
  case OpKind::ExtSI:
  case OpKind::TruncI:
  case OpKind::FPExt:
  case OpKind::FPTrunc:
  case OpKind::Sqrt:
  case OpKind::Exp:
  case OpKind::Log:
  case OpKind::Pow:
  case OpKind::Abs:
  case OpKind::Sin:
  case OpKind::Cos:
  case OpKind::Tanh:
  case OpKind::Floor:
  case OpKind::Ceil:
  case OpKind::Dim:
  case OpKind::SubView:
    return true;
  default:
    return false;
  }
}

bool isLoopLike(OpKind k) {
  return k == OpKind::ScfFor || k == OpKind::ScfWhile ||
         k == OpKind::ScfParallel || k == OpKind::OmpWsLoop;
}

bool hasParallelLayout(OpKind k) {
  return k == OpKind::ScfParallel || k == OpKind::OmpWsLoop;
}

//===----------------------------------------------------------------------===//
// AttrMap
//===----------------------------------------------------------------------===//

AttrMap &AttrMap::operator=(const AttrMap &o) {
  if (this == &o)
    return *this;
  entries_.clear();
  entries_.reserve(o.entries_.size());
  for (const Entry &e : o.entries_)
    setInterned(e.first, e.second);
  return *this;
}

void AttrMap::registerCleanup() {
  if (registered_)
    return;
  registered_ = true;
  entries_.arena()->registerDestructor(&entries_, [](void *p) {
    static_cast<ArenaVector<Entry> *>(p)->clear();
  });
}

void AttrMap::setInterned(const char *name, AttrValue v) {
  bool nonTrivial = needsDtor(v);
  for (Entry &e : entries_)
    if (e.first == name) {
      e.second = std::move(v);
      if (nonTrivial)
        registerCleanup();
      return;
    }
  entries_.emplace_back(name, std::move(v));
  if (nonTrivial)
    registerCleanup();
}

void AttrMap::erase(const std::string &name) {
  for (size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].first == name) {
      entries_.eraseAt(i);
      return;
    }
}

bool AttrMap::has(const std::string &name) const {
  for (const Entry &e : entries_)
    if (e.first == name)
      return true;
  return false;
}

bool AttrMap::getBool(const std::string &name, bool dflt) const {
  for (const Entry &e : entries_)
    if (e.first == name)
      if (auto *b = std::get_if<bool>(&e.second))
        return *b;
  return dflt;
}

int64_t AttrMap::getInt(const std::string &name, int64_t dflt) const {
  for (const Entry &e : entries_)
    if (e.first == name)
      if (auto *i = std::get_if<int64_t>(&e.second))
        return *i;
  return dflt;
}

double AttrMap::getFloat(const std::string &name, double dflt) const {
  for (const Entry &e : entries_)
    if (e.first == name)
      if (auto *f = std::get_if<double>(&e.second))
        return *f;
  return dflt;
}

std::string AttrMap::getString(const std::string &name) const {
  for (const Entry &e : entries_)
    if (e.first == name)
      if (auto *s = std::get_if<std::string>(&e.second))
        return *s;
  return {};
}

std::vector<int64_t> AttrMap::getIntVec(const std::string &name) const {
  for (const Entry &e : entries_)
    if (e.first == name)
      if (auto *v = std::get_if<std::vector<int64_t>>(&e.second))
        return *v;
  return {};
}

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

void Value::replaceAllUsesWith(Value other) {
  assert(impl_ && other.impl_);
  assert(impl_ != other.impl_ && "self replacement");
  // setOperand mutates the use list; copy first.
  std::vector<std::pair<Op *, unsigned>> uses(impl_->uses.begin(),
                                              impl_->uses.end());
  for (auto &[op, idx] : uses)
    op->setOperand(idx, other);
  assert(impl_->uses.empty());
}

//===----------------------------------------------------------------------===//
// Block
//===----------------------------------------------------------------------===//

/// Recursively drops the operands of `op` and of everything nested in it,
/// so that values defined anywhere in a detached subtree lose their uses
/// regardless of order. This is the whole of "destruction" under the
/// arena: memory is reclaimed only when the module dies.
static void dropAllReferences(Op *op) {
  op->dropAllOperands();
  for (unsigned r = 0; r < op->numRegions(); ++r)
    for (Block *block : op->region(r).blocks())
      for (Op *inner : *block)
        dropAllReferences(inner);
}

Op *Block::parentOp() const { return parent_ ? parent_->parentOp() : nullptr; }

Value Block::addArg(Type t) {
  ValueImpl *impl = arena_->create<ValueImpl>(arena_);
  impl->type = t;
  impl->defBlock = this;
  impl->index = static_cast<unsigned>(args_.size());
  args_.push_back(impl);
  return Value(impl);
}

void Block::eraseArg(unsigned i) {
  assert(i < args_.size() && args_[i]->uses.empty() && "erasing used arg");
  args_.eraseAt(i);
  for (size_t j = i; j < args_.size(); ++j)
    args_[j]->index = static_cast<unsigned>(j);
}

Op *Block::terminator() const {
  return (last_ && isTerminator(last_->kind())) ? last_ : nullptr;
}

void Block::push_back(Op *op) { insertBefore(nullptr, op); }

void Block::push_front(Op *op) { insertBefore(first_, op); }

void Block::insertBefore(Op *anchor, Op *op) {
  assert(op->parent_ == nullptr && "op already in a block");
  assert(op->arena_ == arena_ && "op from another module's arena");
  op->parent_ = this;
  if (!anchor) {
    op->prev_ = last_;
    op->next_ = nullptr;
    if (last_)
      last_->next_ = op;
    else
      first_ = op;
    last_ = op;
    return;
  }
  assert(anchor->parent_ == this);
  op->next_ = anchor;
  op->prev_ = anchor->prev_;
  if (anchor->prev_)
    anchor->prev_->next_ = op;
  else
    first_ = op;
  anchor->prev_ = op;
}

void Block::unlink(Op *op) {
  assert(op->parent_ == this);
  if (op->prev_)
    op->prev_->next_ = op->next_;
  else
    first_ = op->next_;
  if (op->next_)
    op->next_->prev_ = op->prev_;
  else
    last_ = op->prev_;
  op->prev_ = op->next_ = nullptr;
  op->parent_ = nullptr;
}

size_t Block::size() const {
  size_t n = 0;
  for (Op *op = first_; op; op = op->next())
    ++n;
  return n;
}

Block::iterator &Block::iterator::operator++() {
  op_ = op_->next();
  return *this;
}

//===----------------------------------------------------------------------===//
// Region
//===----------------------------------------------------------------------===//

Block &Region::emplaceBlock() {
  Block *b = arena_->create<Block>(arena_);
  b->parent_ = this;
  blocks_.push_back(b);
  return *b;
}

void Region::clear() {
  for (Block *b : blocks_)
    for (Op *op : *b)
      dropAllReferences(op);
  blocks_.clear();
}

void Region::takeBlocks(Region &other) {
  assert(arena_ == other.arena_ && "moving blocks across arenas");
  for (Block *b : other.blocks_) {
    b->parent_ = this;
    blocks_.push_back(b);
  }
  other.blocks_.clear();
}

//===----------------------------------------------------------------------===//
// Op
//===----------------------------------------------------------------------===//

// The tail arrays are placed directly after the Op header inside one
// arena block; their alignment must divide into the preceding sizes.
static_assert(sizeof(Op) % alignof(ValueImpl) == 0);
static_assert(sizeof(ValueImpl) % alignof(Region) == 0);
static_assert(sizeof(Region) % alignof(Value) == 0);

Op *Op::create(IRArena &arena, OpKind kind, SourceLoc loc,
               const Type *resultTypes, size_t numResults,
               const Value *operands, size_t numOperands,
               unsigned numRegions) {
  // One arena block for the op and every fixed-size tail it owns —
  // header, result ValueImpls, regions, exact-capacity operand storage —
  // so creating an op is a single bump-pointer hit.
  size_t bytes = sizeof(Op) + sizeof(ValueImpl) * numResults +
                 sizeof(Region) * numRegions + sizeof(Value) * numOperands;
  char *mem = static_cast<char *>(arena.allocate(bytes));
  Op *op = new (mem) Op(&arena, kind, loc);
  mem += sizeof(Op);
  if (numResults) {
    op->results_ = reinterpret_cast<ValueImpl *>(mem);
    for (unsigned i = 0; i < numResults; ++i) {
      ValueImpl *impl = new (op->results_ + i) ValueImpl(&arena);
      impl->type = resultTypes[i];
      impl->defOp = op;
      impl->index = i;
    }
    mem += sizeof(ValueImpl) * numResults;
  }
  op->numResults_ = static_cast<uint16_t>(numResults);
  if (numRegions) {
    op->regions_ = reinterpret_cast<Region *>(mem);
    for (unsigned i = 0; i < numRegions; ++i) {
      Region *r = new (op->regions_ + i) Region(&arena);
      r->parentOp_ = op;
    }
    mem += sizeof(Region) * numRegions;
  }
  op->numRegions_ = static_cast<uint16_t>(numRegions);
  if (numOperands) {
    op->operands_.adoptStorage(reinterpret_cast<Value *>(mem), numOperands);
    for (size_t i = 0; i < numOperands; ++i)
      op->appendOperand(operands[i]);
  }
  return op;
}

void Op::destroy(Op *op) {
  assert(op->parent_ == nullptr && "destroying attached op");
  IRArena *arena = op->arena_;
  if (arena->root() == op) {
    // The whole module dies: run the (short) destructor list and release
    // every slab at once. No per-op walk.
    delete arena;
    return;
  }
  dropAllReferences(op);
#ifndef NDEBUG
  for (unsigned i = 0; i < op->numResults_; ++i)
    assert(op->results_[i].uses.empty() && "destroying op with used results");
#endif
}

Op *Op::parentOp() const {
  return parent_ ? parent_->parentOp() : nullptr;
}

bool Op::isAncestorOf(const Op *other) const {
  for (const Op *cur = other; cur; cur = cur->parentOp())
    if (cur == this)
      return true;
  return false;
}

static void removeUse(ValueImpl *impl, Op *op, unsigned idx) {
  auto &uses = impl->uses;
  for (size_t i = 0; i < uses.size(); ++i) {
    if (uses[i].first == op && uses[i].second == idx) {
      uses.swapRemove(i);
      return;
    }
  }
  assert(false && "use not found");
}

void Op::setOperand(unsigned i, Value v) {
  assert(i < operands_.size());
  if (operands_[i])
    removeUse(operands_[i].impl(), this, i);
  operands_[i] = v;
  if (v)
    v.impl()->uses.emplace_back(this, i);
}

void Op::appendOperand(Value v) {
  operands_.push_back(Value());
  setOperand(static_cast<unsigned>(operands_.size() - 1), v);
}

void Op::insertOperand(unsigned i, Value v) {
  assert(i <= operands_.size());
  // Uses after position i shift by one; re-register them.
  for (unsigned j = i; j < operands_.size(); ++j)
    removeUse(operands_[j].impl(), this, j);
  operands_.insertAt(i, v);
  for (unsigned j = i; j < operands_.size(); ++j)
    operands_[j].impl()->uses.emplace_back(this, j);
}

void Op::eraseOperand(unsigned i) {
  assert(i < operands_.size());
  for (unsigned j = i; j < operands_.size(); ++j)
    removeUse(operands_[j].impl(), this, j);
  operands_.eraseAt(i);
  for (unsigned j = i; j < operands_.size(); ++j)
    operands_[j].impl()->uses.emplace_back(this, j);
}

void Op::dropAllOperands() {
  for (unsigned i = 0; i < operands_.size(); ++i)
    if (operands_[i])
      removeUse(operands_[i].impl(), this, i);
  operands_.clear();
}

void Op::replaceUsesOfWith(Value from, Value to) {
  for (unsigned i = 0; i < operands_.size(); ++i)
    if (operands_[i] == from)
      setOperand(i, to);
}

bool Op::hasAnyUse() const {
  for (unsigned i = 0; i < numResults_; ++i)
    if (!results_[i].uses.empty())
      return true;
  return false;
}

void Op::erase() {
  assert(!hasAnyUse() && "erasing op with live uses");
  if (parent_)
    parent_->unlink(this);
  // Unlink-without-free: detach every use-def edge out of the subtree;
  // the memory stays in the arena until the module dies.
  dropAllReferences(this);
}

void Op::moveBefore(Op *other) {
  assert(other->parent_);
  if (parent_)
    parent_->unlink(this);
  other->parent_->insertBefore(other, this);
}

void Op::moveAfter(Op *other) {
  assert(other->parent_);
  if (parent_)
    parent_->unlink(this);
  other->parent_->insertBefore(other->next_, this);
}

void Op::removeFromParent() {
  assert(parent_);
  parent_->unlink(this);
}

void Op::walk(const std::function<void(Op *)> &fn) {
  // Visit this op first; the callback may not erase `this` while nested
  // ops are still to be visited, so visit regions from a snapshot.
  fn(this);
  for (unsigned r = 0; r < numRegions_; ++r) {
    for (Block *block : regions_[r].blocks()) {
      for (Op *op = block->front(), *next = nullptr; op; op = next) {
        next = op->next();
        op->walk(fn);
      }
    }
  }
}

void Op::walkPostOrder(const std::function<void(Op *)> &fn) {
  for (unsigned r = 0; r < numRegions_; ++r) {
    for (Block *block : regions_[r].blocks()) {
      for (Op *op = block->front(), *next = nullptr; op; op = next) {
        next = op->next();
        op->walkPostOrder(fn);
      }
    }
  }
  fn(this);
}

} // namespace paralift::ir
