// Core IR data structures: a small MLIR-like SSA IR with nested regions.
//
// Design notes (see DESIGN.md §4):
//  - One concrete Op class parameterized by OpKind; structured-control-flow
//    ops (scf.for/if/while/parallel) carry regions, each region holds a
//    single block (control flow is fully structured; there are no branch
//    ops at the IR level).
//  - Values are results of ops or block arguments; use-def chains are
//    maintained eagerly by setOperand/appendOperand/erase.
//  - Memory & ownership (§4, rewritten for the arena): every node of a
//    module — Op, ValueImpl, Block, Region, and all of their dynamic
//    payloads (operand/use/arg/block/attr lists) — is bump-allocated from
//    the module's ir::IRArena (ir/arena.h). The module op created by
//    ModuleOp::create() is the arena *root*: Op::destroy on the root (what
//    ~OwnedModule runs) releases the arena's slabs in O(1) with no
//    recursive delete walk, after running the short destructor list for
//    the few non-trivial attribute payloads (string/int-vector values).
//    Nodes themselves are trivially destructible, enforced below.
//  - The erase-is-unlink invariant: destroying anything smaller than the
//    whole module (Op::erase, Op::destroy on a non-root op, Region::clear,
//    Block::eraseArg) detaches it — unlinks from the parent list and drops
//    every use-def edge from the erased subtree — but never frees; the
//    memory is reclaimed when the module dies. Consequently pointers into
//    erased IR stay dereferenceable (not that code should), arena usage
//    grows monotonically per module, and nothing may move ops BETWEEN
//    modules: clone (cloneOpInto) or reparse (parseModuleInto) into the
//    destination module's arena instead, or parse a fresh module
//    (parseModule), as a cache replay does.
#pragma once

#include "ir/arena.h"
#include "ir/type.h"
#include "support/diagnostics.h"

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace paralift::ir {

class Op;
class Block;
class Region;

//===----------------------------------------------------------------------===//
// OpKind
//===----------------------------------------------------------------------===//

enum class OpKind : uint16_t {
  // Structure
  Module,   ///< top-level container; region holds Func ops
  Func,     ///< attr "sym_name"; region args = parameters
  Return,   ///< operands = returned values
  Call,     ///< attr "callee"; operands = args; results = callee results
  Yield,    ///< terminator of scf region bodies
  Condition,///< terminator of scf.while "before" region: (cond, forwarded...)

  // Constants
  ConstInt,   ///< attr "value" (int64); result type i1/i32/i64/index
  ConstFloat, ///< attr "value" (double); result type f32/f64

  // Integer arithmetic (also used for index)
  AddI, SubI, MulI, DivSI, RemSI, AndI, OrI, XOrI, ShLI, ShRSI,
  MinSI, MaxSI,
  CmpI, ///< attr "pred" (CmpIPred); result i1

  // Floating-point arithmetic
  AddF, SubF, MulF, DivF, RemF, NegF, MinF, MaxF,
  CmpF, ///< attr "pred" (CmpFPred); result i1

  Select, ///< (i1, a, b) -> a or b

  // Casts
  SIToFP, FPToSI, IndexCast, ExtSI, TruncI, FPExt, FPTrunc,

  // Math (float)
  Sqrt, Exp, Log, Pow, Abs, Sin, Cos, Tanh, Floor, Ceil,

  // MemRef
  Alloca,  ///< stack allocation; operands = dynamic extents
  Alloc,   ///< heap allocation; operands = dynamic extents
  Dealloc, ///< frees an Alloc
  Load,    ///< (memref, indices...) -> elem
  Store,   ///< (value, memref, indices...)
  Dim,     ///< (memref) attr "index" -> index extent of one dimension
  SubView, ///< (memref, leading indices...) -> memref of lower rank

  // Structured control flow
  ScfFor,      ///< (lb, ub, step, inits...); body args = (iv, carried...)
  ScfIf,       ///< (cond); region0 = then, region1 = else
  ScfWhile,    ///< (inits...); region0 = before, region1 = after
  ScfParallel, ///< attr "dims"; operands = lbs+ubs+steps; body args = ivs

  // GPU-style synchronization (polygeist.barrier)
  Barrier,

  // OpenMP-like CPU parallel dialect
  OmpParallel, ///< region executed by every thread of a team
  OmpWsLoop,   ///< worksharing loop; layout identical to ScfParallel
  OmpBarrier,  ///< team-wide barrier

  kNumOpKinds
};

/// The op's textual name, as the printer writes it and the parser reads it.
std::string_view opKindName(OpKind k);

enum class CmpIPred : int64_t { eq, ne, slt, sle, sgt, sge };
enum class CmpFPred : int64_t { oeq, one, olt, ole, ogt, oge };

//===----------------------------------------------------------------------===//
// Attributes
//===----------------------------------------------------------------------===//

using AttrValue =
    std::variant<bool, int64_t, double, std::string, std::vector<int64_t>>;

/// A small ordered name->value attribute map. Ops carry at most a handful
/// of attributes, so linear lookup is appropriate.
///
/// Names are interned (internAttrName) — they come from a fixed small
/// vocabulary, so storing `const char *` keys means set/lookup never
/// allocates on the hot parse path and equal names compare by pointer.
/// Entries live in the owning op's arena; bool/int/double values are
/// trivially destructible, and the first string/int-vector value lazily
/// registers this map on the arena's destructor list.
class AttrMap {
public:
  explicit AttrMap(IRArena *arena) : entries_(arena) {}

  /// Deep-copies `o`'s entries into this map's arena (cloneOp).
  AttrMap &operator=(const AttrMap &o);

  void set(const std::string &name, AttrValue v) {
    setInterned(internAttrName(name), std::move(v));
  }
  /// `name` must be a pointer returned by internAttrName.
  void setInterned(const char *name, AttrValue v);
  void erase(const std::string &name);
  bool has(const std::string &name) const;

  bool getBool(const std::string &name, bool dflt = false) const;
  int64_t getInt(const std::string &name, int64_t dflt = 0) const;
  double getFloat(const std::string &name, double dflt = 0) const;
  std::string getString(const std::string &name) const;
  std::vector<int64_t> getIntVec(const std::string &name) const;

  using Entry = std::pair<const char *, AttrValue>;
  const ArenaVector<Entry> &entries() const { return entries_; }
  bool operator==(const AttrMap &o) const {
    // Interned keys compare by pointer.
    return entries_ == o.entries_;
  }

private:
  /// True if `v` holds a payload that needs destruction at arena
  /// teardown.
  static bool needsDtor(const AttrValue &v) {
    return std::holds_alternative<std::string>(v) ||
           std::holds_alternative<std::vector<int64_t>>(v);
  }
  void registerCleanup();

  ArenaVector<Entry> entries_;
  bool registered_ = false;
};

//===----------------------------------------------------------------------===//
// Value
//===----------------------------------------------------------------------===//

/// Backing storage for one SSA value. Arena-allocated; logically owned by
/// the defining Op (results) or Block (arguments).
class ValueImpl {
public:
  explicit ValueImpl(IRArena *arena) : uses(arena) {}

  Type type;
  Op *defOp = nullptr;
  Block *defBlock = nullptr;
  unsigned index = 0;
  /// (user op, operand index) pairs; order unspecified.
  ArenaVector<std::pair<Op *, unsigned>> uses;
};

/// A lightweight handle to an SSA value.
class Value {
public:
  Value() = default;
  explicit Value(ValueImpl *impl) : impl_(impl) {}

  explicit operator bool() const { return impl_ != nullptr; }
  bool operator==(const Value &o) const { return impl_ == o.impl_; }
  bool operator!=(const Value &o) const { return impl_ != o.impl_; }

  Type type() const { return impl_->type; }
  void setType(Type t) { impl_->type = t; }

  /// The op defining this value, or nullptr for block arguments.
  Op *definingOp() const { return impl_->defOp; }
  /// The block owning this value if it is a block argument, else nullptr.
  Block *definingBlock() const { return impl_->defBlock; }
  unsigned index() const { return impl_->index; }

  bool isBlockArg() const { return impl_->defBlock != nullptr; }

  bool hasUses() const { return !impl_->uses.empty(); }
  size_t numUses() const { return impl_->uses.size(); }
  const ArenaVector<std::pair<Op *, unsigned>> &uses() const {
    return impl_->uses;
  }

  /// Redirects every use of this value to `other`.
  void replaceAllUsesWith(Value other);

  ValueImpl *impl() const { return impl_; }

private:
  ValueImpl *impl_ = nullptr;
};

struct ValueHash {
  size_t operator()(const Value &v) const {
    return std::hash<void *>()(v.impl());
  }
};

//===----------------------------------------------------------------------===//
// Block
//===----------------------------------------------------------------------===//

/// A straight-line sequence of ops plus block arguments. Blocks in this IR
/// always belong to a region of a structured op, and regions hold exactly
/// one block (enforced by the verifier for scf ops).
class Block {
public:
  explicit Block(IRArena *arena) : arena_(arena), args_(arena) {}
  Block(const Block &) = delete;
  Block &operator=(const Block &) = delete;

  Region *parent() const { return parent_; }
  Op *parentOp() const;
  IRArena *arena() const { return arena_; }

  // Arguments ---------------------------------------------------------------
  Value addArg(Type t);
  unsigned numArgs() const { return static_cast<unsigned>(args_.size()); }
  Value arg(unsigned i) const { return Value(args_[i]); }
  /// Erases argument i; it must be unused. (Unlink-without-free: the
  /// ValueImpl's memory stays in the arena.)
  void eraseArg(unsigned i);

  // Op list -----------------------------------------------------------------
  bool empty() const { return first_ == nullptr; }
  Op *front() const { return first_; }
  Op *back() const { return last_; }
  /// The trailing terminator (Yield/Return/Condition), or nullptr.
  Op *terminator() const;

  void push_back(Op *op);
  void push_front(Op *op);
  /// Inserts `op` before `anchor`; a null anchor appends.
  void insertBefore(Op *anchor, Op *op);
  /// Detaches `op` from this block without destroying it.
  void unlink(Op *op);

  size_t size() const;

  // Iteration (supports erasing the current op while iterating via the
  // idiom: for (Op *op = b.front(), *n; op; op = n) { n = op->next(); ... }).
  class iterator {
  public:
    explicit iterator(Op *op) : op_(op) {}
    Op *operator*() const { return op_; }
    iterator &operator++();
    bool operator!=(const iterator &o) const { return op_ != o.op_; }

  private:
    Op *op_;
  };
  iterator begin() const { return iterator(first_); }
  iterator end() const { return iterator(nullptr); }

private:
  friend class Region;
  friend class Op;
  Region *parent_ = nullptr;
  IRArena *arena_ = nullptr;
  ArenaVector<ValueImpl *> args_;
  Op *first_ = nullptr;
  Op *last_ = nullptr;
};

//===----------------------------------------------------------------------===//
// Region
//===----------------------------------------------------------------------===//

class Region {
public:
  explicit Region(IRArena *arena) : arena_(arena), blocks_(arena) {}
  Region(const Region &) = delete;
  Region &operator=(const Region &) = delete;

  Op *parentOp() const { return parentOp_; }

  bool empty() const { return blocks_.empty(); }
  Block &front() { return *blocks_.front(); }
  const Block &front() const { return *blocks_.front(); }
  Block &emplaceBlock();
  size_t numBlocks() const { return blocks_.size(); }
  /// Detaches all blocks (and their ops): use-def edges out of the
  /// dropped subtree are removed, the memory stays in the arena.
  void clear();

  const ArenaVector<Block *> &blocks() const { return blocks_; }

  /// Moves all blocks of `other` into this (appending). Used by inlining.
  /// Both regions must live in the same arena.
  void takeBlocks(Region &other);

private:
  friend class Op;
  Op *parentOp_ = nullptr;
  IRArena *arena_ = nullptr;
  ArenaVector<Block *> blocks_;
};

//===----------------------------------------------------------------------===//
// Op
//===----------------------------------------------------------------------===//

class Op {
public:
  /// Creates a detached op in `arena` (the owning module's — see
  /// Op::arena() / Builder::createOp, which picks the insertion block's).
  /// Ownership transfers to the block it is eventually inserted into;
  /// a detached op that is abandoned should be passed to Op::destroy() so
  /// its operand uses are detached.
  static Op *create(IRArena &arena, OpKind kind, SourceLoc loc,
                    const Type *resultTypes, size_t numResults,
                    const Value *operands, size_t numOperands,
                    unsigned numRegions);
  static Op *create(IRArena &arena, OpKind kind, SourceLoc loc,
                    const std::vector<Type> &resultTypes,
                    const std::vector<Value> &operands, unsigned numRegions) {
    return create(arena, kind, loc, resultTypes.data(), resultTypes.size(),
                  operands.data(), operands.size(), numRegions);
  }
  /// Detaches a detached op: recursively drops every use-def edge out of
  /// the subtree. The memory stays in the arena — except for the arena
  /// root (the module op of ModuleOp::create), where this instead
  /// releases the whole arena in O(1).
  static void destroy(Op *op);

  OpKind kind() const { return kind_; }
  SourceLoc loc() const { return loc_; }
  void setLoc(SourceLoc l) { loc_ = l; }

  /// The arena every node of this op's module lives in.
  IRArena &arena() const { return *arena_; }

  Block *parent() const { return parent_; }
  /// The op owning the region that contains this op's parent block.
  Op *parentOp() const;
  Op *prev() const { return prev_; }
  Op *next() const { return next_; }

  /// True if this op is `other` or transitively contains it.
  bool isAncestorOf(const Op *other) const;

  // Operands ----------------------------------------------------------------
  unsigned numOperands() const {
    return static_cast<unsigned>(operands_.size());
  }
  Value operand(unsigned i) const { return operands_[i]; }
  const ArenaVector<Value> &operands() const { return operands_; }
  void setOperand(unsigned i, Value v);
  void appendOperand(Value v);
  void insertOperand(unsigned i, Value v);
  void eraseOperand(unsigned i);
  void dropAllOperands();
  /// Replaces every use of `from` among this op's operands with `to`.
  void replaceUsesOfWith(Value from, Value to);

  // Results -----------------------------------------------------------------
  unsigned numResults() const { return numResults_; }
  Value result(unsigned i = 0) const { return Value(&results_[i]); }
  bool hasAnyUse() const;

  // Regions -----------------------------------------------------------------
  unsigned numRegions() const { return numRegions_; }
  Region &region(unsigned i) { return regions_[i]; }
  const Region &region(unsigned i) const { return regions_[i]; }

  // Attributes ----------------------------------------------------------------
  AttrMap &attrs() { return attrs_; }
  const AttrMap &attrs() const { return attrs_; }

  // Mutation ------------------------------------------------------------------
  /// Unlinks from the parent block and detaches use-def edges; results
  /// must be unused. Memory stays in the arena (erase-is-unlink).
  void erase();
  void moveBefore(Op *other);
  void moveAfter(Op *other);
  /// Detach from parent block without destroying.
  void removeFromParent();

  /// Walks this op and all nested ops pre-order. The callback may erase
  /// the op it is given (but not yet-unvisited ops).
  void walk(const std::function<void(Op *)> &fn);
  /// Post-order walk (children before parents).
  void walkPostOrder(const std::function<void(Op *)> &fn);

private:
  friend class Block;
  Op(IRArena *arena, OpKind kind, SourceLoc loc)
      : kind_(kind), loc_(loc), arena_(arena), operands_(arena),
        attrs_(arena) {}

  OpKind kind_;
  uint16_t numResults_ = 0;
  uint16_t numRegions_ = 0;
  SourceLoc loc_;
  IRArena *arena_;
  Block *parent_ = nullptr;
  Op *prev_ = nullptr;
  Op *next_ = nullptr;
  ArenaVector<Value> operands_;
  ValueImpl *results_ = nullptr; ///< contiguous array, fixed at create
  Region *regions_ = nullptr;    ///< contiguous array, fixed at create
  AttrMap attrs_;
};

// The O(1)-teardown contract: arena nodes must never need destructors
// (string/int-vector attr values are the registered exception).
static_assert(std::is_trivially_destructible_v<ValueImpl>,
              "ValueImpl must stay trivially destructible");
static_assert(std::is_trivially_destructible_v<Block>,
              "Block must stay trivially destructible");
static_assert(std::is_trivially_destructible_v<Region>,
              "Region must stay trivially destructible");
static_assert(std::is_trivially_destructible_v<Op>,
              "Op must stay trivially destructible");

//===----------------------------------------------------------------------===//
// Kind predicates / traits
//===----------------------------------------------------------------------===//

bool isTerminator(OpKind k);
/// Pure = no memory effects, no regions, safe to CSE/DCE.
bool isPure(OpKind k);
/// Ops whose regions represent loops (bodies may execute 0..N times).
bool isLoopLike(OpKind k);
/// scf.parallel / omp.wsloop share the lbs/ubs/steps + "dims" layout.
bool hasParallelLayout(OpKind k);

} // namespace paralift::ir
