// Typed views over the structured ops (func/call/for/if/while/parallel)
// giving named accessors for their operand/region layouts, plus creation
// helpers that build the op together with its region skeleton.
#pragma once

#include "ir/builder.h"
#include "ir/op.h"

#include <optional>
#include <unordered_map>

namespace paralift::ir {

//===----------------------------------------------------------------------===//
// ModuleOp / FuncOp / CallOp
//===----------------------------------------------------------------------===//

struct ModuleOp {
  Op *op;
  explicit ModuleOp(Op *op) : op(op) { assert(op->kind() == OpKind::Module); }

  static ModuleOp create();
  Block &body() const { return op->region(0).front(); }
  /// Finds the func with the given symbol name, or nullptr.
  Op *lookupFunc(const std::string &name) const;
  void destroy() { Op::destroy(op); }
};

/// Owning wrapper for a top-level module (modules are not nested in blocks).
class OwnedModule {
public:
  OwnedModule() : module_(ModuleOp::create()) {}

  /// Takes ownership of an existing detached module op. It must be the
  /// root of its arena (i.e. come from ModuleOp::create / cloneModule),
  /// since ~OwnedModule releases the arena through it.
  static OwnedModule adopt(Op *moduleOp) {
    assert(moduleOp->arena().root() == moduleOp &&
           "adopted module must own its arena");
    return OwnedModule(ModuleOp(moduleOp));
  }
  ~OwnedModule() {
    if (module_.op)
      module_.destroy();
  }
  OwnedModule(OwnedModule &&o) noexcept : module_(o.module_) {
    o.module_.op = nullptr;
  }
  OwnedModule &operator=(OwnedModule &&o) noexcept {
    if (this != &o) {
      if (module_.op)
        module_.destroy();
      module_ = o.module_;
      o.module_.op = nullptr;
    }
    return *this;
  }
  OwnedModule(const OwnedModule &) = delete;
  OwnedModule &operator=(const OwnedModule &) = delete;

  ModuleOp get() const { return module_; }
  Op *op() const { return module_.op; }
  /// The arena all of this module's IR lives in.
  IRArena &arena() const { return module_.op->arena(); }

private:
  explicit OwnedModule(ModuleOp m) : module_(m) {}
  ModuleOp module_;
};

/// Deep-copies a module (all funcs, regions, values). The clone is
/// independent: benchmarks parse/irgen a source once and clone per
/// pipeline run instead of re-running the frontend.
OwnedModule cloneModule(ModuleOp module);

struct FuncOp {
  Op *op;
  explicit FuncOp(Op *op) : op(op) { assert(op->kind() == OpKind::Func); }

  /// Creates a func appended to `module` with entry-block args for params.
  static FuncOp create(ModuleOp module, const std::string &name,
                       const std::vector<Type> &argTypes,
                       const std::vector<Type> &resultTypes);

  std::string name() const { return op->attrs().getString("sym_name"); }
  Block &body() const { return op->region(0).front(); }
  unsigned numArgs() const { return body().numArgs(); }
  Value arg(unsigned i) const { return body().arg(i); }
  std::vector<Type> resultTypes() const;
};

struct CallOp {
  Op *op;
  explicit CallOp(Op *op) : op(op) { assert(op->kind() == OpKind::Call); }

  static CallOp create(Builder &b, const std::string &callee,
                       const std::vector<Value> &args,
                       const std::vector<Type> &resultTypes);
  std::string callee() const { return op->attrs().getString("callee"); }
};

//===----------------------------------------------------------------------===//
// Structured control flow
//===----------------------------------------------------------------------===//

struct ForOp {
  Op *op;
  explicit ForOp(Op *op) : op(op) { assert(op->kind() == OpKind::ScfFor); }

  /// Creates `scf.for` with its body block (iv + iter args). The body has
  /// no terminator; the caller must append a yield of the carried values.
  static ForOp create(Builder &b, Value lb, Value ub, Value step,
                      const std::vector<Value> &inits = {});

  Value lb() const { return op->operand(0); }
  Value ub() const { return op->operand(1); }
  Value step() const { return op->operand(2); }
  unsigned numIterArgs() const { return op->numOperands() - 3; }
  Value init(unsigned i) const { return op->operand(3 + i); }
  Block &body() const { return op->region(0).front(); }
  Value iv() const { return body().arg(0); }
  Value iterArg(unsigned i) const { return body().arg(1 + i); }
  Value result(unsigned i) const { return op->result(i); }
};

struct IfOp {
  Op *op;
  explicit IfOp(Op *op) : op(op) { assert(op->kind() == OpKind::ScfIf); }

  /// Creates `scf.if`. Both region blocks are created; if `withElse` is
  /// false the else region is left empty (no blocks). Bodies have no
  /// terminators yet.
  static IfOp create(Builder &b, Value cond,
                     const std::vector<Type> &resultTypes = {},
                     bool withElse = false);

  Value cond() const { return op->operand(0); }
  Block &thenBlock() const { return op->region(0).front(); }
  bool hasElse() const { return !op->region(1).empty(); }
  Block &elseBlock() const { return op->region(1).front(); }
  /// Creates the else block if absent.
  Block &getOrCreateElse();
};

struct WhileOp {
  Op *op;
  explicit WhileOp(Op *op) : op(op) { assert(op->kind() == OpKind::ScfWhile); }

  /// Creates `scf.while` with before/after blocks whose args mirror
  /// `inits` / `afterTypes`. Terminators are the caller's responsibility
  /// (Condition in before, Yield in after).
  static WhileOp create(Builder &b, const std::vector<Value> &inits,
                        const std::vector<Type> &afterTypes);

  Block &before() const { return op->region(0).front(); }
  Block &after() const { return op->region(1).front(); }
};

/// View over scf.parallel and omp.wsloop (identical layouts).
struct ParallelOp {
  Op *op;
  explicit ParallelOp(Op *op) : op(op) {
    assert(hasParallelLayout(op->kind()));
  }

  static ParallelOp create(Builder &b, OpKind kind,
                           const std::vector<Value> &lbs,
                           const std::vector<Value> &ubs,
                           const std::vector<Value> &steps);

  unsigned numDims() const {
    return static_cast<unsigned>(op->attrs().getInt("dims"));
  }
  Value lb(unsigned i) const { return op->operand(i); }
  Value ub(unsigned i) const { return op->operand(numDims() + i); }
  Value step(unsigned i) const { return op->operand(2 * numDims() + i); }
  Block &body() const { return op->region(0).front(); }
  Value iv(unsigned i) const { return body().arg(i); }

  bool isGrid() const { return op->attrs().getBool("gpu.grid"); }
  bool isBlock() const { return op->attrs().getBool("gpu.block"); }
};

struct OmpParallelOp {
  Op *op;
  explicit OmpParallelOp(Op *op) : op(op) {
    assert(op->kind() == OpKind::OmpParallel);
  }
  /// Creates omp.parallel with an empty body block (no terminator needed;
  /// the block simply ends).
  static OmpParallelOp create(Builder &b);
  Block &body() const { return op->region(0).front(); }
};

//===----------------------------------------------------------------------===//
// Utilities
//===----------------------------------------------------------------------===//

/// Returns the constant integer value of `v` if it is defined by ConstInt.
std::optional<int64_t> getConstInt(Value v);
/// Returns the constant float value of `v` if defined by ConstFloat.
std::optional<double> getConstFloat(Value v);

/// Clones `src` (with all nested regions) into `arena`, remapping operands
/// through `map`; values missing from the map are used as-is. The clone's
/// results are recorded in the map. Returns the detached clone. This is
/// the only way to move IR between modules — ops must never migrate out
/// of their arena.
Op *cloneOpInto(IRArena &arena, Op *src,
                std::unordered_map<ValueImpl *, Value> &map);

/// Same-arena clone shorthand (inlining, unrolling): clones into
/// `src->arena()`.
Op *cloneOp(Op *src, std::unordered_map<ValueImpl *, Value> &map);

/// True if `v` is defined outside `op` (i.e. usable as an operand of `op`).
bool isDefinedOutside(Value v, Op *op);

/// True if `op` is, or has nested in its regions, a polygeist.barrier.
bool containsBarrier(Op *op);

/// Returns the closest enclosing op of the given kind, or nullptr.
Op *getEnclosing(Op *op, OpKind kind);

/// The outermost of `op` and its ancestors inside the enclosing func that
/// every value of `vals` is defined outside of: code computing from `vals`
/// for `op` can go before it, as early as the values allow.
Op *outermostScopeOutside(Op *op, const std::vector<Value> &vals);

/// Returns the enclosing scf.parallel carrying the gpu.block attribute.
Op *getEnclosingThreadParallel(Op *op);

} // namespace paralift::ir
