// What lowering needs to know about a function before emitting it.
//
// Both tiers that lower the IR, bytecode (vm/compile.cpp) and C
// (native/emit.cpp), take each loop's arena scope and each parallel
// region's captures from a FunctionPlan, so the two agree on them.
#pragma once

#include "ir/ophelpers.h"
#include "ir/value_table.h"

#include <cstdint>
#include <vector>

namespace paralift::vm {

/// What lowering knows about one SSA value of the function being lowered,
/// its closures included. The plan fills `depth` and `lastUse`; bytecode
/// lowering numbers the value's registers in `reg` and `captureReg`.
struct ValueInfo {
  uint32_t depth = 0;      ///< parallel regions around its definition
  uint32_t lastUse = 0;    ///< pre-order number of the op last using it
  int32_t reg = -1;        ///< its register in its defining frame
  int32_t captureReg = -1; ///< its register in the closure being lowered
};

/// A value's ValueInfo, found without allocating: one table reused for
/// every function of a module.
using ValueTable = ir::ValueTable<ValueInfo>;

/// The plan of one function, found in one pre-order walk of its body:
/// whether each loop body holds an alloca (it then takes an arena scope
/// per iteration), and which outside values each parallel region uses
/// (its captures, in first-use order). A lowering visits the ops in the
/// same pre-order (a structured op before its regions, regions and
/// blocks in order) and takes the loops and regions in turn.
class FunctionPlan {
public:
  void plan(ir::FuncOp fn);

  /// Whether loop op's body holds an alloca: an scf.for, scf.while (its
  /// after region) or omp.wsloop, taken before any op inside it.
  bool takeLoop(ir::Op *op) {
    if (nextLoop_ >= loops_.size() || loops_[nextLoop_].op != op)
      fatalError("FunctionPlan: loops lowered out of plan order");
    return loops_[nextLoop_++].scoped;
  }
  /// The captures of parallel region op, taken in pre-order like
  /// takeLoop. The op's own operands count as used inside it.
  const std::vector<ir::Value> &takeRegion(ir::Op *op) {
    if (nextRegion_ >= regions_.size() || regions_[nextRegion_].op != op)
      fatalError("FunctionPlan: regions lowered out of plan order");
    return regions_[nextRegion_++].captures;
  }

  ValueTable values;

private:
  struct Loop {
    ir::Op *op;
    bool scoped = false;
  };
  struct Region {
    ir::Op *op;
    std::vector<ir::Value> captures;
  };
  /// A parallel region whose subtree the walk is in.
  struct Open {
    size_t region;
    uint32_t entered; ///< its pre-order number
  };

  void visit(ir::Op *op);

  std::vector<Loop> loops_;
  std::vector<Region> regions_;
  std::vector<Open> open_;
  std::vector<size_t> openLoops_;
  size_t nextLoop_ = 0, nextRegion_ = 0;
  uint32_t serial_ = 0;
};

} // namespace paralift::vm
