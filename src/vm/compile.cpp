#include "vm/compile.h"

#include "ir/verifier.h"
#include "support/trace.h"
#include "vm/plan.h"
#include "vm/verifier.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string_view>
#include <unordered_map>

using namespace paralift::ir;

namespace paralift::vm {

namespace {

struct PendingCall {
  uint32_t fnIdx;
  size_t instr;
  std::string callee;
};

class FunctionCompiler {
public:
  /// `depth` counts the parallel regions around the frame: 0 for a named
  /// function, one more for each closure.
  FunctionCompiler(BCModule &mod,
                   std::unordered_map<std::string, uint32_t> &fnIndex,
                   std::vector<PendingCall> &pending, FunctionPlan &plan,
                   uint32_t depth)
      : mod_(mod), fnIndex_(fnIndex), pending_(pending), plan_(plan),
        depth_(depth) {}

  /// Compiles a named IR function.
  uint32_t compileFunc(Op *funcOp) {
    FuncOp fn(funcOp);
    plan_.plan(fn);
    uint32_t idx = reserveFunction(fn.name());
    curIdx_ = idx;
    BCFunction out;
    out.name = fn.name();
    cur_ = &out;
    Block &body = fn.body();
    for (unsigned i = 0; i < body.numArgs(); ++i)
      regOf(body.arg(i));
    out.numArgs = body.numArgs();
    out.numResults = static_cast<uint32_t>(fn.resultTypes().size());
    compileBlockContents(body);
    out.numRegs = nextReg_;
    mod_.fns[idx] = std::move(out);
    return idx;
  }

  /// Compiles a parallel-region body into an anonymous closure function.
  /// `captures` lists outside values (in enclosing-frame registers);
  /// `ivs` the body block args.
  uint32_t compileClosure(Block &body, const std::vector<Value> &captures) {
    uint32_t idx = reserveFunction("");
    curIdx_ = idx;
    BCFunction out;
    out.name = "<closure>";
    cur_ = &out;
    // Captures are the frame's leading registers. A value keeps one
    // capture register per closure frame, so the enclosing frame's is
    // put back on the way out.
    std::vector<int32_t> outer;
    outer.reserve(captures.size());
    for (Value v : captures) {
      ValueInfo &info = plan_.values[v.impl()];
      outer.push_back(info.captureReg);
      info.captureReg = nextReg_++;
    }
    for (unsigned i = 0; i < body.numArgs(); ++i)
      regOf(body.arg(i));
    out.numArgs = static_cast<uint32_t>(captures.size()) + body.numArgs();
    out.numResults = 0;
    compileBlockContents(body);
    emit({BC::Ret, TypeKind::None, 0, 0, 0, 0, 0, 0});
    out.numRegs = nextReg_;
    mod_.fns[idx] = std::move(out);
    for (size_t i = 0; i < captures.size(); ++i)
      plan_.values[captures[i].impl()].captureReg = outer[i];
    return idx;
  }

private:
  uint32_t reserveFunction(const std::string &name) {
    auto idx = static_cast<uint32_t>(mod_.fns.size());
    mod_.fns.emplace_back();
    if (!name.empty())
      fnIndex_[name] = idx;
    return idx;
  }

  /// The value's register in this frame, numbered on first use: a value
  /// defined outside the frame's parallel region is one of its captures.
  int32_t regOf(Value v) {
    ValueInfo &info = plan_.values[v.impl()];
    if (info.depth < depth_)
      return info.captureReg;
    if (info.reg < 0)
      info.reg = nextReg_++;
    return info.reg;
  }
  int32_t newTemp() { return nextReg_++; }

  /// A value-preserving cast names its operand's register instead of
  /// copying it (see vm/bytecode.h). Sound because every register the
  /// lowering overwrites (loop IVs, iter args, while arguments, region
  /// results, wsloop IVs) is overwritten only after every SSA use of a
  /// cast of it in the same iteration, and for-loop yields go through
  /// temps.
  void aliasCast(Op *op) {
    int32_t r = regOf(op->operand(0));
    ValueInfo &info = plan_.values[op->result().impl()];
    assert(info.reg < 0);
    info.reg = r;
  }

  size_t emit(Instr in) {
    cur_->instrs.push_back(in);
    return cur_->instrs.size() - 1;
  }
  /// Appends the registers of op's operands [from, to) to extras and
  /// returns the window's offset.
  int32_t addOperandExtras(Op *op, unsigned from, unsigned to) {
    auto off = static_cast<int32_t>(cur_->extras.size());
    for (unsigned i = from; i < to; ++i)
      cur_->extras.push_back(regOf(op->operand(i)));
    return off;
  }
  size_t here() const { return cur_->instrs.size(); }
  void patchJump(size_t at, size_t target) {
    cur_->instrs[at].imm = static_cast<int64_t>(target);
  }

  /// Emits a constant into a fresh register (used by wsloop chunk math).
  int32_t emitConstI(int64_t v) {
    int32_t r = newTemp();
    emit({BC::ConstI, TypeKind::I64, 0, 0, 0, r, v, 0});
    return r;
  }
  int32_t emitBin(BC op, int32_t a, int32_t b, TypeKind t = TypeKind::I64) {
    int32_t r = newTemp();
    emit({op, t, a, b, 0, r, 0, 0});
    return r;
  }

  void compileBlockContents(Block &block) {
    for (Op *op : block)
      compileOp(op);
  }

  static BC binBC(OpKind k) {
    switch (k) {
    case OpKind::AddI: return BC::AddI;
    case OpKind::SubI: return BC::SubI;
    case OpKind::MulI: return BC::MulI;
    case OpKind::DivSI: return BC::DivSI;
    case OpKind::RemSI: return BC::RemSI;
    case OpKind::AndI: return BC::AndI;
    case OpKind::OrI: return BC::OrI;
    case OpKind::XOrI: return BC::XOrI;
    case OpKind::ShLI: return BC::ShLI;
    case OpKind::ShRSI: return BC::ShRSI;
    case OpKind::MinSI: return BC::MinSI;
    case OpKind::MaxSI: return BC::MaxSI;
    case OpKind::AddF: return BC::AddF;
    case OpKind::SubF: return BC::SubF;
    case OpKind::MulF: return BC::MulF;
    case OpKind::DivF: return BC::DivF;
    case OpKind::RemF: return BC::RemF;
    case OpKind::MinF: return BC::MinF;
    case OpKind::MaxF: return BC::MaxF;
    case OpKind::Pow: return BC::PowF;
    default: assert(false); return BC::AddI;
    }
  }

  static BC unBC(OpKind k) {
    switch (k) {
    case OpKind::NegF: return BC::NegF;
    case OpKind::Sqrt: return BC::SqrtF;
    case OpKind::Exp: return BC::ExpF;
    case OpKind::Log: return BC::LogF;
    case OpKind::Abs: return BC::AbsF;
    case OpKind::Sin: return BC::SinF;
    case OpKind::Cos: return BC::CosF;
    case OpKind::Tanh: return BC::TanhF;
    case OpKind::Floor: return BC::FloorF;
    case OpKind::Ceil: return BC::CeilF;
    default: assert(false); return BC::NegF;
    }
  }

  void compileOp(Op *op) {
    switch (op->kind()) {
    case OpKind::ConstInt:
      emit({BC::ConstI, op->result().type().kind(), 0, 0, 0,
            regOf(op->result()), op->attrs().getInt("value"), 0});
      return;
    case OpKind::ConstFloat:
      emit({BC::ConstF, op->result().type().kind(), 0, 0, 0,
            regOf(op->result()), 0, op->attrs().getFloat("value")});
      return;
    case OpKind::AddI: case OpKind::SubI: case OpKind::MulI:
    case OpKind::DivSI: case OpKind::RemSI: case OpKind::AndI:
    case OpKind::OrI: case OpKind::XOrI: case OpKind::ShLI:
    case OpKind::ShRSI: case OpKind::MinSI: case OpKind::MaxSI:
    case OpKind::AddF: case OpKind::SubF: case OpKind::MulF:
    case OpKind::DivF: case OpKind::RemF: case OpKind::MinF:
    case OpKind::MaxF: case OpKind::Pow:
      emit({binBC(op->kind()), op->result().type().kind(),
            regOf(op->operand(0)), regOf(op->operand(1)), 0,
            regOf(op->result()), 0, 0});
      return;
    case OpKind::NegF: case OpKind::Sqrt: case OpKind::Exp:
    case OpKind::Log: case OpKind::Abs: case OpKind::Sin:
    case OpKind::Cos: case OpKind::Tanh: case OpKind::Floor:
    case OpKind::Ceil:
      emit({unBC(op->kind()), op->result().type().kind(),
            regOf(op->operand(0)), 0, 0, regOf(op->result()), 0, 0});
      return;
    case OpKind::CmpI:
      emit({BC::CmpI, op->operand(0).type().kind(), regOf(op->operand(0)),
            regOf(op->operand(1)), 0, regOf(op->result()),
            op->attrs().getInt("pred"), 0});
      return;
    case OpKind::CmpF:
      emit({BC::CmpF, op->operand(0).type().kind(), regOf(op->operand(0)),
            regOf(op->operand(1)), 0, regOf(op->result()),
            op->attrs().getInt("pred"), 0});
      return;
    case OpKind::Select:
      emit({BC::Select, op->result().type().kind(), regOf(op->operand(0)),
            regOf(op->operand(1)), regOf(op->operand(2)),
            regOf(op->result()), 0, 0});
      return;
    case OpKind::SIToFP:
      emit({BC::SIToFP, op->result().type().kind(), regOf(op->operand(0)),
            0, 0, regOf(op->result()), 0, 0});
      return;
    case OpKind::FPToSI:
      emit({BC::FPToSI, op->result().type().kind(), regOf(op->operand(0)),
            0, 0, regOf(op->result()), 0, 0});
      return;
    case OpKind::IndexCast:
    case OpKind::ExtSI:
    case OpKind::FPExt:
    case OpKind::FPTrunc:
      aliasCast(op);
      return;
    case OpKind::TruncI:
      if (op->result().type().kind() == TypeKind::I32)
        emit({BC::TruncI32, TypeKind::I32, regOf(op->operand(0)), 0, 0,
              regOf(op->result()), 0, 0});
      else
        aliasCast(op);
      return;
    case OpKind::Alloca:
    case OpKind::Alloc: {
      Type t = op->result().type();
      cur_->shapes.push_back({t.elemKind(), t.shape()});
      auto shapeIdx = static_cast<int64_t>(cur_->shapes.size() - 1);
      int32_t off = addOperandExtras(op, 0, op->numOperands());
      emit({op->kind() == OpKind::Alloca ? BC::Alloca : BC::AllocHeap,
            t.elemKind(), 0, off, static_cast<int32_t>(op->numOperands()),
            regOf(op->result()), shapeIdx, 0});
      return;
    }
    case OpKind::Dealloc:
      emit({BC::Dealloc, TypeKind::None, regOf(op->operand(0)), 0, 0, 0, 0,
            0});
      return;
    case OpKind::Load: {
      int32_t off = addOperandExtras(op, 1, op->numOperands());
      emit({BC::Load, op->result().type().kind(), regOf(op->operand(0)),
            off, static_cast<int32_t>(op->numOperands() - 1),
            regOf(op->result()), 0, 0});
      return;
    }
    case OpKind::Store: {
      int32_t off = addOperandExtras(op, 2, op->numOperands());
      emit({BC::Store, op->operand(0).type().kind(), regOf(op->operand(1)),
            off, static_cast<int32_t>(op->numOperands() - 2),
            regOf(op->operand(0)), 0, 0});
      return;
    }
    case OpKind::Dim:
      emit({BC::Dim, TypeKind::Index, regOf(op->operand(0)), 0, 0,
            regOf(op->result()), op->attrs().getInt("index"), 0});
      return;
    case OpKind::SubView: {
      int32_t off = addOperandExtras(op, 1, op->numOperands());
      emit({BC::SubView, TypeKind::None, regOf(op->operand(0)), off,
            static_cast<int32_t>(op->numOperands() - 1), regOf(op->result()),
            0, 0});
      return;
    }
    case OpKind::Call: {
      int32_t off = addOperandExtras(op, 0, op->numOperands());
      for (unsigned i = 0; i < op->numResults(); ++i)
        cur_->extras.push_back(regOf(op->result(i)));
      // Callee index resolved in a post-pass (may be forward-referenced):
      // store the name in pendingCalls_.
      size_t at = emit({BC::Call, TypeKind::None, 0, off,
                        static_cast<int32_t>(op->numOperands()),
                        static_cast<int32_t>(op->numResults()), -1, 0});
      pending_.push_back({curIdx_, at, CallOp(op).callee()});
      return;
    }
    case OpKind::Return: {
      int32_t off = addOperandExtras(op, 0, op->numOperands());
      emit({BC::Ret, TypeKind::None, 0, off,
            static_cast<int32_t>(op->numOperands()), 0, 0, 0});
      return;
    }
    case OpKind::ScfIf:
      compileIf(op);
      return;
    case OpKind::ScfFor:
      compileFor(op);
      return;
    case OpKind::ScfWhile:
      compileWhile(op);
      return;
    case OpKind::OmpWsLoop:
      compileWsLoop(op);
      return;
    case OpKind::ScfParallel:
    case OpKind::OmpParallel:
      compileParallel(op);
      return;
    case OpKind::Barrier:
      emit({BC::SimtBarrier, TypeKind::None, 0, 0, 0, 0, 0, 0});
      return;
    case OpKind::OmpBarrier:
      emit({BC::TeamBarrier, TypeKind::None, 0, 0, 0, 0, 0, 0});
      return;
    case OpKind::Yield:
    case OpKind::Condition:
      // Handled by the enclosing structured-op compilation.
      return;
    default:
      fatalError("cannot compile op " + std::string(opKindName(op->kind())));
    }
  }

  void compileIf(Op *op) {
    IfOp ifOp(op);
    size_t jumpFalse = emit({BC::JumpIfFalse, TypeKind::None,
                             regOf(op->operand(0)), 0, 0, 0, -1, 0});
    // Then branch.
    compileBlockContents(ifOp.thenBlock());
    copyYields(ifOp.thenBlock().terminator(), op);
    size_t jumpEnd = emit({BC::Jump, TypeKind::None, 0, 0, 0, 0, -1, 0});
    if (ifOp.hasElse()) {
      compileBlockContents(ifOp.elseBlock());
      copyYields(ifOp.elseBlock().terminator(), op);
    }
    if (here() == jumpEnd + 1) {
      // Nothing on the else side: the then branch falls through to the
      // join instead of jumping to the next instruction.
      cur_->instrs.pop_back();
      patchJump(jumpFalse, jumpEnd);
      return;
    }
    patchJump(jumpFalse, jumpEnd + 1);
    patchJump(jumpEnd, here());
  }

  /// Copies a terminator's operands into the owning op's result registers.
  void copyYields(Op *term, Op *owner) {
    for (unsigned i = 0; i < owner->numResults(); ++i)
      emit({BC::Copy, owner->result(i).type().kind(),
            regOf(term->operand(i)), 0, 0, regOf(owner->result(i)), 0, 0});
  }

  void compileFor(Op *op) {
    ForOp f(op);
    Block &body = f.body();
    bool scoped = plan_.takeLoop(op);
    int32_t iv = regOf(f.iv());
    emit({BC::Copy, TypeKind::Index, regOf(f.lb()), 0, 0, iv, 0, 0});
    // Carried registers are the body block args (already distinct regs).
    for (unsigned i = 0; i < f.numIterArgs(); ++i)
      emit({BC::Copy, f.iterArg(i).type().kind(), regOf(f.init(i)), 0, 0,
            regOf(f.iterArg(i)), 0, 0});
    size_t head = here();
    size_t exitJump = emit(
        {BC::JumpIfGE, TypeKind::None, iv, regOf(f.ub()), 0, 0, -1, 0});
    if (scoped)
      emit({BC::ScopePush, TypeKind::None, 0, 0, 0, 0, 0, 0});
    compileBlockContents(body);
    // yield -> carried regs (via temps to allow swaps).
    Op *term = body.terminator();
    std::vector<int32_t> tmps;
    for (unsigned i = 0; i < f.numIterArgs(); ++i) {
      int32_t t = newTemp();
      emit({BC::Copy, f.iterArg(i).type().kind(), regOf(term->operand(i)),
            0, 0, t, 0, 0});
      tmps.push_back(t);
    }
    for (unsigned i = 0; i < f.numIterArgs(); ++i)
      emit({BC::Copy, f.iterArg(i).type().kind(), tmps[i], 0, 0,
            regOf(f.iterArg(i)), 0, 0});
    if (scoped)
      emit({BC::ScopePop, TypeKind::None, 0, 0, 0, 0, 0, 0});
    emit({BC::AddI, TypeKind::Index, iv, regOf(f.step()), 0, iv, 0, 0});
    emit({BC::Jump, TypeKind::None, 0, 0, 0, 0,
          static_cast<int64_t>(head), 0});
    patchJump(exitJump, here());
    for (unsigned i = 0; i < op->numResults(); ++i)
      emit({BC::Copy, op->result(i).type().kind(), regOf(f.iterArg(i)), 0,
            0, regOf(op->result(i)), 0, 0});
  }

  void compileWhile(Op *op) {
    WhileOp w(op);
    Block &before = w.before();
    Block &after = w.after();
    bool scoped = plan_.takeLoop(op);
    // init -> before args
    for (unsigned i = 0; i < op->numOperands(); ++i)
      emit({BC::Copy, before.arg(i).type().kind(), regOf(op->operand(i)), 0,
            0, regOf(before.arg(i)), 0, 0});
    size_t head = here();
    compileBlockContents(before);
    Op *cond = before.terminator();
    // forwarded -> after args and result regs
    for (unsigned i = 0; i + 1 < cond->numOperands(); ++i) {
      emit({BC::Copy, after.arg(i).type().kind(),
            regOf(cond->operand(i + 1)), 0, 0, regOf(after.arg(i)), 0, 0});
      emit({BC::Copy, after.arg(i).type().kind(),
            regOf(cond->operand(i + 1)), 0, 0, regOf(op->result(i)), 0, 0});
    }
    size_t exitJump = emit({BC::JumpIfFalse, TypeKind::None,
                            regOf(cond->operand(0)), 0, 0, 0, -1, 0});
    if (scoped)
      emit({BC::ScopePush, TypeKind::None, 0, 0, 0, 0, 0, 0});
    compileBlockContents(after);
    Op *yield = after.terminator();
    for (unsigned i = 0; i < yield->numOperands(); ++i)
      emit({BC::Copy, before.arg(i).type().kind(),
            regOf(yield->operand(i)), 0, 0, regOf(before.arg(i)), 0, 0});
    if (scoped)
      emit({BC::ScopePop, TypeKind::None, 0, 0, 0, 0, 0, 0});
    emit({BC::Jump, TypeKind::None, 0, 0, 0, 0, static_cast<int64_t>(head),
          0});
    patchJump(exitJump, here());
  }

  /// omp.wsloop: static chunking over the linearized iteration space,
  /// compiled inline in the current frame. Each team member takes the
  /// chunk [tid*total/n, (tid+1)*total/n) of the row-major order,
  /// delinearizes its first index once, then advances the IVs like an
  /// odometer: step the innermost IV and its counter, and when the counter
  /// reaches that dimension's extent, reset both and carry into the next
  /// dimension out. No division runs per iteration. Extents are clamped at
  /// 0, so one empty dimension empties the space (two negative extents
  /// must not multiply to a positive total).
  void compileWsLoop(Op *op) {
    ir::ParallelOp par(op);
    unsigned dims = par.numDims();
    Block &body = par.body();
    bool scoped = plan_.takeLoop(op);
    // extent_i = max((ub_i - lb_i + step_i - 1) / step_i, 0)
    // total = prod extent_i
    int32_t zero = emitConstI(0);
    int32_t one = emitConstI(1);
    std::vector<int32_t> extents;
    int32_t total = one;
    for (unsigned i = 0; i < dims; ++i) {
      int32_t step = regOf(par.step(i));
      int32_t range = emitBin(BC::SubI, regOf(par.ub(i)), regOf(par.lb(i)));
      int32_t stepm1 = emitBin(BC::SubI, step, one);
      int32_t ext = emitBin(
          BC::MaxSI,
          emitBin(BC::DivSI, emitBin(BC::AddI, range, stepm1), step), zero);
      extents.push_back(ext);
      total = (i == 0) ? ext : emitBin(BC::MulI, total, ext);
    }
    int32_t tid = newTemp(), nthreads = newTemp();
    emit({BC::GetTid, TypeKind::I64, 0, 0, 0, tid, 0, 0});
    emit({BC::GetTeamSize, TypeKind::I64, 0, 0, 0, nthreads, 0, 0});
    // lin = begin = tid*total/n ; end = (tid+1)*total/n
    int32_t lin =
        emitBin(BC::DivSI, emitBin(BC::MulI, tid, total), nthreads);
    int32_t end = emitBin(
        BC::DivSI, emitBin(BC::MulI, emitBin(BC::AddI, tid, one), total),
        nthreads);
    // Delinearize `begin` into the body IVs and per-dimension counters:
    // count_i = rest % extent_i, iv_i = lb_i + count_i * step_i.
    std::vector<int32_t> counts(dims);
    int32_t rest = lin;
    for (int i = static_cast<int>(dims) - 1; i >= 0; --i) {
      int32_t iv = regOf(body.arg(i));
      counts[i] = emitBin(BC::RemSI, rest, extents[i]);
      emit({BC::MulI, TypeKind::I64, counts[i], regOf(par.step(i)), 0, iv, 0,
            0});
      emit({BC::AddI, TypeKind::I64, iv, regOf(par.lb(i)), 0, iv, 0, 0});
      if (i > 0)
        rest = emitBin(BC::DivSI, rest, extents[i]);
    }
    size_t head = here();
    size_t exitJump =
        emit({BC::JumpIfGE, TypeKind::None, lin, end, 0, 0, -1, 0});
    if (scoped)
      emit({BC::ScopePush, TypeKind::None, 0, 0, 0, 0, 0, 0});
    compileBlockContents(body);
    if (scoped)
      emit({BC::ScopePop, TypeKind::None, 0, 0, 0, 0, 0, 0});
    emit({BC::AddI, TypeKind::I64, lin, one, 0, lin, 0, 0});
    // The odometer. The outermost dimension never wraps inside a chunk
    // (lin reaches end first), so it has no counter test.
    for (int i = static_cast<int>(dims) - 1; i >= 0; --i) {
      int32_t iv = regOf(body.arg(i));
      emit({BC::AddI, TypeKind::I64, iv, regOf(par.step(i)), 0, iv, 0, 0});
      if (i == 0)
        break;
      emit({BC::AddI, TypeKind::I64, counts[i], one, 0, counts[i], 0, 0});
      size_t carry = emit({BC::JumpIfGE, TypeKind::None, counts[i],
                           extents[i], 0, 0, -1, 0});
      emit({BC::Jump, TypeKind::None, 0, 0, 0, 0, static_cast<int64_t>(head),
            0});
      patchJump(carry, here());
      emit({BC::Copy, TypeKind::Index, regOf(par.lb(i)), 0, 0, iv, 0, 0});
      emit({BC::ConstI, TypeKind::I64, 0, 0, 0, counts[i], 0, 0});
    }
    emit({BC::Jump, TypeKind::None, 0, 0, 0, 0, static_cast<int64_t>(head),
          0});
    patchJump(exitJump, here());
  }

  /// omp.parallel / scf.parallel: compiled as closures. The captures are
  /// every value the region (the op itself included) uses but does not
  /// define, in first-use order, from the function's FunctionPlan. An
  /// scf.parallel's bound operands are captured too, since the op itself
  /// uses them; the launch also reads them in the enclosing frame.
  void compileParallel(Op *op) {
    const std::vector<Value> &captures = plan_.takeRegion(op);
    Closure closure;
    Block &body = op->region(0).front();
    if (op->kind() == OpKind::ScfParallel) {
      ir::ParallelOp par(op);
      closure.numIvs = static_cast<uint8_t>(par.numDims());
      for (unsigned i = 0; i < par.numDims(); ++i) {
        closure.lbs.push_back(regOf(par.lb(i)));
        closure.ubs.push_back(regOf(par.ub(i)));
        closure.steps.push_back(regOf(par.step(i)));
      }
      closure.gpuBlock = op->attrs().getBool("gpu.block");
      closure.gpuGrid = op->attrs().getBool("gpu.grid");
    }
    for (Value v : captures)
      closure.captureRegs.push_back(regOf(v));

    // Compile the body in a fresh compiler sharing the module and plan.
    FunctionCompiler sub(mod_, fnIndex_, pending_, plan_, depth_ + 1);
    closure.fnIndex = sub.compileClosure(body, captures);

    cur_->closures.push_back(std::move(closure));
    auto cidx = static_cast<int64_t>(cur_->closures.size() - 1);
    emit({op->kind() == OpKind::OmpParallel ? BC::ParallelOmp
                                            : BC::ParallelScf,
          TypeKind::None, 0, 0, 0, 0, cidx, 0});
  }

private:
  BCModule &mod_;
  std::unordered_map<std::string, uint32_t> &fnIndex_;
  std::vector<PendingCall> &pending_;
  FunctionPlan &plan_;
  const uint32_t depth_;
  BCFunction *cur_ = nullptr;
  uint32_t curIdx_ = 0;
  int32_t nextReg_ = 0;
};

} // namespace

BCModule compileModule(ir::ModuleOp module) {
  BCModule out;
  {
    trace::TraceSpan span("vm:lower", "vm");
    std::vector<PendingCall> pending;
    FunctionPlan plan;
    for (Op *fn : module.body()) {
      if (fn->kind() != OpKind::Func)
        continue;
      FunctionCompiler fc(out, out.byName, pending, plan, /*depth=*/0);
      fc.compileFunc(fn);
    }
    // Resolve call targets by name (calls may reference functions
    // compiled later in the module).
    for (auto &p : pending) {
      auto it = out.byName.find(p.callee);
      if (it == out.byName.end())
        fatalError("call to unknown function " + p.callee);
      out.fns[p.fnIdx].instrs[p.instr].imm = static_cast<int64_t>(it->second);
    }
    if (span.active()) {
      size_t instrs = 0;
      for (const BCFunction &f : out.fns)
        instrs += f.instrs.size();
      span.annotate("instrs", std::to_string(instrs));
    }
  }
  // Self-check tripwire: bytecode we emit must always verify. Always on
  // in debug builds; opt builds enable it with PARALIFT_VERIFY_BYTECODE=1
  // (callers that need a proof token run the verifier themselves via
  // VerifiedModule::create, so this gate is about catching compiler bugs
  // at the point of emission, not about safety).
#ifdef NDEBUG
  static const bool verifyEmitted = [] {
    const char *e = std::getenv("PARALIFT_VERIFY_BYTECODE");
    return e && *e && std::string_view(e) != "0";
  }();
#else
  constexpr bool verifyEmitted = true;
#endif
  if (verifyEmitted) {
    VerifyResult r = verifyModule(out);
    if (!r.ok())
      fatalError("vm::compile emitted invalid bytecode (compiler bug):\n" +
                 r.str());
  }
  return out;
}

} // namespace paralift::vm
