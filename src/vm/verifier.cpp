#include "vm/verifier.h"

#include "support/metrics.h"
#include "support/trace.h"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <sstream>

namespace paralift::vm {

namespace {

/// Registers are 32-bit indices but a frame is materialized as a vector of
/// 8-byte slots; an adversarial numRegs of 2^31 would be a 16 GB
/// allocation per call. Far above anything the compiler emits.
constexpr uint32_t kMaxRegsPerFrame = 1u << 20;

const char *bcName(BC op) {
  switch (op) {
  case BC::ConstI: return "ConstI";
  case BC::ConstF: return "ConstF";
  case BC::Copy: return "Copy";
  case BC::AddI: return "AddI";
  case BC::SubI: return "SubI";
  case BC::MulI: return "MulI";
  case BC::DivSI: return "DivSI";
  case BC::RemSI: return "RemSI";
  case BC::AndI: return "AndI";
  case BC::OrI: return "OrI";
  case BC::XOrI: return "XOrI";
  case BC::ShLI: return "ShLI";
  case BC::ShRSI: return "ShRSI";
  case BC::MinSI: return "MinSI";
  case BC::MaxSI: return "MaxSI";
  case BC::CmpI: return "CmpI";
  case BC::AddF: return "AddF";
  case BC::SubF: return "SubF";
  case BC::MulF: return "MulF";
  case BC::DivF: return "DivF";
  case BC::RemF: return "RemF";
  case BC::MinF: return "MinF";
  case BC::MaxF: return "MaxF";
  case BC::PowF: return "PowF";
  case BC::NegF: return "NegF";
  case BC::SqrtF: return "SqrtF";
  case BC::ExpF: return "ExpF";
  case BC::LogF: return "LogF";
  case BC::AbsF: return "AbsF";
  case BC::SinF: return "SinF";
  case BC::CosF: return "CosF";
  case BC::TanhF: return "TanhF";
  case BC::FloorF: return "FloorF";
  case BC::CeilF: return "CeilF";
  case BC::CmpF: return "CmpF";
  case BC::Select: return "Select";
  case BC::SIToFP: return "SIToFP";
  case BC::FPToSI: return "FPToSI";
  case BC::TruncI32: return "TruncI32";
  case BC::Alloca: return "Alloca";
  case BC::AllocHeap: return "AllocHeap";
  case BC::Dealloc: return "Dealloc";
  case BC::Load: return "Load";
  case BC::Store: return "Store";
  case BC::Dim: return "Dim";
  case BC::SubView: return "SubView";
  case BC::Jump: return "Jump";
  case BC::JumpIfFalse: return "JumpIfFalse";
  case BC::JumpIfGE: return "JumpIfGE";
  case BC::Call: return "Call";
  case BC::Ret: return "Ret";
  case BC::GetTid: return "GetTid";
  case BC::GetTeamSize: return "GetTeamSize";
  case BC::TeamBarrier: return "TeamBarrier";
  case BC::SimtBarrier: return "SimtBarrier";
  case BC::ParallelOmp: return "ParallelOmp";
  case BC::ParallelScf: return "ParallelScf";
  case BC::ScopePush: return "ScopePush";
  case BC::ScopePop: return "ScopePop";
  }
  return "<bad opcode>";
}

bool isFloatKind(TypeKind k) {
  return k == TypeKind::F32 || k == TypeKind::F64;
}

//===--------------------------------------------------------------------===//
// Typestate lattice
//===--------------------------------------------------------------------===//

/// Abstract value of one register. `Any` is the trusted-but-unknown state
/// of host-supplied arguments: the host constructs those slots, so memref
/// uses are its responsibility. It exists ONLY for values every one of
/// whose sources is the trusted host; any value that can also originate
/// from bytecode (an internal Call argument, a closure capture, a value
/// merged with a bytecode-computed one) carries the bytecode side's
/// concrete typestate instead — see join().
struct RegState {
  enum K : uint8_t {
    Uninit,   ///< never written (or maybe-unwritten at a join)
    Int,      ///< i-view of the Slot union (I1/I32/I64/Index)
    Float,    ///< f-view
    Scalar,   ///< i- or f-view, unknown which; never a valid p-view
    Mem,      ///< p-view: a MemRef descriptor
    Any,      ///< initialized, type owned by the (trusted) host caller
    Conflict, ///< different non-Uninit types joined across paths
  };
  K k = Uninit;
  TypeKind elem = TypeKind::None; ///< Mem only; None = unknown
  int8_t rank = -1;               ///< Mem only; -1 = unknown

  static RegState ofInt() { return {Int, TypeKind::None, -1}; }
  static RegState ofFloat() { return {Float, TypeKind::None, -1}; }
  static RegState ofScalar() { return {Scalar, TypeKind::None, -1}; }
  static RegState ofAny() { return {Any, TypeKind::None, -1}; }
  static RegState ofMem(TypeKind e, int8_t r) { return {Mem, e, r}; }

  bool operator==(const RegState &o) const {
    return k == o.k && elem == o.elem && rank == o.rank;
  }

  const char *describe() const {
    switch (k) {
    case Uninit: return "uninitialized";
    case Int: return "int";
    case Float: return "float";
    case Scalar: return "a scalar (int or float, not a memref)";
    case Mem: return "memref";
    case Any: return "unknown (caller-provided)";
    case Conflict: return "path-dependent (conflicting types)";
    }
    return "?";
  }
};

RegState join(const RegState &a, const RegState &b) {
  if (a == b)
    return a;
  // Maybe-uninitialized dominates: any read must be rejected.
  if (a.k == RegState::Uninit || b.k == RegState::Uninit)
    return {RegState::Uninit, TypeKind::None, -1};
  if (a.k == RegState::Conflict || b.k == RegState::Conflict)
    return {RegState::Conflict, TypeKind::None, -1};
  // `Any` carries trust, not information: joined with a concrete state
  // the concrete side governs. A value that is possibly bytecode-chosen
  // on one path must not inherit the trusted path's blanket permissions
  // (an attacker-ConstI'd integer merged with a host argument would
  // otherwise pass a memref read and be dereferenced).
  if (a.k == RegState::Any)
    return b;
  if (b.k == RegState::Any)
    return a;
  if (a.k == b.k) // both Mem with differing detail: widen the component
    return RegState::ofMem(a.elem == b.elem ? a.elem : TypeKind::None,
                           a.rank == b.rank ? a.rank : int8_t(-1));
  // Scalar absorbs the scalar views it generalizes; everything else
  // (int vs float, scalar vs memref) is Slot type confusion.
  auto scalarish = [](RegState::K k) {
    return k == RegState::Int || k == RegState::Float ||
           k == RegState::Scalar;
  };
  if (scalarish(a.k) && scalarish(b.k) &&
      (a.k == RegState::Scalar || b.k == RegState::Scalar))
    return RegState::ofScalar();
  return {RegState::Conflict, TypeKind::None, -1};
}

/// Flow state at one program point: register typestates plus the
/// ScopePush nesting depth (scope marks are a stack in the interpreter,
/// so depth must be path-independent).
struct FlowState {
  std::vector<RegState> regs;
  int32_t depth = 0;
};

//===--------------------------------------------------------------------===//
// Function roles (barrier-placement contexts)
//===--------------------------------------------------------------------===//

struct Roles {
  bool entry = false;     ///< host-callable via BCModule::byName
  bool ompBody = false;   ///< ParallelOmp closure body (fresh team)
  bool simtBody = false;  ///< gpuBlock ParallelScf body (lockstep engine)
  bool otherBody = false; ///< serial ParallelScf body (inherits team)
  bool callee = false;    ///< Call target

  bool any() const {
    return entry || ompBody || simtBody || otherBody || callee;
  }
};

//===--------------------------------------------------------------------===//
// Verifier
//===--------------------------------------------------------------------===//

class Verifier {
public:
  explicit Verifier(const BCModule &mod) : mod_(mod) {}

  VerifyResult run() {
    auto &reg = metrics::MetricsRegistry::instance();
    metrics::Counter &fnCounter = reg.counter("vm.verify.functions");
    metrics::Counter &errCounter = reg.counter("vm.verify.errors");

    structuralModule();
    for (uint32_t i = 0; i < mod_.fns.size(); ++i) {
      trace::TraceSpan span(std::string("verify:") + mod_.fns[i].name, "vm");
      structuralFunction(i);
      fnCounter.add(1);
    }
    // The flow layer's transfer functions index instrs/extras/shapes/
    // closures with the very fields layer 1 validates; on structural
    // errors those reads are unsafe, so stop here.
    if (result_.errors.empty()) {
      computeRoles();

      // Interprocedural fixpoint: argument typestates flow from every
      // invocation site (Call and closure launch, in any function-index
      // order) into the target's entry state, and Ret typestates flow
      // back into Call results. Only functions invoked by nothing but
      // the host keep blanket-trusted Any arguments; everything
      // bytecode can reach is analyzed under what bytecode actually
      // passes. Summaries only ever rise (join), so this terminates.
      argSeeds_.assign(mod_.fns.size(),
                       std::optional<std::vector<RegState>>());
      retStates_.assign(mod_.fns.size(),
                        std::optional<std::vector<RegState>>());
      for (uint32_t i = 0; i < mod_.fns.size(); ++i)
        if (roles_[i].entry)
          argSeeds_[i] = std::vector<RegState>(mod_.fns[i].numArgs,
                                               RegState::ofAny());
      std::vector<std::vector<uint32_t>> callersOf(mod_.fns.size());
      for (uint32_t i = 0; i < mod_.fns.size(); ++i)
        for (const Instr &in : mod_.fns[i].instrs)
          if (in.op == BC::Call)
            callersOf[in.imm].push_back(i);

      std::vector<char> queued(mod_.fns.size(), 1);
      std::deque<uint32_t> work;
      for (uint32_t i = 0; i < mod_.fns.size(); ++i)
        work.push_back(i);
      while (!work.empty()) {
        uint32_t i = work.front();
        work.pop_front();
        queued[i] = 0;
        changedSeeds_.clear();
        retChanged_ = false;
        flowFunction(i, /*report=*/false);
        auto enqueue = [&](uint32_t f) {
          if (!queued[f]) {
            queued[f] = 1;
            work.push_back(f);
          }
        };
        for (uint32_t t : changedSeeds_)
          enqueue(t);
        if (retChanged_)
          for (uint32_t caller : callersOf[i])
            enqueue(caller);
      }

      // Reporting pass over the converged summaries: each reachable pc
      // visited exactly once, so every error has a stable attribution.
      metrics::Counter &blockCounter = reg.counter("vm.verify.blocks");
      for (uint32_t i = 0; i < mod_.fns.size(); ++i) {
        trace::TraceSpan span(std::string("verify:") + mod_.fns[i].name,
                              "vm");
        blockCounter.add(flowFunction(i, /*report=*/true));
      }
    }
    errCounter.add(result_.errors.size());
    return std::move(result_);
  }

private:
  void error(uint32_t fnIdx, size_t pc, std::string reason) {
    VerifyError e;
    e.function = mod_.fns[fnIdx].name;
    e.fnIndex = fnIdx;
    e.pc = pc;
    if (pc != VerifyError::kNoPc)
      e.op = mod_.fns[fnIdx].instrs[pc].op;
    e.reason = std::move(reason);
    result_.errors.push_back(std::move(e));
  }

  //===------------------------------------------------------------------===//
  // Layer 1: structural
  //===------------------------------------------------------------------===//

  void structuralModule() {
    for (const auto &[name, idx] : mod_.byName)
      if (idx >= mod_.fns.size()) {
        VerifyError e;
        e.function = name;
        e.fnIndex = idx;
        e.reason = "byName entry '" + name + "' references function index " +
                   std::to_string(idx) + " but the module has only " +
                   std::to_string(mod_.fns.size()) + " functions";
        result_.errors.push_back(std::move(e));
      }
  }

  void structuralFunction(uint32_t fnIdx) {
    const BCFunction &fn = mod_.fns[fnIdx];
    if (fn.numRegs > kMaxRegsPerFrame) {
      error(fnIdx, VerifyError::kNoPc,
            "numRegs " + std::to_string(fn.numRegs) +
                " exceeds the frame limit " +
                std::to_string(kMaxRegsPerFrame));
      return; // every register check below would also fire
    }
    if (fn.numArgs > fn.numRegs)
      error(fnIdx, VerifyError::kNoPc,
            "numArgs " + std::to_string(fn.numArgs) + " exceeds numRegs " +
                std::to_string(fn.numRegs) +
                " (argument copy would overflow the frame)");

    for (size_t c = 0; c < fn.closures.size(); ++c)
      structuralClosure(fnIdx, c);

    const size_t n = fn.instrs.size();
    for (size_t pc = 0; pc < n; ++pc)
      structuralInstr(fnIdx, pc);
  }

  void structuralClosure(uint32_t fnIdx, size_t cIdx) {
    const BCFunction &fn = mod_.fns[fnIdx];
    const Closure &c = fn.closures[cIdx];
    auto closureErr = [&](const std::string &what) {
      error(fnIdx, VerifyError::kNoPc,
            "closure #" + std::to_string(cIdx) + ": " + what);
    };
    if (c.fnIndex >= mod_.fns.size()) {
      closureErr("body function index " + std::to_string(c.fnIndex) +
                 " out of range (module has " +
                 std::to_string(mod_.fns.size()) + " functions)");
      return;
    }
    bool regsOk = true;
    auto checkRegs = [&](const std::vector<int32_t> &rs, const char *what) {
      for (int32_t r : rs)
        if (r < 0 || static_cast<uint32_t>(r) >= fn.numRegs) {
          closureErr(std::string(what) + " register " + std::to_string(r) +
                     " out of range (numRegs " + std::to_string(fn.numRegs) +
                     ")");
          regsOk = false;
        }
    };
    checkRegs(c.captureRegs, "capture");
    checkRegs(c.lbs, "lower-bound");
    checkRegs(c.ubs, "upper-bound");
    checkRegs(c.steps, "step");
    if (c.lbs.size() != c.numIvs || c.ubs.size() != c.numIvs ||
        c.steps.size() != c.numIvs) {
      closureErr("numIvs " + std::to_string(c.numIvs) +
                 " inconsistent with bound vectors (lbs " +
                 std::to_string(c.lbs.size()) + ", ubs " +
                 std::to_string(c.ubs.size()) + ", steps " +
                 std::to_string(c.steps.size()) + ")");
      regsOk = false;
    }
    const BCFunction &body = mod_.fns[c.fnIndex];
    size_t wantArgs = c.captureRegs.size() + c.numIvs;
    if (regsOk && body.numArgs != wantArgs)
      closureErr("body expects " + std::to_string(body.numArgs) +
                 " args but the closure provides " +
                 std::to_string(wantArgs) + " (captures " +
                 std::to_string(c.captureRegs.size()) + " + ivs " +
                 std::to_string(c.numIvs) + ")");
  }

  void structuralInstr(uint32_t fnIdx, size_t pc) {
    const BCFunction &fn = mod_.fns[fnIdx];
    const Instr &in = fn.instrs[pc];
    const size_t n = fn.instrs.size();

    auto checkReg = [&](int32_t r, const char *field) {
      if (r < 0 || static_cast<uint32_t>(r) >= fn.numRegs)
        error(fnIdx, pc,
              std::string("register ") + field + "=" + std::to_string(r) +
                  " out of range (numRegs " + std::to_string(fn.numRegs) +
                  ")");
    };
    // extras[off .. off+count): the range must lie inside extras and every
    // register named inside the range must fit the frame.
    auto checkExtras = [&](int32_t off, int64_t count, const char *what) {
      if (off < 0 || count < 0 ||
          static_cast<uint64_t>(off) + static_cast<uint64_t>(count) >
              fn.extras.size()) {
        error(fnIdx, pc,
              std::string(what) + " extras range [" + std::to_string(off) +
                  ", " + std::to_string(off + count) +
                  ") overflows extras (size " +
                  std::to_string(fn.extras.size()) + ")");
        return false;
      }
      for (int64_t i = 0; i < count; ++i) {
        int32_t r = fn.extras[off + i];
        if (r < 0 || static_cast<uint32_t>(r) >= fn.numRegs)
          error(fnIdx, pc,
                std::string(what) + " register extras[" +
                    std::to_string(off + i) + "]=" + std::to_string(r) +
                    " out of range (numRegs " + std::to_string(fn.numRegs) +
                    ")");
      }
      return true;
    };
    auto checkJumpTarget = [&](int64_t target) {
      // Target n is the implicit fall-off-the-end return point; anything
      // past it (or negative) is not an instruction boundary.
      if (target < 0 || static_cast<uint64_t>(target) > n)
        error(fnIdx, pc,
              "jump target " + std::to_string(target) +
                  " outside the function (instruction count " +
                  std::to_string(n) + ")");
    };

    switch (in.op) {
    case BC::ConstI:
    case BC::ConstF:
    case BC::GetTid:
    case BC::GetTeamSize:
      checkReg(in.d, "d");
      break;
    case BC::Copy:
    case BC::NegF: case BC::SqrtF: case BC::ExpF: case BC::LogF:
    case BC::AbsF: case BC::SinF: case BC::CosF: case BC::TanhF:
    case BC::FloorF: case BC::CeilF:
    case BC::SIToFP: case BC::FPToSI: case BC::TruncI32:
      checkReg(in.a, "a");
      checkReg(in.d, "d");
      break;
    case BC::AddI: case BC::SubI: case BC::MulI: case BC::DivSI:
    case BC::RemSI: case BC::AndI: case BC::OrI: case BC::XOrI:
    case BC::ShLI: case BC::ShRSI: case BC::MinSI: case BC::MaxSI:
    case BC::CmpI:
    case BC::AddF: case BC::SubF: case BC::MulF: case BC::DivF:
    case BC::RemF: case BC::MinF: case BC::MaxF: case BC::PowF:
    case BC::CmpF:
      checkReg(in.a, "a");
      checkReg(in.b, "b");
      checkReg(in.d, "d");
      break;
    case BC::Select:
      checkReg(in.a, "a");
      checkReg(in.b, "b");
      checkReg(in.c, "c");
      checkReg(in.d, "d");
      break;
    case BC::Alloca:
    case BC::AllocHeap: {
      checkReg(in.d, "d");
      if (in.imm < 0 ||
          static_cast<uint64_t>(in.imm) >= fn.shapes.size()) {
        error(fnIdx, pc,
              "shape index " + std::to_string(in.imm) +
                  " out of range (function has " +
                  std::to_string(fn.shapes.size()) + " shapes)");
        break;
      }
      const ShapeInfo &shape = fn.shapes[in.imm];
      if (shape.dims.size() > kMaxRank) {
        error(fnIdx, pc,
              "shape rank " + std::to_string(shape.dims.size()) +
                  " exceeds kMaxRank " + std::to_string(kMaxRank) +
                  " (descriptor sizes would overflow)");
        break;
      }
      int64_t dynDims = 0;
      bool dimsOk = true;
      for (int64_t d : shape.dims) {
        if (d == Type::kDynamic)
          ++dynDims;
        else if (d < 0) {
          error(fnIdx, pc,
                "shape has negative static extent " + std::to_string(d));
          dimsOk = false;
        }
      }
      if (dimsOk && in.c != dynDims)
        error(fnIdx, pc,
              "dynamic-extent count c=" + std::to_string(in.c) +
                  " does not match the shape's " + std::to_string(dynDims) +
                  " dynamic dims");
      checkExtras(in.b, std::max<int64_t>(in.c, dynDims), "extent");
      break;
    }
    case BC::Dealloc:
      checkReg(in.a, "a");
      break;
    case BC::Load:
    case BC::Store:
    case BC::SubView:
      checkReg(in.a, "a");
      checkReg(in.d, "d");
      if (in.c > static_cast<int32_t>(kMaxRank))
        error(fnIdx, pc,
              "index count c=" + std::to_string(in.c) +
                  " exceeds kMaxRank " + std::to_string(kMaxRank));
      checkExtras(in.b, in.c, "index");
      break;
    case BC::Dim:
      checkReg(in.a, "a");
      checkReg(in.d, "d");
      if (in.imm < 0 || static_cast<uint64_t>(in.imm) >= kMaxRank)
        error(fnIdx, pc,
              "dim index " + std::to_string(in.imm) +
                  " outside the descriptor's size array (kMaxRank " +
                  std::to_string(kMaxRank) + ")");
      break;
    case BC::Jump:
      checkJumpTarget(in.imm);
      break;
    case BC::JumpIfFalse:
      checkReg(in.a, "a");
      checkJumpTarget(in.imm);
      break;
    case BC::JumpIfGE:
      checkReg(in.a, "a");
      checkReg(in.b, "b");
      checkJumpTarget(in.imm);
      break;
    case BC::Call: {
      if (in.imm < 0 || static_cast<uint64_t>(in.imm) >= mod_.fns.size()) {
        error(fnIdx, pc,
              "callee index " + std::to_string(in.imm) +
                  " out of range (module has " +
                  std::to_string(mod_.fns.size()) + " functions)");
        break;
      }
      const BCFunction &callee = mod_.fns[in.imm];
      if (in.c < 0 || static_cast<uint32_t>(in.c) != callee.numArgs)
        error(fnIdx, pc,
              "call passes " + std::to_string(in.c) + " args but '" +
                  callee.name + "' takes " + std::to_string(callee.numArgs));
      if (in.d < 0 || static_cast<uint32_t>(in.d) != callee.numResults)
        error(fnIdx, pc,
              "call binds " + std::to_string(in.d) + " results but '" +
                  callee.name + "' returns " +
                  std::to_string(callee.numResults));
      checkExtras(in.b, static_cast<int64_t>(in.c) + in.d, "arg/result");
      break;
    }
    case BC::Ret:
      if (in.c < 0 || static_cast<uint32_t>(in.c) != fn.numResults)
        error(fnIdx, pc,
              "Ret returns " + std::to_string(in.c) +
                  " values but the function declares " +
                  std::to_string(fn.numResults) + " results");
      checkExtras(in.b, in.c, "result");
      break;
    case BC::ParallelOmp:
    case BC::ParallelScf: {
      if (in.imm < 0 ||
          static_cast<uint64_t>(in.imm) >= fn.closures.size()) {
        error(fnIdx, pc,
              "closure index " + std::to_string(in.imm) +
                  " out of range (function has " +
                  std::to_string(fn.closures.size()) + " closures)");
        break;
      }
      const Closure &c = fn.closures[in.imm];
      if (in.op == BC::ParallelOmp && c.numIvs != 0)
        error(fnIdx, pc,
              "omp closure must have numIvs == 0, got " +
                  std::to_string(c.numIvs));
      break;
    }
    case BC::TeamBarrier:
    case BC::SimtBarrier:
    case BC::ScopePush:
    case BC::ScopePop:
      break;
    }
  }

  //===------------------------------------------------------------------===//
  // Roles: which execution contexts can reach each function
  //===------------------------------------------------------------------===//

  void computeRoles() {
    roles_.assign(mod_.fns.size(), Roles{});
    for (const auto &[name, idx] : mod_.byName)
      roles_[idx].entry = true;
    for (const BCFunction &fn : mod_.fns)
      for (const Instr &in : fn.instrs)
        switch (in.op) {
        case BC::Call:
          roles_[in.imm].callee = true;
          break;
        case BC::ParallelOmp:
          roles_[fn.closures[in.imm].fnIndex].ompBody = true;
          break;
        case BC::ParallelScf: {
          const Closure &c = fn.closures[in.imm];
          (c.gpuBlock ? roles_[c.fnIndex].simtBody
                      : roles_[c.fnIndex].otherBody) = true;
          break;
        }
        default:
          break;
        }

    // A ctx.team flows through Call frames and serial scf closure bodies;
    // it is created fresh by ParallelOmp and absent in a host call or a
    // lockstep (SIMT) context. Propagate both facts along those edges:
    //  - teamReach_: may run WITH a team (seeded at omp bodies);
    //  - teamlessReach_: may run WITHOUT one (seeded at entries and SIMT
    //    bodies).
    // A TeamBarrier needs the first and must exclude the second — a
    // teamless invocation no-ops the barrier (interp.cpp) while the team
    // invocations synchronize, silently losing the sync the bytecode
    // asked for on one of its paths.
    auto reach = [&](std::vector<char> &set, auto seed) {
      set.assign(mod_.fns.size(), 0);
      std::deque<uint32_t> work;
      for (uint32_t i = 0; i < mod_.fns.size(); ++i)
        if (seed(roles_[i])) {
          set[i] = 1;
          work.push_back(i);
        }
      while (!work.empty()) {
        uint32_t i = work.front();
        work.pop_front();
        for (const Instr &in : mod_.fns[i].instrs) {
          uint32_t succ = UINT32_MAX;
          if (in.op == BC::Call)
            succ = static_cast<uint32_t>(in.imm);
          else if (in.op == BC::ParallelScf &&
                   !mod_.fns[i].closures[in.imm].gpuBlock)
            succ = mod_.fns[i].closures[in.imm].fnIndex;
          if (succ != UINT32_MAX && !set[succ]) {
            set[succ] = 1;
            work.push_back(succ);
          }
        }
      }
    };
    reach(teamReach_, [](const Roles &r) { return r.ompBody; });
    reach(teamlessReach_,
          [](const Roles &r) { return r.entry || r.simtBody; });
  }

  //===------------------------------------------------------------------===//
  // Layer 2: flow-sensitive typestate analysis
  //===------------------------------------------------------------------===//

  /// Collects errors during the reporting pass; null during fixpoint.
  struct ErrorSink {
    Verifier *v = nullptr;
    uint32_t fnIdx = 0;
    size_t pc = 0;
    void operator()(const std::string &reason) const {
      if (v)
        v->error(fnIdx, pc, reason);
    }
  };

  /// Entry state: argument registers carry the join over every
  /// invocation site's typestates (entries contribute host-trusted Any).
  /// A function no site invokes can never run; its arguments stay Any so
  /// its body is still checked intraprocedurally without noise.
  FlowState entryState(uint32_t fnIdx) const {
    const BCFunction &fn = mod_.fns[fnIdx];
    FlowState st;
    st.regs.assign(fn.numRegs, RegState{});
    if (argSeeds_[fnIdx]) {
      const auto &seed = *argSeeds_[fnIdx];
      for (uint32_t i = 0; i < fn.numArgs && i < seed.size(); ++i)
        st.regs[i] = seed[i];
    } else {
      for (uint32_t i = 0; i < fn.numArgs; ++i)
        st.regs[i] = RegState::ofAny();
    }
    return st;
  }

  /// Joins one invocation site's argument typestates into the target's
  /// entry seed, recording the target for re-analysis when it rose.
  void joinSeed(uint32_t target, std::vector<RegState> seed) {
    auto &slot = argSeeds_[target];
    if (!slot) {
      slot = std::move(seed);
      changedSeeds_.push_back(target);
      return;
    }
    bool changed = false;
    for (size_t i = 0; i < slot->size() && i < seed.size(); ++i) {
      RegState j = join((*slot)[i], seed[i]);
      if (!(j == (*slot)[i])) {
        (*slot)[i] = j;
        changed = true;
      }
    }
    if (changed)
      changedSeeds_.push_back(target);
  }

  /// Joins one Ret site's value typestates into the function's return
  /// summary (consumed at Call sites), flagging callers for re-analysis.
  void joinRet(uint32_t fnIdx, std::vector<RegState> vals) {
    auto &slot = retStates_[fnIdx];
    if (!slot) {
      slot = std::move(vals);
      retChanged_ = true;
      return;
    }
    for (size_t i = 0; i < slot->size() && i < vals.size(); ++i) {
      RegState j = join((*slot)[i], vals[i]);
      if (!(j == (*slot)[i])) {
        (*slot)[i] = j;
        retChanged_ = true;
      }
    }
  }

  /// Runs the intra-function worklist to its fixpoint over basic blocks.
  /// In-states are stored only at block leaders: pc 0, every jump
  /// target, the pc after each Jump/JumpIfFalse/JumpIfGE/Ret, and the
  /// implicit end point n. A block is walked on one working state with the
  /// per-instruction transfer, so a visit costs O(block length + regs)
  /// instead of O(block length x regs). With report=false, invocation-
  /// site and Ret summaries are joined into argSeeds_/retStates_ (the
  /// interprocedural propagation); with report=true each reachable block
  /// is re-walked once from its converged leader state to emit errors
  /// with stable per-pc attribution. Returns the number of leader states
  /// stored (reachable leaders).
  size_t flowFunction(uint32_t fnIdx, bool report) {
    const BCFunction &fn = mod_.fns[fnIdx];
    const size_t n = fn.instrs.size();

    if (n == 0) {
      // Empty body: execution falls straight off the end.
      if (report && fn.numResults > 0)
        error(fnIdx, VerifyError::kNoPc,
              "empty function declares " + std::to_string(fn.numResults) +
                  " results (no Ret can produce them)");
      return 0;
    }

    // blockOf[pc] is the block index of a leader pc, kNotLeader elsewhere;
    // leaderPc[b] is its inverse. Block indices ascend with pc, so the
    // reporting sweep below emits errors in pc order.
    constexpr uint32_t kNotLeader = UINT32_MAX;
    std::vector<uint32_t> blockOf(n + 1, kNotLeader);
    blockOf[0] = blockOf[n] = 0;
    for (size_t pc = 0; pc < n; ++pc) {
      const Instr &in = fn.instrs[pc];
      if (in.op == BC::Jump || in.op == BC::JumpIfFalse ||
          in.op == BC::JumpIfGE) {
        blockOf[static_cast<size_t>(in.imm)] = 0;
        blockOf[pc + 1] = 0;
      } else if (in.op == BC::Ret) {
        blockOf[pc + 1] = 0;
      }
    }
    std::vector<size_t> leaderPc;
    for (size_t pc = 0; pc <= n; ++pc)
      if (blockOf[pc] != kNotLeader) {
        blockOf[pc] = static_cast<uint32_t>(leaderPc.size());
        leaderPc.push_back(pc);
      }
    const uint32_t endBlock = blockOf[n];

    std::vector<char> reachable(leaderPc.size(), 0);
    std::vector<char> depthClash(leaderPc.size(), 0);
    std::vector<char> queued(leaderPc.size(), 0);
    std::vector<FlowState> in(leaderPc.size());
    size_t stored = 0;

    std::deque<uint32_t> work;
    auto enqueue = [&](uint32_t b) {
      if (b != endBlock && !queued[b]) {
        queued[b] = 1;
        work.push_back(b);
      }
    };
    // Successor edges: a leader target joins into its stored state; a
    // non-leader target is the fall-through pc + 1 inside the current
    // block, whose state is the working state the transfer just updated.
    auto flowInto = [&](size_t target, const FlowState &st) {
      uint32_t b = blockOf[target];
      if (b == kNotLeader)
        return;
      if (!reachable[b]) {
        reachable[b] = 1;
        ++stored;
        in[b] = st;
        enqueue(b);
        return;
      }
      bool changed = false;
      FlowState &cur = in[b];
      if (cur.depth != st.depth) {
        // Path-dependent scope depth: reported once per merge point after
        // the fixpoint. Keep the existing depth so iteration terminates.
        depthClash[b] = 1;
      }
      for (size_t r = 0; r < cur.regs.size(); ++r) {
        RegState j = join(cur.regs[r], st.regs[r]);
        if (!(j == cur.regs[r])) {
          cur.regs[r] = j;
          changed = true;
        }
      }
      if (changed)
        enqueue(b);
    };
    // Walks block b from its stored in-state; errors go to `sinkTo`
    // (null during the fixpoint).
    auto walkBlock = [&](uint32_t b, Verifier *sinkTo, auto &&flow,
                         bool updateSummaries) {
      FlowState st = in[b];
      for (size_t pc = leaderPc[b]; pc < n; ++pc) {
        transfer(fnIdx, pc, st, ErrorSink{sinkTo, fnIdx, pc}, flow,
                 updateSummaries);
        if (blockOf[pc + 1] != kNotLeader)
          break;
      }
    };

    flowInto(0, entryState(fnIdx));
    while (!work.empty()) {
      uint32_t b = work.front();
      work.pop_front();
      queued[b] = 0;
      walkBlock(b, nullptr, flowInto, /*updateSummaries=*/!report);
    }
    if (!report)
      return stored;

    // Reporting pass over the fixed states: each reachable block walked
    // exactly once, so every error has a single, stable attribution.
    auto noFlow = [](size_t, const FlowState &) {};
    for (uint32_t b = 0; b < endBlock; ++b) {
      if (!reachable[b])
        continue;
      if (depthClash[b])
        error(fnIdx, leaderPc[b],
              "ScopePush/ScopePop depth differs between predecessor paths");
      walkBlock(b, this, noFlow, /*updateSummaries=*/false);
    }
    if (reachable[endBlock]) {
      if (fn.numResults > 0)
        error(fnIdx, VerifyError::kNoPc,
              "control reaches the end of the function without Ret (" +
                  std::to_string(fn.numResults) + " results undefined)");
      else if (in[endBlock].depth != 0 || depthClash[endBlock])
        error(fnIdx, VerifyError::kNoPc,
              "control reaches the end of the function with " +
                  std::to_string(in[endBlock].depth) + " unmatched ScopePush");
    }
    return stored;
  }

  /// Executes the abstract transfer for `fn.instrs[pc]` on `st`, feeding
  /// successor states to `flowInto(target, state)` and faults to `err`.
  /// Runs identically during fixpoint and reporting; only the sinks
  /// differ (updateSummaries is on during the interprocedural fixpoint,
  /// off during reporting, when the summaries are already converged).
  /// On a faulting read the transfer recovers (treats the value as the
  /// demanded type) so one root cause doesn't cascade.
  template <typename FlowInto>
  void transfer(uint32_t fnIdx, size_t pc, FlowState &st, ErrorSink err,
                FlowInto &&flowInto, bool updateSummaries) {
    const BCFunction &fn = mod_.fns[fnIdx];
    const Instr &in = fn.instrs[pc];
    const size_t n = fn.instrs.size();

    auto readInt = [&](int32_t r, const char *what) {
      const RegState &s = st.regs[r];
      if (s.k == RegState::Int || s.k == RegState::Scalar ||
          s.k == RegState::Any)
        return;
      err(std::string(what) + " reads r" + std::to_string(r) +
          " as int but it is " + s.describe());
    };
    auto readFloat = [&](int32_t r, const char *what) {
      const RegState &s = st.regs[r];
      if (s.k == RegState::Float || s.k == RegState::Scalar ||
          s.k == RegState::Any)
        return;
      err(std::string(what) + " reads r" + std::to_string(r) +
          " as float but it is " + s.describe());
    };
    auto readMem = [&](int32_t r, const char *what) -> RegState {
      const RegState &s = st.regs[r];
      if (s.k == RegState::Mem)
        return s;
      if (s.k == RegState::Any)
        return RegState::ofMem(TypeKind::None, -1);
      err(std::string(what) + " reads r" + std::to_string(r) +
          " as a memref but it is " + s.describe());
      return RegState::ofMem(TypeKind::None, -1);
    };
    auto readInit = [&](int32_t r, const char *what) {
      const RegState &s = st.regs[r];
      if (s.k == RegState::Uninit)
        err(std::string(what) + " reads uninitialized r" +
            std::to_string(r));
      else if (s.k == RegState::Conflict)
        err(std::string(what) + " reads r" + std::to_string(r) +
            " whose type differs between predecessor paths");
    };
    auto readIndices = [&](const char *what) {
      for (int32_t i = 0; i < in.c; ++i)
        readInt(fn.extras[in.b + i], what);
    };
    auto next = [&](const FlowState &s) { flowInto(pc + 1, s); };

    switch (in.op) {
    case BC::ConstI:
      st.regs[in.d] = RegState::ofInt();
      next(st);
      break;
    case BC::ConstF:
      st.regs[in.d] = RegState::ofFloat();
      next(st);
      break;
    case BC::Copy:
      readInit(in.a, "Copy");
      st.regs[in.d] = st.regs[in.a].k == RegState::Uninit
                          ? RegState::ofAny()
                          : st.regs[in.a];
      next(st);
      break;
    case BC::AddI: case BC::SubI: case BC::MulI: case BC::DivSI:
    case BC::RemSI: case BC::AndI: case BC::OrI: case BC::XOrI:
    case BC::ShLI: case BC::ShRSI: case BC::MinSI: case BC::MaxSI:
      readInt(in.a, "integer arithmetic");
      readInt(in.b, "integer arithmetic");
      st.regs[in.d] = RegState::ofInt();
      next(st);
      break;
    case BC::CmpI:
      readInt(in.a, "CmpI");
      readInt(in.b, "CmpI");
      st.regs[in.d] = RegState::ofInt();
      next(st);
      break;
    case BC::AddF: case BC::SubF: case BC::MulF: case BC::DivF:
    case BC::RemF: case BC::MinF: case BC::MaxF: case BC::PowF:
      readFloat(in.a, "float arithmetic");
      readFloat(in.b, "float arithmetic");
      st.regs[in.d] = RegState::ofFloat();
      next(st);
      break;
    case BC::NegF: case BC::SqrtF: case BC::ExpF: case BC::LogF:
    case BC::AbsF: case BC::SinF: case BC::CosF: case BC::TanhF:
    case BC::FloorF: case BC::CeilF:
      readFloat(in.a, "float unary");
      st.regs[in.d] = RegState::ofFloat();
      next(st);
      break;
    case BC::CmpF:
      readFloat(in.a, "CmpF");
      readFloat(in.b, "CmpF");
      st.regs[in.d] = RegState::ofInt();
      next(st);
      break;
    case BC::Select: {
      readInt(in.a, "Select condition");
      readInit(in.b, "Select");
      readInit(in.c, "Select");
      RegState j = join(st.regs[in.b], st.regs[in.c]);
      st.regs[in.d] = j.k == RegState::Uninit ? RegState::ofAny() : j;
      next(st);
      break;
    }
    case BC::SIToFP:
      readInt(in.a, "SIToFP");
      st.regs[in.d] = RegState::ofFloat();
      next(st);
      break;
    case BC::FPToSI:
      readFloat(in.a, "FPToSI");
      st.regs[in.d] = RegState::ofInt();
      next(st);
      break;
    case BC::TruncI32:
      readInt(in.a, "TruncI32");
      st.regs[in.d] = RegState::ofInt();
      next(st);
      break;
    case BC::Alloca:
    case BC::AllocHeap: {
      const ShapeInfo &shape = fn.shapes[in.imm];
      for (int32_t i = 0; i < in.c; ++i)
        readInt(fn.extras[in.b + i], "alloca extent");
      st.regs[in.d] = RegState::ofMem(
          shape.elem, static_cast<int8_t>(shape.dims.size()));
      next(st);
      break;
    }
    case BC::Dealloc:
      readMem(in.a, "Dealloc");
      next(st);
      break;
    case BC::Load: {
      RegState m = readMem(in.a, "Load");
      if (m.rank >= 0 && in.c != m.rank)
        err("Load indexes " + std::to_string(in.c) +
            " dims but the memref in r" + std::to_string(in.a) +
            " has rank " + std::to_string(m.rank));
      readIndices("Load index");
      if (m.elem != TypeKind::None) {
        if (in.t != TypeKind::None &&
            isFloatKind(in.t) != isFloatKind(m.elem))
          err(std::string("Load result kind ") + ir::typeKindName(in.t) +
              " disagrees with element kind " + ir::typeKindName(m.elem));
        st.regs[in.d] =
            isFloatKind(m.elem) ? RegState::ofFloat() : RegState::ofInt();
      } else if (in.t != TypeKind::None) {
        st.regs[in.d] =
            isFloatKind(in.t) ? RegState::ofFloat() : RegState::ofInt();
      } else {
        // Element kind unknowable: the value is data from memory —
        // definitely a scalar, definitely not a descriptor pointer.
        st.regs[in.d] = RegState::ofScalar();
      }
      next(st);
      break;
    }
    case BC::Store: {
      RegState m = readMem(in.a, "Store");
      if (m.rank >= 0 && in.c != m.rank)
        err("Store indexes " + std::to_string(in.c) +
            " dims but the memref in r" + std::to_string(in.a) +
            " has rank " + std::to_string(m.rank));
      readIndices("Store index");
      if (m.elem != TypeKind::None) {
        if (isFloatKind(m.elem))
          readFloat(in.d, "Store value");
        else
          readInt(in.d, "Store value");
      } else {
        readInit(in.d, "Store value");
      }
      next(st);
      break;
    }
    case BC::Dim: {
      RegState m = readMem(in.a, "Dim");
      if (m.rank >= 0 && in.imm >= m.rank)
        err("Dim index " + std::to_string(in.imm) +
            " out of range for rank " + std::to_string(m.rank));
      st.regs[in.d] = RegState::ofInt();
      next(st);
      break;
    }
    case BC::SubView: {
      RegState m = readMem(in.a, "SubView");
      if (m.rank >= 0 && in.c > m.rank)
        err("SubView drops " + std::to_string(in.c) +
            " dims but the memref in r" + std::to_string(in.a) +
            " has rank " + std::to_string(m.rank));
      readIndices("SubView index");
      st.regs[in.d] = RegState::ofMem(
          m.elem,
          m.rank >= 0 ? static_cast<int8_t>(std::max(0, m.rank - in.c))
                      : int8_t(-1));
      next(st);
      break;
    }
    case BC::Jump:
      flowInto(static_cast<size_t>(in.imm), st);
      break;
    case BC::JumpIfFalse:
      readInt(in.a, "JumpIfFalse condition");
      flowInto(static_cast<size_t>(in.imm), st);
      next(st);
      break;
    case BC::JumpIfGE:
      readInt(in.a, "JumpIfGE");
      readInt(in.b, "JumpIfGE");
      flowInto(static_cast<size_t>(in.imm), st);
      next(st);
      break;
    case BC::Call: {
      auto callee = static_cast<uint32_t>(in.imm);
      for (int32_t i = 0; i < in.c; ++i)
        readInit(fn.extras[in.b + i], "Call argument");
      // Feed this site's argument typestates into the callee's entry
      // seed: the callee is analyzed under what bytecode actually
      // passes, so an int smuggled into a memref parameter is caught
      // where it is dereferenced.
      if (updateSummaries) {
        std::vector<RegState> seed;
        seed.reserve(in.c);
        for (int32_t i = 0; i < in.c; ++i) {
          const RegState &s = st.regs[fn.extras[in.b + i]];
          seed.push_back(s.k == RegState::Uninit ? RegState::ofAny() : s);
        }
        joinSeed(callee, std::move(seed));
      }
      // Results carry the callee's converged Ret typestates. No summary
      // yet means no reachable Ret (the call cannot return): any state
      // is sound; Scalar keeps the value un-dereferenceable.
      for (int32_t i = 0; i < in.d; ++i)
        st.regs[fn.extras[in.b + in.c + i]] =
            retStates_[callee] && static_cast<size_t>(i) <
                                      retStates_[callee]->size()
                ? (*retStates_[callee])[i]
                : RegState::ofScalar();
      next(st);
      break;
    }
    case BC::Ret: {
      for (int32_t i = 0; i < in.c; ++i)
        readInit(fn.extras[in.b + i], "Ret value");
      if (st.depth != 0)
        err("Ret with " + std::to_string(st.depth) +
            " unmatched ScopePush (scope stack would leak)");
      if (updateSummaries) {
        std::vector<RegState> vals;
        vals.reserve(in.c);
        for (int32_t i = 0; i < in.c; ++i) {
          const RegState &s = st.regs[fn.extras[in.b + i]];
          vals.push_back(s.k == RegState::Uninit ? RegState::ofAny() : s);
        }
        joinRet(fnIdx, std::move(vals));
      }
      break;
    }
    case BC::GetTid:
    case BC::GetTeamSize:
      st.regs[in.d] = RegState::ofInt();
      next(st);
      break;
    case BC::TeamBarrier:
      if (!teamReach_[fnIdx])
        err("TeamBarrier outside an omp closure body (no team to "
            "synchronize; a partial team would deadlock)");
      else if (teamlessReach_[fnIdx])
        err("TeamBarrier reachable from both a team (omp) context and a "
            "teamless one (entry or SIMT path); the teamless invocation "
            "would silently skip the synchronization");
      next(st);
      break;
    case BC::SimtBarrier: {
      const Roles &r = roles_[fnIdx];
      if (!(r.simtBody && !r.entry && !r.ompBody && !r.otherBody &&
            !r.callee))
        err("SimtBarrier outside a SIMT (gpu-block scf) closure body "
            "(aborts serial execution, deadlocks lockstep)");
      next(st);
      break;
    }
    case BC::ParallelOmp:
    case BC::ParallelScf: {
      const Closure &c = fn.closures[in.imm];
      for (int32_t r : c.captureRegs)
        readInit(r, "closure capture");
      if (in.op == BC::ParallelScf)
        for (uint8_t i = 0; i < c.numIvs; ++i) {
          readInt(c.lbs[i], "closure lower bound");
          readInt(c.ubs[i], "closure upper bound");
          readInt(c.steps[i], "closure step");
        }
      // Seed the body's argument typestate from this launch site. Runs
      // during the interprocedural fixpoint, so it is independent of
      // where the body sits in the function table — adversarial modules
      // that emit a body before (or recursively inside) its launcher
      // are seeded all the same.
      if (updateSummaries) {
        std::vector<RegState> seed;
        seed.reserve(c.captureRegs.size() + c.numIvs);
        for (int32_t r : c.captureRegs)
          seed.push_back(st.regs[r].k == RegState::Uninit
                             ? RegState::ofAny()
                             : st.regs[r]);
        for (uint8_t i = 0; i < c.numIvs; ++i)
          seed.push_back(RegState::ofInt());
        joinSeed(c.fnIndex, std::move(seed));
      }
      next(st);
      break;
    }
    case BC::ScopePush:
      ++st.depth;
      next(st);
      break;
    case BC::ScopePop:
      if (st.depth == 0) {
        err("ScopePop without a matching ScopePush (scope stack "
            "underflow)");
      } else {
        --st.depth;
      }
      next(st);
      break;
    }
    (void)n;
  }

  const BCModule &mod_;
  VerifyResult result_;
  std::vector<Roles> roles_;
  std::vector<char> teamReach_;     ///< may run with a ctx.team
  std::vector<char> teamlessReach_; ///< may run with ctx.team == null
  /// Per-function join of argument typestates over all invocation sites
  /// (pre-set to Any for host entries); nullopt = nothing invokes it.
  std::vector<std::optional<std::vector<RegState>>> argSeeds_;
  /// Per-function join of Ret value typestates over all reachable Rets;
  /// nullopt = no Ret seen (the function cannot return).
  std::vector<std::optional<std::vector<RegState>>> retStates_;
  /// Scratch for one flowFunction run: which seeds/summaries rose.
  std::vector<uint32_t> changedSeeds_;
  bool retChanged_ = false;
};

} // namespace

std::string VerifyError::str() const {
  std::ostringstream os;
  os << "fn '" << function << "' (#" << fnIndex << ")";
  if (pc != kNoPc)
    os << " pc " << pc << " (" << bcName(op) << ")";
  os << ": " << reason;
  return os.str();
}

std::string VerifyResult::str() const {
  std::string out;
  for (const VerifyError &e : errors) {
    out += e.str();
    out += '\n';
  }
  return out;
}

VerifyResult verifyModule(const BCModule &mod) {
  return Verifier(mod).run();
}

std::optional<VerifiedModule> VerifiedModule::create(const BCModule &mod,
                                                     VerifyResult *result) {
  VerifyResult r = verifyModule(mod);
  bool ok = r.ok();
  if (result)
    *result = std::move(r);
  if (!ok)
    return std::nullopt;
  return VerifiedModule(mod);
}

} // namespace paralift::vm
