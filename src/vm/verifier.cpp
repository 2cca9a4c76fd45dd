#include "vm/verifier.h"

#include "support/metrics.h"
#include "support/trace.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <sstream>
#include <tuple>

namespace paralift::vm {

namespace {

/// Registers are 32-bit indices but a frame is materialized as a vector of
/// 8-byte slots; an adversarial numRegs of 2^31 would be a 16 GB
/// allocation per call. Far above anything the compiler emits.
constexpr uint32_t kMaxRegsPerFrame = 1u << 20;

/// Budgets of the flow tables, checked before they are allocated. The
/// gen, kill and live bitsets take (reachable blocks) x ceil(numRegs/64)
/// words each per function; the leader states one typestate per live-in
/// register per reachable leader, summed over the module. The 64-job
/// Rodinia batch and the KernelGen sweep need at most 1,938 words and
/// 6,201 states; an adversarial frame (2^18 registers live into each of
/// 80 blocks) would need 21 million states, and nothing bounds the
/// product otherwise.
constexpr size_t kMaxFlowWords = size_t(1) << 20;
constexpr size_t kMaxLeaderStates = size_t(1) << 22;

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

/// The typestate a value carries across a frame boundary (a Call argument,
/// a closure capture, a Ret value): an uninitialized one is Any, since its
/// read is already reported at the site.
RegState passed(const RegState &s) {
  return s.k == RegState::Uninit ? RegState::ofAny() : s;
}

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
    static metrics::Counter &fnCounter =
        metrics::MetricsRegistry::instance().counter("vm.verify.functions");
    static metrics::Counter &errCounter =
        metrics::MetricsRegistry::instance().counter("vm.verify.errors");
    static metrics::Counter &blockCounter =
        metrics::MetricsRegistry::instance().counter("vm.verify.blocks");

    structuralModule();
    for (uint32_t i = 0; i < mod_.fns.size(); ++i) {
      trace::TraceSpan span(spanName(i), "vm");
      structuralFunction(i);
      fnCounter.add(1);
    }
    // The flow layer's transfer functions index instrs/extras/shapes/
    // closures with the very fields layer 1 validates; on structural
    // errors those reads are unsafe, so stop here. Past the flow tables'
    // budgets it does not run either: planFlow reports the function that
    // broke them.
    bool flow = false;
    if (result_.errors.empty()) {
      computeRoles();
      flow = planFlow();
    }
    if (flow) {
      // Interprocedural fixpoint: argument typestates flow from every
      // invocation site (Call and closure launch, in any function-index
      // order) into the target's entry state, and Ret typestates flow
      // back into Call results. Only functions invoked by nothing but
      // the host keep blanket-trusted Any arguments; everything
      // bytecode can reach is analyzed under what bytecode actually
      // passes. Summaries only ever rise (join), so this terminates.
      const auto numFns = static_cast<uint32_t>(mod_.fns.size());
      seedBase_.resize(numFns + 1);
      retBase_.resize(numFns + 1);
      for (uint32_t i = 0; i < numFns; ++i) {
        seedBase_[i + 1] = seedBase_[i] + mod_.fns[i].numArgs;
        retBase_[i + 1] = retBase_[i] + mod_.fns[i].numResults;
      }
      seeds_.resize(seedBase_[numFns]);
      rets_.resize(retBase_[numFns]);
      hasSeed_.assign(numFns, 0);
      hasRet_.assign(numFns, 0);
      for (uint32_t i = 0; i < numFns; ++i)
        if (roles_[i].entry) {
          hasSeed_[i] = 1;
          std::fill(seeds_.begin() + seedBase_[i],
                    seeds_.begin() + seedBase_[i + 1], RegState::ofAny());
        }
      std::vector<std::vector<uint32_t>> callersOf(numFns);
      for (uint32_t i = 0; i < numFns; ++i)
        for (const Instr &in : mod_.fns[i].instrs)
          if (in.op == BC::Call)
            callersOf[in.imm].push_back(i);

      std::vector<char> queued(numFns, 1);
      std::deque<uint32_t> work;
      for (uint32_t i = 0; i < numFns; ++i)
        work.push_back(i);
      while (!work.empty()) {
        uint32_t i = work.front();
        work.pop_front();
        queued[i] = 0;
        changedSeeds_.clear();
        retChanged_ = false;
        flowFunction(i);
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

      // Reporting pass over each function's last run: a block that
      // failed a check there is walked once more to record its errors.
      for (uint32_t i = 0; i < numFns; ++i) {
        trace::TraceSpan span(spanName(i), "vm");
        blockCounter.add(reportFunction(i));
      }
    }
    errCounter.add(result_.errors.size());
    return std::move(result_);
  }

private:
  /// The function's trace span name; built only while tracing, so a
  /// disabled span costs one relaxed load.
  std::string spanName(uint32_t fnIdx) const {
    return trace::enabled() ? "verify:" + mod_.fns[fnIdx].name
                            : std::string();
  }

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

  static constexpr uint32_t kNotLeader = UINT32_MAX;

  /// The slot after slot i of a ring buffer of `slots` slots.
  static size_t nextSlot(size_t i, size_t slots) {
    return i + 1 == slots ? 0 : i + 1;
  }

  /// What debug builds put in every slot of the working state that a block
  /// walk does not load. transfer() and flowInto assert that they never
  /// read it, i.e. that forEachRegister lists every register transfer()
  /// reads and no write transfer() does not make; otherwise a walk would
  /// read whatever state an earlier walk left in the slot.
  static constexpr RegState kNotLoaded{RegState::Uninit, TypeKind::None, -2};

  /// Where one function's blocks sit in the module-wide flow tables.
  /// Block indices ascend with pc; the last block is the end point n.
  struct FnFlow {
    uint32_t pcBase = 0;    ///< its n + 1 entries of blockOf_
    uint32_t blockBase = 0; ///< its first entry of the per-block tables
    uint32_t numBlocks = 0; ///< 0 for an empty function
  };

  /// Where a failed check goes. During the fixpoint it only marks the
  /// walked block: the last walk of a reachable block runs on its
  /// converged state, so the marked blocks are exactly those the
  /// reporting pass walks again to record the errors.
  struct ErrorSink {
    Verifier *v = nullptr; ///< reporting: records the error
    char *mark = nullptr;  ///< fixpoint: the walked block's mark
    uint32_t fnIdx = 0;
    size_t pc = 0;
    void operator()(const std::string &reason) const {
      if (v)
        v->error(fnIdx, pc, reason);
      else
        *mark = 1;
    }
  };

  /// Calls read(r) for every register `in` reads, then write(r) for every
  /// register it writes: exactly the registers transfer() reads from and
  /// writes to the flow state (debug builds check it; see kNotLoaded).
  template <typename Read, typename Write>
  static void forEachRegister(const BCFunction &fn, const Instr &in,
                              Read &&read, Write &&write) {
    auto readWindow = [&](int32_t off, int32_t count) {
      for (int32_t i = 0; i < count; ++i)
        read(fn.extras[off + i]);
    };
    switch (in.op) {
    case BC::ConstI: case BC::ConstF: case BC::GetTid: case BC::GetTeamSize:
      write(in.d);
      break;
    case BC::Copy:
    case BC::NegF: case BC::SqrtF: case BC::ExpF: case BC::LogF:
    case BC::AbsF: case BC::SinF: case BC::CosF: case BC::TanhF:
    case BC::FloorF: case BC::CeilF:
    case BC::SIToFP: case BC::FPToSI: case BC::TruncI32: case BC::Dim:
      read(in.a);
      write(in.d);
      break;
    case BC::AddI: case BC::SubI: case BC::MulI: case BC::DivSI:
    case BC::RemSI: case BC::AndI: case BC::OrI: case BC::XOrI:
    case BC::ShLI: case BC::ShRSI: case BC::MinSI: case BC::MaxSI:
    case BC::CmpI:
    case BC::AddF: case BC::SubF: case BC::MulF: case BC::DivF:
    case BC::RemF: case BC::MinF: case BC::MaxF: case BC::PowF:
    case BC::CmpF:
      read(in.a);
      read(in.b);
      write(in.d);
      break;
    case BC::Select:
      read(in.a);
      read(in.b);
      read(in.c);
      write(in.d);
      break;
    case BC::Alloca:
    case BC::AllocHeap:
      readWindow(in.b, in.c);
      write(in.d);
      break;
    case BC::Dealloc:
    case BC::JumpIfFalse:
      read(in.a);
      break;
    case BC::Load:
    case BC::SubView:
      read(in.a);
      readWindow(in.b, in.c);
      write(in.d);
      break;
    case BC::Store:
      read(in.a);
      readWindow(in.b, in.c);
      read(in.d);
      break;
    case BC::JumpIfGE:
      read(in.a);
      read(in.b);
      break;
    case BC::Call:
      readWindow(in.b, in.c);
      for (int32_t i = 0; i < in.d; ++i)
        write(fn.extras[in.b + in.c + i]);
      break;
    case BC::Ret:
      readWindow(in.b, in.c);
      break;
    case BC::ParallelOmp:
    case BC::ParallelScf: {
      const Closure &c = fn.closures[in.imm];
      for (int32_t r : c.captureRegs)
        read(r);
      if (in.op == BC::ParallelScf)
        for (uint8_t i = 0; i < c.numIvs; ++i) {
          read(c.lbs[i]);
          read(c.ubs[i]);
          read(c.steps[i]);
        }
      break;
    }
    case BC::Jump:
    case BC::TeamBarrier:
    case BC::SimtBarrier:
    case BC::ScopePush:
    case BC::ScopePop:
      break;
    }
  }

  /// Computes, once per verifyModule, every function's block leaders (pc
  /// 0, every jump target, the pc after each Jump/JumpIfFalse/JumpIfGE/
  /// Ret, and the implicit end point n) and the registers live into each
  /// reachable leader: those some path from it reads before writing. Only
  /// those registers' typestates can reach a check or a summary, so they
  /// are the only ones the fixpoint stores, copies and joins. Bitset rows
  /// go only to blocks reachable from pc 0 (the blocks the fixpoint
  /// visits), so dead code costs no memory per register. False, after
  /// reporting one error at pc 0 of the function that broke it, when a
  /// table would exceed its budget (kMaxFlowWords, kMaxLeaderStates).
  bool planFlow() {
    const auto numFns = static_cast<uint32_t>(mod_.fns.size());
    flows_.resize(numFns);
    size_t pcs = 0;
    uint32_t maxRegs = 0;
    for (const BCFunction &fn : mod_.fns) {
      pcs += fn.instrs.size() + 1;
      maxRegs = std::max(maxRegs, fn.numRegs);
    }
    blockOf_.assign(pcs, kNotLeader);
    work_.resize(maxRegs);

    // Per function: rowOf[b] is reachable block b's bitset row
    // (kNotLeader for a block never reached), rowBlock its inverse, and
    // succ[2b], succ[2b + 1] the successors of reachable block b.
    std::vector<uint32_t> rowOf, rowBlock, stack, succ;
    std::vector<uint64_t> gen, kill, live;
    std::vector<uint32_t> predHead, predNext, predRow, pending;
    std::vector<char> inPending;
    uint32_t pcBase = 0;
    for (uint32_t f = 0; f < numFns; ++f) {
      const BCFunction &fn = mod_.fns[f];
      const auto n = static_cast<uint32_t>(fn.instrs.size());
      FnFlow &flow = flows_[f];
      flow.pcBase = pcBase;
      flow.blockBase = static_cast<uint32_t>(leaderPc_.size());
      pcBase += n + 1;
      if (n == 0)
        continue;
      uint32_t *blockOf = &blockOf_[flow.pcBase];
      blockOf[0] = blockOf[n] = 0;
      for (uint32_t pc = 0; pc < n; ++pc) {
        const Instr &in = fn.instrs[pc];
        if (in.op == BC::Jump || in.op == BC::JumpIfFalse ||
            in.op == BC::JumpIfGE) {
          blockOf[in.imm] = 0;
          blockOf[pc + 1] = 0;
        } else if (in.op == BC::Ret) {
          blockOf[pc + 1] = 0;
        }
      }
      for (uint32_t pc = 0; pc <= n; ++pc)
        if (blockOf[pc] != kNotLeader) {
          blockOf[pc] = flow.numBlocks++;
          leaderPc_.push_back(pc);
        }
      const uint32_t *leaderPc = &leaderPc_[flow.blockBase];
      const uint32_t end = flow.numBlocks - 1;
      // Successors of block b < end: the jump target, and the next block
      // unless b ends in a Jump or a Ret (kNotLeader where absent).
      auto successors = [&](uint32_t b) -> std::pair<uint32_t, uint32_t> {
        const Instr &last = fn.instrs[leaderPc[b + 1] - 1];
        bool jumps = last.op == BC::Jump || last.op == BC::JumpIfFalse ||
                     last.op == BC::JumpIfGE;
        bool fallsThrough = last.op != BC::Jump && last.op != BC::Ret;
        return {jumps ? blockOf[last.imm] : kNotLeader,
                fallsThrough ? b + 1 : kNotLeader};
      };

      // Reachable blocks (rowOf != kNotLeader) and their successors,
      // then their rows in block order.
      rowOf.assign(flow.numBlocks, kNotLeader);
      succ.resize(2 * flow.numBlocks);
      rowOf[0] = 0;
      stack.assign(1, 0);
      while (!stack.empty()) {
        uint32_t b = stack.back();
        stack.pop_back();
        if (b == end)
          continue;
        std::tie(succ[2 * b], succ[2 * b + 1]) = successors(b);
        for (uint32_t s : {succ[2 * b], succ[2 * b + 1]})
          if (s != kNotLeader && rowOf[s] == kNotLeader) {
            rowOf[s] = 0;
            stack.push_back(s);
          }
      }
      rowBlock.clear();
      for (uint32_t b = 0; b < flow.numBlocks; ++b)
        if (rowOf[b] != kNotLeader) {
          rowOf[b] = static_cast<uint32_t>(rowBlock.size());
          rowBlock.push_back(b);
        }

      // Upward-exposed reads (gen) and writes (kill) per block, and each
      // row's predecessor rows: a list of edges e from predHead[row] on
      // through predNext[e] (kNotLeader ends it), each from row predRow[e].
      const auto rows = static_cast<uint32_t>(rowBlock.size());
      const size_t words = (fn.numRegs + 63) / 64;
      if (size_t(rows) * words > kMaxFlowWords) {
        error(f, 0,
              "flow tables of " + std::to_string(rows) +
                  " reachable blocks x " + std::to_string(fn.numRegs) +
                  " registers exceed the verifier's budget of " +
                  std::to_string(kMaxFlowWords) + " bitset words");
        return false;
      }
      gen.assign(rows * words, 0);
      kill.assign(rows * words, 0);
      live.assign(rows * words, 0);
      predHead.assign(rows, kNotLeader);
      predNext.clear();
      predRow.clear();
      for (uint32_t r = 0; r < rows; ++r) {
        uint32_t b = rowBlock[r];
        if (b == end)
          continue;
        uint64_t *g = gen.data() + r * words, *k = kill.data() + r * words;
        for (uint32_t pc = leaderPc[b]; pc < leaderPc[b + 1]; ++pc)
          forEachRegister(
              fn, fn.instrs[pc],
              [&](int32_t reg) {
                uint64_t bit = uint64_t(1) << (reg & 63);
                if (!(k[reg >> 6] & bit))
                  g[reg >> 6] |= bit;
              },
              [&](int32_t reg) { k[reg >> 6] |= uint64_t(1) << (reg & 63); });
        for (uint32_t s : {succ[2 * b], succ[2 * b + 1]})
          if (s != kNotLeader) {
            predNext.push_back(predHead[rowOf[s]]);
            predRow.push_back(r);
            predHead[rowOf[s]] = static_cast<uint32_t>(predRow.size() - 1);
          }
      }

      // live = gen | (live-out & ~kill) to a fixpoint. A FIFO of rows
      // starts with every row backwards; a row whose live set grows
      // queues its predecessors, so a back edge costs no sweep of the
      // function. Each row is queued at most once at a time, so a ring of
      // rows + 1 slots never fills. The end point's live set is empty.
      pending.resize(rows + 1);
      inPending.assign(rows, 0);
      size_t head = 0, tail = 0;
      auto push = [&](uint32_t r) {
        if (rowBlock[r] != end && !inPending[r]) {
          inPending[r] = 1;
          pending[tail] = r;
          tail = nextSlot(tail, rows + 1);
        }
      };
      for (uint32_t r = rows; r-- > 0;)
        push(r);
      while (head != tail) {
        const uint32_t r = pending[head];
        head = nextSlot(head, rows + 1);
        inPending[r] = 0;
        const uint32_t target = succ[2 * rowBlock[r]],
                       next = succ[2 * rowBlock[r] + 1];
        const uint64_t *t = target == kNotLeader
                                ? nullptr
                                : live.data() + rowOf[target] * words;
        const uint64_t *x =
            next == kNotLeader ? nullptr : live.data() + rowOf[next] * words;
        bool changed = false;
        for (size_t w = 0; w < words; ++w) {
          uint64_t out = (t ? t[w] : 0) | (x ? x[w] : 0);
          size_t cell = r * words + w;
          uint64_t in = gen[cell] | (out & ~kill[cell]);
          if (in != live[cell]) {
            live[cell] = in;
            changed = true;
          }
        }
        if (changed)
          for (uint32_t e = predHead[r]; e != kNotLeader; e = predNext[e])
            push(predRow[e]);
      }
      size_t states = liveRegs_.size();
      for (uint32_t r = 0; r < rows; ++r)
        for (size_t w = 0; w < words; ++w)
          states += static_cast<size_t>(
              __builtin_popcountll(live[size_t(r) * words + w]));
      if (states > kMaxLeaderStates) {
        error(f, 0,
              "leader states of " + std::to_string(states) +
                  " live-in registers exceed the verifier's budget of " +
                  std::to_string(kMaxLeaderStates));
        return false;
      }
      for (uint32_t b = 0; b < flow.numBlocks; ++b) {
        liveBegin_.push_back(liveRegs_.size());
        if (rowOf[b] == kNotLeader)
          continue;
        const uint64_t *row = live.data() + rowOf[b] * words;
        for (size_t w = 0; w < words; ++w)
          for (uint64_t bits = row[w]; bits; bits &= bits - 1)
            liveRegs_.push_back(static_cast<uint32_t>(
                w * 64 + static_cast<unsigned>(__builtin_ctzll(bits))));
      }
    }
    liveBegin_.push_back(liveRegs_.size());
    states_.resize(liveRegs_.size());
    const size_t blocks = leaderPc_.size();
    depth_.resize(blocks);
    reachable_.resize(blocks);
    depthClash_.resize(blocks);
    queued_.resize(blocks);
    marked_.resize(blocks);
    queue_.resize(blocks);
    return true;
  }

  /// Joins one invocation site's argument typestates (valueAt(i) for
  /// argument i) into the target's entry seed, recording the target for
  /// re-analysis when it rose.
  template <typename ValueAt>
  void joinSeed(uint32_t target, ValueAt &&valueAt) {
    RegState *slot = seeds_.data() + seedBase_[target];
    const uint32_t count = seedBase_[target + 1] - seedBase_[target];
    if (!hasSeed_[target]) {
      hasSeed_[target] = 1;
      for (uint32_t i = 0; i < count; ++i)
        slot[i] = valueAt(i);
      changedSeeds_.push_back(target);
      return;
    }
    bool changed = false;
    for (uint32_t i = 0; i < count; ++i) {
      RegState j = join(slot[i], valueAt(i));
      if (!(j == slot[i])) {
        slot[i] = j;
        changed = true;
      }
    }
    if (changed)
      changedSeeds_.push_back(target);
  }

  /// Joins one Ret site's value typestates into the function's return
  /// summary (consumed at Call sites), flagging callers for re-analysis.
  template <typename ValueAt>
  void joinRet(uint32_t fnIdx, ValueAt &&valueAt) {
    RegState *slot = rets_.data() + retBase_[fnIdx];
    const uint32_t count = retBase_[fnIdx + 1] - retBase_[fnIdx];
    if (!hasRet_[fnIdx]) {
      hasRet_[fnIdx] = 1;
      for (uint32_t i = 0; i < count; ++i)
        slot[i] = valueAt(i);
      retChanged_ = true;
      return;
    }
    for (uint32_t i = 0; i < count; ++i) {
      RegState j = join(slot[i], valueAt(i));
      if (!(j == slot[i])) {
        slot[i] = j;
        retChanged_ = true;
      }
    }
  }

  /// Runs the intra-function worklist to its fixpoint over basic blocks.
  /// A leader stores the typestates of its live-in registers only, plus
  /// the scope depth; a block is walked on the one module-wide working
  /// state, loaded with those registers (every other register is written
  /// before the block reads it). So a visit costs O(block length +
  /// live-in registers) and allocates nothing. The entry leader's state
  /// holds the arguments' seeds (entries: host-trusted Any; a function no
  /// site invokes can never run, so its arguments stay Any and its body
  /// is still checked intraprocedurally without noise) and Uninit for
  /// every other register. Invocation-site and Ret summaries are joined
  /// into the seeds and Ret summaries as the walks go (the
  /// interprocedural propagation). Each function has its own region of
  /// the flow tables, so after the interprocedural fixpoint they hold its
  /// last run. A function runs again whenever its seed or a callee's Ret
  /// summary rises, its own included, so that last run read converged
  /// summaries throughout and stored what a fresh run on them would.
  void flowFunction(uint32_t fnIdx) {
    const BCFunction &fn = mod_.fns[fnIdx];
    const FnFlow &flow = flows_[fnIdx];
    if (flow.numBlocks == 0)
      return; // empty body: execution falls straight off the end
    const uint32_t *blockOf = &blockOf_[flow.pcBase];
    const size_t *liveBegin = &liveBegin_[flow.blockBase];
    RegState *states = states_.data();
    int32_t *depth = &depth_[flow.blockBase];
    char *reachable = &reachable_[flow.blockBase];
    char *depthClash = &depthClash_[flow.blockBase];
    char *queued = &queued_[flow.blockBase];
    const uint32_t endBlock = flow.numBlocks - 1;
    std::fill(reachable, reachable + flow.numBlocks, 0);
    std::fill(depthClash, depthClash + flow.numBlocks, 0);
    std::fill(queued, queued + flow.numBlocks, 0);

    // A FIFO of blocks; each is queued at most once at a time and the end
    // point never, so a ring of numBlocks slots never fills.
    size_t head = 0, tail = 0;
    auto enqueue = [&](uint32_t b) {
      if (b != endBlock && !queued[b]) {
        queued[b] = 1;
        queue_[tail] = b;
        tail = nextSlot(tail, flow.numBlocks);
      }
    };
    // Successor edges: a leader target joins the live-in registers of the
    // working state into its stored state; a non-leader target is the
    // fall-through pc + 1 inside the current block, whose state is the
    // working state the transfer just updated.
    auto flowInto = [&](size_t target, const RegState *st, int32_t d) {
      uint32_t b = blockOf[target];
      if (b == kNotLeader)
        return;
      RegState *cur = states + liveBegin[b];
      const uint32_t *live = liveRegs_.data() + liveBegin[b];
      const size_t count = liveBegin[b + 1] - liveBegin[b];
      for (size_t i = 0; i < count; ++i)
        assert(!(st[live[i]] == kNotLoaded) &&
               "a live-out register was neither loaded nor written");
      if (!reachable[b]) {
        reachable[b] = 1;
        depth[b] = d;
        for (size_t i = 0; i < count; ++i)
          cur[i] = st[live[i]];
        enqueue(b);
        return;
      }
      if (depth[b] != d) {
        // Path-dependent scope depth: reported once per merge point after
        // the fixpoint. Keep the existing depth so iteration terminates.
        depthClash[b] = 1;
      }
      bool changed = false;
      for (size_t i = 0; i < count; ++i) {
        RegState j = join(cur[i], st[live[i]]);
        if (!(j == cur[i])) {
          cur[i] = j;
          changed = true;
        }
      }
      if (changed)
        enqueue(b);
    };

    // The entry leader (block 0, never the end point since n > 0).
    const RegState *seed =
        hasSeed_[fnIdx] ? seeds_.data() + seedBase_[fnIdx] : nullptr;
    for (size_t i = liveBegin[0]; i < liveBegin[1]; ++i) {
      uint32_t r = liveRegs_[i];
      states[i] = r >= fn.numArgs ? RegState{}
                  : seed          ? seed[r]
                                  : RegState::ofAny();
    }
    reachable[0] = 1;
    depth[0] = 0;
    enqueue(0);
    while (head != tail) {
      uint32_t b = queue_[head];
      head = nextSlot(head, flow.numBlocks);
      queued[b] = 0;
      walkBlock(fnIdx, b, nullptr, flowInto, /*updateSummaries=*/true);
    }
  }

  /// Reports the errors of function fnIdx from its converged flow tables:
  /// each reachable block that failed a check is walked once more, now
  /// recording (function, pc, reason), so every error has a single,
  /// stable attribution in pc order; unreachable code is never reported.
  /// Returns the number of leader states stored (reachable leaders).
  size_t reportFunction(uint32_t fnIdx) {
    const BCFunction &fn = mod_.fns[fnIdx];
    const FnFlow &flow = flows_[fnIdx];
    if (flow.numBlocks == 0) {
      if (fn.numResults > 0)
        error(fnIdx, VerifyError::kNoPc,
              "empty function declares " + std::to_string(fn.numResults) +
                  " results (no Ret can produce them)");
      return 0;
    }
    const uint32_t base = flow.blockBase, endBlock = flow.numBlocks - 1;
    size_t stored = 0;
    auto noFlow = [](size_t, const RegState *, int32_t) {};
    for (uint32_t b = 0; b < endBlock; ++b) {
      if (!reachable_[base + b])
        continue;
      ++stored;
      if (depthClash_[base + b])
        error(fnIdx, leaderPc_[base + b],
              "ScopePush/ScopePop depth differs between predecessor paths");
      if (marked_[base + b])
        walkBlock(fnIdx, b, this, noFlow, /*updateSummaries=*/false);
    }
    if (reachable_[base + endBlock]) {
      ++stored;
      if (fn.numResults > 0)
        error(fnIdx, VerifyError::kNoPc,
              "control reaches the end of the function without Ret (" +
                  std::to_string(fn.numResults) + " results undefined)");
      else if (depth_[base + endBlock] != 0 || depthClash_[base + endBlock])
        error(fnIdx, VerifyError::kNoPc,
              "control reaches the end of the function with " +
                  std::to_string(depth_[base + endBlock]) +
                  " unmatched ScopePush");
    }
    return stored;
  }

  /// Walks block b of function fnIdx from its stored in-state on the
  /// working state. Errors go to `sinkTo`; with none (the fixpoint) a
  /// failed check marks the block instead.
  template <typename FlowInto>
  void walkBlock(uint32_t fnIdx, uint32_t b, Verifier *sinkTo,
                 FlowInto &&into, bool updateSummaries) {
    const FnFlow &flow = flows_[fnIdx];
    const uint32_t g = flow.blockBase + b;
    const uint32_t *blockOf = &blockOf_[flow.pcBase];
    const size_t n = mod_.fns[fnIdx].instrs.size();
    RegState *regs = work_.data();
#ifndef NDEBUG
    std::fill(regs, regs + mod_.fns[fnIdx].numRegs, kNotLoaded);
#endif
    for (size_t i = liveBegin_[g]; i < liveBegin_[g + 1]; ++i)
      regs[liveRegs_[i]] = states_[i];
    int32_t d = depth_[g];
    marked_[g] = 0;
    for (size_t pc = leaderPc_[g]; pc < n; ++pc) {
      transfer(fnIdx, pc, regs, d, ErrorSink{sinkTo, &marked_[g], fnIdx, pc},
               into, updateSummaries);
      if (blockOf[pc + 1] != kNotLeader)
        break;
    }
  }

  /// Executes the abstract transfer for `fn.instrs[pc]` on the working
  /// state (`regs`, `depth`), feeding successor states to
  /// `flowInto(target, regs, depth)` and faults to `err`.
  /// Runs identically during fixpoint and reporting; only the sinks
  /// differ (updateSummaries is on during the interprocedural fixpoint,
  /// off during reporting, when the summaries are already converged).
  /// On a faulting read the transfer recovers (treats the value as the
  /// demanded type) so one root cause doesn't cascade.
  template <typename FlowInto>
  void transfer(uint32_t fnIdx, size_t pc, RegState *regs, int32_t &depth,
                ErrorSink err, FlowInto &&flowInto, bool updateSummaries) {
    const BCFunction &fn = mod_.fns[fnIdx];
    const Instr &in = fn.instrs[pc];
    const size_t n = fn.instrs.size();

    // Every read of the working state goes through use(), directly or by
    // a read of the same register just before.
    auto use = [&](int32_t r) -> const RegState & {
      assert(!(regs[r] == kNotLoaded) &&
             "transfer reads a register forEachRegister does not list");
      return regs[r];
    };
    auto readInt = [&](int32_t r, const char *what) {
      const RegState &s = use(r);
      if (s.k == RegState::Int || s.k == RegState::Scalar ||
          s.k == RegState::Any)
        return;
      err(std::string(what) + " reads r" + std::to_string(r) +
          " as int but it is " + s.describe());
    };
    auto readFloat = [&](int32_t r, const char *what) {
      const RegState &s = use(r);
      if (s.k == RegState::Float || s.k == RegState::Scalar ||
          s.k == RegState::Any)
        return;
      err(std::string(what) + " reads r" + std::to_string(r) +
          " as float but it is " + s.describe());
    };
    auto readMem = [&](int32_t r, const char *what) -> RegState {
      const RegState &s = use(r);
      if (s.k == RegState::Mem)
        return s;
      if (s.k == RegState::Any)
        return RegState::ofMem(TypeKind::None, -1);
      err(std::string(what) + " reads r" + std::to_string(r) +
          " as a memref but it is " + s.describe());
      return RegState::ofMem(TypeKind::None, -1);
    };
    auto readInit = [&](int32_t r, const char *what) {
      const RegState &s = use(r);
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
    auto next = [&] { flowInto(pc + 1, regs, depth); };

    switch (in.op) {
    case BC::ConstI:
      regs[in.d] = RegState::ofInt();
      next();
      break;
    case BC::ConstF:
      regs[in.d] = RegState::ofFloat();
      next();
      break;
    case BC::Copy:
      readInit(in.a, "Copy");
      regs[in.d] = regs[in.a].k == RegState::Uninit
                          ? RegState::ofAny()
                          : regs[in.a];
      next();
      break;
    case BC::AddI: case BC::SubI: case BC::MulI: case BC::DivSI:
    case BC::RemSI: case BC::AndI: case BC::OrI: case BC::XOrI:
    case BC::ShLI: case BC::ShRSI: case BC::MinSI: case BC::MaxSI:
      readInt(in.a, "integer arithmetic");
      readInt(in.b, "integer arithmetic");
      regs[in.d] = RegState::ofInt();
      next();
      break;
    case BC::CmpI:
      readInt(in.a, "CmpI");
      readInt(in.b, "CmpI");
      regs[in.d] = RegState::ofInt();
      next();
      break;
    case BC::AddF: case BC::SubF: case BC::MulF: case BC::DivF:
    case BC::RemF: case BC::MinF: case BC::MaxF: case BC::PowF:
      readFloat(in.a, "float arithmetic");
      readFloat(in.b, "float arithmetic");
      regs[in.d] = RegState::ofFloat();
      next();
      break;
    case BC::NegF: case BC::SqrtF: case BC::ExpF: case BC::LogF:
    case BC::AbsF: case BC::SinF: case BC::CosF: case BC::TanhF:
    case BC::FloorF: case BC::CeilF:
      readFloat(in.a, "float unary");
      regs[in.d] = RegState::ofFloat();
      next();
      break;
    case BC::CmpF:
      readFloat(in.a, "CmpF");
      readFloat(in.b, "CmpF");
      regs[in.d] = RegState::ofInt();
      next();
      break;
    case BC::Select: {
      readInt(in.a, "Select condition");
      readInit(in.b, "Select");
      readInit(in.c, "Select");
      RegState j = join(regs[in.b], regs[in.c]);
      regs[in.d] = j.k == RegState::Uninit ? RegState::ofAny() : j;
      next();
      break;
    }
    case BC::SIToFP:
      readInt(in.a, "SIToFP");
      regs[in.d] = RegState::ofFloat();
      next();
      break;
    case BC::FPToSI:
      readFloat(in.a, "FPToSI");
      regs[in.d] = RegState::ofInt();
      next();
      break;
    case BC::TruncI32:
      readInt(in.a, "TruncI32");
      regs[in.d] = RegState::ofInt();
      next();
      break;
    case BC::Alloca:
    case BC::AllocHeap: {
      const ShapeInfo &shape = fn.shapes[in.imm];
      for (int32_t i = 0; i < in.c; ++i)
        readInt(fn.extras[in.b + i], "alloca extent");
      regs[in.d] = RegState::ofMem(
          shape.elem, static_cast<int8_t>(shape.dims.size()));
      next();
      break;
    }
    case BC::Dealloc:
      readMem(in.a, "Dealloc");
      next();
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
        regs[in.d] =
            isFloatKind(m.elem) ? RegState::ofFloat() : RegState::ofInt();
      } else if (in.t != TypeKind::None) {
        regs[in.d] =
            isFloatKind(in.t) ? RegState::ofFloat() : RegState::ofInt();
      } else {
        // Element kind unknowable: the value is data from memory —
        // definitely a scalar, definitely not a descriptor pointer.
        regs[in.d] = RegState::ofScalar();
      }
      next();
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
      next();
      break;
    }
    case BC::Dim: {
      RegState m = readMem(in.a, "Dim");
      if (m.rank >= 0 && in.imm >= m.rank)
        err("Dim index " + std::to_string(in.imm) +
            " out of range for rank " + std::to_string(m.rank));
      regs[in.d] = RegState::ofInt();
      next();
      break;
    }
    case BC::SubView: {
      RegState m = readMem(in.a, "SubView");
      if (m.rank >= 0 && in.c > m.rank)
        err("SubView drops " + std::to_string(in.c) +
            " dims but the memref in r" + std::to_string(in.a) +
            " has rank " + std::to_string(m.rank));
      readIndices("SubView index");
      regs[in.d] = RegState::ofMem(
          m.elem,
          m.rank >= 0 ? static_cast<int8_t>(std::max(0, m.rank - in.c))
                      : int8_t(-1));
      next();
      break;
    }
    case BC::Jump:
      flowInto(static_cast<size_t>(in.imm), regs, depth);
      break;
    case BC::JumpIfFalse:
      readInt(in.a, "JumpIfFalse condition");
      flowInto(static_cast<size_t>(in.imm), regs, depth);
      next();
      break;
    case BC::JumpIfGE:
      readInt(in.a, "JumpIfGE");
      readInt(in.b, "JumpIfGE");
      flowInto(static_cast<size_t>(in.imm), regs, depth);
      next();
      break;
    case BC::Call: {
      auto callee = static_cast<uint32_t>(in.imm);
      for (int32_t i = 0; i < in.c; ++i)
        readInit(fn.extras[in.b + i], "Call argument");
      // Feed this site's argument typestates into the callee's entry
      // seed: the callee is analyzed under what bytecode actually
      // passes, so an int smuggled into a memref parameter is caught
      // where it is dereferenced.
      if (updateSummaries)
        joinSeed(callee, [&](uint32_t i) {
          return passed(regs[fn.extras[in.b + i]]);
        });
      // Results carry the callee's converged Ret typestates. No summary
      // yet means no reachable Ret (the call cannot return): any state
      // is sound; Scalar keeps the value un-dereferenceable.
      for (int32_t i = 0; i < in.d; ++i)
        regs[fn.extras[in.b + in.c + i]] =
            hasRet_[callee] ? rets_[retBase_[callee] + i]
                            : RegState::ofScalar();
      next();
      break;
    }
    case BC::Ret: {
      for (int32_t i = 0; i < in.c; ++i)
        readInit(fn.extras[in.b + i], "Ret value");
      if (depth != 0)
        err("Ret with " + std::to_string(depth) +
            " unmatched ScopePush (scope stack would leak)");
      if (updateSummaries)
        joinRet(fnIdx, [&](uint32_t i) {
          return passed(regs[fn.extras[in.b + i]]);
        });
      break;
    }
    case BC::GetTid:
    case BC::GetTeamSize:
      regs[in.d] = RegState::ofInt();
      next();
      break;
    case BC::TeamBarrier:
      if (!teamReach_[fnIdx])
        err("TeamBarrier outside an omp closure body (no team to "
            "synchronize; a partial team would deadlock)");
      else if (teamlessReach_[fnIdx])
        err("TeamBarrier reachable from both a team (omp) context and a "
            "teamless one (entry or SIMT path); the teamless invocation "
            "would silently skip the synchronization");
      next();
      break;
    case BC::SimtBarrier: {
      const Roles &r = roles_[fnIdx];
      if (!(r.simtBody && !r.entry && !r.ompBody && !r.otherBody &&
            !r.callee))
        err("SimtBarrier outside a SIMT (gpu-block scf) closure body "
            "(aborts serial execution, deadlocks lockstep)");
      next();
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
      if (updateSummaries)
        joinSeed(c.fnIndex, [&](uint32_t i) {
          return i < c.captureRegs.size() ? passed(regs[c.captureRegs[i]])
                                          : RegState::ofInt();
        });
      next();
      break;
    }
    case BC::ScopePush:
      ++depth;
      next();
      break;
    case BC::ScopePop:
      if (depth == 0) {
        err("ScopePop without a matching ScopePush (scope stack "
            "underflow)");
      } else {
        --depth;
      }
      next();
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
  /// (pre-set to Any for host entries): function f's numArgs entries
  /// start at seeds_[seedBase_[f]]; hasSeed_[f] == 0 = nothing invokes it.
  std::vector<RegState> seeds_;
  std::vector<uint32_t> seedBase_;
  std::vector<char> hasSeed_;
  /// Per-function join of Ret value typestates over all reachable Rets,
  /// laid out like seeds_; hasRet_[f] == 0 = no Ret seen (the function
  /// cannot return).
  std::vector<RegState> rets_;
  std::vector<uint32_t> retBase_;
  std::vector<char> hasRet_;
  /// Flow tables from planFlow(), indexed through flows_: the block of
  /// each leader pc (kNotLeader elsewhere), each block's leader pc, its
  /// live-in registers liveRegs_[liveBegin_[b] .. liveBegin_[b + 1]) and
  /// their stored typestates (states_, same indices), its scope depth
  /// and its worklist flags.
  std::vector<FnFlow> flows_;
  std::vector<uint32_t> blockOf_;
  std::vector<uint32_t> leaderPc_;
  std::vector<size_t> liveBegin_;
  std::vector<uint32_t> liveRegs_;
  std::vector<RegState> states_;
  std::vector<int32_t> depth_;
  std::vector<char> reachable_;
  std::vector<char> depthClash_;
  std::vector<char> queued_;
  std::vector<char> marked_; ///< the block's last walk failed a check
  std::vector<uint32_t> queue_;
  /// The working state of the block being walked: one slot per register
  /// of the widest function.
  std::vector<RegState> work_;
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
