#include "vm/interp.h"

#include "ir/intmath.h"
#include "support/diagnostics.h"
#include "support/failpoint.h"
#include "support/metrics.h"

#include <cmath>
#include <cstring>
#include <stdexcept>

namespace paralift::vm {

using runtime::Team;
namespace intmath = ir::intmath;

namespace {

/// A VM runtime trap: bounds violation under boundsCheck, arena-cap
/// breach, barrier misplacement. Thrown from the interpreter core,
/// caught at the tryCall boundary and surfaced as CallResult::error —
/// never an assert/abort, so a long-lived service survives hostile
/// requests. call() re-establishes the legacy fatalError behavior on
/// top of this.
struct VmTrap : std::runtime_error {
  using std::runtime_error::runtime_error;
};

metrics::Counter &vmExecErrors() {
  static metrics::Counter *c =
      &metrics::MetricsRegistry::instance().counter("vm.exec.errors");
  return *c;
}

int64_t cmpF(int64_t pred, double a, double b) {
  using ir::CmpFPred;
  switch (static_cast<CmpFPred>(pred)) {
  case CmpFPred::oeq: return a == b;
  case CmpFPred::one: return a != b;
  case CmpFPred::olt: return a < b;
  case CmpFPred::ole: return a <= b;
  case CmpFPred::ogt: return a > b;
  case CmpFPred::oge: return a >= b;
  }
  return 0;
}

inline double normFloat(TypeKind t, double v) {
  return t == TypeKind::F32 ? static_cast<float>(v) : v;
}

/// Element `off` of guest memory, read and written with relaxed atomic
/// accesses (plain moves on x86-64). A guest program may race: Rodinia's
/// BFS, like its CUDA original, sets the same flags and costs from many
/// threads. Such a race is the guest's own, never undefined behaviour
/// in the VM.
template <typename T> inline T guestLoad(const char *data, int64_t off) {
  T v;
  __atomic_load(reinterpret_cast<const T *>(data) + off, &v,
                __ATOMIC_RELAXED);
  return v;
}
template <typename T> inline void guestStore(char *data, int64_t off, T v) {
  __atomic_store(reinterpret_cast<T *>(data) + off, &v, __ATOMIC_RELAXED);
}

} // namespace

Slot wrapBuffer(Arena &descs, TypeKind elem, void *data,
                const std::vector<int64_t> &sizes) {
  assert(sizes.size() <= kMaxRank);
  MemRef *m = descs.newDesc();
  m->elem = elem;
  m->rank = static_cast<uint8_t>(sizes.size());
  m->data = static_cast<char *>(data);
  for (size_t i = 0; i < sizes.size(); ++i)
    m->sizes[i] = sizes[i];
  Slot s;
  s.p = m;
  return s;
}

std::vector<Slot> Interp::call(const std::string &name,
                               std::vector<Slot> args) {
  CallResult r = tryCall(name, std::move(args));
  if (!r.ok())
    fatalError(r.error);
  return std::move(r.results);
}

CallResult Interp::tryCall(const std::string &name, std::vector<Slot> args) {
  CallResult out;
  const BCFunction *fn = mod_.lookup(name);
  if (!fn) {
    out.error = "no such function: " + name;
    return out;
  }
  // Real checks, not asserts: in Release an arity mismatch would
  // otherwise overflow the register copy below.
  if (args.size() != fn->numArgs) {
    out.error = "call arity mismatch for '" + name + "': got " +
                std::to_string(args.size()) + " args, function takes " +
                std::to_string(fn->numArgs);
    return out;
  }
  // The verifier guarantees numArgs <= numRegs.
  std::vector<Slot> regs(fn->numRegs);
  std::copy(args.begin(), args.end(), regs.begin());
  Arena arena;
  Ctx ctx;
  ctx.arena = &arena;
  // Trap boundary: anything the interpreter core throws (VmTrap, an
  // injected "vm.exec" fault, a bad_alloc from a hostile shape) becomes
  // a structured error on this result — the process survives.
  try {
    failpoint::evaluate("vm.exec");
    exec(*fn, regs.data(), ctx, &out.results);
  } catch (const std::exception &e) {
    out.error = "trap in '" + name + "': " + e.what();
    out.results.clear();
    vmExecErrors().add();
  } catch (...) {
    out.error = "trap in '" + name + "': non-standard exception";
    out.results.clear();
    vmExecErrors().add();
  }
  return out;
}

MemRef *Interp::doAlloca(const BCFunction &fn, const Instr &in, Slot *regs,
                         Arena &arena) {
  const ShapeInfo &shape = fn.shapes[in.imm];
  MemRef *m = arena.newDesc();
  m->elem = shape.elem;
  m->rank = static_cast<uint8_t>(shape.dims.size());
  unsigned dynIdx = 0;
  for (size_t i = 0; i < shape.dims.size(); ++i) {
    int64_t d = shape.dims[i];
    if (d == Type::kDynamic)
      d = regs[fn.extras[in.b + dynIdx++]].i;
    m->sizes[i] = d;
  }
  int64_t bytes = m->byteSize();
  // Arena::allocate returns zeroed storage (fresh and recycled alike).
  m->data = arena.allocate(static_cast<size_t>(std::max<int64_t>(bytes, 1)));
  if (opts_.maxArenaBytes && arena.reservedBytes() > opts_.maxArenaBytes)
    throw VmTrap("VM arena limit exceeded (" +
                 std::to_string(arena.reservedBytes()) + " > " +
                 std::to_string(opts_.maxArenaBytes) + " bytes) in " +
                 fn.name);
  return m;
}

// Pinned to a 64-byte boundary: bench_e2e's rodinia-exec latency moved
// by about 6% with this loop's 64-byte phase alone (a 32-byte function
// added to a file linked before the VM shifted it and read 2.384 ->
// 2.535 ms over 6 alternating 20 s pairs on 4 vCPUs, bytecode
// unchanged), so code growth elsewhere must not move it.
__attribute__((aligned(64))) Interp::StepResult
Interp::step(const BCFunction &fn, Slot *regs, Ctx &ctx,
             std::vector<Arena::Mark> &scopes, size_t &pc,
             std::vector<Slot> *results) {
  // Everything the loop reads on every instruction lives in locals, so a
  // store through `regs` never forces a reload of the program counter,
  // the code or the bounds-check flag.
  const Instr *const code = fn.instrs.data();
  const int32_t *const extras = fn.extras.data();
  const size_t n = fn.instrs.size();
  const bool boundsCheck = opts_.boundsCheck;
  size_t at = pc;
  while (at < n) {
    const Instr &in = code[at];
    switch (in.op) {
    case BC::ConstI: regs[in.d].i = in.imm; break;
    case BC::ConstF: regs[in.d].f = in.fimm; break;
    case BC::Copy: regs[in.d] = regs[in.a]; break;
    case BC::AddI:
      regs[in.d].i =
          intmath::truncate(in.t, intmath::add(regs[in.a].i, regs[in.b].i));
      break;
    case BC::SubI:
      regs[in.d].i =
          intmath::truncate(in.t, intmath::sub(regs[in.a].i, regs[in.b].i));
      break;
    case BC::MulI:
      regs[in.d].i =
          intmath::truncate(in.t, intmath::mul(regs[in.a].i, regs[in.b].i));
      break;
    case BC::DivSI:
      regs[in.d].i =
          intmath::truncate(in.t, intmath::div(regs[in.a].i, regs[in.b].i));
      break;
    case BC::RemSI:
      regs[in.d].i =
          intmath::truncate(in.t, intmath::rem(regs[in.a].i, regs[in.b].i));
      break;
    case BC::AndI: regs[in.d].i = regs[in.a].i & regs[in.b].i; break;
    case BC::OrI: regs[in.d].i = regs[in.a].i | regs[in.b].i; break;
    case BC::XOrI: regs[in.d].i = regs[in.a].i ^ regs[in.b].i; break;
    case BC::ShLI:
      regs[in.d].i =
          intmath::truncate(in.t, intmath::shl(regs[in.a].i, regs[in.b].i));
      break;
    case BC::ShRSI:
      regs[in.d].i = intmath::shr(regs[in.a].i, regs[in.b].i);
      break;
    case BC::MinSI: regs[in.d].i = std::min(regs[in.a].i, regs[in.b].i); break;
    case BC::MaxSI: regs[in.d].i = std::max(regs[in.a].i, regs[in.b].i); break;
    case BC::CmpI:
      regs[in.d].i = intmath::compare(static_cast<ir::CmpIPred>(in.imm),
                                      regs[in.a].i, regs[in.b].i);
      break;
    case BC::AddF:
      regs[in.d].f = normFloat(in.t, regs[in.a].f + regs[in.b].f);
      break;
    case BC::SubF:
      regs[in.d].f = normFloat(in.t, regs[in.a].f - regs[in.b].f);
      break;
    case BC::MulF:
      regs[in.d].f = normFloat(in.t, regs[in.a].f * regs[in.b].f);
      break;
    case BC::DivF:
      regs[in.d].f = normFloat(in.t, regs[in.a].f / regs[in.b].f);
      break;
    case BC::RemF:
      regs[in.d].f = normFloat(in.t, std::fmod(regs[in.a].f, regs[in.b].f));
      break;
    case BC::MinF: regs[in.d].f = std::fmin(regs[in.a].f, regs[in.b].f); break;
    case BC::MaxF: regs[in.d].f = std::fmax(regs[in.a].f, regs[in.b].f); break;
    case BC::PowF:
      regs[in.d].f = normFloat(in.t, std::pow(regs[in.a].f, regs[in.b].f));
      break;
    case BC::NegF: regs[in.d].f = -regs[in.a].f; break;
    case BC::SqrtF:
      regs[in.d].f = normFloat(in.t, std::sqrt(regs[in.a].f));
      break;
    case BC::ExpF:
      regs[in.d].f = normFloat(in.t, std::exp(regs[in.a].f));
      break;
    case BC::LogF:
      regs[in.d].f = normFloat(in.t, std::log(regs[in.a].f));
      break;
    case BC::AbsF: regs[in.d].f = std::fabs(regs[in.a].f); break;
    case BC::SinF:
      regs[in.d].f = normFloat(in.t, std::sin(regs[in.a].f));
      break;
    case BC::CosF:
      regs[in.d].f = normFloat(in.t, std::cos(regs[in.a].f));
      break;
    case BC::TanhF:
      regs[in.d].f = normFloat(in.t, std::tanh(regs[in.a].f));
      break;
    case BC::FloorF: regs[in.d].f = std::floor(regs[in.a].f); break;
    case BC::CeilF: regs[in.d].f = std::ceil(regs[in.a].f); break;
    case BC::CmpF:
      regs[in.d].i = cmpF(in.imm, regs[in.a].f, regs[in.b].f);
      break;
    case BC::Select:
      regs[in.d] = regs[in.a].i ? regs[in.b] : regs[in.c];
      break;
    case BC::SIToFP:
      regs[in.d].f = normFloat(in.t, static_cast<double>(regs[in.a].i));
      break;
    case BC::FPToSI: regs[in.d].i = intmath::fpToSI(regs[in.a].f); break;
    case BC::TruncI32:
      regs[in.d].i = static_cast<int32_t>(regs[in.a].i);
      break;
    case BC::Alloca:
    case BC::AllocHeap:
      regs[in.d].p = doAlloca(fn, in, regs, *ctx.arena);
      break;
    case BC::Dealloc:
      break; // arena-managed
    case BC::Load: {
      const MemRef &m = *static_cast<MemRef *>(regs[in.a].p);
      int64_t off = 0;
      for (int32_t i = 0; i < in.c; ++i) {
        int64_t idx = regs[extras[in.b + i]].i;
        if (boundsCheck && (idx < 0 || idx >= m.sizes[i]))
          throw VmTrap("load index out of bounds: dim " + std::to_string(i) +
                       " idx " + std::to_string(idx) + " size " +
                       std::to_string(m.sizes[i]) + " in " + fn.name);
        off = off * m.sizes[i] + idx;
      }
      switch (m.elem) {
      case TypeKind::F32:
        regs[in.d].f = guestLoad<float>(m.data, off);
        break;
      case TypeKind::F64:
        regs[in.d].f = guestLoad<double>(m.data, off);
        break;
      case TypeKind::I32:
        regs[in.d].i = guestLoad<int32_t>(m.data, off);
        break;
      case TypeKind::I64:
      case TypeKind::Index:
        regs[in.d].i = guestLoad<int64_t>(m.data, off);
        break;
      case TypeKind::I1:
        regs[in.d].i = guestLoad<char>(m.data, off) != 0;
        break;
      default:
        throw VmTrap("bad load elem kind");
      }
      break;
    }
    case BC::Store: {
      const MemRef &m = *static_cast<MemRef *>(regs[in.a].p);
      int64_t off = 0;
      for (int32_t i = 0; i < in.c; ++i) {
        int64_t idx = regs[extras[in.b + i]].i;
        if (boundsCheck && (idx < 0 || idx >= m.sizes[i]))
          throw VmTrap("store index out of bounds: dim " + std::to_string(i) +
                       " idx " + std::to_string(idx) + " size " +
                       std::to_string(m.sizes[i]) + " in " + fn.name);
        off = off * m.sizes[i] + idx;
      }
      switch (m.elem) {
      case TypeKind::F32:
        guestStore(m.data, off, static_cast<float>(regs[in.d].f));
        break;
      case TypeKind::F64:
        guestStore(m.data, off, regs[in.d].f);
        break;
      case TypeKind::I32:
        guestStore(m.data, off, static_cast<int32_t>(regs[in.d].i));
        break;
      case TypeKind::I64:
      case TypeKind::Index:
        guestStore<int64_t>(m.data, off, regs[in.d].i);
        break;
      case TypeKind::I1:
        guestStore<char>(m.data, off, regs[in.d].i ? 1 : 0);
        break;
      default:
        throw VmTrap("bad store elem kind");
      }
      break;
    }
    case BC::Dim: {
      const MemRef &m = *static_cast<MemRef *>(regs[in.a].p);
      regs[in.d].i = m.sizes[in.imm];
      break;
    }
    case BC::SubView: {
      const MemRef &m = *static_cast<MemRef *>(regs[in.a].p);
      MemRef *v = ctx.arena->newDesc();
      v->elem = m.elem;
      v->rank = static_cast<uint8_t>(m.rank - in.c);
      int64_t off = 0;
      for (int32_t i = 0; i < in.c; ++i) {
        int64_t idx = regs[extras[in.b + i]].i;
        if (boundsCheck && (idx < 0 || idx >= m.sizes[i]))
          throw VmTrap("subview index out of bounds");
        off = off * m.sizes[i] + idx;
      }
      int64_t inner = 1;
      for (unsigned i = in.c; i < m.rank; ++i) {
        v->sizes[i - in.c] = m.sizes[i];
        inner *= m.sizes[i];
      }
      v->data = m.data + off * inner * ir::byteWidth(m.elem);
      regs[in.d].p = v;
      break;
    }
    case BC::Jump:
      at = static_cast<size_t>(in.imm);
      continue;
    case BC::JumpIfFalse:
      if (!regs[in.a].i) {
        at = static_cast<size_t>(in.imm);
        continue;
      }
      break;
    case BC::JumpIfGE:
      if (regs[in.a].i >= regs[in.b].i) {
        at = static_cast<size_t>(in.imm);
        continue;
      }
      break;
    case BC::Call: {
      const BCFunction &callee = mod_.fns[in.imm];
      std::vector<Slot> calleeRegs(callee.numRegs);
      for (int32_t i = 0; i < in.c; ++i)
        calleeRegs[i] = regs[extras[in.b + i]];
      std::vector<Slot> res;
      exec(callee, calleeRegs.data(), ctx, &res);
      for (int32_t i = 0; i < in.d; ++i)
        regs[extras[in.b + in.c + i]] = res[i];
      break;
    }
    case BC::Ret:
      if (results) {
        results->clear();
        for (int32_t i = 0; i < in.c; ++i)
          results->push_back(regs[extras[in.b + i]]);
      }
      return StepResult::Returned;
    case BC::GetTid: regs[in.d].i = ctx.tid; break;
    case BC::GetTeamSize:
      regs[in.d].i = ctx.team ? ctx.team->size() : 1;
      break;
    case BC::TeamBarrier:
      if (ctx.team)
        ctx.team->barrier();
      break;
    case BC::SimtBarrier:
      pc = at + 1;
      return StepResult::Barrier;
    case BC::ParallelOmp:
      execParallelOmp(fn, fn.closures[in.imm], regs, ctx);
      break;
    case BC::ParallelScf:
      execParallelScf(fn, fn.closures[in.imm], regs, ctx);
      break;
    case BC::ScopePush:
      scopes.push_back(ctx.arena->mark());
      break;
    case BC::ScopePop:
      ctx.arena->release(scopes.back());
      scopes.pop_back();
      break;
    }
    ++at;
  }
  return StepResult::Returned; // fell off the end
}

void Interp::exec(const BCFunction &fn, Slot *regs, Ctx &ctx,
                  std::vector<Slot> *results) {
  std::vector<Arena::Mark> scopes;
  size_t pc = 0;
  if (step(fn, regs, ctx, scopes, pc, results) == StepResult::Barrier)
    throw VmTrap("polygeist.barrier outside lockstep execution; run "
                 "cpuify or use the SIMT executor");
}

void Interp::execParallelOmp(const BCFunction &fn, const Closure &c,
                             Slot *regs, Ctx &ctx) {
  (void)ctx;
  const BCFunction &body = mod_.fns[c.fnIndex];
  std::vector<Slot> captures;
  captures.reserve(c.captureRegs.size());
  for (int32_t r : c.captureRegs)
    captures.push_back(regs[r]);
  (void)fn;
  // A trap in a team member is thrown again here once the region joins,
  // so it still reaches the tryCall boundary; its siblings leave their
  // barriers instead of waiting for it.
  pool_.parallelContained([&](unsigned tid, Team &team) {
    std::vector<Slot> frame(body.numRegs);
    std::copy(captures.begin(), captures.end(), frame.begin());
    Arena arena;
    Ctx inner;
    inner.team = &team;
    inner.tid = tid;
    inner.arena = &arena;
    exec(body, frame.data(), inner, nullptr);
  });
}

void Interp::execParallelScf(const BCFunction &fn, const Closure &c,
                             Slot *regs, Ctx &ctx) {
  const BCFunction &body = mod_.fns[c.fnIndex];
  unsigned nd = c.numIvs;
  std::vector<int64_t> lbs(nd), ubs(nd), steps(nd);
  for (unsigned i = 0; i < nd; ++i) {
    lbs[i] = regs[c.lbs[i]].i;
    ubs[i] = regs[c.ubs[i]].i;
    steps[i] = regs[c.steps[i]].i;
  }
  std::vector<Slot> captures;
  for (int32_t r : c.captureRegs)
    captures.push_back(regs[r]);
  (void)fn;

  if (c.gpuBlock) {
    std::vector<Slot> base(body.numRegs);
    std::copy(captures.begin(), captures.end(), base.begin());
    execLockstep(body, base, lbs, ubs, steps,
                 static_cast<unsigned>(captures.size()));
    return;
  }

  // Serial (deterministic) iteration for grid loops and plain parallels.
  if (nd == 0)
    return;
  std::vector<int64_t> iv = lbs;
  bool any = true;
  for (unsigned i = 0; i < nd; ++i)
    if (lbs[i] >= ubs[i])
      any = false;
  while (any) {
    std::vector<Slot> frame(body.numRegs);
    std::copy(captures.begin(), captures.end(), frame.begin());
    for (unsigned i = 0; i < nd; ++i)
      frame[captures.size() + i].i = iv[i];
    Arena arena;
    Ctx inner;
    inner.team = ctx.team;
    inner.tid = ctx.tid;
    inner.arena = &arena;
    exec(body, frame.data(), inner, nullptr);
    int d = static_cast<int>(nd) - 1;
    while (d >= 0) {
      iv[d] += steps[d];
      if (iv[d] < ubs[d])
        break;
      iv[d] = lbs[d];
      --d;
    }
    if (d < 0)
      break;
  }
}

void Interp::execLockstep(const BCFunction &body,
                          const std::vector<Slot> &base,
                          const std::vector<int64_t> &lbs,
                          const std::vector<int64_t> &ubs,
                          const std::vector<int64_t> &steps,
                          unsigned numCaptures) {
  struct ThreadCtx {
    std::vector<Slot> regs;
    size_t pc = 0;
    bool done = false;
    Arena arena;
    std::vector<Arena::Mark> scopes;
  };
  unsigned nd = static_cast<unsigned>(lbs.size());
  if (nd == 0)
    return;
  // Enumerate the block's thread IV tuples.
  std::vector<std::vector<int64_t>> ivTuples;
  std::vector<int64_t> iv = lbs;
  bool any = true;
  for (unsigned i = 0; i < nd; ++i)
    if (lbs[i] >= ubs[i])
      any = false;
  while (any) {
    ivTuples.push_back(iv);
    int d = static_cast<int>(nd) - 1;
    while (d >= 0) {
      iv[d] += steps[d];
      if (iv[d] < ubs[d])
        break;
      iv[d] = lbs[d];
      --d;
    }
    if (d < 0)
      break;
  }
  if (ivTuples.empty())
    return;

  std::deque<ThreadCtx> threads(ivTuples.size());
  for (size_t t = 0; t < ivTuples.size(); ++t) {
    threads[t].regs = base;
    for (unsigned i = 0; i < nd; ++i)
      threads[t].regs[numCaptures + i].i = ivTuples[t][i];
  }

  // One phase per round: each live thread runs from where it suspended
  // up to its next barrier (or its end).
  bool anyActive = true;
  while (anyActive) {
    anyActive = false;
    for (auto &tc : threads) {
      if (tc.done)
        continue;
      Ctx ctx;
      ctx.arena = &tc.arena;
      if (step(body, tc.regs.data(), ctx, tc.scopes, tc.pc, nullptr) ==
          StepResult::Returned)
        tc.done = true;
      else
        anyActive = true;
    }
  }
}

} // namespace paralift::vm
