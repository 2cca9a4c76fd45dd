// The ParaLift VM: executes bytecode on the team runtime.
//
// Three execution regimes:
//  - plain serial interpretation (host code, serialized loops);
//  - team execution for omp.parallel/omp.wsloop/omp.barrier;
//  - lockstep SIMT execution for gpu.block scf.parallel loops: every
//    thread of a block gets its own context, contexts run until they hit
//    a SimtBarrier, and resume together — giving ground-truth CUDA
//    __syncthreads semantics for validating the transpilation pipelines.
//
// == Bytecode verification ==
//
// `Slot` is an untyped i/f/p union and the interpreter indexes frames and
// extras tables without checking, so malformed bytecode is memory
// corruption, not an exception. The static verifier (vm/verifier.h)
// closes that hole before execution starts: `VerifiedModule::create`
// proves every register/extras/shape/closure/callee index in range, every
// Call/Ret arity consistent, every register read typed (no int read as a
// memref pointer, no uninitialized read) — interprocedurally, with
// argument typestates propagated from every Call/launch site and Ret
// typestates back into Call results, so type confusion cannot be
// smuggled across a frame boundary either — every Load/Store/SubView/Dim
// rank-consistent with the memref it touches, scopes balanced, and
// barriers placed where their execution regime always exists.
// It costs one structural pass, one planning pass (block leaders, and the
// registers live into each as bitsets) and the fixpoint's block walks,
// each O(block length + live-in registers) with no allocation; only
// blocks that fail a check are walked again, to report. Lowering and
// verification are the bytecode stage of every compile that executes,
// a warm cache hit's included.
//
// An Interp can only be constructed from a VerifiedModule, so there is
// no trusted bypass. What that proof buys at runtime:
//  - The interpreter performs no descriptor checks (Load/Store
//    rank-vs-index-count, Dim/SubView rank range) and sizes frames by
//    `numRegs` alone — the verifier discharged all of that statically.
//  - `ExecOptions::boundsCheck` is the one runtime knob: it guards the
//    *data-dependent* index comparisons (idx vs sizes[i]) which no static
//    analysis can remove. Trusted runs (our own compiler's output on
//    workloads whose indexing was validated) turn it off for the fast
//    path measured in BENCH_vm.json.
//  - Untrusted cached bytecode (the daemon scenario) keeps
//    boundsCheck=true: verification stops forged descriptors/registers,
//    bounds checks stop hostile index math — and the process answers a
//    bad request with an error (tryCall) instead of dying.
#pragma once

#include "runtime/thread_pool.h"
#include "vm/bytecode.h"
#include "vm/verifier.h"

#include <cstring>
#include <deque>
#include <memory>

namespace paralift::vm {

/// Per-execution memory arena with scope marks (allocas inside loops are
/// released at the end of each iteration).
///
/// Released storage is recycled, not freed: release() only rewinds the
/// cursors, so the next iteration's allocas reuse the previous
/// iteration's descriptors and buffers in place (a buffer regrows only
/// when a larger request lands on its slot). A loop that allocas the
/// same shapes every iteration performs zero allocations after the
/// first — previously every iteration freed and re-malloc'd.
///
/// Contract: allocate() always returns ZEROED storage — fresh buffers
/// are value-initialized and recycled ones are memset — so iteration N
/// observes exactly what iteration 1 did (and what the old
/// free-and-remalloc scheme guaranteed), never stale bytes from a
/// previous iteration.
class Arena {
public:
  MemRef *newDesc() {
    if (descsUsed_ == descs_.size())
      descs_.push_back(std::make_unique<MemRef>());
    MemRef *m = descs_[descsUsed_++].get();
    *m = MemRef{}; // recycled descriptors must not leak stale fields
    return m;
  }
  char *allocate(size_t bytes) {
    if (bufsUsed_ == bufs_.size())
      bufs_.emplace_back();
    Buf &b = bufs_[bufsUsed_++];
    if (b.cap < bytes) {
      reserved_ += bytes - b.cap;
      b.data = std::make_unique<char[]>(bytes); // value-init: zeroed
      b.cap = bytes;
    } else if (bytes > 0) {
      std::memset(b.data.get(), 0, bytes); // recycled: re-zero
    }
    return b.data.get();
  }
  struct Mark {
    size_t descs, bufs;
  };
  Mark mark() const { return {descsUsed_, bufsUsed_}; }
  void release(Mark m) {
    descsUsed_ = m.descs;
    bufsUsed_ = m.bufs;
  }

  /// Introspection for tests: live (cursor) counts and pooled capacity.
  size_t liveDescs() const { return descsUsed_; }
  size_t liveBuffers() const { return bufsUsed_; }
  size_t pooledDescs() const { return descs_.size(); }
  size_t pooledBuffers() const { return bufs_.size(); }
  /// Total buffer bytes this arena has reserved (monotonic; recycling
  /// never shrinks it) — what ExecOptions::maxArenaBytes caps.
  uint64_t reservedBytes() const { return reserved_; }

private:
  struct Buf {
    std::unique_ptr<char[]> data;
    size_t cap = 0;
  };
  std::vector<std::unique_ptr<MemRef>> descs_;
  std::vector<Buf> bufs_;
  size_t descsUsed_ = 0;
  size_t bufsUsed_ = 0;
  uint64_t reserved_ = 0;
};

/// Wraps an external buffer in a descriptor from `descs`, valid until
/// `descs` releases it. A caller that wraps its buffers anew for each
/// call releases them after the call (driver::Executor::marshal).
Slot wrapBuffer(Arena &descs, TypeKind elem, void *data,
                const std::vector<int64_t> &sizes);

struct ExecOptions {
  /// Data-dependent index checking (idx vs sizes) on Load/Store/SubView.
  /// See "Bytecode verification" above: only untrusted input needs it.
  bool boundsCheck = true;
  /// Per-execution-arena byte cap (each serial run and each team/SIMT
  /// thread context has its own arena). A breach traps — surfaced as a
  /// CallResult error by tryCall — instead of allocating until the
  /// process is OOM-killed. 0 = unlimited.
  uint64_t maxArenaBytes = 0;
};

/// Outcome of Interp::tryCall: results on success, a non-empty error
/// otherwise — unknown function, arity mismatch, or a runtime trap
/// (bounds violation under boundsCheck, arena-cap breach, an
/// injected "vm.exec" fault). Traps are counted in the "vm.exec.errors"
/// metric. Lets a long-lived server answer a bad request instead of
/// aborting the process.
struct CallResult {
  std::vector<Slot> results;
  std::string error;
  bool ok() const { return error.empty(); }
};

class Interp {
public:
  /// The token proves every structural and typestate invariant, so
  /// boundsCheck=false is safe for trusted data. The module behind the
  /// token must outlive this Interp.
  Interp(const VerifiedModule &verified, runtime::ThreadPool &pool,
         ExecOptions opts = {})
      : mod_(verified.module()), pool_(pool), opts_(opts) {}

  /// Calls a named function; args are pre-populated registers (scalars or
  /// MemRef* created via wrapBuffer). Returns the function results.
  /// Aborts via fatalError on an unknown name, arity mismatch, or
  /// runtime trap — use tryCall where the process must survive bad
  /// requests.
  std::vector<Slot> call(const std::string &name, std::vector<Slot> args);

  /// Like call(), but surfaces unknown-function/arity errors *and*
  /// runtime traps (bounds violations under boundsCheck, arena-cap
  /// breaches) as a structured CallResult instead of killing the
  /// process. Traps unwind cleanly: team threads contain their own trap
  /// and the first one is re-surfaced on the calling thread after the
  /// parallel region joins.
  CallResult tryCall(const std::string &name, std::vector<Slot> args);

private:
  struct Ctx {
    runtime::Team *team = nullptr;
    unsigned tid = 0;
    Arena *arena = nullptr;
  };

  enum class StepResult { Returned, Barrier };

  /// The dispatch loop, one call per frame: runs `fn` from `pc` until it
  /// executes Ret or falls off the end (Returned), or reaches a
  /// SimtBarrier (Barrier, with `pc` set just past it). Shared by the
  /// serial/team interpreter (exec, which calls it once per frame and
  /// traps on Barrier) and the lockstep engine, which calls it once per
  /// thread per barrier phase and resumes each thread at the returned
  /// `pc`.
  StepResult step(const BCFunction &fn, Slot *regs, Ctx &ctx,
                  std::vector<Arena::Mark> &scopes, size_t &pc,
                  std::vector<Slot> *results);

  void exec(const BCFunction &fn, Slot *regs, Ctx &ctx,
            std::vector<Slot> *results);
  void execParallelOmp(const BCFunction &fn, const Closure &c, Slot *regs,
                       Ctx &ctx);
  void execParallelScf(const BCFunction &fn, const Closure &c, Slot *regs,
                       Ctx &ctx);
  void execLockstep(const BCFunction &body, const std::vector<Slot> &base,
                    const std::vector<int64_t> &lbs,
                    const std::vector<int64_t> &ubs,
                    const std::vector<int64_t> &steps, unsigned numCaptures);

  MemRef *doAlloca(const BCFunction &fn, const Instr &in, Slot *regs,
                   Arena &arena);

  const BCModule &mod_;
  runtime::ThreadPool &pool_;
  ExecOptions opts_;
};

} // namespace paralift::vm
