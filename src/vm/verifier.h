// Static bytecode verifier: proves a BCModule safe to interpret before a
// single instruction runs, so the VM can execute untrusted bytecode (a
// daemon serving cached artifacts) without per-access dynamic checking.
//
// Two layers (see verifier.cpp):
//  - Layer 1 (structural): every jump target lands on an instruction
//    boundary inside its function, every register index (a/b/c/d, extras
//    ranges, closure capture/bound registers) is < numRegs, every
//    extras[b..b+c) range is in bounds, shape/closure/callee imm indices
//    are valid, Call/Ret arities match the callee's numArgs/numResults,
//    and closure numIvs is consistent with its bound vectors.
//  - Layer 2 (flow-sensitive, interprocedural): a worklist abstract
//    interpretation over the CFG induced by Jump/JumpIfFalse/JumpIfGE
//    propagates a per-register typestate lattice (Uninit / Int / Float /
//    Scalar / MemRef(elem,rank) / Any) with joins at merge points, rejecting
//    reads of uninitialized registers, type confusion on the Slot union
//    (Load from a non-MemRef register, Dim/SubView rank violations,
//    float arithmetic on integers), unbalanced ScopePush/ScopePop along
//    any path, and misplaced barriers (SimtBarrier outside a SIMT
//    closure body; TeamBarrier anywhere but the omp-team-reachable set,
//    or in a function ALSO reachable from a teamless entry/SIMT context,
//    where the barrier would silently no-op). Argument typestates flow
//    across function boundaries to a global fixpoint: every Call and
//    closure-launch site joins what it actually passes into the
//    target's entry state (ordering-independent, so bodies emitted
//    before their launcher — or recursively — are still seeded), and
//    Ret typestates flow back into Call results. The blanket-trusted
//    `Any` state is reserved for values whose every source is the host
//    (pure entry-function arguments); joined with a bytecode-computed
//    state, the concrete side's constraints win, so an integer smuggled
//    toward a memref read is rejected no matter which interprocedural
//    or CFG path carries it.
//    The analysis is block-level and sparse. Once per module it finds
//    each function's block leaders (pc 0, jump targets, the pc after
//    each Jump/JumpIfFalse/JumpIfGE/Ret, and the fall-off point n) and,
//    by a backward liveness worklist over bitsets, the registers live
//    into each leader: those some path from it reads before writing. Only
//    their typestates are stored, copied and joined (no other register's
//    typestate can reach a check or a summary), and each block is walked
//    on one working state, so a visit costs O(block length + live-in
//    registers) and allocates nothing. The fixpoint's last walk of each
//    reachable block runs on its converged state and marks the block
//    when a check fails; errors are reported by walking the marked
//    blocks once more, with the same (function, pc, reason) attribution
//    a per-pc analysis gives; unreachable code is never reported.
//
// A module that verifies clean yields a VerifiedModule token; the
// interpreter accepts the token as proof and elides its dynamic
// per-access register/descriptor checks (see "Bytecode verification" in
// interp.h).
#pragma once

#include "vm/bytecode.h"

#include <optional>
#include <string>
#include <vector>

namespace paralift::vm {

/// One verification failure with full attribution: which function, which
/// instruction, which opcode, and why.
struct VerifyError {
  static constexpr size_t kNoPc = static_cast<size_t>(-1);

  std::string function; ///< BCFunction::name ("<closure>" for bodies)
  uint32_t fnIndex = 0; ///< index into BCModule::fns
  size_t pc = kNoPc;    ///< instruction index; kNoPc = function-level
  BC op = BC::ConstI;   ///< opcode at pc (meaningless when pc == kNoPc)
  std::string reason;

  /// "fn 'name' (#2) pc 14 (Load): reason" — one line, stable format
  /// (tests assert on it).
  std::string str() const;
};

struct VerifyResult {
  std::vector<VerifyError> errors;

  bool ok() const { return errors.empty(); }
  /// All errors rendered one per line.
  std::string str() const;
};

/// Runs both verifier layers over every function of `mod`. Structural
/// errors suppress the flow layer (its transfer functions index with the
/// very fields layer 1 validates). Bumps the vm.verify.functions /
/// vm.verify.errors counters, adds each function's reachable leader
/// states from the reporting pass to vm.verify.blocks, and records a
/// trace span per function.
VerifyResult verifyModule(const BCModule &mod);

/// Proof token that a BCModule passed verifyModule. Only obtainable via
/// create(), so an Interp constructed from one may trust every register
/// index, descriptor type, and arity in the module. The token borrows the
/// module: the BCModule must outlive every Interp built from the token,
/// and must not be mutated afterwards.
class VerifiedModule {
public:
  /// Verifies `mod`; on success returns a token, on failure nullopt (the
  /// errors are copied into *result when provided).
  static std::optional<VerifiedModule> create(const BCModule &mod,
                                              VerifyResult *result = nullptr);

  const BCModule &module() const { return *mod_; }

private:
  explicit VerifiedModule(const BCModule &mod) : mod_(&mod) {}
  const BCModule *mod_;
};

} // namespace paralift::vm
