// Bytecode-verifier tests: a hand-encoded malformed BCFunction per rule,
// each asserting exact (function, pc, reason) attribution; 2,048 seeded
// one-point mutants of the Rodinia modules' bytecode, each verdict pinned
// by tests/verifier_mutants.inc; and a positive sweep proving every
// function the compiler emits for the full Rodinia suite (all three
// modes) verifies clean.
#include "vm/verifier.h"

#include "driver/compiler.h"
#include "rodinia/rodinia.h"
#include "support/metrics.h"
#include "vm/compile.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace paralift;
using namespace paralift::vm;

namespace {

/// Wraps one function as a module, registering it as the entry "f".
BCModule singleFn(BCFunction fn) {
  BCModule m;
  fn.name = "f";
  m.byName["f"] = 0;
  m.fns.push_back(std::move(fn));
  return m;
}

Instr ins(BC op, int32_t a = 0, int32_t b = 0, int32_t c = 0, int32_t d = 0,
          int64_t imm = 0) {
  Instr i;
  i.op = op;
  i.a = a;
  i.b = b;
  i.c = c;
  i.d = d;
  i.imm = imm;
  return i;
}

/// The error every negative test asserts on: exactly-attributed pc and a
/// reason containing `needle`.
void expectError(const VerifyResult &r, size_t pc, const std::string &needle,
                 const std::string &function = "f") {
  ASSERT_FALSE(r.ok()) << "expected a verification error";
  const VerifyError &e = r.errors.front();
  EXPECT_EQ(e.function, function) << r.str();
  EXPECT_EQ(e.pc, pc) << r.str();
  EXPECT_NE(e.reason.find(needle), std::string::npos)
      << "reason '" << e.reason << "' does not mention '" << needle << "'";
}

} // namespace

//===----------------------------------------------------------------------===//
// Layer 1: structural rules
//===----------------------------------------------------------------------===//

TEST(VerifierStructural, BadJumpTarget) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::Jump, 0, 0, 0, 0, /*imm=*/5)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "jump target 5 outside the function");
  EXPECT_EQ(r.errors.front().op, BC::Jump);
  // The rendered form is the stable one-line attribution format.
  EXPECT_EQ(r.errors.front().str(),
            "fn 'f' (#0) pc 0 (Jump): jump target 5 outside the function "
            "(instruction count 1)");
}

TEST(VerifierStructural, OutOfBoundsRegister) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/3, 7), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "register d=3 out of range (numRegs 2)");
}

TEST(VerifierStructural, ExtrasRangeOverflow) {
  BCFunction f;
  f.numRegs = 1;
  f.numResults = 1;
  f.instrs = {ins(BC::Ret, 0, /*b=*/0, /*c=*/1)}; // extras is empty
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "extras range [0, 1) overflows extras (size 0)");
}

TEST(VerifierStructural, ExtrasRegisterOutOfRange) {
  BCFunction f;
  f.numRegs = 2;
  f.extras = {9}; // range is in bounds; the register inside it is not
  f.instrs = {ins(BC::ConstI, 0, 0, 0, 0, 1),
              ins(BC::Store, /*a=*/0, /*b=*/0, /*c=*/1, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "extras[0]=9 out of range (numRegs 2)");
}

TEST(VerifierStructural, CallArityMismatch) {
  BCModule m;
  BCFunction g;
  g.name = "g";
  g.numRegs = 3;
  g.numArgs = 2;
  g.numResults = 1;
  g.extras = {0};
  g.instrs = {ins(BC::Ret, 0, /*b=*/0, /*c=*/1)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 2;
  f.extras = {0, 1};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),
              // passes 1 arg, g takes 2
              ins(BC::Call, 0, /*b=*/0, /*c=*/1, /*d=*/1, /*imm=*/1),
              ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 1;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  expectError(r, 1, "call passes 1 args but 'g' takes 2");
}

TEST(VerifierStructural, RetArityMismatch) {
  BCFunction f;
  f.numRegs = 1;
  f.numResults = 2;
  f.extras = {0};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, 0, 1), ins(BC::Ret, 0, 0, /*c=*/1)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Ret returns 1 values but the function declares 2");
}

TEST(VerifierStructural, BadShapeIndex) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::Alloca, 0, 0, 0, 0, /*imm=*/3), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "shape index 3 out of range");
}

TEST(VerifierStructural, ClosureCaptureOutOfRange) {
  BCModule m;
  BCFunction body;
  body.name = "<closure>";
  body.numRegs = 1;
  body.numArgs = 1;
  body.instrs = {ins(BC::Ret)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 2;
  Closure c;
  c.fnIndex = 1;
  c.captureRegs = {7}; // enclosing frame has 2 registers
  f.closures.push_back(c);
  f.instrs = {ins(BC::ParallelOmp, 0, 0, 0, 0, /*imm=*/0), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(body));
  VerifyResult r = verifyModule(m);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors.front().pc, VerifyError::kNoPc);
  EXPECT_NE(r.errors.front().reason.find("capture register 7 out of range"),
            std::string::npos)
      << r.str();
}

TEST(VerifierStructural, FrameLimitAndArgOverflow) {
  BCFunction f;
  f.numRegs = 2;
  f.numArgs = 5; // argument copy would overflow the frame
  f.instrs = {ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.errors.front().reason.find("numArgs 5 exceeds numRegs 2"),
            std::string::npos)
      << r.str();
}

namespace {

/// 2^18 argument registers, all live into each of `blocks`
/// one-instruction blocks: jumps to the next pc, then a Ret of every
/// register.
BCFunction everyRegisterLiveEverywhere(int32_t blocks) {
  constexpr int32_t kRegs = 1 << 18;
  BCFunction f;
  f.numRegs = kRegs;
  f.numArgs = kRegs;
  f.numResults = kRegs;
  for (int32_t pc = 0; pc + 1 < blocks; ++pc)
    f.instrs.push_back(ins(BC::Jump, 0, 0, 0, 0, /*imm=*/pc + 1));
  f.instrs.push_back(ins(BC::Ret, 0, /*b=*/0, /*c=*/kRegs));
  for (int32_t r = 0; r < kRegs; ++r)
    f.extras.push_back(r);
  return f;
}

} // namespace

TEST(VerifierStructural, FlowTablesOverBudgetAreRejectedUpFront) {
  // 80 blocks: 21 million leader states (about 150 MB without the
  // budget). 10,000 blocks: 41 million words in each liveness bitset
  // (about 1 GB for the three), rejected before they are allocated.
  const struct {
    int32_t blocks;
    const char *reason;
  } cases[] = {
      {80, "leader states of 20971520 live-in registers exceed the "
           "verifier's budget of 4194304"},
      {10000, "flow tables of 10000 reachable blocks x 262144 registers "
              "exceed the verifier's budget of 1048576 bitset words"},
  };
  for (const auto &c : cases) {
    BCModule m = singleFn(everyRegisterLiveEverywhere(c.blocks));
    auto start = std::chrono::steady_clock::now();
    VerifyResult r = verifyModule(m);
    double seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start)
                         .count();
    ASSERT_EQ(r.errors.size(), 1u) << r.str();
    expectError(r, 0, c.reason);
    EXPECT_LT(seconds, 1.0) << c.blocks << " blocks";
  }
}

TEST(VerifierStructural, JumpIfGERegisterOutOfRange) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),
              ins(BC::JumpIfGE, /*a=*/0, /*b=*/5, 0, 0, /*imm=*/2),
              ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "register b=5 out of range (numRegs 2)");
  EXPECT_EQ(r.errors.front().op, BC::JumpIfGE);
}

TEST(VerifierStructural, JumpIfGETargetPastTheEnd) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),
              ins(BC::JumpIfGE, /*a=*/0, /*b=*/0, 0, 0, /*imm=*/9),
              ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "jump target 9 outside the function (instruction count 3)");
}

//===----------------------------------------------------------------------===//
// Layer 2: flow-sensitive typestate rules
//===----------------------------------------------------------------------===//

TEST(VerifierFlow, UninitializedRead) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::AddI, /*a=*/0, /*b=*/1, 0, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "reads r0 as int but it is uninitialized");
}

TEST(VerifierFlow, UninitializedOnOnePath) {
  // r1 is only written when the branch is taken; the read after the join
  // must be rejected even though one path defines it.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 1; // r0: condition (caller-typed)
  f.instrs = {
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/2), // 0: if !r0 goto 2
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 42),             // 1: r1 = 42
      ins(BC::Copy, /*a=*/1, 0, 0, /*d=*/2),             // 2: r2 = r1
      ins(BC::Ret),                                      // 3
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "Copy reads uninitialized r1");
}

TEST(VerifierFlow, IntUsedAsMemref) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 42),
              ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Load reads r0 as a memref but it is int");
}

TEST(VerifierFlow, FloatOpOnInt) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),
              ins(BC::SqrtF, /*a=*/0, 0, 0, /*d=*/1), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "reads r0 as float but it is int");
}

TEST(VerifierFlow, JumpIfGEFloatOperand) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 1),
              ins(BC::ConstF, 0, 0, 0, /*d=*/1),
              ins(BC::JumpIfGE, /*a=*/0, /*b=*/1, 0, 0, /*imm=*/3),
              ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "JumpIfGE reads r1 as int but it is float");
}

TEST(VerifierFlow, JumpIfGEUninitializedOperand) {
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/1, 1),
              ins(BC::JumpIfGE, /*a=*/0, /*b=*/1, 0, 0, /*imm=*/2),
              ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "JumpIfGE reads r0 as int but it is uninitialized");
}

TEST(VerifierFlow, LoadRankMismatch) {
  BCFunction f;
  f.numRegs = 3;
  f.shapes.push_back({TypeKind::F32, {4}}); // rank-1 static shape
  f.extras = {1, 1};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/1, 0),
              ins(BC::Alloca, 0, /*b=*/0, /*c=*/0, /*d=*/0, /*imm=*/0),
              // 2 indices into a rank-1 memref
              ins(BC::Load, /*a=*/0, /*b=*/0, /*c=*/2, /*d=*/2), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "Load indexes 2 dims but the memref in r0 has rank 1");
}

TEST(VerifierFlow, DimRankViolation) {
  BCFunction f;
  f.numRegs = 2;
  f.shapes.push_back({TypeKind::F32, {4, 4}});
  f.instrs = {ins(BC::Alloca, 0, 0, 0, /*d=*/0, 0),
              ins(BC::Dim, /*a=*/0, 0, 0, /*d=*/1, /*imm=*/5), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Dim index 5 out of range for rank 2");
}

TEST(VerifierFlow, UnbalancedScopesOnRet) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::ScopePush), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Ret with 1 unmatched ScopePush");
}

TEST(VerifierFlow, ScopePopUnderflow) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::ScopePop), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "ScopePop without a matching ScopePush");
}

TEST(VerifierFlow, MisplacedSimtBarrier) {
  // A SimtBarrier in a host-callable function aborts serial execution;
  // it is only legal directly inside a gpu-block scf closure body.
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::SimtBarrier), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "SimtBarrier outside a SIMT");
}

TEST(VerifierFlow, MisplacedTeamBarrier) {
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::TeamBarrier), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 0, "TeamBarrier outside an omp closure body");
}

TEST(VerifierFlow, SimtBarrierAcceptedInGpuBlockBody) {
  // The legal placement: f launches a gpu-block scf closure whose body
  // (and only whose body) suspends at the barrier.
  BCModule m;
  BCFunction body;
  body.name = "<closure>";
  body.numRegs = 1;
  body.numArgs = 1; // one induction variable
  body.instrs = {ins(BC::SimtBarrier), ins(BC::Ret)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 3;
  Closure c;
  c.fnIndex = 1;
  c.numIvs = 1;
  c.lbs = {0};
  c.ubs = {1};
  c.steps = {2};
  c.gpuBlock = true;
  f.closures.push_back(c);
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 0),
              ins(BC::ConstI, 0, 0, 0, /*d=*/1, 4),
              ins(BC::ConstI, 0, 0, 0, /*d=*/2, 1),
              ins(BC::ParallelScf, 0, 0, 0, 0, /*imm=*/0), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(body));
  VerifyResult r = verifyModule(m);
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(VerifierFlow, TypeConflictAcrossPathsRejectedOnRead) {
  // r1 is an int on one path and a float on the other; using it as an
  // int operand after the join is Slot-union type confusion.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 1;
  f.instrs = {
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/3), // 0
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 1),              // 1: r1 int
      ins(BC::Jump, 0, 0, 0, 0, /*imm=*/4),              // 2
      ins(BC::ConstF, 0, 0, 0, /*d=*/1),                 // 3: r1 float
      ins(BC::AddI, /*a=*/1, /*b=*/1, 0, /*d=*/2),       // 4: read as int
      ins(BC::Ret),                                      // 5
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 4, "conflicting types");
}

TEST(VerifierFlow, FallOffEndWithResults) {
  BCFunction f;
  f.numRegs = 1;
  f.numResults = 1;
  f.extras = {0};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, 0, 1)}; // no Ret
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.errors.front().pc, VerifyError::kNoPc);
  EXPECT_NE(
      r.errors.front().reason.find("reaches the end of the function without"),
      std::string::npos)
      << r.str();
}

TEST(VerifierFlow, StructuralErrorsSuppressFlowLayer) {
  // The OOB register would also be an uninitialized read; only the
  // structural error may be reported (the flow layer would index with
  // the invalid field).
  BCFunction f;
  f.numRegs = 1;
  f.instrs = {ins(BC::Copy, /*a=*/5, 0, 0, /*d=*/0), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  ASSERT_FALSE(r.ok());
  for (const VerifyError &e : r.errors)
    EXPECT_EQ(e.reason.find("uninitialized"), std::string::npos) << e.str();
}

//===----------------------------------------------------------------------===//
// Block boundaries: flow states live only at block leaders, yet every
// error keeps its exact per-pc attribution.
//===----------------------------------------------------------------------===//

TEST(VerifierBlocks, JumpIfFalseToNextPcJoinsBothEdges) {
  // Both edges of the branch land on the one leader at pc 1; the
  // uninitialized read two instructions into that block is still
  // attributed to its own pc.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 1;
  f.instrs = {
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/1), // 0
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 1),              // 1
      ins(BC::AddI, /*a=*/1, /*b=*/2, 0, /*d=*/1),       // 2: r2 uninit
      ins(BC::Ret),                                      // 3
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "reads r2 as int but it is uninitialized");
  EXPECT_EQ(r.errors.size(), 1u) << r.str();
}

TEST(VerifierBlocks, LoopWidensToConflictOnSecondTrip) {
  // r1 enters the loop as an int and leaves the body as a float: the
  // header state widens to Conflict only when the back edge is joined,
  // and the read after the loop must see it.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 1;
  f.instrs = {
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 1),              // 0: r1 int
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/4), // 1: header
      ins(BC::ConstF, 0, 0, 0, /*d=*/1),                 // 2: r1 float
      ins(BC::Jump, 0, 0, 0, 0, /*imm=*/1),              // 3: back edge
      ins(BC::AddI, /*a=*/1, /*b=*/1, 0, /*d=*/2),       // 4: after loop
      ins(BC::Ret),                                      // 5
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 4, "reads r1 as int but it is path-dependent");
}

TEST(VerifierBlocks, JumpIfGETargetAndFallThroughAreLeaders) {
  // A backward JumpIfGE into the middle of straight-line code: its target
  // (pc 1) and its fall-through (pc 4) are leaders only because of it.
  // The back edge carries r2 as a float into pc 1, where the join with
  // the entry path's int is read; the error keeps its own pc.
  BCFunction f;
  f.numRegs = 4;
  f.numArgs = 2; // r0, r1: loop bounds
  f.instrs = {
      ins(BC::ConstI, 0, 0, 0, /*d=*/2, 0),                   // 0
      ins(BC::AddI, /*a=*/2, /*b=*/2, 0, /*d=*/3),            // 1: target
      ins(BC::ConstF, 0, 0, 0, /*d=*/2),                      // 2
      ins(BC::JumpIfGE, /*a=*/0, /*b=*/1, 0, 0, /*imm=*/1),   // 3
      ins(BC::Ret),                                           // 4
  };
  auto &reg = metrics::MetricsRegistry::instance();
  uint64_t blocks0 = reg.counterValue("vm.verify.blocks");
  VerifyResult r = verifyModule(singleFn(f));
  expectError(r, 1, "reads r2 as int but it is path-dependent");
  EXPECT_EQ(r.errors.size(), 2u) << r.str(); // both operands of the AddI
  // Leader states stored: pc 0, the target pc 1, the fall-through pc 4.
  EXPECT_EQ(reg.counterValue("vm.verify.blocks"), blocks0 + 3);

  // Without the float on the back edge the loop verifies clean.
  f.instrs[2] = ins(BC::ConstI, 0, 0, 0, /*d=*/2, 1);
  EXPECT_TRUE(verifyModule(singleFn(std::move(f))).ok());
}

TEST(VerifierBlocks, UnreachableCodeNeverReported) {
  // Garbage after an unconditional Jump and after a Ret is dead: it is
  // not part of any reachable block, so it is never analyzed.
  BCFunction f;
  f.numRegs = 2;
  f.instrs = {
      ins(BC::Jump, 0, 0, 0, 0, /*imm=*/2),        // 0
      ins(BC::Load, /*a=*/1, 0, /*c=*/0, /*d=*/0), // 1: dead
      ins(BC::Ret),                                // 2
      ins(BC::SqrtF, /*a=*/1, 0, 0, /*d=*/0),      // 3: dead
      ins(BC::ScopePop),                           // 4: dead
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  EXPECT_TRUE(r.ok()) << r.str();
}

TEST(VerifierBlocks, ScopeDepthClashAtJoin) {
  BCFunction f;
  f.numRegs = 1;
  f.numArgs = 1;
  f.instrs = {
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/2), // 0
      ins(BC::ScopePush),                                // 1: depth 1
      ins(BC::Ret),                                      // 2: join
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "depth differs between predecessor paths");
}

TEST(VerifierBlocks, FallOffToEndPointFromBranch) {
  // A branch straight to pc n reaches the implicit end point with a scope
  // still open; the fall-off is reported at function level.
  BCFunction f;
  f.numRegs = 1;
  f.numArgs = 1;
  f.instrs = {
      ins(BC::ScopePush),                                // 0
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/4), // 1
      ins(BC::ScopePop),                                 // 2
      ins(BC::Ret),                                      // 3
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  ASSERT_EQ(r.errors.size(), 1u) << r.str();
  EXPECT_EQ(r.errors.front().pc, VerifyError::kNoPc);
  EXPECT_NE(r.errors.front().reason.find(
                "reaches the end of the function with 1 unmatched ScopePush"),
            std::string::npos)
      << r.str();
}

TEST(VerifierBlocks, StraightLineStoresOnlyLeaderStates) {
  // 20k instructions over 4k registers with no control flow: two
  // leaders (pc 0 and the fall-off point n), so the reporting pass
  // stores exactly two states instead of one per pc.
  constexpr int32_t kRegs = 4096;
  constexpr int kInstrs = 20000;
  BCFunction f;
  f.numRegs = kRegs;
  for (int i = 0; i < kInstrs; ++i)
    f.instrs.push_back(
        i < kRegs ? ins(BC::ConstI, 0, 0, 0, /*d=*/i, i)
                  : ins(BC::AddI, /*a=*/i % kRegs, /*b=*/(i + 1) % kRegs, 0,
                        /*d=*/(i + 2) % kRegs));
  auto &reg = metrics::MetricsRegistry::instance();
  uint64_t blocks0 = reg.counterValue("vm.verify.blocks");
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_EQ(reg.counterValue("vm.verify.blocks"), blocks0 + 2);
}

TEST(VerifierBlocks, DescendingBackEdgeChainVerifiesInLinearTime) {
  // Block k (k = 1..50,000) is one JumpIfFalse back to block k-1, and
  // only block 0 reads r1, so r1 is live into every block and reaches
  // block k only through block k-1. Sweeping the blocks backwards until
  // nothing changes moves it one block per sweep, 50,000 sweeps over
  // 50,000 blocks (seconds); liveness driven by a worklist of
  // predecessors visits each block a few times (about a millisecond).
  constexpr int32_t kBlocks = 50000;
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 2;
  f.instrs.push_back(ins(BC::Copy, /*a=*/1, 0, 0, /*d=*/2));
  for (int32_t k = 1; k <= kBlocks; ++k)
    f.instrs.push_back(ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/k - 1));
  BCModule m = singleFn(std::move(f));
  auto start = std::chrono::steady_clock::now();
  VerifyResult r = verifyModule(m);
  std::chrono::duration<double> took = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_LT(took.count(), 1.0) << "verification is not linear in the chain";
}

//===----------------------------------------------------------------------===//
// Interprocedural typestate propagation: type confusion smuggled across
// Call / closure boundaries must be rejected, in any function order.
//===----------------------------------------------------------------------===//

TEST(VerifierInterproc, CallArgTypeConfusionRejected) {
  // f ConstIs an arbitrary integer and Calls g, whose body dereferences
  // that argument as a memref. The callee is analyzed under the
  // typestate the call site actually passes, so the forged pointer is
  // caught where it would be dereferenced.
  BCModule m;
  BCFunction f;
  f.name = "f";
  f.numRegs = 1;
  f.extras = {0};
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 0x41414141),
              ins(BC::Call, 0, /*b=*/0, /*c=*/1, /*d=*/0, /*imm=*/1),
              ins(BC::Ret)};
  BCFunction g;
  g.name = "g";
  g.numRegs = 2;
  g.numArgs = 1;
  g.instrs = {ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 1;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  expectError(r, 0, "Load reads r0 as a memref but it is int", "g");
}

TEST(VerifierInterproc, CallResultTypeConfusionRejected) {
  // g returns an int; f binds the result and dereferences it as a
  // memref. Results carry the callee's Ret typestates, not blanket
  // trust.
  BCModule m;
  BCFunction g;
  g.name = "g";
  g.numRegs = 1;
  g.numResults = 1;
  g.extras = {0};
  g.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 7),
              ins(BC::Ret, 0, /*b=*/0, /*c=*/1)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 2;
  f.extras = {0};
  f.instrs = {ins(BC::Call, 0, /*b=*/0, /*c=*/0, /*d=*/1, /*imm=*/1),
              ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 1;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  expectError(r, 1, "Load reads r0 as a memref but it is int", "f");
}

TEST(VerifierInterproc, ClosureBodyBeforeLauncherStillSeeded) {
  // The closure body sits at a LOWER function index than its launcher
  // (the compiler emits bodies after their parent, but adversarial
  // bytecode need not); capture typestates must still reach it.
  BCModule m;
  BCFunction body;
  body.name = "<closure>";
  body.numRegs = 2;
  body.numArgs = 1; // one capture: an int in the enclosing frame
  body.instrs = {ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1),
                 ins(BC::Ret)};
  BCFunction f;
  f.name = "f";
  f.numRegs = 1;
  Closure c;
  c.fnIndex = 0;
  c.captureRegs = {0};
  f.closures.push_back(c);
  f.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/0, 5),
              ins(BC::ParallelOmp, 0, 0, 0, 0, /*imm=*/0), ins(BC::Ret)};
  m.byName["f"] = 1;
  m.fns.push_back(std::move(body));
  m.fns.push_back(std::move(f));
  VerifyResult r = verifyModule(m);
  expectError(r, 0, "Load reads r0 as a memref but it is int", "<closure>");
}

TEST(VerifierInterproc, UnknownElemLoadResultIsNotAMemref) {
  // A Load with no static element kind yields a scalar: data read from
  // memory can never be treated as a descriptor pointer.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 1; // r0: host-provided memref of unknown elem kind
  f.instrs = {ins(BC::Load, /*a=*/0, 0, /*c=*/0, /*d=*/1),
              ins(BC::Load, /*a=*/1, 0, /*c=*/0, /*d=*/2), ins(BC::Ret)};
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 1, "Load reads r1 as a memref but it is a scalar");
}

TEST(VerifierInterproc, HostArgMergedWithConstIsNotAMemref) {
  // r1 is a host argument on one path and an attacker-chosen integer on
  // the other; the merge must carry the concrete side's constraints,
  // not the trusted side's blanket permissions.
  BCFunction f;
  f.numRegs = 3;
  f.numArgs = 2; // r0: condition, r1: host-provided value
  f.instrs = {
      ins(BC::JumpIfFalse, /*a=*/0, 0, 0, 0, /*imm=*/2), // 0
      ins(BC::ConstI, 0, 0, 0, /*d=*/1, 0xdead),         // 1
      ins(BC::Load, /*a=*/1, 0, /*c=*/0, /*d=*/2),       // 2
      ins(BC::Ret),                                      // 3
  };
  VerifyResult r = verifyModule(singleFn(std::move(f)));
  expectError(r, 2, "Load reads r1 as a memref but it is int");
}

TEST(VerifierInterproc, TeamBarrierInDualContextFunctionRejected) {
  // g holds a TeamBarrier and is reachable both from an omp body (has a
  // team) and from the entry via Call (teamless: the barrier would
  // silently no-op there while the team side synchronizes).
  BCModule m;
  BCFunction f;
  f.name = "f";
  f.numRegs = 1;
  Closure c;
  c.fnIndex = 1;
  f.closures.push_back(c);
  f.instrs = {ins(BC::ParallelOmp, 0, 0, 0, 0, /*imm=*/0),
              ins(BC::Call, 0, /*b=*/0, /*c=*/0, /*d=*/0, /*imm=*/2),
              ins(BC::Ret)};
  BCFunction body;
  body.name = "<closure>";
  body.numRegs = 1;
  body.instrs = {ins(BC::Call, 0, /*b=*/0, /*c=*/0, /*d=*/0, /*imm=*/2),
                 ins(BC::Ret)};
  BCFunction g;
  g.name = "g";
  g.numRegs = 1;
  g.instrs = {ins(BC::TeamBarrier), ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 2;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(body));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  expectError(r, 0, "reachable from both a team (omp) context", "g");
}

TEST(VerifierInterproc, CalledMemrefHelperStillVerifiesClean) {
  // The benign counterpart: a helper receiving a real memref from its
  // call site dereferences it — clean, with the rank statically checked
  // from the propagated typestate.
  BCModule m;
  BCFunction f;
  f.name = "f";
  f.numRegs = 1;
  f.shapes.push_back({TypeKind::F32, {4}});
  f.extras = {0};
  f.instrs = {ins(BC::Alloca, 0, /*b=*/0, /*c=*/0, /*d=*/0, /*imm=*/0),
              ins(BC::Call, 0, /*b=*/0, /*c=*/1, /*d=*/0, /*imm=*/1),
              ins(BC::Ret)};
  BCFunction g;
  g.name = "g";
  g.numRegs = 3;
  g.numArgs = 1;
  g.extras = {1};
  g.instrs = {ins(BC::ConstI, 0, 0, 0, /*d=*/1, 0),
              ins(BC::Load, /*a=*/0, /*b=*/0, /*c=*/1, /*d=*/2),
              ins(BC::Ret)};
  m.byName["f"] = 0;
  m.byName["g"] = 1;
  m.fns.push_back(std::move(f));
  m.fns.push_back(std::move(g));
  VerifyResult r = verifyModule(m);
  EXPECT_TRUE(r.ok()) << r.str();
}

//===----------------------------------------------------------------------===//
// VerifiedModule token + metrics
//===----------------------------------------------------------------------===//

TEST(VerifiedModuleToken, CreateSucceedsOnValidAndFailsOnInvalid) {
  BCFunction ok;
  ok.numRegs = 1;
  ok.instrs = {ins(BC::Ret)};
  BCModule good = singleFn(std::move(ok));
  EXPECT_TRUE(VerifiedModule::create(good).has_value());

  BCFunction bad;
  bad.numRegs = 1;
  bad.instrs = {ins(BC::Jump, 0, 0, 0, 0, 99)};
  BCModule evil = singleFn(std::move(bad));
  VerifyResult why;
  EXPECT_FALSE(VerifiedModule::create(evil, &why).has_value());
  EXPECT_FALSE(why.ok());
}

TEST(VerifierMetrics, CountersTrackFunctionsAndErrors) {
  auto &reg = metrics::MetricsRegistry::instance();
  uint64_t fns0 = reg.counterValue("vm.verify.functions");
  uint64_t errs0 = reg.counterValue("vm.verify.errors");
  BCFunction bad;
  bad.numRegs = 1;
  bad.instrs = {ins(BC::Jump, 0, 0, 0, 0, 99)};
  verifyModule(singleFn(std::move(bad)));
  EXPECT_EQ(reg.counterValue("vm.verify.functions"), fns0 + 1);
  EXPECT_EQ(reg.counterValue("vm.verify.errors"), errs0 + 1);
}

//===----------------------------------------------------------------------===//
// Mutants: seeded one-point mutations of the Rodinia modules' bytecode,
// each verdict (accepted, or the exact error list) pinned by a digest
//===----------------------------------------------------------------------===//

namespace {

/// The header of tests/verifier_mutants.inc, written again with the
/// actual verdicts when they differ from the recorded ones.
const char kMutantDigestHeader[] =
    "// The verdict of every mutant of VerifierMutants.\n"
    "// VerdictsMatchTheRecordedDigest (tests/test_verifier.cpp), one line\n"
    "// each: index, base module, mutation, then \"accepted\" or\n"
    "// \"rejected <errors> <FNV-1a 64 of every VerifyError::str() line>\".\n"
    "//\n"
    "// The mutants are one-point changes to the bytecode vm::compileModule\n"
    "// emits, so this file changes when lowering or the pass pipeline\n"
    "// changes the bytecode on purpose. To regenerate it, run\n"
    "//   test_verifier --gtest_filter=VerifierMutants.*\n"
    "// which writes verifier_mutants.actual.inc into its working\n"
    "// directory when any verdict differs, check that only the intended\n"
    "// mutants changed, and copy that file over this one.\n";

/// The digest each mutant's verdict must match, one line per mutant.
const char kRecordedMutantVerdicts[] =
#include "verifier_mutants.inc"
    ;

constexpr uint32_t kMutantsPerModule = 64;

/// splitmix64: the mutants must not depend on a library's distributions.
struct MutantRng {
  uint64_t s;
  uint64_t next() {
    uint64_t z = (s += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint32_t below(size_t n) { return static_cast<uint32_t>(next() % n); }
};

/// Whether `in` names an extras window [b, b + c) (Call: [b, b + c + d)).
bool hasWindow(const Instr &in) {
  switch (in.op) {
  case BC::Alloca: case BC::AllocHeap: case BC::Load: case BC::Store:
  case BC::SubView: case BC::Ret:
    return in.c > 0;
  case BC::Call:
    return in.c + in.d > 0;
  default:
    return false;
  }
}

/// The register operands of `fn.instrs[pc]`: its a/b/c/d register fields
/// and the entries of its extras window.
std::vector<int32_t *> registerFields(BCFunction &fn, size_t pc) {
  Instr &in = fn.instrs[pc];
  std::vector<int32_t *> out;
  switch (in.op) {
  case BC::ConstI: case BC::ConstF: case BC::GetTid: case BC::GetTeamSize:
  case BC::Alloca: case BC::AllocHeap:
    out = {&in.d};
    break;
  case BC::Copy: case BC::NegF: case BC::SqrtF: case BC::ExpF:
  case BC::LogF: case BC::AbsF: case BC::SinF: case BC::CosF:
  case BC::TanhF: case BC::FloorF: case BC::CeilF: case BC::SIToFP:
  case BC::FPToSI: case BC::TruncI32: case BC::Dim: case BC::Load:
  case BC::Store: case BC::SubView:
    out = {&in.a, &in.d};
    break;
  case BC::AddI: case BC::SubI: case BC::MulI: case BC::DivSI:
  case BC::RemSI: case BC::AndI: case BC::OrI: case BC::XOrI:
  case BC::ShLI: case BC::ShRSI: case BC::MinSI: case BC::MaxSI:
  case BC::CmpI: case BC::AddF: case BC::SubF: case BC::MulF:
  case BC::DivF: case BC::RemF: case BC::MinF: case BC::MaxF:
  case BC::PowF: case BC::CmpF:
    out = {&in.a, &in.b, &in.d};
    break;
  case BC::JumpIfGE:
    out = {&in.a, &in.b};
    break;
  case BC::Select:
    out = {&in.a, &in.b, &in.c, &in.d};
    break;
  case BC::Dealloc: case BC::JumpIfFalse:
    out = {&in.a};
    break;
  default:
    break;
  }
  if (hasWindow(in)) {
    int32_t len = in.op == BC::Call ? in.c + in.d : in.c;
    for (int32_t i = 0; i < len; ++i)
      out.push_back(&fn.extras[in.b + i]);
  }
  return out;
}

/// Applies mutation `index` (its kind is index % 4) to `m` and describes
/// it: a bit flip in a register field, a swap of two register operands,
/// a jump retarget, or a shifted extras window.
std::string mutate(BCModule &m, uint32_t index) {
  MutantRng rng{0x5eed0000ull + index};
  struct Site {
    uint32_t fn;
    size_t pc;
  };
  std::vector<Site> regSites, swapSites, jumpSites, windowSites;
  for (uint32_t f = 0; f < m.fns.size(); ++f)
    for (size_t pc = 0; pc < m.fns[f].instrs.size(); ++pc) {
      const Instr &in = m.fns[f].instrs[pc];
      size_t fields = registerFields(m.fns[f], pc).size();
      if (fields > 0)
        regSites.push_back({f, pc});
      if (fields > 1)
        swapSites.push_back({f, pc});
      if (in.op == BC::Jump || in.op == BC::JumpIfFalse ||
          in.op == BC::JumpIfGE)
        jumpSites.push_back({f, pc});
      if (hasWindow(in))
        windowSites.push_back({f, pc});
    }
  auto where = [&](const char *kind, Site s) {
    return std::string(kind) + " fn" + std::to_string(s.fn) + " pc" +
           std::to_string(s.pc);
  };
  unsigned kind = index % 4;
  if ((kind == 1 && swapSites.empty()) || (kind == 2 && jumpSites.empty()) ||
      (kind == 3 && windowSites.empty()))
    kind = 0;
  switch (kind) {
  case 0: {
    Site s = regSites[rng.below(regSites.size())];
    std::vector<int32_t *> fields = registerFields(m.fns[s.fn], s.pc);
    int32_t *field = fields[rng.below(fields.size())];
    // Mostly low bits, so most mutants reach the flow layer.
    unsigned bit = rng.below(8) == 0 ? rng.below(31) : rng.below(5);
    *field ^= int32_t(1) << bit;
    return where("flip", s) + " bit" + std::to_string(bit);
  }
  case 1: {
    Site s = swapSites[rng.below(swapSites.size())];
    std::vector<int32_t *> fields = registerFields(m.fns[s.fn], s.pc);
    size_t i = rng.below(fields.size());
    size_t j = (i + 1 + rng.below(fields.size() - 1)) % fields.size();
    std::swap(*fields[i], *fields[j]);
    return where("swap", s) + " " + std::to_string(i) + "<->" +
           std::to_string(j);
  }
  case 2: {
    Site s = jumpSites[rng.below(jumpSites.size())];
    Instr &in = m.fns[s.fn].instrs[s.pc];
    in.imm = rng.below(m.fns[s.fn].instrs.size() + 1);
    return where("jump", s) + " to" + std::to_string(in.imm);
  }
  default: {
    Site s = windowSites[rng.below(windowSites.size())];
    static const int32_t kShifts[] = {-2, -1, 1, 2};
    int32_t shift = kShifts[rng.below(4)];
    m.fns[s.fn].instrs[s.pc].b += shift;
    return where("shift", s) + " by" + std::to_string(shift);
  }
  }
}

/// "accepted", or "rejected <count> <FNV-1a 64 of every error's str()>".
std::string verdictOf(const VerifyResult &r) {
  if (r.ok())
    return "accepted";
  uint64_t h = 0xcbf29ce484222325ull;
  for (const VerifyError &e : r.errors)
    for (char ch : e.str() + "\n") {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ull;
    }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return "rejected " + std::to_string(r.errors.size()) + " " + hex;
}

} // namespace

TEST(VerifierMutants, VerdictsMatchTheRecordedDigest) {
  // The 16 Rodinia CUDA sources through the full pipeline and in SIMT
  // mode: omp closures with team barriers, and gpu-block scf closures
  // with lockstep barriers.
  std::vector<std::pair<std::string, BCModule>> bases;
  for (const auto &b : rodinia::suite())
    for (bool simt : {false, true}) {
      DiagnosticEngine diag;
      driver::CompileResult cc =
          simt ? driver::compileForSimt(b.cudaSource, diag)
               : driver::compile(b.cudaSource, transforms::PipelineOptions{},
                                 diag);
      ASSERT_TRUE(cc.ok) << b.id << ": " << diag.str();
      bases.emplace_back(b.id + (simt ? "/simt" : "/full"),
                         compileModule(cc.module.get()));
    }

  std::string actual;
  size_t rejected = 0;
  uint32_t index = 0;
  for (const auto &[name, base] : bases)
    for (uint32_t k = 0; k < kMutantsPerModule; ++k, ++index) {
      BCModule m = base;
      std::string what = mutate(m, index);
      std::string verdict = verdictOf(verifyModule(m));
      rejected += verdict != "accepted";
      actual += std::to_string(index) + " " + name + " " + what + " " +
                verdict + "\n";
    }
  EXPECT_GE(index, 2000u);
  // Most mutants must be rejected, and some must survive as harmless.
  EXPECT_GT(rejected, index / 2);
  EXPECT_LT(rejected, index);

  std::string recorded = kRecordedMutantVerdicts;
  if (!recorded.empty() && recorded.front() == '\n')
    recorded.erase(0, 1);
  if (recorded == actual)
    return;
  std::istringstream want(recorded), got(actual);
  std::string w, g;
  int shown = 0;
  while (std::getline(got, g)) {
    if (!std::getline(want, w))
      w = "<missing>";
    if (w != g && shown++ < 10)
      ADD_FAILURE() << "recorded: " << w << "\nactual:   " << g;
  }
  std::ofstream out("verifier_mutants.actual.inc");
  out << kMutantDigestHeader << "R\"digest(\n" << actual << ")digest\"\n";
  FAIL() << "mutant verdicts differ from tests/verifier_mutants.inc; the "
            "actual digest is in verifier_mutants.actual.inc";
}

//===----------------------------------------------------------------------===//
// Positive sweep: everything the compiler emits verifies clean
//===----------------------------------------------------------------------===//

namespace {

class RodiniaVerifyTest
    : public ::testing::TestWithParam<const rodinia::Benchmark *> {};

void expectCompilesAndVerifies(const std::string &source,
                               const transforms::PipelineOptions *opts,
                               const std::string &what) {
  DiagnosticEngine diag;
  driver::CompileResult cc = opts ? driver::compile(source, *opts, diag)
                                  : driver::compileForSimt(source, diag);
  ASSERT_TRUE(cc.ok) << what << ": " << diag.str();
  BCModule bc = compileModule(cc.module.get());
  VerifyResult r = verifyModule(bc);
  EXPECT_TRUE(r.ok()) << what << ":\n" << r.str();
}

} // namespace

TEST_P(RodiniaVerifyTest, SimtModeVerifiesClean) {
  const rodinia::Benchmark &b = *GetParam();
  expectCompilesAndVerifies(b.cudaSource, nullptr, b.id + " simt");
}

TEST_P(RodiniaVerifyTest, FullPipelineVerifiesClean) {
  const rodinia::Benchmark &b = *GetParam();
  transforms::PipelineOptions opts;
  expectCompilesAndVerifies(b.cudaSource, &opts, b.id + " full");
}

TEST_P(RodiniaVerifyTest, McudaModeVerifiesClean) {
  const rodinia::Benchmark &b = *GetParam();
  transforms::PipelineOptions opts = transforms::PipelineOptions::mcuda();
  expectCompilesAndVerifies(b.cudaSource, &opts, b.id + " mcuda");
}

TEST_P(RodiniaVerifyTest, OpenmpReferenceVerifiesClean) {
  const rodinia::Benchmark &b = *GetParam();
  if (!b.openmpSource)
    GTEST_SKIP() << "no OpenMP reference";
  transforms::PipelineOptions opts;
  expectCompilesAndVerifies(b.openmpSource, &opts, b.id + " openmp");
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RodiniaVerifyTest,
    [] {
      std::vector<const rodinia::Benchmark *> all;
      for (const auto &b : rodinia::suite())
        all.push_back(&b);
      return ::testing::ValuesIn(all);
    }(),
    [](const ::testing::TestParamInfo<const rodinia::Benchmark *> &info) {
      return info.param->id;
    });
