// Bytecode-verifier tests: a hand-encoded malformed BCFunction per rule,
// each asserting exact (function, pc, reason) attribution, plus a
// positive sweep proving every function the compiler emits for the full
// Rodinia suite (all three modes) verifies clean.
#include "vm/verifier.h"

#include "driver/compiler.h"
#include "rodinia/rodinia.h"
#include "support/metrics.h"
#include "vm/compile.h"

#include <gtest/gtest.h>

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
