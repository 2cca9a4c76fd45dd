// Arena lifecycle tests: the IRArena allocator itself (slab growth,
// alignment, destructor records, attr-name interning), the arena-root
// ownership model (clone-then-destroy-source independence, erase-is-
// unlink reuse inside one module), and cache replays parsing into fresh
// arenas that outlive nothing they point at (the TSan CI job runs this
// file for the concurrent bump allocation under
// -DPARALIFT_SANITIZE=thread).
#include "driver/session.h"
#include "ir/arena.h"
#include "ir/builder.h"
#include "ir/hasher.h"
#include "ir/ophelpers.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "transforms/pass_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

using namespace paralift;
using namespace paralift::ir;
using namespace paralift::transforms;

namespace {

OwnedModule parseOk(const std::string &text) {
  DiagnosticEngine diag;
  auto m = ir::parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  return std::move(*m);
}

const char *kLoopModule = R"(module {
  func {sym_name = "axpy", res_types = []} {
    [%0: memref<?xf32>, %1: memref<?xf32>]:
    %2 = const.int {value = 0} : index
    %3 = const.int {value = 64} : index
    %4 = const.int {value = 1} : index
    scf.for(%2, %3, %4) {
      [%5: index]:
      %6 = memref.load(%0, %5) : f32
      %7 = memref.load(%1, %5) : f32
      %8 = addf(%6, %7) : f32
      memref.store(%8, %1, %5)
      yield
    }
    return
  }
})";

} // namespace

//===----------------------------------------------------------------------===//
// IRArena allocator
//===----------------------------------------------------------------------===//

TEST(ArenaAllocTest, AlignmentAndGrowth) {
  IRArena arena;
  std::vector<char *> ptrs;
  for (int i = 0; i < 4000; ++i) {
    auto *p = static_cast<char *>(arena.allocate(24));
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 16, 0u);
    ptrs.push_back(p);
  }
  // Bump allocation never hands out overlapping storage: all pointers are
  // at least the rounded size apart within a slab.
  for (size_t i = 1; i < ptrs.size(); ++i)
    if (ptrs[i] > ptrs[i - 1])
      EXPECT_GE(ptrs[i] - ptrs[i - 1], 32);
  IRArena::Stats st = arena.stats();
  EXPECT_GT(st.slabs, 1u); // 4000 * 32 bytes forces slab chaining
  EXPECT_GE(st.bytesReserved, st.bytesAllocated);
}

TEST(ArenaAllocTest, DestructorRecordsRunOnTeardown) {
  int runs = 0;
  {
    IRArena arena;
    auto **slot = static_cast<int **>(arena.allocate(sizeof(int *)));
    *slot = &runs;
    arena.registerDestructor(slot, [](void *p) { ++**static_cast<int **>(p); });
    arena.registerDestructor(slot, [](void *p) { ++**static_cast<int **>(p); });
    EXPECT_EQ(arena.stats().destructorRecords, 2u);
    EXPECT_EQ(runs, 0);
  }
  EXPECT_EQ(runs, 2);
}

TEST(ArenaAllocTest, ConcurrentAllocationIsSafe) {
  IRArena arena;
  constexpr int kThreads = 8, kAllocs = 2000;
  std::vector<std::thread> workers;
  std::vector<std::vector<char *>> out(kThreads);
  for (int t = 0; t < kThreads; ++t)
    workers.emplace_back([&, t] {
      for (int i = 0; i < kAllocs; ++i) {
        auto *p = static_cast<char *>(arena.allocate(16));
        *p = static_cast<char>(t); // touch the byte; TSan checks races
        out[t].push_back(p);
      }
    });
  for (auto &w : workers)
    w.join();
  // Every pointer is distinct (no two threads got the same storage).
  std::vector<char *> all;
  for (auto &v : out)
    all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_EQ(all.size(), static_cast<size_t>(kThreads) * kAllocs);
}

TEST(ArenaAllocTest, AttrNameInterningIsPointerStable) {
  const char *a = internAttrName("sym_name", 8);
  const char *b = internAttrName(std::string("sym_name"));
  EXPECT_EQ(a, b); // equal contents -> identical pointer
  std::string dynamic = "custom.attr.name";
  const char *c = internAttrName(dynamic);
  const char *d = internAttrName("custom.attr.name", dynamic.size());
  EXPECT_EQ(c, d);
  EXPECT_STREQ(c, "custom.attr.name");
  EXPECT_NE(a, c);
}

//===----------------------------------------------------------------------===//
// Arena-root ownership
//===----------------------------------------------------------------------===//

TEST(ArenaLifecycleTest, CloneSurvivesSourceDestruction) {
  OwnedModule src = parseOk(kLoopModule);
  Hash128 srcHash = hashOp(src.op());
  OwnedModule clone = cloneModule(src.get());
  EXPECT_NE(&src.arena(), &clone.arena()); // independent arenas
  std::string printed = printOp(clone.op());
  // Destroy the source module; the clone must be fully self-contained.
  src = OwnedModule();
  EXPECT_TRUE(verifyOk(clone.op()));
  EXPECT_EQ(hashOp(clone.op()), srcHash);
  EXPECT_EQ(printOp(clone.op()), printed);
}

TEST(ArenaLifecycleTest, EraseIsUnlinkAndArenaIsReused) {
  OwnedModule m = parseOk(kLoopModule);
  Op *func = m.get().lookupFunc("axpy");
  ASSERT_NE(func, nullptr);
  Hash128 before = hashOp(m.op());
  size_t allocatedBefore = m.arena().stats().bytesAllocated;

  // Erase the whole function, then rebuild an equivalent module state by
  // re-parsing into the same arena — the erased memory stays behind
  // (monotonic arena) but the module works like new.
  func->erase();
  EXPECT_EQ(m.get().lookupFunc("axpy"), nullptr);
  EXPECT_GE(m.arena().stats().bytesAllocated, allocatedBefore);

  DiagnosticEngine diag;
  Op *top = parseModuleInto(m.arena(), kLoopModule, diag);
  ASSERT_NE(top, nullptr) << diag.str();
  Block &src = top->region(0).front();
  for (Op *op = src.front(), *next = nullptr; op; op = next) {
    next = op->next();
    src.unlink(op);
    m.get().body().push_back(op);
  }
  Op::destroy(top); // detaches only; memory stays in m's arena

  EXPECT_TRUE(verifyOk(m.op()));
  EXPECT_EQ(hashOp(m.op()), before);
}

TEST(ArenaLifecycleTest, EraseAndRebuildInsideOneFunction) {
  OwnedModule m;
  FuncOp f = FuncOp::create(m.get(), "build", {}, {});
  Builder b(&f.body());
  // Build, erase, and rebuild repeatedly: use-def bookkeeping must stay
  // consistent while the arena only ever grows.
  for (int round = 0; round < 50; ++round) {
    Value x = b.constI32(round);
    Value y = b.constI32(round + 1);
    Value s = b.addi(x, y);
    Op *sum = s.definingOp();
    EXPECT_EQ(x.numUses(), 1u);
    sum->erase();
    EXPECT_EQ(x.numUses(), 0u);
    x.definingOp()->erase();
    y.definingOp()->erase();
    EXPECT_TRUE(f.body().empty());
  }
  b.ret({});
  EXPECT_TRUE(verifyOk(m.op()));
}

TEST(ArenaLifecycleTest, ModuleTeardownIsSlabRelease) {
  // Teardown cost is O(slabs), not O(ops): a module with thousands of
  // ops still only chains a handful of doubling slabs.
  OwnedModule m;
  FuncOp f = FuncOp::create(m.get(), "big", {}, {});
  Builder b(&f.body());
  Value acc = b.constI32(0);
  for (int i = 0; i < 20000; ++i)
    acc = b.addi(acc, b.constI32(i));
  b.ret({});
  IRArena::Stats st = m.arena().stats();
  EXPECT_GT(st.bytesAllocated, size_t{20000} * sizeof(Op));
  EXPECT_LT(st.slabs, 64u);
  // String attrs are the only destructor records; this module has exactly
  // one func (sym_name + res_types share one AttrMap record).
  EXPECT_LE(st.destructorRecords, 2u);
  m = OwnedModule(); // must not leak (ASan CI) nor walk per-op
}

//===----------------------------------------------------------------------===//
// Cache replay into fresh arenas
//===----------------------------------------------------------------------===//

namespace {

/// Compiles `m` through `pipeline` as the module job of a one-job session
/// over `cache`; returns the job's module.
OwnedModule compileCached(OwnedModule m, const std::string &pipeline,
                          PassResultCache &cache) {
  driver::SessionOptions so;
  so.cache = &cache;
  so.useEnvCache = false;
  so.pipelineSpec = pipeline;
  driver::CompilerSession session(std::move(so));
  driver::CompileJob &job = session.addModule("", std::move(m));
  EXPECT_TRUE(session.compileAll()) << job.diagnostics().str();
  return job.take().module;
}

} // namespace

TEST(ArenaReplayTest, ReplayLandsInTheResultModulesArena) {
  const std::string pipeline = "canonicalize,cse";
  PassResultCache cache;
  std::string expected =
      printOp(compileCached(parseOk(kLoopModule), pipeline, cache).op());

  // Second run replays from cache: every replayed func must live in the
  // arena of the module the job returns, so destroying the module
  // afterwards is safe and complete (ASan verifies no leak/UAF).
  OwnedModule replay = compileCached(parseOk(kLoopModule), pipeline, cache);
  EXPECT_GT(cache.stats().passesReplayed, 0u);
  EXPECT_EQ(printOp(replay.op()), expected);
  Op *func = replay.get().lookupFunc("axpy");
  ASSERT_NE(func, nullptr);
  EXPECT_EQ(&func->arena(), &replay.arena());
}

TEST(ArenaReplayTest, RepeatedMultiFunctionReplayIntoFreshArenas) {
  // A six-function module through a four-pass pipeline, replayed three
  // times into fresh modules while the cache (and its stored text)
  // outlives each of them.
  std::string text = "module {\n";
  for (int i = 0; i < 6; ++i) {
    std::string n = std::to_string(i);
    // Value ids are module-global in the textual format; give each func
    // a disjoint range.
    auto v = [&](int k) { return "%" + std::to_string(i * 8 + k); };
    text += "  func {sym_name = \"k" + n + "\", res_types = []} {\n"
            "    [" + v(0) + ": memref<?xf32>]:\n"
            "    " + v(1) + " = const.int {value = 0} : index\n"
            "    " + v(2) + " = const.int {value = 32} : index\n"
            "    " + v(3) + " = const.int {value = 1} : index\n"
            "    scf.for(" + v(1) + ", " + v(2) + ", " + v(3) + ") {\n"
            "      [" + v(4) + ": index]:\n"
            "      " + v(5) + " = const.float {value = " + n + ".0} : f32\n"
            "      memref.store(" + v(5) + ", " + v(0) + ", " + v(4) + ")\n"
            "      yield\n"
            "    }\n"
            "    return\n"
            "  }\n";
  }
  text += "}\n";

  const std::string pipeline = "canonicalize,cse,licm,canonicalize";
  PassResultCache cache;
  std::string expected =
      printOp(compileCached(parseOk(text), pipeline, cache).op());

  for (int run = 0; run < 3; ++run) {
    OwnedModule m = compileCached(parseOk(text), pipeline, cache);
    EXPECT_EQ(printOp(m.op()), expected);
    EXPECT_TRUE(verifyOk(m.op()));
    // Module (and its arena, including all replayed IR) destroyed here
    // while the cache stays live — the next round must not observe it.
  }
}
