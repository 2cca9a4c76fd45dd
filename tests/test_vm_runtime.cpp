// Unit tests for the execution layer: thread pool teams and barriers,
// nested-parallel policies, dispatch queues, VM arithmetic semantics
// (f32 rounding, i32 wrapping, division guards, the shared integer edge
// cases of ir/intmath.h), memref bounds checking,
// arena scoping and recycling of allocas, structured call errors
// (tryCall/tryRun) and per-call buffer descriptor recycling, the
// lockstep SIMT emulator's barrier semantics under divergent-looking but
// block-uniform control flow, and the bytecode lowering of loops:
// omp.wsloop iteration coverage against plain C++ loops at team sizes
// 1-5, empty iteration spaces, and the shape of the bytecode the
// transpiled kernels execute.
#include "driver/compiler.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "moccuda/resnet.h"
#include "rodinia/rodinia.h"
#include "support/metrics.h"
#include "transforms/passes.h"
#include "runtime/thread_pool.h"
#include "vm/compile.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <limits>
#include <malloc.h>
#include <memory>
#include <numeric>
#include <set>
#include <sstream>
#include <thread>

using namespace paralift;
using namespace paralift::runtime;

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, AllTeamMembersRun) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::atomic<uint32_t> tidMask{0};
  pool.parallel([&](unsigned tid, Team &team) {
    EXPECT_EQ(team.size(), 4u);
    count.fetch_add(1);
    tidMask.fetch_or(1u << tid);
  });
  EXPECT_EQ(count.load(), 4);
  EXPECT_EQ(tidMask.load(), 0b1111u);
}

TEST(ThreadPoolTest, SetNumThreadsChangesTeamSize) {
  ThreadPool pool(4);
  pool.setNumThreads(2);
  std::atomic<int> count{0};
  pool.parallel([&](unsigned, Team &team) {
    EXPECT_EQ(team.size(), 2u);
    count.fetch_add(1);
  });
  EXPECT_EQ(count.load(), 2);
  // Clamped to capacity.
  pool.setNumThreads(64);
  EXPECT_EQ(pool.numThreads(), 4u);
  pool.setNumThreads(0);
  EXPECT_EQ(pool.numThreads(), 1u);
}

TEST(ThreadPoolTest, TeamBarrierSynchronizes) {
  ThreadPool pool(4);
  std::atomic<int> phase1{0};
  std::vector<int> seen(4, -1);
  pool.parallel([&](unsigned tid, Team &team) {
    phase1.fetch_add(1);
    team.barrier();
    // After the barrier every member observed all phase-1 increments.
    seen[tid] = phase1.load();
  });
  for (int v : seen)
    EXPECT_EQ(v, 4);
}

TEST(ThreadPoolTest, SequentialParallelRegionsReuseWorkers) {
  ThreadPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    pool.parallel([&](unsigned, Team &) { count.fetch_add(1); });
    ASSERT_EQ(count.load(), 4) << "round " << round;
  }
}

TEST(ThreadPoolTest, NestedSerializePolicy) {
  ThreadPool pool(4);
  pool.setNestedPolicy(NestedPolicy::Serialize);
  std::atomic<int> inner{0};
  pool.parallel([&](unsigned, Team &) {
    EXPECT_TRUE(ThreadPool::insideParallel());
    pool.parallel([&](unsigned tid, Team &team) {
      EXPECT_EQ(team.size(), 1u);
      EXPECT_EQ(tid, 0u);
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(inner.load(), 4); // one serialized inner region per member
}

TEST(ThreadPoolTest, NestedSpawnPolicy) {
  ThreadPool pool(2);
  pool.setNestedPolicy(NestedPolicy::Spawn);
  std::atomic<int> inner{0};
  pool.parallel([&](unsigned, Team &) {
    pool.parallel([&](unsigned, Team &team) {
      EXPECT_EQ(team.size(), 2u);
      inner.fetch_add(1);
    });
  });
  EXPECT_EQ(inner.load(), 4); // 2 outer members x 2 inner members
}

TEST(ThreadPoolTest, SingleThreadPool) {
  ThreadPool pool(1);
  int runs = 0;
  pool.parallel([&](unsigned tid, Team &team) {
    EXPECT_EQ(tid, 0u);
    EXPECT_EQ(team.size(), 1u);
    team.barrier(); // must not deadlock
    ++runs;
  });
  EXPECT_EQ(runs, 1);
}

//===----------------------------------------------------------------------===//
// DispatchQueue
//===----------------------------------------------------------------------===//

TEST(DispatchQueueTest, SyncWaitsForAllTasks) {
  DispatchQueue q;
  std::atomic<int> done{0};
  for (int i = 0; i < 100; ++i)
    q.async([&] { done.fetch_add(1); });
  q.sync();
  EXPECT_EQ(done.load(), 100);
}

TEST(DispatchQueueTest, TasksRunInOrder) {
  DispatchQueue q;
  std::vector<int> order;
  for (int i = 0; i < 32; ++i)
    q.async([&order, i] { order.push_back(i); });
  q.sync();
  for (int i = 0; i < 32; ++i)
    EXPECT_EQ(order[i], i);
}

TEST(DispatchQueueTest, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    DispatchQueue q;
    for (int i = 0; i < 10; ++i)
      q.async([&] { done.fetch_add(1); });
  } // destructor joins after the queue drains
  EXPECT_EQ(done.load(), 10);
}

//===----------------------------------------------------------------------===//
// VM semantics through the public API
//===----------------------------------------------------------------------===//

namespace {
int64_t runIntFn(const std::string &src, const std::string &fn,
                 std::vector<driver::Executor::Arg> args) {
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  EXPECT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  auto r = exec.run(fn, args);
  EXPECT_EQ(r.size(), 1u);
  return r.empty() ? 0 : r[0].i;
}
double runFloatFn(const std::string &src, const std::string &fn,
                  std::vector<driver::Executor::Arg> args) {
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  EXPECT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  auto r = exec.run(fn, args);
  EXPECT_EQ(r.size(), 1u);
  return r.empty() ? 0 : r[0].f;
}
} // namespace

TEST(VmSemanticsTest, Int32ArithmeticWraps) {
  // 2^31 - 1 + 1 wraps to INT32_MIN under i32 semantics.
  EXPECT_EQ(runIntFn("int f(int x) { return x + 1; }", "f",
                     {int64_t(2147483647)}),
            -2147483648LL);
}

TEST(VmSemanticsTest, DivisionByZeroYieldsZero) {
  // The VM defines x/0 = 0 (documented; avoids UB in speculated code).
  EXPECT_EQ(runIntFn("int f(int a, int b) { return a / b; }", "f",
                     {int64_t(5), int64_t(0)}),
            0);
  EXPECT_EQ(runIntFn("int f(int a, int b) { return a % b; }", "f",
                     {int64_t(5), int64_t(0)}),
            0);
}

TEST(VmSemanticsTest, Float32Rounding) {
  // 16777217 is not representable in f32; f32 arithmetic must round.
  double got = runFloatFn(
      "float f(float a) { return a + 1.0f; }", "f", {16777216.0});
  EXPECT_EQ(got, 16777216.0);
}

TEST(VmSemanticsTest, MathBuiltins) {
  EXPECT_NEAR(runFloatFn("float f(float x) { return sqrtf(x); }", "f",
                         {2.0}),
              std::sqrt(2.0f), 1e-6);
  EXPECT_NEAR(runFloatFn("float f(float x) { return expf(logf(x)); }", "f",
                         {3.5}),
              3.5, 1e-5);
  EXPECT_NEAR(runFloatFn("double f(double x) { return pow(x, 3.0); }", "f",
                         {2.0}),
              8.0, 1e-9);
}

TEST(VmSemanticsTest, TernaryAndShortCircuit) {
  const char *src = R"(
int f(int a, int b) {
  int r = 0;
  if (a > 0 && 10 / a > b) {
    r = 1;
  }
  return a > b ? r + 10 : r - 10;
}
)";
  // a=0: short-circuit must not divide by zero (and 0/0==0 anyway).
  EXPECT_EQ(runIntFn(src, "f", {int64_t(0), int64_t(-1)}), 10);
  EXPECT_EQ(runIntFn(src, "f", {int64_t(2), int64_t(1)}), 11);
  // a=1, b=5: 10/1 > 5 sets r=1; ternary takes the else branch.
  EXPECT_EQ(runIntFn(src, "f", {int64_t(1), int64_t(5)}), -9);
}

TEST(VmSemanticsTest, DoWhileExecutesAtLeastOnce) {
  const char *src = R"(
int f(int n) {
  int count = 0;
  do {
    count = count + 1;
  } while (count < n);
  return count;
}
)";
  EXPECT_EQ(runIntFn(src, "f", {int64_t(5)}), 5);
  EXPECT_EQ(runIntFn(src, "f", {int64_t(-3)}), 1);
}

TEST(VmSemanticsTest, BoundsCheckCatchesOutOfRange) {
  const char *src = "void f(float* a, int i) { a[i] = 1.0f; }";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok);
  driver::Executor exec(cc.module.get(), 1, /*boundsCheck=*/true);
  std::vector<float> buf(4);
  EXPECT_DEATH(
      exec.run("f", {driver::Executor::bufferF32(buf.data(), {4}),
                     int64_t(7)}),
      "out of bounds");
}

//===----------------------------------------------------------------------===//
// Structured call errors (Interp::tryCall / Executor::tryRun)
//===----------------------------------------------------------------------===//

TEST(TryCallTest, UnknownFunctionReturnsErrorNotAbort) {
  DiagnosticEngine diag;
  auto cc = driver::compile("int f(int x) { return x; }",
                            transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  vm::CallResult r = exec.tryRun("nope", {int64_t(1)});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("no such function: nope"), std::string::npos)
      << r.error;
  // The executor survives the bad request and still serves good ones.
  auto good = exec.run("f", {int64_t(7)});
  ASSERT_EQ(good.size(), 1u);
  EXPECT_EQ(good[0].i, 7);
}

TEST(TryCallTest, ArityMismatchReturnsErrorNotAbort) {
  DiagnosticEngine diag;
  auto cc = driver::compile("int f(int a, int b) { return a + b; }",
                            transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  vm::CallResult r = exec.tryRun("f", {int64_t(1)});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("arity mismatch"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("got 1 args"), std::string::npos) << r.error;
  auto good = exec.run("f", {int64_t(2), int64_t(3)});
  ASSERT_EQ(good.size(), 1u);
  EXPECT_EQ(good[0].i, 5);
}

TEST(TryCallTest, RunStillAbortsOnUnknownName) {
  DiagnosticEngine diag;
  auto cc = driver::compile("int f(int x) { return x; }",
                            transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  EXPECT_DEATH(exec.run("nope", {int64_t(1)}), "no such function");
}

TEST(TryCallTest, RepeatedCallsRecycleBufferDescriptors) {
  // Every call wraps its buffer in a fresh descriptor; the executor
  // recycles them after the call, so a long-lived executor's heap does
  // not grow with the number of calls (a leaked descriptor is 80 bytes).
  const char *src = R"(
__global__ void k(float* a, int n) {
  int i = threadIdx.x;
  if (i < n) {
    a[i] = 1.0f * i;
  }
}
void run(float* a, int n) { k<<<1, 4>>>(a, n); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  std::vector<float> a(4);
  auto call = [&] {
    exec.run("run", {driver::Executor::bufferF32(a.data(), {4}), int64_t(4)});
  };
  for (int i = 0; i < 100; ++i)
    call(); // warm up the pool and the allocator's caches
  auto inUse = [] { return static_cast<int64_t>(mallinfo2().uordblks); };
  int64_t before = inUse();
  for (int i = 0; i < 10000; ++i)
    call();
  EXPECT_LT(inUse() - before, 64 * 1024);
  EXPECT_FLOAT_EQ(a[3], 3.0f);
}

//===----------------------------------------------------------------------===//
// Integer edge cases: the VM and the constant folder share one definition
// (ir/intmath.h), so neither traps and both compute the same value.
//===----------------------------------------------------------------------===//

TEST(IntSemanticsTest, EdgeCasesExecuteAndFoldToTheSameValue) {
  struct Case {
    const char *op;
    ir::OpKind kind;
    int64_t a, b, expected;
  };
  const Case cases[] = {
      {"/", ir::OpKind::DivSI, INT64_MIN, -1, INT64_MIN},
      {"%", ir::OpKind::RemSI, INT64_MIN, -1, 0},
      {"/", ir::OpKind::DivSI, 7, 0, 0},
      {"%", ir::OpKind::RemSI, 7, 0, 0},
      {"+", ir::OpKind::AddI, INT64_MAX, 1, INT64_MIN},
      {"-", ir::OpKind::SubI, INT64_MIN, 1, INT64_MAX},
      {"*", ir::OpKind::MulI, INT64_MAX, 2, -2},
      // Shift counts are taken modulo 64.
      {"<<", ir::OpKind::ShLI, 1, 64, 1},
      {"<<", ir::OpKind::ShLI, 1, 70, 64},
      {"<<", ir::OpKind::ShLI, 3, -1, INT64_MIN},
      {">>", ir::OpKind::ShRSI, -16, 66, -4},
      {">>", ir::OpKind::ShRSI, INT64_MIN, 63, -1},
  };
  for (const Case &c : cases) {
    SCOPED_TRACE(std::to_string(c.a) + " " + c.op + " " + std::to_string(c.b));
    // Executed: the VM computes a OP b from its arguments.
    DiagnosticEngine diag;
    std::string src =
        std::string("long f(long a, long b) { return a ") + c.op + " b; }";
    auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
    ASSERT_TRUE(cc.ok) << diag.str();
    driver::Executor exec(cc.module.get(), 1);
    vm::CallResult r = exec.tryRun("f", {c.a, c.b});
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_EQ(r.results.size(), 1u);
    EXPECT_EQ(r.results[0].i, c.expected);

    // Folded: the same op on i64 constants (frontend literals are i32, so
    // the function is built directly), canonicalized to one constant.
    ir::OwnedModule m;
    ir::FuncOp g = ir::FuncOp::create(m.get(), "g", {}, {ir::Type::i64()});
    ir::Builder b(&g.body());
    b.ret({b.binary(c.kind, b.constInt(c.a, ir::Type::i64()),
                    b.constInt(c.b, ir::Type::i64()))});
    transforms::runCanonicalize(m.get());
    ir::Op *ret = g.body().terminator();
    ASSERT_NE(ret, nullptr);
    auto folded = ir::getConstInt(ret->operand(0));
    ASSERT_TRUE(folded.has_value()) << ir::printOp(m.op());
    EXPECT_EQ(*folded, c.expected);
  }
}

TEST(IntSemanticsTest, FloatToIntExecutesAndFoldsToTheSameValue) {
  // A C++ cast is undefined for NaN and for values outside int64_t; the
  // IR defines them as INT64_MIN (ir/intmath.h).
  struct Case {
    double x;
    int64_t expected;
  };
  const Case cases[] = {
      {std::numeric_limits<double>::quiet_NaN(), INT64_MIN},
      {1e30, INT64_MIN},
      {-1e30, INT64_MIN},
      {0x1p63, INT64_MIN},
      {-0x1p63, INT64_MIN},
      {1.5, 1},
      {-1.5, -1},
  };
  for (const Case &c : cases) {
    SCOPED_TRACE(c.x);
    // Executed: the VM converts its argument.
    EXPECT_EQ(runIntFn("long f(double x) { return (long)x; }", "f", {c.x}),
              c.expected);

    // Folded: the conversion of an f64 constant, canonicalized to one
    // constant.
    ir::OwnedModule m;
    ir::FuncOp g = ir::FuncOp::create(m.get(), "g", {}, {ir::Type::i64()});
    ir::Builder b(&g.body());
    b.ret({b.cast(ir::OpKind::FPToSI, b.constFloat(c.x, ir::Type::f64()),
                  ir::Type::i64())});
    transforms::runCanonicalize(m.get());
    ir::Op *ret = g.body().terminator();
    ASSERT_NE(ret, nullptr);
    auto folded = ir::getConstInt(ret->operand(0));
    ASSERT_TRUE(folded.has_value()) << ir::printOp(m.op());
    EXPECT_EQ(*folded, c.expected);
  }
}

//===----------------------------------------------------------------------===//
// Arena recycling (scoped allocas)
//===----------------------------------------------------------------------===//

TEST(ArenaTest, ReleaseRecyclesDescriptorsAndBuffers) {
  vm::Arena arena;
  const vm::MemRef *d0 = nullptr;
  const char *b0 = nullptr;
  for (int iter = 0; iter < 100; ++iter) {
    vm::Arena::Mark m = arena.mark();
    vm::MemRef *d = arena.newDesc();
    char *buf = arena.allocate(256);
    if (iter == 0) {
      d0 = d;
      b0 = buf;
    } else {
      // Same slot position -> same storage, reused in place.
      EXPECT_EQ(d, d0);
      EXPECT_EQ(buf, b0);
    }
    arena.release(m);
    EXPECT_EQ(arena.liveDescs(), 0u);
    EXPECT_EQ(arena.liveBuffers(), 0u);
    // The pool never grows past the high-water mark of one iteration.
    EXPECT_EQ(arena.pooledDescs(), 1u);
    EXPECT_EQ(arena.pooledBuffers(), 1u);
  }
}

TEST(ArenaTest, RecycledDescriptorIsReset) {
  vm::Arena arena;
  vm::Arena::Mark m = arena.mark();
  vm::MemRef *d = arena.newDesc();
  d->rank = 3;
  d->sizes[0] = 42;
  d->data = reinterpret_cast<char *>(0x1);
  arena.release(m);
  vm::MemRef *d2 = arena.newDesc();
  ASSERT_EQ(d2, d);
  EXPECT_EQ(d2->rank, 0);
  EXPECT_EQ(d2->sizes[0], 0);
  EXPECT_EQ(d2->data, nullptr);
}

TEST(ArenaTest, RecycledBufferIsZeroed) {
  // allocate() contract: zeroed storage on every iteration, recycled or
  // fresh — iteration N must observe exactly what iteration 1 did.
  vm::Arena arena;
  vm::Arena::Mark m = arena.mark();
  char *buf = arena.allocate(64);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(buf[i], 0) << "fresh buffer byte " << i;
  std::memset(buf, 0xAB, 64);
  arena.release(m);
  char *again = arena.allocate(64);
  ASSERT_EQ(again, buf);
  for (int i = 0; i < 64; ++i)
    EXPECT_EQ(again[i], 0) << "recycled buffer byte " << i;
}

TEST(ArenaTest, BufferRegrowsInPlaceForLargerRequest) {
  vm::Arena arena;
  vm::Arena::Mark m = arena.mark();
  arena.allocate(16);
  arena.release(m);
  // A larger request on the same slot regrows that buffer; it does not
  // add a second pooled buffer.
  char *big = arena.allocate(4096);
  ASSERT_NE(big, nullptr);
  EXPECT_EQ(arena.pooledBuffers(), 1u);
  big[4095] = 1; // touch the end: capacity really grew
  arena.release(m);
  // A smaller request afterwards reuses the grown buffer as-is.
  char *again = arena.allocate(16);
  EXPECT_EQ(again, big);
  EXPECT_EQ(arena.pooledBuffers(), 1u);
}

// Scoped-alloca stress: a kernel whose loop body allocas a local array
// every iteration. With cursor recycling the arena performs zero
// allocations after the first iteration; before, every iteration freed
// and re-malloc'd the buffer. Correctness is asserted over a large trip
// count so a stale-descriptor or stale-buffer bug would surface.
TEST(ArenaTest, ScopedAllocaLoopStress) {
  const char *src = R"(
__global__ void k(float* out, int iters) {
  int t = threadIdx.x;
  float sum = 0.0f;
  for (int it = 0; it < iters; it++) {
    float tmp[8];
    for (int j = 0; j < 8; j++) {
      tmp[j] = 1.0f * j + t;
    }
    for (int j = 0; j < 8; j++) {
      sum += tmp[j];
    }
  }
  out[t] = sum;
}
void run(float* out, int iters) { k<<<1, 4>>>(out, iters); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  const int iters = 10000;
  std::vector<float> out(4, -1.0f);
  driver::Executor exec(cc.module.get(), 1);
  exec.run("run", {driver::Executor::bufferF32(out.data(), {4}),
                   int64_t(iters)});
  // Each iteration contributes sum_j (j + t) = 28 + 8t.
  for (int t = 0; t < 4; ++t)
    EXPECT_FLOAT_EQ(out[t], float(iters) * (28.0f + 8.0f * t)) << t;
}

//===----------------------------------------------------------------------===//
// Lockstep SIMT emulator edge cases
//===----------------------------------------------------------------------===//

namespace {
void runSimtKernel(const std::string &src,
                   std::vector<driver::Executor::Arg> args) {
  DiagnosticEngine diag;
  auto cc = driver::compileForSimt(src, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  exec.run("run", args);
}
} // namespace

TEST(SimtTest, ZeroBlockLaunchIsNoOp) {
  const char *src = R"(
__global__ void k(float* a) { a[threadIdx.x] = 1.0f; }
void run(float* a, int blocks) { k<<<blocks, 4>>>(a); }
)";
  std::vector<float> a(4, 0.0f);
  runSimtKernel(src, {driver::Executor::bufferF32(a.data(), {4}),
                      int64_t(0)});
  for (float v : a)
    EXPECT_FLOAT_EQ(v, 0.0f);
}

TEST(SimtTest, BarrierOrdersProducerConsumerAcrossThreads) {
  // Thread i produces a[i]; after the barrier thread i consumes
  // a[(i+1) % n]: the emulator must deliver every producer's value.
  const char *src = R"(
__global__ void k(float* a, float* b, int n) {
  int t = threadIdx.x;
  a[t] = 1.0f * t;
  __syncthreads();
  b[t] = a[(t + 1) % n];
}
void run(float* a, float* b, int n) { k<<<1, 16>>>(a, b, n); }
)";
  std::vector<float> a(16, -1.0f), b(16, -1.0f);
  runSimtKernel(src, {driver::Executor::bufferF32(a.data(), {16}),
                      driver::Executor::bufferF32(b.data(), {16}),
                      int64_t(16)});
  for (int t = 0; t < 16; ++t)
    EXPECT_FLOAT_EQ(b[t], static_cast<float>((t + 1) % 16));
}

TEST(SimtTest, PerThreadLocalArraysAreIndependent) {
  const char *src = R"(
__global__ void k(float* out) {
  int t = threadIdx.x;
  float scratch[4];
  for (int i = 0; i < 4; i++) {
    scratch[i] = 1.0f * t + i;
  }
  __syncthreads();
  float sum = 0.0f;
  for (int i = 0; i < 4; i++) {
    sum += scratch[i];
  }
  out[t] = sum;
}
void run(float* out) { k<<<1, 8>>>(out); }
)";
  std::vector<float> out(8, -1.0f);
  runSimtKernel(src, {driver::Executor::bufferF32(out.data(), {8})});
  for (int t = 0; t < 8; ++t)
    EXPECT_FLOAT_EQ(out[t], 4.0f * t + 6.0f) << t;
}

TEST(SimtTest, GridAndBlockIdsCoverLaunch) {
  const char *src = R"(
__global__ void k(int* hits, int n) {
  int i = blockIdx.x * blockDim.x + threadIdx.x;
  if (i < n) {
    hits[i] = hits[i] + 1;
  }
}
void run(int* hits, int n) { k<<<3, 8>>>(hits, n); }
)";
  std::vector<int32_t> hits(24, 0);
  runSimtKernel(src, {driver::Executor::bufferI32(hits.data(), {24}),
                      int64_t(24)});
  for (int i = 0; i < 24; ++i)
    EXPECT_EQ(hits[i], 1) << i;
}

// The same per-thread-local-array program must survive the full pipeline,
// where the local array is replicated into a block-level buffer by
// fission (alloca replication).
TEST(SimtTest, LocalArrayReplicationThroughPipeline) {
  const char *src = R"(
__global__ void k(float* out) {
  int t = threadIdx.x;
  float scratch[4];
  for (int i = 0; i < 4; i++) {
    scratch[i] = 1.0f * t + i;
  }
  __syncthreads();
  float sum = 0.0f;
  for (int i = 0; i < 4; i++) {
    sum += scratch[i];
  }
  out[t] = sum;
}
void run(float* out) { k<<<1, 8>>>(out); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, transforms::PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  std::vector<float> out(8, -1.0f);
  driver::Executor exec(cc.module.get(), 2);
  exec.run("run", {driver::Executor::bufferF32(out.data(), {8})});
  for (int t = 0; t < 8; ++t)
    EXPECT_FLOAT_EQ(out[t], 4.0f * t + 6.0f) << t;
}

//===----------------------------------------------------------------------===//
// omp.wsloop lowering: static chunks, the IV odometer, empty spaces
//===----------------------------------------------------------------------===//

namespace {

/// Bounds of a `dims`-deep iteration space: iv_i runs from lb[i] while
/// below ub[i], by step[i].
struct Space {
  std::vector<int64_t> lb, ub, step;
};

/// `run(buf, lb..., ub..., step...)`: one omp.wsloop inside omp.parallel
/// whose body increments buf[iv_0]...[iv_{dims-1}].
ir::OwnedModule wsloopCounterModule(unsigned dims) {
  std::ostringstream ivs, os;
  for (unsigned i = 0; i < dims; ++i)
    ivs << ", %" << 3 * dims + 1 + i;
  unsigned v = 4 * dims + 1; // first free value number
  os << "module {\n  func {sym_name = \"run\", res_types = []} {\n"
     << "    [%0: memref<";
  for (unsigned i = 0; i < dims; ++i)
    os << "?x";
  os << "i32>";
  for (unsigned i = 1; i <= 3 * dims; ++i)
    os << ", %" << i << ": index";
  os << "]:\n    omp.parallel {\n      omp.wsloop(";
  for (unsigned i = 1; i <= 3 * dims; ++i)
    os << (i > 1 ? ", %" : "%") << i;
  os << ") {dims = " << dims << "} {\n        [";
  for (unsigned i = 0; i < dims; ++i)
    os << (i ? ", %" : "%") << 3 * dims + 1 + i << ": index";
  os << "]:\n"
     << "        %" << v << " = memref.load(%0" << ivs.str() << ") : i32\n"
     << "        %" << v + 1 << " = const.int {value = 1} : i32\n"
     << "        %" << v + 2 << " = addi(%" << v << ", %" << v + 1
     << ") : i32\n"
     << "        memref.store(%" << v + 2 << ", %0" << ivs.str() << ")\n"
     << "        yield\n      }\n      yield\n    }\n    return\n  }\n}\n";
  DiagnosticEngine diag;
  auto m = ir::parseModule(os.str(), diag);
  EXPECT_TRUE(m.has_value()) << diag.str() << os.str();
  return std::move(*m);
}

/// Runs the counter module over a zeroed buffer of `sizes` at team size
/// `team`, with bounds checks on (an IV outside the buffer traps), and
/// returns the per-tuple visit counts in row-major order.
std::vector<int32_t> countVisits(const ir::OwnedModule &m, const Space &s,
                                 const std::vector<int64_t> &sizes,
                                 unsigned team) {
  driver::Executor exec(m.get(), team);
  exec.setNumThreads(team);
  std::vector<int32_t> counts(std::accumulate(
      sizes.begin(), sizes.end(), int64_t(1), std::multiplies<int64_t>()));
  std::vector<driver::Executor::Arg> args{
      driver::Executor::bufferI32(counts.data(), sizes)};
  for (const auto *bounds : {&s.lb, &s.ub, &s.step})
    for (int64_t b : *bounds)
      args.push_back(b);
  vm::CallResult r = exec.tryRun("run", args);
  EXPECT_TRUE(r.ok()) << r.error;
  return counts;
}

/// The same visit counts from plain C++ nested loops.
std::vector<int32_t> nestedLoopVisits(const Space &s,
                                      const std::vector<int64_t> &sizes) {
  std::vector<int32_t> counts(std::accumulate(
      sizes.begin(), sizes.end(), int64_t(1), std::multiplies<int64_t>()));
  std::function<void(size_t, int64_t)> visit = [&](size_t d, int64_t off) {
    if (d == s.lb.size()) {
      ++counts[off];
      return;
    }
    for (int64_t iv = s.lb[d]; iv < s.ub[d]; iv += s.step[d])
      visit(d + 1, off * sizes[d] + iv);
  };
  visit(0, 0);
  return counts;
}

} // namespace

TEST(WsLoopTest, EveryIterationVisitedOnceAtEveryTeamSize) {
  // Nonzero lower bounds, steps 1-3, and iteration counts that no team
  // size but 1 divides evenly, so chunks start and end mid-row and the
  // odometer carries from a delinearized start. The 3-iteration space
  // leaves members of the 4- and 5-thread teams without work.
  const Space spaces[] = {
      {{3}, {20}, {2}},                   // 9
      {{1}, {4}, {1}},                    // 3
      {{1, 2}, {8, 11}, {2, 3}},          // 4 x 3
      {{2, 1}, {9, 6}, {3, 1}},           // 3 x 5
      {{1, 0, 2}, {4, 7, 11}, {1, 3, 2}}, // 3 x 3 x 5
      {{0, 1, 1}, {2, 3, 8}, {1, 1, 3}},  // 2 x 2 x 3
  };
  for (const Space &s : spaces) {
    unsigned dims = static_cast<unsigned>(s.lb.size());
    ir::OwnedModule m = wsloopCounterModule(dims);
    std::vector<int64_t> sizes = s.ub;
    std::vector<int32_t> want = nestedLoopVisits(s, sizes);
    for (unsigned team = 1; team <= 5; ++team) {
      SCOPED_TRACE(std::to_string(dims) + "-D space, ub[0] " +
                   std::to_string(s.ub[0]) + ", team " +
                   std::to_string(team));
      EXPECT_EQ(countVisits(m, s, sizes, team), want);
    }
  }
}

TEST(WsLoopTest, NegativeExtentsInTwoDimensionsRunNothing) {
  // Both extents are -k; their product must not become k*k iterations.
  const int64_t k = 3;
  ir::OwnedModule m = wsloopCounterModule(2);
  Space s{{0, 0}, {-k, -k}, {1, 1}};
  for (unsigned team : {1u, 2u, 4u}) {
    SCOPED_TRACE("team " + std::to_string(team));
    std::vector<int32_t> counts = countVisits(m, s, {k, k}, team);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0), 0);
  }
}

TEST(WsLoopTest, NegativeGridInBothDimensionsLaunchesNoBlock) {
  // A dim3(n, n) grid with n = -1 launches nothing on the SIMT oracle;
  // the transpiled grid loop must agree.
  const char *src = R"(
__global__ void k(int* c) { if (threadIdx.x == 0) { c[blockIdx.x * 0] = 7; } }
void run(int* c, int n) { k<<<dim3(n, n), 1>>>(c); }
)";
  for (bool simt : {true, false}) {
    SCOPED_TRACE(simt ? "simt" : "full pipeline");
    DiagnosticEngine diag;
    auto cc = simt ? driver::compileForSimt(src, diag)
                   : driver::compile(src, transforms::PipelineOptions{}, diag);
    ASSERT_TRUE(cc.ok) << diag.str();
    std::vector<int32_t> c(1, 0);
    driver::Executor exec(cc.module.get(), 4);
    exec.run("run", {driver::Executor::bufferI32(c.data(), {1}), int64_t(-1)});
    EXPECT_EQ(c[0], 0);
  }
}

//===----------------------------------------------------------------------===//
// Bytecode shape: what the transpiled kernels execute per element
//===----------------------------------------------------------------------===//

namespace {

/// The Copies the lowering emits for structured control flow: a for
/// loop's IV and iter-arg initialization, its yields (through temps) and
/// results; a while's arguments and forwarded values; an if's results;
/// the wsloop odometer's lower-bound resets. A cast contributes none.
size_t structuralCopies(ir::Op *root) {
  size_t n = 0;
  root->walk([&](ir::Op *op) {
    switch (op->kind()) {
    case ir::OpKind::ScfFor:
      n += 1 + 3 * ir::ForOp(op).numIterArgs() + op->numResults();
      break;
    case ir::OpKind::ScfIf:
      n += op->numResults() * (ir::IfOp(op).hasElse() ? 2 : 1);
      break;
    case ir::OpKind::ScfWhile: {
      ir::WhileOp w(op);
      n += op->numOperands() +
           2 * (w.before().terminator()->numOperands() - 1) +
           w.after().terminator()->numOperands();
      break;
    }
    case ir::OpKind::OmpWsLoop:
      n += ir::ParallelOp(op).numDims() - 1;
      break;
    default:
      break;
    }
  });
  return n;
}

size_t countIr(ir::Op *root, std::initializer_list<ir::OpKind> kinds) {
  size_t n = 0;
  root->walk([&](ir::Op *op) {
    for (ir::OpKind k : kinds)
      n += op->kind() == k;
  });
  return n;
}

size_t countBc(const vm::BCModule &bc, vm::BC op) {
  size_t n = 0;
  for (const vm::BCFunction &fn : bc.fns)
    for (const vm::Instr &in : fn.instrs)
      n += in.op == op;
  return n;
}

void expectNoJumpToNext(const vm::BCModule &bc) {
  for (size_t f = 0; f < bc.fns.size(); ++f)
    for (size_t pc = 0; pc < bc.fns[f].instrs.size(); ++pc) {
      const vm::Instr &in = bc.fns[f].instrs[pc];
      EXPECT_FALSE(in.op == vm::BC::Jump &&
                   in.imm == static_cast<int64_t>(pc) + 1)
          << "fn #" << f << " pc " << pc << " jumps to the next instruction";
    }
}

/// Loop heads of `fn`: the targets of its backward jumps.
std::set<size_t> loopHeads(const vm::BCFunction &fn) {
  std::set<size_t> heads;
  for (size_t pc = 0; pc < fn.instrs.size(); ++pc)
    if (fn.instrs[pc].op == vm::BC::Jump &&
        fn.instrs[pc].imm <= static_cast<int64_t>(pc))
      heads.insert(static_cast<size_t>(fn.instrs[pc].imm));
  return heads;
}

driver::CompileResult compileFull(const char *src) {
  DiagnosticEngine diag;
  driver::CompileResult cc =
      driver::compile(src, transforms::PipelineOptions{}, diag);
  EXPECT_TRUE(cc.ok) << diag.str();
  return cc;
}

} // namespace

TEST(BytecodeShapeTest, MocCudaElementwiseKernelsLoopWithoutCastsOrDivisions) {
  driver::CompileResult cc = compileFull(moccuda::PolygeistKernels::source());
  ASSERT_TRUE(cc.ok);
  ir::Op *root = cc.module.get().op;
  vm::BCModule bc = vm::compileModule(cc.module.get());
  // Casts are register aliases: every Copy left is structural.
  ASSERT_GT(countIr(root, {ir::OpKind::IndexCast, ir::OpKind::ExtSI}), 4u);
  EXPECT_EQ(countBc(bc, vm::BC::Copy), structuralCopies(root));
  expectNoJumpToNext(bc);
  // The elementwise closures delinearize once per chunk: no division
  // between the wsloop head and its back-edges.
  for (const char *entry : {"run_relu", "run_add"}) {
    const vm::BCFunction *host = bc.lookup(entry);
    ASSERT_NE(host, nullptr) << entry;
    ASSERT_EQ(host->closures.size(), 1u) << entry;
    const vm::BCFunction &body = bc.fns[host->closures[0].fnIndex];
    std::set<size_t> heads = loopHeads(body);
    ASSERT_EQ(heads.size(), 1u) << entry;
    EXPECT_EQ(body.instrs[*heads.begin()].op, vm::BC::JumpIfGE) << entry;
    for (size_t pc = *heads.begin(); pc < body.instrs.size(); ++pc)
      EXPECT_TRUE(body.instrs[pc].op != vm::BC::DivSI &&
                  body.instrs[pc].op != vm::BC::RemSI)
          << entry << " pc " << pc << " divides inside the loop";
  }
}

TEST(BytecodeShapeTest, ScfForHeaderIsOneFusedBranch) {
  // After the full pipeline: an scf.for with an f32 iter arg nested in
  // the grid's omp.wsloop, with index casts of both IVs.
  const char *src = R"(
__global__ void rowsum(float* a, float* b, int m) {
  int i = blockIdx.x;
  float s = 0.0f;
  for (int j = 0; j < m; j++) {
    a[i * m + j] = a[i * m + j] * 2.0f;
    s += a[i * m + j];
  }
  b[i] = s;
}
void run(float* a, float* b, int n, int m) { rowsum<<<n, 1>>>(a, b, m); }
)";
  driver::CompileResult cc = compileFull(src);
  ASSERT_TRUE(cc.ok);
  ir::Op *root = cc.module.get().op;
  vm::BCModule bc = vm::compileModule(cc.module.get());
  size_t loops = countIr(root, {ir::OpKind::ScfFor, ir::OpKind::OmpWsLoop});
  ASSERT_EQ(countIr(root, {ir::OpKind::ScfFor}), 1u) << ir::printOp(root);
  EXPECT_EQ(countBc(bc, vm::BC::Copy), structuralCopies(root));
  expectNoJumpToNext(bc);
  // Every loop head is a single JumpIfGE, and the lowering adds no
  // compare of its own.
  size_t heads = 0;
  for (const vm::BCFunction &fn : bc.fns)
    for (size_t head : loopHeads(fn)) {
      EXPECT_EQ(fn.instrs[head].op, vm::BC::JumpIfGE) << "pc " << head;
      ++heads;
    }
  EXPECT_EQ(heads, loops);
  EXPECT_EQ(countBc(bc, vm::BC::CmpI), countIr(root, {ir::OpKind::CmpI}));

  // And it still computes the rows.
  const int n = 3, m = 5;
  std::vector<float> a(n * m), b(n, -1.0f);
  std::iota(a.begin(), a.end(), 0.0f);
  driver::Executor exec(cc.module.get(), 2);
  exec.run("run", {driver::Executor::bufferF32(a.data(), {n * m}),
                   driver::Executor::bufferF32(b.data(), {n}), int64_t(n),
                   int64_t(m)});
  for (int i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(b[i], 2.0f * (m * i * m + m * (m - 1) / 2.0f)) << i;
}

//===----------------------------------------------------------------------===//
// One team runtime for the process: concurrent callers, failing members,
// counters
//===----------------------------------------------------------------------===//

namespace {

/// Runs `fn` on another thread and fails the test binary, instead of
/// hanging it, when `fn` has not returned within 10 s.
void withWatchdog(const std::string &what, const std::function<void()> &fn) {
  auto run = std::async(std::launch::async, fn);
  if (run.wait_for(std::chrono::seconds(10)) != std::future_status::ready) {
    ADD_FAILURE() << what << " did not return within 10 s";
    std::fflush(stdout);
    std::_Exit(1); // the hung thread can be neither joined nor abandoned
  }
  run.get();
}

/// `run(buf, lb, ub, step)`: an omp.wsloop over [lb, ub) that stores 1
/// into buf[iv], then an omp.barrier, in one omp.parallel.
ir::OwnedModule storeThenBarrierModule() {
  const char *text = R"(module {
  func {sym_name = "run", res_types = []} {
    [%0: memref<?xi32>, %1: index, %2: index, %3: index]:
    omp.parallel {
      omp.wsloop(%1, %2, %3) {dims = 1} {
        [%4: index]:
        %5 = const.int {value = 1} : i32
        memref.store(%5, %0, %4)
        yield
      }
      omp.barrier
      yield
    }
    return
  }
}
)";
  DiagnosticEngine diag;
  auto m = ir::parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  return std::move(*m);
}

uint64_t counter(const char *name) {
  return metrics::MetricsRegistry::instance().counterValue(name);
}

/// The Rodinia CUDA source `id` through the full pipeline.
driver::CompileResult compileRodinia(const std::string &id) {
  const rodinia::Benchmark *b = rodinia::find(id);
  EXPECT_NE(b, nullptr) << id;
  DiagnosticEngine diag;
  driver::CompileResult cc =
      driver::compile(b->cudaSource, transforms::PipelineOptions{}, diag);
  EXPECT_TRUE(cc.ok) << id << ": " << diag.str();
  return cc;
}

/// Every buffer of `id`'s scale-1 workload after one call of `exec`.
std::pair<std::vector<float>, std::vector<int32_t>>
runRodinia(driver::Executor &exec, const std::string &id) {
  rodinia::Workload w = rodinia::find(id)->makeWorkload(1);
  vm::CallResult r = exec.tryRun("run", w.args());
  EXPECT_TRUE(r.ok()) << id << ": " << r.error;
  return {w.floatState(), w.intState()};
}

} // namespace

TEST(TeamRuntimeTest, TrapBeforeBarrierFailsTheRegion) {
  // The members whose chunks run past the 8-element buffer trap before
  // the barrier; the others must leave it, not wait for them.
  ir::OwnedModule m = storeThenBarrierModule();
  for (unsigned team : {2u, 4u}) {
    SCOPED_TRACE("team " + std::to_string(team));
    std::vector<int32_t> buf(8);
    driver::Executor exec(m.get(), team, /*boundsCheck=*/true);
    auto call = [&](int64_t ub) {
      vm::CallResult r;
      withWatchdog("team " + std::to_string(team) + " tryRun", [&] {
        r = exec.tryRun("run", {driver::Executor::bufferI32(buf.data(), {8}),
                                int64_t(0), ub, int64_t(1)});
      });
      return r;
    };
    vm::CallResult trapped = call(16);
    ASSERT_FALSE(trapped.ok());
    EXPECT_NE(trapped.error.find("out of bounds"), std::string::npos)
        << trapped.error;
    // The team is whole again for the next call.
    buf.assign(8, 0);
    vm::CallResult ok = call(8);
    EXPECT_TRUE(ok.ok()) << ok.error;
    EXPECT_EQ(buf, std::vector<int32_t>(8, 1));
  }
}

TEST(TeamRuntimeTest, FirstFailureIsRethrownAfterTheJoin) {
  ThreadPool pool(4);
  std::atomic<int> leftBarrier{0};
  try {
    pool.parallel([&](unsigned tid, Team &team) {
      if (tid == 2)
        throw std::runtime_error("member 2 failed");
      try {
        team.barrier();
      } catch (...) {
        leftBarrier.fetch_add(1);
        throw;
      }
    });
    ADD_FAILURE() << "parallel() returned normally";
  } catch (const std::runtime_error &e) {
    EXPECT_STREQ(e.what(), "member 2 failed");
  }
  EXPECT_EQ(leftBarrier.load(), 3);
  EXPECT_FALSE(ThreadPool::insideParallel());
}

TEST(TeamRuntimeTest, ConcurrentCallersGetTheTeamsTheyAskFor) {
  // Teams of 4 and 3 at once: seven active members on a 4-vCPU host.
  const struct {
    const char *id;
    unsigned team;
  } callers[] = {{"srad_v1", 4}, {"hotspot", 3}};
  struct Caller {
    driver::CompileResult cc;
    std::unique_ptr<driver::Executor> exec;
    std::pair<std::vector<float>, std::vector<int32_t>> alone;
  };
  std::vector<Caller> cs(2);
  for (int i = 0; i < 2; ++i) {
    cs[i].cc = compileRodinia(callers[i].id);
    ASSERT_TRUE(cs[i].cc.ok);
    cs[i].exec = std::make_unique<driver::Executor>(
        cs[i].cc.module.get(), callers[i].team, /*boundsCheck=*/true);
    cs[i].alone = runRodinia(*cs[i].exec, callers[i].id);
  }
  std::atomic<int> wrongSize{0}, wrongMembers{0}, wrongOutput{0};
  auto caller = [&](int i) {
    ThreadPool handle(callers[i].team);
    for (int round = 0; round < 8; ++round) {
      if (runRodinia(*cs[i].exec, callers[i].id) != cs[i].alone)
        wrongOutput.fetch_add(1);
      std::atomic<uint32_t> tids{0};
      handle.parallel([&](unsigned tid, Team &team) {
        if (team.size() != callers[i].team)
          wrongSize.fetch_add(1);
        tids.fetch_or(1u << tid);
        team.barrier();
      });
      if (tids.load() != (1u << callers[i].team) - 1)
        wrongMembers.fetch_add(1);
    }
  };
  std::thread other(caller, 1);
  caller(0);
  other.join();
  EXPECT_EQ(wrongSize.load(), 0);
  EXPECT_EQ(wrongMembers.load(), 0);
  EXPECT_EQ(wrongOutput.load(), 0);
}

TEST(TeamRuntimeTest, SessionCompilesBesideAnExecutor) {
  ir::OwnedModule m = wsloopCounterModule(1);
  std::atomic<bool> compiling{true};
  std::atomic<int> calls{0}, wrong{0};
  std::thread executor([&] {
    driver::Executor exec(m.get(), 4);
    do {
      std::vector<int32_t> counts(64);
      vm::CallResult r =
          exec.tryRun("run", {driver::Executor::bufferI32(counts.data(), {64}),
                              int64_t(0), int64_t(64), int64_t(1)});
      if (!r.ok() || counts != std::vector<int32_t>(64, 1))
        wrong.fetch_add(1);
      calls.fetch_add(1);
    } while (compiling.load());
  });
  driver::SessionOptions so;
  so.threads = 4;
  driver::CompilerSession session(so);
  std::vector<driver::CompileJob *> jobs;
  for (const char *id : {"bfs", "hotspot", "nw", "srad_v1", "pathfinder",
                         "backprop_layerforward"})
    jobs.push_back(&session.addSource(id, rodinia::find(id)->cudaSource));
  session.compileAll();
  compiling.store(false);
  executor.join();
  for (driver::CompileJob *job : jobs)
    EXPECT_TRUE(job->ok()) << job->name() << ": " << job->diagnostics().str();
  EXPECT_GT(calls.load(), 0);
  EXPECT_EQ(wrong.load(), 0);
}

TEST(TeamRuntimeTest, ShortRegionsWithBarriersOverManyHandles) {
  std::vector<std::unique_ptr<ThreadPool>> handles;
  for (int i = 0; i < 32; ++i)
    handles.push_back(std::make_unique<ThreadPool>(4));
  std::atomic<int> wrong{0};
  for (int i = 0; i < 10000; ++i) {
    ThreadPool &pool = *handles[i % 32];
    unsigned size = 1 + i % 4;
    pool.setNumThreads(size);
    std::atomic<unsigned> phase{0};
    pool.parallel([&](unsigned, Team &team) {
      if (team.size() != size)
        wrong.fetch_add(1);
      phase.fetch_add(1);
      team.barrier();
      if (phase.load() != size)
        wrong.fetch_add(1);
      team.barrier();
      phase.fetch_add(1);
    });
    if (phase.load() != 2 * size)
      wrong.fetch_add(1);
  }
  EXPECT_EQ(wrong.load(), 0);
}

TEST(TeamRuntimeTest, CountersAddACallsOwnRegionsAndBarriers) {
  // srad_v1's CUDA call at scale 12 makes 48 regions and 12 barrier
  // episodes; the counts do not depend on the team size.
  driver::CompileResult cc = compileRodinia("srad_v1");
  ASSERT_TRUE(cc.ok);
  for (unsigned team : {1u, 4u}) {
    SCOPED_TRACE("team " + std::to_string(team));
    driver::Executor exec(cc.module.get(), team, /*boundsCheck=*/false);
    rodinia::Workload w = rodinia::find("srad_v1")->makeWorkload(12);
    uint64_t regions = counter("runtime.regions");
    uint64_t barriers = counter("runtime.barriers");
    ASSERT_TRUE(exec.tryRun("run", w.args()).ok());
    EXPECT_EQ(counter("runtime.regions") - regions, 48u);
    EXPECT_EQ(counter("runtime.barriers") - barriers, 12u);
  }
}
