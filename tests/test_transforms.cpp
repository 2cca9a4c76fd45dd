// Unit tests for individual passes and analyses, including the paper's
// worked examples: Fig. 9 barrier elimination and store forwarding,
// Fig. 6 min-cut cache choice, §IV-C parallel LICM legality, OpenMP
// region fusion/hoisting (Figs. 10/11), and frontend diagnostics.
#include "analysis/barrier.h"
#include "driver/compiler.h"
#include "ir/intmath.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "moccuda/resnet.h"
#include "rodinia/rodinia.h"
#include "transforms/mincut.h"
#include "transforms/passes.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <optional>
#include <regex>

using namespace paralift;
using namespace paralift::ir;
using namespace paralift::transforms;

namespace {

/// Compiles source through the frontend + inliner only.
OwnedModule frontendIR(const std::string &src) {
  DiagnosticEngine diag;
  auto cc = driver::compileForSimt(src, diag);
  EXPECT_TRUE(cc.ok) << diag.str();
  return std::move(cc.module);
}

int countOps(Op *root, OpKind kind) {
  int n = 0;
  root->walk([&](Op *op) {
    if (op->kind() == kind)
      ++n;
  });
  return n;
}

/// Runs `run(a, out, 2)` over 64 floats through the pipeline `opts`
/// builds and through the lockstep SIMT oracle; the outputs must be
/// bit-identical.
void expectMatchesSimtOracle(const char *src,
                             const PipelineOptions &opts = {}) {
  constexpr int kN = 64;
  auto runWith = [&](driver::CompileResult &cc) {
    std::vector<float> a(kN), out(kN, 0.0f);
    for (int i = 0; i < kN; ++i)
      a[i] = 0.25f * float(i % 7) - 0.5f;
    driver::Executor exec(cc.module.get(), 2);
    exec.run("run", {driver::Executor::bufferF32(a.data(), {kN}),
                     driver::Executor::bufferF32(out.data(), {kN}),
                     int64_t(2)});
    return out;
  };
  DiagnosticEngine diag;
  auto oracle = driver::compileForSimt(src, diag);
  ASSERT_TRUE(oracle.ok) << diag.str();
  auto cc = driver::compile(src, opts, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  EXPECT_EQ(runWith(cc), runWith(oracle)) << ir::printOp(cc.module.op());
}

} // namespace

//===----------------------------------------------------------------------===//
// Barrier elimination: the Fig. 9 backprop cases
//===----------------------------------------------------------------------===//

TEST(BarrierElimTest, Fig9UnnecessaryBarriersRemoved) {
  // Distilled Fig. 9: barrier #1 separates a write to `node` from a write
  // to `weights` (different non-aliasing buffers) -> removable. The
  // barrier between the weights store and the node read is required.
  const char *src = R"(
__global__ void k(float* input, float* hidden, float* node, float* weights) {
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  if (tx == 0) {
    node[ty] = input[ty];
  }
  __syncthreads();
  weights[ty * 16 + tx] = hidden[ty * 16 + tx];
  __syncthreads();
  weights[ty * 16 + tx] = weights[ty * 16 + tx] * node[ty];
}
void run(float* input, float* hidden, float* node, float* weights) {
  k<<<1, dim3(16, 16)>>>(input, hidden, node, weights);
}
)";
  OwnedModule m = frontendIR(src);
  ASSERT_EQ(countOps(m.op(), OpKind::Barrier), 2);
  runMem2Reg(m.get());
  runBarrierElim(m.get());
  // Barrier #1 is removable (write node / write weights don't conflict;
  // the weights read/write pair around barrier #2 is same-index
  // thread-private). Barrier #2 protects node (written by thread tx==0,
  // read by every thread in the row) -> must stay.
  EXPECT_EQ(countOps(m.op(), OpKind::Barrier), 1);
}

TEST(BarrierElimTest, RequiredBarrierIsKept) {
  // Write A[tx], read A[tx+1]: classic neighbour exchange; the barrier is
  // semantically required and must survive.
  const char *src = R"(
__global__ void k(float* a, float* b) {
  int tx = threadIdx.x;
  a[tx] = 1.0f * tx;
  __syncthreads();
  if (tx < 31) {
    b[tx] = a[tx + 1];
  }
}
void run(float* a, float* b) { k<<<1, 32>>>(a, b); }
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runBarrierElim(m.get());
  EXPECT_EQ(countOps(m.op(), OpKind::Barrier), 1);
}

TEST(BarrierElimTest, EffectFreeBarrierRemoved) {
  const char *src = R"(
__global__ void k(float* a) {
  int tx = threadIdx.x;
  __syncthreads();
  a[tx] = 1.0f;
}
void run(float* a) { k<<<1, 32>>>(a); }
)";
  OwnedModule m = frontendIR(src);
  runBarrierElim(m.get());
  EXPECT_EQ(countOps(m.op(), OpKind::Barrier), 0);
}

//===----------------------------------------------------------------------===//
// Store-to-load forwarding across barriers (§IV-B)
//===----------------------------------------------------------------------===//

TEST(StoreForwardTest, ForwardsThreadPrivateAcrossBarrier) {
  // Fig. 9 "Unnecessary Store #1 / Load #1": store weights[ty][tx],
  // barrier, load weights[ty][tx] -> forwarded thanks to the hole; the
  // first store then dies once overwritten.
  const char *src = R"(
__global__ void k(float* hidden, float* out) {
  __shared__ float weights[16][16];
  int tx = threadIdx.x;
  int ty = threadIdx.y;
  weights[ty][tx] = hidden[ty * 16 + tx];
  __syncthreads();
  weights[ty][tx] = weights[ty][tx] * 2.0f;
  out[ty * 16 + tx] = weights[ty][tx];
}
void run(float* hidden, float* out) {
  k<<<1, dim3(16, 16)>>>(hidden, out);
}
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCSE(m.get()); // unify per-use index cast chains
  int loadsBefore = countOps(m.op(), OpKind::Load);
  runStoreForward(m.get());
  int loadsAfter = countOps(m.op(), OpKind::Load);
  // The weights reload after the barrier and the final reload both
  // forward: at least two loads disappear.
  EXPECT_LE(loadsAfter, loadsBefore - 2);
  EXPECT_TRUE(verifyOk(m.op()));
}

TEST(StoreForwardTest, DoesNotForwardAcrossConflictingStore) {
  const char *src = R"(
void f(float* a, float* b, int i, int j) {
  a[i] = 1.0f;
  a[j] = 2.0f;
  b[0] = a[i];
}
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  int loadsBefore = countOps(m.op(), OpKind::Load);
  runStoreForward(m.get());
  // a[j] may alias a[i]: the load must stay.
  EXPECT_EQ(countOps(m.op(), OpKind::Load), loadsBefore);
}

//===----------------------------------------------------------------------===//
// Min-cut live-value planning (Fig. 6)
//===----------------------------------------------------------------------===//

namespace {
/// Builds the Fig. 6 situation: two loads x,y feeding three pure values
/// a,b,c that are live across the split.
struct Fig6 {
  OwnedModule module;
  Value a, b, c;
  Fig6() {
    ModuleOp m = module.get();
    FuncOp fn = FuncOp::create(
        m, "f", {Type::memref(TypeKind::F32, {Type::kDynamic})}, {});
    Builder bld(&fn.body());
    Value lb = bld.constIndex(0), ub = bld.constIndex(10),
          one = bld.constIndex(1);
    ParallelOp par =
        ParallelOp::create(bld, OpKind::ScfParallel, {lb}, {ub}, {one});
    par.op->attrs().set("gpu.block", true);
    Builder body(&par.body());
    Value x = body.load(fn.arg(0), {par.iv(0)});
    Value y = body.load(fn.arg(0), {par.iv(0)});
    a = body.mulf(x, x);
    b = body.mulf(y, y);
    c = body.subf(x, y);
    body.yield({});
    bld.ret({});
  }
};
} // namespace

TEST(MinCutTest, Fig6PrefersTwoLoadsOverThreeValues) {
  Fig6 f;
  SplitPlan plan = planSplit({f.a, f.b, f.c}, /*useMinCut=*/true);
  // Min cut: cache {x, y} (2 floats) and recompute a, b, c.
  EXPECT_EQ(plan.cached.size(), 2u);
  EXPECT_EQ(plan.recompute.size(), 3u);
}

TEST(MinCutTest, NaiveCachesAllLiveValues) {
  Fig6 f;
  SplitPlan plan = planSplit({f.a, f.b, f.c}, /*useMinCut=*/false);
  EXPECT_EQ(plan.cached.size(), 3u);
  EXPECT_TRUE(plan.recompute.empty());
}

TEST(MinCutTest, MinCutNeverWorseThanNaive) {
  Fig6 f;
  SplitPlan mincut = planSplit({f.a, f.b, f.c}, true);
  SplitPlan naive = planSplit({f.a, f.b, f.c}, false);
  EXPECT_LE(mincut.cached.size(), naive.cached.size());
}

TEST(MinCutTest, EmptyLiveOut) {
  SplitPlan plan = planSplit({}, true);
  EXPECT_TRUE(plan.cached.empty());
  EXPECT_TRUE(plan.recompute.empty());
}

TEST(MinCutTest, UniformConditionOfALaterIfIsNotCachedPerThread) {
  // CSE gives both `if (u > 1)` one condition, computed before the first
  // if, and a barrier separates it from the second. Splitting there must
  // not cache the condition per thread (the naive split caches every
  // live value), or the second if no longer has a uniform condition to
  // interchange on.
  const char *src = R"(
__global__ void k(float* a, float* out, int u) {
  __shared__ float s[16];
  int tx = threadIdx.x;
  int gid = blockIdx.x * blockDim.x + threadIdx.x;
  s[tx] = a[gid];
  __syncthreads();
  if (u > 1) {
    out[gid] = s[(tx + 1) % 16];
    __syncthreads();
    s[tx] = out[gid] * 0.5f;
    __syncthreads();
  }
  out[gid] = out[gid] + s[(tx + 3) % 16];
  __syncthreads();
  if (u > 1) {
    out[gid] = out[gid] + s[(tx + 5) % 16];
    __syncthreads();
    s[tx] = a[gid];
    __syncthreads();
  }
  out[gid] = out[gid] + s[(tx + 7) % 16];
}
void run(float* a, float* out, int u) { k<<<4, 16>>>(a, out, u); }
)";
  PipelineOptions naive;
  naive.minCut = false;
  expectMatchesSimtOracle(src, naive);
  expectMatchesSimtOracle(src, PipelineOptions::optDisabled());
  expectMatchesSimtOracle(src);
}

//===----------------------------------------------------------------------===//
// Parallel LICM (§IV-C): only *prior* conflicts matter
//===----------------------------------------------------------------------===//

TEST(LicmTest, HoistsReadDespiteLaterWrite) {
  // The read of in[0] conflicts with the *later* store to in — legal to
  // hoist under the lock-step rule (the paper's key insight); a serial
  // loop could not do this.
  const char *src = R"(
__global__ void k(float* in, float* out, int n) {
  int tid = blockIdx.x * 32 + threadIdx.x;
  float first = in[0];
  if (tid < n) {
    in[tid] = first + 1.0f;
  }
}
void run(float* in, float* out, int n) {
  k<<<1, 32>>>(in, out, n);
}
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  runLICM(m.get());
  // The load of in[0] must now sit outside every scf.parallel.
  bool loadInsideParallel = false;
  m.op()->walk([&](Op *op) {
    if (op->kind() == OpKind::Load &&
        getEnclosing(op, OpKind::ScfParallel))
      loadInsideParallel = true;
  });
  EXPECT_FALSE(loadInsideParallel)
      << ir::printOp(m.op());
}

TEST(LicmTest, DoesNotHoistReadAfterPriorWrite) {
  const char *src = R"(
__global__ void k(float* in, int n) {
  int tid = blockIdx.x * 32 + threadIdx.x;
  if (tid < n) {
    in[tid] = 2.0f;
  }
  float first = in[0];
  if (tid < n) {
    in[tid] = first + in[tid];
  }
}
void run(float* in, int n) { k<<<1, 32>>>(in, n); }
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  runLICM(m.get());
  // in[0] is written by a *prior* op in the body: not hoistable.
  int loadsInside = 0;
  m.op()->walk([&](Op *op) {
    if (op->kind() == OpKind::Load && getEnclosing(op, OpKind::ScfParallel))
      ++loadsInside;
  });
  EXPECT_GT(loadsInside, 0);
}

//===----------------------------------------------------------------------===//
// Canonicalize / CSE / unroll
//===----------------------------------------------------------------------===//

TEST(CanonicalizeTest, FoldsConstantArithAndControlFlow) {
  const char *src = R"(
int f() {
  int x = 3 * 4 + 2;
  if (x > 10) {
    x = x - 1;
  }
  return x;
}
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  // Everything folds to `return 13`.
  EXPECT_EQ(countOps(m.op(), OpKind::ScfIf), 0);
  EXPECT_EQ(countOps(m.op(), OpKind::AddI), 0);
  DiagnosticEngine diag;
  driver::Executor exec(m.get(), 1);
  auto r = exec.run("f", {});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].i, 13);
}

TEST(CanonicalizeTest, FoldsInt64MinOverMinusOneWithoutTrapping) {
  // y is INT64_MIN; the folder divides it by -1 with the VM's semantics
  // (ir/intmath.h: the wrapped quotient, INT64_MIN) instead of trapping.
  const char *src = R"(
long f(long a) {
  long x = -2147483647 - 1;
  long y = x * 65536 * 65536;
  long z = y / -1;
  return z + a;
}
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  EXPECT_EQ(countOps(m.op(), OpKind::DivSI), 0) << printOp(m.op());
  EXPECT_EQ(countOps(m.op(), OpKind::MulI), 0);
  driver::Executor exec(m.get(), 1);
  auto r = exec.run("f", {int64_t(5)});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].i, INT64_MIN + 5);
}

TEST(CanonicalizeTest, FoldsNaNAndOutOfRangeFloatToIntLikeTheVM) {
  // A float-to-int conversion of NaN, or of a value outside int64_t,
  // folds to INT64_MIN (ir/intmath.h): the value the VM computes from
  // the same conversion at run time. `int c = 1.0e30f` is INT64_MIN cut
  // to i32, 0.
  const char *src = R"(
long fnan() { double z = 0.0; return (long)(z / z); }
long fbig() { return (long)1.0e30; }
long fsmall() { return (long)-1.0e30; }
int fint() { int c = 1.0e30f; return c; }
long run(double x) { return (long)x; }
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  // Only run's conversion of its argument is left.
  EXPECT_EQ(countOps(m.op(), OpKind::FPToSI), 1) << printOp(m.op());
  driver::Executor exec(m.get(), 1);
  for (const char *fn : {"fnan", "fbig", "fsmall"}) {
    auto r = exec.run(fn, {});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].i, INT64_MIN) << fn;
  }
  auto c = exec.run("fint", {});
  ASSERT_EQ(c.size(), 1u);
  EXPECT_EQ(c[0].i, 0);
  for (double x : {std::nan(""), 1e30, -1e30}) {
    auto r = exec.run("run", {x});
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].i, INT64_MIN) << x;
  }
}

TEST(CanonicalizeTest, FoldsNegatedF32ConstantLikeTheVM) {
  // The frontend keeps an f32 literal's decimal value, and the VM passes
  // it through a negation unrounded, so the fold of `-c` keeps it too:
  // rounding it to float would compute `a * -c` differently from the
  // unfolded program, and from the SIMT oracle.
  const char *src = R"(
__global__ void k(float* a, float* out, int u) {
  int gid = blockIdx.x * blockDim.x + threadIdx.x;
  out[gid] = a[gid] * -0.3f;
}
void run(float* a, float* out, int u) { k<<<4, 16>>>(a, out, u); }
)";
  OwnedModule m = frontendIR(src);
  runCanonicalize(m.get());
  EXPECT_EQ(countOps(m.op(), OpKind::NegF), 0);
  EXPECT_NE(printOp(m.op()).find("{value = -0.3} : f32"), std::string::npos)
      << printOp(m.op());
  expectMatchesSimtOracle(src);
}

namespace {

/// Runs CSE over a function storing the constants `a` and `b` of scalar
/// type `type` to two slots; returns how many const.float ops are left.
int constantsLeftByCSE(const std::string &type, const std::string &a,
                       const std::string &b) {
  std::string text = R"(module {
  func {sym_name = "f", res_types = []} {
    [%0: memref<?x)" + type + R"(>]:
    %1 = const.int {value = 0} : index
    %2 = const.int {value = 1} : index
    %3 = const.float {value = )" + a + "} : " + type + R"(
    %4 = const.float {value = )" + b + "} : " + type + R"(
    memref.store(%3, %0, %1)
    memref.store(%4, %0, %2)
    return
  }
}
)";
  DiagnosticEngine diag;
  auto m = parseModule(text, diag);
  EXPECT_TRUE(m) << diag.str();
  if (!m)
    return -1;
  runCSE(m->get());
  EXPECT_TRUE(verifyOk(m->op()));
  return countOps(m->op(), OpKind::ConstFloat);
}

} // namespace

TEST(CSETest, KeepsFloatConstantsThatDifferPastSixDigits) {
  // Pairs that agree to six significant digits are distinct constants.
  EXPECT_EQ(constantsLeftByCSE("f32", "1.0000001", "1.0000002"), 2);
  EXPECT_EQ(constantsLeftByCSE("f64", "0.1234567", "0.12345671"), 2);
  // Equal constants still merge.
  EXPECT_EQ(constantsLeftByCSE("f32", "1.0000001", "1.0000001"), 1);
}

TEST(CSETest, KeepsPositiveAndNegativeZeroApart) {
  // 0.0 == -0.0 as doubles, but they are different constants (1/x tells
  // them apart), so equality compares bit patterns.
  EXPECT_EQ(constantsLeftByCSE("f64", "0.0", "-0.0"), 2);
  EXPECT_EQ(constantsLeftByCSE("f32", "-0.0", "-0.0"), 1);
}

TEST(CSETest, ConstantPairKernelMatchesSimtOracleBitForBit) {
  // Through the whole pipeline, each slot gets its own constant, as the
  // SIMT oracle computes.
  const char *src = R"(
__global__ void k(float* a) { a[0] = 1.0000001f; a[1] = 1.0000002f; }
void run(float* a) { k<<<1, 1>>>(a); }
)";
  auto runWith = [](driver::CompileResult &cc) {
    std::vector<float> out(2, 0.0f);
    driver::Executor exec(cc.module.get(), 1);
    exec.run("run", {driver::Executor::bufferF32(out.data(), {2})});
    return out;
  };
  DiagnosticEngine diag;
  auto oracle = driver::compileForSimt(src, diag);
  ASSERT_TRUE(oracle.ok) << diag.str();
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  std::vector<float> got = runWith(cc);
  EXPECT_EQ(got, runWith(oracle)) << ir::printOp(cc.module.op());
  EXPECT_EQ(got, (std::vector<float>{1.00000012f, 1.00000024f}));
}

namespace {

/// `f(a)` running `body` (IR text over `%0 = a` and the IV `%4`) in an
/// scf.for with the given constant bounds.
OwnedModule constantBoundsLoop(int64_t lb, int64_t ub, int64_t step,
                               const std::string &body = R"(
      %5 = const.int {value = 0} : index
      %6 = const.float {value = 1.0} : f32
      memref.store(%6, %0, %5))") {
  std::string text = R"(module {
  func {sym_name = "f", res_types = []} {
    [%0: memref<?xf32>]:
    %1 = const.int {value = )" + std::to_string(lb) + R"(} : index
    %2 = const.int {value = )" + std::to_string(ub) + R"(} : index
    %3 = const.int {value = )" + std::to_string(step) + R"(} : index
    scf.for(%1, %2, %3) {
      [%4: index]:)" + body + R"(
      yield
    }
    return
  }
}
)";
  DiagnosticEngine diag;
  auto m = parseModule(text, diag);
  EXPECT_TRUE(m) << diag.str();
  return std::move(*m);
}

} // namespace

TEST(CanonicalizeTest, TripCountNearInt64MaxDoesNotOverflow) {
  // lb + step overflows int64_t. The VM's IV wraps past ub after the
  // first trip and the loop goes on, so the trip count is unknown and the
  // single-trip fold must not fire.
  OwnedModule m = constantBoundsLoop(INT64_MAX - 1, INT64_MAX, 5);
  runCanonicalize(m.get());
  EXPECT_EQ(countOps(m.op(), OpKind::ScfFor), 1) << printOp(m.op());
  EXPECT_EQ(intmath::tripCount(INT64_MAX - 1, INT64_MAX, 5), std::nullopt);
  EXPECT_EQ(intmath::tripCount(INT64_MAX - 5, INT64_MAX, 5), 1);
  EXPECT_EQ(intmath::tripCount(3, 3, 0), 0);
  EXPECT_EQ(intmath::tripCount(0, 3, 0), std::nullopt);
}

TEST(UnrollTest, TripCountAcrossInt64RangeDoesNotOverflow) {
  // ub - lb overflows int64_t: the trip count is unknown, so the loop is
  // not unrolled.
  OwnedModule m = constantBoundsLoop(-INT64_MAX, INT64_MAX, INT64_MAX);
  runUnroll(m.get(), 8);
  EXPECT_EQ(countOps(m.op(), OpKind::ScfFor), 1) << printOp(m.op());
  EXPECT_EQ(intmath::tripCount(-INT64_MAX, INT64_MAX, INT64_MAX),
            std::nullopt);
}

TEST(UnrollTest, FullyUnrollsConstantTripLoop) {
  const char *src = R"(
void f(float* a) {
  for (int i = 0; i < 4; i++) {
    a[i] = 1.0f * i;
  }
}
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  runUnroll(m.get(), 8);
  EXPECT_EQ(countOps(m.op(), OpKind::ScfFor), 0);
  EXPECT_EQ(countOps(m.op(), OpKind::Store), 4);
  EXPECT_TRUE(verifyOk(m.op()));
}

TEST(UnrollTest, LeavesLargeLoopsAlone) {
  const char *src = R"(
void f(float* a) {
  for (int i = 0; i < 1000; i++) {
    a[i] = 0.0f;
  }
}
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  runUnroll(m.get(), 8);
  EXPECT_EQ(countOps(m.op(), OpKind::ScfFor), 1);
}

//===----------------------------------------------------------------------===//
// OpenMP lowering (§IV-D): fusion, hoisting, collapse
//===----------------------------------------------------------------------===//

TEST(OmpLowerTest, FusesAdjacentRegionsWithBarrier) {
  // Two consecutive kernel launches produce adjacent parallel regions;
  // fusion merges them into one omp.parallel with an omp.barrier between
  // the worksharing loops (Fig. 10), paying thread startup once.
  const char *src = R"(
__global__ void k1(float* a, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) {
    a[i] = 1.0f;
  }
}
__global__ void k2(float* a, float* b, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) {
    b[i] = a[n - 1 - i];
  }
}
void run(float* a, float* b, int n) {
  k1<<<2, 64>>>(a, n);
  k2<<<2, 64>>>(a, b, n);
}
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpParallel), 1)
      << "the two launches should share one parallel region:\n"
      << ir::printOp(cc.module.op());
  EXPECT_GE(countOps(cc.module.op(), OpKind::OmpBarrier), 1);
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpWsLoop), 2);
  // Correctness of the fused form.
  int n = 100;
  std::vector<float> a(128, 0.0f), b(128, 0.0f);
  driver::Executor exec(cc.module.get(), 2);
  exec.run("run", {driver::Executor::bufferF32(a.data(), {128}),
                   driver::Executor::bufferF32(b.data(), {128}),
                   int64_t(n)});
  for (int i = 0; i < n; ++i)
    EXPECT_FLOAT_EQ(b[i], 1.0f) << i;
}

TEST(OmpLowerTest, CollapsesGridAndBlockWithoutSharedMem) {
  const char *src = R"(
__global__ void k(float* a, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) {
    a[i] = 2.0f;
  }
}
void run(float* a, int n) { k<<<4, 64>>>(a, n); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  // Grid and block loops collapse into a single 2-D worksharing loop.
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpWsLoop), 1);
  EXPECT_EQ(countOps(cc.module.op(), OpKind::ScfFor), 0);
}

TEST(OmpLowerTest, HoistsRegionOutOfSerialLoop) {
  // A kernel launched inside a host loop: region hoisting moves the
  // thread team outside the loop (Fig. 11).
  const char *src = R"(
__global__ void k(float* a, int n) {
  int i = blockIdx.x * 64 + threadIdx.x;
  if (i < n) {
    a[i] = a[i] + 1.0f;
  }
}
void run(float* a, int n, int iters) {
  for (int t = 0; t < iters; t++) {
    k<<<2, 64>>>(a, n);
  }
}
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  // The omp.parallel must contain the scf.for, not vice versa.
  bool parallelInsideFor = false;
  cc.module.op()->walk([&](Op *op) {
    if (op->kind() == OpKind::OmpParallel &&
        getEnclosing(op, OpKind::ScfFor))
      parallelInsideFor = true;
  });
  EXPECT_FALSE(parallelInsideFor) << ir::printOp(cc.module.op());
  // Correctness: iterations stay ordered via the trailing omp.barrier.
  std::vector<float> a(128, 0.0f);
  driver::Executor exec(cc.module.get(), 2);
  exec.run("run", {driver::Executor::bufferF32(a.data(), {128}),
                   int64_t(128), int64_t(5)});
  for (int i = 0; i < 128; ++i)
    EXPECT_FLOAT_EQ(a[i], 5.0f);
}

namespace {

/// Two launches in a host loop with `between` on the host between them:
/// k1 adds 1 to a[i] and thread 0 of block b writes part[b]; k2 writes
/// out[i] = a[i] + x, where `between` defines x, and then runs `k2Tail`.
std::string twoLaunchProgram(const std::string &between,
                             const std::string &after = "",
                             const std::string &k2Tail = "") {
  return R"(
__global__ void k1(float* a, float* part) {
  int i = blockIdx.x * 16 + threadIdx.x;
  a[i] = a[i] + 1.0f;
  if (threadIdx.x == 0) {
    part[blockIdx.x] = a[i] * 2.0f;
  }
}
__global__ void k2(float* a, float* out, float* part, float x) {
  int i = blockIdx.x * 16 + threadIdx.x;
  out[i] = a[i] + x;
)" + k2Tail + R"(
}
void run(float* a, float* out, int iters) {
  float part[4];
  for (int t = 0; t < iters; t++) {
    k1<<<4, 16>>>(a, part);
)" + between + R"(
    k2<<<4, 16>>>(a, out, part, x);
)" + after + R"(
  }
}
)";
}

/// A reduction over part[] on the host, into x.
const char *kPartSum = R"(
    float x = 0.0f;
    for (int b = 0; b < iters + 2; b++) {
      x = x + part[b];
    }
)";

int countOmpParallelInsideFor(Op *root) {
  int n = 0;
  root->walk([&](Op *op) {
    if (op->kind() == OpKind::OmpParallel && getEnclosing(op, OpKind::ScfFor))
      ++n;
  });
  return n;
}

} // namespace

TEST(OmpLowerTest, FusesAcrossReadOnlyReduction) {
  // The reduction over part[] between the launches only reads memory, so
  // the two regions fuse around it (every thread runs it after a barrier)
  // and the fused region is hoisted out of the host loop.
  std::string src = twoLaunchProgram(kPartSum);
  DiagnosticEngine diag;
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpParallel), 1)
      << printOp(cc.module.op());
  EXPECT_EQ(countOmpParallelInsideFor(cc.module.op()), 0)
      << printOp(cc.module.op());
  // One barrier after k1 and one closing each host iteration: k2 does
  // not write part[], so no barrier follows the reduction.
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpBarrier), 2)
      << printOp(cc.module.op());
  expectMatchesSimtOracle(src.c_str());
}

TEST(OmpLowerTest, FusesWithSecondBarrierBeforeClobberingRegion) {
  // k2 overwrites part[], which the reduction reads: a second barrier
  // keeps every thread's reduction ahead of those writes.
  std::string src = twoLaunchProgram(
      kPartSum, "", "  if (threadIdx.x == 0) { part[blockIdx.x] = x; }");
  DiagnosticEngine diag;
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpParallel), 1)
      << printOp(cc.module.op());
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpBarrier), 3)
      << printOp(cc.module.op());
  expectMatchesSimtOracle(src.c_str());
}

TEST(OmpLowerTest, DoesNotFuseWhenMovedValueOutlivesSecondRegion) {
  // x is loaded between the regions but also stored after the second:
  // inside a fused region it would not reach that store.
  std::string src =
      twoLaunchProgram("    float x = part[iters];\n",
                       "    out[0] = x;\n");
  DiagnosticEngine diag;
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpParallel), 2)
      << printOp(cc.module.op());
  expectMatchesSimtOracle(src.c_str());
}

TEST(OmpLowerTest, DoesNotFuseAcrossWrite) {
  std::string src = twoLaunchProgram(
      "    float x = part[iters];\n    a[iters] = x;\n");
  DiagnosticEngine diag;
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpParallel), 2)
      << printOp(cc.module.op());
  expectMatchesSimtOracle(src.c_str());
}

//===----------------------------------------------------------------------===//
// mem2reg
//===----------------------------------------------------------------------===//

TEST(Mem2RegTest, PromotesScalarsThroughIfAndFor) {
  const char *src = R"(
int f(int n) {
  int acc = 0;
  for (int i = 0; i < n; i++) {
    if (i % 2 == 0) {
      acc += i;
    }
  }
  return acc;
}
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  EXPECT_EQ(countOps(m.op(), OpKind::Alloca), 0)
      << ir::printOp(m.op());
  driver::Executor exec(m.get(), 1);
  auto r = exec.run("f", {int64_t(10)});
  EXPECT_EQ(r[0].i, 0 + 2 + 4 + 6 + 8);
}

namespace {

int countScalarAllocas(Op *root) {
  int n = 0;
  root->walk([&](Op *op) {
    if (op->kind() == OpKind::Alloca && op->result().type().rank() == 0)
      ++n;
  });
  return n;
}

} // namespace

TEST(Mem2RegTest, PromotesScalarReadAcrossBarrierRegions) {
  // q is stored before the barrier-containing for and if, and only read
  // inside them: the region ops gain no results, so it is promoted (as
  // are tx and gid) and no per-thread cache is needed for it.
  const char *src = R"(
__global__ void k(float* a, float* out, int u) {
  __shared__ float s[16];
  int tx = threadIdx.x;
  int gid = blockIdx.x * blockDim.x + threadIdx.x;
  int q = tx * 3 + u;
  s[tx] = a[gid];
  __syncthreads();
  for (int i = 0; i < 3; i++) {
    out[gid] = out[gid] + s[(q + i) % 16];
    __syncthreads();
    s[tx] = out[gid] * 0.5f;
    __syncthreads();
  }
  if (u > 1) {
    out[gid] = out[gid] - s[(q + 5) % 16];
    __syncthreads();
    s[tx] = a[(q + gid) % 64];
    __syncthreads();
  }
  out[gid] = out[gid] + s[(tx + 1) % 16];
}
void run(float* a, float* out, int u) { k<<<4, 16>>>(a, out, u); }
)";
  OwnedModule m = frontendIR(src);
  ASSERT_GT(countScalarAllocas(m.op()), 0);
  runMem2Reg(m.get());
  EXPECT_EQ(countScalarAllocas(m.op()), 0) << ir::printOp(m.op());
  expectMatchesSimtOracle(src);
}

TEST(Mem2RegTest, ScalarStoredInsideBarrierLoopNotPromoted) {
  // acc is stored inside the barrier-containing loop: promotion would add
  // an iter_arg crossing the barrier, so the alloca stays for cpuify to
  // replicate.
  const char *src = R"(
__global__ void k(float* a, float* out, int u) {
  __shared__ float s[16];
  int tx = threadIdx.x;
  int gid = blockIdx.x * blockDim.x + threadIdx.x;
  float acc = a[gid];
  s[tx] = acc;
  __syncthreads();
  for (int i = 0; i < 3; i++) {
    acc = acc + s[(tx + i + 1) % 16];
    __syncthreads();
    s[tx] = acc * 0.5f;
    __syncthreads();
  }
  out[gid] = acc;
}
void run(float* a, float* out, int u) { k<<<4, 16>>>(a, out, u); }
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  EXPECT_EQ(countScalarAllocas(m.op()), 1) << ir::printOp(m.op());
  expectMatchesSimtOracle(src);
}

TEST(Mem2RegTest, BackpropLayerforwardHasNoPerThreadIndexCache) {
  // tx/ty and the indices derived from them are only read inside the
  // barrier-containing regions; once promoted, cpuify has no reason to
  // replicate them into a per-thread memref<?x?xi32>.
  const rodinia::Benchmark *bench = nullptr;
  for (const auto &b : rodinia::suite())
    if (b.id == "backprop_layerforward")
      bench = &b;
  ASSERT_NE(bench, nullptr);
  DiagnosticEngine diag;
  auto cc = driver::compile(bench->cudaSource, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  cc.module.op()->walk([&](Op *op) {
    if (op->kind() != OpKind::Alloca)
      return;
    Type t = op->result().type();
    EXPECT_FALSE(t.rank() == 2 && t.numDynamicDims() == 2 &&
                 t.elemKind() == TypeKind::I32)
        << "per-thread i32 cache:\n"
        << ir::printOp(cc.module.op());
  });
}

//===----------------------------------------------------------------------===//
// unroll: raising counted scf.while loops
//===----------------------------------------------------------------------===//

namespace {

/// A block kernel over s[16] running `loop`, in which `BODY` stands for a
/// tree-reduction step with stride `w`.
std::string reductionKernel(const std::string &loop) {
  const std::string body = R"(
    if (tx < w) {
      s[tx] = s[tx] + s[tx + w];
    }
    __syncthreads();
)";
  std::string l = loop;
  if (size_t at = l.find("BODY"); at != std::string::npos)
    l.replace(at, 4, body);
  return R"(
__global__ void red(float* a, float* out, int u) {
  __shared__ float s[16];
  int tx = threadIdx.x;
  int gid = blockIdx.x * blockDim.x + threadIdx.x;
  s[tx] = a[gid];
  __syncthreads();
)" + l + R"(
  out[gid] = s[tx] + s[0];
}
void run(float* a, float* out, int u) { red<<<4, 16>>>(a, out, u); }
)";
}

/// Frontend IR after the cleanup and promotion that precede unroll in the
/// pipeline, then unroll at its default budget.
OwnedModule unrolledIR(const std::string &src) {
  OwnedModule m = frontendIR(src);
  runCanonicalize(m.get());
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  runUnroll(m.get());
  EXPECT_TRUE(verifyOk(m.op())) << printOp(m.op());
  return m;
}

} // namespace

TEST(UnrollTest, RaisesAndUnrollsEveryHalvingSpelling) {
  const char *loops[] = {
      "for (int w = 8; w > 0; w = w / 2) { BODY }",
      "for (int w = 8; w > 0; w /= 2) { BODY }",
      "for (int w = 8; w > 0; w = w >> 1) { BODY }",
      "for (int w = 8; w > 0; w >>= 1) { BODY }",
      "int w = 8; while (w > 0) { BODY w = w / 2; }",
  };
  for (const char *loop : loops) {
    SCOPED_TRACE(loop);
    std::string src = reductionKernel(loop);
    OwnedModule m = unrolledIR(src);
    EXPECT_EQ(countOps(m.op(), OpKind::ScfWhile), 0) << printOp(m.op());
    EXPECT_EQ(countOps(m.op(), OpKind::ScfFor), 0);
    // The barrier before the loop plus one per trip (w = 8, 4, 2, 1).
    EXPECT_EQ(countOps(m.op(), OpKind::Barrier), 1 + 4);
    expectMatchesSimtOracle(src.c_str());
  }
}

TEST(UnrollTest, DropsZeroTripCountedWhile) {
  // The condition fails on entry and the before region is pure, so the
  // whole loop goes.
  std::string src =
      reductionKernel("for (int w = 0; w > 0; w = w / 2) { BODY }");
  OwnedModule m = unrolledIR(src);
  EXPECT_EQ(countOps(m.op(), OpKind::ScfWhile), 0) << printOp(m.op());
  EXPECT_EQ(countOps(m.op(), OpKind::ScfFor), 0);
  EXPECT_EQ(countOps(m.op(), OpKind::Barrier), 1);
  expectMatchesSimtOracle(src.c_str());
}

TEST(UnrollTest, RaisingHonorsTheBarrierBudget) {
  // A barrier loop may unroll up to 32 trips; a 33rd keeps the while.
  auto kernel = [](int trips) {
    return reductionKernel("for (int w = " + std::to_string(trips) +
                           "; w != 0; w = w - 1) {"
                           "  out[gid] = out[gid] + s[(tx + w) % 16];"
                           "  __syncthreads(); }");
  };
  std::string at = kernel(32);
  OwnedModule atM = unrolledIR(at);
  EXPECT_EQ(countOps(atM.op(), OpKind::ScfWhile), 0);
  EXPECT_EQ(countOps(atM.op(), OpKind::Barrier), 1 + 32);
  expectMatchesSimtOracle(at.c_str());
  std::string over = kernel(33);
  OwnedModule overM = unrolledIR(over);
  EXPECT_EQ(countOps(overM.op(), OpKind::ScfWhile), 1);
  EXPECT_EQ(countOps(overM.op(), OpKind::Barrier), 2);
  expectMatchesSimtOracle(over.c_str());
}

TEST(UnrollTest, LeavesUncountedWhilesAlone) {
  struct Case {
    const char *why;
    const char *loop;
    bool runOracle;
  };
  const Case cases[] = {
      {"start depends on a kernel argument",
       "for (int w = u; w > 0; w = w / 2) { BODY }", true},
      {"update stored under an if",
       "int w = 8; while (w > 0) { BODY if (u > 0) { w = w / 2; } }", true},
      {"start may be overwritten under an if",
       "int w = 1; if (u > 1) { w = 8; } while (w > 0) { BODY w = w / 2; }",
       true},
      {"condition reads other memory",
       "for (int w = 8; w > (int)a[0]; w = w / 2) { BODY }", false},
      {"do-while whose before region has side effects",
       "int w = 8; do { BODY out[gid] = 1.0f; w = w / 2; } while (w > 0);",
       true},
  };
  for (const Case &c : cases) {
    SCOPED_TRACE(c.why);
    std::string src = reductionKernel(c.loop);
    OwnedModule m = unrolledIR(src);
    EXPECT_EQ(countOps(m.op(), OpKind::ScfWhile), 1) << printOp(m.op());
    if (c.runOracle)
      expectMatchesSimtOracle(src.c_str());
  }
}

TEST(UnrollTest, LeavesSharedCounterWhileAlone) {
  // The kWhileBarrierSrc shape of test_e2e: the trip count lives in a
  // __shared__ int that thread 0 updates under an if.
  const char *src = R"(
__global__ void relax(float* data, int rounds) {
  __shared__ int iter;
  int tid = threadIdx.x;
  if (tid == 0) {
    iter = 0;
  }
  __syncthreads();
  do {
    data[tid] = data[tid] * 0.5f + 1.0f;
    __syncthreads();
    if (tid == 0) {
      iter = iter + 1;
    }
    __syncthreads();
  } while (iter < 4);
}
void run(float* data, int rounds) { relax<<<1, 32>>>(data, rounds); }
)";
  OwnedModule m = unrolledIR(src);
  EXPECT_EQ(countOps(m.op(), OpKind::ScfWhile), 1) << printOp(m.op());
}

TEST(UnrollTest, LeavesWhileWithEscapingControlScalarAlone) {
  // The same counted loop twice: once plain (raised), once with the
  // control scalar's address passed to a call (left alone).
  auto module = [](bool escape) {
    std::string text = R"(module {
  func {sym_name = "sink", res_types = []} {
    [%0: memref<i32>]:
    return
  }
  func {sym_name = "f", res_types = []} {
    [%1: memref<?xf32>]:
    %2 = memref.alloca : memref<i32>
)";
    if (escape)
      text += "    call(%2) {callee = \"sink\"}\n";
    text += R"(    %3 = const.int {value = 8} : i32
    memref.store(%3, %2)
    %4 = const.int {value = 0} : i32
    scf.while {
      %5 = memref.load(%2) : i32
      %6 = cmpi(%5, %4) {pred = 4} : i1
      condition(%6)
    } {
      %7 = memref.load(%2) : i32
      %8 = index.cast(%7) : index
      %9 = const.float {value = 1.0} : f32
      memref.store(%9, %1, %8)
      %10 = const.int {value = 2} : i32
      %11 = divsi(%7, %10) : i32
      memref.store(%11, %2)
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
  };
  OwnedModule plain = module(false);
  runUnroll(plain.get());
  EXPECT_EQ(countOps(plain.op(), OpKind::ScfWhile), 0);
  EXPECT_EQ(countOps(plain.op(), OpKind::Store), 1 + 2 * 4);
  OwnedModule escaping = module(true);
  runUnroll(escaping.get());
  EXPECT_EQ(countOps(escaping.op(), OpKind::ScfWhile), 1);
}

TEST(UnrollTest, TreeReductionsLeaveNoWhileOrPerThreadCache) {
  // srad_v1's reduce, particlefilter's likelihood_kernel and both
  // reductions of MocCUDA's nll_kernel halve a stride from a constant
  // around __syncthreads. Raised and unrolled, cpuify lowers them by
  // fission alone: no while is left inside a kernel, and `s` and `tx` get
  // no per-thread memref<?xi32> cache. (srad_v1's host loop stays a
  // while; its other kernels have none.)
  auto check = [](const std::string &label, const char *source,
                  const char *func) {
    SCOPED_TRACE(label);
    DiagnosticEngine diag;
    auto cc = driver::compile(source, PipelineOptions{}, diag);
    ASSERT_TRUE(cc.ok) << diag.str();
    Op *fn = cc.module.get().lookupFunc(func);
    ASSERT_NE(fn, nullptr);
    fn->walk([&](Op *op) {
      if (op->kind() == OpKind::ScfWhile) {
        EXPECT_EQ(getEnclosing(op, OpKind::OmpParallel), nullptr)
            << "while inside a kernel:\n" << printOp(fn);
      }
      if (op->kind() != OpKind::Alloca)
        return;
      Type t = op->result().type();
      EXPECT_FALSE(t.rank() == 1 && t.numDynamicDims() == 1 &&
                   t.elemKind() == TypeKind::I32)
          << "per-thread i32 cache:\n" << printOp(fn);
    });
  };
  for (const char *id : {"srad_v1", "particlefilter_float"}) {
    const rodinia::Benchmark *bench = rodinia::find(id);
    ASSERT_NE(bench, nullptr) << id;
    check(id, bench->cudaSource, "run");
  }
  check("nll_kernel", moccuda::PolygeistKernels::source(), "run_nll");
}

//===----------------------------------------------------------------------===//
// canonicalize: guarded-loop index-set restriction
//===----------------------------------------------------------------------===//

namespace {

/// A kernel over 4 blocks of 16 threads whose thread loop holds one
/// guarded store; `prefix` and `elseBody` add statements around it.
std::string guardedKernel(const std::string &guard,
                          const std::string &prefix = "",
                          const std::string &elseBody = "",
                          const std::string &block = "16") {
  return R"(
__global__ void k(float* a, float* out, int u) {
  int tx = threadIdx.x;
  int gid = blockIdx.x * 16 + tx;
)" + prefix + R"(
  if ()" + guard + R"() {
    out[gid] = a[gid] * 2.0f + 1.0f;
  })" + (elseBody.empty() ? "" : " else { " + elseBody + " }") + R"(
}
void run(float* a, float* out, int u) { k<<<4, )" + block + R"(>>>(a, out, u); }
)";
}

/// Frontend IR after the promotion and canonicalize that precede cpuify.
OwnedModule canonicalizedIR(const std::string &src) {
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  EXPECT_TRUE(verifyOk(m.op())) << printOp(m.op());
  return m;
}

using Bounds = std::array<int64_t, 3>;

/// (lb, ub, step) of the first dimension of the thread loop, or nullopt if
/// there is none.
std::optional<Bounds> threadLoopBounds(Op *root) {
  std::optional<Bounds> bounds;
  root->walk([&](Op *op) {
    if (op->kind() != OpKind::ScfParallel || !ParallelOp(op).isBlock())
      return;
    ParallelOp par(op);
    auto lb = getConstInt(par.lb(0)), ub = getConstInt(par.ub(0)),
         step = getConstInt(par.step(0));
    bounds = Bounds{lb.value_or(-1), ub.value_or(-1), step.value_or(-1)};
  });
  return bounds;
}

} // namespace

TEST(GuardBoundsTest, RestrictsEveryPredicateInEitherOrder) {
  const std::pair<const char *, Bounds> cases[] = {
      {"tx == 5", {5, 6, 1}},  {"5 == tx", {5, 6, 1}},
      {"tx < 5", {0, 5, 1}},   {"5 > tx", {0, 5, 1}},
      {"tx <= 5", {0, 6, 1}},  {"5 >= tx", {0, 6, 1}},
      {"tx > 5", {6, 16, 1}},  {"5 < tx", {6, 16, 1}},
      {"tx >= 5", {5, 16, 1}}, {"5 <= tx", {5, 16, 1}},
  };
  for (const auto &[guard, bounds] : cases) {
    SCOPED_TRACE(guard);
    std::string src = guardedKernel(guard);
    OwnedModule m = canonicalizedIR(src);
    EXPECT_EQ(countOps(m.op(), OpKind::ScfIf), 0) << printOp(m.op());
    EXPECT_EQ(threadLoopBounds(m.op()), bounds) << printOp(m.op());
    expectMatchesSimtOracle(src.c_str());
  }
}

TEST(GuardBoundsTest, RestrictsModuloGuardToMultiples) {
  const std::pair<const char *, Bounds> cases[] = {
      {"tx % 4 == 0", {0, 16, 4}},
      {"0 == tx % 3", {0, 16, 3}},
      {"tx % 20 == 0", {0, 16, 20}},
  };
  for (const auto &[guard, bounds] : cases) {
    SCOPED_TRACE(guard);
    std::string src = guardedKernel(guard);
    OwnedModule m = canonicalizedIR(src);
    EXPECT_EQ(countOps(m.op(), OpKind::ScfIf), 0) << printOp(m.op());
    EXPECT_EQ(threadLoopBounds(m.op()), bounds) << printOp(m.op());
    expectMatchesSimtOracle(src.c_str());
  }
}

TEST(GuardBoundsTest, ComparandOutsideTheRange) {
  // An empty range erases the thread loop (and the kernel with it); a
  // range covering every thread keeps the loop and drops the guard.
  const std::pair<const char *, std::optional<Bounds>> cases[] = {
      {"tx == 20", std::nullopt},
      {"tx < -1", std::nullopt},
      {"-2 >= tx", std::nullopt},
      {"tx < 20", Bounds{0, 16, 1}},
      {"tx >= -2", Bounds{0, 16, 1}},
      {"18 > tx", Bounds{0, 16, 1}},
  };
  for (const auto &[guard, bounds] : cases) {
    SCOPED_TRACE(guard);
    std::string src = guardedKernel(guard);
    OwnedModule m = canonicalizedIR(src);
    EXPECT_EQ(countOps(m.op(), OpKind::ScfIf), 0) << printOp(m.op());
    EXPECT_EQ(threadLoopBounds(m.op()), bounds) << printOp(m.op());
    if (!bounds) {
      EXPECT_EQ(countOps(m.op(), OpKind::Store), 0) << printOp(m.op());
    }
    expectMatchesSimtOracle(src.c_str());
  }
}

TEST(GuardBoundsTest, RestrictsSerialLoop) {
  // The same rule on an scf.for: `== 7` leaves one trip, which the
  // single-trip fold inlines; `% 10 == 0` steps by 10.
  const char *src = R"(
void f(float* a) {
  for (int i = 0; i < 100; i++) {
    if (i == 7) {
      a[i] = 3.0f;
    }
  }
  for (int j = 0; j < 100; j++) {
    if (j % 10 == 0) {
      a[j] = a[j] + 1.0f;
    }
  }
}
)";
  OwnedModule m = canonicalizedIR(src);
  EXPECT_EQ(countOps(m.op(), OpKind::ScfIf), 0) << printOp(m.op());
  EXPECT_EQ(countOps(m.op(), OpKind::ScfFor), 1) << printOp(m.op());
  std::vector<float> a(100, 0.0f);
  driver::Executor exec(m.get(), 1);
  exec.run("f", {driver::Executor::bufferF32(a.data(), {100})});
  for (int i = 0; i < 100; ++i)
    EXPECT_EQ(a[i], (i == 7 ? 3.0f : 0.0f) + (i % 10 == 0 ? 1.0f : 0.0f))
        << i;
}

TEST(GuardBoundsTest, LeavesOtherLoopsAlone) {
  struct Case {
    const char *what;
    std::string src;
    bool runs; // valid CUDA: also checked against the SIMT oracle
  };
  const Case cases[] = {
      {"barrier inside the guard",
       R"(
__global__ void k(float* a, float* out, int u) {
  __shared__ float s[16];
  int tx = threadIdx.x;
  int gid = blockIdx.x * 16 + tx;
  if (tx < 16) {
    s[tx] = a[gid];
    __syncthreads();
    out[gid] = s[15 - tx];
  }
}
void run(float* a, float* out, int u) { k<<<4, 16>>>(a, out, u); }
)",
       false},
      {"second effectful op", guardedKernel("tx == 3", "  out[gid] = 0.5f;"),
       true},
      {"non-empty else", guardedKernel("tx == 3", "", "out[gid] = 0.5f;"),
       true},
      {"comparand defined inside the loop", guardedKernel("tx < u + tx % 3"),
       true},
      {"iter-args",
       R"(
__global__ void k(float* a, float* out, int u) {
  int gid = blockIdx.x * 16 + threadIdx.x;
  float acc = a[gid];
  for (int i = 0; i < 40; i++) {
    acc = acc * 0.5f;
    if (i == 3) {
      out[gid] = acc;
    }
  }
}
void run(float* a, float* out, int u) { k<<<4, 16>>>(a, out, u); }
)",
       true},
  };
  for (const Case &c : cases) {
    SCOPED_TRACE(c.what);
    OwnedModule m = canonicalizedIR(c.src);
    EXPECT_EQ(countOps(m.op(), OpKind::ScfIf), 1) << printOp(m.op());
    if (c.runs)
      expectMatchesSimtOracle(c.src.c_str());
  }
}

TEST(GuardBoundsTest, LeavesBoundsOutsideInt32Alone) {
  // The i32 cast of the IV is exact only for 0 <= lb and ub <= INT32_MAX.
  const std::pair<std::pair<int64_t, int64_t>, bool> cases[] = {
      {{0, INT32_MAX}, true},
      {{0, int64_t(INT32_MAX) + 1}, false},
      {{-1, 100}, false},
  };
  for (const auto &[range, restricts] : cases) {
    SCOPED_TRACE(std::to_string(range.first) + ".." +
                 std::to_string(range.second));
    // The store writes a[iv] when iv == 3.
    OwnedModule m = constantBoundsLoop(range.first, range.second, 1, R"(
      %5 = index.cast(%4) : i32
      %6 = const.int {value = 3} : i32
      %7 = cmpi(%5, %6) {pred = 0} : i1
      scf.if(%7) {
        %8 = const.float {value = 1.0} : f32
        memref.store(%8, %0, %4)
        yield
      } {})");
    runCanonicalize(m.get());
    EXPECT_EQ(countOps(m.op(), OpKind::ScfIf), restricts ? 0 : 1)
        << printOp(m.op());
    EXPECT_EQ(countOps(m.op(), OpKind::ScfFor), restricts ? 0 : 1);
  }
}

TEST(GuardBoundsTest, BackpropLayerforwardKeepsOnlyTheSharedLoopGuard) {
  // Of layerforward's seven thread loops, five are a whole-body guard on
  // tx or ty (`tx == 0` twice, `ty % 2|4|8 == 0`) and are restricted. The
  // one guard left is `ty % 16 == 0`, which shares its loop with an
  // unguarded store.
  const rodinia::Benchmark *bench = rodinia::find("backprop_layerforward");
  ASSERT_NE(bench, nullptr);
  DiagnosticEngine diag;
  auto cc = driver::compile(bench->cudaSource, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  Op *root = cc.module.op();
  EXPECT_EQ(countOps(root, OpKind::RemSI), 1) << printOp(root);
  root->walk([&](Op *op) {
    if (op->kind() != OpKind::ScfIf)
      return;
    Block &body = *op->parent();
    bool onlyGuard = true;
    for (Op *other : body)
      onlyGuard &= other == op || other == body.terminator() ||
                   (isPure(other->kind()) && other->numRegions() == 0);
    EXPECT_FALSE(onlyGuard) << "loop body is a single guard:\n"
                            << printOp(root);
  });
}

namespace {

/// A kernel whose every thread i = blockIdx.x * 16 + threadIdx.x writes
/// out[i] under `guard`, launched on `grid` blocks of 16 (n and g are
/// `run`'s int arguments).
std::string offsetKernel(const std::string &guard,
                         const std::string &grid = "(n + 15) / 16") {
  return R"(
__global__ void k(float* a, float* out, int n) {
  int i = blockIdx.x * 16 + threadIdx.x;
  if ()" + guard + R"() {
    out[i] = a[i] * 2.0f + 1.0f;
  }
}
void run(float* a, float* out, int n, int g) { k<<<)" + grid +
         R"(, 16>>>(a, out, n); }
)";
}

/// `run(a, out, n, g)` of `cc` on 64 floats.
std::vector<float> runOffsetKernel(driver::CompileResult &cc, int64_t n,
                                   int64_t g) {
  std::vector<float> a(64), out(64, 0.0f);
  for (int i = 0; i < 64; ++i)
    a[i] = 0.25f * float(i % 7) - 0.5f;
  driver::Executor exec(cc.module.get(), 2);
  exec.run("run", {driver::Executor::bufferF32(a.data(), {64}),
                   driver::Executor::bufferF32(out.data(), {64}), n, g});
  return out;
}

/// `cc`'s outputs equal the SIMT oracle's for n = 0, 1, 37 and 64, with
/// g = ceil(n / 16).
void expectOffsetKernelMatchesOracle(const std::string &src,
                                     driver::CompileResult &cc) {
  DiagnosticEngine diag;
  auto oracle = driver::compileForSimt(src, diag);
  ASSERT_TRUE(oracle.ok) << diag.str();
  for (int64_t n : {0, 1, 37, 64})
    EXPECT_EQ(runOffsetKernel(cc, n, (n + 15) / 16),
              runOffsetKernel(oracle, n, (n + 15) / 16))
        << "n = " << n << "\n"
        << printOp(cc.module.op());
}

/// The ops of `kind` whose enclosing loops include an op of `loopKind`.
int countInside(Op *root, OpKind kind, OpKind loopKind) {
  int n = 0;
  root->walk([&](Op *op) { n += op->kind() == kind && getEnclosing(op, loopKind); });
  return n;
}

} // namespace

TEST(GuardBoundsTest, RestrictsToLoopInvariantComparand) {
  // `tx < u` bounds the thread loop by clamp(u, 0, 16), computed outside
  // the grid loop so the nest still collapses. So does a constant guard
  // on a block of u * 8 threads, which the range analysis keeps within
  // INT32_MAX.
  const std::pair<const char *, std::string> cases[] = {
      {"tx < u", guardedKernel("tx < u")},
      {"u > tx", guardedKernel("u > tx")},
      {"tx <= u", guardedKernel("tx <= u")},
      {"tx >= u", guardedKernel("tx >= u")},
      {"tx == u", guardedKernel("tx == u")},
      {"block u * 8", guardedKernel("tx == 3", "", "", "u * 8")},
  };
  for (const auto &[what, src] : cases) {
    SCOPED_TRACE(what);
    OwnedModule m = canonicalizedIR(src);
    EXPECT_EQ(countOps(m.op(), OpKind::ScfIf), 0) << printOp(m.op());
    m.op()->walk([&](Op *op) {
      if (op->kind() != OpKind::ScfParallel || !ParallelOp(op).isBlock())
        return;
      for (unsigned i = 0; i < op->numOperands(); ++i)
        EXPECT_TRUE(isDefinedOutside(op->operand(i),
                                     getEnclosing(op, OpKind::ScfParallel)))
            << printOp(m.op());
    });
    expectMatchesSimtOracle(src.c_str());
    DiagnosticEngine diag;
    auto cc = driver::compile(src, PipelineOptions{}, diag);
    ASSERT_TRUE(cc.ok) << diag.str();
    EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpParallel), 1);
    EXPECT_EQ(countOps(cc.module.op(), OpKind::ScfIf), 0)
        << printOp(cc.module.op());
  }
}

TEST(GuardBoundsTest, RestrictsOffsetGuardInSerialThreadLoop) {
  // MCUDA's form (a worksharing loop over blocks around a serial thread
  // loop): `bx * 16 + tx < n` bounds the thread loop by
  // min(16, n - bx * 16), since the grid (n + 15) / 16 keeps bx * 16 from
  // wrapping.
  for (const char *guard : {"i < n", "n > i", "threadIdx.x + blockIdx.x * 16 < n"}) {
    SCOPED_TRACE(guard);
    std::string src = offsetKernel(guard);
    DiagnosticEngine diag;
    auto cc = driver::compile(src, PipelineOptions::mcuda(), diag);
    ASSERT_TRUE(cc.ok) << diag.str();
    EXPECT_EQ(countOps(cc.module.op(), OpKind::ScfIf), 1);
    // MCUDA's pipeline promotes and hoists nothing; do both as the full
    // pipeline does before its last canonicalize.
    runMem2Reg(cc.module.get());
    runLICM(cc.module.get());
    runCanonicalize(cc.module.get());
    ASSERT_TRUE(verifyOk(cc.module.op())) << printOp(cc.module.op());
    EXPECT_EQ(countOps(cc.module.op(), OpKind::ScfIf), 0)
        << printOp(cc.module.op());
    cc.module.op()->walk([&](Op *op) {
      if (op->kind() == OpKind::ScfFor) {
        Op *ub = ForOp(op).ub().definingOp();
        ASSERT_NE(ub, nullptr);
        EXPECT_EQ(ub->kind(), OpKind::SubI) << printOp(cc.module.op());
      }
    });
    expectOffsetKernelMatchesOracle(src, cc);
  }
}

TEST(GuardBoundsTest, CollapsesOffsetGuardToOneLinearLoop) {
  // The full pipeline merges bx and tx into t = bx * 16 + tx over
  // [0, G * 16), and the guard then bounds t by clamp(n, 0, G * 16).
  std::string src = offsetKernel("i < n");
  DiagnosticEngine diag;
  for (bool innerSerialize : {true, false}) {
    PipelineOptions opts;
    opts.innerSerialize = innerSerialize;
    auto cc = driver::compile(src, opts, diag);
    ASSERT_TRUE(cc.ok) << diag.str();
    Op *root = cc.module.op();
    EXPECT_EQ(countOps(root, OpKind::ScfIf), 0) << printOp(root);
    EXPECT_EQ(countOps(root, OpKind::OmpWsLoop), 1) << printOp(root);
    root->walk([&](Op *op) {
      if (op->kind() == OpKind::OmpWsLoop) {
        EXPECT_EQ(ParallelOp(op).numDims(), 1u) << printOp(root);
      }
    });
    expectOffsetKernelMatchesOracle(src, cc);
  }
}

TEST(GuardBoundsTest, NestsBfsConjunction) {
  // `tid < n && mask[tid] != 0`: the conjuncts become nested guards, the
  // offset one folds on the linear loop, and each kernel is one 1-D loop
  // holding only its data-dependent test.
  const rodinia::Benchmark *bench = rodinia::find("bfs");
  ASSERT_NE(bench, nullptr);
  DiagnosticEngine diag;
  auto cc = driver::compile(bench->cudaSource, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  Op *root = cc.module.op();
  EXPECT_EQ(countOps(root, OpKind::OmpWsLoop), 2) << printOp(root);
  root->walk([&](Op *op) {
    if (op->kind() == OpKind::OmpWsLoop) {
      EXPECT_EQ(ParallelOp(op).numDims(), 1u) << printOp(root);
      // The body tests a loaded flag, not the thread index.
      Op *guard = nullptr;
      for (Op *inner : ParallelOp(op).body())
        if (inner->kind() == OpKind::ScfIf)
          guard = inner;
      ASSERT_NE(guard, nullptr);
      Op *cmp = IfOp(guard).cond().definingOp();
      ASSERT_NE(cmp, nullptr);
      ASSERT_NE(cmp->operand(0).definingOp(), nullptr);
      EXPECT_EQ(cmp->operand(0).definingOp()->kind(), OpKind::Load)
          << printOp(root);
    }
    EXPECT_EQ(op->kind() == OpKind::ScfIf && op->numResults() != 0, false)
        << "an i1-yielding scf.if is left:\n" << printOp(root);
  });
  // mask, visited and updating: the data-dependent tests.
  EXPECT_EQ(countOps(root, OpKind::ScfIf), 3) << printOp(root);
}

TEST(GuardBoundsTest, MocCudaAddAndReluAreOneLinearLoop) {
  // `i < n` under a (n + 63) / 64 launch: one 1-D loop over [0, n); ReLU
  // keeps only its data-dependent `x[i] < 0.0f`.
  DiagnosticEngine diag;
  auto cc = driver::compile(moccuda::PolygeistKernels::source(),
                            PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  for (const auto &[func, ifs] : {std::pair{"run_add", 0}, {"run_relu", 1}}) {
    SCOPED_TRACE(func);
    Op *fn = cc.module.get().lookupFunc(func);
    ASSERT_NE(fn, nullptr);
    EXPECT_EQ(countOps(fn, OpKind::OmpWsLoop), 1) << printOp(fn);
    EXPECT_EQ(countOps(fn, OpKind::ScfIf), ifs) << printOp(fn);
    fn->walk([&](Op *op) {
      if (op->kind() == OpKind::OmpWsLoop) {
        EXPECT_EQ(ParallelOp(op).numDims(), 1u) << printOp(fn);
      }
      if (op->kind() == OpKind::ScfIf) {
        EXPECT_EQ(IfOp(op).cond().definingOp()->kind(), OpKind::CmpF);
      }
    });
  }
}

TEST(GuardBoundsTest, FoldsAdjustWeightsTail) {
  // `ty == 0 && by == 0`: nested, `ty == 0` restricts the serial ty loop
  // to one trip, and `by == 0`, invariant in the tx loop, moves out to
  // wrap it. One guard is left, outside every thread loop.
  const rodinia::Benchmark *bench = rodinia::find("backprop_adjust_weights");
  ASSERT_NE(bench, nullptr);
  DiagnosticEngine diag;
  auto cc = driver::compile(bench->cudaSource, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  Op *root = cc.module.op();
  EXPECT_EQ(countOps(root, OpKind::ScfIf), 1) << printOp(root);
  root->walk([&](Op *op) {
    if (op->kind() == OpKind::ScfIf) {
      EXPECT_EQ(op->numResults(), 0u);
      EXPECT_EQ(op->parentOp()->kind(), OpKind::OmpWsLoop) << printOp(root);
    }
  });
}

TEST(GuardBoundsTest, FoldsHotspotRowAndColumn) {
  // hotspot's `row < rows && col < cols` in both thread nests: row
  // bounds the inner (ty) loop, and col, invariant in it, moves out and
  // bounds the outer (tx) loop. Only the stencil's edge tests are left.
  const rodinia::Benchmark *bench = rodinia::find("hotspot");
  ASSERT_NE(bench, nullptr);
  DiagnosticEngine diag;
  auto cc = driver::compile(bench->cudaSource, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  Op *root = cc.module.op();
  int threadLoops = 0;
  root->walk([&](Op *op) {
    if (op->kind() != OpKind::ScfFor || !getEnclosing(op, OpKind::OmpWsLoop))
      return;
    ++threadLoops;
    EXPECT_FALSE(getConstInt(ForOp(op).ub())) << printOp(root);
    // No thread loop's body is a single guard.
    for (Op *inner : ForOp(op).body())
      EXPECT_FALSE(inner->kind() == OpKind::ScfIf &&
                   IfOp(inner).cond().definingOp() &&
                   IfOp(inner).cond().definingOp()->kind() == OpKind::CmpI &&
                   inner->next() == ForOp(op).body().terminator() &&
                   inner == ForOp(op).body().front())
          << printOp(root);
  }
  );
  // Two launches of two nests of two loops.
  EXPECT_EQ(threadLoops, 8) << printOp(root);
  // The stencil's edge tests; each nest also held an i1-yielding `&&` and
  // its guard (24 in all).
  EXPECT_EQ(countInside(root, OpKind::ScfIf, OpKind::OmpWsLoop), 16)
      << printOp(root);
}

TEST(GuardBoundsTest, KeepsGuardsWithoutAProof) {
  struct Case {
    const char *what;
    std::string src;
    int ifs; // scf.if ops left by the full pipeline
  };
  const Case cases[] = {
      // g straight from an int argument: bx * 16 may wrap, so neither the
      // linear collapse nor the fold has a proof.
      {"grid from an int argument", offsetKernel("i < n", "g"), 1},
      {"or", offsetKernel("i < n || i < 3"), 2},
      {"comparand defined inside the loop", offsetKernel("i < n + i % 3"),
       1},
  };
  for (const Case &c : cases) {
    SCOPED_TRACE(c.what);
    DiagnosticEngine diag;
    auto cc = driver::compile(c.src, PipelineOptions{}, diag);
    ASSERT_TRUE(cc.ok) << diag.str();
    EXPECT_EQ(countOps(cc.module.op(), OpKind::ScfIf), c.ifs)
        << printOp(cc.module.op());
    expectOffsetKernelMatchesOracle(c.src, cc);
  }
  // A first conjunct whose branch stores (through the inlined `claim`)
  // is not nested, so its loop keeps the `&&`.
  const char *stores = R"(
__device__ int claim(float* out, int i) {
  out[i] = 1.0f;
  return i % 2;
}
__global__ void k(float* a, float* out, int n) {
  int i = blockIdx.x * 16 + threadIdx.x;
  if (i < n && claim(out, i) == 0) {
    out[i] = a[i] * 2.0f + 1.0f;
  }
}
void run(float* a, float* out, int n, int g) { k<<<(n + 15) / 16, 16>>>(a, out, n); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(stores, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  int yieldingIfs = 0;
  cc.module.op()->walk(
      [&](Op *op) { yieldingIfs += op->kind() == OpKind::ScfIf && op->numResults(); });
  EXPECT_EQ(yieldingIfs, 1) << printOp(cc.module.op());
  expectOffsetKernelMatchesOracle(stores, cc);
}

TEST(OmpLowerTest, ParticlefilterCompilesToOneHoistedRegion) {
  // Restricting normalize_weights' `threadIdx.x == 0` loop lets LICM hoist
  // its partial-sum loop out of the grid; fusion across that read-only
  // loop keeps one omp.parallel, hoisted out of the host loop.
  const rodinia::Benchmark *bench = rodinia::find("particlefilter_float");
  ASSERT_NE(bench, nullptr);
  DiagnosticEngine diag;
  auto cc = driver::compile(bench->cudaSource, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  EXPECT_EQ(countOps(cc.module.op(), OpKind::OmpParallel), 1)
      << printOp(cc.module.op());
  EXPECT_EQ(countOmpParallelInsideFor(cc.module.op()), 0)
      << printOp(cc.module.op());
}

//===----------------------------------------------------------------------===//
// Frontend diagnostics
//===----------------------------------------------------------------------===//

TEST(FrontendDiagTest, RejectsUnknownIdentifier) {
  DiagnosticEngine diag;
  auto cc = driver::compile("void f() { x = 1; }", PipelineOptions{}, diag);
  EXPECT_FALSE(cc.ok);
  EXPECT_NE(diag.str().find("x"), std::string::npos);
  DiagnosticEngine diag2;
  auto cc2 =
      driver::compile("int f() { return y + 1; }", PipelineOptions{}, diag2);
  EXPECT_FALSE(cc2.ok);
  EXPECT_NE(diag2.str().find("undeclared"), std::string::npos);
}

TEST(FrontendDiagTest, RejectsMisplacedReturn) {
  DiagnosticEngine diag;
  auto cc = driver::compile(
      "int f(int n) { for (int i = 0; i < n; i++) { return i; } return 0; }",
      PipelineOptions{}, diag);
  EXPECT_FALSE(cc.ok);
}

TEST(FrontendDiagTest, RejectsKernelCalledAsFunction) {
  DiagnosticEngine diag;
  auto cc = driver::compile(
      "__global__ void k(float* a) { a[0] = 1.0f; }\n"
      "void f(float* a) { k(a); }",
      PipelineOptions{}, diag);
  EXPECT_FALSE(cc.ok);
  EXPECT_NE(diag.str().find("launched"), std::string::npos);
}

TEST(FrontendDiagTest, RejectsLaunchOfUnknownKernel) {
  DiagnosticEngine diag;
  auto cc = driver::compile("void f(float* a) { nosuch<<<1, 32>>>(a); }",
                            PipelineOptions{}, diag);
  EXPECT_FALSE(cc.ok);
}

//===----------------------------------------------------------------------===//
// Barrier motion (§IV-A fictitious-barrier criterion)
//===----------------------------------------------------------------------===//

namespace {

/// Returns the single barrier's zero-based position in its block, or -1.
int barrierIndex(Op *root) {
  Op *barrier = nullptr;
  root->walk([&](Op *op) {
    if (op->kind() == OpKind::Barrier)
      barrier = op;
  });
  if (!barrier)
    return -1;
  int idx = 0;
  for (Op *op = barrier->parent()->front(); op != barrier; op = op->next())
    ++idx;
  return idx;
}

} // namespace

TEST(BarrierMotionTest, HoistsAboveNonConflictingDefs) {
  // The load from c feeds only post-barrier code; the barrier exists to
  // order the write to a against the cross-thread read of a. Hoisting it
  // above the c-load removes the crossing value entirely.
  const char *src = R"(
__global__ void k(float* a, float* b, float* c) {
  int tx = threadIdx.x;
  a[tx] = b[tx];
  float t1 = c[tx];
  __syncthreads();
  b[tx] = a[15 - tx] + t1;
}
void run(float* a, float* b, float* c) { k<<<1, 16>>>(a, b, c); }
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  int before = barrierIndex(m.op());
  ASSERT_GT(before, 0);
  runBarrierMotion(m.get());
  int after = barrierIndex(m.op());
  EXPECT_LT(after, before) << printOp(m.op());
  EXPECT_TRUE(verifyOk(m.op()));
  // The barrier must not have been hoisted above the store to a.
  Op *barrier = nullptr;
  m.op()->walk([&](Op *op) {
    if (op->kind() == OpKind::Barrier)
      barrier = op;
  });
  ASSERT_NE(barrier, nullptr);
  bool storeBefore = false;
  for (Op *op = barrier->parent()->front(); op != barrier; op = op->next())
    if (op->kind() == OpKind::Store)
      storeBefore = true;
  EXPECT_TRUE(storeBefore) << printOp(m.op());
}

TEST(BarrierMotionTest, DoesNotMoveAcrossConflictingStore) {
  // Classic exchange: the store to a conflicts with the cross-thread
  // read after the barrier, so the barrier must stay put.
  const char *src = R"(
__global__ void k(float* a, float* b) {
  int tx = threadIdx.x;
  a[tx] = b[tx];
  __syncthreads();
  b[tx] = a[15 - tx];
}
void run(float* a, float* b) { k<<<1, 16>>>(a, b); }
)";
  OwnedModule m = frontendIR(src);
  runMem2Reg(m.get());
  runCanonicalize(m.get());
  int before = barrierIndex(m.op());
  runBarrierMotion(m.get());
  EXPECT_EQ(barrierIndex(m.op()), before) << printOp(m.op());
}

TEST(BarrierMotionTest, PipelineWithMotionPreservesSemantics) {
  // End-to-end: motion runs inside the default pipeline; the transpiled
  // result must agree with the SIMT oracle.
  const char *src = R"(
__global__ void k(float* a, float* b, float* c) {
  int tx = threadIdx.x;
  a[tx] = b[tx] * 2.0f;
  float t1 = c[tx];
  __syncthreads();
  b[tx] = a[15 - tx] + t1;
}
void run(float* a, float* b, float* c) { k<<<1, 16>>>(a, b, c); }
)";
  std::vector<float> a(16), b(16), c(16), a2(16), b2(16), c2(16);
  for (int i = 0; i < 16; ++i) {
    a[i] = a2[i] = 0;
    b[i] = b2[i] = 1.0f + i;
    c[i] = c2[i] = 0.5f * i;
  }
  DiagnosticEngine diag;
  auto oracle = driver::compileForSimt(src, diag);
  ASSERT_TRUE(oracle.ok) << diag.str();
  driver::Executor simt(oracle.module.get(), 2);
  simt.run("run", {driver::Executor::bufferF32(a.data(), {16}),
                   driver::Executor::bufferF32(b.data(), {16}),
                   driver::Executor::bufferF32(c.data(), {16})});

  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 2);
  exec.run("run", {driver::Executor::bufferF32(a2.data(), {16}),
                   driver::Executor::bufferF32(b2.data(), {16}),
                   driver::Executor::bufferF32(c2.data(), {16})});
  EXPECT_EQ(a, a2);
  EXPECT_EQ(b, b2);
  EXPECT_EQ(c, c2);
}
