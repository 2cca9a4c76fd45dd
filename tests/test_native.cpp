// The native tier (native/native.h): every output of natively built code
// must be byte-identical to the VM's, a SIMT module must be rejected
// before anything is built, and a failed build must leave a diagnostic,
// a counted failure, no temporary file and no child process behind.
#include "ir/builder.h"
#include "ir/printer.h"
#include "moccuda/resnet.h"
#include "native/emit.h"
#include "native/native.h"
#include "rodinia/rodinia.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
#include <sys/wait.h>

// ASan's and TSan's allocators end the process on a request past their
// maximum size instead of throwing std::bad_alloc.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define ALLOCATOR_ABORTS_ON_HUGE_REQUESTS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define ALLOCATOR_ABORTS_ON_HUGE_REQUESTS 1
#endif
#endif

using namespace paralift;
using driver::CompileResult;
using driver::Executor;
using transforms::PipelineOptions;

namespace {

namespace fs = std::filesystem;

/// Points TMPDIR at a private directory for the whole test program, so a
/// test can check that builds leave nothing under it, whatever other
/// processes build at the same time.
class PrivateTempDir : public ::testing::Environment {
public:
  void SetUp() override {
    std::string tmpl = (fs::temp_directory_path() / "test-native-XXXXXX");
    ASSERT_NE(mkdtemp(tmpl.data()), nullptr) << std::strerror(errno);
    dir_ = tmpl;
    setenv("TMPDIR", dir_.c_str(), 1);
  }
  void TearDown() override { fs::remove_all(dir_); }

private:
  std::string dir_;
};

const auto *const kPrivateTemp =
    ::testing::AddGlobalTestEnvironment(new PrivateTempDir);

/// Entries a build left under the (private) temporary directory.
size_t leftoverTempEntries() {
  size_t n = 0;
  for ([[maybe_unused]] const auto &e :
       fs::directory_iterator(fs::temp_directory_path()))
    ++n;
  return n;
}

/// True when this process has no child, running or unreaped.
bool noChildProcess() {
  int status;
  return waitpid(-1, &status, WNOHANG) == -1 && errno == ECHILD;
}

uint64_t counter(const char *name) {
  return metrics::MetricsRegistry::instance().counterValue(name);
}

template <typename T>
bool sameBytes(const std::vector<T> &a, const std::vector<T> &b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) ==
                           0);
}

//===----------------------------------------------------------------------===//
// Rodinia: all 80 Optimize-mode modules, native against the VM
//===----------------------------------------------------------------------===//

/// One Optimize-mode module: a Rodinia source through one pipeline, or
/// its OpenMP reference.
struct Case {
  const rodinia::Benchmark *bench = nullptr;
  std::string name;
  PipelineOptions opts;
  bool openmp = false;
  CompileResult cc;
  std::shared_ptr<const native::Module> native;
  std::string buildDiag;
};

std::vector<Case> rodiniaCases() {
  PipelineOptions innerPar;
  innerPar.innerSerialize = false;
  const std::pair<const char *, PipelineOptions> variants[] = {
      {"full", PipelineOptions{}},
      {"innerpar", innerPar},
      {"optdisabled", PipelineOptions::optDisabled()},
      {"mcuda", PipelineOptions::mcuda()}};
  std::vector<Case> cases;
  auto add = [&](const rodinia::Benchmark &b, const std::string &variant,
                 const PipelineOptions &opts, bool openmp) {
    Case &c = cases.emplace_back();
    c.bench = &b;
    c.name = b.id + "/" + variant;
    c.opts = opts;
    c.openmp = openmp;
  };
  for (const auto &b : rodinia::suite()) {
    for (const auto &[name, opts] : variants)
      add(b, name, opts, false);
    if (b.openmpSource)
      add(b, "omp", PipelineOptions{}, true);
  }
  return cases;
}

/// Compiles every case in one session, then builds them four at a time,
/// largest module first, so no large build starts last.
void compileAndBuild(std::vector<Case> &cases) {
  driver::SessionOptions so;
  so.threads = 4;
  so.useEnvCache = false;
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> jobs;
  for (Case &c : cases)
    jobs.push_back(&session.addSource(
        c.name, c.openmp ? c.bench->openmpSource : c.bench->cudaSource,
        c.opts));
  session.compileAll();
  std::vector<std::pair<size_t, size_t>> bySize; // (printed size, case)
  for (size_t i = 0; i < cases.size(); ++i) {
    cases[i].cc = jobs[i]->take();
    bySize.emplace_back(ir::printOp(cases[i].cc.module.op()).size(), i);
  }
  std::sort(bySize.rbegin(), bySize.rend());
  runtime::ThreadPool pool(4);
  runtime::runTasks(&pool, cases.size(), [&](size_t k) {
    Case &c = cases[bySize[k].second];
    DiagnosticEngine diag;
    c.native = native::Module::build(c.cc, c.name, diag);
    c.buildDiag = diag.str();
  });
}

TEST(NativeRodiniaTest, EveryOutputIsByteIdenticalToTheVm) {
  std::vector<Case> cases = rodiniaCases();
  ASSERT_EQ(cases.size(), 80u);
  uint64_t builds = counter("native.builds");
  compileAndBuild(cases);
  EXPECT_EQ(counter("native.builds") - builds, cases.size());
  for (Case &c : cases) {
    ASSERT_TRUE(c.cc.ok) << c.name;
    ASSERT_TRUE(c.native) << c.name << ": " << c.buildDiag;
    // rodinia-exec's nested policy: InnerPar spawns its inner teams.
    runtime::NestedPolicy policy = c.opts.innerSerialize
                                       ? runtime::NestedPolicy::Serialize
                                       : runtime::NestedPolicy::Spawn;
    Executor vm(c.cc.module.get(), 4, /*boundsCheck=*/false);
    native::Executor nat(c.native, 4);
    vm.setNestedPolicy(policy);
    nat.setNestedPolicy(policy);
    for (unsigned team : {1u, 4u})
      for (int scale : {1, 3}) {
        vm.setNumThreads(team);
        nat.setNumThreads(team);
        rodinia::Workload onVm = c.bench->makeWorkload(scale);
        rodinia::Workload onNative = c.bench->makeWorkload(scale);
        vm.run("run", onVm.args());
        nat.run("run", onNative.args());
        std::string where = c.name + " team " + std::to_string(team) +
                            " scale " + std::to_string(scale);
        EXPECT_TRUE(sameBytes(onVm.floatState(), onNative.floatState()))
            << where << ": float outputs differ";
        EXPECT_TRUE(sameBytes(onVm.intState(), onNative.intState()))
            << where << ": int outputs differ";
      }
  }
}

//===----------------------------------------------------------------------===//
// The PyTorch kernels at ResNet shapes
//===----------------------------------------------------------------------===//

/// The kernels on the VM, compiled here from the same source.
struct VmKernels {
  CompileResult cc;
  std::unique_ptr<Executor> exec;

  VmKernels() {
    DiagnosticEngine diag;
    cc = driver::compile(moccuda::PolygeistKernels::source(),
                         PipelineOptions{}, diag);
    EXPECT_TRUE(cc.ok) << diag.str();
    exec = std::make_unique<Executor>(cc.module.get(), 4, false);
  }
};

/// Runs add, ReLU (262,144 elements, one ResNet activation) and NLL
/// (batch 16, 10 classes) through `kernels` and through the VM, and
/// returns whether every output agrees byte for byte.
::testing::AssertionResult kernelsMatchTheVm(moccuda::PolygeistKernels &kernels,
                                             unsigned team) {
  constexpr int kAct = 16 * 16 * 32 * 32, kBatch = 16, kClasses = 10;
  std::mt19937 rng(7);
  std::uniform_real_distribution<float> value(-1.0f, 1.0f);
  std::vector<float> src(kAct), dst(kAct);
  for (float &v : src)
    v = value(rng);
  for (float &v : dst)
    v = value(rng);
  std::vector<int32_t> labels(kBatch);
  for (int32_t &l : labels)
    l = static_cast<int32_t>(rng() % kClasses);

  VmKernels vm;
  vm.exec->setNumThreads(team);
  kernels.setNumThreads(team);
  std::vector<float> addNat = dst, addVm = dst;
  kernels.add(addNat.data(), src.data(), kAct);
  vm.exec->run("run_add", {Executor::bufferF32(addVm.data(), {kAct}),
                           Executor::bufferF32(src.data(), {kAct}),
                           int64_t(kAct)});
  if (!sameBytes(addNat, addVm))
    return ::testing::AssertionFailure() << "add differs";
  std::vector<float> reluNat = addNat, reluVm = addVm;
  kernels.relu(reluNat.data(), kAct);
  vm.exec->run("run_relu",
               {Executor::bufferF32(reluVm.data(), {kAct}), int64_t(kAct)});
  if (!sameBytes(reluNat, reluVm))
    return ::testing::AssertionFailure() << "relu differs";
  std::vector<float> logits(src.begin(), src.begin() + kBatch * kClasses);
  std::vector<float> dNat(kBatch * kClasses), dVm(kBatch * kClasses),
      lossesVm(kBatch);
  float lossNat = kernels.nllLoss(logits.data(), labels.data(), dNat.data(),
                                  kBatch, kClasses);
  vm.exec->run("run_nll",
               {Executor::bufferF32(logits.data(), {kBatch * kClasses}),
                Executor::bufferI32(labels.data(), {kBatch}),
                Executor::bufferF32(dVm.data(), {kBatch * kClasses}),
                Executor::bufferF32(lossesVm.data(), {kBatch}),
                int64_t(kBatch), int64_t(kClasses)});
  float lossVm = 0.0f;
  for (float l : lossesVm)
    lossVm += l;
  lossVm /= kBatch;
  if (!sameBytes(dNat, dVm) ||
      std::memcmp(&lossNat, &lossVm, sizeof lossVm) != 0)
    return ::testing::AssertionFailure() << "nll differs";
  return ::testing::AssertionSuccess();
}

TEST(NativeKernelsTest, PytorchKernelsMatchTheVmAtResnetShapes) {
  moccuda::PolygeistKernels kernels(4);
  ASSERT_TRUE(kernels.isNative());
  for (unsigned team : {1u, 4u})
    EXPECT_TRUE(kernelsMatchTheVm(kernels, team)) << "team " << team;
}

//===----------------------------------------------------------------------===//
// Rejection, determinism, observability, failure
//===----------------------------------------------------------------------===//

const char *kSaxpy = R"(
__global__ void saxpy(float* y, float* x, float a, int n) {
  int i = blockIdx.x * 32 + threadIdx.x;
  if (i < n) {
    y[i] = a * x[i] + y[i] * 0.3f;
  }
}
void run(float* y, float* x, float a, int n) {
  saxpy<<<(n + 31) / 32, 32>>>(y, x, a, n);
}
)";

TEST(NativeBuildTest, SimtModuleIsRejectedNamingTheOpAndBuildsNothing) {
  DiagnosticEngine diag;
  CompileResult simt = driver::compileForSimt(kSaxpy, diag);
  ASSERT_TRUE(simt.ok) << diag.str();
  uint64_t builds = counter("native.builds");
  uint64_t failures = counter("native.build_failures");
  EXPECT_EQ(native::Module::build(simt, "simt", diag), nullptr);
  EXPECT_NE(diag.str().find("cannot emit scf.parallel (in function 'run')"),
            std::string::npos)
      << diag.str();
  EXPECT_EQ(counter("native.builds"), builds);
  EXPECT_EQ(counter("native.build_failures"), failures + 1);
  EXPECT_EQ(leftoverTempEntries(), 0u);
  EXPECT_TRUE(noChildProcess());
}

TEST(NativeBuildTest, FailedCompileIsNotBuilt) {
  DiagnosticEngine diag;
  CompileResult bad = driver::compile("__global__ void k(", {}, diag);
  ASSERT_FALSE(bad.ok);
  DiagnosticEngine buildDiag;
  EXPECT_EQ(native::Module::build(bad, "bad", buildDiag), nullptr);
  EXPECT_NE(buildDiag.str().find("did not compile"), std::string::npos);
}

TEST(NativeBuildTest, EmittedTextIsDeterministicAndSurvivesDiskReplay) {
  fs::path cacheDir = fs::temp_directory_path() / "cache";
  const auto *bench = rodinia::find("backprop_layerforward");
  ASSERT_NE(bench, nullptr);
  // A fresh cache instance each time, so the second compile replays
  // from disk.
  auto compileWithCache = [&](uint64_t *hits) {
    transforms::PassResultCache cache(cacheDir.string());
    driver::SessionOptions so;
    so.cache = &cache;
    driver::CompilerSession session(std::move(so));
    driver::CompileJob &job = session.addSource("lf", bench->cudaSource);
    session.compileAll();
    *hits = cache.stats().diskHits;
    return job.take();
  };
  uint64_t coldHits, warmHits;
  CompileResult cold = compileWithCache(&coldHits);
  CompileResult warm = compileWithCache(&warmHits);
  ASSERT_TRUE(cold.ok && warm.ok);
  EXPECT_EQ(coldHits, 0u);
  EXPECT_EQ(warmHits, 1u);
  DiagnosticEngine diag;
  std::optional<std::string> first = native::emitC(cold.module.get(), diag);
  std::optional<std::string> second = native::emitC(cold.module.get(), diag);
  std::optional<std::string> replayed = native::emitC(warm.module.get(), diag);
  ASSERT_TRUE(first && second && replayed) << diag.str();
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(*first, *replayed);
  fs::remove_all(cacheDir);
}

TEST(NativeBuildTest, BuildIsTracedTimedAndCounted) {
  DiagnosticEngine diag;
  CompileResult cc = driver::compile(kSaxpy, {}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  auto &reg = metrics::MetricsRegistry::instance();
  uint64_t builds = counter("native.builds");
  uint64_t timed = reg.histogram("native.build_seconds").count();
  trace::enable();
  std::shared_ptr<const native::Module> module =
      native::Module::build(cc, "saxpy", diag);
  trace::disable();
  ASSERT_TRUE(module) << diag.str();
  EXPECT_EQ(counter("native.builds"), builds + 1);
  EXPECT_EQ(reg.histogram("native.build_seconds").count(), timed + 1);
  std::string json = trace::json();
  size_t span = json.find("\"name\":\"native.build:saxpy\"");
  ASSERT_NE(span, std::string::npos);
  EXPECT_NE(json.find("\"bytes\":\"", span), std::string::npos);

  // The built module runs, with the VM's errors for bad calls.
  native::Executor exec(module, 2);
  std::vector<float> y(100, 1.0f), x(100, 2.0f), yVm = y;
  exec.run("run", {Executor::bufferF32(y.data(), {100}),
                   Executor::bufferF32(x.data(), {100}), 0.5, int64_t(100)});
  Executor vm(cc.module.get(), 2);
  vm.run("run", {Executor::bufferF32(yVm.data(), {100}),
                 Executor::bufferF32(x.data(), {100}), 0.5, int64_t(100)});
  EXPECT_TRUE(sameBytes(y, yVm));
  EXPECT_EQ(exec.tryRun("nope", {}).error, "no such function: nope");
  EXPECT_EQ(exec.tryRun("run", {}).error,
            "call arity mismatch for 'run': got 0 args, function takes 4");
  EXPECT_EQ(leftoverTempEntries(), 0u);
  EXPECT_TRUE(noChildProcess());
}

TEST(NativeExecTest, TrapIsCountedWithTheVmsWording) {
#ifdef ALLOCATOR_ABORTS_ON_HUGE_REQUESTS
  GTEST_SKIP() << "ASan and TSan end the process on an allocation past "
                  "their maximum instead of throwing std::bad_alloc";
#endif
  // run(n) allocas n floats; the frontend sizes arrays statically, so
  // the function is built directly.
  CompileResult cc;
  ir::FuncOp fn =
      ir::FuncOp::create(cc.module.get(), "run", {ir::Type::index()}, {});
  ir::Builder b(&fn.body());
  b.allocaMem(ir::Type::memref(ir::TypeKind::F32, {ir::Type::kDynamic}),
              {fn.arg(0)});
  b.ret({});
  cc.ok = true;
  DiagnosticEngine diag;
  std::shared_ptr<const native::Module> module =
      native::Module::build(cc, "alloca", diag);
  ASSERT_TRUE(module) << diag.str();
  native::Executor exec(module, 1);
  Executor vm(cc.module.get(), 1);
  ASSERT_TRUE(exec.tryRun("run", {int64_t(16)}).ok());

  // 2^60 floats: a 4 EiB allocation, which fails without touching memory.
  const std::vector<Executor::Arg> huge = {int64_t(1) << 60};
  uint64_t nativeTraps = counter("native.exec.errors");
  uint64_t vmTraps = counter("vm.exec.errors");
  vm::CallResult got = exec.tryRun("run", huge);
  EXPECT_EQ(counter("native.exec.errors"), nativeTraps + 1);
  vm::CallResult want = vm.tryRun("run", huge);
  EXPECT_EQ(counter("vm.exec.errors"), vmTraps + 1);
  EXPECT_EQ(counter("native.exec.errors"), nativeTraps + 1);
  ASSERT_FALSE(want.ok());
  EXPECT_EQ(got.error, want.error);
  EXPECT_EQ(got.error.rfind("trap in 'run': ", 0), 0u) << got.error;

  // Bad calls are not traps.
  exec.tryRun("nope", {});
  exec.tryRun("run", {});
  EXPECT_EQ(counter("native.exec.errors"), nativeTraps + 1);
}

TEST(NativeBuildTest, CompileFailpointFailsTheBuildAndLeavesNothing) {
  DiagnosticEngine diag;
  CompileResult cc = driver::compile(kSaxpy, {}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  for (const char *mode : {"throw", "error"}) {
    ASSERT_TRUE(failpoint::configure(std::string("native.compile=") + mode));
    uint64_t builds = counter("native.builds");
    uint64_t failures = counter("native.build_failures");
    DiagnosticEngine buildDiag;
    EXPECT_EQ(native::Module::build(cc, "saxpy", buildDiag), nullptr) << mode;
    failpoint::clearAll();
    EXPECT_NE(buildDiag.str().find("native build of 'saxpy' failed"),
              std::string::npos)
        << buildDiag.str();
    EXPECT_NE(buildDiag.str().find("native.compile"), std::string::npos)
        << buildDiag.str();
    EXPECT_EQ(counter("native.builds"), builds) << mode;
    EXPECT_EQ(counter("native.build_failures"), failures + 1) << mode;
    EXPECT_EQ(leftoverTempEntries(), 0u) << mode;
    EXPECT_TRUE(noChildProcess()) << mode;
  }
}

/// In a fresh process (the kernels build once per process): with the
/// compiler failing, PolygeistKernels runs on the VM with the same bytes.
void fallBackToTheVm(const char *mode) {
  failpoint::configure(std::string("native.compile=") + mode);
  moccuda::PolygeistKernels kernels(4);
  failpoint::clearAll();
  bool ok = !kernels.isNative() && counter("native.builds") == 0 &&
            counter("native.build_failures") == 1 &&
            kernelsMatchTheVm(kernels, 4) && leftoverTempEntries() == 0 &&
            noChildProcess();
  std::exit(ok ? 0 : 1);
}

TEST(NativeBuildTest, PolygeistKernelsFallBackToTheVmWhenTheBuildFails) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(fallBackToTheVm("throw"), ::testing::ExitedWithCode(0),
              "running the PyTorch kernels on the VM");
  EXPECT_EXIT(fallBackToTheVm("error"), ::testing::ExitedWithCode(0),
              "running the PyTorch kernels on the VM");
}

} // namespace
