// Fault-injection and failure-containment tests: the failpoint spec
// parser and trigger determinism, end-to-end containment of injected
// faults at every trust boundary (parse, pass execution, scheduler
// tasks, disk cache, VM execution), cooperative cancellation and
// per-job deadlines, per-job arena caps — and the capstone soak: the
// Rodinia suite compiled through randomized seeded fault schedules,
// asserting the process never crashes, failed jobs carry attributed
// diagnostics, and jobs that succeed are bit-identical to a fault-free
// compile.
#include "driver/compiler.h"
#include "driver/session.h"
#include "ir/printer.h"
#include "rodinia/rodinia.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "transforms/pass_cache.h"
#include "vm/compile.h"
#include "vm/interp.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <string>
#include <vector>
#include <unistd.h>

using namespace paralift;
using transforms::PipelineOptions;

namespace {

/// Every test disarms on exit so failpoints can never leak into another
/// test (the config is process-global, like the metrics registry).
struct FailpointGuard {
  ~FailpointGuard() { failpoint::clearAll(); }
};

/// `instrumented` adds verify-each and a pass-manager hook: the hook
/// makes the session drain the batch on the calling thread, the shape the
/// containment tests sweep beside the plain parallel drain. An
/// instrumented run never replays the cache: every pass executes.
driver::SessionOptions batchOptions(unsigned threads,
                                    transforms::PassResultCache *cache,
                                    bool instrumented = false) {
  driver::SessionOptions so;
  so.threads = threads;
  so.cache = cache;
  so.useEnvCache = false; // results must not depend on the environment
  so.verifyEach = instrumented;
  if (instrumented)
    so.configurePassManager = [](transforms::PassManager &pm) {
      pm.addInstrumentation(std::make_unique<transforms::Instrumentation>());
    };
  return so;
}

/// Fault-free serial reference compile in `mode`, with no cache (not
/// even $PARALIFT_CACHE_DIR's); must be called with no failpoints armed.
std::string serialReference(
    const std::string &source, const PipelineOptions &opts = {},
    driver::SessionMode mode = driver::SessionMode::Optimize) {
  driver::SessionOptions so = batchOptions(1, nullptr);
  so.mode = mode;
  driver::CompilerSession session(std::move(so));
  driver::CompileJob &job = session.addSource("", source, opts);
  session.compileAll();
  EXPECT_TRUE(job.ok()) << job.diagnostics().str();
  return ir::printOp(job.result().module.op());
}

uint64_t counterVal(const std::string &name) {
  return metrics::MetricsRegistry::instance().counterValue(name);
}

std::string tempDir(const std::string &tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("paralift-faults-test-" + tag + "-" +
              std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

} // namespace

//===----------------------------------------------------------------------===//
// Failpoint spec parsing and trigger semantics
//===----------------------------------------------------------------------===//

TEST(FailpointSpec, DisarmedSitesAreInert) {
  FailpointGuard guard;
  failpoint::clearAll();
  EXPECT_FALSE(failpoint::armed());
  EXPECT_EQ(failpoint::evaluate("cache.disk.read"), failpoint::Action::None);
  EXPECT_FALSE(failpoint::shouldFail("pass.run"));
}

TEST(FailpointSpec, RejectsMalformedSpecs) {
  FailpointGuard guard;
  std::string err;
  EXPECT_FALSE(failpoint::configure("nonsense", &err));
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(failpoint::configure("site=", &err));
  EXPECT_FALSE(failpoint::configure("site=badmode", &err));
  EXPECT_FALSE(failpoint::configure("site=delay(abc)", &err));
  EXPECT_FALSE(failpoint::configure("site=throw:junk", &err));
  EXPECT_FALSE(failpoint::configure("site=error:1,1.5", &err))
      << "probability must be < 1";
  EXPECT_FALSE(failpoint::configure("site=error:1,0", &err))
      << "nth must be >= 1";
  // A failed configure leaves the previous configuration armed.
  ASSERT_TRUE(failpoint::configure("keep.me=error", &err)) << err;
  EXPECT_FALSE(failpoint::configure("broken", &err));
  EXPECT_TRUE(failpoint::armed());
  EXPECT_TRUE(failpoint::shouldFail("keep.me"));
}

TEST(FailpointSpec, EmptySpecDisarms) {
  FailpointGuard guard;
  std::string err;
  ASSERT_TRUE(failpoint::configure("a.site=error", &err)) << err;
  EXPECT_TRUE(failpoint::armed());
  ASSERT_TRUE(failpoint::configure("", &err)) << err;
  EXPECT_FALSE(failpoint::armed());
}

TEST(FailpointSpec, NthTriggerFiresFirstHitThenEveryNth) {
  FailpointGuard guard;
  std::string err;
  uint64_t before = counterVal("failpoint.triggered.every3");
  ASSERT_TRUE(failpoint::configure("every3=error:0,3", &err)) << err;
  std::vector<int> fired;
  for (int hit = 1; hit <= 9; ++hit)
    if (failpoint::shouldFail("every3"))
      fired.push_back(hit);
  // An armed site always fires on its first hit, then every Nth after —
  // so arming with a sparse trigger still injects at least once.
  EXPECT_EQ(fired, (std::vector<int>{1, 4, 7}));
  EXPECT_EQ(counterVal("failpoint.triggered.every3"), before + 3);
}

TEST(FailpointSpec, ProbabilityTriggerIsSeedDeterministic) {
  FailpointGuard guard;
  std::string err;
  auto sample = [&] {
    std::vector<int> fired;
    for (int hit = 0; hit < 200; ++hit)
      if (failpoint::shouldFail("prob.site"))
        fired.push_back(hit);
    return fired;
  };
  ASSERT_TRUE(failpoint::configure("prob.site=error:42,0.5", &err)) << err;
  std::vector<int> first = sample();
  // Re-arming the same spec resets hit counters: the triggered set must
  // replay exactly.
  ASSERT_TRUE(failpoint::configure("prob.site=error:42,0.5", &err)) << err;
  EXPECT_EQ(sample(), first);
  // Sanity: p=0.5 over 200 hits lands well inside [40, 160].
  EXPECT_GT(first.size(), 40u);
  EXPECT_LT(first.size(), 160u);
  // A different seed picks a different set.
  ASSERT_TRUE(failpoint::configure("prob.site=error:43,0.5", &err)) << err;
  EXPECT_NE(sample(), first);
}

TEST(FailpointSpec, ThrowModeThrowsInjectedFaultWithSite) {
  FailpointGuard guard;
  std::string err;
  ASSERT_TRUE(failpoint::configure("boom.site=throw", &err)) << err;
  try {
    failpoint::evaluate("boom.site");
    FAIL() << "expected InjectedFault";
  } catch (const failpoint::InjectedFault &f) {
    EXPECT_EQ(f.site(), "boom.site");
    EXPECT_NE(std::string(f.what()).find("boom.site"), std::string::npos);
  }
}

TEST(FailpointSpec, DelayModeSleepsThenProceeds) {
  FailpointGuard guard;
  std::string err;
  ASSERT_TRUE(failpoint::configure("slow.site=delay(30)", &err)) << err;
  auto t0 = std::chrono::steady_clock::now();
  EXPECT_EQ(failpoint::evaluate("slow.site"), failpoint::Action::None);
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  EXPECT_GE(ms, 25.0);
}

TEST(FailpointSpec, MultiSiteSpecsAreIndependent) {
  FailpointGuard guard;
  std::string err;
  ASSERT_TRUE(
      failpoint::configure("a.site=error;b.site=error:0,2", &err))
      << err;
  EXPECT_TRUE(failpoint::shouldFail("a.site"));  // every hit
  EXPECT_TRUE(failpoint::shouldFail("b.site"));  // hit 1 fires
  EXPECT_FALSE(failpoint::shouldFail("b.site")); // hit 2 skipped
  EXPECT_TRUE(failpoint::shouldFail("b.site"));  // hit 3 fires
  EXPECT_FALSE(failpoint::shouldFail("c.site")); // unarmed site
}

//===----------------------------------------------------------------------===//
// Containment: parse, pass, scheduler
//===----------------------------------------------------------------------===//

TEST(FaultContainmentTest, ParseFaultFailsOnlyItsJob) {
  FailpointGuard guard;
  const auto &suite = rodinia::suite();
  std::string golden = serialReference(suite[0].cudaSource);
  std::string err;
  // Every 2nd parse throws: half the batch fails at the frontend. Each
  // job's source differs by its trailing newlines, so each keys apart and
  // runs its own frontend instead of replaying another job's store.
  ASSERT_TRUE(failpoint::configure("parse.module=throw:0,2", &err)) << err;
  transforms::PassResultCache cache;
  driver::CompilerSession session(batchOptions(2, &cache));
  const std::string src = suite[0].cudaSource;
  auto &a = session.addSource("a", src);
  auto &b = session.addSource("b", src + "\n");
  auto &c = session.addSource("c", src + "\n\n");
  auto &d = session.addSource("d", src + "\n\n\n");
  EXPECT_FALSE(session.compileAll());
  int okCount = 0, failCount = 0;
  for (driver::CompileJob *job : {&a, &b, &c, &d}) {
    if (job->ok()) {
      ++okCount;
      EXPECT_EQ(ir::printOp(job->result().module.op()), golden);
    } else {
      ++failCount;
      EXPECT_NE(job->diagnostics().str().find("module parse threw"),
                std::string::npos)
          << job->diagnostics().str();
      EXPECT_NE(job->diagnostics().str().find("injected fault"),
                std::string::npos);
    }
  }
  EXPECT_EQ(okCount, 2);
  EXPECT_EQ(failCount, 2);
}

TEST(FaultContainmentTest, PassFaultFailsJobBatchSurvives) {
  FailpointGuard guard;
  const auto &suite = rodinia::suite();
  std::vector<std::string> golden;
  for (int i = 0; i < 4; ++i)
    golden.push_back(serialReference(suite[i].cudaSource));
  for (bool instrumented : {false, true}) {
    std::string err;
    // One early pass run throws (every 3rd): some jobs fail mid-pipeline.
    ASSERT_TRUE(failpoint::configure("pass.run=throw:0,3", &err)) << err;
    transforms::PassResultCache cache;
    driver::CompilerSession session(batchOptions(4, &cache, instrumented));
    std::vector<driver::CompileJob *> jobs;
    for (int i = 0; i < 4; ++i)
      jobs.push_back(&session.addSource(suite[i].id, suite[i].cudaSource));
    session.compileAll(); // must return; some jobs fail
    int failCount = 0;
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(jobs[i]->ready()) << "future did not resolve";
      if (jobs[i]->ok()) {
        EXPECT_EQ(ir::printOp(jobs[i]->result().module.op()), golden[i])
            << suite[i].id;
      } else {
        ++failCount;
        std::string diag = jobs[i]->diagnostics().str();
        EXPECT_NE(diag.find("injected fault"), std::string::npos) << diag;
        EXPECT_NE(diag.find(suite[i].id), std::string::npos)
            << "diagnostic lacks module attribution: " << diag;
      }
    }
    EXPECT_GT(failCount, 0) << "fault schedule injected nothing";
    failpoint::clearAll();
  }
}

TEST(FaultContainmentTest, SchedulerTaskFaultNeverHangsTheBatch) {
  FailpointGuard guard;
  std::string err;
  uint64_t exceptionsBefore = counterVal("scheduler.task_exceptions");
  // Every 7th scheduler task dies before running: its module's chain is
  // severed. The worker loop must contain the throw (no terminate), the
  // scheduler must still drain, and the session sweep must fail the
  // affected jobs so every future resolves.
  ASSERT_TRUE(failpoint::configure("scheduler.task=throw:0,7", &err)) << err;
  const auto &suite = rodinia::suite();
  transforms::PassResultCache cache;
  driver::CompilerSession session(batchOptions(4, &cache));
  std::vector<driver::CompileJob *> jobs;
  for (const auto &b : suite)
    jobs.push_back(&session.addSource(b.id, b.cudaSource));
  session.compileAll(); // must return (no hang), with some jobs failed
  for (driver::CompileJob *job : jobs) {
    ASSERT_TRUE(job->ready());
    if (!job->ok()) {
      EXPECT_FALSE(job->diagnostics().str().empty());
    }
  }
  EXPECT_GT(counterVal("scheduler.task_exceptions"), exceptionsBefore);
}

TEST(FaultContainmentTest, SimtTaskFaultIsContained) {
  // SIMT jobs cross the same contained task boundary as optimize jobs:
  // a throw at the boundary fails that job alone, with the sweep's
  // diagnostic, on any pool member, and never terminates the process.
  FailpointGuard guard;
  std::string err;
  uint64_t exceptionsBefore = counterVal("scheduler.task_exceptions");
  ASSERT_TRUE(failpoint::configure("scheduler.task=throw:0,3", &err)) << err;
  driver::SessionOptions so = batchOptions(4, nullptr);
  so.mode = driver::SessionMode::Simt;
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> jobs;
  for (const auto &b : rodinia::suite())
    jobs.push_back(&session.addSource(b.id, b.cudaSource));
  session.compileAll();
  uint64_t failed = 0;
  for (driver::CompileJob *job : jobs) {
    ASSERT_TRUE(job->ready()) << job->name();
    if (job->ok())
      continue;
    ++failed;
    EXPECT_NE(job->diagnostics().str().find("aborted before completion"),
              std::string::npos)
        << job->diagnostics().str();
  }
  EXPECT_GT(failed, 0u);
  EXPECT_LT(failed, jobs.size());
  EXPECT_EQ(counterVal("scheduler.task_exceptions") - exceptionsBefore,
            failed);
}

TEST(FaultContainmentTest, ThrowDuringCacheProbeDoesNotFailLaterCompiles) {
  // A throw in one module's cache probe fails that module alone: nothing
  // it leaves in the shared cache may fail a later compile of the same
  // kernels, even in a session with no fault armed.
  FailpointGuard guard;
  const std::string src =
      "__global__ void k1(float* a, int n) { int i = blockIdx.x; "
      "if (i < n) a[i] = 2.0f * a[i]; }\n"
      "__global__ void k2(float* a, int n) { int i = blockIdx.x; "
      "if (i < n) a[i] = a[i] + 3.0f; }\n"
      "void run1(float* a, int n) { k1<<<n, 1>>>(a, n); }\n"
      "void run2(float* a, int n) { k2<<<n, 1>>>(a, n); }\n";
  std::string golden = serialReference(src);
  std::string dir = tempDir("probe-throw");
  transforms::PassResultCache cache(dir);
  {
    std::string err;
    // Every disk probe throws. Each job probes once, keying its source
    // and pipeline before its frontend runs, so both jobs fail before
    // running a pass.
    ASSERT_TRUE(failpoint::configure("cache.disk.read=throw:0,1", &err))
        << err;
    driver::CompilerSession session(batchOptions(1, &cache));
    auto &a = session.addSource("a", src);
    auto &b = session.addSource("b", src);
    EXPECT_FALSE(session.compileAll());
    for (driver::CompileJob *job : {&a, &b}) {
      EXPECT_FALSE(job->ok());
      EXPECT_NE(job->diagnostics().str().find("injected fault"),
                std::string::npos)
          << job->diagnostics().str();
    }
    failpoint::clearAll();
  }
  driver::CompilerSession session(batchOptions(1, &cache));
  auto &c = session.addSource("c", src);
  EXPECT_TRUE(session.compileAll());
  ASSERT_TRUE(c.ok()) << c.diagnostics().str();
  EXPECT_EQ(ir::printOp(c.result().module.op()), golden);
  std::filesystem::remove_all(dir);
}

//===----------------------------------------------------------------------===//
// Cancellation, deadlines, arena caps
//===----------------------------------------------------------------------===//

TEST(CancellationTest, CancelledJobFailsOthersComplete) {
  const auto &suite = rodinia::suite();
  for (driver::SessionMode mode :
       {driver::SessionMode::Optimize, driver::SessionMode::Simt}) {
    SCOPED_TRACE(mode == driver::SessionMode::Simt ? "simt" : "optimize");
    std::string golden = serialReference(suite[0].cudaSource, {}, mode);
    transforms::PassResultCache cache;
    driver::SessionOptions so = batchOptions(2, &cache);
    so.mode = mode;
    driver::CompilerSession session(std::move(so));
    auto &a = session.addSource("a", suite[0].cudaSource);
    auto &b = session.addSource("b", suite[0].cudaSource);
    auto &c = session.addSource("c", suite[0].cudaSource);
    b.cancel(); // before the batch starts: b never runs a pass
    EXPECT_FALSE(session.compileAll());
    EXPECT_TRUE(a.ok()) << a.diagnostics().str();
    EXPECT_TRUE(c.ok()) << c.diagnostics().str();
    EXPECT_FALSE(b.ok());
    EXPECT_NE(b.diagnostics().str().find("cancelled"), std::string::npos)
        << b.diagnostics().str();
    EXPECT_EQ(ir::printOp(a.result().module.op()), golden);
    EXPECT_EQ(ir::printOp(c.result().module.op()), golden);
  }
}

TEST(CancellationTest, CancelledJobFailsEvenWhenItsPipelineIsCached) {
  // The token is polled before the cache lookup: a job cancelled before
  // its batch starts fails, and counts no hit, even though an earlier
  // batch stored its whole pipeline's result.
  const auto &suite = rodinia::suite();
  transforms::PassResultCache cache;
  {
    driver::CompilerSession warmup(batchOptions(1, &cache));
    warmup.addSource("warm", suite[0].cudaSource);
    ASSERT_TRUE(warmup.compileAll());
  }
  cache.resetStats();
  driver::CompilerSession session(batchOptions(1, &cache));
  auto &job = session.addSource("cancelled", suite[0].cudaSource);
  job.cancel();
  EXPECT_FALSE(session.compileAll());
  EXPECT_FALSE(job.ok());
  EXPECT_NE(job.diagnostics().str().find("cancelled"), std::string::npos)
      << job.diagnostics().str();
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().passesReplayed, 0u);
}

TEST(CancellationTest, CancelledJobRunsNoFrontend) {
  // In a cached session the token is polled before the lookup, which a
  // source job makes before its frontend: a job cancelled before its
  // batch fails with "cancelled" without reaching the (armed, throwing)
  // parser or the cache.
  FailpointGuard guard;
  std::string err;
  ASSERT_TRUE(failpoint::configure("parse.module=throw", &err)) << err;
  uint64_t parsesBefore = counterVal("failpoint.triggered.parse.module");
  transforms::PassResultCache cache;
  driver::CompilerSession session(batchOptions(1, &cache));
  auto &job = session.addSource("cancelled", rodinia::suite()[0].cudaSource);
  job.cancel();
  EXPECT_FALSE(session.compileAll());
  std::string diag = job.diagnostics().str();
  EXPECT_NE(diag.find("cancelled"), std::string::npos) << diag;
  EXPECT_EQ(diag.find("module parse threw"), std::string::npos) << diag;
  EXPECT_EQ(counterVal("failpoint.triggered.parse.module"), parsesBefore);
  EXPECT_EQ(cache.stats().hits + cache.stats().misses, 0u);
}

TEST(CancellationTest, JobTimeoutCancelsCleanly) {
  FailpointGuard guard;
  const auto &suite = rodinia::suite();
  struct Input {
    driver::SessionMode mode;
    bool instrumented;
    const char *failpoints;
  };
  // Every pass takes ~30ms, so a 10ms deadline reliably expires at the
  // first post-pass boundary, plain or instrumented. The SIMT pipeline
  // has one pass, polled only before it starts, so there the frontend is
  // what takes ~30ms.
  const Input inputs[] = {
      {driver::SessionMode::Optimize, false, "pass.run=delay(30)"},
      {driver::SessionMode::Optimize, true, "pass.run=delay(30)"},
      {driver::SessionMode::Simt, false, "parse.module=delay(30)"},
  };
  for (const Input &in : inputs) {
    SCOPED_TRACE(in.failpoints);
    std::string err;
    ASSERT_TRUE(failpoint::configure(in.failpoints, &err)) << err;
    transforms::PassResultCache cache;
    driver::SessionOptions so = batchOptions(4, &cache, in.instrumented);
    so.mode = in.mode;
    so.jobTimeoutSeconds = 0.01;
    driver::CompilerSession session(std::move(so));
    std::vector<driver::CompileJob *> jobs;
    for (int i = 0; i < 3; ++i)
      jobs.push_back(&session.addSource(suite[i].id, suite[i].cudaSource));
    EXPECT_FALSE(session.compileAll());
    for (driver::CompileJob *job : jobs) {
      ASSERT_TRUE(job->ready()) << "future did not resolve";
      EXPECT_FALSE(job->ok());
      std::string diag = job->diagnostics().str();
      EXPECT_NE(diag.find("deadline exceeded after 0.01s"),
                std::string::npos)
          << diag;
    }
  }
}

TEST(CancellationTest, InstrumentedJobPollsDeadlineMidPipeline) {
  FailpointGuard guard;
  std::string err;
  // Every pass run sleeps 100ms against a 300ms deadline: the first pass
  // starts well inside it, so the expiry must be caught by a poll before
  // a later step, not before the pipeline starts.
  ASSERT_TRUE(failpoint::configure("pass.run=delay(100)", &err)) << err;
  const auto &suite = rodinia::suite();
  driver::SessionOptions so = batchOptions(4, nullptr, /*instrumented=*/true);
  so.jobTimeoutSeconds = 0.3;
  driver::CompilerSession session(std::move(so));
  auto &job = session.addSource(suite[0].id, suite[0].cudaSource);
  EXPECT_FALSE(session.compileAll());
  std::string diag = job.diagnostics().str();
  EXPECT_NE(diag.find("deadline exceeded after 0.3s in pass '"),
            std::string::npos)
      << diag;
  EXPECT_EQ(diag.find("in pass 'inline'"), std::string::npos) << diag;
}

TEST(CancellationTest, ArenaCapFailsJobWithCleanDiagnostic) {
  const auto &suite = rodinia::suite();
  const std::pair<driver::SessionMode, bool> inputs[] = {
      {driver::SessionMode::Optimize, false},
      {driver::SessionMode::Optimize, true},
      {driver::SessionMode::Simt, false},
  };
  for (auto [mode, instrumented] : inputs) {
    transforms::PassResultCache cache;
    driver::SessionOptions so = batchOptions(4, &cache, instrumented);
    so.mode = mode;
    so.maxArenaBytesPerModule = 1; // everything breaches immediately
    driver::CompilerSession session(std::move(so));
    auto &job = session.addSource("capped", suite[0].cudaSource);
    EXPECT_FALSE(session.compileAll());
    EXPECT_FALSE(job.ok());
    EXPECT_NE(job.diagnostics().str().find("IR arena limit exceeded"),
              std::string::npos)
        << job.diagnostics().str();
  }
}

//===----------------------------------------------------------------------===//
// VM execution traps
//===----------------------------------------------------------------------===//

TEST(VmFaultTest, InjectedVmFaultBecomesCallResultError) {
  FailpointGuard guard;
  DiagnosticEngine diag;
  auto cc = driver::compile("int f(int x) { return x + 1; }",
                            PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1);
  uint64_t errsBefore = counterVal("vm.exec.errors");
  std::string err;
  ASSERT_TRUE(failpoint::configure("vm.exec=throw", &err)) << err;
  vm::CallResult r = exec.tryRun("f", {int64_t(1)});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("injected fault at failpoint 'vm.exec'"),
            std::string::npos)
      << r.error;
  EXPECT_EQ(counterVal("vm.exec.errors"), errsBefore + 1);
  // Disarmed, the same executor serves the request fine.
  failpoint::clearAll();
  auto good = exec.run("f", {int64_t(41)});
  ASSERT_EQ(good.size(), 1u);
  EXPECT_EQ(good[0].i, 42);
}

TEST(VmFaultTest, BoundsTrapIsStructuredNotAbort) {
  DiagnosticEngine diag;
  auto cc = driver::compile("void f(float* a, int i) { a[i] = 1.0f; }",
                            PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  driver::Executor exec(cc.module.get(), 1, /*boundsCheck=*/true);
  uint64_t errsBefore = counterVal("vm.exec.errors");
  std::vector<float> buf(4);
  vm::CallResult r = exec.tryRun(
      "f", {driver::Executor::bufferF32(buf.data(), {4}), int64_t(7)});
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("out of bounds"), std::string::npos) << r.error;
  EXPECT_NE(r.error.find("trap in 'f'"), std::string::npos) << r.error;
  EXPECT_EQ(counterVal("vm.exec.errors"), errsBefore + 1);
  // The executor survives the trap and still serves good requests.
  vm::CallResult ok = exec.tryRun(
      "f", {driver::Executor::bufferF32(buf.data(), {4}), int64_t(2)});
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(buf[2], 1.0f);
}

TEST(VmFaultTest, ArenaCapBreachTrapsInsideParallelRegion) {
  // The kernel allocas a local array per thread; a tiny per-arena cap
  // traps inside the team threads — the trap must cross the pool join
  // and surface as a structured error, not terminate the process.
  const char *src = R"(
__global__ void k(float* out) {
  int t = threadIdx.x;
  float tmp[64];
  for (int j = 0; j < 64; j++) tmp[j] = 1.0f * j;
  float s = 0.0f;
  for (int j = 0; j < 64; j++) s += tmp[j];
  out[t] = s;
}
void run(float* out) { k<<<1, 4>>>(out); }
)";
  DiagnosticEngine diag;
  auto cc = driver::compile(src, PipelineOptions{}, diag);
  ASSERT_TRUE(cc.ok) << diag.str();
  vm::BCModule bc = vm::compileModule(cc.module.get());
  std::optional<vm::VerifiedModule> token = vm::VerifiedModule::create(bc);
  ASSERT_TRUE(token.has_value());
  runtime::ThreadPool pool(2);
  vm::ExecOptions opts;
  opts.maxArenaBytes = 16; // 64 floats never fit
  vm::Interp interp(*token, pool, opts);
  std::vector<float> out(4);
  vm::Arena descs;
  std::vector<vm::Slot> args{
      vm::wrapBuffer(descs, ir::TypeKind::F32, out.data(), {4})};
  vm::CallResult r = interp.tryCall("run", args);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.error.find("VM arena limit exceeded"), std::string::npos)
      << r.error;
  // Uncapped, the same bytecode executes fine.
  vm::Interp unlimited(*token, pool, vm::ExecOptions{});
  vm::CallResult ok = unlimited.tryCall("run", args);
  EXPECT_TRUE(ok.ok()) << ok.error;
  EXPECT_EQ(out[0], 2016.0f); // sum 0..63
}

//===----------------------------------------------------------------------===//
// The soak: Rodinia through randomized seeded fault schedules
//===----------------------------------------------------------------------===//

namespace {

/// One soak round: the full Rodinia suite compiled as one batch under a
/// seeded fault schedule. Asserts the containment contract: compileAll
/// returns, every future resolves, failed jobs carry attributed
/// diagnostics, succeeded jobs are bit-identical to the fault-free
/// reference.
void soakRound(unsigned seed, bool instrumented,
               const std::vector<std::string> &golden) {
  std::string s = std::to_string(seed);
  std::string spec = "pass.run=throw:" + s + ",0.02"
                     ";parse.module=throw:" + s + ",0.1"
                     ";cache.disk.read=error:" + s + ",0.3"
                     ";cache.disk.write=error:" + s + ",0.3";
  std::string err;
  ASSERT_TRUE(failpoint::configure(spec, &err)) << err;

  std::string dir = tempDir("soak-" + s);
  const auto &suite = rodinia::suite();
  {
    // A disk-backed cache so the cache.disk.* faults have a real IO
    // path to corrupt (read/write errors retry, then demote cleanly).
    transforms::PassResultCache cache(dir);
    driver::CompilerSession session(batchOptions(4, &cache, instrumented));
    std::vector<driver::CompileJob *> jobs;
    for (const auto &b : suite)
      jobs.push_back(&session.addSource(b.id, b.cudaSource));
    session.compileAll(); // must return, never crash
    for (size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(jobs[i]->ready())
          << "seed " << seed << ": future for " << suite[i].id
          << " did not resolve";
      if (jobs[i]->ok()) {
        EXPECT_EQ(ir::printOp(jobs[i]->result().module.op()), golden[i])
            << "seed " << seed << ": " << suite[i].id
            << " succeeded with wrong IR";
      } else {
        std::string diag = jobs[i]->diagnostics().str();
        EXPECT_FALSE(diag.empty())
            << "seed " << seed << ": " << suite[i].id
            << " failed without a diagnostic";
        EXPECT_NE(diag.find(suite[i].id), std::string::npos)
            << "seed " << seed << ": diagnostic lacks module attribution: "
            << diag;
      }
    }
  }
  failpoint::clearAll();
  std::filesystem::remove_all(dir);
}

} // namespace

TEST(FaultSoakTest, RodiniaSurvivesSeededFaultSchedules) {
  FailpointGuard guard;
  // References computed fault-free, once.
  std::vector<std::string> golden;
  for (const auto &b : rodinia::suite())
    golden.push_back(serialReference(b.cudaSource));

  // $PARALIFT_FAULT_SEED lets CI sweep schedules; default covers three.
  std::vector<unsigned> seeds{11, 22, 33};
  if (const char *env = std::getenv("PARALIFT_FAULT_SEED"))
    seeds = {static_cast<unsigned>(std::strtoul(env, nullptr, 10))};

  uint64_t triggeredBefore = counterVal("failpoint.triggered.pass.run") +
                             counterVal("failpoint.triggered.parse.module");
  for (unsigned seed : seeds) {
    soakRound(seed, /*instrumented=*/false, golden);
    soakRound(seed, /*instrumented=*/true, golden);
  }
  // The soak must actually have injected something, or it proved nothing.
  EXPECT_GT(counterVal("failpoint.triggered.pass.run") +
                counterVal("failpoint.triggered.parse.module"),
            triggeredBefore);
}
