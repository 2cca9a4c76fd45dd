// CompilerSession tests: N-module Rodinia batches under a threaded pool
// and one shared cache are result-identical to serial one-shot compiles
// (in every pipeline mode), job-level failure isolation (one bad module
// doesn't poison the session), double-compileAll idempotence, async
// futures, Simt mode parity with compileForSimt, per-module diagnostic
// attribution, shared-cache replay across sessions (a warm source batch
// runs no frontend), and one scheduler task per module.
#include "driver/compiler.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "rodinia/rodinia.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "transforms/pass_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>

using namespace paralift;
using transforms::PipelineOptions;

namespace {

driver::SessionOptions batchOptions(unsigned threads,
                                    transforms::PassResultCache *cache) {
  driver::SessionOptions so;
  so.threads = threads;
  so.cache = cache;
  so.useEnvCache = false; // results must not depend on the environment
  return so;
}

/// Serial one-shot reference compile (no cache, not even
/// $PARALIFT_CACHE_DIR's, and no pool).
std::string serialReference(const std::string &source,
                            const PipelineOptions &opts) {
  driver::CompilerSession session(batchOptions(1, nullptr));
  driver::CompileJob &job = session.addSource("", source, opts);
  session.compileAll();
  EXPECT_TRUE(job.ok()) << job.diagnostics().str();
  return ir::printOp(job.result().module.op());
}

/// A module whose cpuify hard-errors (barrier outside any parallel
/// nest), flanked by healthy functions in other jobs.
const char *kBadModule = R"(module {
  func {sym_name = "bad", res_types = []} {
    polygeist.barrier
    return
  }
})";

const char *kGoodModule = R"(module {
  func {sym_name = "fine", res_types = []} {
    [%0: memref<?xf32>]:
    %1 = const.int {value = 0} : index
    %2 = const.float {value = 2.0} : f32
    memref.store(%2, %0, %1)
    return
  }
})";

ir::OwnedModule parseOk(const std::string &text) {
  DiagnosticEngine diag;
  auto m = ir::parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  return std::move(*m);
}

/// CUDA-subset source with six host functions, each launching its own
/// kernel: six functions per module after the frontend.
std::string sixKernelSource() {
  std::string src;
  for (int k = 0; k < 6; ++k) {
    std::string n = std::to_string(k);
    src += "__global__ void kern" + n + "(float* a, int n) {\n"
           "  int i = blockIdx.x * blockDim.x + threadIdx.x;\n"
           "  if (i < n) a[i] = a[i] * " + std::to_string(k + 2) + ".0f;\n"
           "}\n"
           "void launch" + n + "(float* a, int n) {\n"
           "  kern" + n + "<<<(n + 63) / 64, 64>>>(a, n);\n"
           "}\n";
  }
  return src;
}

} // namespace

//===----------------------------------------------------------------------===//
// Batch == serial (the acceptance contract)
//===----------------------------------------------------------------------===//

TEST(SessionBatchTest, RodiniaBatchMatchesSerialAllModes) {
  // The golden contract: a 4-thread DAG batch is bit-for-bit identical
  // to serial one-shot compiles, in every pipeline mode — so the DAG
  // reordering is unobservable in outputs.
  struct Mode {
    const char *name;
    PipelineOptions opts;
  };
  const Mode modes[] = {{"full", PipelineOptions{}},
                        {"optDisabled", PipelineOptions::optDisabled()},
                        {"mcuda", PipelineOptions::mcuda()}};
  for (const Mode &mode : modes) {
    std::vector<std::string> expected;
    for (const auto &b : rodinia::suite())
      expected.push_back(serialReference(b.cudaSource, mode.opts));

    // The whole suite as one batch: threaded pool, one shared cache.
    transforms::PassResultCache cache;
    driver::CompilerSession session(batchOptions(/*threads=*/4, &cache));
    std::vector<driver::CompileJob *> jobs;
    for (const auto &b : rodinia::suite())
      jobs.push_back(&session.addSource(b.id, b.cudaSource, mode.opts));
    EXPECT_TRUE(session.compileAll()) << mode.name;

    size_t i = 0;
    for (const auto &b : rodinia::suite()) {
      ASSERT_TRUE(jobs[i]->ok()) << mode.name << "/" << b.id << ": "
                                 << jobs[i]->diagnostics().str();
      EXPECT_EQ(ir::printOp(jobs[i]->result().module.op()), expected[i])
          << mode.name << "/" << b.id;
      ++i;
    }
  }
}

TEST(SessionBatchTest, MixedPipelineGroupsInOneSession) {
  // Jobs with different PipelineOptions batch into separate groups but
  // live in one session; each matches its serial reference.
  const auto &b = rodinia::suite().front();
  std::string fullRef = serialReference(b.cudaSource, PipelineOptions{});
  std::string mcudaRef =
      serialReference(b.cudaSource, PipelineOptions::mcuda());

  driver::CompilerSession session(batchOptions(2, nullptr));
  auto &full = session.addSource("full", b.cudaSource, PipelineOptions{});
  auto &mcuda =
      session.addSource("mcuda", b.cudaSource, PipelineOptions::mcuda());
  auto &full2 = session.addSource("full2", b.cudaSource, PipelineOptions{});
  EXPECT_TRUE(session.compileAll());
  EXPECT_EQ(ir::printOp(full.result().module.op()), fullRef);
  EXPECT_EQ(ir::printOp(full2.result().module.op()), fullRef);
  EXPECT_EQ(ir::printOp(mcuda.result().module.op()), mcudaRef);
}

TEST(SessionBatchTest, SharedCacheReplaysAcrossSessions) {
  transforms::PassResultCache cache;
  std::vector<std::string> first;
  {
    driver::CompilerSession session(batchOptions(4, &cache));
    for (const auto &b : rodinia::suite())
      session.addSource(b.id, b.cudaSource, PipelineOptions{});
    ASSERT_TRUE(session.compileAll());
    for (size_t i = 0; i < session.jobCount(); ++i)
      first.push_back(
          ir::printOp(session.job(i).result().module.op()));
  }
  auto populated = cache.stats();
  EXPECT_GT(populated.stores, 0u);

  // Second session against the same cache: replays, executes nothing
  // new, and reproduces the first session's output bit-for-bit.
  driver::CompilerSession session(batchOptions(4, &cache));
  for (const auto &b : rodinia::suite())
    session.addSource(b.id, b.cudaSource, PipelineOptions{});
  ASSERT_TRUE(session.compileAll());
  auto warmed = cache.stats();
  EXPECT_GT(warmed.passesReplayed, populated.passesReplayed);
  EXPECT_EQ(warmed.passesExecuted, populated.passesExecuted);
  for (size_t i = 0; i < session.jobCount(); ++i)
    EXPECT_EQ(ir::printOp(session.job(i).result().module.op()), first[i]);
}

TEST(SessionBatchTest, WarmSourceBatchRunsNoFrontend) {
  // Source jobs key on their text before the frontend runs. A 64-job
  // batch (the Rodinia sources through four pipelines) fills a disk
  // cache; the same batch over a fresh cache instance on that directory,
  // as a second process would open it, replays every job from disk: no
  // frontend parse span, no executed pass, and the cold batch's IR.
  PipelineOptions innerPar;
  innerPar.innerSerialize = false;
  const PipelineOptions pipelines[] = {PipelineOptions{}, innerPar,
                                       PipelineOptions::optDisabled(),
                                       PipelineOptions::mcuda()};
  const size_t jobCount = rodinia::suite().size() * std::size(pipelines);
  auto batch = [&](transforms::PassResultCache &cache) {
    driver::CompilerSession session(batchOptions(4, &cache));
    std::vector<driver::CompileJob *> jobs;
    for (const auto &b : rodinia::suite())
      for (const PipelineOptions &p : pipelines)
        jobs.push_back(&session.addSource(b.id, b.cudaSource, p));
    EXPECT_TRUE(session.compileAll());
    std::vector<std::string> out;
    for (driver::CompileJob *job : jobs)
      out.push_back(ir::printOp(job->result().module.op()));
    return out;
  };
  auto parseSpans = [] {
    const std::string text = trace::json();
    size_t n = 0;
    for (size_t at = 0;
         (at = text.find("\"name\":\"parse:", at)) != std::string::npos;
         ++at)
      ++n;
    return n;
  };
  auto dir = std::filesystem::temp_directory_path() /
             ("paralift-session-warm-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  trace::enable();
  size_t spansBefore = parseSpans();
  std::vector<std::string> cold;
  transforms::PassResultCache::StatsSnapshot filled;
  {
    transforms::PassResultCache cache(dir.string());
    cold = batch(cache);
    filled = cache.stats();
  }
  size_t spansCold = parseSpans();
  transforms::PassResultCache cache(dir.string());
  std::vector<std::string> warm = batch(cache);
  size_t spansWarm = parseSpans();
  trace::disable();
  EXPECT_EQ(filled.misses, jobCount);
  EXPECT_EQ(filled.stores, 2 * jobCount); // source key and module key
  EXPECT_EQ(spansCold - spansBefore, jobCount);
  EXPECT_EQ(spansWarm, spansCold) << "a warm job ran its frontend";
  auto s = cache.stats();
  EXPECT_EQ(s.hits, jobCount);
  EXPECT_EQ(s.diskHits, jobCount);
  EXPECT_EQ(s.passesExecuted, 0u);
  EXPECT_EQ(s.passesReplayed, filled.passesExecuted);
  EXPECT_EQ(warm, cold);
  std::filesystem::remove_all(dir);
}

TEST(SessionBatchTest, ParallelKeyingMatchesSerialKeying) {
  // Keys produced by module tasks on a 4-thread pool must be identical
  // to serial keying: a cache populated by a 1-thread session
  // must replay a 4-thread session without a single new miss or executed
  // pass, and vice versa. A keying divergence in either direction would
  // surface as misses.
  for (bool threadedFirst : {false, true}) {
    transforms::PassResultCache cache;
    {
      driver::CompilerSession session(
          batchOptions(threadedFirst ? 4u : 1u, &cache));
      for (const auto &b : rodinia::suite())
        session.addSource(b.id, b.cudaSource, PipelineOptions{});
      ASSERT_TRUE(session.compileAll());
    }
    auto populated = cache.stats();
    driver::CompilerSession session(
        batchOptions(threadedFirst ? 1u : 4u, &cache));
    for (const auto &b : rodinia::suite())
      session.addSource(b.id, b.cudaSource, PipelineOptions{});
    ASSERT_TRUE(session.compileAll());
    auto warmed = cache.stats();
    EXPECT_EQ(warmed.misses, populated.misses)
        << "threadedFirst=" << threadedFirst;
    EXPECT_EQ(warmed.passesExecuted, populated.passesExecuted)
        << "threadedFirst=" << threadedFirst;
    EXPECT_GT(warmed.passesReplayed, populated.passesReplayed);
  }
}

TEST(SessionBatchTest, HookOutputIsJobOrderedAndThreadCountIndependent) {
  // configurePassManager hooks fire inside the DAG; a hooked session
  // drains on the calling thread, so printed IR comes out whole per
  // module, in job order, and byte-identical for any pool size. Timing
  // rides the same graph, so its rows are attributed to their jobs.
  const auto &suite = rodinia::suite();
  auto printed = [&](unsigned threads, size_t first, size_t count) {
    char *buf = nullptr;
    size_t size = 0;
    std::FILE *mem = open_memstream(&buf, &size);
    EXPECT_NE(mem, nullptr);
    driver::SessionOptions so = batchOptions(threads, nullptr);
    so.collectTiming = true;
    so.configurePassManager = [mem](transforms::PassManager &pm) {
      pm.enableIRPrinting(/*before=*/false, /*after=*/true, "cpuify", mem);
    };
    {
      driver::CompilerSession session(std::move(so));
      std::vector<std::string> jobOrder;
      for (size_t i = first; i < first + count; ++i) {
        session.addSource(suite[i].id, suite[i].cudaSource);
        jobOrder.push_back(suite[i].id);
      }
      EXPECT_TRUE(session.compileAll());
      std::vector<std::string> timedOrder;
      for (const auto &r : session.timingReport().records)
        if (timedOrder.empty() || timedOrder.back() != r.module)
          timedOrder.push_back(r.module);
      EXPECT_EQ(timedOrder, jobOrder);
    }
    std::fclose(mem);
    std::string out(buf, size);
    std::free(buf);
    return out;
  };
  std::string serial = printed(1, 0, 3);
  EXPECT_NE(serial.find("IR after pass 'cpuify"), std::string::npos);
  EXPECT_EQ(printed(4, 0, 3), serial);
  // Job order, one module at a time: the batch prints exactly what the
  // three jobs print compiled one by one.
  EXPECT_EQ(printed(1, 0, 1) + printed(1, 1, 1) + printed(1, 2, 1), serial);
}

TEST(SessionBatchTest, OneTaskPerModule) {
  // The module is the unit of compile parallelism: however many
  // functions a module holds, its pipeline runs on one scheduler task,
  // no lookup waits on another module's computation, and the outputs
  // equal a 1-thread session's.
  const std::string src = sixKernelSource();
  auto compile = [&](unsigned threads, transforms::PassResultCache &cache) {
    driver::CompilerSession session(batchOptions(threads, &cache));
    std::vector<driver::CompileJob *> jobs;
    for (int j = 0; j < 3; ++j)
      jobs.push_back(&session.addSource("six" + std::to_string(j), src));
    EXPECT_TRUE(session.compileAll());
    std::vector<std::string> out;
    for (driver::CompileJob *job : jobs)
      out.push_back(ir::printOp(job->result().module.op()));
    return out;
  };
  transforms::PassResultCache serialCache;
  std::vector<std::string> serial = compile(1, serialCache);

  auto &reg = metrics::MetricsRegistry::instance();
  transforms::PassResultCache cache;
  uint64_t tasksBefore = reg.counterValue("scheduler.tasks");
  std::vector<std::string> threaded = compile(4, cache);
  EXPECT_EQ(reg.counterValue("scheduler.tasks") - tasksBefore, 3u);
  EXPECT_EQ(cache.stats().waits, 0u);
  EXPECT_EQ(threaded, serial);
}

//===----------------------------------------------------------------------===//
// Failure isolation
//===----------------------------------------------------------------------===//

TEST(SessionIsolationTest, OneBadModuleDoesNotPoisonTheBatch) {
  std::string goodRef;
  {
    driver::CompilerSession ref(batchOptions(1, nullptr));
    auto &job = ref.addModule("ref", parseOk(kGoodModule));
    ASSERT_TRUE(ref.compileAll());
    goodRef = ir::printOp(job.result().module.op());
  }

  driver::CompilerSession session(batchOptions(4, nullptr));
  auto &good1 = session.addModule("good1.ir", parseOk(kGoodModule));
  auto &bad = session.addModule("bad.ir", parseOk(kBadModule));
  auto &good2 = session.addModule("good2.ir", parseOk(kGoodModule));
  EXPECT_FALSE(session.compileAll());

  EXPECT_FALSE(bad.ok());
  EXPECT_NE(bad.diagnostics().str().find(
                "barrier outside thread-parallel loop"),
            std::string::npos)
      << bad.diagnostics().str();
  EXPECT_TRUE(good1.ok()) << good1.diagnostics().str();
  EXPECT_TRUE(good2.ok()) << good2.diagnostics().str();
  EXPECT_EQ(ir::printOp(good1.result().module.op()), goodRef);
  EXPECT_EQ(ir::printOp(good2.result().module.op()), goodRef);
}

TEST(SessionIsolationTest, FrontendFailureIsolatesToo) {
  const auto &b = rodinia::suite().front();
  driver::CompilerSession session(batchOptions(2, nullptr));
  auto &bad = session.addSource("broken.cu", "void f() { x = 1; }");
  auto &good = session.addSource("ok.cu", b.cudaSource);
  EXPECT_FALSE(session.compileAll());
  EXPECT_FALSE(bad.ok());
  EXPECT_TRUE(bad.diagnostics().hasErrors());
  EXPECT_TRUE(good.ok()) << good.diagnostics().str();
}

//===----------------------------------------------------------------------===//
// compileAll semantics
//===----------------------------------------------------------------------===//

TEST(SessionTest, DoubleCompileAllIsIdempotent) {
  const auto &b = rodinia::suite().front();
  driver::CompilerSession session(batchOptions(2, nullptr));
  auto &j1 = session.addSource("a", b.cudaSource);
  auto &j2 = session.addSource("b", b.cudaSource);
  ASSERT_TRUE(session.compileAll());
  std::string out1 = ir::printOp(j1.result().module.op());
  std::string out2 = ir::printOp(j2.result().module.op());
  ir::Op *raw1 = j1.result().module.op();

  // Second compileAll: nothing recompiles, results (and the module
  // objects themselves) are untouched.
  EXPECT_TRUE(session.compileAll());
  EXPECT_EQ(j1.result().module.op(), raw1);
  EXPECT_EQ(ir::printOp(j1.result().module.op()), out1);
  EXPECT_EQ(ir::printOp(j2.result().module.op()), out2);
}

TEST(SessionTest, JobsAddedAfterCompileAllJoinTheNextBatch) {
  const auto &b = rodinia::suite().front();
  driver::CompilerSession session(batchOptions(1, nullptr));
  auto &j1 = session.addSource("first", b.cudaSource);
  ASSERT_TRUE(session.compileAll());
  EXPECT_TRUE(j1.ok());

  auto &j2 = session.addSource("second", b.cudaSource);
  EXPECT_FALSE(session.ok()); // second not compiled yet
  ASSERT_TRUE(session.compileAll());
  EXPECT_TRUE(j2.ok());
  EXPECT_EQ(ir::printOp(j1.result().module.op()),
            ir::printOp(j2.result().module.op()));
}

TEST(SessionTest, AsyncCompileAllAndFutures) {
  transforms::PassResultCache cache;
  driver::CompilerSession session(batchOptions(2, &cache));
  std::vector<driver::CompileJob *> jobs;
  for (const auto &b : rodinia::suite())
    jobs.push_back(&session.addSource(b.id, b.cudaSource));
  session.compileAllAsync();
  // Futures: block per job, in any order.
  for (auto it = jobs.rbegin(); it != jobs.rend(); ++it) {
    (*it)->wait();
    EXPECT_TRUE((*it)->ok()) << (*it)->diagnostics().str();
  }
  EXPECT_TRUE(session.wait());
  EXPECT_TRUE(session.ok());
}

TEST(SessionTest, FuturesResolveIncrementallyUnderDag) {
  // Completion-order probe: a job is marked done the moment its own task
  // completes. With threads=1 the tasks run one after another, so the
  // first job observably resolves while other modules still have passes
  // left to execute — the cache's passes-executed counter at that
  // instant must be short of its final value.
  transforms::PassResultCache cache;
  driver::SessionOptions so = batchOptions(1, &cache);
  std::atomic<uint64_t> executedAtFirstCompletion{0};
  std::atomic<int> completions{0};
  so.onJobCompleted = [&](driver::CompileJob &) {
    if (completions.fetch_add(1) == 0)
      executedAtFirstCompletion = cache.stats().passesExecuted;
  };
  driver::CompilerSession session(std::move(so));
  for (const auto &b : rodinia::suite())
    session.addSource(b.id, b.cudaSource);
  ASSERT_TRUE(session.compileAll());
  EXPECT_EQ(completions.load(), static_cast<int>(session.jobCount()));
  EXPECT_GT(executedAtFirstCompletion.load(), 0u);
  EXPECT_LT(executedAtFirstCompletion.load(),
            cache.stats().passesExecuted);
  // Latency stamps are populated and bounded by the batch.
  for (size_t i = 0; i < session.jobCount(); ++i)
    EXPECT_GE(session.job(i).latencySeconds(), 0.0);
}

//===----------------------------------------------------------------------===//
// Modes and attribution
//===----------------------------------------------------------------------===//

TEST(SessionTest, SimtModeMatchesCompileForSimt) {
  driver::SessionOptions so = batchOptions(2, nullptr);
  so.mode = driver::SessionMode::Simt;
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> jobs;
  for (const auto &b : rodinia::suite())
    jobs.push_back(&session.addSource(b.id, b.cudaSource));
  ASSERT_TRUE(session.compileAll());
  size_t i = 0;
  for (const auto &b : rodinia::suite()) {
    DiagnosticEngine diag;
    auto ref = driver::compileForSimt(b.cudaSource, diag);
    ASSERT_TRUE(ref.ok) << b.id << ": " << diag.str();
    EXPECT_EQ(ir::printOp(jobs[i]->result().module.op()),
              ir::printOp(ref.module.op()))
        << b.id;
    ++i;
  }
}

TEST(SessionTest, DiagnosticsCarryModuleName) {
  driver::CompilerSession session(batchOptions(2, nullptr));
  auto &bad1 = session.addSource("alpha.cu", "void f() { x = 1; }");
  auto &bad2 = session.addSource("beta.cu", "int f() { return y + 1; }");
  EXPECT_FALSE(session.compileAll());
  EXPECT_NE(bad1.diagnostics().str().find("alpha.cu:"), std::string::npos)
      << bad1.diagnostics().str();
  EXPECT_NE(bad2.diagnostics().str().find("beta.cu:"), std::string::npos)
      << bad2.diagnostics().str();
  // Attribution must not bleed across jobs.
  EXPECT_EQ(bad1.diagnostics().str().find("beta.cu:"), std::string::npos);
}

TEST(SessionTest, LegacyWrapperStillUnprefixed) {
  // The one-shot wrappers keep their pre-session diagnostic format (no
  // module prefix) so existing embedders' error matching is unaffected.
  DiagnosticEngine diag;
  auto cc = driver::compile("void f() { x = 1; }", PipelineOptions{}, diag);
  EXPECT_FALSE(cc.ok);
  ASSERT_TRUE(diag.hasErrors());
  for (const auto &d : diag.diagnostics())
    EXPECT_TRUE(d.module.empty()) << d.str();
}

TEST(SessionTest, CompileAllSweepsTheDiskLimit) {
  // A long-lived session must stay within --cache-limit after every
  // batch, not only at shutdown: compileAll itself sweeps.
  auto dir = std::filesystem::temp_directory_path() /
             ("paralift-session-evict-" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  const uint64_t limit = 2048;
  uint64_t total = 0;
  {
    driver::SessionOptions so;
    so.threads = 1;
    so.useEnvCache = false;
    so.cacheDir = dir.string();
    driver::CompilerSession session(so);
    ASSERT_NE(session.cache(), nullptr);
    session.cache()->setDiskLimitBytes(limit);
    for (const auto &b : rodinia::suite())
      session.addSource(b.id, b.cudaSource);
    ASSERT_TRUE(session.compileAll());
    EXPECT_GT(session.cache()->stats().stores, 0u);
    // Session still alive — the bound must hold here already.
    for (const auto &e : std::filesystem::directory_iterator(dir))
      total += std::filesystem::file_size(e.path());
    EXPECT_LE(total, limit);
  }
  std::filesystem::remove_all(dir);
}

TEST(SessionTest, SessionTimingAggregatesAcrossBatch) {
  // Each task records its own module's timing rows, and the batch appends
  // them in task order; the tasks share the pass objects and their
  // statistics counters. So the (module, spec) rows and the statistics
  // are the same at any thread count.
  struct Run {
    std::vector<std::pair<std::string, std::string>> rows;
    std::string stats;
  };
  auto runSession = [](unsigned threads, driver::SessionMode mode) {
    driver::SessionOptions so = batchOptions(threads, nullptr);
    so.mode = mode;
    so.collectTiming = true;
    so.collectStatistics = true;
    driver::CompilerSession session(std::move(so));
    for (const auto &b : rodinia::suite())
      session.addSource(b.id, b.cudaSource);
    EXPECT_TRUE(session.compileAll());
    Run run;
    // One record per executed (module, pass) step, attributed to its job.
    for (const auto &r : session.timingReport().records) {
      EXPECT_GE(r.seconds, 0.0);
      EXPECT_FALSE(r.module.empty());
      run.rows.emplace_back(r.module, r.spec);
    }
    run.stats = session.statisticsStr();
    return run;
  };
  Run serial = runSession(1, driver::SessionMode::Optimize);
  Run threaded = runSession(4, driver::SessionMode::Optimize);
  ASSERT_FALSE(serial.rows.empty());
  EXPECT_EQ(threaded.rows, serial.rows);
  EXPECT_NE(serial.stats.find("Pass statistics"), std::string::npos);
  EXPECT_EQ(threaded.stats, serial.stats);
  // Simt mode is the one-pass pipeline: one row per job.
  Run simt = runSession(4, driver::SessionMode::Simt);
  const auto &suite = rodinia::suite();
  const std::string inlineSpec = "inline{kernels-only=true}";
  ASSERT_EQ(simt.rows.size(), suite.size());
  for (size_t i = 0; i < suite.size(); ++i)
    EXPECT_EQ(simt.rows[i], std::make_pair(suite[i].id, inlineSpec));
}
