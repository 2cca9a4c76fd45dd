// Scheduler stress tests: a 4x-duplicated Rodinia suite with a
// deterministic random per-module pipeline mix, compiled under
// --pm-threads={1,2,8} against one shared cache, repeatedly — asserting
// bit-for-bit output identity with a serial session, no deadlocks
// (a hang fails the ctest timeout), replay of the duplicated modules
// from the shared cache — and runtime::runTasks invariants (every index
// runs once, the serial fallback's order and thread, and per-task
// exception containment).
#include "driver/compiler.h"
#include "ir/printer.h"
#include "rodinia/rodinia.h"
#include "runtime/thread_pool.h"
#include "support/metrics.h"
#include "transforms/pass_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <random>

using namespace paralift;
using transforms::PipelineOptions;

namespace {

/// One queued module of the stress batch.
struct StressJob {
  std::string name;
  const char *source;
  PipelineOptions opts;
};

/// 4x duplicated suite with a seeded random pipeline mix per module —
/// duplicates share kernels (and so cache entries, probed and stored
/// concurrently) while the mixed pipelines split the batch into
/// overlapping groups.
std::vector<StressJob> stressJobs() {
  const PipelineOptions modes[] = {PipelineOptions{},
                                   PipelineOptions::optDisabled(),
                                   PipelineOptions::mcuda()};
  std::mt19937 rng(12345);
  std::vector<StressJob> jobs;
  for (int rep = 0; rep < 4; ++rep)
    for (const auto &b : rodinia::suite())
      jobs.push_back({b.id + "#" + std::to_string(rep), b.cudaSource,
                      modes[rng() % 3]});
  return jobs;
}

std::vector<std::string> compileStress(const std::vector<StressJob> &jobs,
                                       unsigned threads,
                                       transforms::PassResultCache *cache) {
  driver::SessionOptions so;
  so.threads = threads;
  so.cache = cache;
  so.useEnvCache = false;
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> handles;
  for (const StressJob &j : jobs)
    handles.push_back(&session.addSource(j.name, j.source, j.opts));
  EXPECT_TRUE(session.compileAll());
  std::vector<std::string> out;
  for (driver::CompileJob *h : handles) {
    EXPECT_TRUE(h->ok()) << h->name() << ": " << h->diagnostics().str();
    out.push_back(h->ok() ? ir::printOp(h->result().module.op())
                          : std::string());
  }
  return out;
}

} // namespace

TEST(SchedulerStressTest, DuplicatedSuiteMixedPipelinesMatchesSerial) {
  std::vector<StressJob> jobs = stressJobs();
  // Reference: a 1-thread session, fresh cache.
  transforms::PassResultCache refCache;
  std::vector<std::string> expected = compileStress(jobs, 1, &refCache);

  for (unsigned threads : {1u, 2u, 8u}) {
    // One shared cache per thread count, reused across repeated runs:
    // run 1 populates under contention, later runs replay under
    // contention. Any deadlock hangs the test past its ctest timeout.
    transforms::PassResultCache cache;
    for (int run = 0; run < 3; ++run) {
      std::vector<std::string> got = compileStress(jobs, threads, &cache);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i)
        EXPECT_EQ(got[i], expected[i])
            << "threads=" << threads << " run=" << run << " " << jobs[i].name;
    }
    // The duplicated modules share cache entries: replays must dominate
    // executions across the three runs.
    auto s = cache.stats();
    EXPECT_GT(s.passesReplayed, s.passesExecuted);
  }
}

TEST(SchedulerStressTest, FuturesResolveBeforeCompileAllReturns) {
  // Async batch: every future must resolve during the batch; with >1
  // module the first future resolves while the batch is still in flight
  // (asserted via the job-completion hook, which fires mid-batch as each
  // job's task completes).
  std::vector<StressJob> jobs = stressJobs();
  transforms::PassResultCache cache;
  driver::SessionOptions so;
  so.threads = 8;
  so.cache = &cache;
  so.useEnvCache = false;
  std::atomic<int> completions{0};
  std::atomic<uint64_t> executedAtFirst{~0ull};
  so.onJobCompleted = [&](driver::CompileJob &) {
    if (completions.fetch_add(1) == 0)
      executedAtFirst = cache.stats().passesExecuted;
  };
  driver::CompilerSession session(std::move(so));
  std::vector<driver::CompileJob *> handles;
  for (const StressJob &j : jobs)
    handles.push_back(&session.addSource(j.name, j.source, j.opts));
  session.compileAllAsync();
  // Futures are usable (in any order) while the batch runs.
  for (auto it = handles.rbegin(); it != handles.rend(); ++it) {
    (*it)->wait();
    EXPECT_TRUE((*it)->ok()) << (*it)->diagnostics().str();
  }
  EXPECT_TRUE(session.wait());
  EXPECT_EQ(completions.load(), static_cast<int>(handles.size()));
  // The first completion observed an unfinished batch.
  EXPECT_LT(executedAtFirst.load(), cache.stats().passesExecuted);
}

//===----------------------------------------------------------------------===//
// runTasks invariants
//===----------------------------------------------------------------------===//

TEST(RunTasksTest, EveryIndexRunsExactlyOnce) {
  for (unsigned threads : {0u, 1u, 2u, 8u}) { // 0: no pool
    std::unique_ptr<runtime::ThreadPool> pool;
    if (threads)
      pool = std::make_unique<runtime::ThreadPool>(threads);
    for (size_t n : {size_t(0), size_t(1), size_t(64)}) {
      std::vector<std::atomic<int>> runs(n);
      runtime::runTasks(pool.get(), n,
                        [&](size_t i) { runs[i].fetch_add(1); });
      for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(runs[i].load(), 1)
            << "threads=" << threads << " n=" << n << " index " << i;
    }
  }
}

TEST(RunTasksTest, SerialFallbackRunsInIndexOrderOnTheCaller) {
  // Each case runs 16 tasks and reports the order they ran in and
  // whether all of them ran on the calling thread.
  auto runSerial = [](runtime::ThreadPool *pool) {
    std::thread::id caller = std::this_thread::get_id();
    std::vector<size_t> order;
    bool onCaller = true;
    runtime::runTasks(pool, 16, [&](size_t i) {
      order.push_back(i);
      onCaller = onCaller && std::this_thread::get_id() == caller;
    });
    EXPECT_TRUE(onCaller);
    return order;
  };
  std::vector<size_t> expected(16);
  for (size_t i = 0; i < expected.size(); ++i)
    expected[i] = i;

  EXPECT_EQ(runSerial(nullptr), expected);
  runtime::ThreadPool one(1);
  EXPECT_EQ(runSerial(&one), expected);
  // Inside a parallel region every member runs its own serial loop.
  runtime::ThreadPool four(4);
  std::vector<std::vector<size_t>> nested(4);
  four.parallel([&](unsigned tid, runtime::Team &) {
    nested[tid] = runSerial(&four);
  });
  for (const auto &order : nested)
    EXPECT_EQ(order, expected);
}

TEST(RunTasksTest, ThrowingTaskIsCountedAndTheRestStillRun) {
  auto &reg = metrics::MetricsRegistry::instance();
  runtime::ThreadPool pool(4);
  for (runtime::ThreadPool *p : {static_cast<runtime::ThreadPool *>(nullptr),
                                 &pool}) {
    uint64_t exceptionsBefore = reg.counterValue("scheduler.task_exceptions");
    uint64_t tasksBefore = reg.counterValue("scheduler.tasks");
    std::vector<std::atomic<int>> runs(32);
    runtime::runTasks(p, runs.size(), [&](size_t i) {
      runs[i].fetch_add(1);
      if (i % 8 == 3)
        throw std::runtime_error("task failed");
    });
    for (size_t i = 0; i < runs.size(); ++i)
      EXPECT_EQ(runs[i].load(), 1) << "index " << i;
    EXPECT_EQ(reg.counterValue("scheduler.task_exceptions") - exceptionsBefore,
              4u);
    EXPECT_EQ(reg.counterValue("scheduler.tasks") - tasksBefore, 32u);
  }
}
