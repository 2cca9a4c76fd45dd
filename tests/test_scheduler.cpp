// DAG-scheduler stress tests: a 4x-duplicated Rodinia suite with a
// deterministic random per-module pipeline mix, compiled under
// --pm-threads={1,2,8} against one shared cache, repeatedly — asserting
// bit-for-bit output identity with a serial session, no deadlocks
// (a hang fails the ctest timeout), correct in-flight dedup across the
// duplicated modules, and raw TaskScheduler invariants (dynamic spawn,
// join counters, injection from outside the pool).
#include "driver/compiler.h"
#include "ir/printer.h"
#include "rodinia/rodinia.h"
#include "runtime/thread_pool.h"
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
/// duplicates share kernels (exercising in-flight dedup) while the mixed
/// pipelines split the batch into overlapping groups.
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
    // The duplicated modules must have deduplicated: strictly fewer
    // passes executed than (modules x passes) would take without dedup —
    // replays must dominate executions across the three runs.
    auto s = cache.stats();
    EXPECT_GT(s.passesReplayed, s.passesExecuted);
  }
}

TEST(SchedulerStressTest, FuturesResolveBeforeCompileAllReturns) {
  // Async batch: every future must resolve during the batch; with >1
  // module the first future resolves while the batch is still in flight
  // (asserted via the job-completion hook, which fires mid-batch under
  // the DAG scheduler).
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
// Raw TaskScheduler invariants
//===----------------------------------------------------------------------===//

TEST(TaskSchedulerTest, DynamicSpawnChainsAndJoinsDrainCompletely) {
  runtime::ThreadPool pool(4);
  runtime::TaskScheduler sched(&pool);
  std::atomic<int> leaves{0};
  std::atomic<int> joins{0};
  // 32 chains of depth 3; each tail fans into 4 leaves joined by a
  // last-finisher continuation — the DAG shapes scheduleBatch emits.
  for (int c = 0; c < 32; ++c) {
    sched.spawn([&, c](unsigned) {
      sched.spawn([&](unsigned) {
        sched.spawn([&](unsigned) {
          auto left = std::make_shared<std::atomic<int>>(4);
          for (int l = 0; l < 4; ++l)
            sched.spawn([&, left](unsigned) {
              leaves.fetch_add(1);
              if (left->fetch_sub(1) == 1)
                joins.fetch_add(1);
            });
        });
      });
    });
  }
  sched.run();
  EXPECT_EQ(leaves.load(), 32 * 4);
  EXPECT_EQ(joins.load(), 32);
  // A drained scheduler accepts and drains further work.
  std::atomic<int> more{0};
  for (int i = 0; i < 8; ++i)
    sched.spawn([&](unsigned) { more.fetch_add(1); });
  sched.run();
  EXPECT_EQ(more.load(), 8);
}

TEST(TaskSchedulerTest, SerialFallbackRunsDepthFirst) {
  // Without a pool the drain is deterministic and depth-first: a chain's
  // continuation runs before the next root task starts.
  runtime::TaskScheduler sched(nullptr);
  std::vector<int> order;
  for (int c = 0; c < 3; ++c)
    sched.spawn([&, c](unsigned) {
      order.push_back(c * 10);
      sched.spawn([&, c](unsigned) { order.push_back(c * 10 + 1); });
    });
  sched.run();
  ASSERT_EQ(order.size(), 6u);
  for (int c = 0; c < 3; ++c)
    EXPECT_EQ(order[2 * c] + 1, order[2 * c + 1]);
}
