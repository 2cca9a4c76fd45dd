// CPU execution runtime: a persistent worker pool with OpenMP-like teams.
//
// A "team" executes one parallel region: the calling thread becomes team
// member 0 and pool workers join as members 1..n-1. Teams own a
// std::barrier used to implement omp.barrier. Nested parallel regions
// follow a configurable policy: Serialize (team of one — the paper's
// inner-serialization mode) or Spawn (fresh std::threads, reproducing the
// real cost of OpenMP nested parallelism that Fig. 12 measures).
#pragma once

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace paralift::runtime {

/// Execution context of one parallel region.
class Team {
public:
  explicit Team(unsigned size) : size_(size), barrier_(size) {}

  unsigned size() const { return size_; }
  /// Blocks until all team members arrive (omp.barrier semantics).
  void barrier() { barrier_.arrive_and_wait(); }

private:
  unsigned size_;
  std::barrier<> barrier_;
};

enum class NestedPolicy { Serialize, Spawn };

/// Work item run by each team member: fn(tid, team).
using TeamFn = std::function<void(unsigned, Team &)>;

class ThreadPool {
public:
  /// Creates `maxThreads - 1` persistent workers (the caller is the
  /// remaining member of every top-level team).
  explicit ThreadPool(unsigned maxThreads);
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Team size used for subsequent top-level parallel regions. Clamped to
  /// the pool capacity.
  void setNumThreads(unsigned n);
  unsigned numThreads() const { return teamSize_; }
  unsigned capacity() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  void setNestedPolicy(NestedPolicy p) { nested_ = p; }
  NestedPolicy nestedPolicy() const { return nested_; }

  /// Executes `fn` on a team. Called from the application thread this uses
  /// the persistent workers; called from inside a team (nested region), it
  /// applies the nested policy.
  void parallel(const TeamFn &fn);

  /// True when invoked from a pool worker or a spawned nested thread.
  static bool insideParallel();

private:
  void workerLoop(unsigned workerIdx);
  void runNested(const TeamFn &fn);

  struct Job {
    const TeamFn *fn = nullptr;
    Team *team = nullptr;
    unsigned participants = 0; // workers used by this job
  };

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable doneCv_;
  Job job_;
  uint64_t generation_ = 0;
  unsigned running_ = 0;
  bool shutdown_ = false;
  unsigned teamSize_;
  NestedPolicy nested_ = NestedPolicy::Serialize;
};

/// Dynamic work-stealing task scheduler for dependency-DAG workloads.
/// Tasks are closures spawned either before run() or from inside running
/// tasks; dependency edges are expressed by the producer spawning the
/// successor when its predecessors complete (the last-finisher-spawns
/// pattern), so there is no static edge table to size up front and the
/// graph can grow as work is discovered. The compile batch
/// (PassManager::scheduleBatch) is its main user and the simplest
/// shape: one task per module, all spawned from outside the pool before
/// run(), none of which spawns another — so its tasks all pass through
/// the injection queue below.
///
/// Scheduling: each worker owns a deque. Own work is pushed and popped
/// LIFO — a chain of continuations runs depth-first on one worker,
/// keeping its data cache-hot and completing whole jobs early instead of
/// breadth-first last. Other workers steal FIFO, taking the oldest
/// queued task. External spawns land in a shared injection queue
/// consumed before stealing. Idle workers sleep on a condition variable
/// with a short timed wait (the timeout makes a lost wakeup cost a
/// millisecond, never a hang), and run() returns once every spawned
/// task — including transitively spawned ones — has finished.
class TaskScheduler {
public:
  /// A unit of work; receives the executing worker's index in
  /// [0, workers()).
  using Task = std::function<void(unsigned worker)>;

  /// Schedules onto `pool` (every member of one team drains the graph
  /// together). A null pool, a one-thread pool, or a caller already
  /// inside a parallel region degrade to draining every task on the
  /// calling thread (depth-first, deterministic).
  explicit TaskScheduler(ThreadPool *pool);

  /// Enqueues a task. Thread-safe; callable before run() and from inside
  /// running tasks (which is how DAG edges are expressed).
  void spawn(Task task);

  /// Runs tasks until none are pending, then returns. Not reentrant; may
  /// be called repeatedly after spawning more work.
  void run();

  /// Worker count run() will use (1 in the serial fallback).
  unsigned workers() const { return workers_; }

  /// Scheduling introspection, accumulated over this scheduler's
  /// lifetime. The same figures feed the process-wide MetricsRegistry
  /// ("scheduler.*"), where they aggregate across schedulers.
  struct Stats {
    uint64_t tasksExecuted = 0;  ///< tasks run to completion
    uint64_t steals = 0;         ///< takes from a sibling's deque
    uint64_t injects = 0;        ///< spawns from outside any worker
    uint64_t parks = 0;          ///< idle waits on the condition variable
    uint64_t idleWakeups = 0;    ///< parks that woke to find work
    uint64_t taskExceptions = 0; ///< tasks that exited via exception
  };
  Stats stats() const;

  /// Last-line containment: a task lambda that exits via exception is
  /// swallowed here (counted in Stats::taskExceptions and the
  /// "scheduler.task_exceptions" metric) instead of unwinding into the
  /// worker loop and calling std::terminate. Failure *attribution* is the
  /// spawner's job — batch tasks catch at the job boundary and record a
  /// diagnostic; this hook only guarantees the scheduler and its pending
  /// count survive a missed catch. The handler runs on the throwing
  /// worker with the exception message (or "" for non-std exceptions).
  void setExceptionHandler(std::function<void(const char *)> handler) {
    onTaskException_ = std::move(handler);
  }

private:
  struct WorkerQueue {
    std::mutex mutex;
    std::deque<Task> tasks;
  };

  bool tryTake(unsigned self, Task &out, bool &stolen);
  void workerLoop(unsigned self);

  ThreadPool *pool_;
  unsigned workers_;
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::mutex injectMutex_;
  std::condition_variable idleCv_;
  std::deque<Task> inject_;
  /// Tasks spawned but not yet completed; 0 means the graph is drained
  /// (running tasks hold their own count until they return, so 0 is
  /// stable).
  std::atomic<size_t> pending_{0};

  std::atomic<uint64_t> tasksExecuted_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> injects_{0};
  std::atomic<uint64_t> parks_{0};
  std::atomic<uint64_t> idleWakeups_{0};
  std::atomic<uint64_t> taskExceptions_{0};
  std::function<void(const char *)> onTaskException_;
};

/// A serial dispatch queue in the style of Grand Central Dispatch, used by
/// the MocCUDA CUDART layer to emulate CUDA streams (§V-B): work items
/// execute asynchronously but in FIFO order; sync() waits for drain.
class DispatchQueue {
public:
  DispatchQueue();
  ~DispatchQueue();
  DispatchQueue(const DispatchQueue &) = delete;
  DispatchQueue &operator=(const DispatchQueue &) = delete;

  /// Enqueues a task; returns immediately.
  void async(std::function<void()> task);
  /// Blocks until every previously enqueued task has finished.
  void sync();

private:
  void loop();

  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable idleCv_;
  std::vector<std::function<void()>> tasks_;
  bool busy_ = false;
  bool shutdown_ = false;
  // Declared last (and started in the constructor body) so the worker
  // can never observe partially constructed synchronization state.
  std::thread worker_;
};

} // namespace paralift::runtime
