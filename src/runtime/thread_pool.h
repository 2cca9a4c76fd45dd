// CPU execution runtime: a persistent worker pool with OpenMP-like teams.
//
// A "team" executes one parallel region: the calling thread becomes team
// member 0 and pool workers join as members 1..n-1. Teams own a
// std::barrier used to implement omp.barrier. Nested parallel regions
// follow a configurable policy: Serialize (team of one — the paper's
// inner-serialization mode) or Spawn (fresh std::threads, reproducing the
// real cost of OpenMP nested parallelism that Fig. 12 measures).
//
// runTasks runs a list of independent tasks as one parallel loop on a
// team; the compile session runs each batch's module tasks through it.
#pragma once

#include <barrier>
#include <condition_variable>
#include <functional>
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

  /// parallel(), with a throw contained in the member that threw (it must
  /// not unwind into a worker's loop, where it would call
  /// std::terminate): once the team has joined, the first member's
  /// exception message is thrown on the calling thread as a
  /// std::runtime_error. The VM and the native tier run omp.parallel
  /// regions through it.
  void parallelContained(const TeamFn &fn);

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

/// Runs task(0) .. task(n-1) as one fork-join parallel loop on a team of
/// `pool`: each member takes the next index from one shared counter until
/// none is left, and the call returns when every task has returned. With
/// a null pool, a one-thread pool, or a caller already inside a parallel
/// region, the tasks run on the calling thread in index order.
///
/// Every task is contained: the "scheduler.task" failpoint fires before
/// it, and an exception escaping it is caught and counted
/// ("scheduler.task_exceptions") instead of unwinding into the team, so
/// the remaining indices still run. Attributing the failure is the
/// caller's job. Each task is counted ("scheduler.tasks") and traced as a
/// "task" span; with tracing on, member t names its thread "worker-t".
void runTasks(ThreadPool *pool, size_t n,
              const std::function<void(size_t)> &task);

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
