// CPU execution runtime: one team runtime per process, with OpenMP-like
// teams borrowed from it through thread-less handles.
//
// The runtime. The process holds one set of persistent workers that no
// executor, session or model owns. They are started on demand, the first
// time a caller needs more workers than are idle, and joined when the
// process exits. Every top-level parallel() call borrows a team of exactly
// the size its handle asks for: the calling thread becomes member 0 and
// borrowed workers members 1..n-1; when the team has joined, the workers
// go back to the idle set, most recently used first. Concurrent callers
// (two threads each running an executor, a session compiling beside one)
// each get their own workers, and the runtime grows when they need more
// threads than are idle. So the process runs as many workers as its
// callers ever used at once, not one pool per object.
//
// Handles. ThreadPool owns no threads: it holds a capacity, a team size
// and a nested policy, which apply to the regions started through it.
// Executors, sessions and models each keep one.
//
// Waiting. Each worker waits on its own 32-bit word, and a region's join
// and its barrier are generation counters in memory the runtime owns.
// Every wait spins a bounded window of pause instructions, then parks in
// std::atomic::wait (a futex for 32-bit words). Back-to-back regions and
// barriers so complete without a system call, and idle workers stop
// spinning soon after the last region. Once concurrent callers have grown
// the runtime past the CPUs the process may run on, waits park at once,
// so no spinning thread holds a CPU that a member it waits for needs.
//
// Failure. A member that throws marks its team failed: members waiting at
// a barrier, or reaching one later, leave by throwing, so no member waits
// for one that will never arrive. The region still joins, and parallel()
// then rethrows the first member's exception on the calling thread.
//
// Nested regions (called from inside a team) follow the handle's policy:
// Serialize (a team of one, the paper's inner-serialization mode) or
// Spawn (fresh std::threads for every nested region, reproducing the real
// cost of OpenMP nested parallelism that Fig. 12 measures).
//
// Counters: "runtime.regions" counts parallel() calls, nested and
// one-member regions included, and "runtime.barriers" counts barrier
// episodes (added once, by the last member to arrive).
//
// runTasks runs a list of independent tasks as one parallel loop on a
// team; the compile session runs each batch's module tasks through it.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace paralift::runtime {

namespace detail {
struct Worker;
} // namespace detail

/// Execution context of one parallel region.
class Team {
public:
  explicit Team(unsigned size) : size_(size) {}
  Team(const Team &) = delete;
  Team &operator=(const Team &) = delete;

  unsigned size() const { return size_; }
  /// Blocks until all team members arrive (omp.barrier semantics). Throws
  /// instead once another member of the team has thrown.
  void barrier();

private:
  friend class ThreadPool;
  friend struct detail::Worker;

  /// Member `tid` runs fn; a throw is recorded instead of propagating.
  void runMember(const std::function<void(unsigned, Team &)> &fn,
                 unsigned tid);
  /// Records the first failure and releases the members at a barrier.
  void fail(std::exception_ptr error) noexcept;
  /// A borrowed worker has finished its member's work.
  void arriveJoin() noexcept;
  /// Waits until all size - 1 borrowed workers have arrived.
  void awaitJoin() noexcept;

  unsigned size_;
  // Each word has its own cache line: members arrive at the barrier while
  // workers that finished arrive at the join.
  alignas(64) std::atomic<uint32_t> arrived_{0};
  alignas(64) std::atomic<uint32_t> episode_{0};
  alignas(64) std::atomic<uint32_t> joined_{0};
  std::atomic<bool> failed_{false};
  /// The first failure, written by the member that set failed_.
  std::exception_ptr error_;
};

enum class NestedPolicy { Serialize, Spawn };

/// Work item run by each team member: fn(tid, team).
using TeamFn = std::function<void(unsigned, Team &)>;

/// A handle on the process's team runtime; it owns no threads (see the
/// file comment).
class ThreadPool {
public:
  /// A handle whose teams have up to `maxThreads` members (the caller
  /// included); the team size starts at `maxThreads`.
  explicit ThreadPool(unsigned maxThreads);
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Team size used for subsequent top-level parallel regions. Clamped to
  /// the handle's capacity.
  void setNumThreads(unsigned n);
  unsigned numThreads() const { return teamSize_; }
  unsigned capacity() const { return capacity_; }

  void setNestedPolicy(NestedPolicy p) { nested_ = p; }
  NestedPolicy nestedPolicy() const { return nested_; }

  /// Executes `fn` on a team. Called from outside any team this borrows
  /// numThreads() - 1 of the runtime's workers; called from inside a team
  /// (nested region), it applies the nested policy. Once the team has
  /// joined, the first member's exception, if any, is rethrown here.
  void parallel(const TeamFn &fn);

  /// parallel(), with the first member's exception thrown on the calling
  /// thread as a std::runtime_error carrying its message. The VM and the
  /// native tier run omp.parallel regions through it.
  void parallelContained(const TeamFn &fn);

  /// True when invoked from inside a team member's work: on a borrowed
  /// worker, a spawned nested thread, or a caller running member 0.
  static bool insideParallel();

private:
  /// A nested region under NestedPolicy::Spawn.
  void spawnNested(const TeamFn &fn);

  unsigned capacity_;
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
