#include "runtime/thread_pool.h"

#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sched.h>
#include <stdexcept>
#include <string>

namespace paralift::runtime {

namespace {
thread_local int tlsParallelDepth = 0;

/// Marks the calling thread as running a team member's work.
struct ParallelDepth {
  ParallelDepth() { ++tlsParallelDepth; }
  ~ParallelDepth() { --tlsParallelDepth; }
};

/// Pause instructions a waiter spins before it parks in
/// std::atomic::wait: about 28 us at the 14 ns per pause measured on a
/// 4-vCPU Xeon host. In one 8 s rodinia-exec run on that host, 96% of the
/// waits ended within this window (258 pauses on average) and latency_ms
/// read 1.45. With 200 pauses 45% of the waits parked and it read 1.66;
/// with 20,000, 0.2% parked and it read 1.48, so a longer window only
/// keeps idle workers spinning longer.
constexpr unsigned kSpinPauses = 2000;

/// The current window: kSpinPauses, or 0 once the runtime has outgrown
/// the CPUs (see Runtime::spawn).
std::atomic<unsigned> spinPauses{kSpinPauses};

inline void cpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

/// Waits until `word` no longer holds `old` and returns its new value:
/// spins spinPauses pauses, then parks. The words are 32-bit so that
/// std::atomic::wait is a futex on the word itself, not a wait through
/// libstdc++'s shared proxy table.
uint32_t awaitChange(const std::atomic<uint32_t> &word, uint32_t old) {
  unsigned window = spinPauses.load(std::memory_order_relaxed);
  for (unsigned i = 0; i < window; ++i) {
    uint32_t v = word.load(std::memory_order_acquire);
    if (v != old)
      return v;
    cpuRelax();
  }
  for (;;) {
    word.wait(old, std::memory_order_acquire);
    uint32_t v = word.load(std::memory_order_acquire);
    if (v != old)
      return v;
  }
}

struct RuntimeCounters {
  metrics::Counter &regions;
  metrics::Counter &barriers;
};

RuntimeCounters &runtimeCounters() {
  auto &reg = metrics::MetricsRegistry::instance();
  static RuntimeCounters *c = new RuntimeCounters{
      reg.counter("runtime.regions"), reg.counter("runtime.barriers")};
  return *c;
}

/// What a member throws at a barrier of a team another member has failed;
/// the region rethrows the first failure, never this.
struct TeamFailed : std::exception {
  const char *what() const noexcept override {
    return "team barrier abandoned after another member failed";
  }
};
} // namespace

//===----------------------------------------------------------------------===//
// Team
//===----------------------------------------------------------------------===//

void Team::barrier() {
  if (size_ == 1) {
    runtimeCounters().barriers.add();
    return;
  }
  uint32_t episode = episode_.load(std::memory_order_acquire);
  if (failed_.load(std::memory_order_acquire))
    throw TeamFailed();
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == size_) {
    arrived_.store(0, std::memory_order_relaxed);
    runtimeCounters().barriers.add();
    episode_.fetch_add(1, std::memory_order_release);
    episode_.notify_all();
    return;
  }
  awaitChange(episode_, episode);
  if (failed_.load(std::memory_order_acquire))
    throw TeamFailed();
}

void Team::runMember(const TeamFn &fn, unsigned tid) {
  ParallelDepth depth;
  try {
    fn(tid, *this);
  } catch (...) {
    fail(std::current_exception());
  }
}

void Team::fail(std::exception_ptr error) noexcept {
  if (failed_.exchange(true, std::memory_order_acq_rel))
    return;
  error_ = std::move(error);
  // A new episode releases the members waiting at the barrier; they see
  // failed_ and leave by throwing.
  episode_.fetch_add(1, std::memory_order_release);
  episode_.notify_all();
}

void Team::arriveJoin() noexcept {
  // Read before arriving: once the count is complete the caller may
  // return and the team may start another region.
  unsigned size = size_;
  if (joined_.fetch_add(1, std::memory_order_release) + 2 == size)
    joined_.notify_one();
}

void Team::awaitJoin() noexcept {
  uint32_t v = joined_.load(std::memory_order_acquire);
  while (v + 1 != size_)
    v = awaitChange(joined_, v);
}

//===----------------------------------------------------------------------===//
// The runtime
//===----------------------------------------------------------------------===//

namespace detail {

/// One of the runtime's persistent workers.
struct Worker {
  /// The word the worker waits on: bumped once the fields below describe
  /// its next member's work, or once `stop` is set.
  alignas(64) std::atomic<uint32_t> go{0};
  const TeamFn *fn = nullptr;
  Team *team = nullptr;
  unsigned tid = 0;
  bool stop = false;
  /// The next worker in the runtime's idle stack or in a borrowed team.
  Worker *next = nullptr;
  /// The team of a region whose first borrowed worker this is. It lives
  /// here, in memory the runtime owns, because a worker's last touch of a
  /// team (waking the caller at the join) can come after the caller has
  /// seen the join complete and returned.
  Team lead{1};
  std::thread thread;

  void start(const TeamFn &f, Team &t, unsigned id) {
    fn = &f;
    team = &t;
    tid = id;
    go.fetch_add(1, std::memory_order_release);
    go.notify_one();
  }

  void loop() {
    uint32_t seen = 0;
    for (;;) {
      seen = awaitChange(go, seen);
      if (stop)
        return;
      Team &t = *team;
      t.runMember(*fn, tid);
      t.arriveJoin();
    }
  }
};

} // namespace detail

namespace {
using detail::Worker;

/// The process's workers: started on demand, idle between regions, and
/// joined at exit.
class Runtime {
public:
  static Runtime &instance() {
    static Runtime runtime;
    return runtime;
  }

  ~Runtime() {
    for (auto &w : workers_) {
      w->stop = true;
      w->go.fetch_add(1, std::memory_order_release);
      w->go.notify_one();
    }
    for (auto &w : workers_)
      w->thread.join();
  }

  /// `n` workers, chained through `next`: the most recently used idle
  /// ones, and new ones when too few are idle.
  Worker *borrow(unsigned n) {
    std::lock_guard<std::mutex> lock(mutex_);
    Worker *first = nullptr;
    try {
      for (unsigned i = 0; i < n; ++i) {
        Worker *w = idle_;
        if (w)
          idle_ = w->next;
        else
          w = spawn();
        w->next = first;
        first = w;
      }
    } catch (...) {
      if (first)
        idle_ = splice(first, idle_);
      throw;
    }
    return first;
  }

  /// Returns a borrowed chain to the idle stack.
  void giveBack(Worker *first) {
    std::lock_guard<std::mutex> lock(mutex_);
    idle_ = splice(first, idle_);
  }

private:
  Runtime() = default;

  /// Chains `rest` after the last worker of `first`; returns `first`.
  static Worker *splice(Worker *first, Worker *rest) {
    Worker *last = first;
    while (last->next)
      last = last->next;
    last->next = rest;
    return first;
  }

  Worker *spawn() {
    workers_.reserve(workers_.size() + 1);
    auto w = std::make_unique<Worker>();
    Worker *raw = w.get();
    raw->thread = std::thread([raw] { raw->loop(); });
    workers_.push_back(std::move(w));
    // Once the workers and one caller outnumber the CPUs, waiters park at
    // once, as libgomp throttles its spin count when it has more threads
    // than CPUs: a spinning waiter would hold a CPU that a member it waits
    // for needs. On 4 vCPUs, two callers at teams 4 and 3 ran a region
    // with a barrier in 6-440 us with the full window, 48-53 us with 100
    // pauses, and 8-20 us parking at once (the condvar pools this runtime
    // replaced took 17-20 us).
    if (workers_.size() + 1 > cpus_)
      spinPauses.store(0, std::memory_order_relaxed);
    return raw;
  }

  /// CPUs the process may run on.
  static unsigned usableCpus() {
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
      return std::max(1, CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
  }

  const unsigned cpus_ = usableCpus();
  std::mutex mutex_; ///< guards idle_ and workers_
  Worker *idle_ = nullptr;
  std::vector<std::unique_ptr<Worker>> workers_;
};
} // namespace

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

ThreadPool::ThreadPool(unsigned maxThreads)
    : capacity_(std::max(1u, maxThreads)), teamSize_(capacity_) {}

void ThreadPool::setNumThreads(unsigned n) {
  teamSize_ = std::max(1u, std::min(n, capacity_));
}

bool ThreadPool::insideParallel() { return tlsParallelDepth > 0; }

void ThreadPool::parallel(const TeamFn &fn) {
  runtimeCounters().regions.add();
  bool nested = insideParallel();
  if (teamSize_ == 1 || (nested && nested_ == NestedPolicy::Serialize)) {
    Team team(1);
    ParallelDepth depth;
    fn(0, team);
    return;
  }
  if (nested) {
    spawnNested(fn);
    return;
  }
  Runtime &runtime = Runtime::instance();
  Worker *first = runtime.borrow(teamSize_ - 1);
  Team &team = first->lead;
  team.size_ = teamSize_;
  team.arrived_.store(0, std::memory_order_relaxed);
  team.joined_.store(0, std::memory_order_relaxed);
  team.failed_.store(false, std::memory_order_relaxed);
  unsigned tid = 1;
  for (Worker *w = first; w; w = w->next)
    w->start(fn, team, tid++);
  team.runMember(fn, 0);
  team.awaitJoin();
  std::exception_ptr error = std::move(team.error_);
  team.error_ = nullptr;
  runtime.giveBack(first);
  if (error)
    std::rethrow_exception(error);
}

void ThreadPool::parallelContained(const TeamFn &fn) {
  try {
    parallel(fn);
  } catch (const std::exception &e) {
    throw std::runtime_error(e.what());
  } catch (...) {
    throw std::runtime_error("non-standard exception");
  }
}

void ThreadPool::spawnNested(const TeamFn &fn) {
  // Fresh threads, on purpose reproducing the real cost of nested OpenMP
  // parallel regions.
  Team team(teamSize_);
  std::vector<std::thread> extra;
  extra.reserve(teamSize_ - 1);
  for (unsigned t = 1; t < teamSize_; ++t)
    extra.emplace_back([&fn, &team, t] { team.runMember(fn, t); });
  team.runMember(fn, 0);
  for (auto &th : extra)
    th.join();
  if (team.error_)
    std::rethrow_exception(team.error_);
}

//===----------------------------------------------------------------------===//
// runTasks
//===----------------------------------------------------------------------===//

namespace {
struct TaskCounters {
  metrics::Counter &tasks;
  metrics::Counter &exceptions;
};

TaskCounters &taskCounters() {
  auto &reg = metrics::MetricsRegistry::instance();
  static TaskCounters *c = new TaskCounters{
      reg.counter("scheduler.tasks"), reg.counter("scheduler.task_exceptions")};
  return *c;
}

/// Runs one task contained: a throw (an injected "scheduler.task" fault
/// included) must not end the member's loop, which would skip the indices
/// still to run.
void runTask(const std::function<void(size_t)> &task, size_t i) {
  trace::TraceSpan span("task", "sched");
  try {
    failpoint::evaluate("scheduler.task");
    task(i);
  } catch (...) {
    span.annotate("error", "exception");
    taskCounters().exceptions.add();
  }
  taskCounters().tasks.add();
}
} // namespace

void runTasks(ThreadPool *pool, size_t n,
              const std::function<void(size_t)> &task) {
  if (n == 0)
    return;
  std::atomic<size_t> next{0};
  auto member = [&](unsigned tid) {
    if (trace::enabled()) {
      char name[32];
      std::snprintf(name, sizeof(name), "worker-%u", tid);
      trace::setThreadName(name);
    }
    for (size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1))
      runTask(task, i);
  };
  if (!pool || pool->numThreads() == 1 || ThreadPool::insideParallel())
    member(0);
  else
    pool->parallel([&](unsigned tid, Team &) { member(tid); });
}

//===----------------------------------------------------------------------===//
// DispatchQueue
//===----------------------------------------------------------------------===//

DispatchQueue::DispatchQueue() {
  // Start the worker from the constructor body, not the member-init list:
  // worker_ is declared before the mutex/cv/flags it synchronizes with,
  // so a list-initialized thread could enter loop() before those members
  // exist (observed as a deadlock on small machines).
  worker_ = std::thread([this] { loop(); });
}

DispatchQueue::~DispatchQueue() {
  {
    std::scoped_lock lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void DispatchQueue::async(std::function<void()> task) {
  {
    std::scoped_lock lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void DispatchQueue::sync() {
  std::unique_lock lock(mutex_);
  idleCv_.wait(lock, [this] { return tasks_.empty() && !busy_; });
}

void DispatchQueue::loop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !tasks_.empty(); });
      if (shutdown_ && tasks_.empty())
        return;
      task = std::move(tasks_.front());
      tasks_.erase(tasks_.begin());
      busy_ = true;
    }
    task();
    {
      std::scoped_lock lock(mutex_);
      busy_ = false;
    }
    idleCv_.notify_all();
  }
}

} // namespace paralift::runtime
