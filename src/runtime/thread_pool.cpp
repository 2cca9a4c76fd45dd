#include "runtime/thread_pool.h"

#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <atomic>
#include <cassert>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace paralift::runtime {

namespace {
thread_local int tlsParallelDepth = 0;
} // namespace

ThreadPool::ThreadPool(unsigned maxThreads) : teamSize_(maxThreads) {
  assert(maxThreads >= 1);
  workers_.reserve(maxThreads - 1);
  for (unsigned i = 0; i + 1 < maxThreads; ++i)
    workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool() {
  {
    std::scoped_lock lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto &w : workers_)
    w.join();
}

void ThreadPool::setNumThreads(unsigned n) {
  teamSize_ = std::max(1u, std::min(n, capacity()));
}

bool ThreadPool::insideParallel() { return tlsParallelDepth > 0; }

void ThreadPool::parallel(const TeamFn &fn) {
  if (insideParallel()) {
    runNested(fn);
    return;
  }
  unsigned size = teamSize_;
  if (size == 1) {
    Team team(1);
    ++tlsParallelDepth;
    fn(0, team);
    --tlsParallelDepth;
    return;
  }
  Team team(size);
  {
    std::scoped_lock lock(mutex_);
    job_.fn = &fn;
    job_.team = &team;
    job_.participants = size - 1;
    running_ = size - 1;
    ++generation_;
  }
  cv_.notify_all();
  ++tlsParallelDepth;
  fn(0, team);
  --tlsParallelDepth;
  std::unique_lock lock(mutex_);
  doneCv_.wait(lock, [this] { return running_ == 0; });
}

void ThreadPool::parallelContained(const TeamFn &fn) {
  std::mutex mutex;
  std::string first;
  bool thrown = false;
  auto record = [&](const char *what) {
    std::scoped_lock lock(mutex);
    if (!thrown) {
      thrown = true;
      first = what;
    }
  };
  parallel([&](unsigned tid, Team &team) {
    try {
      fn(tid, team);
    } catch (const std::exception &e) {
      record(e.what());
    } catch (...) {
      record("non-standard exception");
    }
  });
  if (thrown)
    throw std::runtime_error(first);
}

void ThreadPool::workerLoop(unsigned workerIdx) {
  uint64_t seen = 0;
  while (true) {
    const TeamFn *fn = nullptr;
    Team *team = nullptr;
    bool participate = false;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_)
        return;
      seen = generation_;
      if (workerIdx < job_.participants) {
        fn = job_.fn;
        team = job_.team;
        participate = true;
      }
    }
    if (participate) {
      ++tlsParallelDepth;
      (*fn)(workerIdx + 1, *team);
      --tlsParallelDepth;
      {
        std::scoped_lock lock(mutex_);
        --running_;
      }
      doneCv_.notify_one();
    }
  }
}

void ThreadPool::runNested(const TeamFn &fn) {
  if (nested_ == NestedPolicy::Serialize) {
    Team team(1);
    ++tlsParallelDepth;
    fn(0, team);
    --tlsParallelDepth;
    return;
  }
  // Spawn: fresh threads, on purpose reproducing the real cost of nested
  // OpenMP parallel regions.
  unsigned size = teamSize_;
  Team team(size);
  std::vector<std::thread> extra;
  extra.reserve(size - 1);
  for (unsigned t = 1; t < size; ++t)
    extra.emplace_back([&fn, &team, t] {
      ++tlsParallelDepth;
      fn(t, team);
      --tlsParallelDepth;
    });
  fn(0, team); // caller participates; already inside a parallel region
  for (auto &th : extra)
    th.join();
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
/// included) must neither unwind into ThreadPool's worker loop, where it
/// would call std::terminate, nor skip the indices still to run.
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
