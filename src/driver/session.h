// CompilerSession: the batch, multi-module, asynchronous embedding API of
// the ParaLift compiler.
//
// A session is a long-lived object owning everything that should be
// shared across compiles instead of rebuilt per call: the PassResultCache
// and the run configuration (threads, verification, timing, cache
// bounds). Its batches run on teams it borrows from the process's one
// team runtime (runtime/thread_pool.h) through a thread-less
// runtime::ThreadPool handle. Sources are queued with addSource (each
// returns a CompileJob handle carrying a per-module DiagnosticEngine
// stamped with the module's name), then compileAll() compiles every
// queued module — the modules in parallel on one team, each module's
// pipeline on one task. compileAllAsync() runs the same batch on a
// background thread; CompileJob::wait()/result() are the futures that
// let callers overlap their own work (workload setup, parsing more
// sources) with compilation.
//
//   driver::CompilerSession session({.threads = 4});
//   auto &a = session.addSource("a.cu", srcA, PipelineOptions{});
//   auto &b = session.addSource("b.cu", srcB, PipelineOptions{});
//   session.compileAll();
//   driver::Executor exec(a.result().module.get(), 8);
//
// One session compiles N modules against one cache concurrently, and its
// batches borrow the runtime's workers instead of starting their own. The
// legacy driver::compile free functions survive as one-shot wrappers over
// a temporary session (driver/compiler.h).
//
// Batch scheduling
// ----------------
// compileAll groups the queued jobs by pipeline (one PassManager per
// canonical pipeline spec; in Simt mode every job runs the one-pass
// pipeline inline{kernels-only=true}). It builds one pipeline per
// distinct PipelineOptions among the jobs, not one per job, so the
// serial prefix before the first task starts does not grow with the
// batch (four builds for the 64-job Rodinia batch of four pipelines).
// It then turns every job into one task, run as one parallel loop on a
// team of `threads` members (runtime::runTasks): the calling thread and
// the runtime workers it borrows each take the next task until none is
// left, and the workers return to the runtime when the batch's loop
// ends. The module is the unit of compile parallelism, and the job the
// unit of caching. A task keys once, on its pipeline's spec and on its
// source text (hashBytes, before the frontend runs) or, for an addModule
// job, its module's ir::hashOp.
// A hit parses the stored module into a fresh arena, with no lexer,
// parser, irgen or pass run. A miss runs the frontend, then
// PassManager::run with the job's cancellation token, arena cap and
// timing report, and stores the printed result under its key and, for a
// source job, also under the ir::hashOp of the module its frontend made,
// so module jobs replay what source jobs stored. Final verification
// follows either way. So module B runs pass 3 while module A is still
// parsing, and each CompileJob future resolves the moment *its* module's
// task completes rather than at end of batch. Jobs share the cache only
// through lookup and store: jobs compiling one source through different
// pipelines share nothing (no common prefix is stored), and two jobs
// computing the same entry at the same time both run it and store the
// same result.
// Pass execution is deterministic per input, so outputs are bit-for-bit
// identical to serial compiles. Under --timing, each task records its
// own module's (module, pass) rows, and the batch appends them in task
// order, so the report attributes true per-module per-pass time and
// reads the same at any thread count.
//
// Instrumentation hooks (configurePassManager's IR printers and any
// other transforms::Instrumentation it installs) fire around every
// (module, pass) step of the same tasks; a hooked or verify-each session
// never replays the cache, so every pass executes under its hooks.
// They observe one module at a time, so a session with any installed
// runs the batch on the calling thread: each module's task runs to
// completion in job order, and hook output is module-contiguous and the
// same for every thread count.
//
// Memory
// ------
// Every job's module lives in its own ir::IRArena (see ir/arena.h and
// op.h "Design notes"): all ops, values, blocks, regions and attribute
// storage for one module come from that module's bump allocator, and the
// OwnedModule held by CompileResult is the arena handle. Consequences
// for session users:
//
//  - Job teardown is O(1) in IR size. Dropping a CompileJob's result (or
//    the session) releases each module as a handful of slab frees, not a
//    node-by-node destructor walk — cheap even for batches that built
//    millions of ops.
//  - Arena memory is monotonic per module while the module is alive.
//    Passes that erase ops (canonicalize, CSE, DSE) unlink them from the
//    IR but return nothing to the allocator; the bytes are reclaimed
//    when the module is destroyed. Peak RSS of a batch therefore tracks
//    the *created*, not the surviving, op count.
//  - Modules never share arenas. A cache replay parses the stored module
//    into a fresh module (ir::parseModule) that replaces the job's, and
//    clones go directly into the destination module's arena
//    (ir::cloneOpInto), on the module's own task.
//
// Observability
// -------------
// The compiler carries a unified tracing + metrics layer (support/trace.h,
// support/metrics.h); sessions are its main driver:
//
//  - Tracing. SessionOptions::traceJsonPath enables the process-wide
//    trace recorder for the session's lifetime and writes a Chrome
//    trace_event JSON file ("catapult" format — load in about://tracing
//    or Perfetto) at session destruction. Each worker thread is a named
//    lane ("worker-N"); every job contributes an async span from batch
//    start to job completion, nested over the keying span of each cached
//    job annotated with the cache outcome ("cache: run" vs "cache:
//    replay"), its frontend parse span ("parse:<job>"; a replayed source
//    job has none), one span per executed (module, pass) step, and cache
//    disk-IO/eviction spans. $PARALIFT_TRACE=FILE
//    does the same process-wide without API involvement (written at
//    exit), and trace::enable()/writeJson() are available for embedders.
//    When disabled (the default), instrumentation costs one relaxed
//    atomic load per site — the recorder is compiled in but never
//    buffers.
//
// Failure semantics
// -----------------
// The session is the process's failure-containment boundary; the
// guarantees below are what the fault-injection soak (tests/test_faults)
// asserts, and what an embedding daemon may rely on:
//
//  - Job vs batch vs process. Any failure inside one job's compile — a
//    frontend error, a throwing pass, a verifier rejection, an injected
//    fault (support/failpoint.h), a breached arena cap, a cancelled or
//    timed-out token — fails *that job only*: its future resolves with
//    ok() == false and at least one diagnostic attributing the failure
//    (module name, failing pass or stage, reason). The rest of the batch
//    compiles normally, every CompileJob::wait() returns, compileAll()
//    returns, and the process never terminates on a job failure.
//    In either mode, an exception escaping a job's task is additionally
//    contained by runtime::runTasks (scheduler.task_exceptions metric);
//    any job whose task was cut short that way is swept and marked
//    failed ("compile task aborted before completion") when the batch
//    ends, so futures still resolve. A job holds no cache state between
//    a lookup and its store, so a throw in one job's cache lookup, replay
//    or store fails that job alone ("pass-cache <stage> threw"), never
//    another job that shares the cache, in this session or a later one.
//
//  - Cancellation and deadlines. CompileJob::cancel() requests
//    cooperative cancellation; SessionOptions::jobTimeoutSeconds arms a
//    per-job deadline at batch start. Both are polled before the cache
//    lookup (so before a cached session's frontend) and before every
//    executed (module, pass) step, instrumented sessions included, so a
//    cancelled job fails even when its result is cached. The pass
//    currently executing always finishes, so IR and
//    cache stay consistent; the job then fails with "cancelled in pass
//    P" or "deadline exceeded after Ns in pass P" before its next pass.
//    A compile that is between passes reacts within one step; one stuck
//    *inside* a pass is not interrupted (cooperative, not preemptive).
//
//  - Cache degradation. Disk trouble in the pass cache (unwritable or
//    unreadable entries, ENOSPC) is retried once with a short backoff,
//    then demotes the cache to memory-only for the rest of its life:
//    compiles keep succeeding, they just stop replaying/persisting
//    across processes ("cache.disk.disabled" metric, stderr warning,
//    PassResultCache::diskDemoted()). Corrupt or truncated entries are
//    plain misses — re-verified keys and payload hashing mean a bad
//    entry can never replay wrong IR.
//
//  - Memory bounds. SessionOptions::maxArenaBytesPerModule caps each
//    job's IR arena; a module whose arena exceeds the cap after a pass
//    fails with a per-job OOM diagnostic ("IR arena limit exceeded")
//    instead of growing until the kernel OOM-kills the process.
//
//  - Metrics. A process-wide MetricsRegistry aggregates named counters,
//    gauges, and log2-bucket latency histograms across every subsystem:
//    "cache.*" (hits/misses/stores/disk/evictions), "scheduler.*"
//    (tasks/task_exceptions), "session.*" (jobs completed/failed,
//    job-latency histogram), "pm.pass_seconds", "pass.<pass>.<stat>"
//    (mirrors of every Pass::Statistic), and "arena.reserved_bytes"
//    (live IR slab bytes; .peak tracks the high-water mark).
//    SessionOptions::metricsToStderr prints the text snapshot at
//    session destruction; metricsJsonPath writes the JSON snapshot
//    (--metrics / --metrics=FILE at the CLI). The registry is
//    process-global on purpose: one snapshot shows cache, scheduler,
//    arena, and per-pass activity side by side, regardless of how many
//    sessions produced it.
#pragma once

#include "frontend/irgen.h"
#include "support/diagnostics.h"
#include "transforms/pass_cache.h"
#include "transforms/passes.h"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace paralift::runtime {
class ThreadPool;
}

namespace paralift::driver {

struct CompileResult {
  ir::OwnedModule module;
  bool ok = false;
};

/// What a session's compiles produce. Optimize runs the full pipeline
/// (driver::compile); Simt runs the frontend and the one-pass pipeline
/// inline{kernels-only=true} (device-function inlining, barriers kept),
/// for the lockstep SIMT reference executor (driver::compileForSimt).
/// Both modes run through PassManager::run, so cancellation, deadlines,
/// the arena cap, timing and statistics apply to either.
enum class SessionMode { Optimize, Simt };

class CompileJob;

struct SessionOptions {
  SessionMode mode = SessionMode::Optimize;

  /// Members of the team a batch runs on, the calling thread included;
  /// >1 compiles that many queued modules at a time, one task per module
  /// (see "Batch scheduling"). A module's own passes always run on one
  /// thread, so a one-module batch gains nothing from threads. 1 runs
  /// every batch on the calling thread.
  unsigned threads = 1;

  /// Verify every module after every pass, attributing breakage to the
  /// pass; a broken module fails alone (job-level isolation).
  bool verifyEach = false;
  /// Record per-(module, pass) execution time and IR-arena growth into
  /// timingReport().
  bool collectTiming = false;
  /// Also collect pass statistics needing extra IR walks
  /// (statisticsStr()).
  bool collectStatistics = false;

  /// Per-job compile deadline in seconds, armed when the batch starts
  /// compiling; 0 disables. A job that exceeds it fails with "deadline
  /// exceeded after Ns in pass P" at its next pass/step boundary while
  /// the rest of the batch completes normally (see "Failure semantics").
  /// (--job-timeout at the CLI.)
  double jobTimeoutSeconds = 0;
  /// Per-module IR-arena byte cap; a job whose module arena exceeds it
  /// after a pass fails with a clean per-job OOM diagnostic. 0 = off.
  uint64_t maxArenaBytesPerModule = 0;

  // Cache resolution, first match wins:
  //   1. `cache`     — caller-owned, shareable across sessions;
  //   2. `cacheDir`  — session-owned persistent cache rooted there;
  //   3. `memoryCache` — session-owned in-memory cache;
  //   4. $PARALIFT_CACHE_DIR (unless useEnvCache is false) — the
  //      process-wide cache, shared by every session and one-shot
  //      wrapper in the process;
  //   5. none.
  transforms::PassResultCache *cache = nullptr;
  std::string cacheDir;
  bool memoryCache = false;
  bool useEnvCache = true;
  /// LRU disk bound (MB) for a session-owned cacheDir cache, swept at
  /// session shutdown; 0 falls back to $PARALIFT_CACHE_LIMIT, then
  /// unbounded. (--cache-limit at the CLI.)
  uint64_t cacheLimitMB = 0;

  /// When set: run this textual pipeline (registry syntax, e.g.
  /// "inline,repeat(canonicalize,cse),cpuify") instead of the standard
  /// buildPipeline over each job's PipelineOptions. An *empty* spec is a
  /// valid zero-pass pipeline (paralift-opt's round-trip mode). Ignored
  /// in Simt mode.
  std::optional<std::string> pipelineSpec;

  /// Called on every PassManager the session builds, after standard
  /// configuration — the hook for bespoke instrumentation (paralift-opt's
  /// --print-ir-before/after). Instrumentations observe one module at a
  /// time, so installing any drains the batch on the calling thread.
  std::function<void(transforms::PassManager &)> configurePassManager;

  /// Invoked the moment each job's compile finishes (after its future
  /// resolves), on whatever thread completed it — mid-batch, per module.
  /// Completion-order probes and schedulers hang off this; keep it cheap
  /// and do not call back into compileAll from it.
  std::function<void(CompileJob &)> onJobCompleted;

  // Observability (see the "Observability" section above):
  /// When set, enable the process-wide trace recorder for the session's
  /// lifetime and write Chrome trace_event JSON here at session
  /// destruction (--trace-json=FILE at the CLI). Tracing stays enabled
  /// afterwards; overlapping sessions and $PARALIFT_TRACE compose.
  std::string traceJsonPath;
  /// Print the MetricsRegistry text snapshot to stderr at session
  /// destruction (--metrics at the CLI).
  bool metricsToStderr = false;
  /// Write the MetricsRegistry JSON snapshot here at session
  /// destruction (--metrics=FILE at the CLI).
  std::string metricsJsonPath;
};

class CompilerSession;

/// Handle for one queued module; owned by (and referencing) the session,
/// valid until the session is destroyed. wait()/result() are futures:
/// they block until the job has been compiled by compileAll (possibly
/// running on the session's background thread).
class CompileJob {
public:
  const std::string &name() const { return name_; }
  const transforms::PipelineOptions &pipelineOptions() const {
    return pipelineOpts_;
  }

  /// True once the job has a result (never blocks).
  bool ready() const;
  /// Blocks until the job has been compiled. A job that was never passed
  /// through compileAll() blocks until some later compileAll() covers it.
  void wait() const;

  /// wait(), then the compiled module. Valid until the session dies or
  /// take() moves it out.
  CompileResult &result();
  /// wait(), then moves the result out of the job.
  CompileResult take();
  /// wait(), then this job's diagnostics (each stamped with the module
  /// name handed to addSource).
  const DiagnosticEngine &diagnostics();
  /// wait(), then whether frontend + pipeline + final verification all
  /// succeeded.
  bool ok();

  /// wait(), then the seconds from the start of the compileAll batch
  /// that compiled this job to the moment its future resolved. Jobs
  /// resolve incrementally, so the mean/median over a batch measures
  /// job-completion latency (bench_compile reports both).
  double latencySeconds();

  /// Requests cooperative cancellation of this job (thread-safe,
  /// idempotent, callable mid-batch from any thread). The job stops at
  /// its next pass/step boundary and fails with a "cancelled" diagnostic;
  /// a job cancelled before its batch starts never runs a pass (nor, in
  /// a cached session, its frontend). Other jobs are unaffected. No-op
  /// once the job is Done.
  void cancel() { cancel_.cancel(); }
  /// This job's cancellation/deadline token (see
  /// transforms::CancellationToken); the session arms its deadline from
  /// SessionOptions::jobTimeoutSeconds at batch start.
  const transforms::CancellationToken &cancellation() const {
    return cancel_;
  }

private:
  friend class CompilerSession;
  enum class State { Queued, Compiling, Done };

  CompilerSession *session_ = nullptr;
  std::string name_;
  std::string source_;               ///< empty for addModule jobs
  bool preparsed_ = false;           ///< addModule: skip the frontend
  transforms::PipelineOptions pipelineOpts_;
  transforms::CancellationToken cancel_;
  DiagnosticEngine diag_;
  CompileResult result_;
  double latencySeconds_ = -1;
  State state_ = State::Queued;
};

class CompilerSession {
public:
  explicit CompilerSession(SessionOptions opts = {});
  /// Joins any background batch, then sweeps the owned cache's disk
  /// bound (see SessionOptions::cacheLimitMB).
  ~CompilerSession();
  CompilerSession(const CompilerSession &) = delete;
  CompilerSession &operator=(const CompilerSession &) = delete;

  /// Queues a CUDA-subset source for compilation under `name` (the
  /// attribution stamped onto the job's diagnostics). The returned
  /// reference stays valid for the session's lifetime.
  CompileJob &addSource(std::string name, std::string source,
                        transforms::PipelineOptions pipeline = {});
  /// Queues an already-parsed module (paralift-opt's textual-IR input,
  /// benchmark harnesses cloning a pre-parsed suite).
  CompileJob &addModule(std::string name, ir::OwnedModule module,
                        transforms::PipelineOptions pipeline = {});

  /// Compiles every job still queued as one batch (see "Batch
  /// scheduling"): jobs sharing a pipeline share one PassManager, every
  /// job's task runs on the batch's team, and each future resolves as
  /// soon as its own task completes.
  /// Already-compiled jobs are not recompiled (a second compileAll is a
  /// no-op for them). Returns whether every job in the session has
  /// compiled successfully.
  bool compileAll();

  /// Launches compileAll() on a background thread and returns
  /// immediately; use CompileJob::wait()/result() or wait() to join.
  void compileAllAsync();
  /// Joins a pending compileAllAsync (no-op otherwise); returns ok().
  bool wait();

  size_t jobCount() const;
  CompileJob &job(size_t i);

  /// Every job compiled and succeeded.
  bool ok() const;

  /// Per-pass timing accumulated across every compile this session ran
  /// (SessionOptions::collectTiming): one record per (module, pass) step
  /// that executed, attributed to the job's name. Blocks while a batch
  /// (including a compileAllAsync one) is in flight; the reference is
  /// stable until the next compileAll starts.
  const transforms::PassTimingReport &timingReport() const;
  /// Rendered statistics of every pipeline this session ran
  /// (SessionOptions::collectStatistics). Blocks while a batch is in
  /// flight.
  std::string statisticsStr() const;

  /// The session's pass-result cache (however it was resolved); null
  /// when caching is off.
  transforms::PassResultCache *cache() const { return cache_; }
  /// The handle the batches borrow their teams through; null when
  /// threads == 1.
  runtime::ThreadPool *pool() const { return pool_.get(); }
  const SessionOptions &options() const { return opts_; }

private:
  friend class CompileJob;

  /// Jobs to compile in this batch (flips them to Compiling).
  std::vector<CompileJob *> takeQueued();
  void markDone(CompileJob &job, bool ok);
  /// Frontend for one job: parse + IR verification, in either mode.
  /// Thread-safe across distinct jobs. Returns whether it succeeded.
  bool runFrontendOne(CompileJob &job);
  /// One job's task up to final verification (see "Batch scheduling");
  /// `spec` is pm's canonical pipeline spec.
  bool compileJob(CompileJob &job, transforms::PassManager &pm,
                  const std::string &spec,
                  transforms::PassManager::RunOptions runOpts);
  /// End-of-pipeline verification gate: skipped when verify-each already
  /// covered the final module (any non-empty pipeline); otherwise reports
  /// "final module is invalid" into `diag`. Returns the updated ok.
  bool finalVerify(const transforms::PassManager &pm, ir::ModuleOp module,
                   DiagnosticEngine &diag, bool ok) const;

  SessionOptions opts_;
  std::unique_ptr<runtime::ThreadPool> pool_;
  std::unique_ptr<transforms::PassResultCache> ownedCache_;
  transforms::PassResultCache *cache_ = nullptr;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::deque<std::unique_ptr<CompileJob>> jobs_;

  /// Serializes compileAll runs, and gates the timing/statistics
  /// accessors against a batch mutating those structures mid-run.
  mutable std::mutex compileMutex_;
  std::thread asyncThread_;
  /// Start of the in-flight (or last) batch; job completion latencies
  /// are measured from here. Written at batch start, before any job of
  /// the batch can complete.
  std::chrono::steady_clock::time_point batchStart_{};

  transforms::PassTimingReport timing_;
  /// PassManagers kept alive so statistics stay queryable after runs.
  std::vector<std::unique_ptr<transforms::PassManager>> pms_;
};

/// The process-wide cache activated by $PARALIFT_CACHE_DIR (bounded by
/// $PARALIFT_CACHE_LIMIT MB), shared by every session and one-shot
/// wrapper in the process; null when the variable is unset. With
/// $PARALIFT_CACHE_STATS=1 its stats line is printed to stderr at
/// process exit.
transforms::PassResultCache *envPassResultCache();

/// $PARALIFT_CACHE_LIMIT in MB; 0 when unset or unparseable.
uint64_t envCacheLimitMB();

} // namespace paralift::driver
