#include "driver/session.h"

#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "runtime/thread_pool.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "transforms/registry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace paralift::driver {

namespace {
/// Session-level figures in the process-wide registry, resolved once.
struct SessionMetrics {
  metrics::Counter &jobsCompleted;
  metrics::Counter &jobsFailed;
  metrics::Histogram &jobLatency;
};

SessionMetrics &sessionMetrics() {
  auto &reg = metrics::MetricsRegistry::instance();
  static SessionMetrics *m = new SessionMetrics{
      reg.counter("session.jobs_completed"),
      reg.counter("session.jobs_failed"),
      reg.histogram("session.job_latency_s")};
  return *m;
}

/// Runs one stage of a job (its frontend, or a cache lookup, replay or
/// store); a throw fails that job alone, with a diagnostic naming `stage`.
template <typename Fn>
bool contained(const std::string &stage, DiagnosticEngine &diag, Fn &&body) {
  try {
    return body();
  } catch (const std::exception &e) {
    diag.error(SourceLoc(), stage + " threw: " + e.what());
  } catch (...) {
    diag.error(SourceLoc(), stage + " threw a non-standard exception");
  }
  return false;
}
} // namespace

//===----------------------------------------------------------------------===//
// Environment-driven process-wide cache
//===----------------------------------------------------------------------===//

uint64_t envCacheLimitMB() {
  const char *v = std::getenv("PARALIFT_CACHE_LIMIT");
  if (!v || !*v)
    return 0;
  char *end = nullptr;
  unsigned long long mb = std::strtoull(v, &end, 10);
  if (end == v || *end)
    return 0;
  return mb;
}

transforms::PassResultCache *envPassResultCache() {
  static transforms::PassResultCache *cache = [] {
    const char *dir = std::getenv("PARALIFT_CACHE_DIR");
    if (!dir || !*dir)
      return static_cast<transforms::PassResultCache *>(nullptr);
    // Function-local static: destroyed at process exit, which runs the
    // disk-limit sweep after the (earlier-registered) stats atexit hook.
    static transforms::PassResultCache instance{std::string(dir)};
    if (uint64_t mb = envCacheLimitMB())
      instance.setDiskLimitBytes(mb << 20);
    const char *stats = std::getenv("PARALIFT_CACHE_STATS");
    if (stats && *stats && std::string(stats) != "0")
      std::atexit([] {
        std::fprintf(stderr, "%s\n", instance.statsStr().c_str());
      });
    return &instance;
  }();
  return cache;
}

//===----------------------------------------------------------------------===//
// CompileJob
//===----------------------------------------------------------------------===//

bool CompileJob::ready() const {
  std::lock_guard<std::mutex> lock(session_->mutex_);
  return state_ == State::Done;
}

void CompileJob::wait() const {
  std::unique_lock<std::mutex> lock(session_->mutex_);
  session_->cv_.wait(lock, [this] { return state_ == State::Done; });
}

CompileResult &CompileJob::result() {
  wait();
  return result_;
}

CompileResult CompileJob::take() {
  wait();
  return std::move(result_);
}

const DiagnosticEngine &CompileJob::diagnostics() {
  wait();
  return diag_;
}

bool CompileJob::ok() {
  wait();
  return result_.ok;
}

double CompileJob::latencySeconds() {
  wait();
  std::lock_guard<std::mutex> lock(session_->mutex_);
  return latencySeconds_;
}

//===----------------------------------------------------------------------===//
// CompilerSession
//===----------------------------------------------------------------------===//

CompilerSession::CompilerSession(SessionOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.threads > 1)
    pool_ = std::make_unique<runtime::ThreadPool>(opts_.threads);
  if (opts_.cache) {
    cache_ = opts_.cache;
  } else if (!opts_.cacheDir.empty()) {
    ownedCache_ =
        std::make_unique<transforms::PassResultCache>(opts_.cacheDir);
    uint64_t mb = opts_.cacheLimitMB ? opts_.cacheLimitMB : envCacheLimitMB();
    if (mb)
      ownedCache_->setDiskLimitBytes(mb << 20);
    cache_ = ownedCache_.get();
  } else if (opts_.memoryCache) {
    ownedCache_ = std::make_unique<transforms::PassResultCache>();
    cache_ = ownedCache_.get();
  } else if (opts_.useEnvCache) {
    cache_ = envPassResultCache();
  }
  if (!opts_.traceJsonPath.empty())
    trace::enable();
}

CompilerSession::~CompilerSession() {
  if (asyncThread_.joinable())
    asyncThread_.join();
  // Tracing is left enabled (overlapping sessions and $PARALIFT_TRACE
  // compose); writeJson snapshots whatever has been published so far.
  if (!opts_.traceJsonPath.empty())
    trace::writeJson(opts_.traceJsonPath);
  if (opts_.metricsToStderr)
    std::fprintf(stderr, "%s",
                 metrics::MetricsRegistry::instance().textSnapshot().c_str());
  if (!opts_.metricsJsonPath.empty()) {
    std::ofstream os(opts_.metricsJsonPath,
                     std::ios::binary | std::ios::trunc);
    if (os)
      os << metrics::MetricsRegistry::instance().jsonSnapshot();
  }
  // ownedCache_'s destructor sweeps the disk bound (cacheLimitMB).
}

CompileJob &CompilerSession::addSource(std::string name, std::string source,
                                       transforms::PipelineOptions pipeline) {
  std::lock_guard<std::mutex> lock(mutex_);
  jobs_.push_back(std::make_unique<CompileJob>());
  CompileJob &job = *jobs_.back();
  job.session_ = this;
  job.name_ = std::move(name);
  job.source_ = std::move(source);
  job.pipelineOpts_ = pipeline;
  job.diag_.setModuleName(job.name_);
  return job;
}

CompileJob &CompilerSession::addModule(std::string name,
                                       ir::OwnedModule module,
                                       transforms::PipelineOptions pipeline) {
  std::lock_guard<std::mutex> lock(mutex_);
  jobs_.push_back(std::make_unique<CompileJob>());
  CompileJob &job = *jobs_.back();
  job.session_ = this;
  job.name_ = std::move(name);
  job.preparsed_ = true;
  job.result_.module = std::move(module);
  job.pipelineOpts_ = pipeline;
  job.diag_.setModuleName(job.name_);
  return job;
}

std::vector<CompileJob *> CompilerSession::takeQueued() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<CompileJob *> out;
  for (auto &job : jobs_)
    if (job->state_ == CompileJob::State::Queued) {
      job->state_ = CompileJob::State::Compiling;
      out.push_back(job.get());
    }
  return out;
}

void CompilerSession::markDone(CompileJob &job, bool ok) {
  double latency;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job.result_.ok = ok;
    job.latencySeconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      batchStart_)
            .count();
    latency = job.latencySeconds_;
    job.state_ = CompileJob::State::Done;
  }
  // Closes the async span opened at batch start; matched by (name, id).
  if (trace::enabled())
    trace::asyncEnd("job:" + job.name_, reinterpret_cast<uintptr_t>(&job));
  SessionMetrics &m = sessionMetrics();
  (ok ? m.jobsCompleted : m.jobsFailed).add();
  m.jobLatency.observe(latency);
  cv_.notify_all();
  if (opts_.onJobCompleted)
    opts_.onJobCompleted(job);
}

bool CompilerSession::runFrontendOne(CompileJob &job) {
  trace::TraceSpan span(trace::enabled() ? "parse:" + job.name_
                                         : std::string(),
                        "frontend");
  // Parser containment: a throwing frontend (or an injected
  // "parse.module" fault) fails this job with an attributed diagnostic;
  // the rest of the batch parses and compiles normally.
  if (!contained("module parse", job.diag_, [&] {
        failpoint::evaluate("parse.module");
        job.result_.module = frontend::compileToIR(job.source_, job.diag_);
        return !job.diag_.hasErrors();
      }))
    return false;
  // In either mode: diagnostics clean AND the produced IR structurally
  // valid.
  auto errors = ir::verify(job.result_.module.op());
  for (const std::string &e : errors)
    job.diag_.error(SourceLoc(), "frontend produced invalid IR: " + e);
  return errors.empty();
}

bool CompilerSession::compileJob(CompileJob &job, transforms::PassManager &pm,
                                 const std::string &spec,
                                 transforms::PassManager::RunOptions runOpts) {
  DiagnosticEngine &diag = job.diag_;
  ir::OwnedModule &module = job.result_.module;
  // A zero-pass pipeline has nothing to replay or store.
  transforms::PassResultCache *cache = pm.passes().empty() ? nullptr : cache_;
  transforms::Hash128 sourceKey, moduleKey;
  if (cache) {
    // Polled before the lookup, so an expired job fails, and runs no
    // frontend, even when its pipeline is cached.
    std::string reason = job.cancel_.expiredReason();
    if (!reason.empty()) {
      diag.error(SourceLoc(), reason + " in pass '" +
                                  pm.passes().front()->name() + "'");
      return false;
    }
    trace::TraceSpan span(
        trace::enabled() ? "start:" + job.name_ : std::string(), "session");
    std::shared_ptr<const std::string> hit;
    // A source job keys on its text, before its frontend runs; a module
    // job on the module it was given. Hooks and verify-each must see
    // every pass execute, so an inspected job never replays; it stores
    // like any miss.
    if (!contained("pass-cache lookup", diag, [&] {
          if (job.preparsed_)
            moduleKey = ir::hashOp(module.op());
          else
            sourceKey = transforms::hashBytes(job.source_);
          if (!opts_.verifyEach && !pm.hasInstrumentation())
            hit = cache->lookup(job.preparsed_ ? moduleKey : sourceKey, spec);
          return true;
        }))
      return false;
    if (span.active())
      span.annotate("cache", hit ? "replay" : "run");
    // A hit's module, parsed into a fresh arena, replaces the job's.
    if (hit)
      return contained("pass-cache replay", diag, [&] {
        DiagnosticEngine parseDiag;
        std::optional<ir::OwnedModule> replayed =
            ir::parseModule(*hit, parseDiag);
        if (!replayed || parseDiag.hasErrors()) {
          diag.error(SourceLoc(), "pass-cache: cached IR failed to re-parse "
                                  "(print/parse round-trip bug)");
          return false;
        }
        module = std::move(*replayed);
        cache->notePassesReplayed(pm.passes().size());
        uint64_t bytes = module.arena().bytesAllocated();
        if (!runOpts.maxArenaBytes || bytes <= runOpts.maxArenaBytes)
          return true;
        diag.error(SourceLoc(), "IR arena limit exceeded (" +
                                    std::to_string(bytes) + " > " +
                                    std::to_string(runOpts.maxArenaBytes) +
                                    " bytes) after replaying the cached "
                                    "pipeline");
        return false;
      });
  }
  if (!job.preparsed_) {
    if (!runFrontendOne(job))
      return false;
    // Also keyed on the module the frontend made, so module jobs
    // (textual IR, modules their caller parsed) replay what this stores.
    if (cache && !contained("pass-cache lookup", diag, [&] {
          moduleKey = ir::hashOp(module.op());
          return true;
        }))
      return false;
  }
  uint64_t executed = 0;
  runOpts.passesExecuted = &executed;
  bool ok = pm.run(module.get(), diag, runOpts);
  if (!cache)
    return ok;
  cache->notePassesExecuted(executed);
  return ok && contained("pass-cache store", diag, [&] {
           // One text under both keys: the cache holds it once.
           auto text =
               std::make_shared<const std::string>(ir::printOp(module.op()));
           if (!job.preparsed_)
             cache->store(sourceKey, spec, text);
           cache->store(moduleKey, spec, std::move(text));
           return true;
         });
}

bool CompilerSession::finalVerify(const transforms::PassManager &pm,
                                  ir::ModuleOp module,
                                  DiagnosticEngine &diag, bool ok) const {
  // With verify-each on, every intermediate module (including the final
  // one) has already been verified — except by a zero-pass pipeline
  // (round-trip mode), where verify-each never runs.
  if (!ok || (opts_.verifyEach && !pm.passes().empty()))
    return ok;
  for (const std::string &e : ir::verify(module.op)) {
    diag.error(SourceLoc(), "final module is invalid: " + e);
    ok = false;
  }
  return ok;
}

bool CompilerSession::compileAll() {
  std::lock_guard<std::mutex> compileLock(compileMutex_);
  std::vector<CompileJob *> batch = takeQueued();
  if (!batch.empty()) {
    batchStart_ = std::chrono::steady_clock::now();
    // Per-job deadlines run from batch start: "deadline exceeded after
    // Ns" measures the same window latencySeconds() reports.
    if (opts_.jobTimeoutSeconds > 0)
      for (CompileJob *job : batch)
        job->cancel_.setDeadline(opts_.jobTimeoutSeconds);
    // One async span per job, from batch admission to markDone — in the
    // trace these are the per-job "queue + compile" lifetimes that start
    // together and resolve incrementally as each job's task finishes.
    if (trace::enabled())
      for (CompileJob *job : batch)
        trace::asyncBegin("job:" + job->name_,
                          reinterpret_cast<uintptr_t>(job));
    // Group jobs by pipeline; each group compiles against one
    // PassManager. The key is the built pipeline's canonical spec, so
    // options that build the same pipeline share a group; the
    // PassManager built for each group's first job is the one the group
    // then runs. A pipeline is built once per distinct PipelineOptions
    // (its defaulted operator== compares every field, a future one
    // included), so this serial prefix of the batch does not grow with
    // its job count. Simt mode is the one-pass pipeline the lockstep
    // SIMT executor needs: device functions inlined into kernels,
    // barriers kept.
    std::optional<std::string> spec = opts_.pipelineSpec;
    if (opts_.mode == SessionMode::Simt)
      spec = "inline{kernels-only=true}";
    struct Group {
      std::string key;
      std::unique_ptr<transforms::PassManager> pm;
      std::vector<CompileJob *> jobs;
    };
    std::vector<Group> groups;
    if (spec) {
      auto pm = std::make_unique<transforms::PassManager>();
      DiagnosticEngine specDiag;
      if (!transforms::buildPipelineFromSpec(*pm, *spec, specDiag)) {
        for (CompileJob *job : batch) {
          job->diag_.mergeFrom(specDiag);
          markDone(*job, false);
        }
      } else {
        std::string key = pm->pipelineSpec();
        groups.push_back({std::move(key), std::move(pm), batch});
      }
    } else {
      // Each distinct PipelineOptions seen so far, with its group.
      std::vector<std::pair<transforms::PipelineOptions, size_t>> built;
      for (CompileJob *job : batch) {
        auto seen = std::find_if(built.begin(), built.end(), [&](auto &b) {
          return b.first == job->pipelineOpts_;
        });
        if (seen == built.end()) {
          auto pm = std::make_unique<transforms::PassManager>();
          transforms::buildPipeline(*pm, job->pipelineOpts_);
          std::string key = pm->pipelineSpec();
          auto it = std::find_if(groups.begin(), groups.end(),
                                 [&](const Group &g) { return g.key == key; });
          if (it == groups.end()) {
            groups.push_back({std::move(key), std::move(pm), {}});
            it = groups.end() - 1;
          }
          built.emplace_back(job->pipelineOpts_,
                             static_cast<size_t>(it - groups.begin()));
          seen = built.end() - 1;
        }
        groups[seen->second].jobs.push_back(job);
      }
    }
    bool hooked = false;
    // One task per job, groups in order of first appearance and jobs in
    // order within a group, so the pipelines interleave on the pool and
    // each job is marked done the moment its own task completes.
    std::vector<std::pair<Group *, CompileJob *>> tasks;
    for (Group &group : groups) {
      transforms::PassManager &pm = *group.pm;
      if (opts_.collectStatistics)
        pm.enableStatistics();
      if (opts_.configurePassManager)
        opts_.configurePassManager(pm);
      if (opts_.verifyEach)
        pm.enableVerifyEach();
      hooked = hooked || pm.hasInstrumentation();
      for (CompileJob *job : group.jobs)
        tasks.emplace_back(&group, job);
    }
    // One timing report per task: tasks appending to one shared report
    // would race and lose the task order the fold below keeps.
    std::vector<transforms::PassTimingReport> reports(
        opts_.collectTiming ? tasks.size() : 0);
    // Hooks observe one module at a time, so a hooked batch runs on this
    // thread, in job order.
    runtime::runTasks(
        hooked ? nullptr : pool_.get(), tasks.size(), [&](size_t t) {
          auto [group, job] = tasks[t];
          transforms::PassManager &pm = *group->pm;
          transforms::PassManager::RunOptions runOpts;
          runOpts.cancel = &job->cancel_;
          runOpts.timing = opts_.collectTiming ? &reports[t] : nullptr;
          runOpts.maxArenaBytes = opts_.maxArenaBytesPerModule;
          bool ok = compileJob(*job, pm, group->key, runOpts);
          {
            trace::TraceSpan span(
                trace::enabled() ? "finalize:" + job->name_ : std::string(),
                "session");
            ok = finalVerify(pm, job->result_.module.get(), job->diag_, ok);
          }
          markDone(*job, ok);
        });
    for (const transforms::PassTimingReport &report : reports)
      timing_.records.insert(timing_.records.end(), report.records.begin(),
                             report.records.end());
    // Retained only for statisticsStr(); a long-lived session that never
    // reads statistics must not accumulate one PassManager per batch.
    if (opts_.collectStatistics)
      for (Group &group : groups)
        pms_.push_back(std::move(group.pm));
    // Containment sweep: a task that runTasks cut short with a contained
    // exception (e.g. an injected "scheduler.task" fault) leaves its job
    // unresolved. Every future must resolve, so any job still not Done
    // here failed — attribute and mark it.
    for (CompileJob *job : batch) {
      bool done;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        done = job->state_ == CompileJob::State::Done;
      }
      if (!done) {
        job->diag_.error(SourceLoc(),
                         "compile task aborted before completion "
                         "(exception contained by the scheduler)");
        markDone(*job, false);
      }
    }
  }
  // Keep a long-lived session within its disk budget between batches:
  // without this, --cache-limit only bound the store at session shutdown
  // and a compile-server-style session could grow unboundedly mid-run.
  // No-op unless the resolved cache has a directory and a limit (the
  // stores themselves also auto-sweep once they exceed half the limit).
  if (cache_)
    cache_->evictToDiskLimit();
  return ok();
}

void CompilerSession::compileAllAsync() {
  if (asyncThread_.joinable())
    asyncThread_.join();
  asyncThread_ = std::thread([this] { compileAll(); });
}

bool CompilerSession::wait() {
  if (asyncThread_.joinable())
    asyncThread_.join();
  return ok();
}

size_t CompilerSession::jobCount() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return jobs_.size();
}

CompileJob &CompilerSession::job(size_t i) {
  std::lock_guard<std::mutex> lock(mutex_);
  return *jobs_.at(i);
}

bool CompilerSession::ok() const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto &job : jobs_)
    if (job->state_ != CompileJob::State::Done || !job->result_.ok)
      return false;
  return true;
}

const transforms::PassTimingReport &CompilerSession::timingReport() const {
  std::lock_guard<std::mutex> lock(compileMutex_);
  return timing_;
}

std::string CompilerSession::statisticsStr() const {
  std::lock_guard<std::mutex> lock(compileMutex_);
  std::string out;
  for (const auto &pm : pms_)
    out += pm->statisticsStr();
  return out;
}

} // namespace paralift::driver
