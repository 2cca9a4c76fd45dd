#include "driver/session.h"

#include "ir/verifier.h"
#include "runtime/thread_pool.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"
#include "transforms/pass_cache.h"
#include "transforms/registry.h"

#include <algorithm>
#include <atomic>
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
  job.frontendOk_ = true;
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

void CompilerSession::runFrontendOne(CompileJob &job) {
  trace::TraceSpan span(trace::enabled() ? "parse:" + job.name_
                                         : std::string(),
                        "frontend");
  // Parser containment: a throwing frontend (or an injected
  // "parse.module" fault) fails this job with an attributed diagnostic;
  // the rest of the batch parses and compiles normally.
  try {
    failpoint::evaluate("parse.module");
    job.result_.module = frontend::compileToIR(job.source_, job.diag_);
  } catch (const std::exception &e) {
    job.diag_.error(SourceLoc(),
                    "module parse threw: " + std::string(e.what()));
    return;
  } catch (...) {
    job.diag_.error(SourceLoc(),
                    "module parse threw a non-standard exception");
    return;
  }
  if (job.diag_.hasErrors())
    return;
  if (opts_.mode == SessionMode::Optimize) {
    // Same gate the facade always applied: diagnostics clean AND the
    // produced IR structurally valid.
    auto errors = ir::verify(job.result_.module.op());
    if (!errors.empty()) {
      for (const std::string &e : errors)
        job.diag_.error(SourceLoc(), "frontend produced invalid IR: " + e);
      return;
    }
  }
  job.frontendOk_ = true;
}

void CompilerSession::compileSimt(const std::vector<CompileJob *> &jobs) {
  // Each job owns its module and engine, so the jobs fan out trivially.
  auto simtOne = [this](CompileJob &job) {
    if (!job.preparsed_)
      runFrontendOne(job);
    if (!job.frontendOk_)
      return false;
    transforms::runInliner(job.result_.module.get(), /*onlyInKernels=*/true);
    return ir::verifyOk(job.result_.module.op());
  };
  std::vector<char> oks(jobs.size(), 0);
  if (pool_ && jobs.size() >= 2) {
    std::atomic<size_t> next{0};
    pool_->parallel([&](unsigned, runtime::Team &) {
      for (size_t k = next.fetch_add(1); k < jobs.size();
           k = next.fetch_add(1))
        oks[k] = simtOne(*jobs[k]) ? 1 : 0;
    });
  } else {
    for (size_t k = 0; k < jobs.size(); ++k)
      oks[k] = simtOne(*jobs[k]) ? 1 : 0;
  }
  for (size_t k = 0; k < jobs.size(); ++k)
    markDone(*jobs[k], oks[k] != 0);
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
    // together and resolve incrementally under the DAG scheduler.
    if (trace::enabled())
      for (CompileJob *job : batch)
        trace::asyncBegin("job:" + job->name_,
                          reinterpret_cast<uintptr_t>(job));
    if (opts_.mode == SessionMode::Simt) {
      compileSimt(batch);
    } else {
      // Group jobs by pipeline; each group compiles against one
      // PassManager so the batch scheduler sees the union of kernels.
      // The key is the built pipeline's canonical spec — not the
      // PipelineOptions fields — so a future option can never silently
      // misgroup jobs onto another job's pipeline; the PassManager built
      // for each group's first job is the one the group then runs.
      struct Group {
        std::string key;
        std::unique_ptr<transforms::PassManager> pm;
        std::vector<CompileJob *> jobs;
      };
      std::vector<Group> groups;
      if (opts_.pipelineSpec) {
        auto pm = std::make_unique<transforms::PassManager>();
        DiagnosticEngine specDiag;
        if (!transforms::buildPipelineFromSpec(*pm, *opts_.pipelineSpec,
                                               specDiag)) {
          for (CompileJob *job : batch) {
            job->diag_.mergeFrom(specDiag);
            markDone(*job, false);
          }
        } else {
          groups.push_back({*opts_.pipelineSpec, std::move(pm), batch});
        }
      } else {
        for (CompileJob *job : batch) {
          auto pm = std::make_unique<transforms::PassManager>();
          transforms::buildPipeline(*pm, job->pipelineOpts_);
          std::string key = pm->pipelineSpec();
          auto it =
              std::find_if(groups.begin(), groups.end(),
                           [&](const Group &g) { return g.key == key; });
          if (it == groups.end()) {
            groups.push_back({std::move(key), std::move(pm), {}});
            it = groups.end() - 1;
          }
          it->jobs.push_back(job);
        }
      }
      bool hooked = false;
      for (Group &group : groups) {
        transforms::PassManager &pm = *group.pm;
        pm.setResultCache(cache_);
        if (opts_.collectStatistics)
          pm.enableStatistics();
        // Custom hooks outermost, then the analysis cross-check.
        if (opts_.configurePassManager)
          opts_.configurePassManager(pm);
        if (opts_.verifyAnalyses)
          pm.enableAnalysisVerify();
        if (opts_.verifyEach)
          pm.enableVerifyEach();
        if (opts_.collectTiming)
          pm.enableTiming(&timing_);
        hooked = hooked || pm.hasInstrumentation();
      }
      // Every group's graph goes onto one scheduler: parse/keying leaves
      // and pass steps of all pipelines interleave freely, and each job
      // is marked done the moment its own chain completes. Hooks observe
      // one module at a time, so a hooked batch drains on this thread,
      // each module's chain in job order.
      {
        runtime::TaskScheduler sched(hooked ? nullptr : pool_.get());
        std::vector<std::shared_ptr<transforms::BatchDag>> states;
        for (Group &group : groups) {
          transforms::PassManager &pm = *group.pm;
          std::vector<transforms::PassManager::BatchItem> items;
          for (CompileJob *job : group.jobs) {
            transforms::PassManager::BatchItem item;
            item.diag = &job->diag_;
            if (job->preparsed_)
              item.module = job->result_.module.op();
            else
              item.prepare = [this, job]() -> std::optional<ir::ModuleOp> {
                runFrontendOne(*job);
                if (!job->frontendOk_)
                  return std::nullopt;
                return job->result_.module.get();
              };
            items.push_back(std::move(item));
          }
          transforms::PassManager::BatchOptions bo;
          bo.maxArenaBytes = opts_.maxArenaBytesPerModule;
          for (CompileJob *job : group.jobs)
            bo.cancels.push_back(&job->cancel_);
          transforms::PassManager *pmPtr = &pm;
          std::vector<CompileJob *> groupJobs = group.jobs;
          bo.onModuleDone = [this, pmPtr, groupJobs](size_t idx, bool ok) {
            CompileJob *job = groupJobs[idx];
            {
              trace::TraceSpan span(trace::enabled()
                                        ? "finalize:" + job->name_
                                        : std::string(),
                                    "session");
              ok = finalVerify(*pmPtr, job->result_.module.get(),
                               job->diag_, ok);
            }
            markDone(*job, ok);
          };
          states.push_back(
              pm.scheduleBatch(sched, std::move(items), std::move(bo)));
        }
        sched.run();
        // Containment sweep: a task chain severed mid-batch (an
        // exception contained by the scheduler's worker loop, e.g. an
        // injected "scheduler.task" fault) leaves its job un-resolved
        // even though run() drained. Every future must resolve, so any
        // job still not Done here failed — attribute and mark it.
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
        for (auto &state : states)
          state->foldTimingInto(timing_);
      }
      // Retained only for statisticsStr(); a long-lived session that
      // never reads statistics must not accumulate one PassManager per
      // batch.
      if (opts_.collectStatistics)
        for (Group &group : groups)
          pms_.push_back(std::move(group.pm));
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
