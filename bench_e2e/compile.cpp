// rodinia-compile-cold and rodinia-compile-warm: one operation is a
// 64-job batch, every suite source through the full, InnerPar,
// OptDisabled and MCUDA pipelines, from CUDA source to verified
// bytecode. Each batch gets a fresh session. Cold batches start from an
// empty in-memory cache, so they exercise the frontend, the pass
// pipeline, cache stores and the DAG scheduler; warm batches open a
// persistent cache directory that set-up filled, so the same layers read
// and replay instead. Nothing is executed in the timed loop.
#include "workloads.h"

#include "frontend/irgen.h"
#include "ir/verifier.h"
#include "vm/verifier.h"

#include <cstring>
#include <map>
#include <memory>
#include <unistd.h>
#include <unordered_map>

namespace paralift::e2e {
namespace {

/// The pipelines every source is compiled through in a batch.
const std::vector<PipelineVariant> &pipelineVariants() {
  static const std::vector<PipelineVariant> variants = [] {
    transforms::PipelineOptions innerPar;
    innerPar.innerSerialize = false;
    return std::vector<PipelineVariant>{
        {"full", transforms::PipelineOptions{}},
        {"innerpar", innerPar},
        {"optdisabled", transforms::PipelineOptions::optDisabled()},
        {"mcuda", transforms::PipelineOptions::mcuda()}};
  }();
  return variants;
}

/// One job of a batch: a suite source through one pipeline.
struct JobSpec {
  size_t bench; ///< index into rodinia::suite()
  const PipelineVariant *pipeline;
  std::string name;
};

std::vector<JobSpec> batchJobs() {
  std::vector<JobSpec> specs;
  const auto &suite = rodinia::suite();
  for (size_t b = 0; b < suite.size(); ++b)
    for (const PipelineVariant &p : pipelineVariants())
      specs.push_back({b, &p, suite[b].id + "/" + p.name});
  return specs;
}

const char *sourceOf(const JobSpec &s) {
  return rodinia::suite()[s.bench].cudaSource;
}

/// What one job produced.
struct JobOutcome {
  std::string error;   ///< empty when compiled, lowered and verified
  ir::Hash128 hash{};  ///< ir::hashOp of the compiled module
  size_t instrs = 0;   ///< bytecode instructions
  double latency = 0;  ///< seconds from batch start to verified bytecode
};

struct Batch {
  /// Session construction to the last verified bytecode, plus teardown.
  double wall = 0;
  std::vector<JobOutcome> jobs; ///< by JobSpec index; set for `order`
  std::vector<size_t> order;
  transforms::PassResultCache::StatsSnapshot cache;
};

size_t instructionCount(const vm::BCModule &bc) {
  size_t n = 0;
  for (const auto &f : bc.fns)
    n += f.instrs.size();
  return n;
}

/// Runs `module`'s `run` on a fresh workload of `b` at `scale`; empty
/// when it completes and matches `oracle`, otherwise why not.
std::string runAndCheck(const rodinia::Benchmark &b, ir::ModuleOp module,
                        int scale, unsigned threads,
                        const BufferImage &oracle) {
  driver::Executor exec(module, threads, /*boundsCheck=*/false);
  rodinia::Workload w = b.makeWorkload(scale);
  vm::CallResult r = exec.tryRun("run", w.args());
  if (!r.ok())
    return "trap: " + r.error;
  return compareOutputs(w, oracle);
}

/// Finishes a compiled job: hash of its module, and for the first batch
/// of a run, its output at scale 1 against the SIMT oracle.
void inspect(driver::CompileJob &job, const JobSpec &spec, JobOutcome &o,
             unsigned threads, const std::vector<BufferImage> *oracle) {
  if (!o.error.empty())
    return;
  ir::ModuleOp module = job.result().module.get();
  o.hash = ir::hashOp(module.op);
  if (oracle) {
    std::string err = runAndCheck(rodinia::suite()[spec.bench], module, 1,
                                  threads, (*oracle)[spec.bench]);
    if (!err.empty())
      o.error = "scale-1 run: " + err;
  }
}

/// The production path: the batch's sources queued on one session, each
/// job lowered and verified by the worker that completes it. Hashing
/// and the optional oracle check happen outside the timed wall.
Batch runBatch(const std::vector<JobSpec> &specs, std::vector<size_t> order,
               driver::SessionOptions so,
               const std::vector<BufferImage> *oracle = nullptr) {
  Batch b;
  b.jobs.resize(specs.size());
  b.order = std::move(order);
  std::unordered_map<const driver::CompileJob *, size_t> index;
  double t0 = now();
  so.onJobCompleted = [&](driver::CompileJob &job) {
    JobOutcome &o = b.jobs[index.at(&job)];
    if (!job.ok()) {
      o.error = job.diagnostics().str();
    } else {
      vm::BCModule bc = vm::compileModule(job.result().module.get());
      vm::VerifyResult vr = vm::verifyModule(bc);
      o.instrs = instructionCount(bc);
      if (!vr.ok())
        o.error = "bytecode rejected: " + vr.str();
    }
    o.latency = now() - t0;
  };
  auto session = std::make_unique<driver::CompilerSession>(so);
  std::vector<driver::CompileJob *> jobs(specs.size());
  for (size_t i : b.order) {
    jobs[i] = &session->addSource(specs[i].name, sourceOf(specs[i]),
                                  specs[i].pipeline->opts);
    index[jobs[i]] = i;
  }
  session->compileAll();
  double t1 = now();
  for (size_t i : b.order)
    inspect(*jobs[i], specs[i], b.jobs[i], so.threads, oracle);
  if (session->cache())
    b.cache = session->cache()->stats();
  double t2 = now();
  session.reset();
  b.wall = (t1 - t0) + (now() - t2);
  return b;
}

/// The batch decomposed so that bench spans can cover every stage on
/// this thread: frontend, then the session's pass pipeline over the
/// parsed modules, then lowering and verification. With a `tally` (a
/// traced batch) the stages' self times, which sum to the operation's
/// wall, its counts and its per-pass times are added to it.
Batch runDecomposedBatch(const std::vector<JobSpec> &specs,
                         std::vector<size_t> order, driver::SessionOptions so,
                         LayerTally *tally,
                         std::map<std::string, double> &passSeconds) {
  Batch b;
  b.jobs.resize(specs.size());
  b.order = std::move(order);
  LayerClock *clock = tally ? &tally->clock : nullptr;
  LayerTally::Counters before = LayerTally::Counters::read();
  so.collectTiming = tally != nullptr;
  std::optional<driver::CompilerSession> session;
  std::vector<driver::CompileJob *> jobs(specs.size());
  double t0 = now();
  {
    LayerClock::Span op(clock, Layer::Native, "batch");
    session.emplace(so);
    for (size_t i : b.order) {
      const char *src = sourceOf(specs[i]);
      DiagnosticEngine diag;
      ir::OwnedModule module;
      bool ok;
      {
        LayerClock::Span s(clock, Layer::Frontend, "frontend:" + specs[i].name);
        module = frontend::compileToIR(src, diag);
        ok = !diag.hasErrors() && ir::verifyOk(module.op());
      }
      if (tally)
        tally->addFrontendBytes(std::strlen(src));
      if (!ok) {
        b.jobs[i].error = "frontend: " + diag.str();
        continue;
      }
      jobs[i] = &session->addModule(specs[i].name, std::move(module),
                                    specs[i].pipeline->opts);
    }
    {
      LayerClock::Span s(clock, Layer::Pm, "compileAll");
      session->compileAll();
    }
    for (size_t i : b.order) {
      JobOutcome &o = b.jobs[i];
      if (!jobs[i])
        continue;
      if (!jobs[i]->ok()) {
        o.error = jobs[i]->diagnostics().str();
        continue;
      }
      vm::BCModule bc;
      {
        LayerClock::Span s(clock, Layer::VmLower, "lower:" + specs[i].name);
        bc = vm::compileModule(jobs[i]->result().module.get());
      }
      vm::VerifyResult vr;
      {
        LayerClock::Span s(clock, Layer::VmVerify, "verify:" + specs[i].name);
        vr = vm::verifyModule(bc);
      }
      o.instrs = instructionCount(bc);
      if (tally)
        tally->addBytecode(o.instrs);
      if (!vr.ok())
        o.error = "bytecode rejected: " + vr.str();
      o.latency = now() - t0;
    }
  }
  b.wall = now() - t0;
  LayerTally::Counters after = LayerTally::Counters::read();
  for (size_t i : b.order)
    if (jobs[i])
      inspect(*jobs[i], specs[i], b.jobs[i], so.threads, nullptr);
  b.cache = session->cache()->stats();
  if (tally) {
    tally->addCounters(before, after);
    tally->addCache(b.cache);
    for (const auto &r : session->timingReport().records)
      passSeconds[r.spec] += r.seconds;
  }
  return b;
}

/// A scratch directory removed with everything in it when the run ends.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(std::filesystem::path p) : path(std::move(p)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  TempDir(const TempDir &) = delete;
  TempDir &operator=(const TempDir &) = delete;
};

} // namespace

void runCompile(const RunConfig &cfg, Report &report, bool warm) {
  const unsigned T = cfg.threads;
  const std::vector<JobSpec> specs = batchJobs();
  const size_t n = specs.size();
  std::mt19937_64 rng(cfg.seed);
  std::vector<BufferImage> oracle =
      simtOracle(std::vector<int>(rodinia::suite().size(), 1), T);

  // Every job of every batch must produce the module and bytecode the
  // first set-up batch did; that batch's outputs are executed and
  // checked against the SIMT oracle.
  std::vector<JobOutcome> ref;
  auto check = [&](const Batch &b, const char *what) {
    for (size_t i : b.order) {
      const JobOutcome &o = b.jobs[i];
      std::string err = o.error;
      if (err.empty() && !(o.hash == ref[i].hash))
        err = "compiled IR differs from the first batch";
      if (err.empty() && o.instrs != ref[i].instrs)
        err = "bytecode differs from the first batch";
      report.record(err.empty(), specs[i].name + " (" + what + "): " + err);
    }
  };
  // A warm batch must replay every pass; executing one is a failure.
  auto checkReplayOnly = [&](const Batch &b) {
    report.record(b.cache.passesExecuted == 0,
                  "warm batch executed " +
                      std::to_string(b.cache.passesExecuted) + " passes");
  };

  // Set-up. Cold: a fresh session's first batch. Warm: a fresh cache
  // directory filled by one batch; the last one is kept for the loop.
  std::optional<TempDir> scratch;
  if (warm)
    scratch.emplace(cfg.workDir / ("cache-" + std::to_string(getpid())));
  std::filesystem::path cacheDir;
  int k = 0;
  double setupSeconds = medianSetup(cfg.setupReps(9), [&] {
    driver::SessionOptions so = sessionOptions(T);
    double mkdirSeconds = 0;
    if (warm) {
      if (!cacheDir.empty())
        std::filesystem::remove_all(cacheDir);
      cacheDir = scratch->path / ("setup" + std::to_string(k));
      double t0 = now();
      std::filesystem::create_directories(cacheDir);
      mkdirSeconds = now() - t0;
      so.cacheDir = cacheDir.string();
    } else {
      so.memoryCache = true;
    }
    Batch b =
        runBatch(specs, shuffled(n, rng), so, k == 0 ? &oracle : nullptr);
    if (k++ == 0)
      ref = b.jobs;
    check(b, "setup");
    return mkdirSeconds + b.wall;
  });

  auto measured = [&](unsigned threads) {
    driver::SessionOptions so = sessionOptions(threads);
    if (warm)
      so.cacheDir = cacheDir.string();
    else
      so.memoryCache = true;
    return so;
  };
  auto system = [&](unsigned threads) {
    Batch b = runBatch(specs, shuffled(n, rng), measured(threads));
    check(b, "batch");
    if (warm)
      checkReplayOnly(b);
    return b;
  };
  // The reference is the same batch one caching step down, on the same
  // T workers: for a cold batch a session without a cache (every pass
  // runs, shared pipeline prefixes included), for a warm batch a cold one.
  auto reference = [&] {
    driver::SessionOptions so = sessionOptions(T);
    so.memoryCache = warm;
    Batch b = runBatch(specs, shuffled(n, rng), so);
    check(b, "reference");
    return b;
  };

  // Closed loop of pairs in a seeded order: measured batch and reference
  // in an untraced run. A traced run pairs the decomposed batch traced
  // with the same batch untraced, which gives the tracing overhead.
  const size_t minBatches = cfg.minSamples(20);
  const int tailPct = Stats::tailPercentile(n * 20);
  LayerTally tally;
  std::map<std::string, double> passSeconds;
  Stats walls, refWalls, latencies, tracedWalls;
  auto decomposed = [&](bool traced) {
    if (traced)
      trace::enable();
    Batch b = runDecomposedBatch(specs, shuffled(n, rng), measured(T),
                                 traced ? &tally : nullptr, passSeconds);
    trace::disable();
    check(b, "decomposed batch");
    if (warm)
      checkReplayOnly(b);
    return b;
  };
  // One round: the measured batch and its partner, in a seeded order.
  // Returns the commit of its samples.
  auto round = [&](bool record) -> std::function<void()> {
    Batch measuredBatch, other;
    bool otherFirst = rng() & 1;
    for (bool isOther : {otherFirst, !otherFirst}) {
      if (cfg.traced)
        (isOther ? other : measuredBatch) = decomposed(record && isOther);
      else if (isOther)
        other = reference();
      else
        measuredBatch = system(T);
    }
    return [&, b = std::move(measuredBatch), o = std::move(other)] {
      walls.add(b.wall);
      for (size_t i : b.order)
        latencies.add(b.jobs[i].latency);
      (cfg.traced ? tracedWalls : refWalls).add(o.wall);
    };
  };
  round(/*record=*/false); // warm-up
  TimedLoop loop(cfg, minBatches);
  while (loop.more())
    loop.add(round(true));

  report.detail("batch_ms", 1e3 * walls.median(), "ms");
  report.detail("batches", loop.rounds(), "count");
  report.detail("batches_dropped", loop.dropped(), "count");
  report.detail("steal_pct", loop.stealPct(), "%");
  if (!cfg.traced) {
    report.detail("reference_batch_ms", 1e3 * refWalls.median(), "ms");
    report.detail("latency_tail_percentile", tailPct, "pct");
    report.detail("latency_tail_ms", 1e3 * latencies.at(tailPct), "ms");
    report.detail("throughput_per_s", n / walls.median(), "1/s");
    report.endToEnd("setup_s", setupSeconds, "s");
    report.endToEnd("latency_ms", 1e3 * latencies.median(), "ms");
    report.endToEnd("speedup_vs_ref", refWalls.median() / walls.median(),
                    "x");
    report.endToEnd("peak_rss_mb", peakRssMb(), "MB");
    return;
  }

  // One worker against T, on the measured path.
  Stats one, full;
  for (size_t rep = 0; rep < cfg.minSamples(5); ++rep) {
    one.add(system(1).wall);
    full.add(system(T).wall);
  }
  tally.report(report, one.median() / full.median(),
               100.0 * (tracedWalls.median() / walls.median() - 1.0));
  double traced = std::max<size_t>(tally.clock.ops(), 1);
  for (const auto &[spec, seconds] : passSeconds)
    report.detail("pm.pass." + spec + ".ms", 1e3 * seconds / traced, "ms");
}

} // namespace paralift::e2e
