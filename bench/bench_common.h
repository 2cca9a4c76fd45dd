// Shared harness utilities for the figure-reproduction benchmarks.
// Each bench binary prints the rows/series of one paper table or figure;
// absolute numbers are interpreter-scale (see bench_e2e/README.md), the
// comparisons are the reproduction target.
#pragma once

#include "ir/hasher.h"
#include "ir/ophelpers.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "rodinia/rodinia.h"
#include "transforms/pass_cache.h"
#include "transforms/pass_manager.h"

#include <algorithm>
#include <cmath>
#include <chrono>
#include <thread>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace paralift::bench {

inline double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// Median-of-N wall-clock seconds.
template <typename Fn> double medianTime(Fn &&fn, int reps = 3) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    double t0 = now();
    fn();
    times.push_back(now() - t0);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Median-of-N kernel seconds: `setup()` builds fresh state outside the
/// timed region (workload construction is serial host work and must not
/// dilute the parallel measurements), `run(state)` is timed.
template <typename Setup, typename Run>
double medianKernelTime(Setup &&setup, Run &&run, int reps = 3) {
  std::vector<double> times;
  for (int r = 0; r < reps; ++r) {
    auto state = setup();
    double t0 = now();
    run(state);
    times.push_back(now() - t0);
  }
  std::sort(times.begin(), times.end());
  return times[times.size() / 2];
}

/// Accumulates per-pass timing and IR-arena records across many
/// compilations, aggregated by canonical pass spec in first-seen
/// (pipeline) order.
class PassTimeAggregator {
public:
  void add(const transforms::PassTimingReport &report) {
    for (const auto &r : report.records) {
      auto it = std::find_if(agg_.begin(), agg_.end(), [&](const auto &p) {
        return p.spec == r.spec;
      });
      if (it == agg_.end())
        agg_.push_back({r.spec, r.seconds, r.arenaDeltaBytes});
      else {
        it->seconds += r.seconds;
        it->arenaDeltaBytes += r.arenaDeltaBytes;
      }
    }
  }

  double totalSeconds() const {
    double total = 0;
    for (const auto &row : agg_)
      total += row.seconds;
    return total;
  }

  /// Prints one row per pass with its share of the total and its summed
  /// IR-arena growth, then the total.
  void print() const {
    double total = totalSeconds();
    uint64_t totalArena = 0;
    for (const auto &row : agg_)
      totalArena += row.arenaDeltaBytes;
    for (const auto &row : agg_)
      std::fputs(transforms::formatTimingRow(row.seconds, total,
                                             row.arenaDeltaBytes, row.spec)
                     .c_str(),
                 stdout);
    std::printf("  %10.6f s total, IR-arena +%.2f MB\n", total,
                totalArena / (1024.0 * 1024.0));
  }

private:
  struct Row {
    std::string spec;
    double seconds = 0;
    uint64_t arenaDeltaBytes = 0;
  };
  std::vector<Row> agg_;
};

/// The suite's frontend output, parsed once and cloned per pipeline run
/// (re-running lexer/parser/irgen per stage wastes most of an ablation
/// sweep's compile time). Benchmarks whose frontend failed are marked
/// invalid and skipped by the consumers (never fed into the pipeline or
/// the executor).
struct SuiteModules {
  std::vector<ir::OwnedModule> modules; ///< rodinia::suite() order
  std::vector<char> valid;              ///< parallel to modules

  bool isValid(size_t i) const { return i < valid.size() && valid[i]; }
};

inline SuiteModules parseSuiteModules() {
  SuiteModules out;
  for (const auto &b : rodinia::suite()) {
    DiagnosticEngine diag;
    out.modules.push_back(frontend::compileToIR(b.cudaSource, diag));
    // Same gate driver::compile applies: diagnostics clean AND the
    // produced IR structurally valid.
    bool ok = !diag.hasErrors() && ir::verifyOk(out.modules.back().op());
    out.valid.push_back(ok ? 1 : 0);
    if (!ok)
      std::fprintf(stderr, "frontend failed for %s:\n%s\n", b.id.c_str(),
                   diag.str().c_str());
  }
  return out;
}

/// SessionOptions preconfigured for suite compiles: no env cache (bench
/// numbers must not depend on the caller's environment), the given
/// shared cache and worker-pool size. Every bench session derives from
/// this so the no-env-cache invariant lives in one place.
inline driver::SessionOptions
suiteSessionOptions(unsigned threads = 1,
                    transforms::PassResultCache *cache = nullptr,
                    bool collectTiming = false) {
  driver::SessionOptions so;
  so.threads = threads;
  so.cache = cache;
  so.useEnvCache = false;
  so.collectTiming = collectTiming;
  return so;
}

inline driver::CompilerSession
makeSuiteSession(unsigned threads = 1,
                 transforms::PassResultCache *cache = nullptr,
                 bool collectTiming = false) {
  return driver::CompilerSession(
      suiteSessionOptions(threads, cache, collectTiming));
}

/// Runs the optimization pipeline over clones of the pre-parsed suite
/// through one batch session with per-pass timing enabled; `cache`
/// (optional) is the shared pass-result cache exercised across stages,
/// `threads` the session's worker pool.
inline PassTimeAggregator
timeSuiteCompiles(const transforms::PipelineOptions &opts,
                  const SuiteModules &suite,
                  transforms::PassResultCache *cache = nullptr,
                  unsigned threads = 1) {
  driver::CompilerSession session =
      makeSuiteSession(threads, cache, /*collectTiming=*/true);
  size_t idx = 0;
  for (const auto &b : rodinia::suite()) {
    size_t i = idx++;
    if (!suite.isValid(i))
      continue;
    session.addModule(b.id, ir::cloneModule(suite.modules[i].get()), opts);
  }
  session.compileAll();
  for (size_t i = 0; i < session.jobCount(); ++i)
    if (!session.job(i).ok())
      std::fprintf(stderr, "compile failed for %s:\n%s\n",
                   session.job(i).name().c_str(),
                   session.job(i).diagnostics().str().c_str());
  PassTimeAggregator agg;
  agg.add(session.timingReport());
  return agg;
}

/// Legacy entry point: parses the suite on every call.
inline PassTimeAggregator
timeSuiteCompiles(const transforms::PipelineOptions &opts) {
  SuiteModules suite = parseSuiteModules();
  return timeSuiteCompiles(opts, suite);
}

/// Compiles every suite benchmark's CUDA source through one batch
/// session. jobs[] is parallel to rodinia::suite(); entries are null for
/// benchmarks whose compile failed (already reported to stderr).
struct SuiteSession {
  std::unique_ptr<driver::CompilerSession> session;
  std::vector<driver::CompileJob *> jobs;
};

inline SuiteSession
compileSuiteSession(const transforms::PipelineOptions &opts,
                    unsigned threads = 1,
                    transforms::PassResultCache *cache = nullptr) {
  SuiteSession out;
  out.session = std::make_unique<driver::CompilerSession>(
      suiteSessionOptions(threads, cache));
  for (const auto &b : rodinia::suite())
    out.jobs.push_back(&out.session->addSource(b.id, b.cudaSource, opts));
  out.session->compileAll();
  for (auto *&job : out.jobs)
    if (!job->ok()) {
      std::fprintf(stderr, "compile failed for %s:\n%s\n",
                   job->name().c_str(), job->diagnostics().str().c_str());
      job = nullptr;
    }
  return out;
}

/// Cache-keying cost over the parsed suite: the structural hasher
/// (ir::hashOp). A module job keys its whole module once, with its
/// pipeline's spec, before it replays or runs the pipeline; a source job
/// keys on its text, and hashes the module its frontend made only on a
/// miss, for the entry module jobs replay. Either is one walk over the
/// module's functions, the per-function walks summed here.
struct KeyingTimes {
  double structuralSeconds = 0;
  size_t funcs = 0;
  int rounds = 0;
};

inline KeyingTimes measureKeyingTime(const SuiteModules &suite,
                                     int rounds = 50) {
  KeyingTimes out;
  out.rounds = rounds;
  for (size_t i = 0; i < suite.modules.size(); ++i)
    if (suite.isValid(i))
      for (ir::Op *op : suite.modules[i].get().body())
        if (op->kind() == ir::OpKind::Func)
          ++out.funcs;
  // volatile sinks keep the hash loops from folding away without pulling
  // google-benchmark into this header.
  volatile uint64_t sink = 0;
  out.structuralSeconds = medianTime([&] {
    uint64_t acc = 0;
    for (int r = 0; r < rounds; ++r)
      for (size_t i = 0; i < suite.modules.size(); ++i) {
        if (!suite.isValid(i))
          continue;
        for (ir::Op *op : suite.modules[i].get().body())
          if (op->kind() == ir::OpKind::Func)
            acc ^= ir::hashOp(op).lo;
      }
    sink = acc;
  });
  (void)sink;
  return out;
}

inline void printKeyingTime(const KeyingTimes &k) {
  std::printf("\n=== Cache-keying time, whole suite x%d (structural "
              "ir::hashOp) ===\n\n",
              k.rounds);
  std::printf("  structural ir::hashOp : %10.6f s  (%zu funcs x%d)\n",
              k.structuralSeconds, k.funcs, k.rounds);
}

inline void printKeyingTime(const SuiteModules &suite, int rounds = 50) {
  printKeyingTime(measureKeyingTime(suite, rounds));
}

inline double geomean(const std::vector<double> &xs) {
  if (xs.empty())
    return 0.0;
  double logSum = 0;
  for (double x : xs)
    logSum += std::log(x);
  return std::exp(logSum / xs.size());
}

/// Median workload time of an already-compiled benchmark module.
inline double timeCompiled(const rodinia::Benchmark &b, ir::ModuleOp module,
                           bool innerSerialize, int scale, unsigned threads,
                           int reps = 3) {
  driver::Executor exec(module, std::max(threads, 8u),
                        /*boundsCheck=*/false);
  exec.setNumThreads(threads);
  exec.setNestedPolicy(innerSerialize ? runtime::NestedPolicy::Serialize
                                      : runtime::NestedPolicy::Spawn);
  return medianKernelTime(
      [&] { return b.makeWorkload(scale); },
      [&](rodinia::Workload &w) { exec.run("run", w.args()); }, reps);
}

/// As timeCuda below, but starting from a pre-parsed module (cloned, so
/// the original stays reusable across stages), compiled through a
/// single-job session.
inline double timeCudaModule(const rodinia::Benchmark &b,
                             ir::ModuleOp parsed,
                             const transforms::PipelineOptions &opts,
                             int scale, unsigned threads, int reps = 3) {
  driver::CompilerSession session = makeSuiteSession();
  driver::CompileJob &job =
      session.addModule(b.id, ir::cloneModule(parsed), opts);
  if (!session.compileAll()) {
    std::fprintf(stderr, "compile failed for %s:\n%s\n", b.id.c_str(),
                 job.diagnostics().str().c_str());
    return -1;
  }
  return timeCompiled(b, job.result().module.get(), opts.innerSerialize,
                      scale, threads, reps);
}

/// Compiles a Rodinia benchmark's CUDA source with the given options and
/// returns the median time of running `run` on a workload of `scale`.
inline double timeCuda(const rodinia::Benchmark &b,
                       const transforms::PipelineOptions &opts, int scale,
                       unsigned threads, int reps = 3) {
  DiagnosticEngine diag;
  auto cc = driver::compile(b.cudaSource, opts, diag);
  if (!cc.ok) {
    std::fprintf(stderr, "compile failed for %s:\n%s\n", b.id.c_str(),
                 diag.str().c_str());
    return -1;
  }
  return timeCompiled(b, cc.module.get(), opts.innerSerialize, scale,
                      threads, reps);
}

inline double timeOpenmp(const rodinia::Benchmark &b, int scale,
                         unsigned threads, int reps = 3) {
  if (!b.openmpSource)
    return -1;
  DiagnosticEngine diag;
  transforms::PipelineOptions opts;
  auto cc = driver::compile(b.openmpSource, opts, diag);
  if (!cc.ok) {
    std::fprintf(stderr, "compile failed for %s (omp):\n%s\n", b.id.c_str(),
                 diag.str().c_str());
    return -1;
  }
  driver::Executor exec(cc.module.get(), std::max(threads, 8u),
                        /*boundsCheck=*/false);
  exec.setNumThreads(threads);
  return medianKernelTime(
      [&] { return b.makeWorkload(scale); },
      [&](rodinia::Workload &w) { exec.run("run", w.args()); }, reps);
}

} // namespace paralift::bench
