// Supporting table: compilation-time cost of each pipeline stage across
// the Rodinia suite (not a paper figure; quantifies the compiler itself).
//
// --json=FILE additionally emits a machine-readable BENCH_compile.json
// (suite batch wall per thread count, mean/median/p95 job-completion
// latency, keying time, arena parse/clone/teardown cost,
// cache stats, tracing-disabled vs -enabled overhead, failpoint
// disarmed vs armed-inert overhead, and a MetricsRegistry snapshot) so
// the perf trajectory is tracked across PRs.
#include "bench_common.h"

#include "ir/parser.h"
#include "support/failpoint.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <benchmark/benchmark.h>

using namespace paralift;
using namespace paralift::bench;

namespace {

double timeCompile(const rodinia::Benchmark &b,
                   const transforms::PipelineOptions &opts) {
  return medianTime(
      [&] {
        DiagnosticEngine diag;
        auto cc = driver::compile(b.cudaSource, opts, diag);
        benchmark::DoNotOptimize(cc.ok);
      },
      3);
}

void printTable() {
  std::printf("\n=== Compile time per benchmark (seconds) ===\n\n");
  std::printf("%-28s%12s%12s%12s\n", "benchmark", "full", "optdis",
              "mcuda");
  for (const auto &b : rodinia::suite()) {
    transforms::PipelineOptions full;
    std::printf("%-28s%12.4f%12.4f%12.4f\n", b.name.c_str(),
                timeCompile(b, full),
                timeCompile(b, transforms::PipelineOptions::optDisabled()),
                timeCompile(b, transforms::PipelineOptions::mcuda()));
  }
}

/// Per-pass compile-time breakdown across the suite for the full
/// pipeline, plus the effect of parallel per-kernel pass scheduling.
void printPassBreakdown() {
  std::printf("\n=== Per-pass compile time, full pipeline (seconds, summed "
              "over suite) ===\n\n");
  timeSuiteCompiles(transforms::PipelineOptions{}).print();

  std::printf("\n=== Compile throughput vs --pm-threads, serial per-module "
              "(whole suite, seconds) ===\n\n");
  for (unsigned threads : {1u, 2u, 4u}) {
    double t = medianTime(
        [&] {
          for (const auto &b : rodinia::suite()) {
            DiagnosticEngine diag;
            transforms::PassRunConfig config;
            config.threads = threads;
            auto cc = driver::compile(b.cudaSource,
                                      transforms::PipelineOptions{}, diag,
                                      config);
            benchmark::DoNotOptimize(cc.ok);
          }
        },
        3);
    std::printf("  pm-threads=%u  %10.4f s\n", threads, t);
  }
}

/// One measured batch compile of the whole suite through a session.
struct SchedulerMeasurement {
  unsigned threads = 1;        ///< session pool size
  double wallSeconds = 0;      ///< compileAll wall clock
  double meanJobSeconds = 0;   ///< mean CompileJob-completion latency
  double medianJobSeconds = 0; ///< median CompileJob-completion latency
  double p95JobSeconds = 0;    ///< p95 CompileJob-completion latency
  double wallQ1Seconds = 0;    ///< wall-clock quartiles over the reps
  double wallQ3Seconds = 0;
  int reps = 1;
};

/// p95 by the nearest-rank method on a sorted sample.
double p95Of(const std::vector<double> &sorted) {
  if (sorted.empty())
    return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(0.95 * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<size_t>(rank, 1)) - 1];
}

SchedulerMeasurement measureSuiteSession(unsigned threads, int reps = 7) {
  std::vector<SchedulerMeasurement> ms;
  for (int r = 0; r < reps; ++r) {
    driver::CompilerSession session = makeSuiteSession(threads);
    std::vector<driver::CompileJob *> jobs;
    for (const auto &b : rodinia::suite())
      jobs.push_back(&session.addSource(b.id, b.cudaSource,
                                        transforms::PipelineOptions{}));
    double t0 = now();
    benchmark::DoNotOptimize(session.compileAll());
    SchedulerMeasurement m;
    m.wallSeconds = now() - t0;
    std::vector<double> lats;
    for (driver::CompileJob *job : jobs)
      lats.push_back(job->latencySeconds());
    std::sort(lats.begin(), lats.end());
    for (double l : lats)
      m.meanJobSeconds += l;
    m.meanJobSeconds /= lats.empty() ? 1 : lats.size();
    m.medianJobSeconds = lats.empty() ? 0 : lats[lats.size() / 2];
    m.p95JobSeconds = p95Of(lats);
    ms.push_back(m);
  }
  // Median rep by wall clock, with the wall quartiles as its spread.
  std::sort(ms.begin(), ms.end(),
            [](const SchedulerMeasurement &a, const SchedulerMeasurement &b) {
              return a.wallSeconds < b.wallSeconds;
            });
  SchedulerMeasurement med = ms[ms.size() / 2];
  med.wallQ1Seconds = ms[ms.size() / 4].wallSeconds;
  med.wallQ3Seconds = ms[(3 * ms.size()) / 4].wallSeconds;
  med.threads = threads;
  med.reps = reps;
  return med;
}

/// Suite-session mode: the whole Rodinia suite queued on one
/// CompilerSession, scheduled as a dependency DAG (parse/keying/pass
/// steps overlap across modules; each CompileJob future resolves the
/// moment its module's last pass lands) — batch wall clock AND
/// job-completion latency per pool size. A serial one-shot baseline
/// anchors both.
std::vector<SchedulerMeasurement> printSuiteSessionMode() {
  std::printf("\n=== Suite-session batch compile (whole suite, seconds) "
              "===\n");
  std::printf("(hardware: %u threads; see bench_e2e/README.md)\n\n",
              std::thread::hardware_concurrency());
  // The serial baseline goes through one-shot sessions rather than
  // driver::compile so every mode ignores $PARALIFT_CACHE_DIR — the
  // comparison must measure scheduling, not an env cache warming one
  // side.
  double serial = medianTime(
      [&] {
        for (const auto &b : rodinia::suite()) {
          driver::CompilerSession session = makeSuiteSession();
          auto &job = session.addSource(b.id, b.cudaSource,
                                        transforms::PipelineOptions{});
          session.compileAll();
          benchmark::DoNotOptimize(job.ok());
        }
      },
      3);
  std::printf("  serial per-module (one-shot sessions)  %10.4f s\n\n",
              serial);
  std::printf("  %-12s%12s%14s%14s%14s\n", "pm-threads", "wall",
              "mean-job", "median-job", "p95-job");
  std::vector<SchedulerMeasurement> rows;
  for (unsigned threads : {1u, 2u, 4u}) {
    SchedulerMeasurement m = measureSuiteSession(threads);
    std::printf("  %-12u%10.4f s%12.4f s%12.4f s%12.4f s\n", threads,
                m.wallSeconds, m.meanJobSeconds, m.medianJobSeconds,
                m.p95JobSeconds);
    rows.push_back(m);
  }
  return rows;
}

/// IR-memory cost across the suite: parse (textual IR -> arena-backed
/// module), clone (cloneModule into a fresh arena), and teardown
/// (OwnedModule destruction, which is an O(1)-per-module slab release).
/// These are the three paths the per-module arena is built to speed up;
/// the rows land in BENCH_compile.json so the trajectory is tracked
/// across PRs.
struct IrMemoryTimes {
  double parseSeconds = 0;
  double cloneSeconds = 0;
  double teardownSeconds = 0;
  size_t modules = 0; ///< valid suite modules per round
  int rounds = 0;
};

IrMemoryTimes measureIrMemory(const SuiteModules &suite, int rounds = 20,
                              int reps = 3) {
  IrMemoryTimes out;
  out.rounds = rounds;
  std::vector<std::string> texts;
  for (size_t i = 0; i < suite.modules.size(); ++i)
    if (suite.isValid(i))
      texts.push_back(ir::printOp(suite.modules[i].get().op));
  out.modules = texts.size();
  std::vector<double> parseT, cloneT, tearT;
  for (int rep = 0; rep < reps; ++rep) {
    std::vector<ir::OwnedModule> parsed;
    parsed.reserve(texts.size() * rounds);
    double t0 = now();
    for (int r = 0; r < rounds; ++r)
      for (const std::string &text : texts) {
        DiagnosticEngine diag;
        auto m = ir::parseModule(text, diag);
        if (m)
          parsed.push_back(std::move(*m));
      }
    parseT.push_back(now() - t0);

    std::vector<ir::OwnedModule> clones;
    clones.reserve(parsed.size());
    t0 = now();
    for (ir::OwnedModule &m : parsed)
      clones.push_back(ir::cloneModule(m.get()));
    cloneT.push_back(now() - t0);

    t0 = now();
    parsed.clear();
    clones.clear();
    tearT.push_back(now() - t0);
  }
  auto med = [](std::vector<double> &v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  out.parseSeconds = med(parseT);
  out.cloneSeconds = med(cloneT);
  out.teardownSeconds = med(tearT);
  return out;
}

void printIrMemory(const IrMemoryTimes &m) {
  std::printf("\n=== IR-memory cost, whole suite x%d (arena-backed "
              "parse/clone/teardown) ===\n\n",
              m.rounds);
  std::printf("  parse    : %10.6f s  (%zu modules x%d)\n", m.parseSeconds,
              m.modules, m.rounds);
  std::printf("  clone    : %10.6f s\n", m.cloneSeconds);
  std::printf("  teardown : %10.6f s  (parse+clone modules, slab release)\n",
              m.teardownSeconds);
}

/// Wall clock of one 4-thread DAG suite batch with the trace recorder
/// off vs on. The disabled row is the always-on cost of the
/// instrumentation (one relaxed atomic load per site — must stay within
/// noise of the pre-observability baseline); the enabled row adds the
/// per-event recording cost.
struct TracingOverhead {
  double disabledWall = 0;
  double enabledWall = 0;
  double overheadPct = 0;
};

TracingOverhead measureTracingOverhead() {
  // Interleaved paired reps: the suite batch is tens of milliseconds,
  // so a single sample is dominated by scheduling noise, not the
  // tracing branch. Each rep measures both arms back to back and the
  // overhead is the median of the per-rep ratios — pairing cancels
  // machine drift that would bias a min-vs-min comparison.
  constexpr int kReps = 7;
  TracingOverhead t;
  t.disabledWall = std::numeric_limits<double>::infinity();
  t.enabledWall = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  for (int i = 0; i < kReps; ++i) {
    double off = measureSuiteSession(4).wallSeconds;
    trace::enable();
    double on = measureSuiteSession(4).wallSeconds;
    trace::disable();
    t.disabledWall = std::min(t.disabledWall, off);
    t.enabledWall = std::min(t.enabledWall, on);
    if (off > 0)
      ratios.push_back(on / off);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    t.overheadPct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }
  return t;
}

void printTracingOverhead(const TracingOverhead &t) {
  std::printf("\n=== Tracing overhead (4-thread DAG suite batch) ===\n\n");
  std::printf("  tracing disabled : %10.4f s\n", t.disabledWall);
  std::printf("  tracing enabled  : %10.4f s  (%+.1f%% median paired)\n",
              t.enabledWall, t.overheadPct);
}

/// Wall clock of one 4-thread DAG suite batch with failpoints disarmed
/// (the default: every site is one relaxed atomic load) vs armed with
/// an inert spec (probability-0 trigger on the hottest site, so the
/// slow-path site lookup runs on every pass but no fault ever fires).
/// The disarmed arm is the always-on cost of the instrumentation and
/// must stay within noise of a build without it.
struct FailpointOverhead {
  double disarmedWall = 0;
  double armedWall = 0;
  double overheadPct = 0;
};

FailpointOverhead measureFailpointOverhead() {
  // Same paired-rep methodology as measureTracingOverhead: median of
  // per-rep ratios cancels machine drift.
  constexpr int kReps = 7;
  FailpointOverhead t;
  t.disarmedWall = std::numeric_limits<double>::infinity();
  t.armedWall = std::numeric_limits<double>::infinity();
  std::vector<double> ratios;
  for (int i = 0; i < kReps; ++i) {
    failpoint::clearAll();
    double off = measureSuiteSession(4).wallSeconds;
    std::string err;
    if (!failpoint::configure("pass.run=error:0,0.0", &err)) {
      std::fprintf(stderr, "bench_compile: failpoint spec rejected: %s\n",
                   err.c_str());
      break;
    }
    double on = measureSuiteSession(4).wallSeconds;
    failpoint::clearAll();
    t.disarmedWall = std::min(t.disarmedWall, off);
    t.armedWall = std::min(t.armedWall, on);
    if (off > 0)
      ratios.push_back(on / off);
  }
  if (!ratios.empty()) {
    std::sort(ratios.begin(), ratios.end());
    t.overheadPct = 100.0 * (ratios[ratios.size() / 2] - 1.0);
  }
  return t;
}

void printFailpointOverhead(const FailpointOverhead &t) {
  std::printf("\n=== Failpoint overhead (4-thread DAG suite batch) ===\n\n");
  std::printf("  failpoints disarmed    : %10.4f s\n", t.disarmedWall);
  std::printf("  armed, inert spec      : %10.4f s  (%+.1f%% median paired)\n",
              t.armedWall, t.overheadPct);
}

/// Cold-populate cache behavior of one DAG suite batch (hits include
/// in-batch dedup of kernels shared across modules).
transforms::PassResultCache::StatsSnapshot measureCacheStats() {
  transforms::PassResultCache cache;
  driver::CompilerSession session = makeSuiteSession(4, &cache);
  for (const auto &b : rodinia::suite())
    session.addSource(b.id, b.cudaSource, transforms::PipelineOptions{});
  session.compileAll();
  return cache.stats();
}

void writeJson(const std::string &path,
               const std::vector<SchedulerMeasurement> &rows, const KeyingTimes &k,
               const IrMemoryTimes &im,
               const transforms::PassResultCache::StatsSnapshot &cs,
               const TracingOverhead &to, const FailpointOverhead &fo) {
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_compile: cannot write '%s'\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"compile\",\n");
  std::fprintf(f, "  \"suite\": \"rodinia\",\n");
  std::fprintf(f, "  \"modules\": %zu,\n", rodinia::suite().size());
  std::fprintf(f, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"suite_session\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const SchedulerMeasurement &r = rows[i];
    std::fprintf(f,
                 "    {\"pm_threads\": %u, \"reps\": %d, \"wall_s\": %.6f, "
                 "\"wall_q1_s\": %.6f, \"wall_q3_s\": %.6f, "
                 "\"mean_job_s\": %.6f, \"median_job_s\": %.6f, "
                 "\"p95_job_s\": %.6f}%s\n",
                 r.threads, r.reps, r.wallSeconds, r.wallQ1Seconds,
                 r.wallQ3Seconds, r.meanJobSeconds, r.medianJobSeconds,
                 r.p95JobSeconds, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  std::fprintf(f,
               "  \"keying\": {\"structural_s\": %.6f, \"funcs\": %zu, "
               "\"rounds\": %d},\n",
               k.structuralSeconds, k.funcs, k.rounds);
  std::fprintf(f,
               "  \"ir_memory\": {\"parse_s\": %.6f, \"clone_s\": %.6f, "
               "\"teardown_s\": %.6f, \"modules\": %zu, \"rounds\": %d},\n",
               im.parseSeconds, im.cloneSeconds, im.teardownSeconds,
               im.modules, im.rounds);
  std::fprintf(f,
               "  \"cache_cold_populate\": {\"hits\": %llu, \"misses\": "
               "%llu, \"stores\": %llu, \"passes_executed\": %llu, "
               "\"passes_replayed\": %llu, \"waits\": %llu},\n",
               static_cast<unsigned long long>(cs.hits),
               static_cast<unsigned long long>(cs.misses),
               static_cast<unsigned long long>(cs.stores),
               static_cast<unsigned long long>(cs.passesExecuted),
               static_cast<unsigned long long>(cs.passesReplayed),
               static_cast<unsigned long long>(cs.waits));
  std::fprintf(f,
               "  \"tracing\": {\"disabled_wall_s\": %.6f, "
               "\"enabled_wall_s\": %.6f, \"enabled_overhead_pct\": %.2f},\n",
               to.disabledWall, to.enabledWall, to.overheadPct);
  std::fprintf(f,
               "  \"failpoints\": {\"disarmed_wall_s\": %.6f, "
               "\"armed_inert_wall_s\": %.6f, "
               "\"armed_overhead_pct\": %.2f},\n",
               fo.disarmedWall, fo.armedWall, fo.overheadPct);
  // Process-wide registry snapshot over everything this run compiled:
  // the trajectory of scheduler/cache/arena activity across PRs.
  const auto &reg = metrics::MetricsRegistry::instance();
  std::fprintf(f,
               "  \"metrics\": {\"cache_hits\": %llu, "
               "\"scheduler_tasks\": %llu, \"scheduler_steals\": %llu, "
               "\"session_jobs_completed\": %llu, "
               "\"arena_peak_bytes\": %lld}\n",
               static_cast<unsigned long long>(reg.counterValue("cache.hits")),
               static_cast<unsigned long long>(
                   reg.counterValue("scheduler.tasks")),
               static_cast<unsigned long long>(
                   reg.counterValue("scheduler.steals")),
               static_cast<unsigned long long>(
                   reg.counterValue("session.jobs_completed")),
               static_cast<long long>(reg.gaugePeak("arena.reserved_bytes")));
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", path.c_str());
}

void BM_CompileBackprop(benchmark::State &state) {
  const auto *b = rodinia::find("backprop_layerforward");
  transforms::PipelineOptions opts;
  for (auto _ : state) {
    DiagnosticEngine diag;
    auto cc = driver::compile(b->cudaSource, opts, diag);
    benchmark::DoNotOptimize(cc.ok);
  }
}
BENCHMARK(BM_CompileBackprop)->Unit(benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  // Strip --json=FILE before google-benchmark sees (and rejects) it.
  std::string jsonPath;
  {
    int w = 1;
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--json=", 0) == 0)
        jsonPath = arg.substr(7);
      else
        argv[w++] = argv[i];
    }
    argc = w;
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printTable();
  printPassBreakdown();
  std::vector<SchedulerMeasurement> rows = printSuiteSessionMode();
  SuiteModules suite = parseSuiteModules();
  KeyingTimes keying = measureKeyingTime(suite);
  printKeyingTime(keying);
  IrMemoryTimes irMem = measureIrMemory(suite);
  printIrMemory(irMem);
  TracingOverhead tracing = measureTracingOverhead();
  printTracingOverhead(tracing);
  FailpointOverhead failpoints = measureFailpointOverhead();
  printFailpointOverhead(failpoints);
  if (!jsonPath.empty())
    writeJson(jsonPath, rows, keying, irMem, measureCacheStats(), tracing,
              failpoints);
  return 0;
}
