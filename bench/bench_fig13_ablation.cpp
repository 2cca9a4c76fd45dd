// Fig. 13 (left) reproduction: per-benchmark speedup over the
// unoptimized ("Opt Disabled") transpilation as the paper's optimization
// axes are enabled cumulatively: mincut, openmpopt, affine, innerser.
// Benchmarks containing barriers are marked with '*'.
#include "bench_common.h"

#include <benchmark/benchmark.h>

using namespace paralift;
using namespace paralift::bench;

namespace {

struct Stage {
  const char *name;
  transforms::PipelineOptions opts;
};

std::vector<Stage> stages() {
  using transforms::PipelineOptions;
  std::vector<Stage> out;
  PipelineOptions disabled = PipelineOptions::optDisabled();
  out.push_back({"OptDisabled", disabled});
  PipelineOptions mincut = disabled;
  mincut.minCut = true;
  out.push_back({"+mincut", mincut});
  // Barrier motion is our extra axis (the paper folds motion into the
  // §IV-A discussion); it further shrinks the fission caches min-cut
  // sizes.
  PipelineOptions motion = mincut;
  motion.barrierMotion = true;
  out.push_back({"+motion", motion});
  PipelineOptions openmp = motion;
  openmp.openmpOpt = true;
  out.push_back({"+openmpopt", openmp});
  PipelineOptions affine = openmp;
  affine.affineOpts = true;
  out.push_back({"+affine", affine});
  PipelineOptions innerser = affine;
  innerser.innerSerialize = true;
  out.push_back({"+innerser", innerser});
  return out;
}

void printTable(const SuiteModules &suite) {
  std::printf("\n=== Fig. 13 (left): ablation, speedup over OptDisabled "
              "===\n\n");
  std::printf("%-28s", "benchmark");
  for (const Stage &s : stages())
    std::printf("%12s", s.name);
  std::printf("\n");

  // One batch session per ablation stage: the whole suite's pre-parsed
  // modules (cloned once each) compile together through one pool.
  std::vector<Stage> sts = stages();
  std::vector<std::unique_ptr<driver::CompilerSession>> sessions;
  std::vector<std::vector<driver::CompileJob *>> jobs(sts.size());
  for (size_t si = 0; si < sts.size(); ++si) {
    auto session = std::make_unique<driver::CompilerSession>(
        suiteSessionOptions(/*threads=*/2));
    size_t bi = 0;
    for (const auto &b : rodinia::suite()) {
      size_t i = bi++;
      if (!suite.isValid(i)) {
        jobs[si].push_back(nullptr);
        continue;
      }
      jobs[si].push_back(&session->addModule(
          b.id, ir::cloneModule(suite.modules[i].get()), sts[si].opts));
    }
    session->compileAll();
    sessions.push_back(std::move(session));
  }

  std::vector<std::vector<double>> speedups(sts.size());
  size_t bi = 0;
  for (const auto &b : rodinia::suite()) {
    size_t i = bi++;
    if (!suite.isValid(i))
      continue;
    std::printf("%-28s", b.name.c_str());
    double base = -1;
    for (size_t si = 0; si < sts.size(); ++si) {
      driver::CompileJob *job = jobs[si][i];
      double t = -1;
      if (job && job->ok()) {
        t = timeCompiled(b, job->result().module.get(),
                         sts[si].opts.innerSerialize, /*scale=*/2,
                         /*threads=*/2);
      } else if (job) {
        std::fprintf(stderr, "compile failed for %s:\n%s\n", b.id.c_str(),
                     job->diagnostics().str().c_str());
      }
      if (base < 0)
        base = t;
      double speedup = t > 0 ? base / t : 0.0;
      if (si > 0 && speedup > 0)
        speedups[si].push_back(speedup);
      std::printf("%12.3f", speedup);
    }
    std::printf("\n");
  }
  std::printf("\nGeomean speedup per stage (paper: mincut +4.1%% on "
              "barrier benchmarks, openmpopt +8.9%%, affine +4.6%%):\n");
  size_t idx = 0;
  for (const Stage &s : stages()) {
    if (idx > 0)
      std::printf("  %-12s %.3fx\n", s.name, geomean(speedups[idx]));
    ++idx;
  }
}

/// Per-pass compile-time breakdown of each ablation stage, aggregated
/// across the Rodinia suite. Shows where each enabled axis spends its
/// compile time (the PassManager timing instrumentation), then repeats
/// the whole sweep against a shared pass-result cache. The cache holds
/// one entry per (module, pipeline), so the populate sweep runs every
/// stage's whole pipeline, shared prefixes included (consecutive stages
/// differ in a single pipeline axis), and the warm sweep replays every
/// stage.
void printPassTimingBreakdown(const SuiteModules &suite) {
  std::printf("\n=== Per-pass compile time per ablation stage (seconds, "
              "summed over suite) ===\n\n");
  double coldTotal = 0;
  for (const Stage &s : stages()) {
    std::printf("--- stage %s (cache off)\n", s.name);
    PassTimeAggregator agg = timeSuiteCompiles(s.opts, suite);
    coldTotal += agg.totalSeconds();
    agg.print();
  }

  transforms::PassResultCache cache;
  double populateTotal = 0;
  for (const Stage &s : stages())
    populateTotal += timeSuiteCompiles(s.opts, suite, &cache).totalSeconds();
  // Steady state: the sweep re-run against the populated cache — the
  // recompile-after-nothing-changed case every ablation iteration hits.
  double warmTotal = 0;
  for (const Stage &s : stages())
    warmTotal += timeSuiteCompiles(s.opts, suite, &cache).totalSeconds();

  std::printf("\n=== Ablation sweep compile time: per-pipeline caching "
              "===\n\n");
  std::printf("  cache off      : %10.6f s total pass time\n", coldTotal);
  std::printf("  cache populate : %10.6f s total pass time (runs and "
              "stores every stage's pipeline)\n",
              populateTotal);
  std::printf("  cache warm     : %10.6f s total pass time (%.2fx faster "
              "than cache off)\n",
              warmTotal, warmTotal > 0 ? coldTotal / warmTotal : 0.0);
  std::printf("  %s\n", cache.statsStr().c_str());

  // Where the populate overhead went, besides printing each stored
  // result: keying each (module, pipeline) run.
  printKeyingTime(suite);
}

void BM_AblationOne(benchmark::State &state) {
  const auto &b = rodinia::suite()[static_cast<size_t>(state.range(0))];
  transforms::PipelineOptions opts;
  for (auto _ : state)
    benchmark::DoNotOptimize(timeCuda(b, opts, 1, 2, 1));
}
BENCHMARK(BM_AblationOne)->Arg(0)->Iterations(1)->Unit(
    benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  SuiteModules suite = parseSuiteModules();
  printTable(suite);
  printPassTimingBreakdown(suite);
  return 0;
}
