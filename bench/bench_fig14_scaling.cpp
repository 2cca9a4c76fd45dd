// Fig. 14 reproduction: thread-scaling (speedup T1/Tn) of the transpiled
// CUDA-OpenMP benchmarks compared with the native OpenMP versions.
// The paper's observation: transpiled CUDA code, written for thousands of
// GPU threads, scales better than hand-written OpenMP. Hardware note:
// curves flatten beyond the machine's hardware thread count; see
// bench_e2e/README.md.
#include "bench_common.h"

#include <benchmark/benchmark.h>

using namespace paralift;
using namespace paralift::bench;

namespace {

const std::vector<unsigned> kThreads = {1, 2, 4, 8};

void printTable() {
  std::printf("\n=== Fig. 14: scaling T1/Tn (left: CUDA-OpenMP, right: "
              "native OpenMP) ===\n\n");
  std::printf("%-28s", "benchmark");
  for (unsigned t : kThreads)
    std::printf("  cuda@%-4u", t);
  for (unsigned t : kThreads)
    std::printf("  omp@%-5u", t);
  std::printf("\n");

  // The whole suite compiles once, as one batch session; the scaling
  // sweep below reruns the precompiled modules at each team size.
  transforms::PipelineOptions opts;
  SuiteSession compiled = compileSuiteSession(opts, /*threads=*/2);

  std::vector<double> cudaAtMax, ompAtMax;
  size_t bi = 0;
  for (const auto &b : rodinia::suite()) {
    size_t i = bi++;
    std::printf("%-28s", b.name.c_str());
    driver::CompileJob *job = compiled.jobs[i];
    double cudaT1 = -1;
    for (unsigned t : kThreads) {
      double s = job ? timeCompiled(b, job->result().module.get(),
                                    opts.innerSerialize, /*scale=*/10, t)
                     : -1;
      if (cudaT1 < 0)
        cudaT1 = s;
      double speedup = s > 0 ? cudaT1 / s : 0;
      if (t == kThreads.back() && speedup > 0)
        cudaAtMax.push_back(speedup);
      std::printf("  %8.3f", speedup);
    }
    double ompT1 = -1;
    for (unsigned t : kThreads) {
      double s = timeOpenmp(b, 10, t);
      if (ompT1 < 0)
        ompT1 = s;
      double speedup = s > 0 ? ompT1 / s : 0;
      if (t == kThreads.back() && s > 0)
        ompAtMax.push_back(speedup);
      std::printf("  %8.3f", speedup);
    }
    std::printf("\n");
  }
  std::printf("\nGeomean speedup at %u threads (paper at 32 threads: "
              "CUDA-OpenMP 14.9x with innerser vs OpenMP 7.1x):\n",
              kThreads.back());
  std::printf("  CUDA-OpenMP: %.3fx\n", geomean(cudaAtMax));
  std::printf("  OpenMP:      %.3fx\n", geomean(ompAtMax));
}

void BM_ScalingOne(benchmark::State &state) {
  const auto &b = rodinia::suite()[static_cast<size_t>(state.range(0))];
  transforms::PipelineOptions opts;
  for (auto _ : state)
    benchmark::DoNotOptimize(timeCuda(b, opts, 1, 2, 1));
}
BENCHMARK(BM_ScalingOne)->Arg(4)->Iterations(1)->Unit(
    benchmark::kMillisecond);

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  printTable();
  return 0;
}
