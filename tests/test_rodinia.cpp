// Integration tests: every Rodinia benchmark compiled through every
// pipeline variant must reproduce the lockstep SIMT emulator's output,
// and the OpenMP reference source must compile and run.
#include "rodinia/rodinia.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace paralift;
using namespace paralift::rodinia;
using paralift::driver::CompileResult;
using paralift::driver::Executor;
using paralift::transforms::PipelineOptions;

namespace {

struct RunResult {
  std::vector<float> f;
  std::vector<int32_t> i;
};

/// Compiles the lockstep SIMT oracle with no cache, not even
/// $PARALIFT_CACHE_DIR's, so a warm-cache run checks its replayed
/// pipelines against a freshly compiled oracle.
CompileResult compileOracle(const Benchmark &b, DiagnosticEngine &diag) {
  driver::SessionOptions so;
  so.mode = driver::SessionMode::Simt;
  so.useEnvCache = false;
  driver::CompilerSession session(std::move(so));
  driver::CompileJob &job = session.addSource("", b.cudaSource);
  session.compileAll();
  diag.mergeFrom(job.diagnostics());
  return job.take();
}

/// Runs the pipeline `opts`, or the SIMT oracle when null.
RunResult runCuda(const Benchmark &b, const PipelineOptions *opts,
                  unsigned threads) {
  DiagnosticEngine diag;
  CompileResult cc = opts ? driver::compile(b.cudaSource, *opts, diag)
                          : compileOracle(b, diag);
  EXPECT_TRUE(cc.ok) << b.id << ": " << diag.str();
  if (!cc.ok)
    return {};
  Workload w = b.makeWorkload(1);
  Executor exec(cc.module.get(), threads);
  exec.run("run", w.args());
  return {w.floatState(), w.intState()};
}

RunResult runOpenmp(const Benchmark &b, unsigned threads) {
  DiagnosticEngine diag;
  PipelineOptions opts;
  CompileResult cc = driver::compile(b.openmpSource, opts, diag);
  EXPECT_TRUE(cc.ok) << b.id << " (openmp): " << diag.str();
  if (!cc.ok)
    return {};
  Workload w = b.makeWorkload(1);
  Executor exec(cc.module.get(), threads);
  exec.run("run", w.args());
  return {w.floatState(), w.intState()};
}

void expectClose(const RunResult &a, const RunResult &b,
                 const std::string &what) {
  ASSERT_EQ(a.f.size(), b.f.size()) << what;
  ASSERT_EQ(a.i.size(), b.i.size()) << what;
  for (size_t k = 0; k < a.f.size(); ++k)
    ASSERT_NEAR(a.f[k], b.f[k], 2e-3 + 2e-3 * std::fabs(a.f[k]))
        << what << " float buffer index " << k;
  for (size_t k = 0; k < a.i.size(); ++k)
    ASSERT_EQ(a.i[k], b.i[k]) << what << " int buffer index " << k;
}

class RodiniaTest : public ::testing::TestWithParam<const Benchmark *> {};

} // namespace

TEST_P(RodiniaTest, FullPipelineMatchesSimt) {
  const Benchmark &b = *GetParam();
  RunResult simt = runCuda(b, nullptr, 1);
  PipelineOptions opts;
  RunResult opt = runCuda(b, &opts, 2);
  expectClose(simt, opt, b.id + " full");
}

TEST_P(RodiniaTest, OptDisabledMatchesSimt) {
  const Benchmark &b = *GetParam();
  RunResult simt = runCuda(b, nullptr, 1);
  PipelineOptions opts = PipelineOptions::optDisabled();
  RunResult disabled = runCuda(b, &opts, 2);
  expectClose(simt, disabled, b.id + " disabled");
}

TEST_P(RodiniaTest, InnerParMatchesSimt) {
  const Benchmark &b = *GetParam();
  RunResult simt = runCuda(b, nullptr, 1);
  PipelineOptions opts;
  opts.innerSerialize = false;
  RunResult innerPar = runCuda(b, &opts, 2);
  expectClose(simt, innerPar, b.id + " innerpar");
}

TEST_P(RodiniaTest, McudaModeMatchesSimt) {
  const Benchmark &b = *GetParam();
  RunResult simt = runCuda(b, nullptr, 1);
  PipelineOptions opts = PipelineOptions::mcuda();
  RunResult mcuda = runCuda(b, &opts, 2);
  expectClose(simt, mcuda, b.id + " mcuda");
}

TEST_P(RodiniaTest, OpenmpReferenceRuns) {
  const Benchmark &b = *GetParam();
  if (!b.openmpSource)
    GTEST_SKIP() << "no OpenMP reference";
  RunResult r = runOpenmp(b, 2);
  // Smoke check: outputs must be finite.
  for (float v : r.f)
    ASSERT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(
    Suite, RodiniaTest, ::testing::ValuesIn([] {
      std::vector<const Benchmark *> ptrs;
      for (const auto &b : suite())
        ptrs.push_back(&b);
      return ptrs;
    }()),
    [](const ::testing::TestParamInfo<const Benchmark *> &info) {
      return info.param->id;
    });

TEST(RodiniaSuiteTest, SuiteIsComplete) {
  EXPECT_GE(suite().size(), 14u);
  int barriers = 0;
  for (const auto &b : suite())
    barriers += b.hasBarrier ? 1 : 0;
  EXPECT_GE(barriers, 8) << "most benchmarks should exercise barriers";
  EXPECT_NE(find("backprop_layerforward"), nullptr);
  EXPECT_EQ(find("nonexistent"), nullptr);
}
