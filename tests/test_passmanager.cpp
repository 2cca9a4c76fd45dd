// PassManager infrastructure tests: the Pass interface (options,
// statistics), textual pipeline parsing with parameters and round-trip
// printing, instrumentation (timing, verify-after-each-pass), failing
// function-pass steps, and the guarantee that the declarative
// buildPipeline reproduces the pre-PassManager hardcoded pass sequence
// bit-for-bit on the Rodinia suite.
#include "driver/compiler.h"
#include "frontend/irgen.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "rodinia/rodinia.h"
#include "transforms/registry.h"

#include <gtest/gtest.h>

using namespace paralift;
using namespace paralift::ir;
using namespace paralift::transforms;

namespace {

OwnedModule parseOk(const std::string &text) {
  DiagnosticEngine diag;
  auto m = ir::parseModule(text, diag);
  EXPECT_TRUE(m.has_value()) << diag.str();
  return std::move(*m);
}

/// A module with a constant-trip loop that stores into an array;
/// unrollable at max-trip >= 4, foldable afterwards.
const char *kLoopModule = R"(module {
  func {sym_name = "f", res_types = []} {
    [%0: memref<?xf32>]:
    %1 = const.int {value = 0} : index
    %2 = const.int {value = 4} : index
    %3 = const.int {value = 1} : index
    scf.for(%1, %2, %3) {
      [%4: index]:
      %5 = const.float {value = 1.0} : f32
      memref.store(%5, %0, %4)
      yield
    }
    return
  }
})";

} // namespace

//===----------------------------------------------------------------------===//
// Pass options
//===----------------------------------------------------------------------===//

TEST(PassOptionsTest, DeclaredOptionsApplyAndPrint) {
  auto pass = createUnrollPass();
  EXPECT_EQ(pass->spec(), "unroll"); // default max-trip elided
  std::string err;
  EXPECT_TRUE(pass->setOption("max-trip", "16", &err)) << err;
  EXPECT_EQ(pass->spec(), "unroll{max-trip=16}");
  // Setting back to the default elides it again.
  EXPECT_TRUE(pass->setOption("max-trip", "8", &err));
  EXPECT_EQ(pass->spec(), "unroll");
}

TEST(PassOptionsTest, UnknownOptionAndBadValue) {
  auto pass = createCpuifyPass();
  std::string err;
  EXPECT_FALSE(pass->setOption("no-such-option", "1", &err));
  EXPECT_NE(err.find("unknown option 'no-such-option'"), std::string::npos)
      << err;
  EXPECT_NE(err.find("mincut"), std::string::npos)
      << "should list known options: " << err;
  EXPECT_FALSE(pass->setOption("mincut", "maybe", &err));
  EXPECT_NE(err.find("invalid value 'maybe'"), std::string::npos) << err;

  auto unroll = createUnrollPass();
  EXPECT_FALSE(unroll->setOption("max-trip", "16x", &err));
  EXPECT_NE(err.find("invalid value '16x'"), std::string::npos) << err;
  // Integer options declare ranges; a negative trip budget is a typo,
  // not a silent no-op.
  EXPECT_FALSE(unroll->setOption("max-trip", "-1", &err));
  EXPECT_NE(err.find("out of range"), std::string::npos) << err;
}

//===----------------------------------------------------------------------===//
// Pipeline spec parsing
//===----------------------------------------------------------------------===//

TEST(PipelineSpecTest, ParsesParameterizedPasses) {
  DiagnosticEngine diag;
  auto specs = parsePipelineSpec(
      " inline , unroll{max-trip=16}, cpuify{ mincut = false } ", diag);
  ASSERT_TRUE(specs.has_value()) << diag.str();
  ASSERT_EQ(specs->size(), 3u);
  EXPECT_EQ((*specs)[0].name, "inline");
  EXPECT_TRUE((*specs)[0].options.empty());
  EXPECT_EQ((*specs)[1].name, "unroll");
  ASSERT_EQ((*specs)[1].options.size(), 1u);
  EXPECT_EQ((*specs)[1].options[0].first, "max-trip");
  EXPECT_EQ((*specs)[1].options[0].second, "16");
  EXPECT_EQ((*specs)[2].name, "cpuify");
  ASSERT_EQ((*specs)[2].options.size(), 1u);
  EXPECT_EQ((*specs)[2].options[0].first, "mincut");
  EXPECT_EQ((*specs)[2].options[0].second, "false");
}

TEST(PipelineSpecTest, SyntaxErrors) {
  DiagnosticEngine diag;
  EXPECT_FALSE(parsePipelineSpec("unroll{max-trip=16", diag).has_value());
  EXPECT_NE(diag.str().find("missing '}'"), std::string::npos) << diag.str();

  diag.clear();
  EXPECT_FALSE(parsePipelineSpec("unroll{max-trip}", diag).has_value());
  EXPECT_NE(diag.str().find("expected '='"), std::string::npos) << diag.str();
}

TEST(PipelineSpecTest, UnknownPassDiagnostic) {
  PassManager pm;
  DiagnosticEngine diag;
  EXPECT_FALSE(buildPipelineFromSpec(pm, "cse,no-such-pass", diag));
  EXPECT_NE(diag.str().find("unknown pass 'no-such-pass'"),
            std::string::npos)
      << diag.str();
  // Passes before the error were appended.
  EXPECT_EQ(pm.passes().size(), 1u);
}

TEST(PipelineSpecTest, UnknownOptionDiagnostic) {
  PassManager pm;
  DiagnosticEngine diag;
  EXPECT_FALSE(buildPipelineFromSpec(pm, "cse{bogus=1}", diag));
  EXPECT_NE(diag.str().find("unknown option 'bogus' for pass 'cse'"),
            std::string::npos)
      << diag.str();
}

TEST(PipelineSpecTest, RoundTripIsIdentity) {
  // parse -> print -> parse: the canonical printed form is a fixpoint,
  // including for named variants which normalize to parameterized form
  // and for nested repeat constructs.
  const char *inputs[] = {
      "inline,canonicalize,cse",
      "unroll{max-trip=16},cpuify{mincut=false}",
      "cpuify-nomincut,omp-lower-outer-only",
      "inline-kernels,mem2reg,store-forward,licm,barrier-elim,"
      "barrier-motion,omp-lower{inner-serialize=false}",
      "repeat{n=3}(canonicalize,cse)",
      "inline,repeat(canonicalize,cse),unroll{max-trip=16}",
      "repeat{n=4}(canonicalize,unroll{max-trip=2})",
      "repeat{until=fixpoint}(canonicalize,cse)",
      "repeat{until=fixpoint}(canonicalize,unroll{max-trip=2})",
      "",
  };
  for (const char *input : inputs) {
    DiagnosticEngine diag;
    PassManager pm1;
    ASSERT_TRUE(buildPipelineFromSpec(pm1, input, diag))
        << input << ": " << diag.str();
    std::string printed = pm1.pipelineSpec();
    PassManager pm2;
    ASSERT_TRUE(buildPipelineFromSpec(pm2, printed, diag))
        << printed << ": " << diag.str();
    EXPECT_EQ(pm2.pipelineSpec(), printed) << "input: " << input;
    ASSERT_EQ(pm2.passes().size(), pm1.passes().size());
    for (size_t i = 0; i < pm1.passes().size(); ++i)
      EXPECT_EQ(pm2.passes()[i]->spec(), pm1.passes()[i]->spec());
  }
}

TEST(PipelineSpecTest, VariantNamesNormalize) {
  DiagnosticEngine diag;
  PassManager pm;
  ASSERT_TRUE(buildPipelineFromSpec(pm, "cpuify-nomincut", diag));
  EXPECT_EQ(pm.pipelineSpec(), "cpuify{mincut=false}");
}

//===----------------------------------------------------------------------===//
// repeat{n=K}(...)
//===----------------------------------------------------------------------===//

TEST(RepeatSpecTest, DefaultNIsElided) {
  DiagnosticEngine diag;
  PassManager pm;
  ASSERT_TRUE(
      buildPipelineFromSpec(pm, "repeat{n=2}(canonicalize,cse)", diag));
  EXPECT_EQ(pm.pipelineSpec(), "repeat(canonicalize,cse)");
}

TEST(RepeatSpecTest, SyntaxAndSemanticErrors) {
  DiagnosticEngine diag;
  PassManager pm;
  EXPECT_FALSE(buildPipelineFromSpec(pm, "repeat(canonicalize", diag));
  EXPECT_NE(diag.str().find("missing ')'"), std::string::npos) << diag.str();

  diag.clear();
  EXPECT_FALSE(buildPipelineFromSpec(pm, "repeat", diag));
  EXPECT_NE(diag.str().find("repeat requires a parenthesized pass list"),
            std::string::npos)
      << diag.str();

  // Module passes cannot be scheduled per-function inside a repeat.
  diag.clear();
  EXPECT_FALSE(buildPipelineFromSpec(pm, "repeat(inline,cse)", diag));
  EXPECT_NE(diag.str().find("'inline' is a module pass"), std::string::npos)
      << diag.str();

  // Only composite passes take a pass list.
  diag.clear();
  EXPECT_FALSE(buildPipelineFromSpec(pm, "cse(canonicalize)", diag));
  EXPECT_NE(diag.str().find("does not take a pass list"), std::string::npos)
      << diag.str();
}

TEST(RepeatSpecTest, RunsChildrenNTimes) {
  // unroll{max-trip=2} only peels one 4-trip loop level per run after
  // canonicalize re-folds; observable via the repeat producing the same
  // result as manually running the pair n times.
  OwnedModule m1 = parseOk(kLoopModule);
  OwnedModule m2 = parseOk(kLoopModule);
  DiagnosticEngine diag;
  ASSERT_TRUE(
      runPassPipeline(m1.get(), "repeat{n=3}(unroll{max-trip=4},"
                                "canonicalize)",
                      diag))
      << diag.str();
  ASSERT_TRUE(runPassPipeline(m2.get(),
                              "unroll{max-trip=4},canonicalize,"
                              "unroll{max-trip=4},canonicalize,"
                              "unroll{max-trip=4},canonicalize",
                              diag))
      << diag.str();
  EXPECT_EQ(printOp(m1.op()), printOp(m2.op()));
  // The loop is gone either way.
  EXPECT_EQ(printOp(m1.op()).find("scf.for"), std::string::npos);
}

TEST(RepeatFixpointTest, ConvergesLikeManualIteration) {
  // The 4-trip loop needs two unroll{max-trip=2}+canonicalize rounds to
  // disappear plus one round to observe convergence; fixpoint mode finds
  // that on its own and matches the manually iterated sequence.
  OwnedModule m1 = parseOk(kLoopModule);
  OwnedModule m2 = parseOk(kLoopModule);
  DiagnosticEngine diag;
  ASSERT_TRUE(runPassPipeline(
      m1.get(), "repeat{until=fixpoint}(unroll{max-trip=4},canonicalize)",
      diag))
      << diag.str();
  ASSERT_TRUE(runPassPipeline(m2.get(),
                              "unroll{max-trip=4},canonicalize,"
                              "unroll{max-trip=4},canonicalize",
                              diag))
      << diag.str();
  EXPECT_EQ(printOp(m1.op()), printOp(m2.op()));
  EXPECT_EQ(printOp(m1.op()).find("scf.for"), std::string::npos);
}

TEST(RepeatFixpointTest, StopsImmediatelyWhenNothingChanges) {
  // A module already in normal form: one fixpoint round reports no
  // change and the repeat stops (observable through pass statistics —
  // zero ops removed).
  OwnedModule m = parseOk(kLoopModule);
  DiagnosticEngine diag;
  ASSERT_TRUE(
      runPassPipeline(m.get(), "repeat{until=fixpoint}(canonicalize,cse)",
                      diag))
      << diag.str();
  std::string stable = printOp(m.op());
  ASSERT_TRUE(
      runPassPipeline(m.get(), "repeat{until=fixpoint}(canonicalize,cse)",
                      diag))
      << diag.str();
  EXPECT_EQ(printOp(m.op()), stable);
}

TEST(RepeatFixpointTest, PrintFallbackForNonTrackingChildren) {
  // omp-lower reports no per-call change tracking, so fixpoint mode
  // falls back to comparing printed IR round over round; lowering is
  // idempotent, so the repeat terminates and matches a single run.
  const char *src = "__global__ void k(float* a, int n) {\n"
                    "  int i = blockIdx.x;\n"
                    "  if (i < n) { a[i] = a[i] + 1.0f; }\n"
                    "}\n"
                    "void run(float* a, int n) { k<<<n, 1>>>(a, n); }\n";
  DiagnosticEngine diag;
  auto once = driver::compileForSimt(src, diag);
  ASSERT_TRUE(once.ok) << diag.str();
  OwnedModule repeated = parseOk(printOp(once.module.op()));
  ASSERT_TRUE(runPassPipeline(once.module.get(), "cpuify,omp-lower", diag))
      << diag.str();
  ASSERT_TRUE(runPassPipeline(repeated.get(),
                              "cpuify,repeat{until=fixpoint}(omp-lower)",
                              diag))
      << diag.str();
  EXPECT_EQ(printOp(once.module.op()), printOp(repeated.op()));
}

TEST(RepeatFixpointTest, BadUntilValueRejected) {
  DiagnosticEngine diag;
  PassManager pm;
  EXPECT_FALSE(
      buildPipelineFromSpec(pm, "repeat{until=sometimes}(cse)", diag));
  EXPECT_NE(diag.str().find("expected one of: count, fixpoint"),
            std::string::npos)
      << diag.str();
}

TEST(RepeatFixpointTest, CountAndFixpointAreMutuallyExclusive) {
  // A round count would be silently ignored in fixpoint mode, so the
  // registry rejects the combination outright.
  DiagnosticEngine diag;
  PassManager pm;
  EXPECT_FALSE(buildPipelineFromSpec(
      pm, "repeat{n=3,until=fixpoint}(canonicalize,cse)", diag));
  EXPECT_NE(diag.str().find("mutually exclusive"), std::string::npos)
      << diag.str();
}

TEST(PipelineSpecTest, ParameterizedPipelineRuns) {
  OwnedModule m = parseOk(kLoopModule);
  DiagnosticEngine diag;
  // max-trip=2 refuses the 4-trip loop; the scf.for survives.
  ASSERT_TRUE(runPassPipeline(m.get(), "unroll{max-trip=2}", diag))
      << diag.str();
  EXPECT_NE(printOp(m.op()).find("scf.for"), std::string::npos);
  // max-trip=4 unrolls it.
  ASSERT_TRUE(runPassPipeline(m.get(), "unroll{max-trip=4},canonicalize",
                              diag))
      << diag.str();
  EXPECT_EQ(printOp(m.op()).find("scf.for"), std::string::npos)
      << printOp(m.op());
}

//===----------------------------------------------------------------------===//
// Statistics
//===----------------------------------------------------------------------===//

TEST(PassStatisticsTest, UnrollCountsLoops) {
  OwnedModule m = parseOk(kLoopModule);
  PassManager pm;
  pm.addPass(createUnrollPass(/*maxTrip=*/4));
  DiagnosticEngine diag;
  ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();
  const auto &stats = pm.passes()[0]->statistics();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0]->name, "loops-unrolled");
  EXPECT_EQ(stats[0]->value.load(), 1u);
  EXPECT_NE(pm.statisticsStr().find("loops-unrolled"), std::string::npos);
}

TEST(PassStatisticsTest, WalkBasedStatsAreGatedOnEnable) {
  // canonicalize's ops-removed needs extra IR walks, so it only counts
  // when statistics collection is enabled on the manager.
  for (bool enabled : {false, true}) {
    OwnedModule m = parseOk(kLoopModule);
    PassManager pm;
    pm.addPass(createUnrollPass(/*maxTrip=*/4));
    pm.addPass(createCanonicalizePass());
    if (enabled)
      pm.enableStatistics();
    DiagnosticEngine diag;
    ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();
    uint64_t removed = pm.passes()[1]->statistics()[0]->value.load();
    if (enabled)
      EXPECT_GT(removed, 0u);
    else
      EXPECT_EQ(removed, 0u);
  }
}

TEST(PassStatisticsTest, RepeatForwardsStatisticsEnableToChildren) {
  // The manager toggles statistics on its top-level passes only; a
  // canonicalize nested in repeat{} gathers ops-removed exactly when the
  // manager has statistics enabled.
  for (bool enabled : {false, true}) {
    OwnedModule m = parseOk(kLoopModule);
    PassManager pm;
    DiagnosticEngine diag;
    ASSERT_TRUE(buildPipelineFromSpec(
        pm, "unroll{max-trip=4},repeat{n=1}(canonicalize)", diag))
        << diag.str();
    if (enabled)
      pm.enableStatistics();
    ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();
    const Pass &canon = *(*pm.passes()[1]->childPasses())[0];
    ASSERT_EQ(canon.name(), "canonicalize");
    uint64_t removed = canon.statistics()[0]->value.load();
    if (enabled)
      EXPECT_GT(removed, 0u);
    else
      EXPECT_EQ(removed, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Instrumentation
//===----------------------------------------------------------------------===//

TEST(PassTimingTest, RecordsEveryPassInOrder) {
  OwnedModule m = parseOk(kLoopModule);
  PassManager pm;
  PassTimingReport report;
  PassManager::RunOptions opts;
  opts.timing = &report;
  DiagnosticEngine diag;
  ASSERT_TRUE(buildPipelineFromSpec(
      pm, "unroll{max-trip=16},canonicalize,cse", diag));
  ASSERT_TRUE(pm.run(m.get(), diag, opts)) << diag.str();
  ASSERT_EQ(report.records.size(), 3u);
  EXPECT_EQ(report.records[0].spec, "unroll{max-trip=16}");
  EXPECT_EQ(report.records[1].spec, "canonicalize");
  EXPECT_EQ(report.records[2].spec, "cse");
  for (const auto &r : report.records)
    EXPECT_GE(r.seconds, 0.0);
  std::string table = report.str();
  EXPECT_NE(table.find("Pass execution timing"), std::string::npos);
  EXPECT_NE(table.find("unroll{max-trip=16}"), std::string::npos);
}

namespace {

/// Deliberately produces invalid IR: erases the func terminator.
class BreakTerminatorPass : public Pass {
public:
  BreakTerminatorPass() : Pass("break-terminator", "test-only IR breaker") {}
  bool run(ModuleOp module, DiagnosticEngine &) override {
    for (Op *fn : module.body())
      if (fn->kind() == OpKind::Func) {
        Op *term = FuncOp(fn).body().terminator();
        if (term)
          term->erase();
      }
    return true;
  }
};

} // namespace

TEST(VerifyEachTest, AttributesBreakageToPass) {
  OwnedModule m = parseOk(kLoopModule);
  PassManager pm;
  pm.addPass(createCanonicalizePass());
  pm.addPass(std::make_unique<BreakTerminatorPass>());
  pm.addPass(createCSEPass()); // must not run
  pm.enableVerifyEach();
  DiagnosticEngine diag;
  EXPECT_FALSE(pm.run(m.get(), diag));
  std::string out = diag.str();
  EXPECT_NE(out.find("pass 'break-terminator' broke invariant"),
            std::string::npos)
      << out;
  // The healthy pass before it is not blamed.
  EXPECT_EQ(out.find("pass 'canonicalize' broke invariant"),
            std::string::npos)
      << out;
}

TEST(VerifyEachTest, CleanPipelinePasses) {
  OwnedModule m = parseOk(kLoopModule);
  DiagnosticEngine diag;
  // runPassPipeline verifies after every pass.
  EXPECT_TRUE(runPassPipeline(
      m.get(), "canonicalize,cse,mem2reg,licm,unroll,canonicalize", diag))
      << diag.str();
}

TEST(IRPrintTest, PrintsAroundMatchingPass) {
  OwnedModule m = parseOk(kLoopModule);
  PassManager pm;
  pm.addPass(createCanonicalizePass());
  pm.addPass(createCSEPass());
  char *buf = nullptr;
  size_t bufSize = 0;
  FILE *mem = open_memstream(&buf, &bufSize);
  ASSERT_NE(mem, nullptr);
  pm.addInstrumentation(std::make_unique<IRPrintInstrumentation>(
      /*before=*/true, /*after=*/true, /*filter=*/"cse", mem));
  DiagnosticEngine diag;
  ASSERT_TRUE(pm.run(m.get(), diag)) << diag.str();
  std::fclose(mem);
  std::string out(buf, bufSize);
  free(buf);
  EXPECT_NE(out.find("IR before pass 'cse'"), std::string::npos) << out;
  EXPECT_NE(out.find("IR after pass 'cse'"), std::string::npos) << out;
  EXPECT_EQ(out.find("IR before pass 'canonicalize'"), std::string::npos)
      << out;
}

//===----------------------------------------------------------------------===//
// Function-pass failures
//===----------------------------------------------------------------------===//

TEST(FunctionPassTest, FailingStepRunsAndReportsEveryFunction) {
  // A barrier outside any parallel nest is a cpuify hard error. The step
  // fails, but every function still runs: both bad functions report.
  const char *bad = R"(module {
  func {sym_name = "f", res_types = []} {
    polygeist.barrier
    return
  }
  func {sym_name = "g", res_types = []} {
    return
  }
  func {sym_name = "h", res_types = []} {
    polygeist.barrier
    return
  }
})";
  OwnedModule m = parseOk(bad);
  PassManager pm;
  pm.addPass(createCpuifyPass());
  DiagnosticEngine diag;
  EXPECT_FALSE(pm.run(m.get(), diag));
  EXPECT_EQ(diag.numErrors(), 2u) << diag.str();
  EXPECT_NE(diag.str().find("barrier outside thread-parallel loop"),
            std::string::npos)
      << diag.str();
}

//===----------------------------------------------------------------------===//
// Declarative pipeline == legacy hardcoded sequence
//===----------------------------------------------------------------------===//

namespace {

/// Byte-for-byte replica of the pre-PassManager runPipeline (the fixed
/// free-function sequence), kept as the golden reference. The declarative
/// pipeline now expresses its canonicalize/cse pairs as
/// repeat{n=2}(canonicalize,cse); matching this single-round replica
/// bit-for-bit additionally proves the pairs' second round is a no-op
/// across the suite (canonicalize is internally fixpoint and cse is
/// idempotent after it).
bool legacyRunPipeline(ModuleOp module, const PipelineOptions &opts,
                       DiagnosticEngine &diag) {
  runInliner(module, /*onlyInKernels=*/!opts.coreOpts);
  if (opts.coreOpts) {
    runCanonicalize(module);
    runCSE(module);
    runMem2Reg(module);
    runCSE(module);
    runStoreForward(module);
    runCanonicalize(module);
    runLICM(module);
    runCSE(module);
    runBarrierElim(module);
    if (opts.barrierMotion)
      runBarrierMotion(module);
  }
  if (opts.affineOpts) {
    runUnroll(module);
    if (opts.coreOpts)
      runMem2Reg(module);
    runCanonicalize(module);
    if (opts.coreOpts) {
      runCSE(module);
      runStoreForward(module);
      runBarrierElim(module);
      if (opts.barrierMotion)
        runBarrierMotion(module);
    }
  }
  runCpuify(module, opts.minCut && !opts.mcudaMode, diag);
  if (diag.hasErrors())
    return false;
  if (opts.coreOpts) {
    runCanonicalize(module);
    runCSE(module);
    runMem2Reg(module);
    runLICM(module);
  }
  OmpLowerOptions ompOpts;
  ompOpts.collapse = opts.openmpOpt;
  ompOpts.fuseRegions = opts.openmpOpt;
  ompOpts.hoistRegions = opts.openmpOpt;
  ompOpts.innerSerialize = opts.innerSerialize;
  ompOpts.outerOnly = opts.mcudaMode;
  runOmpLower(module, ompOpts);
  if (opts.coreOpts) {
    runCanonicalize(module);
    runCSE(module);
  }
  return ir::verifyOk(module.op);
}

void expectPipelineMatchesLegacy(const std::string &source,
                                 const PipelineOptions &opts,
                                 const std::string &label) {
  DiagnosticEngine d1;
  OwnedModule legacy = frontend::compileToIR(source, d1);
  ASSERT_FALSE(d1.hasErrors()) << label << ": " << d1.str();
  bool legacyOk = legacyRunPipeline(legacy.get(), opts, d1);

  DiagnosticEngine d2;
  OwnedModule fresh = frontend::compileToIR(source, d2);
  ASSERT_FALSE(d2.hasErrors()) << label << ": " << d2.str();
  bool newOk = runPipeline(fresh.get(), opts, d2);

  EXPECT_EQ(legacyOk, newOk) << label << ": " << d1.str() << d2.str();
  EXPECT_EQ(printOp(legacy.op()), printOp(fresh.op())) << label;
}

} // namespace

TEST(PipelineEquivalenceTest, RodiniaSuiteFullOpts) {
  for (const auto &b : rodinia::suite())
    expectPipelineMatchesLegacy(b.cudaSource, PipelineOptions{}, b.id);
}

TEST(PipelineEquivalenceTest, RodiniaSuiteOptDisabled) {
  for (const auto &b : rodinia::suite())
    expectPipelineMatchesLegacy(b.cudaSource,
                                PipelineOptions::optDisabled(), b.id);
}

TEST(PipelineEquivalenceTest, RodiniaSuiteMcuda) {
  for (const auto &b : rodinia::suite())
    expectPipelineMatchesLegacy(b.cudaSource, PipelineOptions::mcuda(),
                                b.id);
}

TEST(PipelineEquivalenceTest, VerifyEachMatchesLegacy) {
  PassManager pm;
  buildPipeline(pm, PipelineOptions{});
  pm.enableVerifyEach();
  for (const auto &b : rodinia::suite()) {
    DiagnosticEngine d1;
    OwnedModule legacy = frontend::compileToIR(b.cudaSource, d1);
    ASSERT_FALSE(d1.hasErrors()) << b.id << ": " << d1.str();
    bool legacyOk = legacyRunPipeline(legacy.get(), PipelineOptions{}, d1);

    DiagnosticEngine d2;
    OwnedModule fresh = frontend::compileToIR(b.cudaSource, d2);
    ASSERT_FALSE(d2.hasErrors()) << b.id << ": " << d2.str();
    bool newOk = pm.run(fresh.get(), d2);

    EXPECT_EQ(legacyOk, newOk) << b.id << ": " << d1.str() << d2.str();
    EXPECT_EQ(printOp(legacy.op()), printOp(fresh.op())) << b.id;
  }
}
