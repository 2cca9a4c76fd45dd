// The full compilation pipeline, assembled declaratively from
// PipelineOptions into a PassManager (see passes.h for the stage
// diagram). The pass sequence reproduces the paper's pipeline exactly;
// PassRunConfig adds orthogonal instrumentation (per-pass timing,
// verify-after-each-pass) and parallel per-kernel scheduling.
#include "ir/verifier.h"
#include "transforms/passes.h"

namespace paralift::transforms {

namespace {

/// The canonicalize/cse cleanup pair, expressed declaratively as
/// repeat{n=2}(canonicalize,cse): one round folds and deduplicates, the
/// second mops up what the first exposed (a cheap fixpoint surrogate —
/// both passes are internally idempotent, so round two is usually a
/// no-op that preserves all analyses).
std::unique_ptr<Pass> createCleanupPair() {
  auto pair = std::make_unique<RepeatPass>();
  pair->addChild(createCanonicalizePass());
  pair->addChild(createCSEPass());
  return pair;
}

} // namespace

void buildPipeline(PassManager &pm, const PipelineOptions &opts) {
  // Device-function inlining is required for barrier lowering and the
  // SIMT executor, so it runs even in MCUDA mode.
  pm.addPass(createInlinerPass(/*onlyInKernels=*/!opts.coreOpts));

  if (opts.coreOpts) {
    pm.addPass(createCleanupPair());
    pm.addPass(createMem2RegPass());
    // CSE again: promotion turns per-use load+cast chains into identical
    // pure chains, which store-forwarding matches syntactically.
    pm.addPass(createCSEPass());
    pm.addPass(createStoreForwardPass());
    pm.addPass(createCanonicalizePass());
    pm.addPass(createLICMPass());
    pm.addPass(createCSEPass());
    pm.addPass(createBarrierElimPass());
    if (opts.barrierMotion)
      pm.addPass(createBarrierMotionPass());
  }

  if (opts.affineOpts) {
    pm.addPass(createUnrollPass());
    pm.addPass(createCanonicalizePass());
    if (opts.coreOpts) {
      pm.addPass(createCSEPass());
      pm.addPass(createStoreForwardPass());
      pm.addPass(createBarrierElimPass());
      if (opts.barrierMotion)
        pm.addPass(createBarrierMotionPass());
    }
  }

  pm.addPass(createCpuifyPass(opts.minCut && !opts.mcudaMode));

  if (opts.coreOpts) {
    pm.addPass(createCanonicalizePass());
    pm.addPass(createCSEPass());
    pm.addPass(createMem2RegPass());
    pm.addPass(createLICMPass());
  }

  OmpLowerOptions ompOpts;
  ompOpts.collapse = opts.openmpOpt;
  ompOpts.fuseRegions = opts.openmpOpt;
  ompOpts.hoistRegions = opts.openmpOpt;
  ompOpts.innerSerialize = opts.innerSerialize;
  ompOpts.outerOnly = opts.mcudaMode;
  pm.addPass(createOmpLowerPass(ompOpts));

  if (opts.coreOpts)
    pm.addPass(createCleanupPair());
}

bool runPipeline(ModuleOp module, const PipelineOptions &opts,
                 DiagnosticEngine &diag, const PassRunConfig &config) {
  PassManager pm;
  buildPipeline(pm, opts);
  if (config.verifyAnalyses)
    pm.enableAnalysisVerify();
  if (config.verifyEach)
    pm.enableVerifyEach();
  if (config.timing)
    pm.enableTiming(config.timing);
  pm.setThreadCount(config.threads);
  pm.setResultCache(config.cache);
  if (!pm.run(module, diag))
    return false;
  // With verify-each on, every intermediate module (including the final
  // one) has already been verified.
  return config.verifyEach || ir::verifyOk(module.op);
}

bool runPipeline(ModuleOp module, const PipelineOptions &opts,
                 DiagnosticEngine &diag) {
  return runPipeline(module, opts, diag, PassRunConfig{});
}

} // namespace paralift::transforms
