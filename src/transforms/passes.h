// Entry points for all ParaLift transformations and the pipeline driver.
//
// Pipeline (mirrors the paper; each stage is a Pass scheduled by the
// PassManager in transforms/pass_manager.h — see buildPipeline below):
//
//   frontend IR
//     -> inline                 (device functions into kernels; module pass)
//     -> core opts              [function passes]
//          canonicalize (incl. restricting loops whose body is one guard
//          on the IV, e.g. `if (tx == 0)`, to the iterations that pass
//          it) / cse / mem2reg / store-forward / licm (incl. parallel
//          LICM, §IV-C) / barrier-elim (§IV-A) / barrier-motion
//     -> affine opts            [function passes]
//          unroll{max-trip=N}: raise counted scf.while loops to scf.for,
//          fully unroll constant-trip loops (barrier loops up to 32
//          trips), then mem2reg (with core opts) + cleanup
//     -> cpuify{mincut=BOOL}    barrier lowering by parallel-loop fission
//          with min-cut (§III-B1) and interchange (§III-B2)
//     -> omp-lower{collapse,fuse,hoist,inner-serialize,outer-only}
//          collapse / fusion (also across read-only serial code) /
//          hoisting / inner serialization (§IV-D)
//
// Caching (transforms/pass_cache.h):
//
//   The PassManager carries no cache. A session's PassResultCache
//   (SessionOptions, or --cache-dir at the CLI) keys each job once, on
//   (canonical pipeline spec, hash of its source text or structural hash
//   of its module), and replays the stored result for hits: recompiling
//   an unchanged source through an unchanged pipeline runs no frontend
//   and zero transform passes (driver/session.h). An input or pipeline
//   that differs in anything re-runs the whole pipeline; intermediate
//   steps are never stored. No state is carried between passes;
//   analyses (barrier effects, memory effects, thread-privacy) are
//   computed by the pass that reads them, from the IR in front of it.
//
// Every stage is exposed three ways:
//   1. a legacy free function (runCanonicalize(...)), kept for tests and
//      embedders that drive single transforms;
//   2. a Pass factory (createCanonicalizePass()), the unit the
//      PassManager schedules, times, and verifies;
//   3. a registry name usable in textual pipelines, with parameters:
//      "unroll{max-trip=16},cpuify{mincut=false}" (transforms/registry.h).
#pragma once

#include "ir/ophelpers.h"
#include "support/diagnostics.h"
#include "transforms/pass_manager.h"

#include <memory>

namespace paralift::transforms {

using ir::ModuleOp;

/// Options reproducing the paper's ablation axes (Fig. 13 left) plus the
/// MCUDA comparison mode (Fig. 12).
struct PipelineOptions {
  /// Core optimizations: inline, canonicalize, CSE, mem2reg,
  /// store-forwarding, LICM, barrier elimination. Off only in MCUDA mode.
  bool coreOpts = true;
  /// Min-cut live-value minimization during fission ("mincut").
  bool minCut = true;
  /// Barrier motion to shrink fission caches (§IV-A; our ablation axis —
  /// the paper folds motion into the barrier-elimination discussion).
  bool barrierMotion = true;
  /// OpenMP region fusion/hoisting/collapse ("openmpopt").
  bool openmpOpt = true;
  /// Raising + unrolling of constant-trip loops ("affine"): counted
  /// scf.while loops become scf.for, loops within the unroll budget are
  /// fully unrolled, and (with coreOpts) mem2reg promotes the scalars the
  /// unrolled copies read, so cpuify lowers their barriers by fission.
  bool affineOpts = true;
  /// Serialize thread-level loops instead of nested parallelism
  /// ("innerser"; PolygeistInnerSer vs PolygeistInnerPar).
  bool innerSerialize = true;
  /// MCUDA emulation: fission-only lowering, outer-loop parallelism only,
  /// no parallel-specific optimization.
  bool mcudaMode = false;

  /// Every field, compared in order: two equal options build the same
  /// pipeline (the session builds each distinct one once per batch).
  bool operator==(const PipelineOptions &) const = default;

  static PipelineOptions optDisabled() {
    PipelineOptions o;
    o.minCut = o.barrierMotion = o.openmpOpt = o.affineOpts =
        o.innerSerialize = false;
    return o;
  }
  static PipelineOptions mcuda() {
    PipelineOptions o;
    o.coreOpts = false;
    o.minCut = o.barrierMotion = o.openmpOpt = o.affineOpts = false;
    o.innerSerialize = true; // MCUDA parallelizes only the outermost loop
    o.mcudaMode = true;
    return o;
  }
};

// Individual passes ----------------------------------------------------------

/// Constant folding, algebraic simplification, structured-control-flow
/// folding and dead-code elimination, to fixpoint. Also restricts an
/// scf.for or scf.parallel dimension whose body is pure ops plus one
/// guard comparing the IV with a constant (`iv < c`, `iv == c`,
/// `iv % P == 0`, ...) to the iterations that pass the guard, which then
/// folds away (see transforms/canonicalize.cpp for the exact rule).
void runCanonicalize(ModuleOp module);

/// Common subexpression elimination of pure ops (per-block scope).
void runCSE(ModuleOp module);

/// Inlines calls to module-local functions. With `onlyInKernels`, only
/// call sites nested in gpu parallel nests are inlined (device
/// functions).
void runInliner(ModuleOp module, bool onlyInKernels = false);

/// Scalar (rank-0 alloca) promotion to SSA across structured control flow.
/// Respects the barrier hole: a scalar only read inside a
/// barrier-containing region op is promoted (no region result crosses the
/// barrier); one stored inside such a region is skipped (it is handled by
/// replication in cpuify).
void runMem2Reg(ModuleOp module);

/// Store-to-load forwarding and dead-store elimination on arrays with
/// syntactically identical thread-private indices, across barriers
/// (§IV-B; the Fig. 9 "unnecessary store/load" case).
void runStoreForward(ModuleOp module);

/// Loop-invariant code motion. Serial loops use the classic rule;
/// parallel loops use the lock-step rule of §IV-C (only *prior* ops in
/// the body need to be conflict-free).
void runLICM(ModuleOp module);

/// Erases barriers proven redundant by memory semantics (§IV-A).
void runBarrierElim(ModuleOp module);

/// Hoists barriers earlier within a thread-parallel body when legal (the
/// §IV-A fictitious-barrier criterion) and profitable (strictly fewer
/// bytes live across the barrier, shrinking cpuify's fission caches).
void runBarrierMotion(ModuleOp module);

/// Raises counted scf.while loops to scf.for (see transforms/unroll.cpp)
/// and fully unrolls scf.for loops with constant trip count <= threshold.
/// Loops containing barriers get a budget of at least 32 (enables
/// straight-line fission; the paper's backprop 2.6x case).
void runUnroll(ModuleOp module, int64_t maxTrip = 8);

/// Barrier lowering: eliminates every polygeist.barrier by parallel-loop
/// fission and interchange. With `useMinCut`, crossing values are chosen
/// by a max-flow min-cut over the SSA graph; otherwise all live crossing
/// scalars are cached (MCUDA-style).
void runCpuify(ModuleOp module, bool useMinCut, DiagnosticEngine &diag);

struct OmpLowerOptions {
  bool collapse = true;       ///< merge grid+block loops when no shared mem
  bool fuseRegions = true;    ///< Fig. 10 parallel-region fusion
  bool hoistRegions = true;   ///< Fig. 11 parallel-region hoisting
  bool innerSerialize = true; ///< serialize nested (block-level) loops
  bool outerOnly = false;     ///< MCUDA: parallelize only outermost loop
};

/// Lowers scf.parallel to omp.parallel/omp.wsloop with the §IV-D
/// optimizations. Fusion also crosses read-only serial code between two
/// regions (loads, read-only loops), which every thread then runs
/// between barriers inside the fused region.
void runOmpLower(ModuleOp module, const OmpLowerOptions &opts);

// Pass factories -------------------------------------------------------------
// One factory per stage; arguments preset the pass's declared options
// (still overridable via Pass::setOption / textual pipeline parameters).

std::unique_ptr<Pass> createCanonicalizePass();
std::unique_ptr<Pass> createCSEPass();
std::unique_ptr<Pass> createInlinerPass(bool onlyInKernels = false);
std::unique_ptr<Pass> createMem2RegPass();
std::unique_ptr<Pass> createStoreForwardPass();
std::unique_ptr<Pass> createLICMPass();
std::unique_ptr<Pass> createBarrierElimPass();
std::unique_ptr<Pass> createBarrierMotionPass();
std::unique_ptr<Pass> createUnrollPass(int64_t maxTrip = 8);
std::unique_ptr<Pass> createCpuifyPass(bool useMinCut = true);
std::unique_ptr<Pass> createOmpLowerPass(const OmpLowerOptions &opts = {});

// Pipeline -------------------------------------------------------------------

/// Appends the full compilation pipeline per `opts` to `pm`, declaratively.
void buildPipeline(PassManager &pm, const PipelineOptions &opts);

/// Full pipeline per PipelineOptions, uncached, then verification.
/// Returns false if a hard error was reported (e.g. non-uniform barrier
/// condition). Verify-each, timing and caching are set on a PassManager
/// (buildPipeline, then PassManager::run) or a driver::CompilerSession.
bool runPipeline(ModuleOp module, const PipelineOptions &opts,
                 DiagnosticEngine &diag);

} // namespace paralift::transforms
