// The ParaLift pass-manager layer (in the spirit of mlir::PassManager):
//
//  - Pass: a named, parameterized, restartable unit of IR transformation
//    with declared options (for textual pipelines) and statistics counters.
//  - FunctionPass: a pass that runs independently on each func, making it
//    schedulable across kernels in parallel on the runtime thread pool.
//  - Instrumentation: hooks around every (module, pass) step. Built-ins
//    cover --print-ir-before/after and the preserved-analyses
//    cross-checker; per-pass timing and verify-after-each-pass are
//    PassManager switches the executor honours directly.
//  - PassManager: owns an ordered pipeline of passes plus instrumentations
//    and schedules them over modules. Its one executor is the
//    dependency-DAG batch (BatchDag): run() is a one-module batch. It
//    threads an AnalysisManager (transforms/analysis_manager.h) through
//    the pipeline — invalidating per each pass's PreservedAnalyses — and
//    optionally a PassResultCache (transforms/pass_cache.h) that replays
//    cached IR for unchanged (function, pass) pairs instead of re-running
//    passes.
//
// Textual pipelines ("unroll{max-trip=16},cpuify{mincut=false}",
// "repeat{n=2}(canonicalize,cse)") are parsed/printed by
// transforms/registry.{h,cpp}; PassManager::pipelineSpec round-trips the
// canonical form.
#pragma once

#include "ir/ophelpers.h"
#include "support/diagnostics.h"
#include "support/metrics.h"
#include "transforms/analysis_manager.h"
#include "transforms/pass_cache.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace paralift::runtime {
class TaskScheduler;
}

namespace paralift::transforms {

using ir::ModuleOp;

//===----------------------------------------------------------------------===//
// Pass
//===----------------------------------------------------------------------===//

class Pass {
public:
  Pass(std::string name, std::string description)
      : name_(std::move(name)), description_(std::move(description)) {}
  virtual ~Pass() = default;
  Pass(const Pass &) = delete;
  Pass &operator=(const Pass &) = delete;

  /// The pipeline-spec name ("canonicalize", "cpuify", ...).
  const std::string &name() const { return name_; }
  const std::string &description() const { return description_; }

  /// True for FunctionPass subclasses: the pass runs per-func and may be
  /// scheduled across functions in parallel.
  virtual bool isFunctionPass() const { return false; }

  // IR-change tracking --------------------------------------------------------
  // Passes that know exactly when they mutate IR (the same bookkeeping
  // that backs their dynamic PreservedAnalyses refinement) report each
  // mutating call through a thread-local flag, so composite passes
  // (repeat{until=fixpoint}) can detect per-function convergence even
  // while sibling workers run the same pass objects on other functions.

  /// Whether runOnFunction reports exact per-call change information via
  /// noteIRChanged. Passes answering false force hash-based convergence
  /// detection in repeat{until=fixpoint}.
  virtual bool tracksIRChange() const { return false; }

  /// Clears the calling thread's IR-change flag; composite passes call
  /// this immediately before each child execution.
  static void resetThreadIRChanged();
  /// Whether any pass on the calling thread noted a change since the
  /// last reset.
  static bool threadIRChanged();

  /// Module-scope entry point. Returns false on a hard error (which must
  /// also be reported through `diag`).
  virtual bool run(ModuleOp module, DiagnosticEngine &diag) = 0;

  // Preserved analyses --------------------------------------------------------

  /// Called by the PassManager immediately before each execution; passes
  /// with dynamic preservation reset their per-run state here.
  virtual void beginRun() {}

  /// The analyses this pass's *last* execution kept valid; everything
  /// else is invalidated by the PassManager afterwards. The default is
  /// maximally conservative. Passes may refine the answer dynamically
  /// (e.g. return all() when the run changed nothing) — the declaration
  /// is cross-checked by recomputation under --verify-analyses.
  virtual PreservedAnalyses preservedAnalyses() const {
    return PreservedAnalyses::none();
  }

  /// The AnalysisManager of the owning PassManager, set for the duration
  /// of a pipeline run; null when the pass runs standalone. Cached
  /// results obtained from it are valid by construction (stale results
  /// were invalidated after the pass that broke them).
  void setAnalysisManager(AnalysisManager *am) { analysisManager_ = am; }

  // Options -------------------------------------------------------------------
  // Subclasses declare options in their constructor; the registry's
  // pipeline parser applies `name{key=value,...}` through setOption.

  /// Sets a declared option from its textual value. Returns false (and
  /// fills `err`) for unknown keys or unparseable values.
  bool setOption(const std::string &key, const std::string &value,
                 std::string *err = nullptr);

  /// Canonical spec of this pass: name plus any non-default options, e.g.
  /// "unroll{max-trip=16}". parse(spec()) reconstructs the pass exactly.
  /// Virtual so composite passes (repeat) can append their child list.
  virtual std::string spec() const;

  /// Child passes of a composite pass (repeat), or nullptr. Used by
  /// statistics rendering and the registry.
  virtual const std::vector<std::unique_ptr<Pass>> *childPasses() const {
    return nullptr;
  }

  // Statistics ----------------------------------------------------------------

  struct Statistic {
    std::string name;
    std::atomic<uint64_t> value{0};
    /// Registry twin ("pass.<pass-name>.<stat-name>"), resolved when the
    /// statistic is created, so one metrics snapshot includes every pass
    /// counter alongside cache/scheduler/session figures.
    metrics::Counter *mirror = nullptr;
    Statistic(std::string n) : name(std::move(n)) {}
    void operator+=(uint64_t d) {
      value.fetch_add(d, std::memory_order_relaxed);
      if (mirror)
        mirror->add(d);
    }
  };

  /// Finds or creates the named counter. Counter bumps are thread-safe,
  /// but creation is not: passes that bump statistics from runOnFunction
  /// (which may run on parallel workers) must create them up front in
  /// their constructor.
  Statistic &statistic(const std::string &name);
  const std::vector<std::unique_ptr<Statistic>> &statistics() const {
    return stats_;
  }

  /// Statistics whose collection needs extra IR walks (before/after op
  /// counts) are only gathered when enabled; counters that fall out of
  /// the transform itself are always collected. PassManager toggles this
  /// per run (see PassManager::enableStatistics).
  void setStatisticsEnabled(bool on) { statsEnabled_ = on; }
  bool statisticsEnabled() const { return statsEnabled_; }

protected:
  void declareBoolOption(const std::string &key, bool *storage, bool dflt);
  /// Values outside [min, max] are rejected by setOption.
  void declareIntOption(const std::string &key, int64_t *storage,
                        int64_t dflt, int64_t min = INT64_MIN,
                        int64_t max = INT64_MAX);
  /// A string-valued option; when `allowed` is non-empty, setOption
  /// rejects values outside it (listing the choices in the error).
  void declareStringOption(const std::string &key, std::string *storage,
                           std::string dflt,
                           std::vector<std::string> allowed = {});

  /// Passes call this from runOnFunction when they mutated IR (see
  /// tracksIRChange).
  static void noteIRChanged();

  AnalysisManager *getAnalysisManager() const { return analysisManager_; }

private:
  struct Option {
    enum class Kind { Bool, Int, String };
    std::string key;
    Kind kind;
    bool *boolStorage = nullptr;
    int64_t *intStorage = nullptr;
    std::string *strStorage = nullptr;
    int64_t dflt = 0; // bool options store 0/1; unused for strings
    int64_t min = INT64_MIN;
    int64_t max = INT64_MAX;
    std::string strDflt;
    std::vector<std::string> allowed;
  };

  std::string name_;
  std::string description_;
  std::vector<Option> options_;
  std::vector<std::unique_ptr<Statistic>> stats_;
  bool statsEnabled_ = false;
  AnalysisManager *analysisManager_ = nullptr;
};

/// A pass that transforms one function at a time and never looks outside
/// it. The default module-scope run() applies runOnFunction to every func
/// serially; the PassManager may instead fan functions out across the
/// runtime thread pool (each function is a disjoint IR subtree, so
/// concurrent runs on distinct functions are safe).
class FunctionPass : public Pass {
public:
  using Pass::Pass;
  bool isFunctionPass() const final { return true; }
  bool run(ModuleOp module, DiagnosticEngine &diag) final;
  virtual bool runOnFunction(ir::Op *func, DiagnosticEngine &diag) = 0;
};

/// repeat{n=K}(a,b,...): a composite pass running its children K times in
/// sequence — the declarative form of the canonicalize/cse fixpoint pairs
/// in the standard pipeline. repeat{until=fixpoint}(a,b,...) instead
/// iterates until a round leaves the function's IR unchanged (capped at
/// 1024 rounds): when every child tracksIRChange, convergence is read off
/// the per-pass change tracking; otherwise a round's printed IR is
/// compared against the previous round's. Children must be function
/// passes (the repeat is then itself schedulable per function, and
/// cacheable as one unit whose spec covers the whole body); the registry
/// rejects module passes inside repeat. Preserves the intersection of
/// what every child preserved.
class RepeatPass : public FunctionPass {
public:
  RepeatPass();
  /// `child` must be a FunctionPass.
  void addChild(std::unique_ptr<Pass> child);

  std::string spec() const override;
  const std::vector<std::unique_ptr<Pass>> *childPasses() const override {
    return &children_;
  }
  void beginRun() override;
  PreservedAnalyses preservedAnalyses() const override;
  bool runOnFunction(ir::Op *func, DiagnosticEngine &diag) override;
  /// Exact iff every child is exact (then a repeat nests inside an
  /// enclosing fixpoint repeat without forcing the print fallback).
  bool tracksIRChange() const override;

private:
  bool isFixpoint() const { return until_ == "fixpoint"; }

  int64_t n_ = 2;
  std::string until_;
  std::vector<std::unique_ptr<Pass>> children_;
};

/// Number of ops nested under `root` (inclusive); the cheap size metric
/// used by pass statistics.
size_t countNestedOps(ir::Op *root);
/// Number of nested ops of one kind.
size_t countNestedOps(ir::Op *root, ir::OpKind kind);

//===----------------------------------------------------------------------===//
// Instrumentation
//===----------------------------------------------------------------------===//

/// Instrumentations nest around each (module, pass) step: beforePass
/// hooks fire in installation order and afterPass hooks in reverse, so
/// the first-installed instrumentation is outermost. Hooks see one module
/// at a time, so a manager with any installed drains its batches on the
/// calling thread (PassManager::hasInstrumentation).
class Instrumentation {
public:
  virtual ~Instrumentation() = default;
  virtual void beforePass(const Pass &pass, ModuleOp module) {
    (void)pass;
    (void)module;
  }
  /// Runs after the pass completes (even when it failed). Returning false
  /// aborts the pipeline; abort reasons must be reported through `diag`.
  virtual bool afterPass(const Pass &pass, ModuleOp module,
                         DiagnosticEngine &diag) {
    (void)pass;
    (void)module;
    (void)diag;
    return true;
  }
  /// Whether the hooks read the module IR around `pass`. When every
  /// installed instrumentation answers false for a pass (e.g. a filtered
  /// IR printer watching another pass), the result cache may defer
  /// splicing replayed IR past it — consecutive cache hits then cost
  /// hash-chain lookups instead of parse round-trips.
  /// Laziness is decided per pass: before a pass some instrumentation
  /// does inspect, the PassManager materializes every pending replay so
  /// the hooks (and the pass) observe real IR.
  virtual bool inspectsIR(const Pass &pass) const {
    (void)pass;
    return true;
  }
};

/// Per-pass execution time and IR growth, one record per (module, pass)
/// step that executed the pass, in module order then pipeline order.
/// PassManager::enableTiming points the executor at one; BatchDag folds
/// its per-worker clock samples into it when the batch drains.
struct PassTimingReport {
  struct Record {
    std::string spec; ///< canonical pass spec at execution time
    double seconds = 0;
    /// IR-arena growth (bytes) of the module the pass ran on: the
    /// difference in IRArena::bytesAllocated() across the pass. Arena
    /// memory is monotonic per module (erase is unlink-without-free), so
    /// this is an exact, per-module attribution of IR materialized by
    /// the pass.
    uint64_t arenaDeltaBytes = 0;
    /// Module the time is attributed to (its diagnostic name; empty for
    /// an unnamed run()).
    std::string module;
  };
  std::vector<Record> records;
  double totalSeconds() const;
  uint64_t totalArenaDeltaBytes() const;
  /// Renders the report as a table ("===- Pass execution timing -===").
  std::string str() const;
};

/// Cross-checks PreservedAnalyses declarations by recomputation: before
/// every pass, primes every analysis for every function; after the pass,
/// recomputes each analysis the pass declared preserved and compares
/// fingerprints against the cached (pre-pass) result. A mismatch reports
///   pass 'X' declared analysis 'Y' preserved but it changed for
///   function 'f'
/// and aborts the pipeline. Entries are re-primed from the current IR
/// each pass, so every lie is attributed to exactly the pass that told
/// it. Expensive by design; enable for validation runs.
class AnalysisCrossCheckInstrumentation : public Instrumentation {
public:
  explicit AnalysisCrossCheckInstrumentation(AnalysisManager &am)
      : am_(am) {}
  void beforePass(const Pass &pass, ModuleOp module) override;
  bool afterPass(const Pass &pass, ModuleOp module,
                 DiagnosticEngine &diag) override;

private:
  AnalysisManager &am_;
};

/// Prints the IR before/after passes to `out` (default stderr). An empty
/// filter matches every pass; otherwise only passes whose name equals the
/// filter are printed.
class IRPrintInstrumentation : public Instrumentation {
public:
  IRPrintInstrumentation(bool before, bool after, std::string filter,
                         std::FILE *out = stderr)
      : before_(before), after_(after), filter_(std::move(filter)),
        out_(out) {}
  void beforePass(const Pass &pass, ModuleOp module) override;
  bool afterPass(const Pass &pass, ModuleOp module,
                 DiagnosticEngine &diag) override;
  /// Only the watched pass needs materialized IR: a filtered
  /// --print-ir-after=P no longer forces eager replay of the whole
  /// pipeline, only of pass P.
  bool inspectsIR(const Pass &pass) const override { return matches(pass); }

private:
  bool matches(const Pass &pass) const {
    return filter_.empty() || pass.name() == filter_;
  }
  bool before_, after_;
  std::string filter_;
  std::FILE *out_;
};

//===----------------------------------------------------------------------===//
// CancellationToken
//===----------------------------------------------------------------------===//

/// Cooperative cancellation and deadline for one compile job. The batch
/// executor (scheduleBatch, and run() through it) polls it before every
/// (module, pass) step — an expired job fails with an attributed
/// diagnostic ("cancelled in pass P" / "deadline exceeded after Ns in
/// pass P") before its next pass starts; the pass currently executing is
/// never interrupted mid-flight, so IR and cache state stay consistent.
/// Thread-safe: any thread may cancel() while workers poll.
class CancellationToken {
public:
  /// Requests cancellation. Idempotent.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelRequested() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  /// Arms a deadline `seconds` from now; seconds <= 0 disarms.
  void setDeadline(double seconds);

  /// True once cancel() was called or the armed deadline passed.
  bool expired() const;

  /// Why the job should stop: "cancelled" or "deadline exceeded after
  /// <N>s"; empty while the job may keep running. Stable once non-empty
  /// (deadlines never un-expire and cancel is one-way).
  std::string expiredReason() const;

private:
  std::atomic<bool> cancelled_{false};
  /// Steady-clock deadline in nanoseconds since epoch; 0 = disarmed.
  std::atomic<int64_t> deadlineNanos_{0};
  double timeoutSeconds_ = 0;
};

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

class BatchDag;

class PassManager {
public:
  PassManager() = default;
  ~PassManager();
  PassManager(const PassManager &) = delete;
  PassManager &operator=(const PassManager &) = delete;

  void addPass(std::unique_ptr<Pass> pass);
  const std::vector<std::unique_ptr<Pass>> &passes() const { return passes_; }

  void addInstrumentation(std::unique_ptr<Instrumentation> ins);

  /// Whether any instrumentation is installed. Hooks observe one module at
  /// a time, so batches of such a manager drain on the calling thread.
  bool hasInstrumentation() const { return !instrumentations_.empty(); }

  /// Collects per-(module, pass) execution time and IR-arena growth.
  /// run() appends its records to `report` (owned by the caller) when it
  /// returns; batch callers fold them with BatchDag::foldTimingInto.
  void enableTiming(PassTimingReport *report) { timing_ = report; }
  /// Verifies each module after every pass; on violation reports
  ///   pass 'X' broke invariant: Y
  /// and fails that module. Turns lazy cache replay off, so every pass
  /// leaves real IR behind.
  void enableVerifyEach() { verifyEach_ = true; }
  /// Installs IR printing around passes (see IRPrintInstrumentation).
  void enableIRPrinting(bool before, bool after, std::string filter = "",
                        std::FILE *out = stderr);

  /// Installs the preserved-analyses cross-checker (see
  /// AnalysisCrossCheckInstrumentation).
  void enableAnalysisVerify();

  /// Also collect the statistics that need extra IR walks (off by
  /// default so compile hot paths pay nothing for unread counters).
  void enableStatistics() { collectStats_ = true; }

  /// The per-function analysis cache threaded through every pass of this
  /// manager. Invalidation follows each pass's preservedAnalyses().
  AnalysisManager &analysisManager() { return analysisManager_; }

  /// Attaches a pass-result cache (owned by the caller; shareable across
  /// PassManagers and threads). When set, each pass execution is keyed on
  /// (canonical pass spec, ir::hashOp structural hash of the input IR)
  /// per function — per module for module passes, folding the
  /// per-function hashes — and cache hits splice the stored IR in
  /// instead of running the pass. Keying never prints IR; the structural
  /// hash is one walk per (function, pass) boundary, and replayed passes
  /// reuse the stored output hash without any walk at all.
  void setResultCache(PassResultCache *cache) { cache_ = cache; }
  PassResultCache *resultCache() const { return cache_; }

  /// Number of threads run() fans function passes out across (on a pool
  /// it creates per run). 1 (the default) runs serially.
  void setThreadCount(unsigned n) { threads_ = n == 0 ? 1 : n; }
  unsigned threadCount() const { return threads_; }

  /// Runs every pass in order over one module: a one-item scheduleBatch,
  /// drained on the calling thread (or across threadCount() workers when
  /// no instrumentation is installed). Stops at the first failure (a pass
  /// returning false, a new diagnostic error, or an instrumentation
  /// abort) and returns false.
  bool run(ModuleOp module, DiagnosticEngine &diag);

  /// Per-batch knobs for scheduleBatch. The manager's own switches
  /// (enableVerifyEach, enableTiming, instrumentations) apply too.
  struct BatchOptions {
    /// Invoked (on whatever worker ran the final step) the moment a
    /// module's last pass — or terminal cache splice — has completed and
    /// its IR is materialized, long before the rest of the batch drains.
    /// This is what lets CompileJob futures resolve incrementally inside
    /// one batch.
    std::function<void(size_t index, bool ok)> onModuleDone;
    /// Per-module cancellation/deadline tokens, parallel to the items
    /// vector (missing or null slots are never cancelled). Polled before
    /// every step; an expired module fails with the token's reason
    /// attributed to the pass it would have run next.
    std::vector<const CancellationToken *> cancels;
    /// Per-module IR-arena byte cap; a module whose arena exceeds it
    /// after a pass fails with a per-job OOM diagnostic instead of
    /// growing until the process dies. 0 = unlimited.
    uint64_t maxArenaBytes = 0;
  };

  /// One module of a DAG batch (scheduleBatch). Either `module` is a
  /// live module op, or `prepare` produces one as a leaf task of the
  /// graph — so parsing one module overlaps other modules' passes.
  struct BatchItem {
    ir::Op *module = nullptr; ///< pre-parsed module, or null with prepare
    DiagnosticEngine *diag = nullptr;
    /// Parses/builds the module on a worker; nullopt on frontend failure
    /// (which must be reported through `diag`).
    std::function<std::optional<ModuleOp>()> prepare;
  };

  /// Dependency-DAG batch scheduling, the one executor: enqueues onto
  /// `sched` one leaf task per module (prepare/parse + initial
  /// ir::hashOp keying) and one task per (module, pass) step, chained
  /// only by each module's own pipeline order — module B runs pass 3
  /// while module A is still parsing, and a module resolves
  /// (opts.onModuleDone) the moment its own last step lands instead of
  /// at end of batch. Within a step, functions that miss the cache fan
  /// out as their own tasks. In-batch dedup of identical kernels goes
  /// through the result cache's in-flight registry
  /// (PassResultCache::acquire): the first claimant executes, a
  /// concurrent duplicate parks and replays the stored entry. Pass
  /// execution on a given input is deterministic, so outputs are
  /// bit-for-bit identical to serial compiles regardless of
  /// interleaving. A failing module (pass error, verifier breakage) stops
  /// and is left materialized; the rest of the batch is unaffected.
  ///
  /// Instrumentation hooks fire around every (module, pass) step; with
  /// any installed, `sched` must drain serially (a TaskScheduler without
  /// a pool), which runs each module's chain to completion in item order.
  ///
  /// The caller runs `sched` (several PassManagers — pipeline groups —
  /// may schedule onto one scheduler; their graphs interleave freely)
  /// and must keep the returned state alive until the scheduler drains;
  /// BatchDag::results() then holds per-module success.
  std::shared_ptr<BatchDag> scheduleBatch(runtime::TaskScheduler &sched,
                                          std::vector<BatchItem> items,
                                          BatchOptions opts);

  /// The canonical textual pipeline, e.g. "inline,canonicalize,
  /// unroll{max-trip=16}". Feeding it back through the registry's
  /// pipeline parser reconstructs this pipeline exactly (round-trip).
  std::string pipelineSpec() const;

  /// Renders non-zero statistics of all passes as a table.
  std::string statisticsStr() const;

  /// Per-run cache bookkeeping: the chained per-function structural IR
  /// hashes plus — for lazily replayed passes — cached result text
  /// accepted but not yet spliced into the module (consecutive hits only
  /// advance the hash chain; IR is materialized when a pass actually has
  /// to execute, when an instrumentation inspects it, or at end of run).
  /// Public only for BatchDag's per-module state; not a client API.
  struct CacheState {
    std::unordered_map<ir::Op *, Hash128> irHash;
    std::unordered_map<ir::Op *, std::string> pending;
  };

private:
  friend class BatchDag;

  /// Whether some installed instrumentation reads the IR around `pass`.
  bool inspectsIR(const Pass &pass) const;
  /// Structural hash (ir::hashOp) of `func`'s logical IR, walking it on
  /// first use; never prints.
  const Hash128 &hashOf(ir::Op *func, CacheState &st);
  /// Splices `func`'s pending cached text into the module (no-op without
  /// pending text). Returns the replacement op, or nullptr on a
  /// print/parse round-trip failure (reported by the caller).
  ir::Op *materialize(ModuleOp module, ir::Op *func, CacheState &st);
  /// Materializes every pending function; false on round-trip failure.
  bool materializeAll(ModuleOp module, CacheState &st);
  /// Replaces `oldFunc` with the function parsed from cached `text`;
  /// returns the new func, or nullptr if the entry fails to parse.
  ir::Op *spliceFunction(ModuleOp module, ir::Op *oldFunc,
                         const std::string &text);
  /// Applies a per-function cache hit: lazy mode parks the cached text
  /// and advances the hash chain; eager mode splices immediately. False
  /// when the entry fails to splice (caller treats it as a miss).
  bool applyHit(ModuleOp module, ir::Op *func, PassResultCache::Entry &&hit,
                bool lazy, CacheState &st);
  /// Replaces the whole module body from a cached module entry,
  /// re-keying the hash chain (via the entry's funcHashes when present).
  bool spliceModule(ModuleOp module, const PassResultCache::Entry &entry,
                    CacheState &st);

  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<std::unique_ptr<Instrumentation>> instrumentations_;
  unsigned threads_ = 1;
  bool collectStats_ = false;
  bool verifyEach_ = false;
  PassTimingReport *timing_ = nullptr;
  AnalysisManager analysisManager_;
  PassResultCache *cache_ = nullptr;
};

//===----------------------------------------------------------------------===//
// BatchDag
//===----------------------------------------------------------------------===//

/// Live state of one pipeline group's dependency-DAG batch, handed out
/// by PassManager::scheduleBatch and kept alive jointly by the caller
/// and the in-flight tasks. Query after the scheduler drained.
class BatchDag : public std::enable_shared_from_this<BatchDag> {
public:
  ~BatchDag();

  /// Per-module success, in item order; stable once the scheduler ran.
  const std::vector<char> &results() const { return ok_; }

  /// Folds the per-worker (module, pass) clock samples collected while
  /// the graph ran into `report`, in module order then pipeline order.
  /// Empty unless the manager had timing enabled (enableTiming).
  void foldTimingInto(PassTimingReport &report) const;

private:
  friend class PassManager;

  /// One module's scheduling state. Exactly one task at a time owns a
  /// Mod — ownership passes from the leaf task along the pass chain,
  /// through fan-out joins and in-flight-key continuations — so none of
  /// these fields need locks.
  struct Mod;
  struct Fan;
  struct FuncRun {
    ir::Op *func = nullptr;
    Hash128 input;
    bool owned = false; ///< holds an in-flight claim to release
  };
  struct Sample {
    size_t mod;
    size_t pass;
    double seconds;
    uint64_t arenaDelta;
  };
  /// How one pass step over one module ended.
  enum class Step {
    Advanced, ///< step complete; the module may move to the next pass
    Yielded,  ///< ownership handed to a continuation (fan join / parked)
    Failed    ///< module failed; fail(i) has run
  };

  BatchDag(PassManager &pm, runtime::TaskScheduler &sched,
           PassManager::BatchOptions opts);

  void spawnAdvance(size_t i);
  void startModule(size_t i, unsigned worker);
  void advance(size_t i, unsigned worker);
  /// Opens the module's step for `pass`: decides lazy replay, drops the
  /// analyses a module pass could leave dangling, materializes pending
  /// replays when the IR is inspected, and fires beforePass hooks. False
  /// (after fail(i)) on a materialization failure.
  bool beginStep(size_t i, Pass &pass);
  /// Closes a completed step: afterPass hooks, verify-each, the module
  /// pass's post-run invalidation, and the arena cap. False (after
  /// fail(i)) when any of them rejects the module.
  bool endStep(size_t i, Pass &pass);
  /// Fires the afterPass hooks of an open step (reverse order); false if
  /// any hook aborts.
  bool closeHooks(size_t i, Pass &pass);
  Step runModulePass(size_t i, Pass &pass, unsigned worker);
  Step runFunctionPass(size_t i, FunctionPass &pass, unsigned worker);
  Step executeMisses(size_t i, FunctionPass &pass, const std::string &spec,
                     std::vector<FuncRun> toRun, unsigned worker);
  /// Shared completion tail of a function-pass step (inline and fanned):
  /// merges worker diagnostics in item order, then either releases every
  /// owned claim unstored and fails the module (false), or stores the
  /// results, advances the hash chain, and drains `remaining` (true).
  bool completeStep(size_t i, Fan &fan);
  /// Polls the module's cancellation token before a step; on expiry
  /// records the diagnostic, fails the module, and returns true (abort
  /// the chain). Called only where no cache claims are held.
  bool cancelled(size_t i, Pass &pass);
  void finish(size_t i, bool ok);
  /// Fails the module: closes an open step's hooks, leaves the IR
  /// materialized, and resolves it.
  void fail(size_t i);
  /// Runs one pass body of module i contained (a throw becomes a
  /// diagnostic), clocked into pm.pass_seconds and — with timing enabled
  /// — a (module, pass) sample of its time and IR-arena growth.
  template <typename Fn>
  bool runClocked(size_t i, const Pass &pass, DiagnosticEngine &diag,
                  unsigned worker, Fn &&body);
  /// Runs function k of a step's fan (runClocked).
  bool runOne(size_t i, Fan &fan, size_t k, unsigned worker);

  PassManager &pm_;
  runtime::TaskScheduler &sched_;
  PassManager::BatchOptions opts_;
  std::vector<std::unique_ptr<Mod>> mods_;
  std::vector<char> ok_; ///< distinct elements written by distinct owners
  std::vector<std::vector<Sample>> samples_; ///< one vector per worker
};

/// Renders one "  <secs> s (<pct>%)  ir <+arenaMB>  <label>" timing row
/// (per-module IR-arena growth); shared by PassTimingReport::str and the
/// benchmark aggregators so the two table formats cannot drift.
std::string formatTimingRow(double seconds, double total,
                            uint64_t arenaDeltaBytes,
                            const std::string &label);

} // namespace paralift::transforms
