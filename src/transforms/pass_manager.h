// The ParaLift pass-manager layer (in the spirit of mlir::PassManager):
//
//  - Pass: a named, parameterized, restartable unit of IR transformation
//    with declared options (for textual pipelines) and statistics counters.
//  - FunctionPass: a pass that runs independently on each func, so its
//    results are cached (and replayed) per function.
//  - Instrumentation: hooks around every (module, pass) step. The
//    built-in one covers --print-ir-before/after; per-pass timing and
//    verify-after-each-pass are PassManager switches the executor honours
//    directly.
//  - PassManager: owns an ordered pipeline of passes plus instrumentations
//    and runs them over modules. Its one executor is the batch
//    (BatchDag): one task per module, which runs the module's whole
//    pipeline; the caller decides which threads run the tasks, and run()
//    is a one-module batch on the calling thread.
//    Optionally a PassResultCache (transforms/pass_cache.h) replays
//    cached IR for unchanged (function, pass) pairs instead of re-running
//    passes. Nothing else is carried between passes: a pass that needs an
//    analysis computes it from the IR it is given.
//
// Textual pipelines ("unroll{max-trip=16},cpuify{mincut=false}",
// "repeat{n=2}(canonicalize,cse)") are parsed/printed by
// transforms/registry.{h,cpp}; PassManager::pipelineSpec round-trips the
// canonical form.
#pragma once

#include "ir/ophelpers.h"
#include "support/diagnostics.h"
#include "support/metrics.h"
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

  /// True for FunctionPass subclasses: the pass runs per func, and its
  /// results are cached per function.
  virtual bool isFunctionPass() const { return false; }

  // IR-change tracking --------------------------------------------------------
  // Passes that know exactly when they mutate IR report each mutating
  // call through a thread-local flag, so composite passes
  // (repeat{until=fixpoint}) can detect per-function convergence even
  // while other module tasks run the same pass objects on other modules.

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
  /// (which module tasks run concurrently) must create them up front in
  /// their constructor.
  Statistic &statistic(const std::string &name);
  const std::vector<std::unique_ptr<Statistic>> &statistics() const {
    return stats_;
  }

  /// Statistics whose collection needs extra IR walks (before/after op
  /// counts) are only gathered when enabled; counters that fall out of
  /// the transform itself are always collected. PassManager toggles this
  /// per batch (see PassManager::enableStatistics); composite passes
  /// forward it to their children.
  virtual void setStatisticsEnabled(bool on) { statsEnabled_ = on; }
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
};

/// A pass that transforms one function at a time and never looks outside
/// it. The module-scope run() applies runOnFunction to every func in
/// order; the PassManager instead calls runOnFunction itself, so it can
/// look up, replay and store each function's result in the cache.
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
/// rejects module passes inside repeat.
class RepeatPass : public FunctionPass {
public:
  RepeatPass();
  /// `child` must be a FunctionPass.
  void addChild(std::unique_ptr<Pass> child);

  std::string spec() const override;
  const std::vector<std::unique_ptr<Pass>> *childPasses() const override {
    return &children_;
  }
  void setStatisticsEnabled(bool on) override;
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
/// each module's clock samples into it when the batch drains.
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
/// executor (BatchDag::compileModule, and run() through it) polls it
/// before every (module, pass) step — an expired job fails with an
/// attributed diagnostic ("cancelled in pass P" / "deadline exceeded
/// after Ns in pass P") before its next pass starts; the pass currently
/// executing is never interrupted mid-flight, so IR and cache state stay
/// consistent. Thread-safe: any thread may cancel() while workers poll.
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

  /// Also collect the statistics that need extra IR walks (off by
  /// default so compile hot paths pay nothing for unread counters).
  void enableStatistics() { collectStats_ = true; }

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

  /// Runs every pass in order over one module: a one-item batch,
  /// compiled on the calling thread. Stops at the first failure (a pass
  /// returning false, a new diagnostic error, or an instrumentation
  /// abort) and returns false.
  bool run(ModuleOp module, DiagnosticEngine &diag);

  /// Per-batch knobs for makeBatch. The manager's own switches
  /// (enableVerifyEach, enableTiming, instrumentations) apply too.
  struct BatchOptions {
    /// Invoked (on the thread that ran the module's task) the moment a
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

  /// One module of a batch (makeBatch). Either `module` is a live
  /// module op, or `prepare` produces one at the start of the module's
  /// task — so parsing one module overlaps other modules' passes.
  struct BatchItem {
    ir::Op *module = nullptr; ///< pre-parsed module, or null with prepare
    DiagnosticEngine *diag = nullptr;
    /// Parses/builds the module on a worker; nullopt on frontend failure
    /// (which must be reported through `diag`).
    std::function<std::optional<ModuleOp>()> prepare;
  };

  /// Batch execution, the one executor: one task per module, which
  /// BatchDag::compileModule runs. The module is the unit of compile
  /// parallelism: its task parses it (prepare), keys its functions
  /// (ir::hashOp), and runs the whole pipeline, so module B runs pass 3
  /// while module A is still parsing, and a module resolves
  /// (opts.onModuleDone) the moment its own last step lands instead of
  /// at end of batch. A function-pass step looks up, runs and stores the
  /// module's functions one after another on that task, and no module is
  /// touched by two threads. Modules share the result cache only
  /// through PassResultCache::lookup/store, so two modules computing the
  /// same (function, pass) entry at the same time both run it and store
  /// identical results. Pass execution on a given input is
  /// deterministic, so outputs are bit-for-bit identical to serial
  /// compiles regardless of interleaving. A failing module (pass error,
  /// verifier breakage) stops and is left materialized; the rest of the
  /// batch is unaffected.
  ///
  /// Instrumentation hooks fire around every (module, pass) step; with
  /// any installed, the caller must run the tasks one at a time, to
  /// completion, in item order.
  ///
  /// The caller owns the returned batch and calls compileModule(i) once
  /// for each i in [0, size()), on any threads; several pipeline groups'
  /// batches may share one parallel loop. results() and foldTimingInto
  /// are valid once every call has returned.
  std::unique_ptr<BatchDag> makeBatch(std::vector<BatchItem> items,
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
  bool collectStats_ = false;
  bool verifyEach_ = false;
  PassTimingReport *timing_ = nullptr;
  PassResultCache *cache_ = nullptr;
};

//===----------------------------------------------------------------------===//
// BatchDag
//===----------------------------------------------------------------------===//

/// One pipeline group's batch, built by PassManager::makeBatch and owned
/// by the caller: one independent task per module. Query after every
/// task has returned.
class BatchDag {
public:
  ~BatchDag();

  /// Number of modules, and so of tasks.
  size_t size() const { return mods_.size(); }

  /// Module i's task: prepare, initial keying, then every pass step in
  /// pipeline order until one fails or the pipeline ends. Call once per
  /// module; distinct modules' tasks may run concurrently.
  void compileModule(size_t i);

  /// Per-module success, in item order. A module whose task exited by
  /// exception reads as failed.
  const std::vector<char> &results() const { return ok_; }

  /// Folds each module's (module, pass) clock samples, collected while
  /// the batch ran, into `report`, in module order then pipeline order.
  /// Empty unless the manager had timing enabled (enableTiming).
  void foldTimingInto(PassTimingReport &report) const;

private:
  friend class PassManager;

  /// One module's compile state. Only the module's own task touches it,
  /// so none of its fields need locks.
  struct Mod;

  BatchDag(PassManager &pm, PassManager::BatchOptions opts);

  /// Opens the module's step for `pass`: decides lazy replay,
  /// materializes pending replays when the IR is inspected, and fires
  /// beforePass hooks. False (after fail(i)) on a materialization
  /// failure.
  bool beginStep(size_t i, Pass &pass);
  /// Closes a completed step: afterPass hooks, verify-each, and the
  /// arena cap. False (after fail(i)) when any of them rejects the
  /// module.
  bool endStep(size_t i, Pass &pass);
  /// Fires the afterPass hooks of an open step (reverse order); false if
  /// any hook aborts.
  bool closeHooks(size_t i, Pass &pass);
  /// Runs one step; true when the module may move to the next pass,
  /// false after fail(i).
  bool runModulePass(size_t i, Pass &pass);
  bool runFunctionPass(size_t i, FunctionPass &pass);
  /// Polls the module's cancellation token before a step; on expiry
  /// records the diagnostic, fails the module, and returns true (abort
  /// the pipeline).
  bool cancelled(size_t i, Pass &pass);
  void finish(size_t i, bool ok);
  /// Fails the module: closes an open step's hooks, leaves the IR
  /// materialized, and resolves it.
  void fail(size_t i);
  /// Runs one pass body of module i contained (a throw becomes a
  /// diagnostic), clocked into pm.pass_seconds and — with timing enabled
  /// — a (module, pass) sample of its time and IR-arena growth.
  template <typename Fn> bool runClocked(size_t i, const Pass &pass, Fn &&body);

  PassManager &pm_;
  PassManager::BatchOptions opts_;
  std::vector<std::unique_ptr<Mod>> mods_;
  std::vector<char> ok_; ///< distinct elements written by distinct tasks
};

/// Renders one "  <secs> s (<pct>%)  ir <+arenaMB>  <label>" timing row
/// (per-module IR-arena growth); shared by PassTimingReport::str and the
/// benchmark aggregators so the two table formats cannot drift.
std::string formatTimingRow(double seconds, double total,
                            uint64_t arenaDeltaBytes,
                            const std::string &label);

} // namespace paralift::transforms
