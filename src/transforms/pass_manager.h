// The ParaLift pass-manager layer (in the spirit of mlir::PassManager):
//
//  - Pass: a named, parameterized, restartable unit of IR transformation
//    with declared options (for textual pipelines) and statistics counters.
//  - FunctionPass: a pass that runs independently on each func; its
//    module-scope run() applies it to every func in order.
//  - Instrumentation: hooks around every executed (module, pass) step.
//    The built-in one covers --print-ir-before/after; verify-after-each-
//    pass is a PassManager switch, and per-pass timing a per-run option,
//    that the executor honours directly.
//  - PassManager: owns an ordered pipeline of passes plus instrumentations
//    and runs them over modules. Its one executor is run(): one call
//    compiles one module's whole pipeline on the calling thread, and
//    concurrent calls on distinct modules are safe, so the caller decides
//    which threads compile which modules (the session runs one task per
//    module on its pool). Each call takes the job's cancellation token,
//    timing report and IR-arena cap (PassManager::RunOptions). It runs
//    every pass; the session replays cached results (driver/session.h).
//    Nothing is carried between passes: a pass that needs an analysis
//    computes it from the IR it is given.
//
// Textual pipelines ("unroll{max-trip=16},cpuify{mincut=false}",
// "repeat{n=2}(canonicalize,cse)") are parsed/printed by
// transforms/registry.{h,cpp}; PassManager::pipelineSpec round-trips the
// canonical form.
#pragma once

#include "ir/ophelpers.h"
#include "support/diagnostics.h"
#include "support/metrics.h"

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
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

  /// True for FunctionPass subclasses: the pass runs per func (so it may
  /// be a child of repeat).
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
  /// the transform itself are always collected. PassManager sets this
  /// when a pass is added and on enableStatistics, never while running;
  /// composite passes forward it to their children.
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
/// order; the PassManager runs it through run(), like any other pass.
/// RepeatPass calls runOnFunction on its children.
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
/// passes (the repeat then iterates each function to its own fixpoint,
/// and is one step whose spec covers the whole body); the registry
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

/// Instrumentations nest around each executed (module, pass) step:
/// beforePass hooks fire in installation order and afterPass hooks in
/// reverse, so the first-installed instrumentation is outermost. A session
/// whose managers have any installed never replays the result cache, so
/// the hooks see every pass execute. Hooks are not synchronized and expect
/// one module at a time, so modules of a manager with any installed are
/// run one after another (PassManager::hasInstrumentation).
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
};

/// Per-pass execution time and IR growth, one record per (module, pass)
/// step that executed the pass, in module order then pipeline order.
/// PassManager::run appends one module's records (RunOptions::timing); a
/// caller running modules concurrently gives each run its own report and
/// concatenates them in module order.
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

/// Cooperative cancellation and deadline for one compile job.
/// PassManager::run (RunOptions::cancel) polls it before every executed
/// (module, pass) step, and the session before its cache lookup — an
/// expired job fails with an attributed diagnostic ("cancelled in pass P"
/// / "deadline exceeded after Ns in pass P") before its next pass starts,
/// even when its pipeline is cached; the pass currently executing is never
/// interrupted mid-flight, so IR and cache state stay consistent. A
/// one-pass pipeline is therefore polled before its only pass.
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
  /// a time, so a caller compiling several modules of such a manager runs
  /// them one after another, on one thread.
  bool hasInstrumentation() const { return !instrumentations_.empty(); }

  /// Verifies each module after every pass; on violation reports
  ///   pass 'X' broke invariant: Y
  /// and fails that module.
  void enableVerifyEach() { verifyEach_ = true; }
  /// Installs IR printing around passes (see IRPrintInstrumentation).
  void enableIRPrinting(bool before, bool after, std::string filter = "",
                        std::FILE *out = stderr);

  /// Also collect the statistics that need extra IR walks (off by
  /// default so compile hot paths pay nothing for unread counters).
  /// Applies to passes added before and after the call; call it before
  /// the first run().
  void enableStatistics();

  /// What one run() call carries besides the manager's own switches
  /// (verify-each, statistics, instrumentations).
  struct RunOptions {
    /// Polled before every executed step; an expired token fails the
    /// module with its reason attributed to the pass it would have run
    /// next. Null: never cancelled.
    const CancellationToken *cancel = nullptr;
    /// When set, this module's (module, pass) rows are appended here, one
    /// per step that executed its pass.
    PassTimingReport *timing = nullptr;
    /// IR-arena byte cap, checked after every executed step; a module
    /// whose arena exceeds it fails with a per-job OOM diagnostic instead
    /// of growing until the process dies. 0 = unlimited.
    uint64_t maxArenaBytes = 0;
    /// When set, incremented once per step that starts executing its
    /// pass, failed steps included (the session's passes_executed count).
    uint64_t *passesExecuted = nullptr;
  };

  /// The executor: runs the pipeline over one module, on the calling
  /// thread. Stops at the first failure (a pass returning false, a new
  /// diagnostic error, an instrumentation abort, an expired
  /// `opts.cancel`, a breached `opts.maxArenaBytes`) and returns false,
  /// leaving the module's (partially transformed) IR in place.
  ///
  /// Each pass in turn polls the token, runs (a function pass over every
  /// function, in order) between the beforePass and afterPass hooks, then
  /// is checked by verify-each and the arena cap. A throw from a pass
  /// body, a hook or verify-each fails this module with a diagnostic
  /// naming the pass; a throw on one function ends the step before the
  /// module's later functions run.
  ///
  /// Concurrent calls on distinct modules are safe: they share the pass
  /// objects (whose statistics counters are atomic) and nothing else.
  /// Pass execution on a given input is deterministic, so outputs are
  /// bit-for-bit identical to a serial compile whatever the interleaving.
  /// Instrumentation hooks are not serialized: with any installed, run
  /// modules one at a time.
  bool run(ModuleOp module, DiagnosticEngine &diag, const RunOptions &opts);
  bool run(ModuleOp module, DiagnosticEngine &diag);

  /// The canonical textual pipeline, e.g. "inline,canonicalize,
  /// unroll{max-trip=16}". Feeding it back through the registry's
  /// pipeline parser reconstructs this pipeline exactly (round-trip).
  std::string pipelineSpec() const;

  /// Renders non-zero statistics of all passes as a table.
  std::string statisticsStr() const;

private:
  /// One run() call. Defined in pass_manager.cpp.
  struct ModuleRun;

  std::vector<std::unique_ptr<Pass>> passes_;
  std::vector<std::unique_ptr<Instrumentation>> instrumentations_;
  bool collectStats_ = false;
  bool verifyEach_ = false;
};

/// Renders one "  <secs> s (<pct>%)  ir <+arenaMB>  <label>" timing row
/// (per-module IR-arena growth); shared by PassTimingReport::str and the
/// benchmark aggregators so the two table formats cannot drift.
std::string formatTimingRow(double seconds, double total,
                            uint64_t arenaDeltaBytes,
                            const std::string &label);

} // namespace paralift::transforms
