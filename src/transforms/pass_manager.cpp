#include "transforms/pass_manager.h"

#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/failpoint.h"
#include "support/trace.h"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <utility>

namespace paralift::transforms {

//===----------------------------------------------------------------------===//
// Pass options
//===----------------------------------------------------------------------===//

void Pass::declareBoolOption(const std::string &key, bool *storage,
                             bool dflt) {
  *storage = dflt;
  Option o;
  o.key = key;
  o.kind = Option::Kind::Bool;
  o.boolStorage = storage;
  o.dflt = dflt ? 1 : 0;
  options_.push_back(std::move(o));
}

void Pass::declareIntOption(const std::string &key, int64_t *storage,
                            int64_t dflt, int64_t min, int64_t max) {
  *storage = dflt;
  Option o;
  o.key = key;
  o.kind = Option::Kind::Int;
  o.intStorage = storage;
  o.dflt = dflt;
  o.min = min;
  o.max = max;
  options_.push_back(std::move(o));
}

void Pass::declareStringOption(const std::string &key, std::string *storage,
                               std::string dflt,
                               std::vector<std::string> allowed) {
  *storage = dflt;
  Option o;
  o.key = key;
  o.kind = Option::Kind::String;
  o.strStorage = storage;
  o.strDflt = std::move(dflt);
  o.allowed = std::move(allowed);
  options_.push_back(std::move(o));
}

bool Pass::setOption(const std::string &key, const std::string &value,
                     std::string *err) {
  for (Option &o : options_) {
    if (o.key != key)
      continue;
    switch (o.kind) {
    case Option::Kind::Bool:
      if (value == "true" || value == "1") {
        *o.boolStorage = true;
      } else if (value == "false" || value == "0") {
        *o.boolStorage = false;
      } else {
        if (err)
          *err = "invalid value '" + value + "' for boolean option '" + key +
                 "' of pass '" + name_ + "'";
        return false;
      }
      return true;
    case Option::Kind::String: {
      // Spec metacharacters in a value would break the documented
      // parse(spec()) round-trip (and the cache's canonical keys), so
      // they are rejected regardless of the allowed list.
      if (value.find_first_of(",{}()") != std::string::npos) {
        if (err)
          *err = "invalid value '" + value + "' for option '" + key +
                 "' of pass '" + name_ +
                 "' (values must not contain ',', '{', '}', '(' or ')')";
        return false;
      }
      if (!o.allowed.empty() &&
          std::find(o.allowed.begin(), o.allowed.end(), value) ==
              o.allowed.end()) {
        if (err) {
          std::string choices;
          for (const std::string &a : o.allowed)
            choices += (choices.empty() ? "" : ", ") + a;
          *err = "invalid value '" + value + "' for option '" + key +
                 "' of pass '" + name_ + "' (expected one of: " + choices +
                 ")";
        }
        return false;
      }
      *o.strStorage = value;
      return true;
    }
    case Option::Kind::Int:
      break;
    }
    try {
      size_t consumed = 0;
      int64_t v = std::stoll(value, &consumed);
      if (consumed != value.size())
        throw std::invalid_argument(value);
      if (v < o.min || v > o.max) {
        if (err)
          *err = "value " + value + " out of range [" +
                 std::to_string(o.min) + ", " + std::to_string(o.max) +
                 "] for option '" + key + "' of pass '" + name_ + "'";
        return false;
      }
      *o.intStorage = v;
    } catch (const std::exception &) {
      if (err)
        *err = "invalid value '" + value + "' for integer option '" + key +
               "' of pass '" + name_ + "'";
      return false;
    }
    return true;
  }
  if (err) {
    std::string known;
    for (const Option &o : options_)
      known += (known.empty() ? "" : ", ") + o.key;
    *err = "unknown option '" + key + "' for pass '" + name_ + "'" +
           (known.empty() ? " (pass takes no options)"
                          : " (known options: " + known + ")");
  }
  return false;
}

std::string Pass::spec() const {
  std::string opts;
  for (const Option &o : options_) {
    std::string value;
    switch (o.kind) {
    case Option::Kind::Bool:
      if ((*o.boolStorage ? 1 : 0) == o.dflt)
        continue;
      value = *o.boolStorage ? "true" : "false";
      break;
    case Option::Kind::Int:
      if (*o.intStorage == o.dflt)
        continue;
      value = std::to_string(*o.intStorage);
      break;
    case Option::Kind::String:
      if (*o.strStorage == o.strDflt)
        continue;
      value = *o.strStorage;
      break;
    }
    if (!opts.empty())
      opts += ",";
    opts += o.key + "=" + value;
  }
  return opts.empty() ? name_ : name_ + "{" + opts + "}";
}

//===----------------------------------------------------------------------===//
// IR-change tracking
//===----------------------------------------------------------------------===//

namespace {
// Per-thread so module tasks running one pass object on distinct modules
// observe only their own call's changes.
thread_local bool tlsIRChanged = false;
} // namespace

void Pass::noteIRChanged() { tlsIRChanged = true; }
void Pass::resetThreadIRChanged() { tlsIRChanged = false; }
bool Pass::threadIRChanged() { return tlsIRChanged; }

Pass::Statistic &Pass::statistic(const std::string &name) {
  for (auto &s : stats_)
    if (s->name == name)
      return *s;
  stats_.push_back(std::make_unique<Statistic>(name));
  // Mirror into the process-wide registry so pass counters appear in the
  // same snapshot as cache/scheduler/session metrics. Creation happens
  // in pass constructors (single-threaded); bumps stay lock-free.
  stats_.back()->mirror = &metrics::MetricsRegistry::instance().counter(
      "pass." + this->name() + "." + name);
  return *stats_.back();
}

//===----------------------------------------------------------------------===//
// FunctionPass
//===----------------------------------------------------------------------===//

bool FunctionPass::run(ModuleOp module, DiagnosticEngine &diag) {
  bool ok = true;
  for (ir::Op *op : module.body())
    if (op->kind() == ir::OpKind::Func)
      ok = runOnFunction(op, diag) && ok;
  return ok;
}

//===----------------------------------------------------------------------===//
// RepeatPass
//===----------------------------------------------------------------------===//

RepeatPass::RepeatPass()
    : FunctionPass("repeat", "run the child passes n times in sequence") {
  declareIntOption("n", &n_, 2, /*min=*/1, /*max=*/1024);
  declareStringOption("until", &until_, "count", {"count", "fixpoint"});
}

void RepeatPass::addChild(std::unique_ptr<Pass> child) {
  assert(child->isFunctionPass() &&
         "repeat children must be function passes");
  children_.push_back(std::move(child));
}

std::string RepeatPass::spec() const {
  std::string out = Pass::spec() + "(";
  for (size_t i = 0; i < children_.size(); ++i)
    out += (i ? "," : "") + children_[i]->spec();
  return out + ")";
}

void RepeatPass::setStatisticsEnabled(bool on) {
  Pass::setStatisticsEnabled(on);
  for (auto &c : children_)
    c->setStatisticsEnabled(on);
}

bool RepeatPass::tracksIRChange() const {
  for (const auto &c : children_)
    if (!c->tracksIRChange())
      return false;
  return true;
}

bool RepeatPass::runOnFunction(ir::Op *func, DiagnosticEngine &diag) {
  size_t errorsAtStart = diag.numErrors();
  const bool fixpoint = isFixpoint();
  // Exact per-call change flags drive convergence when every child
  // reports them; a non-tracking child degrades to comparing the printed
  // IR round over round (correct for any pass, at a print per round).
  const bool exact = !fixpoint || tracksIRChange();
  std::string prevPrint;
  if (!exact)
    prevPrint = ir::printOp(func);
  // In fixpoint mode `n` is ignored (the registry rejects combining the
  // two); the cap only backstops a pass pair that oscillates instead of
  // converging, and hitting it is reported below.
  const int64_t rounds = fixpoint ? 1024 : n_;
  bool converged = !fixpoint;
  bool anyChange = false;
  for (int64_t i = 0; i < rounds; ++i) {
    bool roundChanged = false;
    for (auto &c : children_) {
      resetThreadIRChanged();
      if (!static_cast<FunctionPass &>(*c).runOnFunction(func, diag) ||
          diag.numErrors() > errorsAtStart)
        return false;
      roundChanged |= threadIRChanged();
    }
    anyChange |= roundChanged;
    if (!fixpoint)
      continue;
    if (exact) {
      if (!roundChanged) {
        converged = true;
        break;
      }
    } else {
      std::string cur = ir::printOp(func);
      if (cur == prevPrint) {
        converged = true;
        break;
      }
      prevPrint = std::move(cur);
    }
  }
  if (!converged)
    diag.warning(SourceLoc(),
                 "repeat{until=fixpoint} hit the " +
                     std::to_string(rounds) +
                     "-round cap without converging on function '" +
                     ir::FuncOp(func).name() + "'");
  // Propagate to an enclosing repeat: the per-child resets above wiped
  // the thread flag, so restate the aggregate.
  if (anyChange)
    noteIRChanged();
  else
    resetThreadIRChanged();
  return true;
}

size_t countNestedOps(ir::Op *root) {
  size_t n = 0;
  root->walk([&](ir::Op *) { ++n; });
  return n;
}

size_t countNestedOps(ir::Op *root, ir::OpKind kind) {
  size_t n = 0;
  root->walk([&](ir::Op *op) {
    if (op->kind() == kind)
      ++n;
  });
  return n;
}

//===----------------------------------------------------------------------===//
// Instrumentation
//===----------------------------------------------------------------------===//

double PassTimingReport::totalSeconds() const {
  double t = 0;
  for (const Record &r : records)
    t += r.seconds;
  return t;
}

uint64_t PassTimingReport::totalArenaDeltaBytes() const {
  uint64_t t = 0;
  for (const Record &r : records)
    t += r.arenaDeltaBytes;
  return t;
}

std::string formatTimingRow(double seconds, double total,
                            uint64_t arenaDeltaBytes,
                            const std::string &label) {
  char buf[224];
  double pct = total > 0 ? 100.0 * seconds / total : 0.0;
  std::snprintf(buf, sizeof(buf), "  %10.6f s (%5.1f%%)  ir %+9.2f MB  %s\n",
                seconds, pct, arenaDeltaBytes / (1024.0 * 1024.0),
                label.c_str());
  return buf;
}

std::string PassTimingReport::str() const {
  double total = totalSeconds();
  std::ostringstream os;
  os << "===-------------------------------------------------------------===\n";
  os << "                      Pass execution timing\n";
  os << "===-------------------------------------------------------------===\n";
  char buf[128];
  std::snprintf(buf, sizeof(buf), "  Total: %.6f s, IR-arena +%.2f MB\n",
                total, totalArenaDeltaBytes() / (1024.0 * 1024.0));
  os << buf;
  for (const Record &r : records)
    os << formatTimingRow(
        r.seconds, total, r.arenaDeltaBytes,
        r.module.empty() ? r.spec : r.spec + "  [" + r.module + "]");
  return os.str();
}

namespace {

/// Per-pass wall-time distribution across every pass execution in the
/// process, shared with the metrics snapshot.
metrics::Histogram &passSecondsHistogram() {
  static metrics::Histogram *h =
      &metrics::MetricsRegistry::instance().histogram("pm.pass_seconds");
  return *h;
}

/// Builds a trace-span name only when tracing is on, so the disabled
/// path never allocates for the concatenation.
std::string spanName(const char *prefix, const std::string &rest) {
  if (!trace::enabled())
    return {};
  std::string s(prefix);
  s += rest;
  return s;
}

} // namespace

void IRPrintInstrumentation::beforePass(const Pass &pass, ModuleOp module) {
  if (!before_ || !matches(pass))
    return;
  std::fprintf(out_, "// ===== IR before pass '%s' =====\n%s\n",
               pass.spec().c_str(), ir::printOp(module.op).c_str());
}

bool IRPrintInstrumentation::afterPass(const Pass &pass, ModuleOp module,
                                       DiagnosticEngine &) {
  if (after_ && matches(pass))
    std::fprintf(out_, "// ===== IR after pass '%s' =====\n%s\n",
                 pass.spec().c_str(), ir::printOp(module.op).c_str());
  return true;
}

//===----------------------------------------------------------------------===//
// CancellationToken
//===----------------------------------------------------------------------===//

namespace {
int64_t steadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}
} // namespace

void CancellationToken::setDeadline(double seconds) {
  if (seconds <= 0) {
    deadlineNanos_.store(0, std::memory_order_relaxed);
    return;
  }
  timeoutSeconds_ = seconds;
  deadlineNanos_.store(steadyNowNanos() +
                           static_cast<int64_t>(seconds * 1e9),
                       std::memory_order_relaxed);
}

bool CancellationToken::expired() const {
  if (cancelled_.load(std::memory_order_relaxed))
    return true;
  int64_t deadline = deadlineNanos_.load(std::memory_order_relaxed);
  return deadline != 0 && steadyNowNanos() >= deadline;
}

std::string CancellationToken::expiredReason() const {
  if (cancelled_.load(std::memory_order_relaxed))
    return "cancelled";
  int64_t deadline = deadlineNanos_.load(std::memory_order_relaxed);
  if (deadline != 0 && steadyNowNanos() >= deadline) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "deadline exceeded after %gs",
                  timeoutSeconds_);
    return buf;
  }
  return {};
}

//===----------------------------------------------------------------------===//
// Pass-execution containment
//===----------------------------------------------------------------------===//

namespace {

/// Every pass-execution boundary goes through here: evaluates the
/// "pass.run" failpoint, runs `body`, and converts any escaping
/// exception into a structured diagnostic attributed to the pass — a
/// throwing pass fails its module, never the batch or the process.
template <typename Fn>
bool runPassContained(const std::string &passName, DiagnosticEngine &diag,
                      Fn &&body) {
  try {
    failpoint::evaluate("pass.run");
    return body();
  } catch (const std::exception &e) {
    diag.error(SourceLoc(),
               "pass '" + passName + "' threw: " + e.what());
  } catch (...) {
    diag.error(SourceLoc(), "pass '" + passName +
                                "' threw a non-standard exception");
  }
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

PassManager::~PassManager() = default;

void PassManager::addPass(std::unique_ptr<Pass> pass) {
  // Set here and in enableStatistics, never in run(): concurrent runs
  // share the pass objects.
  pass->setStatisticsEnabled(collectStats_);
  passes_.push_back(std::move(pass));
}

void PassManager::enableStatistics() {
  collectStats_ = true;
  for (auto &pass : passes_)
    pass->setStatisticsEnabled(true);
}

void PassManager::addInstrumentation(std::unique_ptr<Instrumentation> ins) {
  instrumentations_.push_back(std::move(ins));
}

void PassManager::enableIRPrinting(bool before, bool after,
                                   std::string filter, std::FILE *out) {
  addInstrumentation(std::make_unique<IRPrintInstrumentation>(
      before, after, std::move(filter), out));
}

/// One run() call. Only the calling thread touches it, so none of its
/// fields need locks.
struct PassManager::ModuleRun {
  PassManager &pm;
  ModuleOp module;
  DiagnosticEngine &diag;
  const RunOptions &opts;

  /// Runs every pass in pipeline order; false at the first failure.
  bool compile() {
    for (const auto &p : pm.passes_) {
      Pass &pass = *p;
      if (cancelled(pass))
        return false;
      if (opts.passesExecuted)
        ++*opts.passesExecuted;
      trace::TraceSpan span(spanName("pass:", pass.name()), "pm");
      bool ok;
      // Pass bodies are contained on their own (runPassContained); this
      // catch covers the hooks and verify-each, so a throw fails this
      // module alone, with a diagnostic naming the pass.
      try {
        ok = runStep(pass);
      } catch (const std::exception &e) {
        diag.error(SourceLoc(),
                   "pass step '" + pass.name() + "' threw: " + e.what());
        ok = false;
      } catch (...) {
        diag.error(SourceLoc(), "pass step '" + pass.name() +
                                    "' threw a non-standard exception");
        ok = false;
      }
      if (!ok) {
        if (span.active())
          span.annotate("step", "failed");
        return false;
      }
    }
    return true;
  }

  /// Polls the cancellation token before `pass`; on expiry records the
  /// diagnostic and returns true (abort the pipeline).
  bool cancelled(const Pass &pass) {
    std::string reason = opts.cancel ? opts.cancel->expiredReason() : "";
    if (reason.empty())
      return false;
    diag.error(SourceLoc(), reason + " in pass '" + pass.name() + "'");
    return true;
  }

  /// One executed step: beforePass hooks, the pass, afterPass hooks (even
  /// when the pass failed), verify-each and the arena cap. False when any
  /// of them rejects the module. A function pass's run() applies it to
  /// every function of the module in order.
  bool runStep(Pass &pass) {
    for (auto &ins : pm.instrumentations_)
      ins->beforePass(pass, module);
    size_t errorsBefore = diag.numErrors();
    bool ok = runClocked(pass) && diag.numErrors() == errorsBefore;
    // Reverse order so instrumentations nest (first installed = outermost).
    for (auto it = pm.instrumentations_.rbegin();
         it != pm.instrumentations_.rend(); ++it)
      ok = (*it)->afterPass(pass, module, diag) && ok;
    if (ok && pm.verifyEach_)
      for (const std::string &e : ir::verify(module.op)) {
        diag.error(SourceLoc(),
                   "pass '" + pass.name() + "' broke invariant: " + e);
        ok = false;
      }
    return ok && withinArenaCap("pass '" + pass.name() + "'");
  }

  /// Runs the pass body contained (a throw becomes a diagnostic), clocked
  /// into pm.pass_seconds and — with opts.timing — into one row of time
  /// and IR-arena growth for this step.
  bool runClocked(Pass &pass) {
    // Only this run allocates in the module's arena, so the delta is
    // exactly what this body materialized.
    const ir::IRArena &arena = module.op->arena();
    uint64_t arenaStart = arena.bytesAllocated();
    auto t0 = std::chrono::steady_clock::now();
    bool ok = runPassContained(pass.name(), diag,
                               [&] { return pass.run(module, diag); });
    double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    passSecondsHistogram().observe(secs);
    if (opts.timing)
      opts.timing->records.push_back({pass.spec(), secs,
                                      arena.bytesAllocated() - arenaStart,
                                      diag.moduleName()});
    return ok;
  }

  /// Per-module arena cap: runaway IR growth becomes a clean per-job OOM
  /// failure, not process death.
  bool withinArenaCap(const std::string &after) {
    uint64_t bytes = module.op->arena().bytesAllocated();
    if (!opts.maxArenaBytes || bytes <= opts.maxArenaBytes)
      return true;
    diag.error(SourceLoc(), "IR arena limit exceeded (" +
                                std::to_string(bytes) + " > " +
                                std::to_string(opts.maxArenaBytes) +
                                " bytes) after " + after);
    return false;
  }
};

bool PassManager::run(ModuleOp module, DiagnosticEngine &diag,
                      const RunOptions &opts) {
  return ModuleRun{*this, module, diag, opts}.compile();
}

bool PassManager::run(ModuleOp module, DiagnosticEngine &diag) {
  return run(module, diag, RunOptions{});
}

std::string PassManager::pipelineSpec() const {
  std::string out;
  for (const auto &p : passes_) {
    if (!out.empty())
      out += ",";
    out += p->spec();
  }
  return out;
}

std::string PassManager::statisticsStr() const {
  std::ostringstream os;
  os << "===-------------------------------------------------------------===\n";
  os << "                         Pass statistics\n";
  os << "===-------------------------------------------------------------===\n";
  char buf[160];
  // One level of recursion covers composite (repeat) passes.
  auto emit = [&](const Pass &p, auto &emitRef) -> void {
    for (const auto &s : p.statistics()) {
      uint64_t v = s->value.load(std::memory_order_relaxed);
      if (v == 0)
        continue;
      std::snprintf(buf, sizeof(buf), "  %8llu  %-16s %s\n",
                    static_cast<unsigned long long>(v), p.name().c_str(),
                    s->name.c_str());
      os << buf;
    }
    if (const auto *children = p.childPasses())
      for (const auto &c : *children)
        emitRef(*c, emitRef);
  };
  for (const auto &p : passes_)
    emit(*p, emit);
  return os.str();
}

} // namespace paralift::transforms
