#include "transforms/pass_manager.h"

#include "ir/hasher.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "runtime/thread_pool.h"
#include "support/failpoint.h"
#include "support/trace.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <sstream>
#include <stdexcept>

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
// Per-thread so concurrent workers running one pass object on distinct
// functions observe only their own call's changes.
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

void RepeatPass::beginRun() {
  for (auto &c : children_) {
    c->setStatisticsEnabled(statisticsEnabled());
    c->setAnalysisManager(getAnalysisManager());
    c->beginRun();
  }
}

PreservedAnalyses RepeatPass::preservedAnalyses() const {
  PreservedAnalyses p = PreservedAnalyses::all();
  for (const auto &c : children_)
    p = p.intersect(c->preservedAnalyses());
  return p;
}

bool RepeatPass::tracksIRChange() const {
  for (const auto &c : children_)
    if (!c->tracksIRChange())
      return false;
  return true;
}

bool RepeatPass::runOnFunction(ir::Op *func, DiagnosticEngine &diag) {
  size_t errorsAtStart = diag.numErrors();
  AnalysisManager *am = getAnalysisManager();
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
      // The PassManager only invalidates between top-level passes; an
      // analysis-consuming child must not see results a mutating sibling
      // (or a previous round) left stale. The child's dynamic
      // declaration is an OR across every function it has touched this
      // run, which is conservative here.
      if (am)
        am->invalidate(func, c->preservedAnalyses());
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

void AnalysisCrossCheckInstrumentation::beforePass(const Pass &,
                                                   ModuleOp module) {
  // Prime every analysis for every function so the after-pass check
  // always has a pre-pass result to compare against.
  for (ir::Op *op : module.body()) {
    if (op->kind() != ir::OpKind::Func)
      continue;
    am_.getBarrier(op);
    am_.getMemory(op);
    am_.getAffine(op);
  }
}

bool AnalysisCrossCheckInstrumentation::afterPass(const Pass &pass,
                                                  ModuleOp module,
                                                  DiagnosticEngine &diag) {
  PreservedAnalyses preserved = pass.preservedAnalyses();
  bool ok = true;
  for (ir::Op *op : module.body()) {
    if (op->kind() != ir::OpKind::Func)
      continue;
    auto check = [&](AnalysisKind k, uint64_t fresh) {
      // No cached entry: the function is new (created or spliced in by
      // the result cache during this pass) — nothing to compare.
      std::optional<uint64_t> cached = am_.cachedFingerprint(op, k);
      if (!cached || *cached == fresh)
        return;
      diag.error(SourceLoc(),
                 "pass '" + pass.name() + "' declared analysis '" +
                     analysisKindName(k) +
                     "' preserved but it changed for function '" +
                     ir::FuncOp(op).name() + "'");
      ok = false;
    };
    if (preserved.isPreserved(AnalysisKind::Barrier))
      check(AnalysisKind::Barrier, BarrierAnalysis::compute(op).fingerprint());
    if (preserved.isPreserved(AnalysisKind::Memory))
      check(AnalysisKind::Memory, MemoryAnalysis::compute(op).fingerprint());
    if (preserved.isPreserved(AnalysisKind::Affine))
      check(AnalysisKind::Affine, AffineAnalysis::compute(op).fingerprint());
  }
  // Drop everything; the next beforePass re-primes from the current IR,
  // so each cross-check attributes exactly one pass. (Fingerprint
  // equality is transitive, so per-pass checks imply chain validity.)
  am_.clear();
  return ok;
}

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
/// Essential on scheduler workers, where an uncaught exception would
/// otherwise unwind into the worker loop.
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

const char *kRoundTripError =
    "pass-cache: cached IR failed to re-parse (print/parse round-trip bug)";

} // namespace

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

PassManager::~PassManager() = default;

void PassManager::addPass(std::unique_ptr<Pass> pass) {
  passes_.push_back(std::move(pass));
}

void PassManager::addInstrumentation(std::unique_ptr<Instrumentation> ins) {
  instrumentations_.push_back(std::move(ins));
}

void PassManager::enableIRPrinting(bool before, bool after,
                                   std::string filter, std::FILE *out) {
  addInstrumentation(std::make_unique<IRPrintInstrumentation>(
      before, after, std::move(filter), out));
}

void PassManager::enableAnalysisVerify() {
  addInstrumentation(
      std::make_unique<AnalysisCrossCheckInstrumentation>(analysisManager_));
}

bool PassManager::inspectsIR(const Pass &pass) const {
  return std::any_of(instrumentations_.begin(), instrumentations_.end(),
                     [&](const auto &ins) { return ins->inspectsIR(pass); });
}

namespace {

std::vector<ir::Op *> collectFuncs(ModuleOp module) {
  std::vector<ir::Op *> funcs;
  for (ir::Op *op : module.body())
    if (op->kind() == ir::OpKind::Func)
      funcs.push_back(op);
  return funcs;
}

} // namespace

const Hash128 &PassManager::hashOf(ir::Op *func, CacheState &st) {
  auto it = st.irHash.find(func);
  if (it == st.irHash.end())
    it = st.irHash.emplace(func, ir::hashOp(func)).first;
  return it->second;
}

ir::Op *PassManager::spliceFunction(ModuleOp module, ir::Op *oldFunc,
                                    const std::string &text) {
  // Cached entries hold a standalone printed func; wrap it into module
  // syntax for the parser. Parse directly into the destination module's
  // arena — ops must never migrate between arenas.
  DiagnosticEngine localDiag;
  ir::Op *top = ir::parseModuleInto(module.op->arena(),
                                    "module {\n" + text + "\n}\n", localDiag);
  if (!top || localDiag.hasErrors()) {
    if (top)
      ir::Op::destroy(top);
    return nullptr;
  }
  ir::Op *newFunc = nullptr;
  for (ir::Op *op : top->region(0).front())
    if (op->kind() == ir::OpKind::Func) {
      newFunc = op;
      break;
    }
  if (!newFunc) {
    ir::Op::destroy(top);
    return nullptr;
  }
  newFunc->removeFromParent();
  ir::Op::destroy(top); // detach the scaffolding; memory stays in the arena
  module.body().insertBefore(oldFunc, newFunc);
  oldFunc->erase();
  return newFunc;
}

bool PassManager::applyHit(ModuleOp module, ir::Op *func,
                           PassResultCache::Entry &&hit, bool lazy,
                           CacheState &st) {
  if (lazy) {
    // Accept the hit without splicing: the hash chain advances and the
    // latest cached text supersedes any earlier pending text.
    st.irHash[func] = hit.outputHash;
    st.pending[func] = std::move(hit.ir);
    return true;
  }
  ir::Op *replacement = spliceFunction(module, func, hit.ir);
  if (!replacement)
    return false;
  analysisManager_.invalidate(func);
  st.irHash.erase(func);
  // A leftover lazy entry from an earlier pass would otherwise
  // materialize outdated IR over the spliced result at the next
  // materialize of `func`.
  st.pending.erase(func);
  st.irHash[replacement] = hit.outputHash;
  return true;
}

ir::Op *PassManager::materialize(ModuleOp module, ir::Op *func,
                                 CacheState &st) {
  auto pendingIt = st.pending.find(func);
  if (pendingIt == st.pending.end())
    return func;
  std::string text = std::move(pendingIt->second);
  st.pending.erase(pendingIt);
  ir::Op *replacement = spliceFunction(module, func, text);
  if (!replacement)
    return nullptr;
  // The old op (and its cached analyses) are gone; the hash chain
  // continues under the replacement's identity.
  analysisManager_.invalidate(func);
  auto hashIt = st.irHash.find(func);
  if (hashIt != st.irHash.end()) {
    Hash128 h = hashIt->second;
    st.irHash.erase(hashIt);
    st.irHash[replacement] = h;
  }
  return replacement;
}

bool PassManager::materializeAll(ModuleOp module, CacheState &st) {
  while (!st.pending.empty())
    if (!materialize(module, st.pending.begin()->first, st))
      return false;
  return true;
}

bool PassManager::spliceModule(ModuleOp module,
                               const PassResultCache::Entry &entry,
                               CacheState &st) {
  DiagnosticEngine localDiag;
  ir::Op *top =
      ir::parseModuleInto(module.op->arena(), entry.ir, localDiag);
  if (!top || localDiag.hasErrors()) {
    if (top)
      ir::Op::destroy(top);
    return false;
  }
  for (ir::Op *op : collectFuncs(module))
    op->erase();
  st.irHash.clear();
  st.pending.clear();
  std::vector<ir::Op *> newOps;
  for (ir::Op *op : top->region(0).front())
    newOps.push_back(op);
  size_t funcIdx = 0;
  for (ir::Op *op : newOps) {
    op->removeFromParent();
    module.body().push_back(op);
    if (op->kind() != ir::OpKind::Func)
      continue;
    // The entry records the per-function result hashes; fall back to
    // rehashing only when the metadata is absent (older cache files).
    if (funcIdx < entry.funcHashes.size())
      st.irHash[op] = entry.funcHashes[funcIdx];
    else
      st.irHash[op] = ir::hashOp(op);
    ++funcIdx;
  }
  ir::Op::destroy(top); // detach the scaffolding module op
  return true;
}

bool PassManager::run(ModuleOp module, DiagnosticEngine &diag) {
  // Hooks observe one module at a time on this thread; without them,
  // function passes fan out over a pool of threads_ workers.
  std::unique_ptr<runtime::ThreadPool> pool;
  if (threads_ > 1 && !hasInstrumentation() &&
      !runtime::ThreadPool::insideParallel())
    pool = std::make_unique<runtime::ThreadPool>(threads_);
  runtime::TaskScheduler sched(pool.get());
  std::vector<BatchItem> items(1);
  items[0].module = module.op;
  items[0].diag = &diag;
  std::shared_ptr<BatchDag> dag = scheduleBatch(sched, std::move(items), {});
  sched.run();
  if (timing_)
    dag->foldTimingInto(*timing_);
  return dag->results()[0] != 0;
}

//===----------------------------------------------------------------------===//
// Dependency-DAG batch scheduling
//===----------------------------------------------------------------------===//

/// One module's scheduling state (owned by exactly one task at a time;
/// see the ownership note in the header).
struct BatchDag::Mod {
  ir::Op *module = nullptr;
  DiagnosticEngine *diag = nullptr;
  std::function<std::optional<ModuleOp>()> prepare;
  PassManager::CacheState st;
  /// Functions not yet advanced past the current pass step.
  std::vector<ir::Op *> remaining;
  size_t passIdx = 0;
  bool stepInited = false;
  /// Whether the current step already counted a notePassExecuted (a fan
  /// join re-enters the step; the counter must bump once).
  bool stepExecuted = false;
  /// Cache hits of the current step park their text instead of splicing
  /// it (verify-each is off and no hook inspects the pass).
  bool lazy = true;
  /// The current step fired its beforePass hooks; afterPass is owed.
  bool hooksOpen = false;
};

/// Join state of one fanned-out function-pass step: per-function run
/// tasks decrement `left`; the last finisher completes the step and
/// resumes the module chain.
struct BatchDag::Fan {
  FunctionPass *pass = nullptr;
  std::string spec;
  std::vector<FuncRun> items;
  std::vector<DiagnosticEngine> diags;
  std::vector<char> oks;
  std::atomic<size_t> left{0};
};

BatchDag::BatchDag(PassManager &pm, runtime::TaskScheduler &sched,
                   PassManager::BatchOptions opts)
    : pm_(pm), sched_(sched), opts_(std::move(opts)) {}

BatchDag::~BatchDag() = default;

template <typename Fn>
bool BatchDag::runClocked(size_t i, const Pass &pass, DiagnosticEngine &diag,
                          unsigned worker, Fn &&body) {
  // Siblings of a fan allocate into the same module arena concurrently,
  // so per-function arena deltas within one fan are approximate.
  const ir::IRArena &arena = mods_[i]->module->arena();
  uint64_t arenaStart = arena.bytesAllocated();
  auto t0 = std::chrono::steady_clock::now();
  bool ok = runPassContained(pass.name(), diag, std::forward<Fn>(body));
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  passSecondsHistogram().observe(secs);
  uint64_t arenaEnd = arena.bytesAllocated();
  if (pm_.timing_)
    samples_[worker].push_back({i, mods_[i]->passIdx, secs,
                                arenaEnd > arenaStart ? arenaEnd - arenaStart
                                                      : 0});
  return ok;
}

void BatchDag::foldTimingInto(PassTimingReport &report) const {
  // Stable presentation order — module, then pipeline position —
  // regardless of which workers ran what when.
  std::map<std::pair<size_t, size_t>, PassTimingReport::Record> rows;
  for (const auto &workerSamples : samples_) {
    for (const Sample &s : workerSamples) {
      auto [it, fresh] = rows.try_emplace({s.mod, s.pass});
      PassTimingReport::Record &r = it->second;
      if (fresh) {
        r.spec = pm_.passes_[s.pass]->spec();
        r.module = mods_[s.mod]->diag->moduleName();
      }
      r.seconds += s.seconds;
      r.arenaDeltaBytes += s.arenaDelta;
    }
  }
  // Append (never merge into existing rows): a pipeline running the same
  // spec at two positions keeps two rows.
  for (auto &row : rows)
    report.records.push_back(std::move(row.second));
}

void BatchDag::spawnAdvance(size_t i) {
  auto self = shared_from_this();
  sched_.spawn([self, i](unsigned worker) { self->advance(i, worker); });
}

void BatchDag::finish(size_t i, bool ok) {
  Mod &m = *mods_[i];
  if (ok && m.module) {
    if (!pm_.materializeAll(ModuleOp(m.module), m.st)) {
      m.diag->error(SourceLoc(), kRoundTripError);
      ok = false;
    }
  }
  ok_[i] = ok ? 1 : 0;
  if (opts_.onModuleDone)
    opts_.onModuleDone(i, ok);
}

void BatchDag::fail(size_t i) {
  Mod &m = *mods_[i];
  // A failed step still closes its hooks (afterPass runs even when the
  // pass failed); their verdict is secondary to the failure reported.
  if (m.hooksOpen)
    closeHooks(i, *pm_.passes_[m.passIdx]);
  // Leave the failed module's (partially transformed) IR materialized;
  // a round-trip failure here is secondary to the abort being reported.
  if (m.module)
    pm_.materializeAll(ModuleOp(m.module), m.st);
  finish(i, false);
}

bool BatchDag::cancelled(size_t i, Pass &pass) {
  if (i >= opts_.cancels.size() || !opts_.cancels[i])
    return false;
  std::string reason = opts_.cancels[i]->expiredReason();
  if (reason.empty())
    return false;
  mods_[i]->diag->error(SourceLoc(),
                        reason + " in pass '" + pass.name() + "'");
  fail(i);
  return true;
}

bool BatchDag::beginStep(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  m.stepInited = true;
  m.lazy = !pm_.verifyEach_ && !pm_.inspectsIR(pass);
  if (!pass.isFunctionPass()) {
    // A module pass may erase functions (inline), and a concurrent module
    // could recycle a freed Op address the moment it is released — so the
    // pre-run entries must be gone *before* the pass can free anything,
    // or the recycled address would false-hit a stale analysis (or worse,
    // invalidate a sibling's fresh entry afterwards). Conservative for
    // surviving functions. Hooks prime their own entries after this.
    for (ir::Op *func : collectFuncs(module))
      pm_.analysisManager_.invalidate(func);
  }
  // Before a pass some hook inspects (or verify-each checks), every
  // pending replay is spliced so the hooks and the pass see real IR.
  if (!m.lazy && !pm_.materializeAll(module, m.st)) {
    m.diag->error(SourceLoc(), kRoundTripError);
    fail(i);
    return false;
  }
  if (pm_.hasInstrumentation()) {
    for (auto &ins : pm_.instrumentations_)
      ins->beforePass(pass, module);
    m.hooksOpen = true;
  }
  if (pass.isFunctionPass())
    m.remaining = collectFuncs(module);
  return true;
}

bool BatchDag::closeHooks(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  m.hooksOpen = false;
  // Reverse order so instrumentations nest (first installed = outermost).
  bool ok = true;
  for (auto it = pm_.instrumentations_.rbegin();
       it != pm_.instrumentations_.rend(); ++it)
    ok = (*it)->afterPass(pass, ModuleOp(m.module), *m.diag) && ok;
  return ok;
}

bool BatchDag::endStep(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  // afterPass runs before the module pass's post-run invalidation, so the
  // preserved-analyses check still sees the pre-pass fingerprints.
  bool ok = !m.hooksOpen || closeHooks(i, pass);
  if (pm_.verifyEach_) {
    // verify-each turns lazy replay off, so the module is materialized.
    for (const std::string &e : ir::verify(m.module)) {
      m.diag->error(SourceLoc(),
                    "pass '" + pass.name() + "' broke invariant: " + e);
      ok = false;
    }
  }
  if (!pass.isFunctionPass())
    // Entries primed mid-run (by the pass or a hook) for functions the
    // pass mutated are stale; its *current* functions are ours alone, so
    // this touches no sibling state.
    for (ir::Op *func : collectFuncs(ModuleOp(m.module)))
      pm_.analysisManager_.invalidate(func);
  // Per-module arena cap: runaway IR growth becomes a clean per-job OOM
  // failure, not process death.
  uint64_t bytes = m.module->arena().bytesAllocated();
  if (ok && opts_.maxArenaBytes && bytes > opts_.maxArenaBytes) {
    m.diag->error(SourceLoc(),
                  "IR arena limit exceeded (" + std::to_string(bytes) +
                      " > " + std::to_string(opts_.maxArenaBytes) +
                      " bytes) after pass '" + pass.name() + "'");
    ok = false;
  }
  if (!ok)
    fail(i);
  return ok;
}

void BatchDag::startModule(size_t i, unsigned worker) {
  Mod &m = *mods_[i];
  {
    trace::TraceSpan span(spanName("start:", m.diag->moduleName()), "pm");
    if (m.prepare) {
      // The prepare hook crosses into frontend code on a scheduler
      // worker; contain anything it throws as this module's parse
      // failure (the session's own hook catches too — this covers
      // callers that schedule batches directly).
      std::optional<ModuleOp> parsed;
      try {
        parsed = m.prepare();
      } catch (const std::exception &e) {
        m.diag->error(SourceLoc(),
                      std::string("module preparation threw: ") + e.what());
      } catch (...) {
        m.diag->error(SourceLoc(),
                      "module preparation threw a non-standard exception");
      }
      if (!parsed) {
        finish(i, false);
        return;
      }
      m.module = parsed->op;
    }
    // Initial keying: one structural-hash walk per function, on whatever
    // worker this leaf landed on — with every module a separate leaf, the
    // walks fan across the pool instead of forming a serial prologue.
    if (pm_.cache_) {
      ModuleOp module(m.module);
      for (ir::Op *func : collectFuncs(module))
        m.st.irHash[func] = ir::hashOp(func);
    }
  }
  advance(i, worker);
}

void BatchDag::advance(size_t i, unsigned worker) {
  Mod &m = *mods_[i];
  while (true) {
    if (m.passIdx >= pm_.passes_.size()) {
      finish(i, true);
      return;
    }
    Pass &pass = *pm_.passes_[m.passIdx];
    // Cancellation/deadline poll before every step (and every resumption
    // of a yielded one): no cache claims are held here and the module is
    // quiescent.
    if (cancelled(i, pass))
      return;
    Step s;
    {
      trace::TraceSpan span(spanName("pass:", pass.name()), "pm");
      // Pass bodies are individually contained (runPassContained); this
      // outer catch covers the step machinery itself — cache probes,
      // materialization, hashing, hooks — so no exception ever unwinds
      // into the scheduler's worker loop. Claims held by an interrupted
      // scan may leak until end of batch (waiters then fail via the
      // session's sweep); the batch itself always survives.
      try {
        if (!m.stepInited && !beginStep(i, pass))
          return;
        s = pass.isFunctionPass()
                ? runFunctionPass(i, static_cast<FunctionPass &>(pass),
                                  worker)
                : runModulePass(i, pass, worker);
        if (s == Step::Advanced && !endStep(i, pass))
          s = Step::Failed;
      } catch (const std::exception &e) {
        m.diag->error(SourceLoc(), "pass step '" + pass.name() +
                                       "' threw: " + e.what());
        fail(i);
        return;
      } catch (...) {
        m.diag->error(SourceLoc(),
                      "pass step '" + pass.name() +
                          "' threw a non-standard exception");
        fail(i);
        return;
      }
      if (span.active()) {
        if (s == Step::Advanced)
          span.annotate("cache", m.stepExecuted ? "run" : "replay");
        else
          span.annotate("step", s == Step::Yielded ? "yielded" : "failed");
      }
    }
    if (s != Step::Advanced)
      return; // Yielded: a continuation owns the module now. Failed: done.
    ++m.passIdx;
    m.stepInited = false;
    m.stepExecuted = false;
  }
}

BatchDag::Step BatchDag::runModulePass(size_t i, Pass &pass,
                                       unsigned worker) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  DiagnosticEngine &diag = *m.diag;
  PassResultCache *cache = pm_.cache_;
  bool owned = false;
  Hash128 input;
  std::string spec;
  if (cache) {
    // Module granularity: key on the fold of the per-function hashes (the
    // module body holds only funcs). The "module:" spec prefix keeps the
    // key space disjoint from per-function entries.
    spec = "module:" + pass.spec();
    for (ir::Op *func : collectFuncs(module))
      input = combineHash(input, pm_.hashOf(func, m.st));
    auto self = shared_from_this();
    auto ar = cache->acquire(input, spec,
                             [self, i] { self->spawnAdvance(i); });
    if (ar.state == PassResultCache::AcquireState::Busy)
      return Step::Yielded;
    if (ar.state == PassResultCache::AcquireState::Hit) {
      // beginStep already dropped the replaced functions' analyses.
      if (pm_.spliceModule(module, *ar.entry, m.st)) {
        cache->notePassReplayed();
        return Step::Advanced;
      }
      // Unparseable entry: recompute without a claim (rare; the corrupt
      // key is simply overwritten by the store below).
    } else {
      owned = true;
    }
    if (!pm_.materializeAll(module, m.st)) {
      diag.error(SourceLoc(), kRoundTripError);
      if (owned)
        cache->finishCompute(input, spec);
      fail(i);
      return Step::Failed;
    }
    cache->notePassExecuted();
  }
  m.stepExecuted = true;
  size_t errorsBefore = diag.numErrors();
  bool okRun = runClocked(i, pass, diag, worker,
                          [&] { return pass.run(module, diag); });
  if (!okRun || diag.numErrors() > errorsBefore) {
    if (owned)
      cache->finishCompute(input, spec);
    fail(i);
    return Step::Failed;
  }
  if (cache) {
    m.st.irHash.clear();
    PassResultCache::Entry entry;
    Hash128 output;
    for (ir::Op *func : collectFuncs(module)) {
      Hash128 h = ir::hashOp(func);
      m.st.irHash[func] = h;
      entry.funcHashes.push_back(h);
      output = combineHash(output, h);
    }
    entry.ir = ir::printOp(module.op);
    // The chain key of a module entry is the same per-function fold the
    // next module pass derives its input from.
    entry.outputHash = output;
    cache->store(input, spec, std::move(entry));
    cache->finishCompute(input, spec);
  }
  return Step::Advanced;
}

BatchDag::Step BatchDag::runFunctionPass(size_t i, FunctionPass &pass,
                                         unsigned worker) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  PassResultCache *cache = pm_.cache_;
  const std::string spec = pass.spec();
  if (!cache) {
    // No cache: nothing to key, replay, or dedup — run every function.
    std::vector<FuncRun> toRun;
    for (ir::Op *func : m.remaining)
      toRun.push_back({func, Hash128(), false});
    return toRun.empty() ? Step::Advanced
                         : executeMisses(i, pass, spec, std::move(toRun),
                                         worker);
  }
  while (true) {
    // Scan: hits advance in place; first-claimant misses collect for
    // execution; keys in flight elsewhere stay in `remaining` for a
    // later rescan. Claims taken here are always released by the
    // executeMisses call below (or its fan join) before any wait, so
    // module A parking on a key module B owns can never cycle.
    std::vector<FuncRun> toRun;
    for (auto it = m.remaining.begin(); it != m.remaining.end();) {
      ir::Op *func = *it;
      Hash128 input = pm_.hashOf(func, m.st);
      auto ar = cache->acquire(input, spec, nullptr);
      if (ar.state == PassResultCache::AcquireState::Hit) {
        if (pm_.applyHit(module, func, std::move(*ar.entry), m.lazy, m.st)) {
          it = m.remaining.erase(it);
          continue;
        }
        // Unparseable entry: recompute without a claim (rare).
      } else if (ar.state == PassResultCache::AcquireState::Busy) {
        ++it;
        continue;
      }
      // Owned (or corrupt hit): the pass must run on this function's
      // real IR.
      ir::Op *live = pm_.materialize(module, func, m.st);
      if (!live) {
        m.diag->error(SourceLoc(), kRoundTripError);
        // Release every claim collected so far, not just this one — a
        // leaked claim would park other modules' waiters forever.
        if (ar.state == PassResultCache::AcquireState::Owned)
          cache->finishCompute(input, spec);
        for (const FuncRun &r : toRun)
          if (r.owned)
            cache->finishCompute(r.input, spec);
        fail(i);
        return Step::Failed;
      }
      *it = live;
      toRun.push_back(
          {live, input, ar.state == PassResultCache::AcquireState::Owned});
      ++it;
    }
    if (!toRun.empty()) {
      Step s = executeMisses(i, pass, spec, std::move(toRun), worker);
      if (s != Step::Advanced)
        return s;
      continue; // rescan: keys that were busy may have landed meanwhile
    }
    if (m.remaining.empty()) {
      if (!m.stepExecuted)
        cache->notePassReplayed();
      return Step::Advanced;
    }
    // Everything left is in flight in some other module: park one
    // continuation on the first such key and hand it the module's
    // ownership token. Re-acquiring with the callback is what makes the
    // registration atomic with the busy check.
    ir::Op *func = m.remaining.front();
    Hash128 input = pm_.hashOf(func, m.st);
    auto self = shared_from_this();
    auto ar =
        cache->acquire(input, spec, [self, i] { self->spawnAdvance(i); });
    if (ar.state == PassResultCache::AcquireState::Busy)
      return Step::Yielded;
    if (ar.state == PassResultCache::AcquireState::Hit) {
      if (pm_.applyHit(module, func, std::move(*ar.entry), m.lazy, m.st)) {
        m.remaining.erase(m.remaining.begin());
        continue;
      }
      // Corrupt entry: run it unclaimed.
      ir::Op *live = pm_.materialize(module, func, m.st);
      if (!live) {
        m.diag->error(SourceLoc(), kRoundTripError);
        fail(i);
        return Step::Failed;
      }
      m.remaining.front() = live;
      Step s = executeMisses(i, pass, spec, {{live, input, false}}, worker);
      if (s != Step::Advanced)
        return s;
      continue;
    }
    // Owned: the previous owner finished without storing (it failed);
    // run the function ourselves.
    ir::Op *live = pm_.materialize(module, func, m.st);
    if (!live) {
      m.diag->error(SourceLoc(), kRoundTripError);
      cache->finishCompute(input, spec);
      fail(i);
      return Step::Failed;
    }
    m.remaining.front() = live;
    Step s = executeMisses(i, pass, spec, {{live, input, true}}, worker);
    if (s != Step::Advanced)
      return s;
  }
}

bool BatchDag::runOne(size_t i, Fan &fan, size_t k, unsigned worker) {
  return runClocked(i, *fan.pass, fan.diags[k], worker, [&] {
    return fan.pass->runOnFunction(fan.items[k].func, fan.diags[k]);
  });
}

BatchDag::Step BatchDag::executeMisses(size_t i, FunctionPass &pass,
                                       const std::string &spec,
                                       std::vector<FuncRun> toRun,
                                       unsigned worker) {
  Mod &m = *mods_[i];
  PassResultCache *cache = pm_.cache_;
  if (!m.stepExecuted) {
    m.stepExecuted = true;
    if (cache)
      cache->notePassExecuted();
  }
  auto fan = std::make_shared<Fan>();
  fan->pass = &pass;
  fan->spec = spec;
  fan->items = std::move(toRun);
  fan->diags.resize(fan->items.size());
  fan->oks.assign(fan->items.size(), 0);
  for (DiagnosticEngine &d : fan->diags)
    d.setModuleName(m.diag->moduleName());
  if (fan->items.size() >= 2 && sched_.workers() > 1) {
    // Fan the functions out as their own (function, pass-index) tasks;
    // the last finisher completes the step and resumes the chain.
    fan->left.store(fan->items.size(), std::memory_order_relaxed);
    auto self = shared_from_this();
    for (size_t k = 0; k < fan->items.size(); ++k) {
      sched_.spawn([self, i, fan, k](unsigned w) {
        trace::TraceSpan span(spanName("fn:", fan->spec), "pm");
        if (span.active())
          span.annotate("mod", fan->diags[k].moduleName());
        fan->oks[k] = self->runOne(i, *fan, k, w) ? 1 : 0;
        if (fan->left.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          // Last finisher completes the step and resumes the chain
          // (rescanning the step, or moving on when it is drained).
          if (self->completeStep(i, *fan))
            self->advance(i, w);
        }
      });
    }
    return Step::Yielded;
  }
  // Inline: run on this worker, then complete the step directly.
  for (size_t k = 0; k < fan->items.size(); ++k)
    fan->oks[k] = runOne(i, *fan, k, worker) ? 1 : 0;
  return completeStep(i, *fan) ? Step::Advanced : Step::Failed;
}

bool BatchDag::completeStep(size_t i, Fan &fan) {
  Mod &m = *mods_[i];
  PassResultCache *cache = pm_.cache_;
  bool anyFailed = false;
  for (size_t k = 0; k < fan.items.size(); ++k) {
    m.diag->mergeFrom(fan.diags[k]);
    anyFailed |= !fan.oks[k] || fan.diags[k].hasErrors();
  }
  if (anyFailed) {
    // Release every claim unstored: parked waiters re-acquire, miss, and
    // run the work themselves (a failed module stores nothing for the
    // step).
    if (cache)
      for (const FuncRun &r : fan.items)
        if (r.owned)
          cache->finishCompute(r.input, fan.spec);
    fail(i);
    return false;
  }
  for (const FuncRun &r : fan.items) {
    if (cache) {
      // The entry payload is the printed text (replay splices text); the
      // chain key is the structural hash, matching what a fresh walk of
      // the spliced replay would produce.
      Hash128 outputHash = ir::hashOp(r.func);
      cache->store(r.input, fan.spec, ir::printOp(r.func), outputHash);
      m.st.irHash[r.func] = outputHash;
      if (r.owned)
        cache->finishCompute(r.input, fan.spec);
    }
    // Drop analyses the pass did not preserve — only where it actually
    // ran. Functions replayed from the cache are fresh Op instances (or
    // park pending text) with no cached analyses.
    pm_.analysisManager_.invalidate(r.func, fan.pass->preservedAnalyses());
    m.remaining.erase(
        std::find(m.remaining.begin(), m.remaining.end(), r.func));
  }
  return true;
}

std::shared_ptr<BatchDag>
PassManager::scheduleBatch(runtime::TaskScheduler &sched,
                           std::vector<BatchItem> items, BatchOptions opts) {
  // One beginRun per pass per batch, before any task runs: pass objects
  // are shared by every module in flight, and their per-run state is
  // already required to tolerate concurrent runOnFunction calls (a step
  // fans one pass across workers); dynamic preservation only accumulates
  // toward "changed more", i.e. stays conservative when modules
  // interleave.
  for (auto &pass : passes_) {
    pass->setStatisticsEnabled(collectStats_);
    pass->setAnalysisManager(&analysisManager_);
    pass->beginRun();
  }
  // Entries from a previous batch could false-hit through a recycled Op
  // address; only those primed for this batch's pre-parsed modules are
  // kept (modules still to be parsed have no functions yet).
  std::vector<ir::Op *> primed;
  for (const BatchItem &item : items)
    if (item.module)
      for (ir::Op *func : collectFuncs(ModuleOp(item.module)))
        primed.push_back(func);
  analysisManager_.retainOnly(primed);

  auto dag = std::shared_ptr<BatchDag>(
      new BatchDag(*this, sched, std::move(opts)));
  dag->mods_.reserve(items.size());
  for (BatchItem &item : items) {
    auto mod = std::make_unique<BatchDag::Mod>();
    mod->module = item.module;
    mod->diag = item.diag;
    mod->prepare = std::move(item.prepare);
    dag->mods_.push_back(std::move(mod));
  }
  // finish() records each module's outcome; a chain severed by an
  // exception the scheduler contained never gets there and reads as
  // failed.
  dag->ok_.assign(items.size(), 0);
  dag->samples_.resize(sched.workers());
  for (size_t i = 0; i < dag->mods_.size(); ++i)
    sched.spawn(
        [dag, i](unsigned worker) { dag->startModule(i, worker); });
  return dag;
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
