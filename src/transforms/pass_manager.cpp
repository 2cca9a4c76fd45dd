#include "transforms/pass_manager.h"

#include "ir/hasher.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/verifier.h"
#include "support/failpoint.h"
#include "support/trace.h"

#include <algorithm>
#include <chrono>
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
  // The old op is gone; the hash chain continues under the replacement's
  // identity.
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
  std::vector<BatchItem> items(1);
  items[0].module = module.op;
  items[0].diag = &diag;
  std::unique_ptr<BatchDag> batch = makeBatch(std::move(items), {});
  batch->compileModule(0);
  if (timing_)
    batch->foldTimingInto(*timing_);
  return batch->results()[0] != 0;
}

//===----------------------------------------------------------------------===//
// Batch execution
//===----------------------------------------------------------------------===//

struct BatchDag::Mod {
  ir::Op *module = nullptr;
  DiagnosticEngine *diag = nullptr;
  std::function<std::optional<ModuleOp>()> prepare;
  PassManager::CacheState st;
  size_t passIdx = 0;
  /// The current step ran transform code, rather than replaying every
  /// result from the cache.
  bool stepExecuted = false;
  /// Cache hits of the current step park their text instead of splicing
  /// it (verify-each is off and no hook inspects the pass).
  bool lazy = true;
  /// The current step fired its beforePass hooks; afterPass is owed.
  bool hooksOpen = false;
  /// One per clocked pass body, in execution order (timing enabled).
  struct Sample {
    size_t pass;
    double seconds;
    uint64_t arenaDelta;
  };
  std::vector<Sample> samples;
};

BatchDag::BatchDag(PassManager &pm, PassManager::BatchOptions opts)
    : pm_(pm), opts_(std::move(opts)) {}

BatchDag::~BatchDag() = default;

template <typename Fn>
bool BatchDag::runClocked(size_t i, const Pass &pass, Fn &&body) {
  Mod &m = *mods_[i];
  // Only the module's own task allocates in its arena, so the delta is
  // exactly what this body materialized.
  const ir::IRArena &arena = m.module->arena();
  uint64_t arenaStart = arena.bytesAllocated();
  auto t0 = std::chrono::steady_clock::now();
  bool ok = runPassContained(pass.name(), *m.diag, std::forward<Fn>(body));
  double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  passSecondsHistogram().observe(secs);
  if (pm_.timing_)
    m.samples.push_back(
        {m.passIdx, secs, arena.bytesAllocated() - arenaStart});
  return ok;
}

void BatchDag::foldTimingInto(PassTimingReport &report) const {
  // Append (never merge into existing rows): a pipeline running the same
  // spec at two positions keeps two rows. A function pass clocks each
  // function it runs; one step's samples are adjacent and fold into one
  // row.
  for (const auto &m : mods_) {
    size_t rowPass = SIZE_MAX;
    for (const Mod::Sample &s : m->samples) {
      if (s.pass != rowPass) {
        rowPass = s.pass;
        report.records.push_back(
            {pm_.passes_[s.pass]->spec(), 0, 0, m->diag->moduleName()});
      }
      report.records.back().seconds += s.seconds;
      report.records.back().arenaDeltaBytes += s.arenaDelta;
    }
  }
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
  m.stepExecuted = false;
  m.lazy = !pm_.verifyEach_ && !pm_.inspectsIR(pass);
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
  bool ok = !m.hooksOpen || closeHooks(i, pass);
  if (pm_.verifyEach_) {
    // verify-each turns lazy replay off, so the module is materialized.
    for (const std::string &e : ir::verify(m.module)) {
      m.diag->error(SourceLoc(),
                    "pass '" + pass.name() + "' broke invariant: " + e);
      ok = false;
    }
  }
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

void BatchDag::compileModule(size_t i) {
  Mod &m = *mods_[i];
  {
    trace::TraceSpan span(spanName("start:", m.diag->moduleName()), "pm");
    if (m.prepare) {
      // The prepare hook crosses into frontend code; contain anything it
      // throws as this module's parse failure (the session's own hook
      // catches too — this covers callers that build batches directly).
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
    // Initial keying: one structural-hash walk per function.
    if (pm_.cache_) {
      ModuleOp module(m.module);
      for (ir::Op *func : collectFuncs(module))
        m.st.irHash[func] = ir::hashOp(func);
    }
  }
  for (; m.passIdx < pm_.passes_.size(); ++m.passIdx) {
    Pass &pass = *pm_.passes_[m.passIdx];
    // Cancellation/deadline poll before every step.
    if (cancelled(i, pass))
      return;
    trace::TraceSpan span(spanName("pass:", pass.name()), "pm");
    bool ok;
    // Pass bodies are individually contained (runPassContained); this
    // outer catch covers the step machinery itself — cache probes,
    // materialization, hashing, hooks — so a throw fails this module
    // alone, with a diagnostic naming the step.
    try {
      ok = beginStep(i, pass) &&
           (pass.isFunctionPass()
                ? runFunctionPass(i, static_cast<FunctionPass &>(pass))
                : runModulePass(i, pass)) &&
           endStep(i, pass);
    } catch (const std::exception &e) {
      m.diag->error(SourceLoc(), "pass step '" + pass.name() +
                                     "' threw: " + e.what());
      fail(i);
      return;
    } catch (...) {
      m.diag->error(SourceLoc(), "pass step '" + pass.name() +
                                     "' threw a non-standard exception");
      fail(i);
      return;
    }
    if (span.active()) {
      if (ok)
        span.annotate("cache", m.stepExecuted ? "run" : "replay");
      else
        span.annotate("step", "failed");
    }
    if (!ok)
      return;
  }
  finish(i, true);
}

bool BatchDag::runModulePass(size_t i, Pass &pass) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  DiagnosticEngine &diag = *m.diag;
  PassResultCache *cache = pm_.cache_;
  Hash128 input;
  std::string spec;
  if (cache) {
    // Module granularity: key on the fold of the per-function hashes (the
    // module body holds only funcs). The "module:" spec prefix keeps the
    // key space disjoint from per-function entries.
    spec = "module:" + pass.spec();
    for (ir::Op *func : collectFuncs(module))
      input = combineHash(input, pm_.hashOf(func, m.st));
    if (auto hit = cache->lookup(input, spec)) {
      if (pm_.spliceModule(module, *hit, m.st)) {
        cache->notePassReplayed();
        return true;
      }
      // Unparseable entry (rare): recompute; the store below overwrites
      // the corrupt key.
    }
    if (!pm_.materializeAll(module, m.st)) {
      diag.error(SourceLoc(), kRoundTripError);
      fail(i);
      return false;
    }
    cache->notePassExecuted();
  }
  m.stepExecuted = true;
  size_t errorsBefore = diag.numErrors();
  bool okRun = runClocked(i, pass, [&] { return pass.run(module, diag); });
  if (!okRun || diag.numErrors() > errorsBefore) {
    fail(i);
    return false;
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
  }
  return true;
}

bool BatchDag::runFunctionPass(size_t i, FunctionPass &pass) {
  Mod &m = *mods_[i];
  ModuleOp module(m.module);
  DiagnosticEngine &diag = *m.diag;
  PassResultCache *cache = pm_.cache_;
  const std::string spec = cache ? pass.spec() : std::string();
  // One function after another: a hit advances the hash chain in place
  // (parked or spliced); a miss runs the pass on the function's real IR.
  // Every miss runs even after one fails, so each reports its
  // diagnostics, in function order.
  std::vector<std::pair<ir::Op *, Hash128>> ran;
  bool ok = true;
  for (ir::Op *func : collectFuncs(module)) {
    Hash128 input;
    if (cache) {
      input = pm_.hashOf(func, m.st);
      std::optional<PassResultCache::Entry> hit = cache->lookup(input, spec);
      if (hit && pm_.applyHit(module, func, std::move(*hit), m.lazy, m.st))
        continue;
      // A miss, or an entry that fails to splice (rare).
      func = pm_.materialize(module, func, m.st);
      if (!func) {
        diag.error(SourceLoc(), kRoundTripError);
        fail(i);
        return false;
      }
      if (!m.stepExecuted)
        cache->notePassExecuted();
    }
    m.stepExecuted = true;
    size_t errorsBefore = diag.numErrors();
    ok = runClocked(i, pass,
                    [&] { return pass.runOnFunction(func, diag); }) &&
         diag.numErrors() == errorsBefore && ok;
    ran.emplace_back(func, input);
  }
  if (!ok) {
    fail(i); // a failed step stores nothing
    return false;
  }
  if (!cache)
    return true;
  for (const auto &[func, input] : ran) {
    // The entry payload is the printed text (replay splices text); the
    // chain key is the structural hash, matching what a fresh walk of
    // the spliced replay would produce.
    Hash128 outputHash = ir::hashOp(func);
    cache->store(input, spec, ir::printOp(func), outputHash);
    m.st.irHash[func] = outputHash;
  }
  if (!m.stepExecuted)
    cache->notePassReplayed();
  return true;
}

std::unique_ptr<BatchDag> PassManager::makeBatch(std::vector<BatchItem> items,
                                                BatchOptions opts) {
  // Set before any task runs: pass objects are shared by every module in
  // flight.
  for (auto &pass : passes_)
    pass->setStatisticsEnabled(collectStats_);
  std::unique_ptr<BatchDag> batch(new BatchDag(*this, std::move(opts)));
  batch->mods_.reserve(items.size());
  for (BatchItem &item : items) {
    auto mod = std::make_unique<BatchDag::Mod>();
    mod->module = item.module;
    mod->diag = item.diag;
    mod->prepare = std::move(item.prepare);
    batch->mods_.push_back(std::move(mod));
  }
  // finish() records each module's outcome; a task that exits by
  // exception never gets there and reads as failed.
  batch->ok_.assign(items.size(), 0);
  return batch;
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
