#include "harness.h"

#include "support/metrics.h"

#include <cmath>
#include <cstring>
#include <fstream>
#include <sys/resource.h>
#include <unistd.h>

namespace paralift::e2e {

// --- Timing ------------------------------------------------------------------

namespace {

/// Stolen share of the machine's CPU time above which a block is dropped.
constexpr double kMaxStealShare = 0.05;

double stealShare(double stolen, double seconds) {
  static const double cpus = static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN));
  return seconds > 0 ? stolen / (seconds * cpus) : 0.0;
}

} // namespace

double stolenSeconds() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  in >> cpu;
  for (uint64_t &f : fields)
    in >> f;
  static const double tick = 1.0 / static_cast<double>(sysconf(_SC_CLK_TCK));
  return in ? static_cast<double>(fields[7]) * tick : 0.0;
}

TimedLoop::TimedLoop(const RunConfig &cfg, size_t minRounds)
    : start_(now()), end_(start_ + cfg.seconds),
      dropUntil_(cfg.smoke ? start_ : start_ + 2 * cfg.seconds),
      cap_(start_ + std::max(3 * cfg.seconds, cfg.seconds + 30)),
      minRounds_(minRounds), blockStart_(start_),
      blockSteal_(stolenSeconds()), steal0_(blockSteal_) {}

bool TimedLoop::more() {
  double t = now();
  if (!pending_.empty() && (t - blockStart_ >= 1.0 || t >= end_))
    closeBlock(t);
  if (t >= cap_) {
    closeBlock(t);
    return false;
  }
  return t < end_ || committed_ < minRounds_;
}

void TimedLoop::add(std::function<void()> commit) {
  pending_.push_back(std::move(commit));
}

void TimedLoop::closeBlock(double t) {
  double steal = stolenSeconds();
  bool keep = stealShare(steal - blockSteal_, t - blockStart_) <=
                  kMaxStealShare ||
              t >= dropUntil_;
  if (keep) {
    for (auto &commit : pending_)
      commit();
    committed_ += pending_.size();
  } else {
    dropped_ += pending_.size();
  }
  pending_.clear();
  blockStart_ = t;
  blockSteal_ = steal;
}

double TimedLoop::stealPct() const {
  return 100.0 * stealShare(stolenSeconds() - steal0_, now() - start_);
}

double medianSetup(int reps, const std::function<double()> &fn) {
  Stats clean, all;
  for (int attempt = 0; attempt < 2 * reps && clean.n() < size_t(reps);
       ++attempt) {
    double steal = stolenSeconds(), t0 = now();
    double seconds = fn();
    all.add(seconds);
    if (stealShare(stolenSeconds() - steal, now() - t0) <= kMaxStealShare)
      clean.add(seconds);
  }
  return clean.n() ? clean.median() : all.median();
}

// --- LayerClock / LayerTally ------------------------------------------------

LayerClock::Span::Span(LayerClock *clock, Layer layer, std::string_view name)
    : clock_(clock), layer_(layer) {
  if (!clock_)
    return;
  parent_ = clock_->top_;
  clock_->top_ = this;
  trace_.emplace(name, "bench");
  start_ = now();
}

LayerClock::Span::~Span() {
  if (!clock_)
    return;
  double elapsed = now() - start_;
  trace_.reset();
  clock_->self_[static_cast<int>(layer_)] += elapsed - children_;
  clock_->top_ = parent_;
  if (parent_) {
    parent_->children_ += elapsed;
  } else {
    clock_->opSeconds_ += elapsed;
    ++clock_->ops_;
  }
}

LayerTally::Counters LayerTally::Counters::read() {
  auto &m = metrics::MetricsRegistry::instance();
  Counters c;
  c.tasks = m.counterValue("scheduler.tasks");
  c.steals = m.counterValue("scheduler.steals");
  c.parks = m.counterValue("scheduler.parks");
  c.idleWakeups = m.counterValue("scheduler.idle_wakeups");
  c.verifyFunctions = m.counterValue("vm.verify.functions");
  return c;
}

void LayerTally::addCounters(const Counters &before, const Counters &after) {
  counters_.tasks += after.tasks - before.tasks;
  counters_.steals += after.steals - before.steals;
  counters_.parks += after.parks - before.parks;
  counters_.idleWakeups += after.idleWakeups - before.idleWakeups;
  counters_.verifyFunctions += after.verifyFunctions - before.verifyFunctions;
}

void LayerTally::addCache(const transforms::PassResultCache::StatsSnapshot &s) {
  cache_.hits += s.hits;
  cache_.misses += s.misses;
  cache_.stores += s.stores;
  cache_.diskHits += s.diskHits;
  cache_.waits += s.waits;
  cache_.passesExecuted += s.passesExecuted;
  cache_.passesReplayed += s.passesReplayed;
}

void LayerTally::report(Report &r, double parallelSpeedup,
                        double traceOverheadPct) const {
  static const char *kNames[] = {"frontend", "pm",      "vm.lower",
                                 "vm.verify", "vm.exec", "native"};
  double wall = clock.opSeconds();
  for (int l = 0; l < static_cast<int>(Layer::Count); ++l)
    r.layer(std::string(kNames[l]) + ".pct",
            wall > 0 ? 100.0 * clock.selfSeconds(Layer(l)) / wall : 0.0, "%");
  double fe = clock.selfSeconds(Layer::Frontend);
  r.layer("frontend.mb_per_s", fe > 0 ? frontendBytes_ / 1e6 / fe : 0.0,
          "MB/s");

  double ops = std::max<size_t>(clock.ops(), 1);
  auto perOp = [&](const char *name, double total) {
    r.layer(name, total / ops, "count");
  };
  perOp("cache.hits", cache_.hits);
  perOp("cache.misses", cache_.misses);
  perOp("cache.stores", cache_.stores);
  perOp("cache.disk_hits", cache_.diskHits);
  perOp("cache.waits", cache_.waits);
  double lookups = double(cache_.hits) + double(cache_.misses);
  r.layer("cache.hit_ratio", lookups > 0 ? cache_.hits / lookups : 0.0,
          "ratio");
  perOp("pm.passes_executed", cache_.passesExecuted);
  perOp("pm.passes_replayed", cache_.passesReplayed);
  perOp("scheduler.tasks", counters_.tasks);
  perOp("scheduler.steals", counters_.steals);
  perOp("scheduler.parks", counters_.parks);
  perOp("scheduler.idle_wakeups", counters_.idleWakeups);
  perOp("vm.bytecode_instrs", instrs_);
  perOp("vm.verify_functions", counters_.verifyFunctions);
  r.layer("ir.arena_peak_mb",
          metrics::MetricsRegistry::instance().gaugePeak(
              "arena.reserved_bytes") /
              (1024.0 * 1024.0),
          "MB");
  r.layer("runtime.parallel_speedup", parallelSpeedup, "x");
  r.layer("trace.overhead_pct", traceOverheadPct, "%");
}

// --- Rodinia buffers --------------------------------------------------------

namespace {

struct BufferView {
  ir::TypeKind elem;
  unsigned char *data;
  size_t count;
};

std::vector<BufferView> buffers(const rodinia::Workload &w) {
  std::vector<BufferView> out;
  for (const auto &arg : w.args())
    if (auto *b = std::get_if<driver::Executor::Buffer>(&arg)) {
      size_t count = 1;
      for (int64_t d : b->dims)
        count *= static_cast<size_t>(d);
      out.push_back({b->elem, static_cast<unsigned char *>(b->data), count});
    }
  return out;
}

} // namespace

BufferImage snapshotBuffers(const rodinia::Workload &w) {
  BufferImage img;
  for (const BufferView &b : buffers(w))
    img.emplace_back(b.data, b.data + b.count * ir::byteWidth(b.elem));
  return img;
}

void restoreBuffers(const rodinia::Workload &w, const BufferImage &img) {
  std::vector<BufferView> bufs = buffers(w);
  for (size_t i = 0; i < bufs.size(); ++i)
    std::memcpy(bufs[i].data, img[i].data(), img[i].size());
}

std::string compareOutputs(const rodinia::Workload &w,
                           const BufferImage &ref) {
  std::vector<BufferView> bufs = buffers(w);
  if (bufs.size() != ref.size())
    return "buffer count differs from the oracle";
  for (size_t i = 0; i < bufs.size(); ++i) {
    const BufferView &b = bufs[i];
    if (b.count * ir::byteWidth(b.elem) != ref[i].size())
      return "buffer " + std::to_string(i) + " size differs from the oracle";
    for (size_t k = 0; k < b.count; ++k) {
      bool ok;
      if (b.elem == ir::TypeKind::F32) {
        float x, y;
        std::memcpy(&x, b.data + 4 * k, 4);
        std::memcpy(&y, ref[i].data() + 4 * k, 4);
        ok = std::fabs(x - y) <= 2e-3 + 2e-3 * std::fabs(y);
      } else if (b.elem == ir::TypeKind::F64) {
        double x, y;
        std::memcpy(&x, b.data + 8 * k, 8);
        std::memcpy(&y, ref[i].data() + 8 * k, 8);
        ok = std::fabs(x - y) <= 2e-3 + 2e-3 * std::fabs(y);
      } else {
        size_t width = ir::byteWidth(b.elem);
        ok = std::memcmp(b.data + width * k, ref[i].data() + width * k,
                         width) == 0;
      }
      if (!ok)
        return "buffer " + std::to_string(i) + " element " +
               std::to_string(k) + " differs from the SIMT oracle";
    }
  }
  return {};
}

bool outputsFinite(const rodinia::Workload &w) {
  for (const BufferView &b : buffers(w))
    for (size_t k = 0; k < b.count; ++k) {
      if (b.elem == ir::TypeKind::F32) {
        float x;
        std::memcpy(&x, b.data + 4 * k, 4);
        if (!std::isfinite(x))
          return false;
      } else if (b.elem == ir::TypeKind::F64) {
        double x;
        std::memcpy(&x, b.data + 8 * k, 8);
        if (!std::isfinite(x))
          return false;
      }
    }
  return true;
}

std::vector<BufferImage> simtOracle(const std::vector<int> &scales,
                                    unsigned threads) {
  driver::SessionOptions so = sessionOptions(threads);
  so.mode = driver::SessionMode::Simt;
  driver::CompilerSession session(so);
  const auto &suite = rodinia::suite();
  std::vector<driver::CompileJob *> jobs;
  for (const auto &b : suite)
    jobs.push_back(&session.addSource(b.id + "/simt", b.cudaSource));
  session.compileAll();
  std::vector<BufferImage> out;
  for (size_t i = 0; i < suite.size(); ++i) {
    if (!jobs[i]->ok())
      fatalError("SIMT oracle failed to compile " + suite[i].id + ":\n" +
                 jobs[i]->diagnostics().str());
    driver::Executor exec(jobs[i]->result().module.get(), threads);
    rodinia::Workload w = suite[i].makeWorkload(scales[i]);
    vm::CallResult r = exec.tryRun("run", w.args());
    if (!r.ok())
      fatalError("SIMT oracle trapped on " + suite[i].id + ": " + r.error);
    out.push_back(snapshotBuffers(w));
  }
  return out;
}

// --- Sessions ---------------------------------------------------------------

driver::SessionOptions sessionOptions(unsigned threads) {
  driver::SessionOptions so;
  so.threads = threads;
  so.useEnvCache = false;
  return so;
}

std::vector<size_t> shuffled(size_t n, std::mt19937_64 &rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i)
    order[i] = i;
  for (size_t i = n; i > 1; --i)
    std::swap(order[i - 1], order[rng() % i]);
  return order;
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0; // ru_maxrss is in KB on Linux
}

} // namespace paralift::e2e
