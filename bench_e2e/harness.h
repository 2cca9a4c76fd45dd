// Shared pieces of the end-to-end benchmark: run settings, the timed
// loop, the per-run report, bench-side layer spans for traced runs, and
// helpers for Rodinia buffers, the SIMT oracle and sessions.
#pragma once

#include "stats.h"

#include "driver/compiler.h"
#include "rodinia/rodinia.h"
#include "support/trace.h"
#include "transforms/pass_cache.h"

#include <chrono>
#include <filesystem>
#include <functional>
#include <optional>
#include <random>
#include <string>
#include <string_view>
#include <vector>

namespace paralift::e2e {

inline double now() {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

/// Settings of one workload run.
struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10;
  /// Per-layer run: bench spans, a Chrome trace, counter deltas.
  bool traced = false;
  /// --smoke: one set-up and a couple of samples, every check kept.
  bool smoke = false;
  /// T: workers of every session, executor team and model pool.
  unsigned threads = 4;
  /// Scratch space inside the build directory (cache dirs, traces).
  std::filesystem::path workDir;

  int setupReps(int full) const { return smoke ? 1 : full; }
  size_t minSamples(size_t full) const { return smoke ? 2 : full; }
};

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs were runnable ("steal", summed over CPUs), in seconds since boot;
/// 0 where the kernel does not report it.
double stolenSeconds();

/// Runs a workload's timed loop and decides which rounds count. The loop
/// runs until the time budget is spent and it has the rounds its tail
/// percentile needs, never past a hard cap of max(3 x budget, budget +
/// 30 s). Rounds are committed a block (about a second) at a time: a
/// block during which the hypervisor stole more than 5% of the machine's
/// CPU time is dropped, as long as the loop is inside twice its budget
/// (never in a smoke run). On a shared host such bursts slow every
/// workload together, by up to 4x for minutes, and say nothing about the
/// program.
class TimedLoop {
public:
  TimedLoop(const RunConfig &cfg, size_t minRounds);

  /// Whether to run another round; first commits or drops the current
  /// block when it is due.
  bool more();
  /// Stages a finished round: `commit` records its samples if its block
  /// is kept.
  void add(std::function<void()> commit);

  size_t rounds() const { return committed_; }
  size_t dropped() const { return dropped_; }
  /// Stolen share of the machine's CPU time over the whole loop, in %.
  double stealPct() const;

private:
  void closeBlock(double t);

  double start_, end_, dropUntil_, cap_;
  size_t minRounds_;
  double blockStart_, blockSteal_, steal0_;
  std::vector<std::function<void()>> pending_;
  size_t committed_ = 0, dropped_ = 0;
};

/// Median of `reps` set-up times that `fn` measures and returns. A
/// set-up the hypervisor disturbed (as TimedLoop judges a block) is run
/// again, at most `reps` extra times.
double medianSetup(int reps, const std::function<double()> &fn);

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// What one workload run reports: operation counts, failures, and the
/// end-to-end, per-layer and workload-specific metrics.
class Report {
public:
  /// Counts one attempted operation; `ok == false` counts it failed and
  /// keeps the first few reasons for stderr.
  void record(bool ok, const std::string &why = {}) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (errors.size() < 8)
        errors.push_back(why);
    }
  }
  void endToEnd(std::string name, double v, std::string unit) {
    e2e.push_back({std::move(name), v, std::move(unit)});
  }
  void layer(std::string name, double v, std::string unit) {
    layers.push_back({std::move(name), v, std::move(unit)});
  }
  /// Workload-specific lines (per-benchmark times, ablation, set-up
  /// split): printed and written to --json, not listed in BENCHMARK.json.
  void detail(std::string name, double v, std::string unit) {
    details.push_back({std::move(name), v, std::move(unit)});
  }

  uint64_t attempted = 0, failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> e2e, layers, details;
};

// --- Traced runs ------------------------------------------------------------

/// The layers a traced operation's wall time is split into. Native is
/// the operation's own remainder: session set-up and teardown in the
/// compile workloads, the native moccuda kernels in resnet-train.
enum class Layer { Frontend, Pm, VmLower, VmVerify, VmExec, Native, Count };

/// Self-time accounting from spans the benchmark opens around its calls
/// into each layer (main thread only). A span charges its duration minus
/// its children's to its layer and records a trace::TraceSpan for the
/// Chrome trace; a root span is one operation. A null clock makes every
/// span inert, so untraced code paths share the same calls.
class LayerClock {
public:
  class Span {
  public:
    Span(LayerClock *clock, Layer layer, std::string_view name);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    LayerClock *clock_;
    Layer layer_;
    Span *parent_ = nullptr;
    double start_ = 0;
    double children_ = 0;
    std::optional<trace::TraceSpan> trace_;
  };

  double selfSeconds(Layer l) const { return self_[static_cast<int>(l)]; }
  /// Moves self time measured apart from the operation (work no span
  /// inside it can reach) from one layer to another.
  void reassign(Layer from, Layer to, double seconds) {
    self_[static_cast<int>(from)] -= seconds;
    self_[static_cast<int>(to)] += seconds;
  }
  double opSeconds() const { return opSeconds_; }
  size_t ops() const { return ops_; }

private:
  Span *top_ = nullptr;
  double self_[static_cast<int>(Layer::Count)] = {};
  double opSeconds_ = 0;
  size_t ops_ = 0;
};

/// Per-layer totals of a traced run: the layer clock plus per-operation
/// counts read from the pass cache and the metrics registry.
class LayerTally {
public:
  LayerClock clock;

  /// Process-wide counters, read before and after each traced operation.
  struct Counters {
    uint64_t tasks = 0, steals = 0, parks = 0, idleWakeups = 0,
             verifyFunctions = 0;
    static Counters read();
  };
  void addCounters(const Counters &before, const Counters &after);
  void addCache(const transforms::PassResultCache::StatsSnapshot &s);
  void addBytecode(size_t instrs) { instrs_ += instrs; }
  void addFrontendBytes(size_t bytes) { frontendBytes_ += bytes; }

  /// Writes every per-layer metric, in the order BENCHMARK.json lists
  /// them; layers the workload's operation never enters read 0.
  void report(Report &r, double parallelSpeedup,
              double traceOverheadPct) const;

private:
  Counters counters_;
  transforms::PassResultCache::StatsSnapshot cache_;
  double instrs_ = 0;
  double frontendBytes_ = 0;
};

// --- Rodinia buffers and the SIMT oracle ------------------------------------

/// Byte copy of every buffer argument of a workload, in argument order.
using BufferImage = std::vector<std::vector<unsigned char>>;

BufferImage snapshotBuffers(const rodinia::Workload &w);
void restoreBuffers(const rodinia::Workload &w, const BufferImage &img);
/// Empty when `w`'s buffers match `ref` within test_rodinia's tolerance
/// (|a - b| <= 2e-3 + 2e-3 |ref| for floats, exact for integers);
/// otherwise the first mismatch.
std::string compareOutputs(const rodinia::Workload &w, const BufferImage &ref);
bool outputsFinite(const rodinia::Workload &w);

/// Runs every suite benchmark's CUDA source on the lockstep SIMT
/// emulator at `scales[i]` and returns its outputs: the reference every
/// transpiled result is checked against.
std::vector<BufferImage> simtOracle(const std::vector<int> &scales,
                                    unsigned threads);

// --- Sessions ---------------------------------------------------------------

/// A named pipeline configuration.
struct PipelineVariant {
  const char *name;
  transforms::PipelineOptions opts;
};

/// Session options every benchmark session starts from: T workers and no
/// cache from the environment.
driver::SessionOptions sessionOptions(unsigned threads);

/// Fisher-Yates permutation of 0..n-1 drawn from `rng`.
std::vector<size_t> shuffled(size_t n, std::mt19937_64 &rng);

/// Peak resident set size of the process so far, in MB.
double peakRssMb();

} // namespace paralift::e2e
