// Process-wide metrics registry: named counters, gauges, and fixed-bucket
// latency histograms shared by every layer of the compiler (scheduler,
// pass manager, pass-result cache, sessions, IR arenas). One snapshot —
// text for humans, JSON for CI/bench harnesses — shows the whole system.
//
// Handles returned by counter()/gauge()/histogram() have stable addresses
// for the life of the process, so hot paths resolve a metric once (e.g. in
// a constructor or a function-local static) and then bump a pointer with a
// single relaxed atomic op. Registration takes a mutex; updates never do.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace paralift::metrics {

/// Monotonic event count (cache hits, steals, jobs completed, ...).
class Counter {
public:
  void add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
  std::atomic<uint64_t> value_{0};
};

/// Instantaneous level (bytes reserved, jobs in flight, ...) that also
/// remembers its high-water mark, so "peak arena bytes" style figures
/// survive until the end-of-run snapshot.
class Gauge {
public:
  void set(int64_t v) {
    value_.store(v, std::memory_order_relaxed);
    raisePeak(v);
  }
  void add(int64_t delta) {
    int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    raisePeak(now);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

private:
  void raisePeak(int64_t now) {
    int64_t p = peak_.load(std::memory_order_relaxed);
    while (now > p &&
           !peak_.compare_exchange_weak(p, now, std::memory_order_relaxed))
      ;
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> peak_{0};
};

/// Latency histogram over fixed log2 buckets. Bucket i counts samples in
/// (upper(i-1), upper(i)] where upper(i) = 2^(i - kMicroShift) seconds;
/// the range spans ~1us .. ~9 hours, which covers a parse span and a
/// whole-suite batch alike. observe() is three relaxed atomic adds.
class Histogram {
public:
  static constexpr int kBuckets = 45;
  static constexpr int kMicroShift = 20; // bucket 0 tops out at 2^-20 s

  void observe(double seconds);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const {
    return static_cast<double>(sumNanos_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  uint64_t bucketCount(int i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Inclusive upper bound of bucket i, in seconds.
  static double bucketUpper(int i);
  /// Quantile estimate (q in [0,1]) from the bucket upper bounds; returns
  /// 0 when empty. An upper-bound estimate, good to one bucket width.
  double quantile(double q) const;

private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sumNanos_{0};
};

/// The process-wide registry. Names are dotted paths by convention:
/// "cache.hits", "scheduler.tasks", "session.job_latency_s",
/// "arena.reserved_bytes", "pass.cse.num-erased".
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  Counter &counter(const std::string &name);
  Gauge &gauge(const std::string &name);
  Histogram &histogram(const std::string &name);

  /// Read-by-name accessors for harnesses (bench_compile JSON, tests).
  /// Missing names read as zero rather than registering anything.
  uint64_t counterValue(const std::string &name) const;
  int64_t gaugeValue(const std::string &name) const;
  int64_t gaugePeak(const std::string &name) const;

  /// Human-readable dump, one metric per line, sorted by name.
  std::string textSnapshot() const;
  /// Flat JSON object: counters as "name": N, gauges as "name" and
  /// "name.peak", histograms as "name.count/.sum_s/.p50_s/.p95_s".
  std::string jsonSnapshot() const;

private:
  MetricsRegistry() = default;

  mutable std::mutex mutex_;
  // unique_ptr nodes give out stable addresses while the maps grow.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

} // namespace paralift::metrics
