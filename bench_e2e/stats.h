// Sample statistics, JSON output and the hardware/build stamp shared by
// the end-to-end benchmark's workloads.
#pragma once

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace paralift::e2e {

/// Order statistics of one sample set. Percentiles interpolate linearly
/// between closest ranks (the "inclusive" method, as Python's
/// statistics.quantiles(method="inclusive") computes them).
class Stats {
public:
  void add(double x) {
    xs_.insert(std::upper_bound(xs_.begin(), xs_.end(), x), x);
  }
  size_t n() const { return xs_.size(); }

  /// p in [0, 100]; 0 for an empty set.
  double at(double p) const {
    if (xs_.empty())
      return 0.0;
    double rank = p / 100.0 * static_cast<double>(xs_.size() - 1);
    size_t lo = static_cast<size_t>(rank);
    size_t hi = std::min(lo + 1, xs_.size() - 1);
    return xs_[lo] + (rank - static_cast<double>(lo)) * (xs_[hi] - xs_[lo]);
  }
  double median() const { return at(50); }

  /// The highest of p75/p80/p90/p95 with at least ten samples beyond
  /// it, or 50 when there are too few samples for any of them. p99 is
  /// left out on purpose: on a shared machine it reads preemption, not
  /// the program.
  static int tailPercentile(size_t n) {
    for (int p : {95, 90, 80, 75})
      if (static_cast<double>(n) * (100 - p) / 100.0 >= 10.0)
        return p;
    return 50;
  }

private:
  std::vector<double> xs_;
};

inline double geomean(const std::vector<double> &xs) {
  if (xs.empty())
    return 0.0;
  double logSum = 0;
  for (double x : xs)
    logSum += std::log(x);
  return std::exp(logSum / static_cast<double>(xs.size()));
}

/// Shortest decimal that reads back as exactly `v` (all its digits, no
/// rounding); non-finite values become null.
inline std::string jsonNumber(double v) {
  if (!std::isfinite(v))
    return "null";
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

inline std::string jsonString(const std::string &s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

} // namespace paralift::e2e
