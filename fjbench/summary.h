// Summary rules of the repository benchmark, kept apart from the workload
// drivers so summary_test.cpp can pin them:
//
//  * a latency distribution is reported as its median and the highest
//    percentile that has at least ten samples beyond it;
//  * a failed operation counts against the success share and as missing
//    every latency limit (its latency is +infinity);
//  * an overhead is PASS when it stays within its bar or cannot be told
//    apart from the measured run-to-run spread, FAIL otherwise;
//  * CPU time per operation is scaled, window by window, by the speed of a
//    fixed reference work measured on the same CPU in the same window.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace fjbench {

/// Latency recorded for an operation that failed: it misses every limit.
inline constexpr double kFailedLatency =
    std::numeric_limits<double>::infinity();

/// 1-based nearest rank of quantile `q` among `n` samples.
inline size_t NearestRank(size_t n, double q) {
  // The epsilon keeps q*n that should be an integer (0.99 * 1000) from
  // rounding up to the next rank.
  double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(rank, 1.0)), 1, n);
}

/// Nearest-rank quantile (q in [0, 1]); NaN without samples.
inline double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  size_t idx = NearestRank(samples.size(), q) - 1;
  std::nth_element(samples.begin(), samples.begin() + idx, samples.end());
  return samples[idx];
}

inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Samples strictly beyond the nearest-rank `q` quantile of `n` samples.
inline size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

/// True when `n` samples support reporting quantile `q`: at least ten
/// samples lie beyond it.
inline bool SupportsQuantile(size_t n, double q) {
  return SamplesBeyond(n, q) >= 10;
}

/// The highest of p50, p90, p99, p99.9 and p99.99 that `n` samples
/// support; 0 when not even the median has ten samples beyond it.
inline double HighestSupportedQuantile(size_t n) {
  double best = 0.0;
  for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
    if (SupportsQuantile(n, q)) best = q;
  }
  return best;
}

/// Median over windows of each window's `q` quantile, skipping windows too
/// small to support it; NaN when fewer than half the windows support it.
/// Robust to a few windows disturbed by something outside the run.
inline double WindowedQuantile(const std::vector<std::vector<double>>& windows,
                               double q) {
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (SupportsQuantile(w.size(), q)) per_window.push_back(Quantile(w, q));
  }
  if (per_window.empty() || 2 * per_window.size() < windows.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return Median(per_window);
}

/// Attempted and failed operations of one phase.
struct OpCounts {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  void Add(const OpCounts& other) {
    attempted += other.attempted;
    failed += other.failed;
  }
  /// Share of attempted operations that succeeded (0 when none ran).
  double OkFrac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(attempted - failed) /
                                static_cast<double>(attempted);
  }
};

/// One rung of an open-loop rate ladder is sustained when the `q` quantile
/// of its read latencies (failures recorded as kFailedLatency) stays within
/// `limit` and the achieved rate is at least 99% of the offered rate.
inline bool RungSustained(const std::vector<double>& latencies, double q,
                          double limit, double offered, double achieved) {
  if (latencies.empty() || offered <= 0.0) return false;
  return Quantile(latencies, q) <= limit && achieved >= 0.99 * offered;
}

/// First quartile, median and third quartile, interpolated like Python's
/// statistics.quantiles(values, n=4) (its default "exclusive" method).
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// Interquartile distance as a share of the median.
  double RelSpread() const {
    return median == 0.0 ? std::numeric_limits<double>::infinity()
                         : (q3 - q1) / std::abs(median);
  }
};

/// Needs at least two values; returns all zeros otherwise.
inline Quartiles QuartilesOf(std::vector<double> values) {
  Quartiles out;
  size_t ld = values.size();
  if (ld < 2) return out;
  std::sort(values.begin(), values.end());
  auto cut = [&](size_t i) {
    const size_t n = 4;
    size_t m = ld + 1;
    size_t j = std::clamp<size_t>(i * m / n, 1, ld - 1);
    double delta = static_cast<double>(i * m) - static_cast<double>(j * n);
    return (values[j - 1] * (static_cast<double>(n) - delta) +
            values[j] * delta) /
           static_cast<double>(n);
  };
  out.q1 = cut(1);
  out.median = cut(2);
  out.q3 = cut(3);
  return out;
}

/// CPU microseconds per operation at the reference speed: in each window,
/// CPU seconds over operations, times `quiet_us` over the reference work's
/// CPU time measured in that window; the median over windows that completed
/// operations and timed the reference. NaN when no window did.
inline double NormalizedMicrosPerOp(const std::vector<double>& cpu_s,
                                    const std::vector<double>& ops,
                                    const std::vector<double>& ref_us,
                                    double quiet_us) {
  std::vector<double> per_window;
  for (size_t w = 0; w < cpu_s.size() && w < ops.size() && w < ref_us.size();
       ++w) {
    if (ops[w] > 0.0 && ref_us[w] > 0.0) {
      per_window.push_back(cpu_s[w] * 1e6 / ops[w] * quiet_us / ref_us[w]);
    }
  }
  return Median(per_window);
}

/// Verdict on a measured overhead (a share of the untraced figure): PASS
/// while it is within `bar`, or within `spread` — the untraced run's own
/// interquartile spread — because then it cannot be resolved from noise.
inline bool OverheadPasses(double overhead, double spread, double bar) {
  return overhead <= std::max(bar, spread);
}

}  // namespace fjbench
