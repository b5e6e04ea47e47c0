// Checks the benchmark's summary rules (summary.h). Exits non-zero on the
// first failed expectation. Run: ctest --test-dir <build dir>.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "summary.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  if (!cond) {
    std::fprintf(stderr, "FAILED: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

std::vector<double> Range(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace fjbench;

  // Highest percentile with at least ten samples beyond it.
  Expect(HighestSupportedQuantile(19) == 0.0, "19 samples: no median");
  Expect(HighestSupportedQuantile(20) == 0.5, "20 samples: median");
  Expect(HighestSupportedQuantile(99) == 0.5, "99 samples: p90 has 9 beyond");
  Expect(HighestSupportedQuantile(100) == 0.9, "100 samples: p90");
  Expect(HighestSupportedQuantile(999) == 0.9, "999 samples: p99 has 9 beyond");
  Expect(HighestSupportedQuantile(1000) == 0.99, "1000 samples: p99");
  Expect(HighestSupportedQuantile(10000) == 0.999, "10000 samples: p99.9");
  Expect(SamplesBeyond(1000, 0.99) == 10, "ten beyond p99 of 1000");
  Expect(!SupportsQuantile(0, 0.5), "no samples support nothing");

  // Nearest-rank quantiles.
  Expect(Quantile(Range(100), 0.99) == 99.0, "p99 of 1..100");
  Expect(Quantile(Range(1000), 0.99) == 990.0, "p99 of 1..1000");
  Expect(Median(Range(5)) == 3.0, "median of 1..5");
  Expect(std::isnan(Quantile({}, 0.5)), "quantile of nothing is NaN");

  // Windowed quantiles: the median of per-window quantiles, over windows
  // that support the quantile.
  std::vector<std::vector<double>> windows(3, Range(1000));
  windows[1] = std::vector<double>(1000, 5000.0);  // one disturbed window
  Expect(WindowedQuantile(windows, 0.99) == 990.0, "disturbed window ignored");
  windows.push_back(Range(50));  // too small for p99, still counted
  Expect(WindowedQuantile(windows, 0.99) == 990.0, "small window skipped");
  windows.push_back(Range(50));
  windows.push_back(Range(50));
  windows.push_back(Range(50));
  Expect(std::isnan(WindowedQuantile(windows, 0.99)),
         "most windows too small");

  // Failure counting: failures lower the success share and count as
  // missing the latency limit.
  OpCounts ops;
  for (int i = 0; i < 98; ++i) ops.Add(true);
  ops.Add(false);
  ops.Add(false);
  Expect(ops.attempted == 100 && ops.failed == 2, "counts");
  Expect(Near(ops.OkFrac(), 0.98), "ok share");
  Expect(OpCounts{}.OkFrac() == 0.0, "nothing attempted");
  std::vector<double> lat(1000, 100.0);
  Expect(RungSustained(lat, 0.99, 200.0, 1000.0, 995.0), "fast rung holds");
  for (int i = 0; i < 11; ++i) lat[i] = kFailedLatency;
  Expect(!RungSustained(lat, 0.99, 200.0, 1000.0, 995.0),
         "eleven failures in 1000 break p99");
  lat[10] = 100.0;
  Expect(RungSustained(lat, 0.99, 200.0, 1000.0, 995.0),
         "ten failures in 1000 stay beyond p99");
  Expect(!RungSustained(std::vector<double>(1000, 100.0), 0.99, 200.0, 1000.0,
                        980.0),
         "achieved under 99% of offered");

  // Quartiles match Python's statistics.quantiles(values, n=4).
  Quartiles q = QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  Expect(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25),
         "quartiles of 1..10");
  q = QuartilesOf({10, 20});
  Expect(Near(q.q1, 7.5) && Near(q.median, 15.0) && Near(q.q3, 22.5),
         "quartiles of two values");
  Expect(Near(QuartilesOf({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}).RelSpread(),
              5.5 / 5.5),
         "relative spread");

  // CPU per operation at the reference speed: a window whose reference ran
  // twice as slow counts half; windows without operations or reference
  // timings are skipped; the median over windows is robust to one outlier.
  Expect(Near(NormalizedMicrosPerOp({0.1, 0.2, 0.1}, {1000, 1000, 1000},
                                    {400, 800, 400}, 400),
              100.0),
         "slow window scaled back");
  Expect(Near(NormalizedMicrosPerOp({0.1, 0.5, 0.1, 0.1}, {1000, 0, 1000, 1000},
                                    {400, 400, std::nan(""), 200}, 400),
              100.0),
         "windows without operations or reference skipped");
  Expect(Near(NormalizedMicrosPerOp({0.1, 0.1, 0.1}, {1000, 1000, 1000},
                                    {400, 400, 40}, 400),
              100.0),
         "outlier window ignored");
  Expect(std::isnan(NormalizedMicrosPerOp({0.1}, {0}, {400}, 400)),
         "no usable window");

  // Run-to-run agreement of an overhead: within the bar, or within the
  // spread, passes; beyond both fails.
  Expect(OverheadPasses(0.01, 0.005, 0.02), "under the bar");
  Expect(OverheadPasses(0.05, 0.06, 0.02), "within the spread");
  Expect(!OverheadPasses(0.05, 0.03, 0.02), "beyond bar and spread");
  Expect(OverheadPasses(-0.03, 0.0, 0.02), "negative overhead");

  if (failures == 0) std::printf("summary_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
