// Shared pieces of the benchmark driver: arguments, the metric report, the
// outside-in timing wrapper around the estimator, the closed-loop driver and
// the stage-histogram helpers. See README.md for what is measured and why.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <pthread.h>
#include <sched.h>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "factorjoin/estimator.h"
#include "obs/latency_histogram.h"
#include "obs/request_trace.h"
#include "service/service_stats.h"
#include "summary.h"

namespace fjbench {

using SteadyClock = std::chrono::steady_clock;

inline double Seconds(SteadyClock::time_point a, SteadyClock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// CPU seconds used by every thread of this process so far.
inline double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Confines the calling thread, and every thread it creates from then on,
/// to one CPU: the last one the process may run on. Returns the CPU, or -1
/// when the affinity cannot be read or set. Requests here hand off between
/// threads (session, server reader, worker, client reader); across CPUs
/// each hand-off wakes an idle vCPU and moves the request's data between
/// cores, and where the guest scheduler wakes a thread follows the host's
/// load and other work in the machine: busy neighbouring CPUs cut CPU time
/// per plan by up to 27% in runs of one build.
/// On one CPU every hand-off is a same-core switch.
inline int PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

inline uint64_t Nanos(SteadyClock::time_point a, SteadyClock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

inline Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::stoull(value);
    } else if (key == "--seconds") {
      args.seconds = std::stod(value);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) {
    throw std::invalid_argument(
        "usage: fjbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1>");
  }
  return args;
}

/// Named metrics of one run. Every metric is printed as a human-readable
/// line with its sample count when added; the JSON result line carries the
/// metrics added with `in_json`.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples, bool in_json, const std::string& note = "") {
    if (in_json) metrics_.push_back({name, value, unit});
    std::printf("  %-36s %14.6g %-6s n=%zu%s%s\n", name.c_str(), value,
                unit.c_str(), samples, note.empty() ? "" : "  ",
                note.c_str());
  }

  /// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
  void PrintJson(bool correct, const OpCounts& ops) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(ops.attempted),
                static_cast<unsigned long long>(ops.failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      double v = std::isfinite(m.value) ? m.value : -1.0;
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Prints a distribution's p50, p90 and p99 where the sample supports them,
/// and its highest supported percentile (at least ten samples beyond it),
/// with the sample count.
inline void PrintDistribution(const char* what,
                              const std::vector<double>& samples,
                              const char* unit) {
  double top = HighestSupportedQuantile(samples.size());
  std::printf("  %s (n=%zu):", what, samples.size());
  if (top == 0.0) std::printf(" too few samples for a median");
  for (double q : {0.5, 0.9, 0.99}) {
    if (q <= top) {
      std::printf(" p%g %.6g %s", q * 100.0, Quantile(samples, q), unit);
    }
  }
  if (top > 0.99) {
    std::printf(" p%g %.6g %s", top * 100.0, Quantile(samples, top), unit);
  }
  if (top > 0.0) {
    std::printf(" (%zu beyond p%g)", SamplesBeyond(samples.size(), top),
                top * 100.0);
  }
  std::printf("\n");
}

/// Forwarding estimator for the traced run: times every call the serving
/// layer makes into FactorJoin from outside the library. While `on` is
/// false, estimates forward untouched, so the traced run can alternate
/// traced and untraced windows on one service. A batch is timed as its
/// two public halves, PrepareSubplans (leaf building) and the session's
/// EstimateSubplans (join bounds), which return values bit-identical to
/// the one-call EstimateSubplans.
class TimedEstimator : public fj::CardinalityEstimator {
 public:
  struct Counter {
    std::atomic<uint64_t> calls{0};
    std::atomic<uint64_t> nanos{0};
    void Add(uint64_t ns) {
      calls.fetch_add(1, std::memory_order_relaxed);
      nanos.fetch_add(ns, std::memory_order_relaxed);
    }
    /// Mean microseconds per call (0 without calls).
    double MeanMicros() const {
      uint64_t c = calls.load();
      return c == 0 ? 0.0 : static_cast<double>(nanos.load()) / 1e3 /
                                static_cast<double>(c);
    }
  };

  explicit TimedEstimator(fj::FactorJoinEstimator& inner) : inner_(inner) {}

  std::atomic<bool> on{false};
  mutable Counter estimate, leaf_build, join_bound, apply_insert,
      apply_delete;

  std::string Name() const override { return inner_.Name(); }

  double Estimate(const fj::Query& query) const override {
    if (!on.load(std::memory_order_relaxed)) return inner_.Estimate(query);
    auto t0 = SteadyClock::now();
    double v = inner_.Estimate(query);
    estimate.Add(Nanos(t0, SteadyClock::now()));
    return v;
  }

  std::unordered_map<uint64_t, double> EstimateSubplans(
      const fj::Query& query,
      const std::vector<uint64_t>& masks) const override {
    if (!on.load(std::memory_order_relaxed)) {
      return inner_.EstimateSubplans(query, masks);
    }
    auto t0 = SteadyClock::now();
    auto session = inner_.PrepareSubplans(query);
    auto t1 = SteadyClock::now();
    auto out = session->EstimateSubplans(masks);
    auto t2 = SteadyClock::now();
    leaf_build.Add(Nanos(t0, t1));
    join_bound.Add(Nanos(t1, t2));
    return out;
  }

  std::unique_ptr<SubplanSession> PrepareSubplans(
      const fj::Query& query) const override {
    return inner_.PrepareSubplans(query);
  }

  size_t ModelSizeBytes() const override { return inner_.ModelSizeBytes(); }
  bool SupportsUpdates() const override { return true; }

  double ApplyInsert(const std::string& table, size_t first) override {
    auto t0 = SteadyClock::now();
    double s = inner_.ApplyInsert(table, first);
    apply_insert.Add(Nanos(t0, SteadyClock::now()));
    return s;
  }

  double ApplyDelete(const std::string& table, size_t first) override {
    auto t0 = SteadyClock::now();
    double s = inner_.ApplyDelete(table, first);
    apply_delete.Add(Nanos(t0, SteadyClock::now()));
    return s;
  }

 private:
  fj::FactorJoinEstimator& inner_;
};

/// One closed-loop request: when it completed (seconds since the loop
/// started), its latency and whether its response passed the checks.
struct Sample {
  double end_s = 0.0;
  double latency_us = 0.0;
  bool ok = false;
};

/// CPU seconds used so far by the thread whose CPU-time clock is `clock`.
inline double ClockSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// A fixed piece of work owned by the benchmark: build a hash map of 32,768
/// keys, probe it, read 32,768 random slots of an 8 MiB table and sort 4,096
/// keys. On the shared host this was tuned on, the CPU time the plan
/// workloads spend per plan moved by up to 1.5x within seconds with the
/// load of the host's other tenants, while a run did the same work. This
/// work, run on the same CPU in the same windows, slowed by the same
/// factor: over five runs of one build, CPU time per plan ranged 106-150 us
/// and its ratio to this work's time stayed within 3.5% of its median. A
/// smaller version of it (4,096 keys) did not follow the host's load.
class ReferenceWork {
 public:
  /// The work's CPU time on a quiet core of the 4-vCPU VM it was tuned on,
  /// so normalized figures read as microseconds on such a core. Run every
  /// 40 ms it takes about 7% of the CPU it shares with the workload.
  static constexpr double kQuietMicros = 2700.0;

  ReferenceWork() : keys_(kKeys), table_(kTableSlots, 1.0) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (uint64_t& k : keys_) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      k = x;
    }
  }

  /// Runs the work once; returns its thread CPU time in microseconds.
  double RunOnce() {
    const double start = ClockSeconds(CLOCK_THREAD_CPUTIME_ID);
    std::unordered_map<uint64_t, double> map;
    for (uint64_t k : keys_) map[k >> 3] += 1.0;
    double acc = 0.0;
    for (size_t i = 0; i < kKeys; ++i) {
      acc += map.find(keys_[(i * 7919) % kKeys] >> 3)->second *
             table_[keys_[i] % kTableSlots];
    }
    std::vector<uint64_t> part(keys_.begin(), keys_.begin() + kKeys / 8);
    std::sort(part.begin(), part.end());
    sink_ = acc + static_cast<double>(part.front() & 1);
    return (ClockSeconds(CLOCK_THREAD_CPUTIME_ID) - start) * 1e6;
  }

 private:
  static constexpr size_t kKeys = size_t{1} << 15;
  static constexpr size_t kTableSlots = size_t{1} << 20;
  std::vector<uint64_t> keys_;
  std::vector<double> table_;
  volatile double sink_ = 0.0;
};

struct LoopResult {
  std::vector<Sample> samples;
  double seconds = 0.0;
  double cpu_seconds = 0.0;  // process CPU time over the loop, reference excluded
  size_t windows = 0;
  double window_s = 0.0;
  /// Per window: process CPU seconds (the reference's excluded) and the
  /// median CPU time of the reference work run in it, in microseconds.
  std::vector<double> window_cpu_s, window_ref_us;

  OpCounts Ops() const {
    OpCounts ops;
    for (const Sample& s : samples) ops.Add(s.ok);
    return ops;
  }
  /// Latencies grouped by the window they completed in (full windows only).
  std::vector<std::vector<double>> WindowLatencies() const {
    std::vector<std::vector<double>> out(windows);
    for (const Sample& s : samples) {
      size_t w = static_cast<size_t>(s.end_s / window_s);
      if (w < windows) out[w].push_back(s.ok ? s.latency_us : kFailedLatency);
    }
    return out;
  }
  /// Completed requests per second in each full window.
  std::vector<double> WindowRates() const {
    std::vector<double> counts(windows, 0.0);
    for (const Sample& s : samples) {
      size_t w = static_cast<size_t>(s.end_s / window_s);
      if (s.end_s >= 0.0 && w < windows) counts[w] += 1.0;
    }
    for (double& c : counts) c /= window_s;
    return counts;
  }
};

/// Runs `threads` closed-loop sessions for `windows` windows of `window_s`
/// seconds. `request(tid)` issues one request and returns whether its
/// response passed the checks (an exception is a failed request).
/// `on_window(w)` runs on the calling thread at the start of window w.
/// Beside the sessions, one more thread runs ReferenceWork every 40 ms; its
/// CPU time is kept out of the loop's.
inline LoopResult ClosedLoop(size_t threads, size_t windows, double window_s,
                             const std::function<bool(size_t)>& request,
                             const std::function<void(size_t)>& on_window =
                                 {}) {
  LoopResult result;
  result.windows = windows;
  result.window_s = window_s;
  std::vector<std::vector<Sample>> per_thread(threads);
  if (on_window) on_window(0);
  std::atomic<bool> stop{false};
  ReferenceWork reference;
  std::vector<std::pair<double, double>> ref_runs;  // (end s, CPU us)
  const auto start = SteadyClock::now();
  std::thread ref_thread([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      double us = reference.RunOnce();
      ref_runs.emplace_back(Seconds(start, SteadyClock::now()), us);
      std::this_thread::sleep_for(std::chrono::milliseconds(40));
    }
  });
  clockid_t ref_clock{};
  if (pthread_getcpuclockid(ref_thread.native_handle(), &ref_clock) != 0) {
    stop.store(true);
    ref_thread.join();
    throw std::runtime_error("no CPU clock for the reference thread");
  }
  auto loop_cpu = [&] {
    return ProcessCpuSeconds() - ClockSeconds(ref_clock);
  };
  const double cpu_start = loop_cpu();
  std::vector<double> cpu_marks{cpu_start};
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<Sample>& out = per_thread[t];
      out.reserve(1 << 16);
      while (!stop.load(std::memory_order_relaxed)) {
        auto t0 = SteadyClock::now();
        bool ok = false;
        try {
          ok = request(t);
        } catch (const std::exception&) {
          ok = false;
        }
        auto t1 = SteadyClock::now();
        out.push_back({Seconds(start, t1), Seconds(t0, t1) * 1e6, ok});
      }
    });
  }
  for (size_t w = 1; w <= windows; ++w) {
    std::this_thread::sleep_until(
        start + std::chrono::duration_cast<SteadyClock::duration>(
                    std::chrono::duration<double>(window_s * w)));
    cpu_marks.push_back(loop_cpu());
    if (w < windows && on_window) on_window(w);
  }
  // The reference thread's clock is read only while the thread still runs:
  // once it has seen `stop` it may have exited.
  result.cpu_seconds = cpu_marks.back() - cpu_start;
  stop.store(true);
  for (std::thread& th : pool) th.join();
  result.seconds = Seconds(start, SteadyClock::now());
  ref_thread.join();
  for (auto& v : per_thread) {
    result.samples.insert(result.samples.end(), v.begin(), v.end());
  }
  std::vector<std::vector<double>> ref_by_window(windows);
  for (const auto& [end_s, us] : ref_runs) {
    size_t w = static_cast<size_t>(end_s / window_s);
    if (w < windows) ref_by_window[w].push_back(us);
  }
  for (size_t w = 0; w < windows; ++w) {
    result.window_cpu_s.push_back(cpu_marks[w + 1] - cpu_marks[w]);
    result.window_ref_us.push_back(Median(ref_by_window[w]));
  }
  return result;
}

/// Closed-loop warm-up: quarter-second loops for at least 3 s, then until
/// the throughput of the last two agrees within 20% (at most 5 s). The long
/// minimum keeps the warm-up time, which setup_s includes, about the same
/// from run to run. Returns seconds.
inline double WarmUpClosedLoop(size_t threads,
                               const std::function<bool(size_t)>& request) {
  const auto start = SteadyClock::now();
  std::vector<double> rates;
  for (int i = 0; i < 20; ++i) {
    LoopResult r = ClosedLoop(threads, 1, 0.25, request);
    rates.push_back(static_cast<double>(r.samples.size()) / r.seconds);
    size_t n = rates.size();
    if (n >= 12 && std::abs(rates[n - 1] - rates[n - 2]) <=
                       0.2 * std::max(rates[n - 1], rates[n - 2])) {
      break;
    }
  }
  double s = Seconds(start, SteadyClock::now());
  std::printf("  warm-up: %.2f s, %zu windows, last rate %.0f/s\n", s,
              rates.size(), rates.back());
  return s;
}

/// Trains FactorJoin `reps` times; returns the last model and the median
/// training wall time.
inline std::unique_ptr<fj::FactorJoinEstimator> TrainMedian(
    const fj::Database& db, int reps, double* median_s) {
  std::vector<double> times;
  std::unique_ptr<fj::FactorJoinEstimator> est;
  for (int i = 0; i < reps; ++i) {
    auto t0 = SteadyClock::now();
    est = std::make_unique<fj::FactorJoinEstimator>(db, fj::FactorJoinConfig{});
    times.push_back(Seconds(t0, SteadyClock::now()));
  }
  *median_s = Median(times);
  return est;
}

/// Per-request mean of a stage: the stage histogram's sum over `requests`
/// (stage histograms skip zero-microsecond spans, so their own count is
/// not the request count).
inline double StageMeanMicros(const fj::obs::HistogramSnapshot& stage,
                              uint64_t requests) {
  return requests == 0 ? 0.0 : static_cast<double>(stage.sum) /
                                   static_cast<double>(requests);
}

/// Quantile of a stage over `requests`, counting the requests whose span
/// was dropped as zero.
inline double StageQuantileMicros(const fj::obs::HistogramSnapshot& stage,
                                  uint64_t requests, double q) {
  if (requests == 0 || stage.count == 0) return 0.0;
  uint64_t zeros = requests > stage.count ? requests - stage.count : 0;
  double rank = q * static_cast<double>(requests);
  if (rank <= static_cast<double>(zeros)) return 0.0;
  double q_nonzero = (rank - static_cast<double>(zeros)) /
                     static_cast<double>(stage.count);
  return stage.ValueAtQuantile(std::min(q_nonzero, 1.0));
}

/// Service counters and stage histograms accumulated between two
/// snapshots.
struct ServiceDelta {
  uint64_t requests = 0;  // single + batched requests completed
  uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0;
  fj::obs::HistogramSnapshot latency;
  std::array<fj::obs::HistogramSnapshot, fj::obs::kNumStages> stages;

  static ServiceDelta Between(const fj::ServiceStats& a,
                              const fj::ServiceStats& b) {
    ServiceDelta d;
    d.requests = (b.requests + b.subplan_requests) -
                 (a.requests + a.subplan_requests);
    d.hits = b.cache.hits - a.cache.hits;
    d.misses = b.cache.misses - a.cache.misses;
    d.evictions = b.cache.evictions - a.cache.evictions;
    d.invalidations = b.cache.invalidations - a.cache.invalidations;
    d.latency = b.latency.DeltaSince(a.latency);
    for (size_t i = 0; i < fj::obs::kNumStages; ++i) {
      d.stages[i] = b.stages[i].DeltaSince(a.stages[i]);
    }
    return d;
  }
  double Mean(fj::obs::Stage s) const {
    return StageMeanMicros(stages[static_cast<size_t>(s)], requests);
  }
  double QuantileOf(fj::obs::Stage s, double q) const {
    return StageQuantileMicros(stages[static_cast<size_t>(s)], requests, q);
  }
};

/// Q-error summary of served estimates against true cardinalities.
struct Accuracy {
  std::vector<double> qerrors;
  size_t upper_bounds = 0;

  void Add(double estimate, double truth) {
    double e = std::max(estimate, 1.0);
    double t = std::max(truth, 1.0);
    qerrors.push_back(std::max(e / t, t / e));
    upper_bounds += estimate >= truth ? 1 : 0;
  }
  double UpperBoundFrac() const {
    return qerrors.empty() ? 0.0
                           : static_cast<double>(upper_bounds) /
                                 static_cast<double>(qerrors.size());
  }
};

/// Finite and non-negative: the check every served estimate must pass.
inline bool ValidEstimate(double v) { return std::isfinite(v) && v >= 0.0; }

}  // namespace fjbench
