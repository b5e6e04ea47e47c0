// Point-in-time metrics snapshot of an EstimatorService. Latencies are
// end-to-end (queue wait + compute), the number an optimizer integrating
// the service actually experiences, recorded into log-bucketed histograms
// (obs/latency_histogram.h) — lock-free on the worker path, exact-bucket
// p50/p90/p99/p999 at snapshot time, mergeable and wire-encodable (the
// stats RPC ships the full histograms, not just pre-computed quantiles).
#pragma once

#include <array>
#include <cstdint>

#include "obs/latency_histogram.h"
#include "obs/request_trace.h"
#include "service/sharded_cache.h"

namespace fj {

struct ServiceStats {
  /// Single-query estimate requests completed.
  uint64_t requests = 0;
  /// Batched sub-plan requests completed.
  uint64_t subplan_requests = 0;
  /// Sub-plan estimates the estimator computed: cache misses (every mask
  /// with the cache off), single estimates counting as one-mask batches.
  uint64_t subplans_estimated = 0;
  /// Requests that completed with an exception.
  uint64_t errors = 0;
  /// NotifyUpdate calls received (data-update notifications). Always equals
  /// `epoch`: both are captured from one atomic read of the epoch registry,
  /// which NotifyUpdate bumps exactly once per call (the separate counter
  /// that could disagree under concurrent snapshots is gone).
  uint64_t updates_notified = 0;
  /// Statistics epoch at snapshot time. Cache entries older than a touched
  /// table's epoch are lazily invalidated; see CacheStats::invalidations.
  uint64_t epoch = 0;
  /// Gauge: client requests accepted but not yet served at snapshot time
  /// (queued plus in-flight on workers) — what Drain() waits to reach zero.
  uint64_t pending_requests = 0;
  /// Gauge: requests sitting in the queue, not yet picked up by a worker.
  /// pending_requests - queue_depth approximates in-flight work.
  uint64_t queue_depth = 0;
  /// Slow-request log lines emitted (see
  /// EstimatorServiceOptions::slow_request_micros; 0 while disabled).
  uint64_t slow_requests = 0;
  /// Offenders the slow-log rate limiter swallowed (token bucket,
  /// EstimatorServiceOptions::slow_log_per_second). Each is acknowledged
  /// in the log by a `suppressed=N` summary line when emission resumes.
  uint64_t slow_suppressed = 0;

  CacheStats cache;

  /// End-to-end request latency histogram (microseconds, every completed
  /// request since service start). The quantile fields below are derived
  /// from it by RefreshQuantiles().
  obs::HistogramSnapshot latency;
  /// Per-stage latency histograms, indexed by obs::Stage. Filled while
  /// EstimatorServiceOptions::enable_tracing is on; the net front end
  /// (net/server.h) keeps its own decode/encode/socket-write histograms, so
  /// those stages stay empty on in-process services.
  std::array<obs::HistogramSnapshot, obs::kNumStages> stages;

  /// Exact-bucket latency quantiles (microseconds; at most +6.25% above the
  /// true sample — see obs/latency_histogram.h). Zero until the first
  /// request completes. `max_micros` is exact.
  double p50_micros = 0.0;
  double p90_micros = 0.0;
  double p99_micros = 0.0;
  double p999_micros = 0.0;
  double max_micros = 0.0;

  /// Recomputes the quantile fields from `latency`. Called by
  /// EstimatorService::Stats() and by the wire decoder (the stats RPC ships
  /// histograms; quantiles are derived, never trusted from the peer).
  void RefreshQuantiles() {
    p50_micros = latency.ValueAtQuantile(0.50);
    p90_micros = latency.ValueAtQuantile(0.90);
    p99_micros = latency.ValueAtQuantile(0.99);
    p999_micros = latency.ValueAtQuantile(0.999);
    max_micros = static_cast<double>(latency.max);
  }
};

}  // namespace fj
