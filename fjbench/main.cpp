// fjbench: the repository benchmark. One workload per invocation:
//
//   fjbench --workload <plan-warm-tcp|plan-cold|point-mixed> --seed <n>
//           --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same workload
// with outside-in timing of the layers and prints the per-layer metrics.
// Every response is checked; the last stdout line is the JSON result and the
// exit code is non-zero when a check failed. README.md explains the
// workloads and the layer-to-metric map.
#include <condition_variable>
#include <cstring>
#include <exception>
#include <mutex>
#include <optional>

#include "exec/true_card.h"
#include "harness.h"
#include "net/client.h"
#include "net/server.h"
#include "query/subplan.h"
#include "service/estimator_service.h"
#include "service/sharded_cache.h"
#include "util/rng.h"
#include "util/zipf.h"
#include "workload/imdb_job.h"
#include "workload/loadgen.h"
#include "workload/openloop.h"
#include "workload/query_gen.h"
#include "workload/stats_ceb.h"

namespace fjbench {
namespace {

constexpr double kScale = 0.3;
constexpr size_t kWorkers = 2;
constexpr size_t kSessions = 2;
constexpr int kTrainReps = 5;
constexpr double kWindowSeconds = 1.0;
/// The tracing-overhead bar: traced throughput within 2% of untraced.
constexpr double kTracingBar = 0.02;
/// Requests of the traced run whose keys are replayed through the keying
/// and cache-lookup layers.
constexpr size_t kReplayRequests = 2000;

/// Per-layer metrics (README.md has the map to end-to-end metrics). A
/// layer a workload does not exercise reads 0.
struct Layers {
  double key_ns_per_subplan = 0, cache_lookup_ns = 0, cache_hit_rate = 0,
         cache_evictions_per_req = 0, cache_probe_mean_us = 0,
         estimate_mean_us = 0, respond_mean_us = 0, queue_wait_p50_us = 0,
         queue_wait_p99_us = 0, leaf_build_us = 0, join_bound_us = 0,
         fj_estimate_us = 0, apply_insert_ms = 0, apply_delete_ms = 0,
         drain_ms = 0, notify_us = 0, invalidations_per_update = 0,
         update_p50_ms = 0, net_decode_mean_us = 0, net_encode_mean_us = 0,
         net_socket_write_mean_us = 0, net_bytes_per_req = 0,
         net_roundtrip_overhead_us = 0, dispatch_lateness_p99_us = 0,
         tracing_overhead_pct = 0, tracing_spread_pct = 0,
         unattributed_frac = 0;
  size_t requests = 0, updates = 0;

  void Emit(Report& r) const {
    auto add = [&](const char* name, double v, const char* unit, size_t n) {
      r.Add(name, v, unit, n, /*in_json=*/true);
    };
    add("query.key_ns_per_subplan", key_ns_per_subplan, "ns", requests);
    add("service.cache_lookup_ns", cache_lookup_ns, "ns", requests);
    add("service.cache_hit_rate", cache_hit_rate, "frac", requests);
    add("service.cache_evictions_per_req", cache_evictions_per_req, "count",
        requests);
    add("service.cache_probe_mean_us", cache_probe_mean_us, "us", requests);
    add("service.estimate_mean_us", estimate_mean_us, "us", requests);
    add("service.respond_mean_us", respond_mean_us, "us", requests);
    add("service.queue_wait_p50_us", queue_wait_p50_us, "us", requests);
    add("service.queue_wait_p99_us", queue_wait_p99_us, "us", requests);
    add("factorjoin.leaf_build_us", leaf_build_us, "us", requests);
    add("factorjoin.join_bound_us", join_bound_us, "us", requests);
    add("factorjoin.estimate_us", fj_estimate_us, "us", requests);
    add("factorjoin.apply_insert_ms", apply_insert_ms, "ms", updates);
    add("factorjoin.apply_delete_ms", apply_delete_ms, "ms", updates);
    add("service.drain_ms", drain_ms, "ms", updates);
    add("service.notify_us", notify_us, "us", updates);
    add("service.invalidations_per_update", invalidations_per_update,
        "count", updates);
    add("workload.update_p50_ms", update_p50_ms, "ms", updates);
    add("net.decode_mean_us", net_decode_mean_us, "us", requests);
    add("net.encode_mean_us", net_encode_mean_us, "us", requests);
    add("net.socket_write_mean_us", net_socket_write_mean_us, "us",
        requests);
    add("net.bytes_per_req", net_bytes_per_req, "bytes", requests);
    add("net.roundtrip_overhead_us", net_roundtrip_overhead_us, "us",
        requests);
    add("workload.dispatch_lateness_p99_us", dispatch_lateness_p99_us, "us",
        requests);
    add("obs.tracing_overhead_pct", tracing_overhead_pct, "%", requests);
    add("obs.tracing_spread_pct", tracing_spread_pct, "%", requests);
    add("unattributed_frac", unattributed_frac, "frac", requests);
  }

  /// Fills the service-side layers from the stats accumulated over a phase.
  void FromService(const ServiceDelta& d) {
    requests = d.requests;
    uint64_t lookups = d.hits + d.misses;
    cache_hit_rate = lookups == 0 ? 0.0
                                  : static_cast<double>(d.hits) /
                                        static_cast<double>(lookups);
    cache_evictions_per_req = d.requests == 0
                                  ? 0.0
                                  : static_cast<double>(d.evictions) /
                                        static_cast<double>(d.requests);
    cache_probe_mean_us = d.Mean(fj::obs::Stage::kCacheProbe);
    estimate_mean_us = d.Mean(fj::obs::Stage::kEstimate);
    respond_mean_us = d.Mean(fj::obs::Stage::kRespond);
    queue_wait_p50_us = d.QuantileOf(fj::obs::Stage::kQueueWait, 0.50);
    queue_wait_p99_us = d.QuantileOf(fj::obs::Stage::kQueueWait, 0.99);
  }

  void FromEstimator(const TimedEstimator& t) {
    leaf_build_us = t.leaf_build.MeanMicros();
    join_bound_us = t.join_bound.MeanMicros();
    fj_estimate_us = t.estimate.MeanMicros();
    apply_insert_ms = t.apply_insert.MeanMicros() / 1e3;
    apply_delete_ms = t.apply_delete.MeanMicros() / 1e3;
  }

  /// Turns the summed update-step times into per-update means.
  /// `invalidations` were caused by `all_updates` updates, timed or not.
  void FinishUpdates(uint64_t invalidations, size_t all_updates,
                     const std::vector<double>& update_ms) {
    if (updates == 0 || all_updates == 0) return;
    drain_ms /= static_cast<double>(updates);
    notify_us /= static_cast<double>(updates);
    invalidations_per_update = static_cast<double>(invalidations) /
                               static_cast<double>(all_updates);
    update_p50_ms = Quantile(update_ms, 0.5);
  }

  /// Attributed time per request: the service's own stages plus the given
  /// outside stages, against the end-to-end mean `total_us`.
  void Reconcile(const ServiceDelta& d, double outside_us, double total_us) {
    double attributed = d.Mean(fj::obs::Stage::kQueueWait) +
                        cache_probe_mean_us + estimate_mean_us +
                        respond_mean_us + outside_us;
    unattributed_frac = total_us > 0.0 ? 1.0 - attributed / total_us : 0.0;
    std::printf("  reconcile: end-to-end %.2f us/req, attributed %.2f us "
                "(queue %.2f + probe %.2f + estimate %.2f + respond %.2f + "
                "outside %.2f)\n",
                total_us, attributed, d.Mean(fj::obs::Stage::kQueueWait),
                cache_probe_mean_us, estimate_mean_us, respond_mean_us,
                outside_us);
  }

  /// Tracing overhead from alternating untraced (even) and traced (odd)
  /// windows of one loop, judged against the untraced windows' spread.
  void OverheadFromWindows(const std::vector<double>& rates) {
    std::vector<double> off, on;
    for (size_t w = 0; w < rates.size(); ++w) {
      (w % 2 == 0 ? off : on).push_back(rates[w]);
    }
    double off_med = Median(off), on_med = Median(on);
    double overhead = off_med > 0.0 ? 1.0 - on_med / off_med : 0.0;
    double spread = QuartilesOf(off).RelSpread();
    SetOverhead(overhead, spread, "throughput");
  }

  void SetOverhead(double overhead, double spread, const char* figure) {
    tracing_overhead_pct = overhead * 100.0;
    tracing_spread_pct = spread * 100.0;
    std::printf("  tracing overhead on %s: %.2f%% against bar %.0f%% and "
                "untraced spread %.2f%% -> %s\n",
                figure, overhead * 100.0, kTracingBar * 100.0, spread * 100.0,
                OverheadPasses(overhead, spread, kTracingBar) ? "PASS"
                                                              : "FAIL");
  }
};

/// A request's query and its sub-plan masks (nullptr for a single estimate).
using KeyStream =
    std::vector<std::pair<const fj::Query*, const std::vector<uint64_t>*>>;

/// Times the keying and cache-lookup layers on a workload's own key
/// stream: each request's keys are computed the way the service computes
/// them (one fingerprint per sub-plan, or per query for a single estimate),
/// then looked up in a cache sized like the service's, misses inserted.
void ReplayKeys(const KeyStream& stream, Layers* layers) {
  fj::ShardedEstimateCache cache(1 << 16, 16);
  std::vector<fj::QueryFingerprint> fps;
  std::vector<char> missed;
  uint64_t key_ns = 0, lookup_ns = 0, keys = 0, sink = 0;
  for (const auto& [query, masks] : stream) {
    fps.clear();
    auto t0 = SteadyClock::now();
    if (masks != nullptr) {
      for (uint64_t m : *masks) {
        fps.push_back(query->InducedSubquery(m).Fingerprint());
      }
    } else {
      fps.push_back(query->Fingerprint());
    }
    auto t1 = SteadyClock::now();
    missed.assign(fps.size(), 0);
    for (size_t i = 0; i < fps.size(); ++i) {
      std::optional<double> v = cache.Lookup(fps[i]);
      missed[i] = v.has_value() ? 0 : 1;
    }
    auto t2 = SteadyClock::now();
    for (size_t i = 0; i < fps.size(); ++i) {
      sink ^= fps[i].lo;
      if (missed[i]) cache.Insert(fps[i], 1.0);
    }
    key_ns += Nanos(t0, t1);
    lookup_ns += Nanos(t1, t2);
    keys += fps.size();
  }
  if (keys == 0) return;
  layers->key_ns_per_subplan = static_cast<double>(key_ns) / keys;
  layers->cache_lookup_ns = static_cast<double>(lookup_ns) / keys;
  std::printf("  key replay: %zu requests, %llu keys (checksum %llx)\n",
              stream.size(), static_cast<unsigned long long>(keys),
              static_cast<unsigned long long>(sink & 0xff));
}

/// Result of one workload run.
struct RunResult {
  bool correct = true;
  OpCounts ops;
};

/// CPU time per unit of work (plan or read): `raw_us` is the process CPU
/// time per unit over the timed phase; `norm_us`, for the closed loops, is
/// the same at ReferenceWork's quiet speed (NormalizedMicrosPerOp).
struct CpuPerOp {
  double raw_us = 0.0;
  std::optional<double> norm_us;
  double reference_us = 0.0;  // median reference time over windows

  static CpuPerOp Of(const LoopResult& loop) {
    CpuPerOp c;
    c.raw_us = loop.cpu_seconds * 1e6 /
               static_cast<double>(std::max<size_t>(loop.samples.size(), 1));
    std::vector<double> ops = loop.WindowRates();
    for (double& o : ops) o *= loop.window_s;
    c.norm_us = NormalizedMicrosPerOp(loop.window_cpu_s, ops,
                                      loop.window_ref_us,
                                      ReferenceWork::kQuietMicros);
    c.reference_us = Median(loop.window_ref_us);
    return c;
  }
};

/// End-to-end metrics shared by every workload. `throughput` is work
/// completed per second. p50/p90 are the median over windows of each
/// window's latency quantile for the unit of work (failures counted as
/// infinite), so a few windows disturbed from outside the run do not move
/// them. Raw CPU time, throughput and latencies are printed but not gated:
/// on a shared host they follow the host's load (see README.md).
void EmitEndToEnd(Report& r, bool json, double setup_s, double model_bytes,
                  const OpCounts& ops, const CpuPerOp& cpu, double throughput,
                  const std::vector<std::vector<double>>& windows,
                  const Accuracy& accuracy) {
  std::vector<double> pooled;
  for (const auto& w : windows) pooled.insert(pooled.end(), w.begin(), w.end());
  size_t n = pooled.size();
  double p50 = WindowedQuantile(windows, 0.5);
  double p90 = WindowedQuantile(windows, 0.9);
  PrintDistribution("latency, pooled", pooled, "us");
  PrintDistribution("q-error", accuracy.qerrors, "x");
  r.Add("setup_s", setup_s, "s", kTrainReps, json);
  r.Add("model_bytes", model_bytes, "bytes", 1, json);
  r.Add("ok_frac", ops.OkFrac(), "frac", ops.attempted, json);
  if (cpu.norm_us) {
    r.Add("norm_cpu_us_per_op", *cpu.norm_us, "us", n, json,
          "median over windows, at the reference's quiet speed");
    char note[64];
    std::snprintf(note, sizeof note, "median over windows; quiet: %.0f us",
                  ReferenceWork::kQuietMicros);
    r.Add("reference_us", cpu.reference_us, "us", windows.size(), false,
          note);
  }
  r.Add("cpu_us_per_op", cpu.raw_us, "us", n, false, "not gated");
  r.Add("p50_us", p50, "us", n, false, "median of window p50s, not gated");
  r.Add("throughput_per_s", throughput, "1/s", n, false, "not gated");
  r.Add("p90_us", p90, "us", n, false, "median of window p90s, not gated");
  r.Add("qerror_p50", Quantile(accuracy.qerrors, 0.5), "x",
        accuracy.qerrors.size(), json);
  r.Add("qerror_p90", Quantile(accuracy.qerrors, 0.90), "x",
        accuracy.qerrors.size(), json);
  r.Add("upper_bound_frac", accuracy.UpperBoundFrac(), "frac",
        accuracy.qerrors.size(), json);
}

bool SameBits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Every requested mask has a finite, non-negative value and nothing else
/// was returned; with `reference`, each value is bit-identical to it.
bool CheckSubplans(const std::unordered_map<uint64_t, double>& got,
                   const std::vector<uint64_t>& masks,
                   const std::unordered_map<uint64_t, double>* reference) {
  if (got.size() != masks.size()) return false;
  for (uint64_t m : masks) {
    auto it = got.find(m);
    if (it == got.end() || !ValidEstimate(it->second)) return false;
    if (reference != nullptr && !SameBits(it->second, reference->at(m))) {
      return false;
    }
  }
  return true;
}

size_t NumWindows(double seconds) {
  return std::max<size_t>(
      2, static_cast<size_t>(seconds / kWindowSeconds + 0.5));
}

uint64_t FullMask(const fj::Query& q) {
  return (uint64_t{1} << q.NumTables()) - 1;
}

/// The measured plan workloads train, serve and load from one CPU
/// (PinToOneCpu), beside the reference work their CPU time is scaled by;
/// data generation and the accuracy oracle before it use every CPU. The
/// traced run stays unpinned: on one CPU a stage's wall-clock span would
/// also cover the other threads that ran inside it.
void PinPlanThreads(bool trace) {
  if (trace) return;
  int cpu = PinToOneCpu();
  if (cpu < 0) {
    std::printf("  cpu pinning failed: threads run unpinned\n");
  } else {
    std::printf("  training, service and sessions pinned to cpu %d\n", cpu);
  }
}

/// Served estimator: the trained model itself, or in the traced run the
/// timing wrapper around it.
struct Model {
  std::unique_ptr<fj::FactorJoinEstimator> fj;
  std::unique_ptr<TimedEstimator> timed;
  double train_s = 0.0;
  double bytes = 0.0;  // serialized size as trained

  Model(const fj::Database& db, bool trace) {
    fj = TrainMedian(db, kTrainReps, &train_s);
    bytes = static_cast<double>(fj->ModelSizeBytes());
    if (trace) timed = std::make_unique<TimedEstimator>(*fj);
  }
  fj::CardinalityEstimator& served() {
    return timed ? static_cast<fj::CardinalityEstimator&>(*timed) : *fj;
  }
  std::function<void(size_t)> Toggle() {
    if (!timed) return {};
    return [this](size_t w) { timed->on.store(w % 2 == 1); };
  }
};

// ------------------------------------------------------ open-loop mixed ops

/// The rate ladder in reads per second; kNominalRung is reported as the
/// workload's latency, and the highest rung meeting kReadLimitUs at p99 is
/// its sustained rate.
constexpr double kRungs[] = {1000, 2000, 4000, 8000};
constexpr size_t kNominalRung = 1;
/// Share of --seconds each rung runs for.
constexpr double kRungShare[] = {0.1, 0.7, 0.1, 0.1};
constexpr double kReadLimitUs = 50'000;
constexpr double kUpdateFraction = 0.02;

/// Appends `rows` copies of existing rows to every column of `table`, the
/// same rows InProcessTarget copies for an insert.
void AppendCopiedRows(fj::Table* table, uint32_t rows, size_t base) {
  for (const auto& col : table->columns()) {
    fj::Column* c = table->MutableCol(col->name());
    for (uint32_t i = 0; i < rows; ++i) {
      size_t src = (static_cast<size_t>(i) * 7919 + 13) % base;
      if (c->IsNull(src)) {
        c->AppendNull();
      } else if (c->type() == fj::ColumnType::kInt64) {
        c->AppendInt(c->IntAt(src));
      } else if (c->type() == fj::ColumnType::kDouble) {
        c->AppendDouble(c->DoubleAt(src));
      } else {
        std::string v = c->StringAt(src);
        c->AppendString(v);
      }
    }
  }
}

/// Open-loop target of point-mixed. Reads are single estimates submitted to
/// the service, each checked to be finite and non-negative. Updates go
/// through InProcessTarget (the library's update protocol) or, in the
/// traced run, through the same protocol's public steps — Drain, mutate,
/// ApplyInsert/ApplyDelete, NotifyUpdate — called one by one and timed.
/// Records when each operation was dispatched and completed, relative to
/// the first dispatch (the trace schedules its first operation at 0).
class MixedTarget : public fj::LoadTarget {
 public:
  struct Op {
    double dispatched_us = 0, done_us = 0;
    bool read = false, ok = false;
  };

  MixedTarget(size_t num_ops, fj::Database* db, fj::CardinalityEstimator* est,
              fj::EstimatorService* service, bool traced)
      : ops(num_ops),
        db_(db),
        est_(est),
        service_(service),
        inproc_(db, est, service),
        traced_(traced),
        table_names_(db->TableNames()) {}

  void SubmitRead(const fj::Query& query, ReadDone done) override {
    Op& op = Dispatch(true);
    outstanding_.fetch_add(1);
    try {
      service_->EstimateAsync(
          query, [this, &op, done = std::move(done)](double v,
                                                     std::exception_ptr e) {
            op.ok = e == nullptr && ValidEstimate(v);
            op.done_us = NowUs();
            done(e);
            Finish();
          });
    } catch (...) {
      op.done_us = NowUs();
      done(std::current_exception());
      Finish();
    }
  }

  void ApplyUpdate(const fj::LoadOp& lop) override {
    Op& op = Dispatch(false);
    if (traced_) {
      TimedUpdate(lop);
    } else {
      inproc_.ApplyUpdate(lop);
    }
    op.ok = true;
    op.done_us = NowUs();
  }

  void AwaitIdle() override {
    std::unique_lock<std::mutex> lock(mu_);
    idle_.wait(lock, [this] { return outstanding_.load() == 0; });
  }

  std::vector<Op> ops;
  uint64_t drain_ns = 0, notify_ns = 0, timed_updates = 0;

 private:
  Op& Dispatch(bool read) {
    if (next_ == 0) start_ = SteadyClock::now();
    Op& op = ops.at(next_++);
    op.read = read;
    op.dispatched_us = NowUs();
    return op;
  }
  double NowUs() const { return Seconds(start_, SteadyClock::now()) * 1e6; }
  void Finish() {
    if (outstanding_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> lock(mu_);
      idle_.notify_all();
    }
  }
  void TimedUpdate(const fj::LoadOp& lop) {
    const std::string& name = table_names_[lop.index % table_names_.size()];
    auto t0 = SteadyClock::now();
    service_->Drain();
    auto t1 = SteadyClock::now();
    fj::Table* table = db_->MutableTable(name);
    if (lop.kind == fj::LoadOpKind::kInsert) {
      size_t first = table->num_rows();
      if (first > 0 && lop.rows > 0) {
        AppendCopiedRows(table, lop.rows, first);
        est_->ApplyInsert(name, first);
      }
    } else if (table->num_rows() > lop.rows) {
      size_t first = table->num_rows() - lop.rows;
      table->Truncate(first);
      est_->ApplyDelete(name, first);
    }
    auto t2 = SteadyClock::now();
    service_->NotifyUpdate(name);
    auto t3 = SteadyClock::now();
    drain_ns += Nanos(t0, t1);
    notify_ns += Nanos(t2, t3);
    ++timed_updates;
  }

  fj::Database* db_;
  fj::CardinalityEstimator* est_;
  fj::EstimatorService* service_;
  fj::InProcessTarget inproc_;
  bool traced_;
  std::vector<std::string> table_names_;
  size_t next_ = 0;  // dispatcher thread only
  SteadyClock::time_point start_;
  std::atomic<uint64_t> outstanding_{0};
  std::mutex mu_;
  std::condition_variable idle_;
};

/// Latencies of one open-loop phase, measured from scheduled arrival.
struct MixedPhase {
  std::vector<double> reads_us;  // failed reads as kFailedLatency
  std::vector<double> read_sched_s;
  std::vector<double> updates_ms;
  std::vector<double> lateness_us;
  OpCounts ops;
  double offered = 0, achieved = 0, wall_s = 0;

  /// Read latencies grouped by the second they were scheduled in.
  std::vector<std::vector<double>> Windows() const {
    std::vector<std::vector<double>> out;
    for (size_t i = 0; i < reads_us.size(); ++i) {
      size_t w = static_cast<size_t>(read_sched_s[i]);
      if (out.size() <= w) out.resize(w + 1);
      out[w].push_back(reads_us[i]);
    }
    return out;
  }
  double ReadRate() const {
    return wall_s > 0 ? static_cast<double>(reads_us.size()) / wall_s : 0.0;
  }

  void Add(const fj::Trace& trace, const MixedTarget& target,
           const fj::OpenLoopResult& r) {
    for (size_t i = 0; i < trace.ops.size(); ++i) {
      const MixedTarget::Op& op = target.ops[i];
      double sched = static_cast<double>(trace.ops[i].scheduled_micros);
      ops.Add(op.ok);
      if (op.read) {
        reads_us.push_back(op.ok ? op.done_us - sched : kFailedLatency);
        read_sched_s.push_back(sched / 1e6);
        lateness_us.push_back(op.dispatched_us - sched);
      } else {
        updates_ms.push_back((op.done_us - sched) / 1e3);
      }
    }
    offered = r.offered_qps;
    achieved = r.achieved_qps;
    wall_s = r.wall_seconds;
  }
};

fj::Trace MixedTrace(const fj::Workload& wl, uint64_t seed, double reads_per_s,
                     double seconds, double update_fraction) {
  fj::LoadGenOptions o;
  o.seed = seed;
  o.zipf_theta = 0.99;
  o.update_fraction = update_fraction;
  o.delete_fraction = 0.25;
  o.update_rows = 64;
  double ops_per_s = reads_per_s / (1.0 - update_fraction);
  o.schedule = fj::ArrivalSchedule::Poisson(ops_per_s);
  o.num_ops = std::max<size_t>(static_cast<size_t>(ops_per_s * seconds), 1);
  return fj::GenerateTrace(wl, o);
}

/// Runs `trace` open-loop through a MixedTarget. In the traced run the
/// update steps are timed and summed into `layers`.
void RunMixed(const fj::Trace& trace, fj::Workload* wl,
              fj::CardinalityEstimator* est, fj::EstimatorService* service,
              bool traced, MixedPhase* phase, Layers* layers) {
  MixedTarget target(trace.ops.size(), &wl->db, est, service, traced);
  fj::OpenLoopResult r = fj::RunOpenLoop(trace, wl->queries, &target);
  phase->Add(trace, target, r);
  if (traced) {
    layers->drain_ms += static_cast<double>(target.drain_ns) / 1e6;
    layers->notify_us += static_cast<double>(target.notify_ns) / 1e3;
    layers->updates += target.timed_updates;
  }
}

// ------------------------------------------------------------ plan-warm-tcp

RunResult RunPlanWarmTcp(const Args& args, Report& report) {
  RunResult result;
  fj::StatsCebOptions data;
  data.scale = kScale;
  auto wl = fj::MakeStatsCeb(data);
  const std::vector<fj::Query>& queries = wl->queries;
  std::vector<std::vector<uint64_t>> masks;
  for (const fj::Query& q : queries) {
    masks.push_back(fj::EnumerateConnectedSubsets(q, 1));
  }
  std::vector<std::optional<uint64_t>> truth;
  for (const fj::Query& q : queries) {
    truth.push_back(fj::TrueCardinality(wl->db, q));
  }

  PinPlanThreads(args.trace);
  Model model(wl->db, args.trace);
  auto t0 = SteadyClock::now();
  fj::EstimatorServiceOptions so;
  so.num_threads = kWorkers;
  fj::EstimatorService service(model.served(), so);
  fj::net::EstimatorServerOptions server_options;
  server_options.endpoint.port = 0;
  fj::net::EstimatorServer server(service, server_options);
  server.Start();
  std::vector<std::unique_ptr<fj::net::EstimatorClient>> clients;
  for (size_t t = 0; t < kSessions; ++t) {
    fj::net::EstimatorClientOptions co;
    co.endpoint = server.endpoint();
    clients.push_back(std::make_unique<fj::net::EstimatorClient>(co));
    clients.back()->Connect();
  }
  double start_s = Seconds(t0, SteadyClock::now());

  // In-process reference, served in query order by the same service (this
  // also fills the cache deterministically); accuracy of each query's full
  // join as served.
  std::vector<std::unordered_map<uint64_t, double>> reference;
  Accuracy accuracy;
  for (size_t i = 0; i < queries.size(); ++i) {
    reference.push_back(service.EstimateSubplans(queries[i], masks[i]));
    bool ok = CheckSubplans(reference.back(), masks[i], nullptr);
    result.ops.Add(ok);
    result.correct &= ok;
    if (truth[i]) {
      accuracy.Add(reference.back().at(FullMask(queries[i])),
                   static_cast<double>(*truth[i]));
    }
  }

  fj::ZipfSampler zipf(queries.size(), 0.99);
  std::vector<fj::Rng> rngs;
  for (size_t t = 0; t < kSessions; ++t) rngs.emplace_back(args.seed, 101 + t);
  std::vector<std::vector<uint32_t>> drawn(kSessions);
  auto request = [&](size_t t) {
    size_t i = zipf.Sample(&rngs[t]);
    if (drawn[t].size() < kReplayRequests) {
      drawn[t].push_back(static_cast<uint32_t>(i));
    }
    auto got = clients[t]->EstimateSubplans(queries[i], masks[i]);
    return CheckSubplans(got, masks[i], &reference[i]);
  };
  double warm_s = WarmUpClosedLoop(kSessions, request);
  double setup_s = model.train_s + start_s + warm_s;
  for (auto& d : drawn) d.clear();

  fj::ServiceStats svc_before = service.Stats();
  fj::net::ServerStats net_before = server.Stats();
  LoopResult loop = ClosedLoop(kSessions, NumWindows(args.seconds),
                               kWindowSeconds, request, model.Toggle());
  fj::ServiceStats svc_after = service.Stats();
  fj::net::ServerStats net_after = server.Stats();
  OpCounts ops = loop.Ops();
  result.ops.Add(ops);
  result.correct &= ops.failed == 0;

  // The in-process answers must still match what was served remotely.
  for (size_t i = 0; i < queries.size(); ++i) {
    bool ok = CheckSubplans(service.EstimateSubplans(queries[i], masks[i]),
                            masks[i], &reference[i]);
    result.ops.Add(ok);
    result.correct &= ok;
  }

  std::vector<double> rates = loop.WindowRates();
  EmitEndToEnd(report, !args.trace, setup_s, model.bytes, result.ops,
               CpuPerOp::Of(loop), Median(rates), loop.WindowLatencies(),
               accuracy);
  if (!args.trace) return result;

  Layers layers;
  ServiceDelta d = ServiceDelta::Between(svc_before, svc_after);
  layers.FromService(d);
  layers.FromEstimator(*model.timed);
  auto net_stage = [&](fj::obs::Stage s) {
    size_t i = static_cast<size_t>(s);
    return net_after.stages[i].DeltaSince(net_before.stages[i]);
  };
  uint64_t frames = net_after.frames_received - net_before.frames_received;
  layers.net_decode_mean_us =
      StageMeanMicros(net_stage(fj::obs::Stage::kDecode), frames);
  layers.net_encode_mean_us =
      StageMeanMicros(net_stage(fj::obs::Stage::kEncode), frames);
  layers.net_socket_write_mean_us =
      StageMeanMicros(net_stage(fj::obs::Stage::kSocketWrite), frames);
  layers.net_bytes_per_req =
      frames == 0 ? 0.0
                  : static_cast<double>(
                        (net_after.bytes_received - net_before.bytes_received) +
                        (net_after.bytes_sent - net_before.bytes_sent)) /
                        static_cast<double>(frames);
  double client_mean = 0.0;
  for (const Sample& s : loop.samples) client_mean += s.latency_us;
  client_mean /= std::max<size_t>(loop.samples.size(), 1);
  layers.net_roundtrip_overhead_us = client_mean - d.latency.Mean();
  // Encode runs inside the respond span (the completion callback), so the
  // net stages outside the service are decode and the socket write.
  layers.Reconcile(d,
                   layers.net_decode_mean_us + layers.net_socket_write_mean_us,
                   client_mean);
  layers.OverheadFromWindows(rates);
  KeyStream stream;
  for (const auto& per_thread : drawn) {
    for (uint32_t i : per_thread) stream.emplace_back(&queries[i], &masks[i]);
  }
  ReplayKeys(stream, &layers);
  layers.Emit(report);
  return result;
}

// ---------------------------------------------------------------- plan-cold

/// Filter-eligible columns per IMDB-JOB table, as the workload generator
/// uses them (workload/imdb_job.cpp).
const std::unordered_map<std::string, std::vector<std::string>>&
ImdbFilterColumns() {
  static const std::unordered_map<std::string, std::vector<std::string>> cols{
      {"title", {"title", "kind_id", "production_year"}},
      {"name", {"name", "gender"}},
      {"char_name", {"name"}},
      {"company_name", {"name", "country_code"}},
      {"keyword", {"keyword"}},
      {"cast_info", {"role_id", "nr_order"}},
      {"movie_companies", {"company_type_id", "note"}},
      {"movie_info", {"info"}},
      {"movie_info_idx", {"info"}},
      {"info_type", {"info"}},
      {"movie_link", {"link_type_id"}},
      {"aka_name", {"name"}},
      {"aka_title", {"title", "kind_id"}},
      {"person_info", {"info"}},
      {"kind_type", {"kind"}},
      {"company_type", {"kind"}},
      {"role_type", {"role"}},
      {"link_type", {"link"}},
      {"comp_cast_type", {"kind"}},
  };
  return cols;
}

/// Queries in the ad-hoc pool: the run cycles through them, and their
/// sub-plan keys outnumber the service's 65,536-entry cache, so LRU has
/// evicted every key of a query before the pool comes back to it.
constexpr size_t kColdPool = 8192;

RunResult RunPlanCold(const Args& args, Report& report) {
  RunResult result;
  fj::ImdbJobOptions data;
  data.scale = kScale;
  auto wl = fj::MakeImdbJob(data);
  const std::vector<fj::Query>& queries = wl->queries;

  // Fresh seeded filters on the 113 queries' join shapes.
  fj::FilterGenOptions fopts;
  fopts.min_predicates = 1;
  fopts.max_predicates = 3;
  fopts.eq_probability = 0.35;
  fopts.like_probability = 0.45;
  fopts.or_probability = 0.2;
  fj::Rng rng(args.seed, 7);
  std::vector<fj::Query> pool;
  std::vector<std::vector<uint64_t>> pool_masks;
  size_t pool_subplans = 0;
  for (size_t k = 0; k < kColdPool; ++k) {
    const fj::Query& shape = queries[rng.Below(queries.size())];
    fj::Query q;
    for (const fj::TableRef& t : shape.tables()) q.AddTable(t.table, t.alias);
    for (const fj::JoinCondition& j : shape.joins()) {
      q.AddJoin(j.left.alias, j.left.column, j.right.alias, j.right.column);
    }
    for (const fj::TableRef& t : shape.tables()) {
      auto cols = ImdbFilterColumns().find(t.table);
      if (cols == ImdbFilterColumns().end() || !rng.Chance(0.85)) continue;
      q.SetFilter(t.alias, fj::GenerateFilter(wl->db.GetTable(t.table),
                                              cols->second, fopts, &rng));
    }
    pool_masks.push_back(fj::EnumerateConnectedSubsets(q, 1));
    pool_subplans += pool_masks.back().size();
    pool.push_back(std::move(q));
  }
  std::printf("  ad-hoc pool: %zu queries, %zu sub-plans\n", pool.size(),
              pool_subplans);

  std::vector<std::vector<uint64_t>> masks;
  std::vector<std::vector<std::optional<uint64_t>>> truth;
  for (const fj::Query& q : queries) {
    masks.push_back(fj::EnumerateConnectedSubsets(q, 1));
    truth.emplace_back();
    for (uint64_t m : masks.back()) {
      truth.back().push_back(fj::TrueCardinality(wl->db, q.InducedSubquery(m)));
    }
  }

  PinPlanThreads(args.trace);
  Model model(wl->db, args.trace);
  auto t0 = SteadyClock::now();
  fj::EstimatorServiceOptions so;
  so.num_threads = kWorkers;
  fj::EstimatorService service(model.served(), so);
  double start_s = Seconds(t0, SteadyClock::now());

  // Accuracy of every sub-plan of the 113 queries, served in query order on
  // an empty cache, so the values are deterministic.
  Accuracy accuracy;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto got = service.EstimateSubplans(queries[i], masks[i]);
    bool ok = CheckSubplans(got, masks[i], nullptr);
    result.ops.Add(ok);
    result.correct &= ok;
    if (!ok) continue;
    for (size_t k = 0; k < masks[i].size(); ++k) {
      if (truth[i][k]) {
        accuracy.Add(got.at(masks[i][k]), static_cast<double>(*truth[i][k]));
      }
    }
  }

  std::atomic<size_t> next{0};
  auto request = [&](size_t) {
    size_t i = next.fetch_add(1, std::memory_order_relaxed) % pool.size();
    auto got = service.EstimateSubplans(pool[i], pool_masks[i]);
    return CheckSubplans(got, pool_masks[i], nullptr);
  };
  double warm_s = WarmUpClosedLoop(kSessions, request);
  double setup_s = model.train_s + start_s + warm_s;

  size_t first_request = next.load();
  fj::ServiceStats svc_before = service.Stats();
  LoopResult loop = ClosedLoop(kSessions, NumWindows(args.seconds),
                               kWindowSeconds, request, model.Toggle());
  fj::ServiceStats svc_after = service.Stats();
  OpCounts ops = loop.Ops();
  result.ops.Add(ops);
  result.correct &= ops.failed == 0;

  std::vector<double> rates = loop.WindowRates();
  EmitEndToEnd(report, !args.trace, setup_s, model.bytes, result.ops,
               CpuPerOp::Of(loop), Median(rates), loop.WindowLatencies(),
               accuracy);
  if (!args.trace) return result;

  Layers layers;
  ServiceDelta d = ServiceDelta::Between(svc_before, svc_after);
  layers.FromService(d);
  double client_mean = 0.0;
  for (const Sample& s : loop.samples) client_mean += s.latency_us;
  client_mean /= std::max<size_t>(loop.samples.size(), 1);
  layers.Reconcile(d, 0.0, client_mean);
  layers.OverheadFromWindows(rates);
  KeyStream stream;
  for (size_t k = 0; k < kReplayRequests; ++k) {
    size_t i = (first_request + k) % pool.size();
    stream.emplace_back(&pool[i], &pool_masks[i]);
  }
  ReplayKeys(stream, &layers);

  // Update probe: the update protocol's layers on this workload's data,
  // through the open-loop target point-mixed uses (1 s of 300 reads/s with
  // 20% updates), so a gated workload measures them too.
  model.timed->on.store(false);
  MixedPhase probe;
  fj::ServiceStats probe_before = service.Stats();
  RunMixed(MixedTrace(*wl, args.seed + 99, 300, 1.0, 0.2), wl.get(),
           &model.served(), &service, true, &probe, &layers);
  fj::ServiceStats probe_after = service.Stats();
  result.ops.Add(probe.ops);
  result.correct &= probe.ops.failed == 0;
  layers.FinishUpdates(
      probe_after.cache.invalidations - probe_before.cache.invalidations,
      probe.updates_ms.size(), probe.updates_ms);
  layers.FromEstimator(*model.timed);
  layers.Emit(report);
  return result;
}

// -------------------------------------------------------------- point-mixed

RunResult RunPointMixed(const Args& args, Report& report) {
  RunResult result;
  fj::StatsCebOptions data;
  data.scale = kScale;
  auto wl = fj::MakeStatsCeb(data);
  const std::vector<fj::Query>& queries = wl->queries;
  std::vector<std::optional<uint64_t>> truth;
  for (const fj::Query& q : queries) {
    truth.push_back(fj::TrueCardinality(wl->db, q));
  }

  Model model(wl->db, args.trace);
  auto t0 = SteadyClock::now();
  fj::EstimatorServiceOptions so;
  so.num_threads = kWorkers;
  fj::EstimatorService service(model.served(), so);
  double start_s = Seconds(t0, SteadyClock::now());

  // Accuracy of single estimates on the data as generated, served in query
  // order before any update, so the values are deterministic.
  Accuracy accuracy;
  for (size_t i = 0; i < queries.size(); ++i) {
    double v = service.Estimate(queries[i]);
    result.ops.Add(ValidEstimate(v));
    if (truth[i]) accuracy.Add(v, static_cast<double>(*truth[i]));
  }

  Layers layers;
  auto run = [&](const fj::Trace& trace, bool traced, MixedPhase* phase) {
    RunMixed(trace, wl.get(), &model.served(), &service, traced, phase,
             &layers);
  };

  // Warm-up: read-only traffic at the nominal rate for at least 3 s, then
  // until the read median of the last two half-second phases agrees within
  // 20% (at most 5 s).
  auto warm_start = SteadyClock::now();
  std::vector<double> warm_p50;
  for (uint64_t i = 0; i < 10; ++i) {
    MixedPhase phase;
    run(MixedTrace(*wl, args.seed * 7919 + i, kRungs[kNominalRung], 0.5, 0.0),
        false, &phase);
    result.ops.Add(phase.ops);
    warm_p50.push_back(Median(phase.reads_us));
    size_t n = warm_p50.size();
    if (n >= 6 && std::abs(warm_p50[n - 1] - warm_p50[n - 2]) <=
                      0.2 * std::max(warm_p50[n - 1], warm_p50[n - 2])) {
      break;
    }
  }
  double warm_s = Seconds(warm_start, SteadyClock::now());
  std::printf("  warm-up: %.2f s, %zu phases, last read p50 %.1f us\n",
              warm_s, warm_p50.size(), warm_p50.back());
  double setup_s = model.train_s + start_s + warm_s;

  MixedPhase nominal;
  double sustained = 0.0;  // reads/s of the highest sustained rung
  size_t all_updates = 0;
  double nominal_cpu_s = 0.0;
  fj::ServiceStats svc_before = service.Stats();
  if (!args.trace) {
    for (size_t k = 0; k < std::size(kRungs); ++k) {
      MixedPhase phase;
      double cpu0 = ProcessCpuSeconds();
      run(MixedTrace(*wl, args.seed * 1000 + k, kRungs[k],
                     args.seconds * kRungShare[k], kUpdateFraction),
          false, &phase);
      if (k == kNominalRung) nominal_cpu_s = ProcessCpuSeconds() - cpu0;
      result.ops.Add(phase.ops);
      bool held = RungSustained(phase.reads_us, 0.99, kReadLimitUs,
                                phase.offered, phase.achieved);
      std::printf("  rung %5.0f reads/s: offered %.0f ops/s, achieved %.0f, "
                  "read p50 %.1f us, p99 %.1f us (n=%zu), %zu updates, %s\n",
                  kRungs[k], phase.offered, phase.achieved,
                  Quantile(phase.reads_us, 0.5),
                  Quantile(phase.reads_us, 0.99), phase.reads_us.size(),
                  phase.updates_ms.size(), held ? "sustained" : "missed");
      if (held) sustained = std::max(sustained, kRungs[k]);
      if (k == kNominalRung) nominal = std::move(phase);
    }
  } else {
    // Traced run: the nominal rung only, in four parts alternating untraced
    // and traced.
    std::vector<double> off_p50;
    MixedPhase off, on;
    for (uint64_t part = 0; part < 4; ++part) {
      bool traced = part % 2 == 1;
      model.timed->on.store(traced);
      MixedPhase phase;
      run(MixedTrace(*wl, args.seed * 1000 + 10 + part, kRungs[kNominalRung],
                     args.seconds / 4, kUpdateFraction),
          traced, &phase);
      result.ops.Add(phase.ops);
      all_updates += phase.updates_ms.size();
      MixedPhase& side = traced ? on : off;
      side.reads_us.insert(side.reads_us.end(), phase.reads_us.begin(),
                           phase.reads_us.end());
      side.read_sched_s.insert(side.read_sched_s.end(),
                               phase.read_sched_s.begin(),
                               phase.read_sched_s.end());
      side.wall_s += phase.wall_s;
      if (traced) {
        nominal.reads_us.insert(nominal.reads_us.end(),
                                phase.reads_us.begin(), phase.reads_us.end());
        nominal.updates_ms.insert(nominal.updates_ms.end(),
                                  phase.updates_ms.begin(),
                                  phase.updates_ms.end());
        nominal.lateness_us.insert(nominal.lateness_us.end(),
                                   phase.lateness_us.begin(),
                                   phase.lateness_us.end());
      } else {
        // The untraced parts' windows give the spread.
        std::vector<std::vector<double>> windows;
        for (size_t i = 0; i < phase.reads_us.size(); ++i) {
          size_t w =
              static_cast<size_t>(phase.read_sched_s[i] / kWindowSeconds);
          if (windows.size() <= w) windows.resize(w + 1);
          windows[w].push_back(phase.reads_us[i]);
        }
        for (const auto& w : windows) {
          if (SupportsQuantile(w.size(), 0.5)) off_p50.push_back(Median(w));
        }
      }
    }
    model.timed->on.store(false);
    nominal.read_sched_s = on.read_sched_s;
    nominal.wall_s = on.wall_s;
    double off_med = Median(off.reads_us), on_med = Median(on.reads_us);
    layers.SetOverhead(off_med > 0.0 ? on_med / off_med - 1.0 : 0.0,
                       QuartilesOf(off_p50).RelSpread(), "read p50");
  }
  fj::ServiceStats svc_after = service.Stats();

  // Every estimate served after the updates is still valid.
  for (const fj::Query& q : queries) {
    bool ok = ValidEstimate(service.Estimate(q));
    result.ops.Add(ok);
  }
  result.correct &= result.ops.failed == 0;

  if (!args.trace) {
    std::printf("  sustained: %.0f reads/s (highest rung with read p99 <= "
                "%.0f us and achieved >= 99%% of offered)\n",
                sustained, kReadLimitUs);
  }
  PrintDistribution("updates", nominal.updates_ms, "ms");
  // The open-loop dispatcher spins toward each arrival, so CPU per read
  // includes its spinning.
  size_t reads = std::max<size_t>(nominal.reads_us.size(), 1);
  CpuPerOp cpu;
  cpu.raw_us = nominal_cpu_s * 1e6 / static_cast<double>(reads);
  EmitEndToEnd(report, !args.trace, setup_s, model.bytes, result.ops, cpu,
               nominal.ReadRate(), nominal.Windows(), accuracy);
  if (!args.trace) return result;

  ServiceDelta d = ServiceDelta::Between(svc_before, svc_after);
  layers.FromService(d);
  layers.FromEstimator(*model.timed);
  layers.FinishUpdates(d.invalidations, all_updates, nominal.updates_ms);
  layers.dispatch_lateness_p99_us = Quantile(nominal.lateness_us, 0.99);
  double read_mean = 0.0, late_mean = 0.0;
  for (double v : nominal.reads_us) read_mean += v;
  for (double v : nominal.lateness_us) late_mean += v;
  read_mean /= std::max<size_t>(nominal.reads_us.size(), 1);
  late_mean /= std::max<size_t>(nominal.lateness_us.size(), 1);
  layers.Reconcile(d, late_mean, read_mean);
  KeyStream stream;
  fj::Trace replay = MixedTrace(*wl, args.seed, kRungs[kNominalRung],
                                1.0, 0.0);
  for (const fj::LoadOp& op : replay.ops) {
    stream.emplace_back(&queries[op.index % queries.size()], nullptr);
  }
  ReplayKeys(stream, &layers);
  layers.Emit(report);
  return result;
}

}  // namespace
}  // namespace fjbench

int main(int argc, char** argv) {
  using namespace fjbench;
  try {
    Args args = ParseArgs(argc, argv);
    std::printf("== fjbench %s seed=%llu seconds=%g trace=%d\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.seconds,
                args.trace ? 1 : 0);
    Report report;
    RunResult result;
    if (args.workload == "plan-warm-tcp") {
      result = RunPlanWarmTcp(args, report);
    } else if (args.workload == "plan-cold") {
      result = RunPlanCold(args, report);
    } else if (args.workload == "point-mixed") {
      result = RunPointMixed(args, report);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    if (!result.correct) std::printf("  RESPONSE CHECK FAILED\n");
    report.PrintJson(result.correct, result.ops);
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fjbench: %s\n", e.what());
    return 2;
  }
}
