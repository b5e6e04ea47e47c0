#include "service/estimator_service.h"

#include <array>
#include <bit>
#include <optional>
#include <stdexcept>
#include <utility>

namespace fj {
namespace {

// A completion callback that fulfils `promise`: each future-returning
// overload is its callback overload plus this.
template <class T>
auto Fulfil(std::shared_ptr<std::promise<T>> promise) {
  return [promise = std::move(promise)](T value, std::exception_ptr error) {
    if (error != nullptr) {
      promise->set_exception(std::move(error));
    } else {
      promise->set_value(std::move(value));
    }
  };
}

}  // namespace

EstimatorService::EstimatorService(const CardinalityEstimator& estimator,
                                   EstimatorServiceOptions options)
    : estimator_(estimator),
      options_(options),
      cache_(options.cache_capacity, options.cache_shards, &epochs_),
      queue_(options.queue_capacity),
      slow_log_(options.slow_request_micros, options.slow_log_sink,
                options.model_name, options.slow_log_per_second,
                options.slow_log_burst) {
  size_t threads = options_.num_threads == 0 ? 1 : options_.num_threads;
  workers_.reserve(threads);
  worker_ids_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
    worker_ids_.push_back(workers_.back().get_id());
  }
}

EstimatorService::~EstimatorService() { Shutdown(); }

void EstimatorService::Shutdown() {
  queue_.Close();
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  workers_.clear();
}

void EstimatorService::Submit(std::unique_ptr<Request> req) {
  pending_.fetch_add(1, std::memory_order_acq_rel);
  if (!queue_.Push(std::move(req))) {
    pending_.fetch_sub(1, std::memory_order_acq_rel);
    throw std::runtime_error("EstimatorService: submit after shutdown");
  }
}

void EstimatorService::ThrowIfWorkerThread(const char* what) const {
  std::thread::id self = std::this_thread::get_id();
  for (std::thread::id id : worker_ids_) {
    if (id == self) {
      throw std::logic_error(
          std::string("EstimatorService::") + what +
          " called from a service worker thread (e.g. inside a completion "
          "callback or a re-entrant estimator): the call would wait on the "
          "pool it is running on and deadlock a single-thread pool. Use the "
          "Async variants from workers, or move the blocking call off the "
          "service's threads.");
    }
  }
}

std::future<double> EstimatorService::EstimateAsync(Query query) {
  auto promise = std::make_shared<std::promise<double>>();
  std::future<double> result = promise->get_future();
  EstimateAsync(std::move(query), Fulfil(std::move(promise)));
  return result;
}

void EstimatorService::EstimateAsync(
    Query query, EstimateCallback done,
    std::shared_ptr<obs::RequestTrace> trace_sink) {
  if (!done) throw std::invalid_argument("EstimateAsync: empty callback");
  auto req = std::make_unique<Request>();
  req->query = std::move(query);
  req->single_cb = std::move(done);
  req->trace_sink = std::move(trace_sink);
  Submit(std::move(req));
}

double EstimatorService::Estimate(const Query& query) {
  ThrowIfWorkerThread("Estimate");
  return EstimateAsync(query).get();
}

std::future<std::unordered_map<uint64_t, double>>
EstimatorService::EstimateSubplansAsync(Query query,
                                        std::vector<uint64_t> masks) {
  auto promise =
      std::make_shared<std::promise<std::unordered_map<uint64_t, double>>>();
  auto result = promise->get_future();
  EstimateSubplansAsync(std::move(query), std::move(masks),
                        Fulfil(std::move(promise)));
  return result;
}

void EstimatorService::EstimateSubplansAsync(
    Query query, std::vector<uint64_t> masks, SubplansCallback done,
    std::shared_ptr<obs::RequestTrace> trace_sink) {
  if (!done) {
    throw std::invalid_argument("EstimateSubplansAsync: empty callback");
  }
  auto req = std::make_unique<Request>();
  req->query = std::move(query);
  req->masks = std::move(masks);
  req->batch_cb = std::move(done);
  req->trace_sink = std::move(trace_sink);
  Submit(std::move(req));
}

std::unordered_map<uint64_t, double> EstimatorService::EstimateSubplans(
    const Query& query, const std::vector<uint64_t>& masks) {
  ThrowIfWorkerThread("EstimateSubplans");
  return EstimateSubplansAsync(query, masks).get();
}

void EstimatorService::WorkerLoop() {
  while (auto req = queue_.Pop()) {
    Serve(**req);
    // The request counts as pending until after its callback ran, so
    // Drain() returning means every accepted future is ready.
    if (pending_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> lock(drain_mu_);
      drained_.notify_all();
    }
  }
}

void EstimatorService::Drain() {
  ThrowIfWorkerThread("Drain");
  std::unique_lock<std::mutex> lock(drain_mu_);
  drained_.wait(lock, [&] {
    return pending_.load(std::memory_order_acquire) == 0;
  });
}

void EstimatorService::Serve(Request& req) {
  const bool tracing = options_.enable_tracing;
  // Spans are recorded straight into the request's sink (so pre-filled
  // stages like the net server's decode span survive) or a stack-local
  // trace when the caller didn't ask for one.
  obs::RequestTrace local_trace;
  obs::RequestTrace* trace =
      req.trace_sink != nullptr ? req.trace_sink.get() : &local_trace;
  // Queue wait = time since submission, read as the worker picks the
  // request up (Serve runs right after the pop).
  trace->Add(obs::Stage::kQueueWait,
             static_cast<uint64_t>(req.submitted.Micros()));

  // Counters and latency are recorded BEFORE the callback runs so a client
  // that just resolved its future observes its own request in Stats().
  // The callback runs OUTSIDE the try block: estimation errors must flow
  // through the error argument, and a throwing callback must not re-enter
  // the error path and be invoked twice.
  auto run = [&](const char* kind, size_t masks,
                 std::atomic<uint64_t>& served, auto serve, auto& done) {
    decltype(serve()) result{};
    std::exception_ptr error;
    try {
      result = serve();
      served.fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      error = std::current_exception();
    }
    FinishRequest(req, *trace, tracing, kind, masks,
                  [&] { done(std::move(result), error); });
  };
  obs::RequestTrace* kernel_trace = tracing ? trace : nullptr;
  if (req.batch_cb) {
    run("subplans", req.masks.size(), subplan_requests_,
        [&] { return ServeBatch(req.query, req.masks, kernel_trace); },
        req.batch_cb);
  } else {
    // A single estimate is the batch of the full mask: it shares the cache
    // entry of every batch that asks for the same full join.
    uint64_t all = req.query.AllAliases();
    run("estimate", 0, requests_,
        [&] { return ServeBatch(req.query, {all}, kernel_trace).at(all); },
        req.single_cb);
  }
}

void EstimatorService::FinishRequest(Request& req, obs::RequestTrace& trace,
                                     bool tracing, const char* kind,
                                     size_t masks,
                                     const std::function<void()>& complete) {
  trace.total_micros = static_cast<uint64_t>(req.submitted.Micros());
  latency_.Record(trace.total_micros);
  if (tracing) {
    // Only the service-owned stages: a net-path sink arrives with decode
    // pre-filled, which belongs to the server's histograms, not ours.
    for (obs::Stage stage :
         {obs::Stage::kQueueWait, obs::Stage::kCacheProbe,
          obs::Stage::kEstimate}) {
      uint64_t micros = trace.Get(stage);
      if (micros != 0) {
        stage_hist_[static_cast<size_t>(stage)].Record(micros);
      }
    }
  }
  // The respond span (the completion callback) cannot be part of the
  // request's own trace/latency — it runs after both are sealed — so it
  // feeds only the aggregate stage histogram.
  if (tracing) {
    obs::SpanTimer respond;
    complete();
    stage_hist_[static_cast<size_t>(obs::Stage::kRespond)].Record(
        respond.ElapsedMicros());
  } else {
    complete();
  }
  // Fingerprint computed only for offenders and sampled requests, never on
  // the fast path, and at most once when a request is both.
  std::optional<QueryFingerprint> fingerprint;
  auto fp = [&] {
    if (!fingerprint) fingerprint = req.query.Fingerprint();
    return *fingerprint;
  };
  bool slow = slow_log_.enabled() &&
              trace.total_micros >= slow_log_.threshold_micros();
  if (slow) slow_log_.MaybeLog(kind, fp(), masks, trace);
  uint64_t finished = finished_.fetch_add(1, std::memory_order_relaxed);
  if (options_.flight_recorder != nullptr) {
    // Every Nth request plus every slow-log offender: the sampled stream
    // keeps the recent ring representative, the offenders make sure the
    // requests worth dumping are never sampled away.
    bool sampled = options_.flight_sample_every != 0 &&
                   finished % options_.flight_sample_every == 0;
    if (sampled || slow) {
      options_.flight_recorder->Append(kind, fp(), masks,
                                       options_.model_name.c_str(), trace);
    }
  }
}

uint64_t EstimatorService::NotifyUpdate(const std::string& table_name) {
  // The epoch registry bumps its global epoch exactly once per call, so the
  // epoch IS the notification count — no second counter that could drift
  // from it when a Stats() snapshot races a notification.
  return epochs_.NotifyUpdate(table_name);
}

void EstimatorService::InvalidateAll() { cache_.Clear(); }

std::unordered_map<uint64_t, double> EstimatorService::ServeBatch(
    const Query& query, const std::vector<uint64_t>& masks,
    obs::RequestTrace* trace) {
  // Masks arrive from untrusted clients. A bit at or past NumTables() names
  // no alias: keying would silently ignore it (so the mask could hit
  // another mask's cache entry), and the insert loop below would index
  // alias_bits out of bounds. Reject the whole request, cache on or off.
  uint64_t all = query.AllAliases();
  for (uint64_t mask : masks) {
    if ((mask & ~all) != 0) {
      throw std::out_of_range(
          "EstimateSubplans: mask has bits past the query's alias count");
    }
  }
  if (!options_.cache_enabled) {
    std::unordered_map<uint64_t, double> out =
        estimator_.EstimateSubplansTraced(query, masks, trace);
    subplans_estimated_.fetch_add(masks.size(), std::memory_order_relaxed);
    return out;
  }
  std::unordered_map<uint64_t, double> out;
  out.reserve(masks.size());

  // Resolve each sub-plan against the cache by its canonical fingerprint;
  // a sub-plan estimated under a *different* parent query still hits. The
  // cached value is canonical per fingerprint (first writer wins): because
  // the estimator's join-order tie-breaking follows the parent's alias bit
  // order, a hit from another parent can differ from what recomputing under
  // *this* parent would give — but every cached value is a valid bound
  // produced by the same trained model.
  // Snapshot the epoch BEFORE computing: if an update lands while the
  // estimator runs, the entries inserted below are tagged with the
  // pre-update epoch and die on their next lookup instead of serving a stale
  // estimate forever.
  uint64_t epoch = epochs_.Epoch();
  // The cache-probe span covers the whole resolve loop: building the keyer
  // (each query component digested once), per-mask keys plus the sharded
  // lookups.
  obs::SpanTimer probe_span;
  SubplanKeyer keyer(query);
  std::vector<uint64_t> miss_masks;
  std::vector<QueryFingerprint> miss_fps;
  for (uint64_t mask : masks) {
    QueryFingerprint fp = keyer.Key(mask);
    if (auto cached = cache_.Lookup(fp)) {
      out.emplace(mask, *cached);
    } else {
      if (miss_masks.empty()) {
        // Sized once at the first miss; an all-hit batch allocates none.
        miss_masks.reserve(masks.size());
        miss_fps.reserve(masks.size());
      }
      miss_masks.push_back(mask);
      miss_fps.push_back(fp);
    }
  }
  probe_span.Record(trace, obs::Stage::kCacheProbe);

  // The misses go to the estimator in one call so its shared computation is
  // preserved (FactorJoin estimates each leaf factor once for the whole
  // batch).
  if (!miss_masks.empty()) {
    std::unordered_map<uint64_t, double> fresh =
        estimator_.EstimateSubplansTraced(query, miss_masks, trace);
    // Table bits per alias, resolved once per batch by table name: the
    // per-entry loop below must stay free of registry locks and
    // allocations (a batch can carry ~10k masks).
    std::array<uint64_t, Query::kMaxTables> alias_bits{};
    for (size_t i = 0; i < query.NumTables(); ++i) {
      alias_bits[i] = epochs_.BitFor(query.tables()[i].table);
    }
    // Cache insertion is probe-side bookkeeping, not estimation: it counts
    // into the cache-probe stage together with the lookup loop above.
    obs::SpanTimer insert_span;
    uint64_t produced = 0;
    for (size_t i = 0; i < miss_masks.size(); ++i) {
      auto it = fresh.find(miss_masks[i]);
      if (it == fresh.end()) continue;  // estimator skipped the mask
      uint64_t table_bits = 0;
      uint64_t m = miss_masks[i];
      while (m != 0) {
        table_bits |= alias_bits[static_cast<size_t>(std::countr_zero(m))];
        m &= m - 1;
      }
      cache_.Insert(miss_fps[i], it->second, table_bits, epoch);
      ++produced;
    }
    insert_span.Record(trace, obs::Stage::kCacheProbe);
    subplans_estimated_.fetch_add(produced, std::memory_order_relaxed);
    // The estimator's entries move into the response node by node, with no
    // copy or allocation. A mask already answered by a hit keeps the hit (a
    // repeated mask can miss, then hit an entry another worker inserted).
    out.merge(fresh);
  }
  return out;
}

ServiceStats EstimatorService::Stats() const {
  ServiceStats stats;
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.subplan_requests = subplan_requests_.load(std::memory_order_relaxed);
  stats.subplans_estimated =
      subplans_estimated_.load(std::memory_order_relaxed);
  stats.errors = errors_.load(std::memory_order_relaxed);
  // One atomic read feeds both fields: NotifyUpdate bumps the global epoch
  // exactly once per call, so the epoch IS the notification count and a
  // snapshot can never observe them mid-update (the old separate counter
  // could disagree with the epoch when Stats() raced a notification).
  uint64_t epoch = epochs_.Epoch();
  stats.updates_notified = epoch;
  stats.epoch = epoch;
  stats.pending_requests = pending_.load(std::memory_order_acquire);
  stats.queue_depth = queue_.Size();
  stats.slow_requests = slow_log_.logged();
  stats.slow_suppressed = slow_log_.suppressed();
  stats.cache = cache_.Stats();
  stats.latency = latency_.Snapshot();
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    stats.stages[i] = stage_hist_[i].Snapshot();
  }
  stats.RefreshQuantiles();
  return stats;
}

}  // namespace fj
