#include "obs/metrics_export.h"

#include <utility>
#include <vector>

#include <unistd.h>

#include <cstdio>

#include "net/server.h"
#include "obs/flight_recorder.h"
#include "obs/monitor.h"
#include "obs/request_trace.h"
#include "service/estimator_service.h"
#include "service/model_registry.h"

namespace fj::obs {
namespace {

MetricSample Counter(std::string name, std::string help,
                     std::vector<MetricLabel> labels, uint64_t value) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricKind::kCounter;
  s.help = std::move(help);
  s.labels = std::move(labels);
  s.value = static_cast<double>(value);
  return s;
}

MetricSample Gauge(std::string name, std::string help,
                   std::vector<MetricLabel> labels, double value) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricKind::kGauge;
  s.help = std::move(help);
  s.labels = std::move(labels);
  s.value = value;
  return s;
}

MetricSample Histogram(std::string name, std::string help,
                       std::vector<MetricLabel> labels,
                       HistogramSnapshot hist) {
  MetricSample s;
  s.name = std::move(name);
  s.kind = MetricKind::kHistogram;
  s.help = std::move(help);
  s.labels = std::move(labels);
  s.hist = std::move(hist);
  return s;
}

void AppendServiceSamples(const std::string& model,
                          const EstimatorService& service,
                          std::vector<MetricSample>* out) {
  ServiceStats stats = service.Stats();
  std::vector<MetricLabel> m = {{"model", model}};
  out->push_back(Counter("fj_requests_total",
                         "Single-query estimate requests completed.", m,
                         stats.requests));
  out->push_back(Counter("fj_subplan_requests_total",
                         "Batched sub-plan requests completed.", m,
                         stats.subplan_requests));
  out->push_back(Counter("fj_subplans_estimated_total",
                         "Sub-plan estimates produced inside batches.", m,
                         stats.subplans_estimated));
  out->push_back(Counter("fj_errors_total",
                         "Requests completed with an error.", m,
                         stats.errors));
  out->push_back(Counter("fj_updates_notified_total",
                         "Data-update notifications received.", m,
                         stats.updates_notified));
  out->push_back(Counter("fj_slow_requests_total",
                         "Slow-request log lines emitted.", m,
                         stats.slow_requests));
  out->push_back(Gauge("fj_epoch", "Current statistics epoch.", m,
                       static_cast<double>(stats.epoch)));
  out->push_back(Gauge("fj_pending_requests",
                       "Requests accepted but not yet served.", m,
                       static_cast<double>(stats.pending_requests)));
  out->push_back(Gauge("fj_queue_depth", "Requests waiting in the queue.", m,
                       static_cast<double>(stats.queue_depth)));
  out->push_back(Counter("fj_cache_hits_total", "Estimate-cache hits.", m,
                         stats.cache.hits));
  out->push_back(Counter("fj_cache_misses_total", "Estimate-cache misses.",
                         m, stats.cache.misses));
  out->push_back(Counter("fj_cache_evictions_total",
                         "Estimate-cache evictions.", m,
                         stats.cache.evictions));
  out->push_back(Counter("fj_cache_invalidations_total",
                         "Epoch-based cache invalidations.", m,
                         stats.cache.invalidations));
  out->push_back(Gauge("fj_cache_entries", "Live estimate-cache entries.", m,
                       static_cast<double>(stats.cache.entries)));
  out->push_back(Histogram("fj_request_latency_micros",
                           "End-to-end request latency (microseconds).", m,
                           stats.latency));
  for (size_t i = 0; i < kNumStages; ++i) {
    // Empty stages stay off the scrape: an in-process service never fills
    // the net stages, and a tracing-disabled one fills none.
    if (stats.stages[i].count == 0) continue;
    std::vector<MetricLabel> labels = m;
    labels.push_back({"stage", StageName(static_cast<Stage>(i))});
    out->push_back(Histogram("fj_stage_latency_micros",
                             "Per-stage request latency (microseconds).",
                             std::move(labels), stats.stages[i]));
  }
}

}  // namespace

void ExportService(MetricsRegistry* registry, std::string model,
                   const EstimatorService& service) {
  registry->AddCollector(
      [model = std::move(model), &service](std::vector<MetricSample>* out) {
        AppendServiceSamples(model, service, out);
      });
}

void ExportRegistryModels(MetricsRegistry* registry,
                          const ModelRegistry& models) {
  registry->AddCollector([&models](std::vector<MetricSample>* out) {
    // Names re-resolved per scrape: models registered after the endpoint
    // came up start scraping without re-wiring. Services are never removed
    // from a registry, so the Find() result stays valid.
    for (const std::string& name : models.ModelNames()) {
      const EstimatorService* service = models.Find(name);
      if (service != nullptr) AppendServiceSamples(name, *service, out);
    }
  });
}

void ExportServer(MetricsRegistry* registry,
                  const net::EstimatorServer& server) {
  registry->AddCollector([&server](std::vector<MetricSample>* out) {
    net::ServerStats stats = server.Stats();
    out->push_back(Counter("fj_server_connections_accepted_total",
                           "Client connections accepted.", {},
                           stats.connections_accepted));
    out->push_back(Counter("fj_server_connections_rejected_total",
                           "Connections rejected at the client cap.", {},
                           stats.connections_rejected));
    out->push_back(Gauge("fj_server_connections_active",
                         "Currently open client connections.", {},
                         static_cast<double>(stats.connections_active)));
    out->push_back(Counter("fj_server_frames_received_total",
                           "Request frames received.", {},
                           stats.frames_received));
    out->push_back(Counter("fj_server_responses_sent_total",
                           "Response frames written.", {},
                           stats.responses_sent));
    out->push_back(Counter("fj_server_bytes_received_total",
                           "Bytes read off client sockets.", {},
                           stats.bytes_received));
    out->push_back(Counter("fj_server_bytes_sent_total",
                           "Bytes written to client sockets.", {},
                           stats.bytes_sent));
    out->push_back(Counter("fj_server_protocol_errors_total",
                           "Connections dropped for protocol violations.",
                           {}, stats.protocol_errors));
    out->push_back(Counter("fj_server_request_errors_total",
                           "Per-request error responses sent.", {},
                           stats.request_errors));
    for (size_t i = 0; i < kNumStages; ++i) {
      if (stats.stages[i].count == 0) continue;
      out->push_back(Histogram(
          "fj_server_stage_latency_micros",
          "Net-side per-stage latency (microseconds).",
          {{"stage", StageName(static_cast<Stage>(i))}}, stats.stages[i]));
    }
  });
}

void ExportMonitor(MetricsRegistry* registry, const ServingMonitor& monitor) {
  registry->AddCollector([&monitor](std::vector<MetricSample>* out) {
    SloStatus slo = monitor.slo_status();
    for (const SloBurn& b : slo.objectives) {
      std::vector<MetricLabel> labels = {{"objective", b.name}};
      out->push_back(Gauge("fj_slo_fast_burn",
                           "Error-budget burn rate over the fast window.",
                           labels, b.fast_burn));
      out->push_back(Gauge("fj_slo_slow_burn",
                           "Error-budget burn rate over the slow window.",
                           labels, b.slow_burn));
      out->push_back(Gauge("fj_slo_burning",
                           "1 while both burn windows exceed 1.", labels,
                           b.Burning() ? 1.0 : 0.0));
    }
    out->push_back(Gauge("fj_health_state",
                         "Serving health: 0=ok 1=degraded 2=overloaded.", {},
                         static_cast<double>(static_cast<uint8_t>(
                             monitor.health_state()))));
    out->push_back(Counter("fj_health_transitions_total",
                           "Published health-state transitions.", {},
                           monitor.health().transitions()));
    out->push_back(Counter("fj_monitor_ticks_total",
                           "Monitor sampling ticks processed.", {},
                           monitor.ticks()));
  });
}

namespace {

/// Resident set size from /proc/self/statm (second field, pages); 0 when
/// procfs is unavailable — a missing gauge beats a wrong one.
uint64_t ReadRssBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long size_pages = 0, rss_pages = 0;
  int matched = std::fscanf(f, "%llu %llu", &size_pages, &rss_pages);
  std::fclose(f);
  if (matched != 2) return 0;
  long page = ::sysconf(_SC_PAGESIZE);
  return rss_pages * static_cast<uint64_t>(page > 0 ? page : 4096);
}

}  // namespace

void ExportProcess(MetricsRegistry* registry, uint64_t start_micros) {
  registry->AddCollector([start_micros](std::vector<MetricSample>* out) {
    out->push_back(Gauge("fj_server_start_time",
                         "Monotonic micros at server start; with "
                         "fj_process_uptime_seconds it anchors every "
                         "time-series t_us to a scrape instant.",
                         {}, static_cast<double>(start_micros)));
    uint64_t now = MonotonicMicros();
    double uptime =
        now > start_micros ? static_cast<double>(now - start_micros) / 1e6
                           : 0.0;
    out->push_back(Gauge("fj_process_uptime_seconds",
                         "Seconds since server start.", {}, uptime));
    out->push_back(Gauge("fj_process_rss_bytes",
                         "Resident set size (/proc/self/statm).", {},
                         static_cast<double>(ReadRssBytes())));
  });
}

void ExportFlightRecorder(MetricsRegistry* registry,
                          const FlightRecorder& recorder) {
  registry->AddCollector([&recorder](std::vector<MetricSample>* out) {
    out->push_back(Counter("fj_flight_records_appended_total",
                           "Requests captured by the flight recorder.", {},
                           recorder.appended()));
  });
}

}  // namespace fj::obs
