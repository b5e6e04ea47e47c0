#include "net/protocol.h"

#include "net/socket.h"

namespace fj::net {
namespace {

constexpr size_t kHeaderBytes = 1 + 8;  // type + request id

bool KnownMsgType(uint8_t t) {
  return t >= static_cast<uint8_t>(MsgType::kHello) &&
         t <= static_cast<uint8_t>(MsgType::kError);
}

}  // namespace

std::vector<uint8_t> EncodeFrame(MsgType type, uint64_t request_id,
                                 const std::vector<uint8_t>& body) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(kHeaderBytes + body.size()));
  w.U8(static_cast<uint8_t>(type));
  w.U64(request_id);
  w.Raw(body.data(), body.size());
  return w.Take();
}

std::optional<Frame> ReadFrame(int fd, uint32_t max_frame_bytes) {
  uint8_t len_bytes[4];
  if (!RecvAll(fd, len_bytes, sizeof(len_bytes))) return std::nullopt;
  ByteReader len_reader(len_bytes, sizeof(len_bytes));
  uint32_t length = len_reader.U32();
  if (length < kHeaderBytes) throw ProtocolError("frame shorter than header");
  if (length > max_frame_bytes) throw ProtocolError("frame exceeds limit");

  std::vector<uint8_t> payload(length);
  if (!RecvAll(fd, payload.data(), payload.size())) return std::nullopt;
  ByteReader r(payload);
  Frame frame;
  uint8_t type = r.U8();
  if (!KnownMsgType(type)) throw ProtocolError("unknown message type");
  frame.type = static_cast<MsgType>(type);
  frame.request_id = r.U64();
  frame.body.assign(payload.begin() + kHeaderBytes, payload.end());
  return frame;
}

bool WriteFrame(int fd, MsgType type, uint64_t request_id,
                const std::vector<uint8_t>& body) {
  std::vector<uint8_t> frame = EncodeFrame(type, request_id, body);
  return SendAll(fd, frame.data(), frame.size());
}

std::vector<uint8_t> EncodeHello(const Hello& hello) {
  ByteWriter w;
  w.U32(hello.magic);
  w.U16(hello.version);
  return w.Take();
}

Hello DecodeHello(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  Hello hello;
  hello.magic = r.U32();
  hello.version = r.U16();
  r.ExpectEnd();
  if (hello.magic != kProtocolMagic) {
    throw ProtocolError("bad protocol magic");
  }
  return hello;
}

namespace {

uint8_t ReqFlags(bool want_trace) {
  return want_trace ? kReqFlagWantTrace : 0;
}

bool DecodeReqFlags(ByteReader* r) {
  uint8_t flags = r->U8();
  if ((flags & ~kReqFlagWantTrace) != 0) {
    throw ProtocolError("unknown request flag bits set");
  }
  return (flags & kReqFlagWantTrace) != 0;
}

/// Decodes the trailing `u8 has_trace, [trace]` section of a response body.
bool DecodeRespTrace(ByteReader* r, obs::RequestTrace* trace) {
  uint8_t has_trace = r->U8();
  if (has_trace > 1) throw ProtocolError("bad has-trace byte");
  if (has_trace != 0) *trace = obs::DecodeRequestTrace(r);
  return has_trace != 0;
}

}  // namespace

std::vector<uint8_t> EncodeEstimateReq(const std::string& model,
                                       const Query& query, bool want_trace) {
  ByteWriter w;
  w.Str(model);
  w.U8(ReqFlags(want_trace));
  EncodeQuery(query, &w);
  return w.Take();
}

EstimateReq DecodeEstimateReq(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  EstimateReq req;
  req.model = r.Str();
  req.want_trace = DecodeReqFlags(&r);
  req.query = DecodeQuery(&r);
  r.ExpectEnd();
  return req;
}

std::vector<uint8_t> EncodeEstimateRespBody(double estimate) {
  ByteWriter w;
  w.F64(estimate);
  return w.Take();
}

std::vector<uint8_t> EncodeEstimateResp(double estimate) {
  std::vector<uint8_t> body = EncodeEstimateRespBody(estimate);
  AppendRespTrace(&body, nullptr);
  return body;
}

EstimateResp DecodeEstimateRespFull(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  EstimateResp resp;
  resp.estimate = r.F64();
  resp.has_trace = DecodeRespTrace(&r, &resp.trace);
  r.ExpectEnd();
  return resp;
}

double DecodeEstimateResp(const std::vector<uint8_t>& body) {
  return DecodeEstimateRespFull(body).estimate;
}

std::vector<uint8_t> EncodeSubplansReq(const std::string& model,
                                       const Query& query,
                                       const std::vector<uint64_t>& masks,
                                       bool want_trace) {
  ByteWriter w;
  w.Str(model);
  w.U8(ReqFlags(want_trace));
  EncodeQuery(query, &w);
  w.U32(static_cast<uint32_t>(masks.size()));
  for (uint64_t mask : masks) w.U64(mask);
  return w.Take();
}

SubplansReq DecodeSubplansReq(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  SubplansReq req;
  req.model = r.Str();
  req.want_trace = DecodeReqFlags(&r);
  req.query = DecodeQuery(&r);
  uint32_t n = r.U32();
  if (static_cast<size_t>(n) * 8 > r.remaining()) {
    throw ProtocolError("mask count exceeds frame");
  }
  req.masks.reserve(n);
  for (uint32_t i = 0; i < n; ++i) req.masks.push_back(r.U64());
  r.ExpectEnd();
  return req;
}

std::vector<uint8_t> EncodeSubplansRespBody(
    const std::unordered_map<uint64_t, double>& estimates) {
  ByteWriter w;
  w.U32(static_cast<uint32_t>(estimates.size()));
  for (const auto& [mask, estimate] : estimates) {
    w.U64(mask);
    w.F64(estimate);
  }
  return w.Take();
}

std::vector<uint8_t> EncodeSubplansResp(
    const std::unordered_map<uint64_t, double>& estimates) {
  std::vector<uint8_t> body = EncodeSubplansRespBody(estimates);
  AppendRespTrace(&body, nullptr);
  return body;
}

SubplansResp DecodeSubplansRespFull(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  SubplansResp resp;
  uint32_t n = r.U32();
  if (static_cast<size_t>(n) * 16 > r.remaining()) {
    throw ProtocolError("estimate count exceeds frame");
  }
  resp.estimates.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    uint64_t mask = r.U64();
    resp.estimates[mask] = r.F64();
  }
  resp.has_trace = DecodeRespTrace(&r, &resp.trace);
  r.ExpectEnd();
  return resp;
}

std::unordered_map<uint64_t, double> DecodeSubplansResp(
    const std::vector<uint8_t>& body) {
  return std::move(DecodeSubplansRespFull(body).estimates);
}

void AppendRespTrace(std::vector<uint8_t>* body,
                     const obs::RequestTrace* trace) {
  ByteWriter w;
  w.U8(trace != nullptr ? 1 : 0);
  if (trace != nullptr) obs::EncodeRequestTrace(*trace, &w);
  std::vector<uint8_t> tail = w.Take();
  body->insert(body->end(), tail.begin(), tail.end());
}

std::vector<uint8_t> EncodeNotifyUpdateReq(const std::string& model,
                                           const std::string& table) {
  ByteWriter w;
  w.Str(model);
  w.Str(table);
  return w.Take();
}

NotifyUpdateReq DecodeNotifyUpdateReq(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  NotifyUpdateReq req;
  req.model = r.Str();
  req.table = r.Str();
  r.ExpectEnd();
  return req;
}

std::vector<uint8_t> EncodeStatsReq(const std::string& model) {
  ByteWriter w;
  w.Str(model);
  return w.Take();
}

std::string DecodeStatsReq(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  std::string model = r.Str();
  r.ExpectEnd();
  return model;
}

std::vector<uint8_t> EncodeNotifyUpdateResp(uint64_t epoch) {
  ByteWriter w;
  w.U64(epoch);
  return w.Take();
}

uint64_t DecodeNotifyUpdateResp(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  uint64_t epoch = r.U64();
  r.ExpectEnd();
  return epoch;
}

std::vector<uint8_t> EncodeServiceStats(const ServiceStats& stats) {
  ByteWriter w;
  w.U64(stats.requests);
  w.U64(stats.subplan_requests);
  w.U64(stats.subplans_estimated);
  w.U64(stats.errors);
  w.U64(stats.updates_notified);
  w.U64(stats.epoch);
  w.U64(stats.pending_requests);
  w.U64(stats.queue_depth);
  w.U64(stats.cache.hits);
  w.U64(stats.cache.misses);
  w.U64(stats.cache.evictions);
  w.U64(stats.cache.invalidations);
  w.U64(stats.cache.entries);
  w.U64(stats.slow_requests);
  w.U64(stats.slow_suppressed);
  obs::EncodeHistogramSnapshot(stats.latency, &w);
  w.U8(static_cast<uint8_t>(obs::kNumStages));
  for (const obs::HistogramSnapshot& stage : stats.stages) {
    obs::EncodeHistogramSnapshot(stage, &w);
  }
  return w.Take();
}

ServiceStats DecodeServiceStats(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  ServiceStats stats;
  stats.requests = r.U64();
  stats.subplan_requests = r.U64();
  stats.subplans_estimated = r.U64();
  stats.errors = r.U64();
  stats.updates_notified = r.U64();
  stats.epoch = r.U64();
  stats.pending_requests = r.U64();
  stats.queue_depth = r.U64();
  stats.cache.hits = r.U64();
  stats.cache.misses = r.U64();
  stats.cache.evictions = r.U64();
  stats.cache.invalidations = r.U64();
  stats.cache.entries = r.U64();
  stats.slow_requests = r.U64();
  stats.slow_suppressed = r.U64();
  stats.latency = obs::DecodeHistogramSnapshot(&r);
  uint8_t stages = r.U8();
  if (stages != obs::kNumStages) {
    throw ProtocolError("stats stage count mismatch");
  }
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    stats.stages[i] = obs::DecodeHistogramSnapshot(&r);
  }
  r.ExpectEnd();
  // Quantiles are derived locally from the shipped histogram, never read
  // off the wire.
  stats.RefreshQuantiles();
  return stats;
}

std::vector<uint8_t> EncodeError(const std::string& message) {
  ByteWriter w;
  w.Str(message);
  return w.Take();
}

std::string DecodeError(const std::vector<uint8_t>& body) {
  ByteReader r(body);
  std::string message = r.Str();
  r.ExpectEnd();
  return message;
}

}  // namespace fj::net
