#include "net/server.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace fj::net {
namespace {

std::string ExceptionMessage(std::exception_ptr e) {
  try {
    std::rethrow_exception(std::move(e));
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown error";
  }
}

/// Bytes the frame occupied on the wire: u32 length prefix + u8 type +
/// u64 request id + body.
uint64_t FrameWireBytes(const Frame& frame) {
  return 4 + 1 + 8 + frame.body.size();
}

}  // namespace

EstimatorServer::EstimatorServer(ModelRegistry& registry,
                                 EstimatorServerOptions options)
    : registry_(&registry), options_(std::move(options)) {}

EstimatorServer::EstimatorServer(EstimatorService& service,
                                 EstimatorServerOptions options)
    : owned_registry_(std::make_unique<ModelRegistry>()),
      options_(std::move(options)) {
  owned_registry_->AddExternal("default", service);
  registry_ = owned_registry_.get();
}

EstimatorServer::~EstimatorServer() { Stop(); }

void EstimatorServer::Start() {
  if (started_.exchange(true)) {
    throw std::logic_error("EstimatorServer: already started");
  }
  start_micros_.store(obs::MonotonicMicros());
  listener_ = std::make_unique<ListenSocket>(options_.endpoint);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  reaper_thread_ = std::thread([this] { ReaperLoop(); });
}

void EstimatorServer::Stop() {
  if (!started_.load() || stopping_.exchange(true)) return;
  // listener_ can be null if Start()'s bind threw after setting started_.
  if (listener_ != nullptr) listener_->Close();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    // stopping_ is set; taking the lock orders it before the reaper's next
    // wait, so the wake-up cannot be lost.
    std::lock_guard<std::mutex> lock(connections_mu_);
  }
  reap_cv_.notify_all();
  if (reaper_thread_.joinable()) reaper_thread_.join();

  std::vector<ConnectionPtr> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    connections.swap(connections_);
  }
  for (const ConnectionPtr& conn : connections) {
    // Wakes the reader out of RecvAll; the reader then closes the outbox,
    // which lets the writer (and any worker blocked on a full outbox) go.
    ShutdownSocket(conn->fd);
  }
  for (const ConnectionPtr& conn : connections) {
    if (conn->reader.joinable()) conn->reader.join();
    if (conn->writer.joinable()) conn->writer.join();
    CloseSocket(conn->fd);
  }
  // Completion callbacks still in flight capture `this` (for the error
  // counter) and their connection. The connections are shared_ptr-kept
  // alive by the callbacks; the server must not be destroyed under them —
  // wait for every dispatched request to finish, on every registered
  // model's service. Their responses land in closed outboxes and are
  // dropped.
  registry_->DrainAll();
}

Endpoint EstimatorServer::endpoint() const {
  Endpoint ep = options_.endpoint;
  if (!ep.IsUnix() && listener_) ep.port = listener_->port();
  return ep;
}

uint16_t EstimatorServer::port() const {
  return listener_ ? listener_->port() : options_.endpoint.port;
}

ServerStats EstimatorServer::Stats() const {
  ServerStats stats;
  stats.start_micros = start_micros_.load();
  stats.connections_accepted = connections_accepted_.load();
  stats.connections_rejected = connections_rejected_.load();
  stats.frames_received = frames_received_.load();
  stats.responses_sent = responses_sent_.load();
  stats.bytes_received = bytes_received_.load();
  stats.bytes_sent = bytes_sent_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.request_errors = request_errors_.load();
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    stats.stages[i] = stage_hist_[i].Snapshot();
  }
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    stats.connections_active = ActiveLocked();
  }
  return stats;
}

size_t EstimatorServer::ActiveLocked() const {
  // Connections whose reader exited stay listed until the reaper joins
  // them; they are closed, so they do not count.
  return static_cast<size_t>(
      std::count_if(connections_.begin(), connections_.end(),
                    [](const ConnectionPtr& conn) {
                      return !conn->done.load();
                    }));
}

void EstimatorServer::ReaperLoop() {
  std::unique_lock<std::mutex> lock(connections_mu_);
  while (true) {
    auto finished = connections_.end();
    reap_cv_.wait(lock, [&] {
      finished = std::find_if(
          connections_.begin(), connections_.end(),
          [](const ConnectionPtr& conn) { return conn->writer_exited; });
      return stopping_.load() || finished != connections_.end();
    });
    if (stopping_.load()) return;  // Stop() closes what is left
    ConnectionPtr conn = std::move(*finished);
    connections_.erase(finished);
    lock.unlock();
    // The writer exits only after the reader closed the outbox, so both are
    // done with the socket.
    conn->reader.join();
    conn->writer.join();
    CloseSocket(conn->fd);
    lock.lock();
  }
}

void EstimatorServer::AcceptLoop() {
  while (!stopping_.load()) {
    int fd = listener_->Accept();
    if (fd < 0) {
      if (stopping_.load()) break;
      continue;  // transient accept failure
    }
    auto conn = std::make_shared<Connection>(fd, options_.outbox_capacity);
    // Threads start under the lock, so the reaper never sees a listed
    // connection whose thread handles are still being assigned.
    std::lock_guard<std::mutex> lock(connections_mu_);
    if (ActiveLocked() >= options_.max_clients) {
      connections_rejected_.fetch_add(1);
      CloseSocket(fd);
      continue;
    }
    connections_accepted_.fetch_add(1);
    conn->writer = std::thread([this, conn] { WriterLoop(conn); });
    conn->reader = std::thread([this, conn] { ReaderLoop(conn); });
    connections_.push_back(std::move(conn));
  }
}

void EstimatorServer::SendError(const ConnectionPtr& conn,
                                uint64_t request_id,
                                const std::string& message) {
  conn->Send(EncodeFrame(MsgType::kError, request_id, EncodeError(message)));
}

void EstimatorServer::ReaderLoop(ConnectionPtr conn) {
  try {
    // Handshake: the first frame must be a kHello with our magic; answer
    // with kHelloAck. A version we don't speak gets a useful error.
    std::optional<Frame> first = ReadFrame(conn->fd, options_.max_frame_bytes);
    if (first.has_value()) {
      bytes_received_.fetch_add(FrameWireBytes(*first));
      if (first->type != MsgType::kHello) {
        throw ProtocolError("expected hello before requests");
      }
      Hello hello = DecodeHello(first->body);
      if (hello.version != kProtocolVersion) {
        throw ProtocolError(
            "unsupported protocol version " + std::to_string(hello.version) +
            " (server speaks " + std::to_string(kProtocolVersion) + ")");
      }
      conn->Send(EncodeFrame(MsgType::kHelloAck, first->request_id,
                             EncodeHello({})));
      while (auto frame = ReadFrame(conn->fd, options_.max_frame_bytes)) {
        frames_received_.fetch_add(1);
        bytes_received_.fetch_add(FrameWireBytes(*frame));
        Dispatch(conn, *frame);
      }
    }
  } catch (const ProtocolError& e) {
    protocol_errors_.fetch_add(1);
    SendError(conn, 0, e.what());
  } catch (const std::exception& e) {
    // e.g. the service rejected a submit after Shutdown(): tell the client
    // and drop the connection; other connections are unaffected.
    SendError(conn, 0, e.what());
  }
  // Drop this connection: no more responses will be queued (in-flight
  // callbacks see a closed outbox and drop theirs), a worker blocked
  // pushing to a full outbox is released, and the writer — which owns the
  // socket shutdown so queued frames (like the error above) still flush —
  // drains and exits.
  conn->outbox.Close();
  conn->done.store(true);
}

void EstimatorServer::WriterLoop(ConnectionPtr conn) {
  while (auto frame = conn->outbox.Pop()) {
    obs::SpanTimer write_span;
    if (!SendAll(conn->fd, frame->data(), frame->size())) {
      // Peer stopped reading: wake the reader so the connection tears down,
      // then keep draining the outbox so completion callbacks never block
      // on a dead connection.
      ShutdownSocket(conn->fd);
      while (conn->outbox.Pop().has_value()) {
      }
      break;
    }
    stage_hist_[static_cast<size_t>(obs::Stage::kSocketWrite)].Record(
        write_span.ElapsedMicros());
    bytes_sent_.fetch_add(frame->size());
    responses_sent_.fetch_add(1);
  }
  // Outbox closed by the reader and fully flushed: now end the connection
  // so the peer sees EOF only after the last queued frame, and hand the
  // connection to the reaper.
  ShutdownSocket(conn->fd);
  {
    std::lock_guard<std::mutex> lock(connections_mu_);
    conn->writer_exited = true;
  }
  reap_cv_.notify_all();
}

EstimatorService* EstimatorServer::Resolve(const ConnectionPtr& conn,
                                           uint64_t request_id,
                                           const std::string& model) {
  EstimatorService* service = registry_->Find(model);
  if (service == nullptr) {
    request_errors_.fetch_add(1);
    SendError(conn, request_id,
              "unknown model '" + model + "' (this server serves: " +
                  registry_->JoinedModelNames() + ")");
  }
  return service;
}

template <class Decode, class Encode, class Submit>
void EstimatorServer::ServeEstimate(const ConnectionPtr& conn,
                                    const Frame& frame, Decode decode,
                                    Encode encode, MsgType resp_type,
                                    Submit submit) {
  const uint64_t id = frame.request_id;
  obs::SpanTimer decode_span;
  auto req = decode(frame.body);
  uint64_t decode_micros = decode_span.ElapsedMicros();
  stage_hist_[static_cast<size_t>(obs::Stage::kDecode)].Record(decode_micros);
  EstimatorService* service = Resolve(conn, id, req.model);
  if (service == nullptr) return;
  // A trace-requesting client gets the sink pre-filled with the decode
  // span; the service's workers add their stages, and the completion
  // callback below adds encode before sealing the response.
  std::shared_ptr<obs::RequestTrace> sink;
  if (req.want_trace) {
    sink = std::make_shared<obs::RequestTrace>();
    sink->Add(obs::Stage::kDecode, decode_micros);
  }
  submit(
      *service, req,
      [this, conn, id, sink, encode, resp_type](auto result,
                                                std::exception_ptr error) {
        if (error != nullptr) {
          request_errors_.fetch_add(1);
          SendError(conn, id, ExceptionMessage(std::move(error)));
          return;
        }
        obs::SpanTimer encode_span;
        std::vector<uint8_t> body = encode(result);
        uint64_t encode_micros = encode_span.ElapsedMicros();
        stage_hist_[static_cast<size_t>(obs::Stage::kEncode)].Record(
            encode_micros);
        if (sink != nullptr) sink->Add(obs::Stage::kEncode, encode_micros);
        AppendRespTrace(&body, sink.get());
        conn->Send(EncodeFrame(resp_type, id, body));
      },
      sink);
}

void EstimatorServer::Dispatch(const ConnectionPtr& conn, const Frame& frame) {
  if (frame.request_id == 0) {
    throw ProtocolError("requests must carry a nonzero request id");
  }
  const uint64_t id = frame.request_id;
  switch (frame.type) {
    case MsgType::kEstimateReq:
      ServeEstimate(conn, frame, DecodeEstimateReq, EncodeEstimateRespBody,
                    MsgType::kEstimateResp,
                    [](EstimatorService& service, EstimateReq& req,
                       auto done, auto sink) {
                      service.EstimateAsync(std::move(req.query),
                                            std::move(done), std::move(sink));
                    });
      return;
    case MsgType::kSubplansReq:
      ServeEstimate(conn, frame, DecodeSubplansReq, EncodeSubplansRespBody,
                    MsgType::kSubplansResp,
                    [](EstimatorService& service, SubplansReq& req,
                       auto done, auto sink) {
                      service.EstimateSubplansAsync(
                          std::move(req.query), std::move(req.masks),
                          std::move(done), std::move(sink));
                    });
      return;
    case MsgType::kNotifyUpdateReq: {
      // Remote NotifyUpdate covers the cache-invalidation half of the
      // update protocol; mutating the estimator itself stays a server-local
      // operation (see docs/ARCHITECTURE.md). Epochs are per model: the
      // notification only invalidates the named model's cache.
      NotifyUpdateReq req = DecodeNotifyUpdateReq(frame.body);
      EstimatorService* service = Resolve(conn, id, req.model);
      if (service == nullptr) return;
      uint64_t epoch = service->NotifyUpdate(req.table);
      conn->Send(EncodeFrame(MsgType::kNotifyUpdateResp, id,
                             EncodeNotifyUpdateResp(epoch)));
      return;
    }
    case MsgType::kStatsReq: {
      EstimatorService* service =
          Resolve(conn, id, DecodeStatsReq(frame.body));
      if (service == nullptr) return;
      conn->Send(EncodeFrame(MsgType::kStatsResp, id,
                             EncodeServiceStats(service->Stats())));
      return;
    }
    default:
      throw ProtocolError("unexpected message type from client");
  }
}

}  // namespace fj::net
