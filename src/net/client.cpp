#include "net/client.h"

#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

namespace fj::net {
namespace {

// The client whose receiver loop runs on this thread, if any.
thread_local const EstimatorClient* receiving_for = nullptr;

}  // namespace

EstimatorClient::EstimatorClient(EstimatorClientOptions options)
    : options_(std::move(options)) {}

EstimatorClient::~EstimatorClient() {
  std::vector<ConnectionPtr> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A callback the teardown runs must not dial a connection nobody would
    // close.
    closing_ = true;
    dead = DetachLocked();
  }
  Reap(std::move(dead));
}

void EstimatorClient::Connect() {
  std::unique_lock<std::mutex> lock(mu_);
  ConnectLocked(lock);
}

void EstimatorClient::Disconnect() {
  std::vector<ConnectionPtr> dead;
  {
    std::lock_guard<std::mutex> lock(mu_);
    dead = DetachLocked();
  }
  Reap(std::move(dead));
}

std::vector<EstimatorClient::ConnectionPtr> EstimatorClient::DetachLocked() {
  std::vector<ConnectionPtr> dead = std::move(retired_);
  retired_.clear();
  if (conn_ != nullptr) {
    ShutdownSocket(conn_->fd);
    dead.push_back(std::move(conn_));
  }
  connected_.store(false);
  return dead;
}

void EstimatorClient::Reap(std::vector<ConnectionPtr> dead) {
  for (ConnectionPtr& conn : dead) {
    if (conn->receiver.get_id() == std::this_thread::get_id()) {
      std::lock_guard<std::mutex> lock(mu_);
      retired_.push_back(std::move(conn));
      continue;
    }
    // The receiver fails the connection's requests before it exits.
    if (conn->receiver.joinable()) conn->receiver.join();
    CloseSocket(conn->fd);
  }
}

void EstimatorClient::ConnectLocked(std::unique_lock<std::mutex>& lock) {
  if (connected_.load()) return;
  if (closing_) throw NetError("client is shutting down");
  // A previous connection died: reap it first. Another thread may connect
  // while mu_ is released, so look again after each reap.
  while (conn_ != nullptr) {
    std::vector<ConnectionPtr> dead = DetachLocked();
    lock.unlock();
    Reap(std::move(dead));
    lock.lock();
    if (connected_.load()) return;
  }

  int attempts = options_.reconnect_attempts < 1 ? 1
                                                 : options_.reconnect_attempts;
  int fd = -1;
  for (int attempt = 1;; ++attempt) {
    try {
      fd = ConnectSocket(options_.endpoint);
      break;
    } catch (const NetError&) {
      if (attempt >= attempts) throw;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(options_.reconnect_backoff_ms));
    }
  }

  // Handshake, synchronously, before the receiver takes over the socket.
  if (!WriteFrame(fd, MsgType::kHello, 0, EncodeHello({}))) {
    CloseSocket(fd);
    throw NetError("connection closed during handshake");
  }
  std::optional<Frame> ack;
  try {
    ack = ReadFrame(fd, options_.max_frame_bytes);
  } catch (...) {
    CloseSocket(fd);
    throw;
  }
  if (!ack.has_value()) {
    CloseSocket(fd);
    throw NetError("connection closed during handshake");
  }
  if (ack->type == MsgType::kError) {
    std::string message = DecodeError(ack->body);
    CloseSocket(fd);
    throw ProtocolError("server rejected handshake: " + message);
  }
  if (ack->type != MsgType::kHelloAck) {
    CloseSocket(fd);
    throw ProtocolError("expected hello ack");
  }
  Hello hello;
  try {
    hello = DecodeHello(ack->body);
  } catch (...) {
    CloseSocket(fd);
    throw;
  }
  if (hello.version != kProtocolVersion) {
    CloseSocket(fd);
    throw ProtocolError("server speaks protocol version " +
                        std::to_string(hello.version) + ", client speaks " +
                        std::to_string(kProtocolVersion));
  }

  conn_ = std::make_unique<Connection>();
  conn_->fd = fd;
  // The receiver marks the client disconnected under mu_, so never before
  // this marks it connected.
  conn_->receiver = std::thread([this, conn = conn_.get()] {
    ReceiverLoop(conn);
  });
  connected_.store(true);
}

void EstimatorClient::ThrowIfReceiverThread(const char* what) const {
  if (receiving_for == this) {
    throw std::logic_error(
        std::string("EstimatorClient::") + what +
        " called on the client's receiver thread (e.g. inside a completion "
        "callback): only that thread can complete the call, so it would "
        "wait forever. Use the Async variants there, or move the blocking "
        "call to another thread.");
  }
}

void EstimatorClient::ReceiverLoop(Connection* conn) {
  receiving_for = this;
  const char* reason = "connection lost";
  try {
    while (auto frame = ReadFrame(conn->fd, options_.max_frame_bytes)) {
      if (frame->request_id == 0) {
        // Connection-level error: the server is about to drop us.
        reason = "connection closed by server";
        break;
      }
      std::unordered_map<uint64_t, Pending>::node_type pending;
      {
        std::lock_guard<std::mutex> lock(conn->pending_mu);
        pending = conn->pending.extract(frame->request_id);
      }
      // Responses for ids we no longer track are dropped.
      if (!pending.empty()) Complete(pending.mapped(), *frame);
    }
  } catch (const ProtocolError&) {
    reason = "malformed frame from server";
  }
  {
    // Requests register under mu_ only while the client is connected, so
    // once this connection is marked dead none can join its sweep below.
    // A detached connection was already replaced or closed.
    std::lock_guard<std::mutex> lock(mu_);
    if (conn_.get() == conn) connected_.store(false);
  }
  FailAllPending(*conn, reason);
}

void EstimatorClient::FailAllPending(Connection& conn, const char* reason) {
  std::unordered_map<uint64_t, Pending> failed;
  {
    std::lock_guard<std::mutex> lock(conn.pending_mu);
    failed.swap(conn.pending);
  }
  for (auto& [id, pending] : failed) {
    pending.done(nullptr, std::make_exception_ptr(NetError(reason)));
  }
}

void EstimatorClient::Complete(Pending& pending, const Frame& frame) {
  std::exception_ptr error;
  try {
    if (frame.type == MsgType::kError) {
      throw RemoteError(DecodeError(frame.body));
    }
    if (frame.type != pending.expect) {
      throw ProtocolError("response type does not match request");
    }
  } catch (...) {
    error = std::current_exception();
  }
  const Frame* response = error == nullptr ? &frame : nullptr;
  pending.done(response, std::move(error));
}

void EstimatorClient::Send(MsgType type, const std::vector<uint8_t>& body,
                           Pending pending) {
  uint64_t id = next_id_.fetch_add(1);
  std::unique_lock<std::mutex> lock(mu_);
  // Reconnect (if needed) BEFORE registering the op, so it lands on the
  // connection it is written to. Registration still precedes the write, so
  // a response racing the send always finds its op. Lock order
  // mu_ -> pending_mu; the receiver takes them one at a time.
  ConnectLocked(lock);
  Connection& conn = *conn_;
  {
    std::lock_guard<std::mutex> pending_lock(conn.pending_mu);
    conn.pending.emplace(id, std::move(pending));
  }
  if (WriteFrame(conn.fd, type, id, body)) return;
  // The receiver sweeps this connection's ops only after taking mu_, so the
  // op is still registered: erasing it here keeps exactly one outcome.
  {
    std::lock_guard<std::mutex> pending_lock(conn.pending_mu);
    conn.pending.erase(id);
  }
  connected_.store(false);  // the next request redials
  throw NetError("connection lost while sending request");
}

template <class T>
void EstimatorClient::Call(
    MsgType type, const std::vector<uint8_t>& body, MsgType expect,
    T (*decode)(const std::vector<uint8_t>&),
    std::function<void(T, std::exception_ptr)> done) {
  Send(type, body,
       {expect, [decode, done = std::move(done)](const Frame* frame,
                                                 std::exception_ptr error) {
          T value{};
          if (error == nullptr) {
            try {
              value = decode(frame->body);
            } catch (...) {
              error = std::current_exception();
            }
          }
          done(std::move(value), std::move(error));
        }});
}

template <class T>
std::future<T> EstimatorClient::Call(MsgType type,
                                     const std::vector<uint8_t>& body,
                                     MsgType expect,
                                     T (*decode)(const std::vector<uint8_t>&)) {
  auto promise = std::make_shared<std::promise<T>>();
  std::future<T> future = promise->get_future();
  Call<T>(type, body, expect, decode,
          [promise](T value, std::exception_ptr error) {
            if (error != nullptr) {
              promise->set_exception(std::move(error));
            } else {
              promise->set_value(std::move(value));
            }
          });
  return future;
}

std::future<double> EstimatorClient::EstimateAsync(const Query& query) {
  return EstimateAsync(options_.model, query);
}

std::future<double> EstimatorClient::EstimateAsync(const std::string& model,
                                                   const Query& query) {
  return Call(MsgType::kEstimateReq, EncodeEstimateReq(model, query),
              MsgType::kEstimateResp, DecodeEstimateResp);
}

void EstimatorClient::EstimateAsync(const std::string& model,
                                    const Query& query,
                                    EstimateCallback done) {
  // When the write fails, Send() erases the op and throws — but the
  // receiver's disconnect sweep may have raced it and already run the
  // callback. The once-guard keeps the "exactly once" contract either way,
  // and the catch turns the throw into a callback delivery so drivers have
  // a single completion path.
  auto once = std::make_shared<std::atomic<bool>>(false);
  auto deliver = [once, done = std::move(done)](double estimate,
                                                std::exception_ptr error) {
    if (once->exchange(true)) return;
    // The callback has had its one delivery, so an exception it throws is
    // dropped: thrown on the receiver thread it would end the process.
    try {
      done(estimate, std::move(error));
    } catch (...) {
    }
  };
  try {
    Call<double>(MsgType::kEstimateReq, EncodeEstimateReq(model, query),
                 MsgType::kEstimateResp, DecodeEstimateResp, deliver);
  } catch (...) {
    deliver(0.0, std::current_exception());
  }
}

double EstimatorClient::Estimate(const Query& query) {
  return Estimate(options_.model, query);
}

double EstimatorClient::Estimate(const std::string& model,
                                 const Query& query) {
  ThrowIfReceiverThread("Estimate");
  return EstimateAsync(model, query).get();
}

std::future<std::unordered_map<uint64_t, double>>
EstimatorClient::EstimateSubplansAsync(const Query& query,
                                       const std::vector<uint64_t>& masks) {
  return EstimateSubplansAsync(options_.model, query, masks);
}

std::future<std::unordered_map<uint64_t, double>>
EstimatorClient::EstimateSubplansAsync(const std::string& model,
                                       const Query& query,
                                       const std::vector<uint64_t>& masks) {
  return Call(MsgType::kSubplansReq, EncodeSubplansReq(model, query, masks),
              MsgType::kSubplansResp, DecodeSubplansResp);
}

std::unordered_map<uint64_t, double> EstimatorClient::EstimateSubplans(
    const Query& query, const std::vector<uint64_t>& masks) {
  return EstimateSubplans(options_.model, query, masks);
}

std::unordered_map<uint64_t, double> EstimatorClient::EstimateSubplans(
    const std::string& model, const Query& query,
    const std::vector<uint64_t>& masks) {
  ThrowIfReceiverThread("EstimateSubplans");
  return EstimateSubplansAsync(model, query, masks).get();
}

std::future<EstimatorClient::TracedEstimate>
EstimatorClient::EstimateTracedAsync(const std::string& model,
                                     const Query& query) {
  return Call(MsgType::kEstimateReq,
              EncodeEstimateReq(model, query, /*want_trace=*/true),
              MsgType::kEstimateResp, DecodeEstimateRespFull);
}

EstimatorClient::TracedEstimate EstimatorClient::EstimateTraced(
    const Query& query) {
  return EstimateTraced(options_.model, query);
}

EstimatorClient::TracedEstimate EstimatorClient::EstimateTraced(
    const std::string& model, const Query& query) {
  ThrowIfReceiverThread("EstimateTraced");
  return EstimateTracedAsync(model, query).get();
}

std::future<EstimatorClient::TracedSubplans>
EstimatorClient::EstimateSubplansTracedAsync(
    const std::string& model, const Query& query,
    const std::vector<uint64_t>& masks) {
  return Call(MsgType::kSubplansReq,
              EncodeSubplansReq(model, query, masks, /*want_trace=*/true),
              MsgType::kSubplansResp, DecodeSubplansRespFull);
}

EstimatorClient::TracedSubplans EstimatorClient::EstimateSubplansTraced(
    const Query& query, const std::vector<uint64_t>& masks) {
  return EstimateSubplansTraced(options_.model, query, masks);
}

EstimatorClient::TracedSubplans EstimatorClient::EstimateSubplansTraced(
    const std::string& model, const Query& query,
    const std::vector<uint64_t>& masks) {
  ThrowIfReceiverThread("EstimateSubplansTraced");
  return EstimateSubplansTracedAsync(model, query, masks).get();
}

uint64_t EstimatorClient::NotifyUpdate(const std::string& table) {
  return NotifyUpdate(options_.model, table);
}

uint64_t EstimatorClient::NotifyUpdate(const std::string& model,
                                       const std::string& table) {
  ThrowIfReceiverThread("NotifyUpdate");
  return Call(MsgType::kNotifyUpdateReq, EncodeNotifyUpdateReq(model, table),
              MsgType::kNotifyUpdateResp, DecodeNotifyUpdateResp)
      .get();
}

ServiceStats EstimatorClient::Stats() { return Stats(options_.model); }

ServiceStats EstimatorClient::Stats(const std::string& model) {
  ThrowIfReceiverThread("Stats");
  return Call(MsgType::kStatsReq, EncodeStatsReq(model), MsgType::kStatsResp,
              DecodeServiceStats)
      .get();
}

}  // namespace fj::net
