// EstimatorClient: the optimizer-process side of remote estimation.
//
// Mirrors the EstimatorService API (Estimate, EstimateSubplans,
// NotifyUpdate, Stats) over one framed socket connection, plus the two
// things a remote client needs that an in-process service does not:
//
//  * Pipelining. Every request is assigned an id and registered as one
//    pending completion callback before it is sent; any number of requests
//    can be outstanding on the one connection, and a background receiver
//    thread correlates responses (which the server sends in completion
//    order) back to their callbacks. The future-returning methods pass a
//    callback that decodes the response and fulfils a promise, and the
//    blocking wrappers are just submit + get. One pipelined client can keep
//    a whole server worker pool busy.
//
//  * Reconnect-on-failure. A lost connection fails every outstanding future
//    with NetError, and the next request (or an explicit Connect()) dials
//    again — with options.reconnect_attempts × backoff — and re-runs the
//    protocol handshake. Requests are never silently retried: a failed
//    NotifyUpdate must surface, not double-bump the epoch.
//
// Thread-safe: any number of threads may issue requests concurrently; sends
// are serialized on one mutex, receives happen on the receiver thread.
// Completion callbacks run on that receiver thread, which is the only
// thread that can fulfil a future, so the blocking methods throw
// std::logic_error when called from it instead of waiting on themselves.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "net/protocol.h"
#include "net/socket.h"

namespace fj::net {

/// A per-request failure the *server* reported (estimator exception,
/// service shutdown); the connection itself is still healthy.
class RemoteError : public std::runtime_error {
 public:
  explicit RemoteError(const std::string& what)
      : std::runtime_error("remote: " + what) {}
};

struct EstimatorClientOptions {
  Endpoint endpoint;
  uint32_t max_frame_bytes = kDefaultMaxFrameBytes;
  /// Dial attempts per (re)connect before giving up with NetError.
  int reconnect_attempts = 3;
  /// Sleep between dial attempts.
  int reconnect_backoff_ms = 50;
  /// Model-id stamped on every request issued through the model-less
  /// method overloads ("" = the server's default model). The per-call
  /// overloads override it per request — one connection can interleave
  /// requests to any number of the server's models.
  std::string model;
};

class EstimatorClient {
 public:
  /// Does not dial; the first request (or Connect()) does.
  explicit EstimatorClient(EstimatorClientOptions options);
  ~EstimatorClient();

  EstimatorClient(const EstimatorClient&) = delete;
  EstimatorClient& operator=(const EstimatorClient&) = delete;

  /// Dials and handshakes if not connected. Throws NetError after
  /// reconnect_attempts failures and ProtocolError on a handshake the
  /// server rejects. Idempotent while connected.
  void Connect();

  /// Closes the connection and fails its outstanding requests with
  /// NetError; their callbacks have run when it returns (called from a
  /// completion callback, they run once that callback returns). A callback
  /// may issue a new request, which dials a new connection. Idempotent.
  void Disconnect();

  bool IsConnected() const { return connected_.load(); }

  /// Pipelined single estimate against options.model. The future throws
  /// RemoteError (server-side failure) or NetError (connection lost before
  /// the response).
  std::future<double> EstimateAsync(const Query& query);
  double Estimate(const Query& query);
  /// Per-call model routing (one connection, many models).
  std::future<double> EstimateAsync(const std::string& model,
                                    const Query& query);
  double Estimate(const std::string& model, const Query& query);

  /// Completion hook for drivers that must observe each response the moment
  /// it lands (open-loop load generation): futures can only be harvested in
  /// submission order, which would smear completion times. `error` is
  /// nullptr on success, else RemoteError/NetError.
  using EstimateCallback = std::function<void(double estimate,
                                              std::exception_ptr error)>;

  /// Pipelined single estimate delivering through `done` instead of a
  /// future. `done` runs exactly once — on the receiver thread when a
  /// response or disconnect arrives, or on the calling thread when the send
  /// itself fails (the failure is delivered as the error argument; nothing
  /// is thrown). Keep it quick and non-blocking: it runs on the thread that
  /// drains the socket. An exception it throws is dropped.
  void EstimateAsync(const std::string& model, const Query& query,
                     EstimateCallback done);

  /// Pipelined batched sub-plan estimates (masks in Query::tables() bit
  /// order, exactly like EstimatorService::EstimateSubplans).
  std::future<std::unordered_map<uint64_t, double>> EstimateSubplansAsync(
      const Query& query, const std::vector<uint64_t>& masks);
  std::unordered_map<uint64_t, double> EstimateSubplans(
      const Query& query, const std::vector<uint64_t>& masks);
  std::future<std::unordered_map<uint64_t, double>> EstimateSubplansAsync(
      const std::string& model, const Query& query,
      const std::vector<uint64_t>& masks);
  std::unordered_map<uint64_t, double> EstimateSubplans(
      const std::string& model, const Query& query,
      const std::vector<uint64_t>& masks);

  // ------------------------------------------------------- traced requests
  //
  // Same requests with the protocol v3 want-trace flag set: the response
  // carries the server-side stage breakdown (decode, queue wait, cache
  // probe, estimate kernel, encode — respond and socket write happen after
  // the response body is sealed and only feed the server's aggregate
  // histograms). `trace` is empty (has_trace false) when the serving model
  // runs with tracing disabled. This is what `fj_client --trace` prints.

  // The decoded responses themselves: {estimate(s), has_trace, trace}.
  using TracedEstimate = EstimateResp;
  using TracedSubplans = SubplansResp;

  std::future<TracedEstimate> EstimateTracedAsync(const std::string& model,
                                                  const Query& query);
  TracedEstimate EstimateTraced(const Query& query);
  TracedEstimate EstimateTraced(const std::string& model, const Query& query);

  std::future<TracedSubplans> EstimateSubplansTracedAsync(
      const std::string& model, const Query& query,
      const std::vector<uint64_t>& masks);
  TracedSubplans EstimateSubplansTraced(const Query& query,
                                        const std::vector<uint64_t>& masks);
  TracedSubplans EstimateSubplansTraced(const std::string& model,
                                        const Query& query,
                                        const std::vector<uint64_t>& masks);

  /// Remote cache invalidation: bumps the addressed model's statistics
  /// epoch for `table` and returns the new epoch (epochs are per model;
  /// the estimator mutation itself is server-local — see
  /// docs/ARCHITECTURE.md).
  uint64_t NotifyUpdate(const std::string& table);
  uint64_t NotifyUpdate(const std::string& model, const std::string& table);

  /// Snapshot of the addressed model's service metrics.
  ServiceStats Stats();
  ServiceStats Stats(const std::string& model);

 private:
  /// One outstanding request: the response type it expects and its one
  /// completion path. `done` gets the response frame, or nullptr plus the
  /// failure (RemoteError, ProtocolError or NetError).
  struct Pending {
    MsgType expect;
    std::function<void(const Frame*, std::exception_ptr)> done;
  };

  /// One dialed socket, the receiver thread draining it, and the requests
  /// sent on it. Each request belongs to the connection it was written to,
  /// so a dying connection fails exactly its own requests.
  struct Connection {
    int fd = -1;
    std::mutex pending_mu;
    std::unordered_map<uint64_t, Pending> pending;  // guarded by pending_mu
    std::thread receiver;
  };
  using ConnectionPtr = std::unique_ptr<Connection>;

  /// Registers `pending` under a fresh request id and sends the frame;
  /// throws NetError (after unregistering it) when the send fails.
  void Send(MsgType type, const std::vector<uint8_t>& body, Pending pending);
  /// Sends one request and calls `done` once with its `expect` response
  /// passed through `decode`, or with a default T and the failure.
  template <class T>
  void Call(MsgType type, const std::vector<uint8_t>& body, MsgType expect,
            T (*decode)(const std::vector<uint8_t>&),
            std::function<void(T, std::exception_ptr)> done);
  /// The same call fulfilling the returned future: every future-returning
  /// method is this call.
  template <class T>
  std::future<T> Call(MsgType type, const std::vector<uint8_t>& body,
                      MsgType expect,
                      T (*decode)(const std::vector<uint8_t>&));
  /// Throws std::logic_error when called on this client's receiver thread;
  /// `what` names the blocking method in the message.
  void ThrowIfReceiverThread(const char* what) const;
  /// Dials if not connected. A dead connection is reaped first, with mu_
  /// released: its receiver's failure sweep runs callbacks that may send.
  void ConnectLocked(std::unique_lock<std::mutex>& lock);
  /// Takes the live connection (its socket shut down, so its receiver
  /// fails its requests and exits) and every retired one. Needs mu_.
  std::vector<ConnectionPtr> DetachLocked();
  /// Joins each receiver and closes its socket; call without mu_. A
  /// connection whose receiver is the calling thread cannot be joined
  /// there and is retired for the next reap.
  void Reap(std::vector<ConnectionPtr> dead);
  void ReceiverLoop(Connection* conn);
  static void FailAllPending(Connection& conn, const char* reason);
  /// Hands one response frame to its pending request: kError becomes
  /// RemoteError, a response of another type ProtocolError.
  static void Complete(Pending& pending, const Frame& frame);

  const EstimatorClientOptions options_;

  // Guards the connection lifecycle and serializes frame writes so two
  // threads can't interleave the bytes of their frames. Never held while
  // joining a receiver or running a completion callback.
  std::mutex mu_;
  ConnectionPtr conn_;
  // Detached connections whose receiver could not be joined yet (it was the
  // thread detaching them).
  std::vector<ConnectionPtr> retired_;
  bool closing_ = false;  // set by the destructor: no more dialing
  std::atomic<bool> connected_{false};

  std::atomic<uint64_t> next_id_{1};
};

}  // namespace fj::net
