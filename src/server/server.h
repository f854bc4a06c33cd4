#ifndef MUFUZZ_SERVER_SERVER_H_
#define MUFUZZ_SERVER_SERVER_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>

#include "common/status.h"
#include "engine/fuzz_service.h"
#include "server/protocol.h"

namespace mufuzz::server {

/// mufuzzd configuration: where to listen plus the full FuzzService knob
/// set (workers, admission bounds, fair-share slots, metrics cadence).
struct ServerOptions {
  /// Numeric IPv4 address to bind. The daemon is a lab-network service:
  /// it speaks an unauthenticated binary protocol, so keep it on loopback
  /// unless the network is trusted.
  std::string host = "127.0.0.1";
  /// TCP port; 0 picks an ephemeral port (read it back via port()).
  int port = 0;
  engine::ServiceOptions service;
};

/// The mufuzzd daemon core: a TCP front-end over one FuzzService. Each
/// accepted connection gets a handler thread speaking the strict
/// request/response protocol in protocol.h; verbs map 1:1 onto service
/// calls (SUBMIT compiles server-side via the job's `source`). The server
/// owns the service, so in-process tests can reach the same instance the
/// socket path uses and assert on its Stats().
///
/// Handler lifecycle: the accept loop starts one joinable handler thread
/// per connection. A handler that ends (the client hung up, or the stream
/// broke) joins the handler that ended before it and leaves its own thread
/// for the next one to end (or Stop()) to join, so a long-lived daemon
/// keeps a thread per live connection plus at most one that ended, not
/// one thread stack per connection ever made.
///
/// Shutdown: Stop() closes the listener, shuts down every live connection
/// socket (unblocking reads), cancels all live jobs (unblocking WAIT
/// handlers parked in FuzzService::Wait), then joins every thread. Safe to
/// call twice; the destructor calls it.
class MufuzzServer {
 public:
  explicit MufuzzServer(ServerOptions options);
  ~MufuzzServer();

  MufuzzServer(const MufuzzServer&) = delete;
  MufuzzServer& operator=(const MufuzzServer&) = delete;

  /// Binds, listens, and starts the accept thread. InvalidArgument on a
  /// port outside 0-65535 or an unparsable host, ExecutionError when
  /// bind/listen fails (port in use).
  Status Start();

  /// Stops accepting, disconnects every client, cancels live jobs, joins.
  void Stop();

  /// The bound port (resolves 0 after Start()).
  int port() const { return port_; }

  /// The daemon's engine — in-process callers (tests, embedding apps) may
  /// submit/poll/wait directly; tickets are shared with the socket path.
  engine::FuzzService& service() { return service_; }

  /// Connections accepted over the server's lifetime.
  uint64_t connections_accepted() const;

  /// Handler threads not joined yet: one per live connection plus the
  /// last handler that ended (a test hook for the handler lifecycle).
  size_t handler_threads() const;

 private:
  void AcceptLoop();
  void HandleConnection(uint64_t id, int fd);
  /// Dispatches one request frame; fills the response (verb + payload).
  /// Returns false when the connection must close (oversized frame).
  bool HandleRequest(uint8_t verb, BytesView payload, uint8_t* response_verb,
                     Bytes* response);

  ServerOptions options_;
  engine::FuzzService service_;

  int listen_fd_ = -1;
  int port_ = 0;
  bool started_ = false;
  bool stopping_ = false;

  mutable std::mutex mu_;
  std::thread accept_thread_;
  std::map<uint64_t, std::thread> handlers_;  ///< live connection handlers
  std::thread ended_handler_;  ///< the last handler that ended, unjoined
  std::map<uint64_t, int> live_fds_;  ///< connection id -> socket
  uint64_t next_connection_ = 0;
};

}  // namespace mufuzz::server

#endif  // MUFUZZ_SERVER_SERVER_H_
