#ifndef MUFUZZ_SERVER_CLIENT_H_
#define MUFUZZ_SERVER_CLIENT_H_

#include <cstdint>
#include <string>
#include <utility>

#include "common/status.h"
#include "engine/fuzz_service.h"
#include "server/protocol.h"

namespace mufuzz::server {

/// Blocking client for one mufuzzd connection. One request/response in
/// flight at a time (the protocol is strict request/response); not
/// thread-safe — share a daemon between threads by giving each thread its
/// own client.
///
/// Error model: a server-reported failure (admission rejection, unknown
/// ticket, malformed request) comes back as the decoded non-OK Status with
/// the connection still usable; a transport failure (connection refused,
/// peer died mid-frame) closes the client, and every later call returns
/// ExecutionError until Connect() succeeds again.
class MufuzzClient {
 public:
  MufuzzClient() = default;
  ~MufuzzClient();

  MufuzzClient(const MufuzzClient&) = delete;
  MufuzzClient& operator=(const MufuzzClient&) = delete;

  /// Connects to a daemon at a numeric IPv4 address.
  Status Connect(const std::string& host, int port);
  void Close();
  bool connected() const { return fd_ >= 0; }

  /// SUBMIT: compile-and-fuzz `request.source` under the request's config
  /// and tenancy envelope. Returns the job ticket.
  Result<uint64_t> Submit(const SubmitRequest& request);

  /// POLL: the job's latest between-slices progress snapshot.
  Result<WireProgress> Poll(uint64_t ticket);

  /// CANCEL: stop the job at its next slice boundary.
  Status Cancel(uint64_t ticket);

  /// STATS: the daemon's metrics plane snapshot.
  Result<engine::ServiceStats> Stats();

  /// WAIT: block until the job finished; returns its outcome (with the
  /// full CampaignResult when the campaign ran).
  Result<WireOutcome> Wait(uint64_t ticket);

 private:
  /// Sends one frame and reads one response. A kRError response is decoded
  /// into its Status (connection stays open); an unexpected verb or a
  /// transport failure closes the connection.
  Result<Bytes> RoundTrip(Verb request, BytesView payload, Verb expected);
  Result<Bytes> TicketRoundTrip(Verb request, uint64_t ticket, Verb expected);

  int fd_ = -1;
};

}  // namespace mufuzz::server

#endif  // MUFUZZ_SERVER_CLIENT_H_
