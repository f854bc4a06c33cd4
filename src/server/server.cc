#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <system_error>
#include <utility>

namespace mufuzz::server {

namespace {

/// One-shot kRError response.
void FillError(const Status& status, uint8_t* verb, Bytes* payload) {
  *verb = static_cast<uint8_t>(Verb::kRError);
  *payload = EncodeError(status);
}

Status DecodeTicket(BytesView payload, engine::JobTicket* ticket) {
  WireReader r(payload);
  MUFUZZ_RETURN_IF_ERROR(r.U64(ticket));
  return r.ExpectDone();
}

}  // namespace

MufuzzServer::MufuzzServer(ServerOptions options)
    : options_(std::move(options)), service_(options_.service) {}

MufuzzServer::~MufuzzServer() { Stop(); }

Status MufuzzServer::Start() {
  if (options_.port < 0 || options_.port > 65535) {
    return Status::InvalidArgument("listen port " +
                                   std::to_string(options_.port) +
                                   " is outside 0-65535");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("unparsable IPv4 listen address \"" +
                                   options_.host + "\"");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::ExecutionError(std::string("socket: ") +
                                  std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    Status st = Status::ExecutionError("bind " + options_.host + ":" +
                                       std::to_string(options_.port) + ": " +
                                       std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  if (::listen(listen_fd_, 64) < 0) {
    Status st =
        Status::ExecutionError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return st;
  }
  socklen_t len = sizeof(addr);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void MufuzzServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) return;
    stopping_ = true;
    // Unblock the accept() and every handler parked in a blocking read.
    ::shutdown(listen_fd_, SHUT_RDWR);
    for (auto& [id, fd] : live_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  // Unblock WAIT handlers parked inside FuzzService::Wait — each live job
  // finalizes a partial result at its next slice boundary.
  service_.CancelAll();
  service_.Resume();
  accept_thread_.join();
  // After the accept loop exited no new handler can appear, and a handler
  // that ends from here on finds itself gone from handlers_ and leaves
  // its join to this loop.
  std::map<uint64_t, std::thread> handlers;
  std::thread ended;
  {
    std::lock_guard<std::mutex> lock(mu_);
    handlers.swap(handlers_);
    ended.swap(ended_handler_);
  }
  for (auto& [id, t] : handlers) t.join();
  if (ended.joinable()) ended.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

uint64_t MufuzzServer::connections_accepted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_connection_;
}

size_t MufuzzServer::handler_threads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return handlers_.size() + (ended_handler_.joinable() ? 1 : 0);
}

void MufuzzServer::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener was shut down (or broke): stop accepting
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ::close(fd);
      return;
    }
    uint64_t id = next_connection_++;
    live_fds_.emplace(id, fd);
    try {
      handlers_.emplace(
          id, std::thread([this, id, fd] { HandleConnection(id, fd); }));
    } catch (const std::system_error& e) {
      // No thread to serve it: refuse this connection, keep the daemon.
      live_fds_.erase(id);
      ::close(fd);
      std::fprintf(stderr, "[mufuzzd] refused a connection: %s\n",
                   e.what());
    }
  }
}

void MufuzzServer::HandleConnection(uint64_t id, int fd) {
  uint8_t verb;
  Bytes payload;
  for (;;) {
    FrameRead got = ReadFrame(fd, &verb, &payload);
    if (got == FrameRead::kEof || got == FrameRead::kIoError) break;
    if (got == FrameRead::kTooLarge || got == FrameRead::kMalformed) {
      // The stream cannot be resynchronized (the oversized body was never
      // read; a zero-length frame has no verb): answer and hang up.
      Status st =
          got == FrameRead::kTooLarge
              ? Status::ResourceExhausted(
                    "frame exceeds the " +
                    std::to_string(kMaxFrameLength) +
                    "-byte limit; the connection will be closed")
              : Status::ParseError("zero-length frame (no verb byte)");
      WriteFrame(fd, static_cast<uint8_t>(Verb::kRError), EncodeError(st));
      break;
    }
    uint8_t response_verb;
    Bytes response;
    bool keep = HandleRequest(verb, payload, &response_verb, &response);
    if (!WriteFrame(fd, response_verb, response) || !keep) break;
  }
  // Join the handler that ended before this one (an exited thread keeps its
  // stack mapping until joined); this one is joined by the next handler to
  // end, or by Stop().
  std::thread previous;
  {
    std::lock_guard<std::mutex> lock(mu_);
    live_fds_.erase(id);
    auto self = handlers_.find(id);
    if (self != handlers_.end()) {  // else Stop() has it and joins it
      previous = std::exchange(ended_handler_, std::move(self->second));
      handlers_.erase(self);
    }
  }
  ::close(fd);
  if (previous.joinable()) previous.join();
}

bool MufuzzServer::HandleRequest(uint8_t verb, BytesView payload,
                                 uint8_t* response_verb, Bytes* response) {
  switch (static_cast<Verb>(verb)) {
    case Verb::kSubmit: {
      SubmitRequest request;
      Status st = DecodeSubmitRequest(payload, &request);
      if (!st.ok()) {
        FillError(st, response_verb, response);
        return true;
      }
      engine::FuzzJob job;
      job.name = std::move(request.name);
      job.source = std::move(request.source);
      job.config = request.config;
      job.tenant = std::move(request.tenant);
      job.priority = request.priority;
      job.deadline_ms = request.deadline_ms;
      Result<engine::JobTicket> ticket = service_.Submit(std::move(job));
      if (!ticket.ok()) {
        FillError(ticket.status(), response_verb, response);
        return true;
      }
      WireWriter w;
      w.U64(*ticket);
      *response_verb = static_cast<uint8_t>(Verb::kRTicket);
      *response = w.Take();
      return true;
    }
    case Verb::kPoll: {
      engine::JobTicket ticket;
      Status st = DecodeTicket(payload, &ticket);
      if (!st.ok()) {
        FillError(st, response_verb, response);
        return true;
      }
      engine::JobProgress progress = service_.Poll(ticket);
      if (progress.state == engine::JobState::kUnknown) {
        FillError(Status::NotFound("ticket " + std::to_string(ticket) +
                                   " was never issued by this daemon"),
                  response_verb, response);
        return true;
      }
      *response_verb = static_cast<uint8_t>(Verb::kRProgress);
      *response = EncodeProgress(progress);
      return true;
    }
    case Verb::kCancel: {
      engine::JobTicket ticket;
      Status st = DecodeTicket(payload, &ticket);
      if (!st.ok()) {
        FillError(st, response_verb, response);
        return true;
      }
      if (service_.Poll(ticket).state == engine::JobState::kUnknown) {
        FillError(Status::NotFound("ticket " + std::to_string(ticket) +
                                   " was never issued by this daemon"),
                  response_verb, response);
        return true;
      }
      service_.Cancel(ticket);
      *response_verb = static_cast<uint8_t>(Verb::kROk);
      response->clear();
      return true;
    }
    case Verb::kStats: {
      if (!payload.empty()) {
        FillError(Status::ParseError("STATS carries no payload"),
                  response_verb, response);
        return true;
      }
      *response_verb = static_cast<uint8_t>(Verb::kRStats);
      *response = EncodeStats(service_.Stats());
      return true;
    }
    case Verb::kWait: {
      engine::JobTicket ticket;
      Status st = DecodeTicket(payload, &ticket);
      if (!st.ok()) {
        FillError(st, response_verb, response);
        return true;
      }
      if (service_.Poll(ticket).state == engine::JobState::kUnknown) {
        FillError(Status::NotFound("ticket " + std::to_string(ticket) +
                                   " was never issued by this daemon"),
                  response_verb, response);
        return true;
      }
      // Blocks this handler thread only; Stop() unblocks it via CancelAll.
      engine::JobOutcome outcome = service_.Wait(ticket);
      *response_verb = static_cast<uint8_t>(Verb::kROutcome);
      *response = EncodeOutcome(outcome);
      return true;
    }
    default:
      FillError(Status::InvalidArgument("unknown verb 0x" + [verb] {
                  char buf[3];
                  std::snprintf(buf, sizeof(buf), "%02x", verb);
                  return std::string(buf);
                }()),
                response_verb, response);
      return true;
  }
}

}  // namespace mufuzz::server
