// Wire-protocol robustness: hostile bytes must never crash, hang, or
// desynchronize mufuzzd. Pure decoder tests pin the WireReader bounds
// checks; socket tests throw truncated, oversized, and garbage frames at a
// live server and assert the documented connection-state contract — in-band
// errors keep the connection usable, unsyncable framing failures close it,
// and the daemon keeps serving fresh connections throughout. The CI ASan
// job runs all of this.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <string>

#include "corpus/builtin.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/server.h"

namespace mufuzz::server {
namespace {

// ------------------------------------------------------- Decoder bounds ----

TEST(WireReaderTest, RejectsTruncatedPrimitives) {
  WireWriter w;
  w.U32(7);
  Bytes four = w.Take();
  {
    WireReader r(BytesView(four.data(), 3));
    uint32_t v;
    Status st = r.U32(&v);
    EXPECT_EQ(st.code(), StatusCode::kParseError) << st.ToString();
  }
  {
    WireReader r(four);
    uint64_t v;
    EXPECT_EQ(r.U64(&v).code(), StatusCode::kParseError);
  }
}

TEST(WireReaderTest, RejectsStringLengthBeyondPayload) {
  WireWriter w;
  w.U32(1000);  // claims 1000 bytes follow
  w.U8('x');
  Bytes payload = w.Take();
  WireReader r(payload);
  std::string s;
  EXPECT_EQ(r.Str(&s).code(), StatusCode::kParseError);
}

TEST(WireReaderTest, RejectsTrailingBytes) {
  WireWriter w;
  w.U32(1);
  w.U8(0xAA);  // one byte too many
  Bytes payload = w.Take();
  WireReader r(payload);
  uint32_t v;
  ASSERT_TRUE(r.U32(&v).ok());
  EXPECT_EQ(r.ExpectDone().code(), StatusCode::kParseError);
}

TEST(ProtocolTest, SubmitRequestRoundTripsEveryField) {
  SubmitRequest request;
  request.tenant = "acme";
  request.name = "Crowdsale";
  request.source = corpus::CrowdsaleExample().source;
  request.priority = -3;
  request.deadline_ms = 12'345;
  request.config.seed = 99;
  request.config.max_executions = 777;
  request.config.fanout = 4;
  request.config.call_failure_probability = 0.125;
  request.config.initial_contract_balance = U256(1, 2, 3, 4);
  request.config.strategy.mask_guided = false;

  SubmitRequest decoded;
  ASSERT_TRUE(
      DecodeSubmitRequest(EncodeSubmitRequest(request), &decoded).ok());
  EXPECT_EQ(decoded.tenant, request.tenant);
  EXPECT_EQ(decoded.name, request.name);
  EXPECT_EQ(decoded.source, request.source);
  EXPECT_EQ(decoded.priority, request.priority);
  EXPECT_EQ(decoded.deadline_ms, request.deadline_ms);
  EXPECT_EQ(decoded.config.seed, request.config.seed);
  EXPECT_EQ(decoded.config.max_executions, request.config.max_executions);
  EXPECT_EQ(decoded.config.fanout, request.config.fanout);
  EXPECT_EQ(decoded.config.call_failure_probability,
            request.config.call_failure_probability);
  EXPECT_TRUE(decoded.config.initial_contract_balance ==
              request.config.initial_contract_balance);
  EXPECT_EQ(decoded.config.strategy.mask_guided, false);
}

TEST(ProtocolTest, RejectsSubmitWithRetiredWaveSizeField) {
  // Earlier peers sent an i32 wave width between mask_stride_divisor and
  // fanout. Such a payload is 4 bytes longer than the current layout and
  // must fail as a whole rather than run with shifted fields.
  SubmitRequest request;
  request.source = "contract C {}";
  request.config.fanout = 4;
  Bytes payload = EncodeSubmitRequest(request);
  ASSERT_GE(payload.size(), 4u);
  const uint8_t retired_field[4] = {4, 0, 0, 0};
  payload.insert(payload.end() - 4, retired_field, retired_field + 4);
  SubmitRequest decoded;
  EXPECT_EQ(DecodeSubmitRequest(payload, &decoded).code(),
            StatusCode::kParseError);
}

TEST(ProtocolTest, RejectsOutOfRangeEnums) {
  // A progress frame whose state byte is past kDone must not cast blindly.
  WireWriter w;
  w.U8(200);
  WireProgress progress;
  EXPECT_EQ(DecodeProgress(w.Take(), &progress).code(),
            StatusCode::kParseError);

  // A wire bool of 2 is garbage, not truth.
  SubmitRequest request;
  request.source = "contract C {}";
  Bytes payload = EncodeSubmitRequest(request);
  // strategy bools sit right after the three strings + name string.
  size_t offset = 4 + request.tenant.size() + 4 + request.name.size() + 4 +
                  request.source.size() + 4 + 8 + 4 +
                  request.config.strategy.name.size();
  payload[offset] = 2;
  SubmitRequest decoded;
  EXPECT_EQ(DecodeSubmitRequest(payload, &decoded).code(),
            StatusCode::kParseError);
}

TEST(ProtocolTest, ErrorFramesRoundTripStatusCodes) {
  Status in = Status::ResourceExhausted("queue full");
  Status out = DecodeError(EncodeError(in));
  EXPECT_EQ(out.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(out.message(), "queue full");

  // An unknown wire code degrades to kInternal but keeps the message.
  WireWriter w;
  w.U32(0xFFFF);
  w.Str("from the future");
  Status future = DecodeError(w.Take());
  EXPECT_EQ(future.code(), StatusCode::kInternal);
  EXPECT_NE(future.message().find("from the future"), std::string::npos);
}

// ------------------------------------------------------- Live-socket side --

/// A raw client socket for speaking malformed bytes at the daemon.
class RawConn {
 public:
  explicit RawConn(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    connected_ =
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
  }
  ~RawConn() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool connected() const { return connected_; }
  int fd() const { return fd_; }

  void SendRaw(const Bytes& bytes) {
    ASSERT_EQ(::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  /// Reads one response frame, asserting transport success.
  void ReadResponse(uint8_t* verb, Bytes* payload) {
    ASSERT_EQ(ReadFrame(fd_, verb, payload), FrameRead::kOk);
  }

  /// True when the server has closed its end (clean EOF on our side).
  bool ServerClosed() {
    uint8_t verb;
    Bytes payload;
    return ReadFrame(fd_, &verb, &payload) == FrameRead::kEof;
  }

 private:
  int fd_ = -1;
  bool connected_ = false;
};

class ProtocolSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ServerOptions options;
    options.port = 0;
    options.service.workers = 1;
    server_ = std::make_unique<MufuzzServer>(options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void ExpectStatsWorksOn(RawConn& conn) {
    WireWriter frame;
    frame.U32(1);
    frame.U8(static_cast<uint8_t>(Verb::kStats));
    conn.SendRaw(frame.Take());
    uint8_t verb;
    Bytes payload;
    conn.ReadResponse(&verb, &payload);
    EXPECT_EQ(verb, static_cast<uint8_t>(Verb::kRStats));
    engine::ServiceStats stats;
    EXPECT_TRUE(DecodeStats(payload, &stats).ok());
  }

  std::unique_ptr<MufuzzServer> server_;
};

TEST_F(ProtocolSocketTest, UnknownVerbAnswersErrorAndConnectionStaysUsable) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  ASSERT_TRUE(WriteFrame(conn.fd(), /*verb=*/0x66, BytesView()));
  uint8_t verb;
  Bytes payload;
  conn.ReadResponse(&verb, &payload);
  EXPECT_EQ(verb, static_cast<uint8_t>(Verb::kRError));
  Status st = DecodeError(payload);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  // Framing was intact, so the same connection still serves requests.
  ExpectStatsWorksOn(conn);
}

TEST_F(ProtocolSocketTest, MalformedPayloadAnswersErrorAndStaysUsable) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  // POLL wants a u64 ticket; send three bytes of garbage instead.
  Bytes garbage = {0xDE, 0xAD, 0xBF};
  ASSERT_TRUE(
      WriteFrame(conn.fd(), static_cast<uint8_t>(Verb::kPoll), garbage));
  uint8_t verb;
  Bytes payload;
  conn.ReadResponse(&verb, &payload);
  EXPECT_EQ(verb, static_cast<uint8_t>(Verb::kRError));
  EXPECT_EQ(DecodeError(payload).code(), StatusCode::kParseError);
  ExpectStatsWorksOn(conn);
}

TEST_F(ProtocolSocketTest, OversizedFrameAnswersErrorAndCloses) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  WireWriter header;
  header.U32(kMaxFrameLength + 1);
  conn.SendRaw(header.Take());
  uint8_t verb;
  Bytes payload;
  conn.ReadResponse(&verb, &payload);
  EXPECT_EQ(verb, static_cast<uint8_t>(Verb::kRError));
  EXPECT_EQ(DecodeError(payload).code(), StatusCode::kResourceExhausted);
  // The unread body makes the stream unsyncable: server hangs up.
  EXPECT_TRUE(conn.ServerClosed());
}

TEST_F(ProtocolSocketTest, ZeroLengthFrameAnswersErrorAndCloses) {
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  WireWriter header;
  header.U32(0);
  conn.SendRaw(header.Take());
  uint8_t verb;
  Bytes payload;
  conn.ReadResponse(&verb, &payload);
  EXPECT_EQ(verb, static_cast<uint8_t>(Verb::kRError));
  EXPECT_EQ(DecodeError(payload).code(), StatusCode::kParseError);
  EXPECT_TRUE(conn.ServerClosed());
}

TEST_F(ProtocolSocketTest, TruncatedFrameLeavesDaemonServing) {
  {
    RawConn conn(server_->port());
    ASSERT_TRUE(conn.connected());
    // Declare 100 bytes, send 11, vanish. The handler just closes.
    WireWriter partial;
    partial.U32(100);
    partial.U8(static_cast<uint8_t>(Verb::kSubmit));
    for (int i = 0; i < 10; ++i) partial.U8(0xCC);
    conn.SendRaw(partial.Take());
  }  // destructor closes our end mid-frame
  // A fresh connection is unaffected.
  RawConn next(server_->port());
  ASSERT_TRUE(next.connected());
  ExpectStatsWorksOn(next);
}

TEST_F(ProtocolSocketTest, NegativeInitialSeedsAnswersErrorAndKeepsServing) {
  // A SUBMIT whose config asks for a negative seed corpus must be refused
  // with a typed error frame — never reach the campaign, where it would
  // take the whole daemon down — and the daemon must keep serving jobs.
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  SubmitRequest request;
  request.name = "negative-corpus";
  request.source = corpus::CrowdsaleExample().source;
  request.config.max_executions = 40;
  request.config.initial_seeds = -1;
  ASSERT_TRUE(WriteFrame(conn.fd(), static_cast<uint8_t>(Verb::kSubmit),
                         EncodeSubmitRequest(request)));
  uint8_t verb;
  Bytes payload;
  conn.ReadResponse(&verb, &payload);
  EXPECT_EQ(verb, static_cast<uint8_t>(Verb::kRError));
  Status st = DecodeError(payload);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("initial_seeds"), std::string::npos);
  ExpectStatsWorksOn(conn);

  MufuzzClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  request.config.initial_seeds = 4;
  auto ticket = client.Submit(request);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  auto outcome = client.Wait(*ticket);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->has_result) << outcome->error;
}

TEST_F(ProtocolSocketTest, ZeroBaseEnergyAnswersErrorAndKeepsServing) {
  // Energy 0 plans no children, so the campaign would never reach its
  // budget and would pin a worker forever; the SUBMIT must be refused.
  RawConn conn(server_->port());
  ASSERT_TRUE(conn.connected());
  SubmitRequest request;
  request.name = "zero-energy";
  request.source = corpus::CrowdsaleExample().source;
  request.config.max_executions = 40;
  request.config.base_energy = 0;
  ASSERT_TRUE(WriteFrame(conn.fd(), static_cast<uint8_t>(Verb::kSubmit),
                         EncodeSubmitRequest(request)));
  uint8_t verb;
  Bytes payload;
  conn.ReadResponse(&verb, &payload);
  EXPECT_EQ(verb, static_cast<uint8_t>(Verb::kRError));
  Status st = DecodeError(payload);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("base_energy"), std::string::npos);
  ExpectStatsWorksOn(conn);

  MufuzzClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  request.config.base_energy = 1;
  auto ticket = client.Submit(request);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
  auto outcome = client.Wait(*ticket);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->has_result) << outcome->error;
}

TEST_F(ProtocolSocketTest, CompileFailureIsInBandAndKeepsClientUsable) {
  MufuzzClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()).ok());
  SubmitRequest request;
  request.name = "broken";
  request.source = "this is not a contract";
  auto ticket = client.Submit(request);
  // Either the submit validates lazily (ticket issued, outcome carries the
  // compile error) or eagerly — both arrive as in-band status, and the
  // connection keeps working.
  if (ticket.ok()) {
    auto outcome = client.Wait(*ticket);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    EXPECT_FALSE(outcome->has_result);
    EXPECT_FALSE(outcome->error.empty());
  } else {
    EXPECT_TRUE(client.connected());
  }
  auto stats = client.Stats();
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
}

}  // namespace
}  // namespace mufuzz::server
