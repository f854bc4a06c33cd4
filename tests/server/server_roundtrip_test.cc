// End-to-end daemon round trips: a campaign submitted through the socket
// path must be *bit-identical* to the same campaign run directly — the
// wire protocol carries the full reproducibility key (config) out and the
// full CampaignResult back, so operator== is the oracle. Service-side
// tenancy (admission rejections, deadlines, cancellation) must surface
// through the wire as typed statuses and STATS counters.

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>

#include "corpus/builtin.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"
#include "server/client.h"
#include "server/server.h"

namespace mufuzz::server {
namespace {

using fuzzer::CampaignResult;

SubmitRequest CorpusRequest(const corpus::CorpusEntry& entry, uint64_t seed,
                            int max_executions = 600) {
  SubmitRequest request;
  request.name = entry.name;
  request.source = entry.source;
  request.config.seed = seed;
  request.config.max_executions = max_executions;
  return request;
}

CampaignResult Reference(const SubmitRequest& request) {
  auto artifact = lang::CompileContract(request.source);
  EXPECT_TRUE(artifact.ok());
  return fuzzer::RunCampaign(*artifact, request.config);
}

class ServerRoundTripTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    options.port = 0;
    server_ = std::make_unique<MufuzzServer>(options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_TRUE(client_.Connect("127.0.0.1", server_->port()).ok());
  }

  std::unique_ptr<MufuzzServer> server_;
  MufuzzClient client_;
};

TEST_F(ServerRoundTripTest, WireResultIsBitIdenticalToDirectRun) {
  ServerOptions options;
  options.service.workers = 2;
  StartServer(options);

  // Two contracts, two seeds each — every decoded result must equal the
  // in-process reference field for field (operator== covers coverage,
  // curve, bugs, queue stats, everything deterministic).
  for (const corpus::CorpusEntry& entry :
       {corpus::CrowdsaleExample(), corpus::GameExample()}) {
    for (uint64_t seed : {7u, 21u}) {
      SubmitRequest request = CorpusRequest(entry, seed);
      auto ticket = client_.Submit(request);
      ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
      auto outcome = client_.Wait(*ticket);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      ASSERT_TRUE(outcome->has_result) << outcome->error;
      EXPECT_EQ(outcome->name, entry.name);
      EXPECT_EQ(Reference(request), outcome->result)
          << entry.name << " seed=" << seed
          << " diverged across the wire";
    }
  }
}

TEST_F(ServerRoundTripTest, PollAndStatsTrackTheJob) {
  ServerOptions options;
  options.service.workers = 2;
  StartServer(options);

  SubmitRequest request = CorpusRequest(corpus::CrowdsaleExample(), 3);
  request.tenant = "observers";
  auto ticket = client_.Submit(request);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

  // Poll over the wire until done; every snapshot must decode.
  for (;;) {
    auto progress = client_.Poll(*ticket);
    ASSERT_TRUE(progress.ok()) << progress.status().ToString();
    if (progress->state == engine::JobState::kDone) {
      EXPECT_GT(progress->executions, 0u);
      break;
    }
    std::this_thread::yield();
  }

  auto stats = client_.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->submitted, 1u);
  EXPECT_EQ(stats->admitted, 1u);
  EXPECT_EQ(stats->completed, 1u);
  EXPECT_EQ(stats->live_jobs, 0u);
  ASSERT_EQ(stats->tenants.size(), 1u);
  EXPECT_EQ(stats->tenants[0].tenant, "observers");
  EXPECT_EQ(stats->tenants[0].completed, 1u);
}

TEST_F(ServerRoundTripTest, UnknownTicketIsNotFoundOnEveryVerb) {
  ServerOptions options;
  options.service.workers = 1;
  StartServer(options);

  auto progress = client_.Poll(424242);
  ASSERT_FALSE(progress.ok());
  EXPECT_EQ(progress.status().code(), StatusCode::kNotFound);

  Status cancel = client_.Cancel(424242);
  EXPECT_EQ(cancel.code(), StatusCode::kNotFound);

  auto outcome = client_.Wait(424242);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.status().code(), StatusCode::kNotFound);

  // All three were in-band errors: the connection still serves.
  EXPECT_TRUE(client_.Stats().ok());
}

TEST_F(ServerRoundTripTest, CancelOverTheWireYieldsPartialResult) {
  ServerOptions options;
  options.service.workers = 2;
  options.service.round_quantum = 32;
  StartServer(options);

  SubmitRequest request =
      CorpusRequest(corpus::CrowdsaleExample(), 5, /*max_executions=*/50'000'000);
  auto ticket = client_.Submit(request);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

  // Let it visibly start, then cancel through the socket.
  for (;;) {
    auto progress = client_.Poll(*ticket);
    ASSERT_TRUE(progress.ok());
    if (progress->executions > 0) break;
    std::this_thread::yield();
  }
  ASSERT_TRUE(client_.Cancel(*ticket).ok());

  auto outcome = client_.Wait(*ticket);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->has_result) << outcome->error;
  EXPECT_TRUE(outcome->result.cancelled);
  EXPECT_GT(outcome->result.executions, 0u);
  EXPECT_LT(outcome->result.executions, 50'000'000u);

  auto stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->cancelled, 1u);
  EXPECT_EQ(stats->deadline_hits, 0u);
}

TEST_F(ServerRoundTripTest, AdmissionRejectionSurfacesOverTheWire) {
  ServerOptions options;
  options.service.workers = 1;
  options.service.max_live_jobs_per_tenant = 1;
  options.service.start_paused = true;  // hold the first job live
  StartServer(options);

  SubmitRequest request = CorpusRequest(corpus::CrowdsaleExample(), 1, 64);
  request.tenant = "bounded";
  auto first = client_.Submit(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();

  request.config.seed = 2;
  auto second = client_.Submit(request);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.status().message().find("bounded"), std::string::npos)
      << second.status().ToString();

  auto stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rejected_tenant, 1u);

  server_->service().Resume();
  auto outcome = client_.Wait(*first);
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->has_result) << outcome->error;
}

TEST_F(ServerRoundTripTest, DeadlineExpiresOverTheWire) {
  ServerOptions options;
  options.service.workers = 2;
  options.service.round_quantum = 32;
  StartServer(options);

  SubmitRequest request =
      CorpusRequest(corpus::CrowdsaleExample(), 9, /*max_executions=*/50'000'000);
  request.deadline_ms = 250;
  auto ticket = client_.Submit(request);
  ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();

  auto outcome = client_.Wait(*ticket);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  auto progress = client_.Poll(*ticket);
  ASSERT_TRUE(progress.ok());
  EXPECT_TRUE(progress->deadline_expired);
  if (outcome->has_result) {
    EXPECT_TRUE(outcome->result.cancelled);
  } else {
    EXPECT_NE(outcome->error.find("deadline"), std::string::npos)
        << outcome->error;
  }

  auto stats = client_.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->deadline_hits, 1u);
}

TEST_F(ServerRoundTripTest, InProcessAndWireTicketsShareOneService) {
  // The daemon's engine is reachable in-process; tickets interoperate, so
  // a wire client can poll a job submitted natively (the embedding story).
  ServerOptions options;
  options.service.workers = 1;
  StartServer(options);

  engine::FuzzJob job;
  job.name = "native";
  job.source = corpus::GameExample().source;
  job.config.max_executions = 200;
  auto native = server_->service().Submit(std::move(job));
  ASSERT_TRUE(native.ok());
  auto outcome = client_.Wait(*native);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  ASSERT_TRUE(outcome->has_result) << outcome->error;
  EXPECT_EQ(outcome->name, "native");
}

TEST(ServerStartTest, PortOutsideSixteenBitsIsRefused) {
  // htons would truncate these (70000 to 4464, -1 to 65535) and bind a
  // port nobody asked for.
  for (int port : {70000, 65536, -1}) {
    ServerOptions options;
    options.port = port;
    options.service.workers = 1;
    MufuzzServer server(options);
    Status status = server.Start();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << "port " << port;
    EXPECT_NE(status.message().find(std::to_string(port)), std::string::npos)
        << status.ToString();
  }
}

TEST_F(ServerRoundTripTest, SequentialConnectionsLeaveNoHandlerThreads) {
  // Every connection gets a handler thread; one that ended must be joined
  // (not kept until Stop), or each connection ever opened pins a stack.
  ServerOptions options;
  options.service.workers = 1;
  StartServer(options);
  client_.Close();

  for (int i = 0; i < 50; ++i) {
    MufuzzClient conn;
    ASSERT_TRUE(conn.Connect("127.0.0.1", server_->port()).ok());
    ASSERT_TRUE(conn.Stats().ok()) << "connection " << i;
  }
  EXPECT_EQ(server_->connections_accepted(), 51u);
  // A handler sees its client hang up asynchronously; once all have, only
  // the last one to end is left unjoined.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server_->handler_threads() > 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_LE(server_->handler_threads(), 2u);
}

}  // namespace
}  // namespace mufuzz::server
