// Submit/cancel/poll churn against a live FuzzService at 1, 2, and 4
// workers with deterministic seeds — the concurrency soak the CI sanitizer
// jobs (ASan+UBSan and TSan) run to shake out races between the client API
// and the round scheduler. Functional assertions ride along: every
// non-cancelled job must still produce exactly its serial RunCampaign
// result, no matter how much API traffic surrounds it.

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "corpus/builtin.h"
#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::engine {
namespace {

using fuzzer::CampaignResult;
using fuzzer::StrategyConfig;

constexpr int kJobsPerSubmitter = 6;
constexpr int kSubmitters = 2;
constexpr int kExecs = 120;

FuzzJob StressJob(int submitter, int index) {
  FuzzJob job;
  const corpus::CorpusEntry entry =
      index % 2 == 0 ? corpus::CrowdsaleExample() : corpus::GameExample();
  job.name = "s" + std::to_string(submitter) + "#" + std::to_string(index);
  job.source = entry.source;
  job.config.strategy = StrategyConfig::MuFuzz();
  job.config.seed = 1000 + submitter * 100 + index;
  job.config.max_executions = kExecs;
  return job;
}

CampaignResult Reference(const FuzzJob& job) {
  auto artifact = lang::CompileContract(job.source);
  EXPECT_TRUE(artifact.ok());
  return fuzzer::RunCampaign(*artifact, job.config);
}

void Churn(int workers) {
  SCOPED_TRACE("workers=" + std::to_string(workers));
  ServiceOptions options;
  options.workers = workers;
  options.round_quantum = 16;  // many slice boundaries → many poll windows
  FuzzService service(options);

  // Tickets each submitter produced, plus which were cancelled.
  struct Submitted {
    JobTicket ticket;
    FuzzJob job;
    bool cancelled;
  };
  std::vector<std::vector<Submitted>> submitted(kSubmitters);
  std::atomic<bool> polling{true};

  // A poller hammers Poll/Wait-idempotence on whatever tickets exist while
  // submissions and cancellations race around it.
  std::thread poller([&service, &polling] {
    uint64_t probe = 1;
    while (polling.load(std::memory_order_relaxed)) {
      JobProgress progress = service.Poll(probe);
      if (progress.state == JobState::kUnknown) {
        probe = 1;  // wrapped past the issued range
      } else {
        ++probe;
      }
      std::this_thread::yield();
    }
  });

  std::vector<std::thread> submitters;
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&service, &submitted, s] {
      for (int i = 0; i < kJobsPerSubmitter; ++i) {
        FuzzJob job = StressJob(s, i);
        Result<JobTicket> ticket = service.Submit(job);
        ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
        // Cancel every third job — sometimes before it ever starts,
        // sometimes mid-run; both paths must stay clean.
        bool cancel = i % 3 == 2;
        if (cancel) {
          if (i % 2 == 0) {
            for (;;) {  // wait until it visibly started
              JobProgress progress = service.Poll(ticket.value());
              if (progress.executions > 0 ||
                  progress.state == JobState::kDone) {
                break;
              }
              std::this_thread::yield();
            }
          }
          service.Cancel(ticket.value());
        }
        submitted[s].push_back(Submitted{ticket.value(), job, cancel});
      }
    });
  }
  for (std::thread& t : submitters) t.join();
  std::vector<JobOutcome> all = service.WaitAll();
  polling.store(false, std::memory_order_relaxed);
  poller.join();

  ASSERT_EQ(all.size(), static_cast<size_t>(kSubmitters * kJobsPerSubmitter));

  for (int s = 0; s < kSubmitters; ++s) {
    for (const Submitted& entry : submitted[s]) {
      JobOutcome outcome = service.Wait(entry.ticket);
      if (!outcome.result.has_value()) {
        // Only a cancel that won the race with the setup round leaves the
        // result empty — and then the error says so.
        EXPECT_TRUE(entry.cancelled) << entry.job.name << ": "
                                     << outcome.error;
        EXPECT_FALSE(outcome.error.empty());
      } else if (entry.cancelled && outcome.result->cancelled) {
        // Cancel landed mid-run: partial but valid.
        EXPECT_LE(outcome.result->executions,
                  static_cast<uint64_t>(kExecs) + 64);
      } else {
        // Either never cancelled, or the job finished before the cancel
        // took effect — full, bit-exact result either way.
        EXPECT_EQ(Reference(entry.job), *outcome.result) << entry.job.name;
      }
      // Poll on the finished ticket keeps serving the final snapshot.
      JobProgress progress = service.Poll(entry.ticket);
      EXPECT_EQ(progress.state, JobState::kDone);
      EXPECT_EQ(progress.executions,
                outcome.result.has_value() ? outcome.result->executions : 0u);
    }
  }
}

TEST(ServiceStressTest, ChurnOneWorker) { Churn(1); }
TEST(ServiceStressTest, ChurnTwoWorkers) { Churn(2); }
TEST(ServiceStressTest, ChurnFourWorkers) { Churn(4); }

}  // namespace
}  // namespace mufuzz::engine
