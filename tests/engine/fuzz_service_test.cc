#include "engine/fuzz_service.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "corpus/builtin.h"
#include "corpus/datasets.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::engine {
namespace {

using corpus::CorpusEntry;
using fuzzer::CampaignResult;
using fuzzer::StrategyConfig;

FuzzJob MakeJob(const std::string& name, const std::string& source,
                uint64_t seed, int execs,
                StrategyConfig strategy = StrategyConfig::MuFuzz()) {
  FuzzJob job;
  job.name = name;
  job.source = source;
  job.config.strategy = strategy;
  job.config.seed = seed;
  job.config.max_executions = execs;
  return job;
}

/// A small mixed job set across the two paper examples, two strategies, and
/// distinct seeds.
std::vector<FuzzJob> MixedJobs(int execs = 120) {
  std::vector<FuzzJob> jobs;
  std::vector<CorpusEntry> entries = {corpus::CrowdsaleExample(),
                                      corpus::GameExample()};
  for (const CorpusEntry& entry : corpus::BuildD1Small(2, /*seed=*/42)) {
    entries.push_back(entry);
  }
  const StrategyConfig strategies[] = {StrategyConfig::MuFuzz(),
                                      StrategyConfig::SFuzz()};
  uint64_t seed = 1;
  for (const auto& strategy : strategies) {
    for (const CorpusEntry& entry : entries) {
      jobs.push_back(MakeJob(entry.name + "/" + strategy.name, entry.source,
                             seed++, execs, strategy));
    }
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// Satellite: knob validation at the API boundary — one test per rejected
// field, and proof that a rejected submission admits nothing.
// ---------------------------------------------------------------------------

TEST(FuzzServiceValidationTest, RejectsNegativeJobFanout) {
  FuzzService service;
  FuzzJob job = MakeJob("bad", corpus::CrowdsaleExample().source, 1, 50);
  job.config.fanout = -2;
  Result<JobTicket> ticket = service.Submit(job);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ticket.status().message().find("fanout"), std::string::npos);
}

TEST(FuzzServiceValidationTest, RejectsNegativeJobInitialSeeds) {
  // A negative corpus size would reach std::vector::reserve on a pool
  // thread and terminate the process; it must be a typed rejection.
  FuzzService service;
  FuzzJob job = MakeJob("bad", corpus::CrowdsaleExample().source, 1, 50);
  job.config.initial_seeds = -1;
  Result<JobTicket> ticket = service.Submit(job);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ticket.status().message().find("initial_seeds"),
            std::string::npos);
  EXPECT_TRUE(service.WaitAll().empty());
}

TEST(FuzzServiceValidationTest, RejectsNegativeJobMaxExecutions) {
  FuzzService service;
  FuzzJob job = MakeJob("bad", corpus::CrowdsaleExample().source, 1, -5);
  Result<JobTicket> ticket = service.Submit(job);
  ASSERT_FALSE(ticket.ok());
  EXPECT_EQ(ticket.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(ticket.status().message().find("max_executions"),
            std::string::npos);
}

TEST(FuzzServiceValidationTest, RejectsNonPositiveJobBaseEnergy) {
  // Energy below 1 plans no children: the campaign would spin forever
  // short of its budget, so it must be refused at submission.
  for (int energy : {0, -3}) {
    FuzzService service;
    FuzzJob job = MakeJob("bad", corpus::CrowdsaleExample().source, 1, 50);
    job.config.base_energy = energy;
    Result<JobTicket> ticket = service.Submit(job);
    ASSERT_FALSE(ticket.ok()) << "base_energy " << energy;
    EXPECT_EQ(ticket.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(ticket.status().message().find("base_energy"),
              std::string::npos);
    EXPECT_TRUE(service.WaitAll().empty());
  }
}

TEST(FuzzServiceValidationTest, RejectedSubmissionAdmitsNothing) {
  FuzzService service;
  FuzzJob job = MakeJob("bad", corpus::CrowdsaleExample().source, 1, 50);
  job.config.fanout = -1;
  ASSERT_FALSE(service.Submit(job).ok());
  EXPECT_TRUE(service.WaitAll().empty());
}

TEST(FuzzServiceValidationTest, RejectedJobLeavesOthersRunning) {
  // A rejection is per submission: the jobs admitted around it run to the
  // results they would produce alone.
  FuzzService service;
  FuzzJob good = MakeJob("good", corpus::CrowdsaleExample().source, 1, 50);
  FuzzJob bad = good;
  bad.name = "bad";
  bad.config.max_executions = -3;
  Result<JobTicket> first = service.Submit(good);
  ASSERT_TRUE(first.ok());
  Result<JobTicket> rejected = service.Submit(bad);
  ASSERT_FALSE(rejected.ok());
  EXPECT_NE(rejected.status().message().find("max_executions"),
            std::string::npos);
  Result<JobTicket> second = service.Submit(good);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), first.value() + 1);  // no ticket was spent

  auto artifact = lang::CompileContract(good.source);
  ASSERT_TRUE(artifact.ok());
  CampaignResult direct = fuzzer::RunCampaign(*artifact, good.config);
  for (JobTicket ticket : {first.value(), second.value()}) {
    JobOutcome outcome = service.Wait(ticket);
    ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
    EXPECT_EQ(direct, *outcome.result);
  }
}

// ---------------------------------------------------------------------------
// Per-job results from (a) every job submitted before any is waited for,
// (b) jobs streamed one at a time into a live service, and (c) all jobs in
// flight with an unrelated job cancelled mid-run are bit-for-bit identical
// at 1, 2, and 4 workers.
// ---------------------------------------------------------------------------

TEST(FuzzServiceDeterminismTest, BatchStreamAndCancelledStreamAgree) {
  std::vector<FuzzJob> jobs = MixedJobs();
  for (int workers : {1, 2, 4}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));

    ServiceOptions service_options;
    service_options.workers = workers;

    // (a) submit every job, then WaitAll.
    FuzzService submit_all(service_options);
    for (const FuzzJob& job : jobs) {
      ASSERT_TRUE(submit_all.Submit(job).ok());
    }
    std::vector<JobOutcome> batch = submit_all.WaitAll();

    // (b) one live service, jobs streamed strictly one at a time — maximal
    // contrast with the submit-all pattern.
    FuzzService streamed(service_options);
    std::vector<JobOutcome> stream_outcomes;
    for (const FuzzJob& job : jobs) {
      Result<JobTicket> ticket = streamed.Submit(job);
      ASSERT_TRUE(ticket.ok());
      stream_outcomes.push_back(streamed.Wait(ticket.value()));
    }

    // (c) all jobs in flight together plus an unrelated long-running victim
    // cancelled mid-run.
    FuzzService cancelled(service_options);
    Result<JobTicket> victim = cancelled.Submit(MakeJob(
        "victim", corpus::GameExample().source, 999, /*execs=*/500000));
    ASSERT_TRUE(victim.ok());
    std::vector<JobTicket> tickets;
    for (const FuzzJob& job : jobs) {
      Result<JobTicket> ticket = cancelled.Submit(job);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(ticket.value());
    }
    cancelled.Cancel(victim.value());
    std::vector<JobOutcome> cancelled_outcomes;
    for (JobTicket ticket : tickets) {
      cancelled_outcomes.push_back(cancelled.Wait(ticket));
    }
    JobOutcome victim_outcome = cancelled.Wait(victim.value());
    if (victim_outcome.result.has_value()) {
      EXPECT_TRUE(victim_outcome.result->cancelled);
    } else {
      // The cancel won the race with the victim's setup round.
      EXPECT_FALSE(victim_outcome.error.empty());
    }

    ASSERT_EQ(batch.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(batch[i].result.has_value()) << batch[i].error;
      ASSERT_TRUE(stream_outcomes[i].result.has_value());
      ASSERT_TRUE(cancelled_outcomes[i].result.has_value());
      EXPECT_EQ(*batch[i].result, *stream_outcomes[i].result)
          << "stream diverged on " << jobs[i].name;
      EXPECT_EQ(*batch[i].result, *cancelled_outcomes[i].result)
          << "cancellation leaked into " << jobs[i].name;
    }
  }
}

TEST(FuzzServiceDeterminismTest, RoundQuantumNeverChangesResults) {
  // The streamed campaign suspends (never drains) at slice boundaries, so
  // the progress/cancel granularity is invisible to results — streamed
  // output equals a plain serial RunCampaign for any quantum.
  FuzzJob job = MakeJob("q", corpus::CrowdsaleExample().source, 7, 150);
  auto artifact = lang::CompileContract(job.source);
  ASSERT_TRUE(artifact.ok());
  CampaignResult direct = fuzzer::RunCampaign(*artifact, job.config);

  for (int quantum : {1, 7, 1000}) {
    SCOPED_TRACE("round_quantum=" + std::to_string(quantum));
    ServiceOptions options;
    options.workers = 2;
    options.round_quantum = quantum;
    FuzzService service(options);
    Result<JobTicket> ticket = service.Submit(job);
    ASSERT_TRUE(ticket.ok());
    JobOutcome outcome = service.Wait(ticket.value());
    ASSERT_TRUE(outcome.result.has_value());
    EXPECT_EQ(direct, *outcome.result);
  }
}

// ---------------------------------------------------------------------------
// Satellite: service lifecycle semantics.
// ---------------------------------------------------------------------------

TEST(FuzzServiceLifecycleTest, WaitIsIdempotent) {
  FuzzService service;
  Result<JobTicket> ticket =
      service.Submit(MakeJob("job", corpus::CrowdsaleExample().source, 3, 80));
  ASSERT_TRUE(ticket.ok());
  JobOutcome first = service.Wait(ticket.value());
  JobOutcome second = service.Wait(ticket.value());
  ASSERT_TRUE(first.result.has_value());
  ASSERT_TRUE(second.result.has_value());
  EXPECT_EQ(*first.result, *second.result);
  EXPECT_EQ(first.elapsed_ms, second.elapsed_ms);
}

TEST(FuzzServiceLifecycleTest, PollOnFinishedTicketReturnsFinalSnapshot) {
  FuzzService service;
  Result<JobTicket> ticket =
      service.Submit(MakeJob("job", corpus::CrowdsaleExample().source, 3, 80));
  ASSERT_TRUE(ticket.ok());
  JobOutcome outcome = service.Wait(ticket.value());
  ASSERT_TRUE(outcome.result.has_value());

  JobProgress progress = service.Poll(ticket.value());
  EXPECT_EQ(progress.state, JobState::kDone);
  EXPECT_EQ(progress.executions, outcome.result->executions);
  EXPECT_EQ(progress.transactions, outcome.result->transactions);
  EXPECT_DOUBLE_EQ(progress.coverage, outcome.result->branch_coverage);
  EXPECT_EQ(progress.bugs_found, outcome.result->bugs.size());
  EXPECT_FALSE(progress.cancelled);
  // Still the same snapshot on a second poll.
  JobProgress again = service.Poll(ticket.value());
  EXPECT_EQ(again.executions, progress.executions);
  EXPECT_EQ(again.state, JobState::kDone);
}

TEST(FuzzServiceLifecycleTest, CancelOnFinishedTicketIsANoOp) {
  FuzzService service;
  FuzzJob job = MakeJob("job", corpus::CrowdsaleExample().source, 3, 80);
  Result<JobTicket> ticket = service.Submit(job);
  ASSERT_TRUE(ticket.ok());
  JobOutcome before = service.Wait(ticket.value());
  service.Cancel(ticket.value());
  JobOutcome after = service.Wait(ticket.value());
  ASSERT_TRUE(before.result.has_value());
  ASSERT_TRUE(after.result.has_value());
  EXPECT_EQ(*before.result, *after.result);
  EXPECT_FALSE(after.result->cancelled);
  EXPECT_EQ(service.Poll(ticket.value()).state, JobState::kDone);
}

TEST(FuzzServiceLifecycleTest, UnknownTicketIsHandledGracefully) {
  FuzzService service;
  EXPECT_EQ(service.Poll(12345).state, JobState::kUnknown);
  JobOutcome outcome = service.Wait(12345);
  EXPECT_FALSE(outcome.result.has_value());
  EXPECT_FALSE(outcome.error.empty());
  service.Cancel(12345);  // must not crash or hang
}

TEST(FuzzServiceLifecycleTest, CancelledJobYieldsPartialFlaggedResult) {
  ServiceOptions options;
  options.workers = 1;
  options.round_quantum = 16;  // fine-grained rounds → prompt cancel
  FuzzService service(options);
  FuzzJob job =
      MakeJob("victim", corpus::CrowdsaleExample().source, 11, 1000000);
  Result<JobTicket> ticket = service.Submit(job);
  ASSERT_TRUE(ticket.ok());
  // Let it make some progress, then cancel.
  for (;;) {
    JobProgress progress = service.Poll(ticket.value());
    if (progress.executions > 100 || progress.state == JobState::kDone) break;
    std::this_thread::yield();
  }
  service.Cancel(ticket.value());
  JobOutcome outcome = service.Wait(ticket.value());
  ASSERT_TRUE(outcome.result.has_value());
  EXPECT_TRUE(outcome.result->cancelled);
  // Partial but valid: it ran, and it stopped well short of the budget.
  EXPECT_GT(outcome.result->executions, 0u);
  EXPECT_LT(outcome.result->executions, 1000000u);
  EXPECT_GT(outcome.result->branch_coverage, 0.0);
  JobProgress progress = service.Poll(ticket.value());
  EXPECT_TRUE(progress.cancelled);
  EXPECT_EQ(progress.state, JobState::kDone);
}

TEST(FuzzServiceLifecycleTest, ProgressIsMonotonicWhileStreaming) {
  ServiceOptions options;
  options.workers = 2;
  options.round_quantum = 25;
  FuzzService service(options);
  Result<JobTicket> ticket = service.Submit(
      MakeJob("job", corpus::CrowdsaleExample().source, 9, 400));
  ASSERT_TRUE(ticket.ok());
  uint64_t last_executions = 0;
  int last_round = 0;
  for (;;) {
    JobProgress progress = service.Poll(ticket.value());
    EXPECT_GE(progress.executions, last_executions);
    EXPECT_GE(progress.round_index, last_round);
    last_executions = progress.executions;
    last_round = progress.round_index;
    if (progress.state == JobState::kDone) break;
    std::this_thread::yield();
  }
  JobOutcome outcome = service.Wait(ticket.value());
  ASSERT_TRUE(outcome.result.has_value());
  EXPECT_EQ(last_executions, outcome.result->executions);
}

TEST(FuzzServiceLifecycleTest, TooDeepSourceFailsItsJobOnly) {
  // 200 KB of `!` would overflow the compiling worker's stack without the
  // nesting bound; with it the job fails with an ordinary compile error.
  ServiceOptions options;
  options.workers = 1;
  FuzzService service(options);
  const std::string deep =
      "contract C { bool b; function f() public { b = " +
      std::string(200000, '!') + "true; } }";
  Result<JobTicket> bad = service.Submit(MakeJob("deep", deep, 1, 64));
  ASSERT_TRUE(bad.ok());
  JobOutcome failed = service.Wait(bad.value());
  EXPECT_FALSE(failed.result.has_value());
  EXPECT_NE(failed.error.find("nesting deeper than"), std::string::npos)
      << failed.error;

  Result<JobTicket> next = service.Submit(
      MakeJob("next", corpus::CrowdsaleExample().source, 2, 64));
  ASSERT_TRUE(next.ok());
  JobOutcome outcome = service.Wait(next.value());
  ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
  EXPECT_GT(outcome.result->executions, 0u);
}

TEST(FuzzServiceLifecycleTest, DestructionCancelsOutstandingJobs) {
  ServiceOptions options;
  options.workers = 2;
  options.round_quantum = 16;
  auto service = std::make_unique<FuzzService>(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service
                    ->Submit(MakeJob("job" + std::to_string(i),
                                     corpus::CrowdsaleExample().source,
                                     100 + i, 1000000))
                    .ok());
  }
  service.reset();  // must stop at slice boundaries and join, not hang
}

// ---------------------------------------------------------------------------
// A finished job frees its compile products and source but keeps its
// outcome and final progress: Wait twice and Poll after completion must
// keep answering identically on every path to completion.
// ---------------------------------------------------------------------------

void ExpectSameProgress(const JobProgress& a, const JobProgress& b) {
  EXPECT_EQ(a.state, b.state);
  EXPECT_EQ(a.executions, b.executions);
  EXPECT_EQ(a.transactions, b.transactions);
  EXPECT_EQ(a.coverage, b.coverage);
  EXPECT_EQ(a.bugs_found, b.bugs_found);
  EXPECT_EQ(a.round_index, b.round_index);
  EXPECT_EQ(a.fanout, b.fanout);
  EXPECT_EQ(a.parents_in_flight, b.parents_in_flight);
  EXPECT_EQ(a.inflight_executions, b.inflight_executions);
  EXPECT_EQ(a.cancelled, b.cancelled);
  EXPECT_EQ(a.deadline_expired, b.deadline_expired);
  EXPECT_EQ(a.first_step_round, b.first_step_round);
  EXPECT_EQ(a.code_cache, b.code_cache);
  EXPECT_EQ(a.heap_allocs, b.heap_allocs);
}

/// Waits and polls twice each on `ticket`; returns the first outcome.
JobOutcome ExpectStableOnceDone(FuzzService* service, JobTicket ticket) {
  JobOutcome first = service->Wait(ticket);
  JobProgress progress = service->Poll(ticket);
  JobOutcome second = service->Wait(ticket);
  JobProgress again = service->Poll(ticket);

  EXPECT_EQ(progress.state, JobState::kDone);
  ExpectSameProgress(progress, again);
  EXPECT_EQ(first.name, second.name);
  EXPECT_EQ(first.error, second.error);
  EXPECT_EQ(first.elapsed_ms, second.elapsed_ms);
  EXPECT_EQ(first.result.has_value(), second.result.has_value());
  if (first.result.has_value() && second.result.has_value()) {
    EXPECT_EQ(*first.result, *second.result);
    EXPECT_EQ(progress.executions, first.result->executions);
    EXPECT_EQ(progress.transactions, first.result->transactions);
    EXPECT_EQ(progress.coverage, first.result->branch_coverage);
    EXPECT_EQ(progress.bugs_found, first.result->bugs.size());
  }
  return first;
}

constexpr char kUncompilable[] = "contract C { function f( }";

TEST(FuzzServiceRetentionTest, StandaloneJobAnswersIdenticallyOnceDone) {
  FuzzService service;
  FuzzJob job = MakeJob("solo", corpus::CrowdsaleExample().source, 5, 120);
  Result<JobTicket> ticket = service.Submit(job);
  ASSERT_TRUE(ticket.ok());
  JobOutcome outcome = ExpectStableOnceDone(&service, ticket.value());
  ASSERT_TRUE(outcome.result.has_value()) << outcome.error;

  auto artifact = lang::CompileContract(job.source);
  ASSERT_TRUE(artifact.ok());
  EXPECT_EQ(fuzzer::RunCampaign(*artifact, job.config), *outcome.result);
}

TEST(FuzzServiceRetentionTest, CompileFailureAnswersIdenticallyOnceDone) {
  FuzzService service;
  Result<JobTicket> ticket =
      service.Submit(MakeJob("broken", kUncompilable, 1, 64));
  ASSERT_TRUE(ticket.ok());
  JobOutcome outcome = ExpectStableOnceDone(&service, ticket.value());
  EXPECT_FALSE(outcome.result.has_value());
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(outcome.name, "broken");
}

TEST(FuzzServiceRetentionTest, CancelBeforeStartAnswersIdenticallyOnceDone) {
  ServiceOptions options;
  options.start_paused = true;
  FuzzService service(options);
  Result<JobTicket> ticket = service.Submit(
      MakeJob("never-ran", corpus::CrowdsaleExample().source, 1, 64));
  ASSERT_TRUE(ticket.ok());
  service.Cancel(ticket.value());
  service.Resume();
  JobOutcome outcome = ExpectStableOnceDone(&service, ticket.value());
  EXPECT_FALSE(outcome.result.has_value());
  EXPECT_EQ(outcome.error, "cancelled before the campaign started");
  EXPECT_TRUE(service.Poll(ticket.value()).cancelled);
}

}  // namespace
}  // namespace mufuzz::engine
