// Running a set of jobs in parallel on one FuzzService: submit every job,
// then wait for each. Outcomes come back per ticket, so they are in job
// order, and each equals what a plain serial RunCampaign produces.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/builtin.h"
#include "corpus/datasets.h"
#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"
#include "submit_all.h"

namespace mufuzz::engine {
namespace {

using corpus::CorpusEntry;
using fuzzer::CampaignConfig;
using fuzzer::CampaignResult;
using fuzzer::StrategyConfig;

/// A mixed batch: the two paper examples plus generated contracts, across
/// two strategies and distinct seeds — enough variety that any scheduling
/// or state-bleed bug between workers would show up as a result mismatch.
std::vector<FuzzJob> MixedBatch(int execs = 150) {
  std::vector<FuzzJob> jobs;
  std::vector<CorpusEntry> entries = {corpus::CrowdsaleExample(),
                                      corpus::GameExample()};
  for (const CorpusEntry& entry : corpus::BuildD1Small(4, /*seed=*/42)) {
    entries.push_back(entry);
  }
  const StrategyConfig strategies[] = {StrategyConfig::MuFuzz(),
                                       StrategyConfig::SFuzz()};
  uint64_t seed = 1;
  for (const auto& strategy : strategies) {
    for (const CorpusEntry& entry : entries) {
      FuzzJob job;
      job.name = entry.name + "/" + strategy.name;
      job.source = entry.source;
      job.config.strategy = strategy;
      job.config.seed = seed++;
      job.config.max_executions = execs;
      jobs.push_back(std::move(job));
    }
  }
  return jobs;
}

std::vector<JobOutcome> RunAll(const std::vector<FuzzJob>& jobs,
                               int workers = 0) {
  ServiceOptions options;
  options.workers = workers;
  return SubmitAllThenWait(jobs, options);
}

TEST(ParallelRunnerTest, FourWorkersReproduceSerialBitForBit) {
  std::vector<FuzzJob> jobs = MixedBatch();

  std::vector<JobOutcome> a = RunAll(jobs, /*workers=*/1);
  std::vector<JobOutcome> b = RunAll(jobs, /*workers=*/4);

  ASSERT_EQ(a.size(), jobs.size());
  ASSERT_EQ(b.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(a[i].result.has_value()) << a[i].name << ": " << a[i].error;
    ASSERT_TRUE(b[i].result.has_value()) << b[i].name << ": " << b[i].error;
    // CampaignResult::operator== is field-for-field: coverage, curve, bug
    // reports, bug classes, execution/transaction/instruction counts.
    EXPECT_EQ(*a[i].result, *b[i].result) << "job " << a[i].name;
  }
}

TEST(ParallelRunnerTest, BatchMatchesDirectRunCampaign) {
  // The service is a fan-out, not a different engine: each outcome must be
  // exactly what a plain RunCampaign call produces for the same job.
  std::vector<FuzzJob> jobs = MixedBatch(/*execs=*/100);
  std::vector<JobOutcome> outcomes = RunAll(jobs, /*workers=*/4);

  for (size_t i = 0; i < jobs.size(); ++i) {
    auto artifact = lang::CompileContract(jobs[i].source);
    ASSERT_TRUE(artifact.ok()) << jobs[i].name;
    CampaignResult direct = fuzzer::RunCampaign(*artifact, jobs[i].config);
    ASSERT_TRUE(outcomes[i].result.has_value());
    EXPECT_EQ(direct, *outcomes[i].result) << "job " << jobs[i].name;
  }
}

TEST(ParallelRunnerTest, SessionReuseDoesNotLeakStateAcrossJobs) {
  // The service leases every job's session from its pool, and this batch
  // has more jobs than workers, so later jobs run on recycled sessions.
  // Each result must equal a direct RunCampaign on a backend the campaign
  // owns, which proves Bind() fully resets a recycled session.
  std::vector<FuzzJob> jobs = MixedBatch(/*execs=*/100);
  ServiceOptions options;
  options.workers = 2;
  FuzzService service(options);
  std::vector<JobTicket> tickets;
  for (const FuzzJob& job : jobs) {
    Result<JobTicket> ticket = service.Submit(job);
    ASSERT_TRUE(ticket.ok()) << job.name;
    tickets.push_back(ticket.value());
  }
  std::vector<JobOutcome> pooled;
  for (JobTicket ticket : tickets) pooled.push_back(service.Wait(ticket));
  EXPECT_LT(service.sessions_created(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    auto artifact = lang::CompileContract(jobs[i].source);
    ASSERT_TRUE(artifact.ok()) << jobs[i].name;
    CampaignResult fresh = fuzzer::RunCampaign(*artifact, jobs[i].config);
    ASSERT_TRUE(pooled[i].result.has_value());
    EXPECT_EQ(fresh, *pooled[i].result) << "job " << jobs[i].name;
  }
}

TEST(ParallelRunnerTest, CompileFailureIsASkipMarkerNotAZeroRow) {
  FuzzJob good;
  good.name = "good";
  good.source = corpus::CrowdsaleExample().source;
  good.config.max_executions = 50;
  FuzzJob bad;
  bad.name = "bad";
  bad.source = "contract Broken { function f( public {} }";
  bad.config.max_executions = 50;

  std::vector<JobOutcome> outcomes = RunAll({bad, good});
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].result.has_value());
  EXPECT_FALSE(outcomes[0].error.empty());
  EXPECT_EQ(outcomes[0].name, "bad");
  ASSERT_TRUE(outcomes[1].result.has_value());
  EXPECT_GT(outcomes[1].result->branch_coverage, 0.0);
}

TEST(ParallelRunnerTest, OutcomesStayInJobOrderRegardlessOfWorkers) {
  std::vector<FuzzJob> jobs = MixedBatch(/*execs=*/60);
  std::vector<JobOutcome> outcomes = RunAll(jobs, /*workers=*/4);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(outcomes[i].name, jobs[i].name);
  }
}

TEST(ParallelRunnerTest, PrecompiledArtifactJobsSkipCompilation) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  ASSERT_TRUE(artifact.ok());
  FuzzJob job;
  job.name = "precompiled";
  job.artifact = &*artifact;
  job.config.seed = 9;
  job.config.max_executions = 80;

  std::vector<JobOutcome> outcomes = RunAll({job, job});
  ASSERT_EQ(outcomes.size(), 2u);
  ASSERT_TRUE(outcomes[0].result.has_value());
  // Two identical jobs are identical campaigns.
  EXPECT_EQ(*outcomes[0].result, *outcomes[1].result);
}

TEST(ParallelRunnerTest, DefaultWorkerCountIsPositive) {
  EXPECT_GE(DefaultWorkerCount(), 1);
}

}  // namespace
}  // namespace mufuzz::engine
