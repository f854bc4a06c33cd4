// Differential tests for the wave-pipelined campaign: the determinism story
// the ROADMAP demands, pinned end to end.
//
//  1. W=1 over a pooled, reused SessionBackend reproduces the serial loop
//     on the campaign's private backend bit-for-bit (a recycled session
//     carries nothing from its previous campaign).
//  2. For any fixed wave size W, results are independent of the
//     FuzzService worker count (1/2/4) and equal a direct RunCampaign.
//  3. The same holds through the engine layer: pipelined batches and
//     pipelined islands are bit-for-bit identical at any runner worker
//     count.
//
// CampaignResult::operator== is field-for-field (coverage, curves, bugs,
// executions/transactions/instructions, queue stats), so these are strong
// bit-for-bit assertions, on the fig6 corpus contracts plus the two paper
// examples.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/builtin.h"
#include "corpus/datasets.h"
#include "engine/fuzz_service.h"
#include "engine/parallel_runner.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::fuzzer {
namespace {

std::vector<corpus::CorpusEntry> DiffCorpus() {
  // Three generated fig6 (D1-small) contracts plus the two hand-written
  // paper examples — enough shape diversity to exercise masks, reentrancy
  // probes, and failure injection.
  std::vector<corpus::CorpusEntry> entries = corpus::BuildD1Small(3, 42);
  entries.push_back(corpus::CrowdsaleExample());
  entries.push_back(corpus::GameExample());
  return entries;
}

CampaignConfig MakeConfig(uint64_t seed, int wave_size, int execs = 200) {
  CampaignConfig config;
  config.strategy = StrategyConfig::MuFuzz();
  config.seed = seed;
  config.max_executions = execs;
  config.wave_size = wave_size;
  return config;
}

TEST(PipelineDiffTest, W1OverPooledBackendReproducesSerialLoopBitForBit) {
  // One pool, one session recycled through every contract in turn: each
  // campaign Bind()s a backend that last served a different contract.
  evm::SessionPool pool;
  for (const corpus::CorpusEntry& entry : DiffCorpus()) {
    auto artifact = lang::CompileContract(entry.source);
    ASSERT_TRUE(artifact.ok()) << entry.name;
    CampaignConfig config = MakeConfig(7, /*wave_size=*/1);
    CampaignResult serial = RunCampaign(*artifact, config);
    std::unique_ptr<evm::SessionBackend> session = pool.Acquire();
    CampaignResult pooled = RunCampaign(*artifact, config, session.get());
    pool.Release(std::move(session));
    EXPECT_EQ(serial, pooled) << entry.name;
  }
  EXPECT_EQ(pool.created(), 1u);
}

TEST(PipelineDiffTest, WaveResultsAreWorkerCountIndependent) {
  std::vector<engine::FuzzJob> jobs;
  std::vector<CampaignResult> references;
  for (const corpus::CorpusEntry& entry : DiffCorpus()) {
    auto artifact = lang::CompileContract(entry.source);
    ASSERT_TRUE(artifact.ok()) << entry.name;
    engine::FuzzJob job;
    job.name = entry.name;
    job.source = entry.source;
    job.config = MakeConfig(9, /*wave_size=*/4);
    // W=4 through a direct RunCampaign is the reference.
    references.push_back(RunCampaign(*artifact, job.config));
    jobs.push_back(std::move(job));
  }
  for (int workers : {1, 2, 4}) {
    engine::ServiceOptions options;
    options.workers = workers;
    options.round_quantum = 16;
    engine::FuzzService service(options);
    std::vector<engine::JobTicket> tickets;
    for (const engine::FuzzJob& job : jobs) {
      Result<engine::JobTicket> ticket = service.Submit(job);
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(ticket.value());
    }
    for (size_t i = 0; i < jobs.size(); ++i) {
      engine::JobOutcome outcome = service.Wait(tickets[i]);
      ASSERT_TRUE(outcome.result.has_value()) << outcome.error;
      EXPECT_EQ(references[i], *outcome.result)
          << jobs[i].name << " with " << workers << " service worker(s)";
    }
  }
}

TEST(PipelineDiffTest, PipelinedCampaignIsDeterministic) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  ASSERT_TRUE(artifact.ok());
  CampaignConfig config = MakeConfig(3, /*wave_size=*/8, /*execs=*/300);
  CampaignResult r1 = RunCampaign(*artifact, config);
  CampaignResult r2 = RunCampaign(*artifact, config);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1.executions, 0u);
  EXPECT_GT(r1.branch_coverage, 0.0);
}

TEST(PipelineDiffTest, EnginePipelinedBatchIsRunnerWorkerCountIndependent) {
  std::vector<engine::FuzzJob> jobs;
  for (const corpus::CorpusEntry& entry : DiffCorpus()) {
    engine::FuzzJob job;
    job.name = entry.name;
    job.source = entry.source;
    job.config.strategy = StrategyConfig::MuFuzz();
    job.config.seed = 11 + jobs.size();
    job.config.max_executions = 150;
    jobs.push_back(std::move(job));
  }
  auto run = [&](int runner_workers) {
    engine::RunnerOptions options;
    options.workers = runner_workers;
    options.wave_size = 4;
    return engine::RunBatch(jobs, options);
  };
  std::vector<engine::JobOutcome> w1 = run(1);
  std::vector<engine::JobOutcome> w4 = run(4);
  ASSERT_EQ(w1.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(w1[i].result.has_value()) << w1[i].name << w1[i].error;
    ASSERT_TRUE(w4[i].result.has_value()) << w4[i].name;
    EXPECT_EQ(*w1[i].result, *w4[i].result) << jobs[i].name;
  }
}

TEST(PipelineDiffTest, PipelinedIslandsComposeAndStayDeterministic) {
  // Islands × waves, diffed across runner worker counts: sharded island
  // corpora composed with the wave pipeline.
  std::vector<engine::FuzzJob> jobs;
  for (int island = 0; island < 3; ++island) {
    engine::FuzzJob job;
    job.name = "crowdsale#" + std::to_string(island);
    job.source = corpus::CrowdsaleExample().source;
    job.config.strategy = StrategyConfig::MuFuzz();
    job.config.seed = 1 + island;
    job.config.max_executions = 150;
    job.island_group = 0;
    jobs.push_back(std::move(job));
  }
  auto run = [&](int runner_workers) {
    engine::RunnerOptions options;
    options.workers = runner_workers;
    options.exchange_interval = 40;
    options.wave_size = 4;
    return engine::RunBatch(jobs, options);
  };
  std::vector<engine::JobOutcome> w1 = run(1);
  std::vector<engine::JobOutcome> w4 = run(4);
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(w1[i].result.has_value()) << w1[i].name;
    ASSERT_TRUE(w4[i].result.has_value()) << w4[i].name;
    EXPECT_EQ(*w1[i].result, *w4[i].result) << jobs[i].name;
    EXPECT_EQ(w1[i].result->island_id, static_cast<int>(i));
  }
}

}  // namespace
}  // namespace mufuzz::fuzzer
