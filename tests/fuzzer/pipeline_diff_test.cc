// Differential tests for the pipelined campaign loop (each sweep plans and
// executes a parent's next child before the previous one is applied): the
// determinism story the ROADMAP demands, pinned end to end.
//
//  1. A pooled, reused SessionBackend reproduces the serial loop on the
//     campaign's private backend bit-for-bit (a recycled session carries
//     nothing from its previous campaign).
//  2. Results are independent of the FuzzService worker count (1/2/4) and
//     equal a direct RunCampaign.
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
#include "fuzzer/campaign.h"
#include "lang/compiler.h"
#include "../engine/submit_all.h"

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

CampaignConfig MakeConfig(uint64_t seed, int execs = 200) {
  CampaignConfig config;
  config.strategy = StrategyConfig::MuFuzz();
  config.seed = seed;
  config.max_executions = execs;
  return config;
}

TEST(PipelineDiffTest, W1OverPooledBackendReproducesSerialLoopBitForBit) {
  // One pool, one session recycled through every contract in turn: each
  // campaign Bind()s a backend that last served a different contract.
  evm::SessionPool pool;
  for (const corpus::CorpusEntry& entry : DiffCorpus()) {
    auto artifact = lang::CompileContract(entry.source);
    ASSERT_TRUE(artifact.ok()) << entry.name;
    CampaignConfig config = MakeConfig(7);
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
    job.config = MakeConfig(9);
    // A direct RunCampaign is the reference.
    references.push_back(RunCampaign(*artifact, job.config));
    jobs.push_back(std::move(job));
  }
  for (int workers : {1, 2, 4}) {
    engine::ServiceOptions options;
    options.workers = workers;
    options.round_quantum = 16;
    std::vector<engine::JobOutcome> outcomes =
        engine::SubmitAllThenWait(jobs, options);
    ASSERT_EQ(outcomes.size(), jobs.size());
    for (size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(outcomes[i].result.has_value()) << outcomes[i].error;
      EXPECT_EQ(references[i], *outcomes[i].result)
          << jobs[i].name << " with " << workers << " service worker(s)";
    }
  }
}

TEST(PipelineDiffTest, PipelinedCampaignIsDeterministic) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  ASSERT_TRUE(artifact.ok());
  CampaignConfig config = MakeConfig(3, /*execs=*/300);
  CampaignResult r1 = RunCampaign(*artifact, config);
  CampaignResult r2 = RunCampaign(*artifact, config);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1.executions, 0u);
  EXPECT_GT(r1.branch_coverage, 0.0);
}

}  // namespace
}  // namespace mufuzz::fuzzer
