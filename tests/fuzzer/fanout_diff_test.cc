// Differential tests for speculative multi-parent fan-out: the campaign's
// K-parent expansion must widen the schedule without ever widening the set
// of things results may depend on.
//
//  1. fanout=0 reproduces fanout=1, the serial parent chain, bit-for-bit
//     — K only changes results when it actually changes.
//  2. For any fixed K, results are independent of the FuzzService worker
//     count (1/2/4): all K in-flight children apply in (parent rank, child
//     index) order.
//  3. The same holds through the engine layer — fanned-out job sets,
//     streamed jobs at any round quantum, and streamed-then-cancelled jobs
//     — and through island groups: all bit-for-bit reproducible.
//  4. A K far past the queue size costs no more than K = the queue bound.
//
// CampaignResult::operator== is field-for-field (coverage, curves, bugs,
// executions/transactions/instructions, queue stats — including the new
// selects/select_rounds counters), so these are strong bit-for-bit
// assertions. Test names start with "Fanout" so CI's TSan job picks the
// whole binary up by regex.

#include <gtest/gtest.h>

#include <climits>
#include <string>
#include <thread>
#include <vector>

#include "common/alloc_stats.h"
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
  // paper examples — the same shape diversity the pipeline suite uses.
  std::vector<corpus::CorpusEntry> entries = corpus::BuildD1Small(3, 42);
  entries.push_back(corpus::CrowdsaleExample());
  entries.push_back(corpus::GameExample());
  return entries;
}

CampaignConfig MakeConfig(uint64_t seed, int fanout, int execs = 200) {
  CampaignConfig config;
  config.strategy = StrategyConfig::MuFuzz();
  config.seed = seed;
  config.max_executions = execs;
  config.fanout = fanout;
  return config;
}

CampaignResult RunWith(const lang::ContractArtifact& artifact, uint64_t seed,
                       int fanout, int execs = 200) {
  return RunCampaign(artifact, MakeConfig(seed, fanout, execs));
}


TEST(FanoutDiffTest, Fanout1ReproducesSerialParentChainBitForBit) {
  for (const corpus::CorpusEntry& entry : DiffCorpus()) {
    auto artifact = lang::CompileContract(entry.source);
    ASSERT_TRUE(artifact.ok()) << entry.name;
    // fanout=1 (the default) is the pre-fanout schedule; fanout=0, the "no
    // speculation" spelling, must match it.
    CampaignResult serial = RunWith(*artifact, 7, /*fanout=*/1);
    CampaignResult no_spec = RunWith(*artifact, 7, /*fanout=*/0);
    EXPECT_EQ(serial, no_spec) << entry.name << " fanout=0 vs fanout=1";
  }
}

TEST(FanoutDiffTest, Fanout4IsServiceWorkerCountIndependent) {
  std::vector<engine::FuzzJob> jobs;
  std::vector<CampaignResult> references;
  for (const corpus::CorpusEntry& entry : DiffCorpus()) {
    auto artifact = lang::CompileContract(entry.source);
    ASSERT_TRUE(artifact.ok()) << entry.name;
    engine::FuzzJob job;
    job.name = entry.name;
    job.source = entry.source;
    job.config = MakeConfig(9, /*fanout=*/4);
    // K=4 through a direct RunCampaign is the reference: four children in
    // flight, applied in rank order on whichever worker runs the job.
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

TEST(FanoutDiffTest, FanoutCampaignIsDeterministicAndCountsSelections) {
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  ASSERT_TRUE(artifact.ok());
  CampaignResult r1 = RunWith(*artifact, 3, /*fanout=*/4, /*execs=*/300);
  CampaignResult r2 = RunWith(*artifact, 3, /*fanout=*/4, /*execs=*/300);
  EXPECT_EQ(r1, r2);
  EXPECT_GT(r1.executions, 0u);
  EXPECT_GT(r1.branch_coverage, 0.0);
  // The queue saw multi-parent rounds: more selects than rounds, and an
  // average expansion width above the serial chain's 1.0 (the corpus has
  // 4 initial seeds, so full-width rounds exist).
  EXPECT_GT(r1.queue_stats.selects, r1.queue_stats.select_rounds);
  EXPECT_GT(r1.queue_stats.selects_per_round, 1.0);
}

TEST(FanoutDiffTest, FanoutBatchIsRunnerWorkerCountIndependent) {
  std::vector<engine::FuzzJob> jobs;
  for (const corpus::CorpusEntry& entry : DiffCorpus()) {
    engine::FuzzJob job;
    job.name = entry.name;
    job.source = entry.source;
    job.config.strategy = StrategyConfig::MuFuzz();
    job.config.seed = 11 + jobs.size();
    job.config.max_executions = 150;
    job.config.fanout = 4;
    jobs.push_back(std::move(job));
  }
  engine::ServiceOptions one_worker;
  one_worker.workers = 1;
  engine::ServiceOptions four_workers;
  four_workers.workers = 4;
  std::vector<engine::JobOutcome> w1 =
      engine::SubmitAllThenWait(jobs, one_worker);
  std::vector<engine::JobOutcome> w4 =
      engine::SubmitAllThenWait(jobs, four_workers);
  ASSERT_EQ(w1.size(), jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    ASSERT_TRUE(w1[i].result.has_value()) << w1[i].name << w1[i].error;
    ASSERT_TRUE(w4[i].result.has_value()) << w4[i].name;
    EXPECT_EQ(*w1[i].result, *w4[i].result) << jobs[i].name;
    // The direct campaign with the same config must agree bit for bit
    // (the serial monolith of the same (seed, K) key).
    auto artifact = lang::CompileContract(jobs[i].source);
    ASSERT_TRUE(artifact.ok());
    EXPECT_EQ(RunCampaign(*artifact, jobs[i].config), *w1[i].result)
        << jobs[i].name;
  }
}

TEST(FanoutDiffTest, FanoutComposesWithIslands) {
  // Islands × fan-out: migration rounds are barriers, so each island's
  // K-parent rounds nest inside its exchange interval unchanged. The group
  // run twice, and twice more on two threads at once, agrees bit for bit.
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  ASSERT_TRUE(artifact.ok());
  std::vector<CampaignConfig> members(3);
  for (int island = 0; island < 3; ++island) {
    members[island].strategy = StrategyConfig::MuFuzz();
    members[island].seed = 1 + island;
    members[island].max_executions = 150;
    members[island].fanout = 4;
  }
  auto run = [&] { return RunIslandGroup(*artifact, members, 40); };
  std::vector<CampaignResult> first = run();
  std::vector<CampaignResult> second = run();
  std::vector<CampaignResult> concurrent;
  std::thread other([&] { concurrent = run(); });
  std::vector<CampaignResult> beside = run();
  other.join();

  ASSERT_EQ(first.size(), members.size());
  for (const std::vector<CampaignResult>* again :
       {&second, &concurrent, &beside}) {
    ASSERT_EQ(again->size(), members.size());
    for (size_t i = 0; i < members.size(); ++i) {
      EXPECT_EQ(first[i], (*again)[i]) << "island " << i;
    }
  }
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(first[i].island_id, static_cast<int>(i));
    EXPECT_GE(first[i].executions, 150u);
  }
}

TEST(FanoutDiffTest, FanoutStreamedResultIsQuantumIndependent) {
  // The streamed path parks the whole K-parent set (and its in-flight
  // children) across quanta: any round_quantum must reproduce the
  // monolithic schedule.
  auto run = [&](int quantum) {
    engine::ServiceOptions options;
    options.workers = 2;
    options.round_quantum = quantum;
    engine::FuzzService service(options);
    engine::FuzzJob job;
    job.name = "crowdsale";
    job.source = corpus::CrowdsaleExample().source;
    job.config.strategy = StrategyConfig::MuFuzz();
    job.config.seed = 5;
    job.config.max_executions = 300;
    job.config.fanout = 4;
    auto ticket = service.Submit(job);
    EXPECT_TRUE(ticket.ok());
    return service.Wait(ticket.value());
  };
  engine::JobOutcome fine = run(16);
  engine::JobOutcome coarse = run(256);
  ASSERT_TRUE(fine.result.has_value()) << fine.error;
  ASSERT_TRUE(coarse.result.has_value()) << coarse.error;
  EXPECT_EQ(*fine.result, *coarse.result);
}

TEST(FanoutDiffTest, FanoutStreamedThenCancelledJobIsPartialButValid) {
  engine::ServiceOptions options;
  options.workers = 1;
  options.round_quantum = 16;  // fine-grained rounds → prompt cancel
  engine::FuzzService service(options);
  engine::FuzzJob job;
  job.name = "victim";
  job.source = corpus::CrowdsaleExample().source;
  job.config.strategy = StrategyConfig::MuFuzz();
  job.config.seed = 11;
  job.config.max_executions = 1000000;
  job.config.fanout = 4;
  auto ticket = service.Submit(job);
  ASSERT_TRUE(ticket.ok());
  for (;;) {
    engine::JobProgress progress = service.Poll(ticket.value());
    EXPECT_EQ(progress.fanout, 4);
    if (progress.executions > 100 ||
        progress.state == engine::JobState::kDone) {
      break;
    }
    std::this_thread::yield();
  }
  service.Cancel(ticket.value());
  engine::JobOutcome outcome = service.Wait(ticket.value());
  ASSERT_TRUE(outcome.result.has_value());
  EXPECT_TRUE(outcome.result->cancelled);
  // Partial but valid, with every executed child of all K parked parents
  // applied by the drain: executions account for the full in-flight set,
  // and the final snapshot reports nothing speculative left.
  EXPECT_GT(outcome.result->executions, 0u);
  EXPECT_LT(outcome.result->executions, 1000000u);
  EXPECT_GT(outcome.result->branch_coverage, 0.0);
  engine::JobProgress final_progress = service.Poll(ticket.value());
  EXPECT_TRUE(final_progress.cancelled);
  EXPECT_EQ(final_progress.state, engine::JobState::kDone);
  EXPECT_EQ(final_progress.parents_in_flight, 0);
  EXPECT_EQ(final_progress.inflight_executions, 0u);
  EXPECT_EQ(final_progress.executions, outcome.result->executions);
}

TEST(FanoutDiffTest, FanoutIntMaxReservesOnlyResidents) {
  // `fanout` reaches SeedScheduler::SelectParents straight from a SUBMIT,
  // which accepts any non-negative i32. Picks stop at the resident count, so
  // K = INT_MAX runs exactly the schedule of K = the queue bound — and must
  // not reserve room for INT_MAX picks (16 GiB) on every selection round.
  if (!AllocStatsEnabled()) {
    GTEST_SKIP() << "built without MUFUZZ_ALLOC_STATS";
  }
  auto artifact = lang::CompileContract(corpus::CrowdsaleExample().source);
  ASSERT_TRUE(artifact.ok());
  CampaignResult bounded = RunWith(
      *artifact, 5, static_cast<int>(SeedScheduler::kDefaultMaxQueue));
  const uint64_t before = CurrentAllocStats().bytes;
  CampaignResult unbounded = RunWith(*artifact, 5, /*fanout=*/INT_MAX);
  const uint64_t bytes = CurrentAllocStats().bytes - before;
  EXPECT_EQ(bounded, unbounded);
  EXPECT_LT(bytes, uint64_t{64} << 20) << "bytes allocated by one campaign";
}

}  // namespace
}  // namespace mufuzz::fuzzer
