// Allocation-regression test: pins the steady-state heap-allocation budget
// of the fuzzing hot loop. After the corpus is seeded and the campaign's
// child slots are warm, an execution should be effectively allocation-free
// — plans, outcomes, traces, and cmp-record buffers all reuse the slots'
// capacity. A regression here (someone re-introducing a per-exec
// vector build) shows up as allocs/exec blowing past the budget. The same
// counters pin what a long-lived FuzzService keeps per finished job.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/alloc_stats.h"
#include "corpus/builtin.h"
#include "corpus/datasets.h"
#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::fuzzer {
namespace {

lang::ContractArtifact CompileOk(std::string_view src) {
  auto result = lang::CompileContract(src);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

/// Steady-state allocations per sequence execution on the Crowdsale
/// campaign, measured over `measure_execs` after `warm_execs` of warm-up.
double SteadyAllocsPerExec(const CampaignConfig& config, uint64_t warm_execs,
                           uint64_t measure_execs) {
  lang::ContractArtifact artifact =
      CompileOk(corpus::CrowdsaleExample().source);
  Campaign campaign(&artifact, config);
  campaign.SeedCorpus();
  campaign.StepRound(warm_execs);  // warms every child slot

  AllocCounters before = CurrentAllocStats();
  uint64_t execs_before = campaign.SnapshotProgress().executions;
  campaign.StepRound(measure_execs);
  AllocCounters after = CurrentAllocStats();
  uint64_t execs_after = campaign.SnapshotProgress().executions;

  uint64_t execs = execs_after - execs_before;
  EXPECT_GT(execs, 0u);
  (void)campaign.Finalize();
  return static_cast<double>(after.allocs - before.allocs) /
         static_cast<double>(execs == 0 ? 1 : execs);
}

TEST(AllocRegressionTest, SteadyStateWaveLoopStaysWithinAllocBudget) {
  if (!AllocStatsEnabled()) {
    GTEST_SKIP() << "built with MUFUZZ_ALLOC_STATS=OFF";
  }
  CampaignConfig config;
  config.strategy = StrategyConfig::MuFuzz();
  config.seed = 7;
  config.max_executions = 4000;

  double per_exec = SteadyAllocsPerExec(config, /*warm_execs=*/600,
                                        /*measure_execs=*/1200);
  // Budget: the pre-recycling hot loop sat around 60+ allocs/exec (fresh
  // plan/outcome/trace vectors every wave); the pooled loop runs around 1.
  // 8 leaves headroom for rare events (new-coverage seed admissions, pool
  // cold misses after corpus growth) without letting per-exec vector
  // rebuilds sneak back in.
  EXPECT_LT(per_exec, 8.0)
      << "steady-state hot loop is allocating per execution again";
}

/// Submits one D2 job per entry from source (MuFuzz, 200 executions — the
/// daemon-scan job shape) and waits for each, discarding the outcomes.
void RunD2Pass(engine::FuzzService* service,
               const std::vector<corpus::CorpusEntry>& d2, uint64_t seed) {
  std::vector<engine::JobTicket> tickets;
  tickets.reserve(d2.size());
  for (size_t i = 0; i < d2.size(); ++i) {
    engine::FuzzJob job;
    job.name = d2[i].name;
    job.source = d2[i].source;
    job.config.strategy = StrategyConfig::MuFuzz();
    job.config.seed = seed * 1000 + i;
    job.config.max_executions = 200;
    auto ticket = service->Submit(std::move(job));
    ASSERT_TRUE(ticket.ok()) << ticket.status().ToString();
    tickets.push_back(ticket.value());
  }
  for (engine::JobTicket ticket : tickets) {
    engine::JobOutcome outcome = service->Wait(ticket);
    EXPECT_TRUE(outcome.result.has_value()) << outcome.error;
  }
}

TEST(AllocRegressionTest, FinishedJobRetainsOnlyItsOutcome) {
  if (!AllocStatsEnabled()) {
    GTEST_SKIP() << "built with MUFUZZ_ALLOC_STATS=OFF";
  }
  const std::vector<corpus::CorpusEntry> d2 = corpus::BuildD2();
  engine::ServiceOptions options;
  options.workers = 1;
  engine::FuzzService service(options);
  // The warm pass fills the process-wide code cache, the session pool and
  // the tenant table, which later jobs reuse.
  RunD2Pass(&service, d2, /*seed=*/1);

  AllocCounters before = CurrentAllocStats();
  RunD2Pass(&service, d2, /*seed=*/2);
  RunD2Pass(&service, d2, /*seed=*/3);
  AllocCounters after = CurrentAllocStats();

  const double jobs = 2.0 * static_cast<double>(d2.size());
  const double live_per_job =
      (static_cast<double>(after.allocs) - static_cast<double>(before.allocs) -
       (static_cast<double>(after.deallocs) -
        static_cast<double>(before.deallocs))) /
      jobs;
  // What a finished job must keep is its outcome (the CampaignResult with
  // its vectors, strings and set nodes), its progress and its record —
  // about 6 allocations. Its compiled artifact (AST, bytecode, ABI, branch
  // map) and its source are dead once it finished; keeping them cost
  // about 44 allocations per job.
  EXPECT_LE(live_per_job, 12.0)
      << "finished jobs keep compile products or their source alive";
}

TEST(AllocRegressionTest, CountersMonotoneAndEnabledFlagConsistent) {
  if (!AllocStatsEnabled()) {
    AllocCounters counters = CurrentAllocStats();
    EXPECT_EQ(counters.allocs, 0u);
    EXPECT_EQ(counters.bytes, 0u);
    GTEST_SKIP() << "built with MUFUZZ_ALLOC_STATS=OFF";
  }
  AllocCounters before = CurrentAllocStats();
  // A vector forced to heap-allocate must move the counters.
  std::vector<uint64_t> v(1024, 1);
  EXPECT_GT(v[0], 0u);
  AllocCounters after = CurrentAllocStats();
  EXPECT_GE(after.allocs, before.allocs + 1);
  EXPECT_GE(after.bytes, before.bytes + 1024 * sizeof(uint64_t));
}

}  // namespace
}  // namespace mufuzz::fuzzer
