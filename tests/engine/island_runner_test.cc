// Island archipelagos on a FuzzService: groups go in through
// SubmitIslandGroup next to standalone jobs, and every member's result is
// independent of the worker count.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "corpus/builtin.h"
#include "engine/fuzz_service.h"
#include "fuzzer/campaign.h"

namespace mufuzz::engine {
namespace {

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

/// An archipelago batch: two groups fuzzing the two paper examples (each
/// island = same contract, different seed) plus one standalone job riding
/// in the same service.
struct IslandBatch {
  std::vector<std::vector<FuzzJob>> groups;
  std::optional<FuzzJob> standalone;
};

IslandBatch MakeIslandBatch(int execs = 200) {
  IslandBatch batch;
  batch.groups.resize(2);
  for (int i = 0; i < 4; ++i) {
    batch.groups[0].push_back(MakeJob("crowdsale#" + std::to_string(i),
                                      corpus::CrowdsaleExample().source,
                                      1 + i, execs));
  }
  for (int i = 0; i < 3; ++i) {
    batch.groups[1].push_back(MakeJob("game#" + std::to_string(i),
                                      corpus::GameExample().source, 10 + i,
                                      execs));
  }
  batch.standalone = MakeJob("standalone", corpus::CrowdsaleExample().source,
                             42, execs, StrategyConfig::SFuzz());
  return batch;
}

ServiceOptions MigrationOptions(int workers) {
  ServiceOptions options;
  options.workers = workers;
  options.exchange_interval = 40;
  options.migration_top_k = 2;
  return options;
}

/// Submits every group and then the standalone job (if any), then waits for
/// all: outcomes in submission order (group members in island order, the
/// standalone job last).
std::vector<JobOutcome> RunAll(const IslandBatch& batch,
                               const ServiceOptions& options) {
  FuzzService service(options);
  std::vector<JobTicket> tickets;
  for (const std::vector<FuzzJob>& members : batch.groups) {
    Result<GroupTicket> group = service.SubmitIslandGroup(members);
    EXPECT_TRUE(group.ok()) << group.status().ToString();
    if (!group.ok()) continue;
    for (JobTicket ticket : group.value().members) tickets.push_back(ticket);
  }
  if (batch.standalone.has_value()) {
    Result<JobTicket> standalone = service.Submit(*batch.standalone);
    EXPECT_TRUE(standalone.ok()) << standalone.status().ToString();
    if (standalone.ok()) tickets.push_back(standalone.value());
  }
  std::vector<JobOutcome> outcomes;
  for (JobTicket ticket : tickets) outcomes.push_back(service.Wait(ticket));
  return outcomes;
}

// With migration enabled, the merged output is bit-for-bit identical at 1,
// 2, and 4 workers — island ids come from submission order and migration
// runs behind a round barrier, so thread scheduling can never leak into
// results.
TEST(IslandRunnerTest, MigrationOutputIsWorkerCountIndependent) {
  IslandBatch batch = MakeIslandBatch();

  std::vector<JobOutcome> w1 = RunAll(batch, MigrationOptions(1));
  std::vector<JobOutcome> w2 = RunAll(batch, MigrationOptions(2));
  std::vector<JobOutcome> w4 = RunAll(batch, MigrationOptions(4));

  ASSERT_EQ(w1.size(), 8u);
  ASSERT_EQ(w2.size(), w1.size());
  ASSERT_EQ(w4.size(), w1.size());
  for (size_t i = 0; i < w1.size(); ++i) {
    ASSERT_TRUE(w1[i].result.has_value()) << w1[i].name << ": " << w1[i].error;
    ASSERT_TRUE(w2[i].result.has_value()) << w2[i].name;
    ASSERT_TRUE(w4[i].result.has_value()) << w4[i].name;
    // Field-for-field: coverage, curves, bugs, counts, queue stats,
    // island ids.
    EXPECT_EQ(*w1[i].result, *w2[i].result) << "job " << w1[i].name;
    EXPECT_EQ(*w1[i].result, *w4[i].result) << "job " << w1[i].name;
  }
}

TEST(IslandRunnerTest, MigrationActuallyExchangesSeeds) {
  std::vector<JobOutcome> outcomes =
      RunAll(MakeIslandBatch(), MigrationOptions(2));
  ASSERT_EQ(outcomes.size(), 8u);

  uint64_t imported = 0, exported = 0;
  for (size_t i = 0; i < 4; ++i) {  // the crowdsale group
    const CampaignResult& result = *outcomes[i].result;
    EXPECT_EQ(result.island_id, static_cast<int>(i)) << outcomes[i].name;
    EXPECT_GT(result.queue_stats.admitted, 0u);
    EXPECT_GT(result.queue_stats.final_queue, 0u);
    imported += result.queue_stats.imported;
    exported += result.queue_stats.exported;
  }
  EXPECT_GT(exported, 0u) << "no island ever exported";
  EXPECT_GT(imported, 0u) << "no migrant was ever admitted";

  // The standalone rider is not part of any archipelago.
  const CampaignResult& standalone = *outcomes.back().result;
  EXPECT_EQ(standalone.island_id, -1);
  EXPECT_EQ(standalone.queue_stats.imported, 0u);
  EXPECT_EQ(standalone.queue_stats.exported, 0u);
}

TEST(IslandRunnerTest, CompileFailureDropsIslandNotGroup) {
  IslandBatch batch;
  batch.groups.resize(1);
  for (int i = 0; i < 3; ++i) {
    batch.groups[0].push_back(MakeJob("island#" + std::to_string(i),
                                      corpus::CrowdsaleExample().source,
                                      1 + i, 80, StrategyConfig()));
  }
  batch.groups[0][1].name = "broken";
  batch.groups[0][1].source = "contract Broken { function f( public {} }";

  std::vector<JobOutcome> outcomes = RunAll(batch, MigrationOptions(2));
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_FALSE(outcomes[1].result.has_value());
  EXPECT_FALSE(outcomes[1].error.empty());
  EXPECT_EQ(outcomes[1].name, "broken");
  // The surviving islands renumber densely and still exchange.
  ASSERT_TRUE(outcomes[0].result.has_value());
  ASSERT_TRUE(outcomes[2].result.has_value());
  EXPECT_EQ(outcomes[0].result->island_id, 0);
  EXPECT_EQ(outcomes[2].result->island_id, 1);
  EXPECT_GT(outcomes[0].result->queue_stats.exported +
                outcomes[2].result->queue_stats.exported,
            0u);
}

TEST(IslandRunnerTest, SingleIslandGroupStillCompletes) {
  IslandBatch batch;
  batch.groups = {{MakeJob("lonely", corpus::CrowdsaleExample().source, 3,
                           100, StrategyConfig())}};

  std::vector<JobOutcome> outcomes = RunAll(batch, MigrationOptions(2));
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].result.has_value());
  EXPECT_GT(outcomes[0].result->executions, 0u);
  EXPECT_EQ(outcomes[0].result->island_id, 0);
  // Nobody to exchange with.
  EXPECT_EQ(outcomes[0].result->queue_stats.imported, 0u);
  EXPECT_EQ(outcomes[0].result->queue_stats.exported, 0u);
}

}  // namespace
}  // namespace mufuzz::engine
