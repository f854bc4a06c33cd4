// Island groups through RunIslandGroup: members exchange seeds, island ids
// follow member order, and a group's results depend only on its own
// members — not on the thread that runs it or on other groups running
// beside it.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "corpus/builtin.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::fuzzer {
namespace {

constexpr int kExchangeInterval = 40;

lang::ContractArtifact Compile(const std::string& source) {
  auto artifact = lang::CompileContract(source);
  EXPECT_TRUE(artifact.ok()) << artifact.status().ToString();
  return std::move(artifact).value();
}

/// `count` members fuzzing under seeds first_seed, first_seed + 1, ...
std::vector<CampaignConfig> Members(int count, uint64_t first_seed, int execs,
                                    StrategyConfig strategy =
                                        StrategyConfig::MuFuzz()) {
  std::vector<CampaignConfig> members(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    members[i].strategy = strategy;
    members[i].seed = first_seed + static_cast<uint64_t>(i);
    members[i].max_executions = execs;
  }
  return members;
}

void ExpectSameResults(const std::vector<CampaignResult>& a,
                       const std::vector<CampaignResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // Field-for-field: coverage, curves, bugs, counts, queue stats,
    // island ids.
    EXPECT_EQ(a[i], b[i]) << "island " << i;
  }
}

// Two groups (the two paper examples) run one after the other on this
// thread, and then on one thread each at the same time, give bit-for-bit
// identical results: island ids come from member order and migration runs
// behind a round barrier, so neither the thread count nor a neighbouring
// group can leak into results.
TEST(IslandRunnerTest, MigrationOutputIsWorkerCountIndependent) {
  const lang::ContractArtifact crowdsale =
      Compile(corpus::CrowdsaleExample().source);
  const lang::ContractArtifact game = Compile(corpus::GameExample().source);
  const std::vector<CampaignConfig> crowdsale_members = Members(4, 1, 200);
  const std::vector<CampaignConfig> game_members = Members(3, 10, 200);

  std::vector<CampaignResult> serial_crowdsale =
      RunIslandGroup(crowdsale, crowdsale_members, kExchangeInterval);
  std::vector<CampaignResult> serial_game =
      RunIslandGroup(game, game_members, kExchangeInterval);

  std::vector<CampaignResult> threaded_crowdsale;
  std::vector<CampaignResult> threaded_game;
  std::thread other([&] {
    threaded_game = RunIslandGroup(game, game_members, kExchangeInterval);
  });
  threaded_crowdsale =
      RunIslandGroup(crowdsale, crowdsale_members, kExchangeInterval);
  other.join();

  ASSERT_EQ(serial_crowdsale.size(), 4u);
  ASSERT_EQ(serial_game.size(), 3u);
  ExpectSameResults(serial_crowdsale, threaded_crowdsale);
  ExpectSameResults(serial_game, threaded_game);
}

TEST(IslandRunnerTest, MigrationActuallyExchangesSeeds) {
  const lang::ContractArtifact crowdsale =
      Compile(corpus::CrowdsaleExample().source);
  std::vector<CampaignResult> results =
      RunIslandGroup(crowdsale, Members(4, 1, 200), kExchangeInterval);
  ASSERT_EQ(results.size(), 4u);

  uint64_t imported = 0, exported = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].island_id, static_cast<int>(i));
    EXPECT_GT(results[i].queue_stats.admitted, 0u);
    EXPECT_GT(results[i].queue_stats.final_queue, 0u);
    imported += results[i].queue_stats.imported;
    exported += results[i].queue_stats.exported;
  }
  EXPECT_GT(exported, 0u) << "no island ever exported";
  EXPECT_GT(imported, 0u) << "no migrant was ever admitted";

  // A standalone campaign is not part of any archipelago.
  CampaignConfig solo;
  solo.strategy = StrategyConfig::SFuzz();
  solo.seed = 42;
  solo.max_executions = 200;
  CampaignResult standalone = RunCampaign(crowdsale, solo);
  EXPECT_EQ(standalone.island_id, -1);
  EXPECT_EQ(standalone.queue_stats.imported, 0u);
  EXPECT_EQ(standalone.queue_stats.exported, 0u);
}

// Island ids are 0..n-1 in member order, whatever each member's own
// configuration: a group mixing strategies keeps each member's slot, and
// reordering the members moves the ids with them.
TEST(IslandRunnerTest, IslandIdsAreDenseInMemberOrder) {
  const lang::ContractArtifact crowdsale =
      Compile(corpus::CrowdsaleExample().source);
  std::vector<CampaignConfig> members = Members(3, 1, 80, StrategyConfig());
  members[1].strategy = StrategyConfig::SFuzz();

  std::vector<CampaignResult> results =
      RunIslandGroup(crowdsale, members, kExchangeInterval);
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].island_id, static_cast<int>(i));
    EXPECT_GE(results[i].executions, 80u);
  }
  EXPECT_GT(results[0].queue_stats.exported + results[2].queue_stats.exported,
            0u);

  std::vector<CampaignResult> swapped = RunIslandGroup(
      crowdsale, {members[2], members[1], members[0]}, kExchangeInterval);
  ASSERT_EQ(swapped.size(), 3u);
  for (size_t i = 0; i < swapped.size(); ++i) {
    EXPECT_EQ(swapped[i].island_id, static_cast<int>(i));
  }
}

TEST(IslandRunnerTest, SingleIslandGroupStillCompletes) {
  const lang::ContractArtifact crowdsale =
      Compile(corpus::CrowdsaleExample().source);
  std::vector<CampaignResult> results = RunIslandGroup(
      crowdsale, Members(1, 3, 100, StrategyConfig()), kExchangeInterval);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].executions, 0u);
  EXPECT_EQ(results[0].island_id, 0);
  // Nobody to exchange with.
  EXPECT_EQ(results[0].queue_stats.imported, 0u);
  EXPECT_EQ(results[0].queue_stats.exported, 0u);
}

// A one-member group whose exchange interval covers the whole budget runs
// exactly the schedule of a plain RunCampaign: one round, no migration.
// Only the island id tells the two apart.
TEST(IslandRunnerTest, OneMemberGroupMatchesRunCampaign) {
  const lang::ContractArtifact crowdsale =
      Compile(corpus::CrowdsaleExample().source);
  for (int fanout : {1, 4}) {
    CampaignConfig config;
    config.strategy = StrategyConfig::MuFuzz();
    config.seed = 9;
    config.max_executions = 300;
    config.fanout = fanout;
    for (int interval : {300, 1000}) {
      SCOPED_TRACE("fanout=" + std::to_string(fanout) +
                   " interval=" + std::to_string(interval));
      std::vector<CampaignResult> group =
          RunIslandGroup(crowdsale, {config}, interval);
      CampaignResult direct = RunCampaign(crowdsale, config);
      ASSERT_EQ(group.size(), 1u);
      EXPECT_EQ(group[0].island_id, 0);
      EXPECT_EQ(direct.island_id, -1);
      group[0].island_id = direct.island_id;
      EXPECT_EQ(group[0], direct);
    }
  }
}

// A contract with no function to call leaves every member Done() from the
// start: the group must return instead of spinning on rounds that step
// nobody.
TEST(IslandRunnerTest, NoFunctionMemberDoesNotStallItsGroup) {
  const lang::ContractArtifact empty = Compile("contract Empty { uint256 x; }");
  std::vector<CampaignResult> results =
      RunIslandGroup(empty, Members(2, 1, 200), 50);
  ASSERT_EQ(results.size(), 2u);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].executions, 0u);
    EXPECT_EQ(results[i].island_id, static_cast<int>(i));
  }
}

// A member that starts with an empty queue is Done() until a migration
// round hands it seeds; Done() is read afresh every round, so it then
// steps like any other member.
TEST(IslandRunnerTest, MigrationRefillsAnEmptyIsland) {
  const lang::ContractArtifact crowdsale =
      Compile(corpus::CrowdsaleExample().source);
  std::vector<CampaignConfig> members = Members(2, 5, 200);
  members[1].initial_seeds = 0;

  std::vector<CampaignResult> results =
      RunIslandGroup(crowdsale, members, kExchangeInterval);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_GE(results[0].executions, 200u);
  EXPECT_GT(results[1].queue_stats.imported, 0u);
  EXPECT_GE(results[1].executions, 200u) << "the refilled island never ran";
}

}  // namespace
}  // namespace mufuzz::fuzzer
