#include "evm/execution_backend.h"

#include <gtest/gtest.h>

#include "corpus/builtin.h"
#include "evm/executor.h"
#include "evm/taint.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::evm {
namespace {

/// ChainSession::Snapshot/Restore is the mechanism the whole deploy-once/
/// rewind-many substrate (and therefore the session pool) leans on; these
/// tests pin its semantics for storage, balances, and block context.

TEST(ChainSessionSnapshotTest, RestoresBalances) {
  AcceptingHost host;
  ChainSession session(&host);
  Address alice = Address::FromUint(0xa);
  Address bob = Address::FromUint(0xb);
  session.FundAccount(alice, U256(1000));
  session.FundAccount(bob, U256(5));

  ChainSession::SessionSnapshot snap = session.Snapshot();
  session.state().Transfer(alice, bob, U256(600));
  ASSERT_EQ(session.state().GetBalance(alice), U256(400));

  session.Restore(snap);
  EXPECT_EQ(session.state().GetBalance(alice), U256(1000));
  EXPECT_EQ(session.state().GetBalance(bob), U256(5));
}

TEST(ChainSessionSnapshotTest, RestoresStorage) {
  AcceptingHost host;
  ChainSession session(&host);
  Address contract = Address::FromUint(0xc);
  session.state().SetStorage(contract, U256(1), U256(7));

  ChainSession::SessionSnapshot snap = session.Snapshot();
  session.state().SetStorage(contract, U256(1), U256(99));
  session.state().SetStorage(contract, U256(2), U256(123));

  session.Restore(snap);
  const Account* account = session.state().Find(contract);
  ASSERT_NE(account, nullptr);
  EXPECT_EQ(account->storage.Load(U256(1)), U256(7));
  EXPECT_EQ(account->storage.Load(U256(2)), U256::Zero());
}

TEST(ChainSessionSnapshotTest, RestoresStorageTaint) {
  AcceptingHost host;
  ChainSession session(&host);
  Address contract = Address::FromUint(0xc);
  session.state().SetStorage(contract, U256(1), U256(7), kTaintBlock);

  ChainSession::SessionSnapshot snap = session.Snapshot();
  session.state().SetStorage(contract, U256(1), U256(9), kTaintCaller);

  session.Restore(snap);
  EXPECT_EQ(session.state().GetStorageTaint(contract, U256(1)), kTaintBlock);
  const Account* account = session.state().Find(contract);
  ASSERT_NE(account, nullptr);
  EXPECT_EQ(account->storage.taints().at(U256(1)), kTaintBlock);
}

/// Nested session snapshots behave like a stack: restoring the inner one
/// leaves the outer restorable, and restoring the outer discards the inner.
TEST(ChainSessionSnapshotTest, NestedSessionSnapshots) {
  AcceptingHost host;
  ChainSession session(&host);
  Address alice = Address::FromUint(0xa);
  session.FundAccount(alice, U256(1));
  ChainSession::SessionSnapshot outer = session.Snapshot();
  session.FundAccount(alice, U256(2));
  ChainSession::SessionSnapshot inner = session.Snapshot();
  session.FundAccount(alice, U256(3));

  session.Restore(inner);
  EXPECT_EQ(session.state().GetBalance(alice), U256(2));
  session.FundAccount(alice, U256(4));
  session.Restore(inner);
  EXPECT_EQ(session.state().GetBalance(alice), U256(2));

  session.Restore(outer);
  EXPECT_EQ(session.state().GetBalance(alice), U256(1));
}

TEST(ChainSessionSnapshotTest, RestoresBlockContext) {
  AcceptingHost host;
  BlockContext block;
  block.number = 100;
  block.timestamp = 5000;
  ChainSession session(&host, block);

  ChainSession::SessionSnapshot snap = session.Snapshot();
  // Apply advances the block (number +1, timestamp +13) even when the
  // target has no code.
  TransactionRequest tx;
  tx.to = Address::FromUint(0x1);
  tx.sender = Address::FromUint(0x2);
  session.Apply(tx);
  session.Apply(tx);
  ASSERT_EQ(session.block().number, 102u);
  ASSERT_EQ(session.block().timestamp, 5000u + 26u);

  session.Restore(snap);
  EXPECT_EQ(session.block().number, 100u);
  EXPECT_EQ(session.block().timestamp, 5000u);
}

TEST(ChainSessionSnapshotTest, RestoreKeepSupportsRepeatedRewinds) {
  AcceptingHost host;
  ChainSession session(&host);
  Address alice = Address::FromUint(0xa);
  session.FundAccount(alice, U256(50));
  ChainSession::SessionSnapshot snap = session.Snapshot();

  for (int round = 0; round < 3; ++round) {
    session.FundAccount(alice, U256(round));
    session.Restore(snap);
    EXPECT_EQ(session.state().GetBalance(alice), U256(50)) << round;
  }
}

/// End-to-end over a real contract: deploy through the backend, execute a
/// state-changing transaction, rewind, and check the slate is clean.
class SessionBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto compiled =
        lang::CompileContract(corpus::CrowdsaleExample().source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    artifact_ = std::move(compiled).value();
  }

  /// Calldata for invest(amount) via the fuzzer's codec.
  Bytes InvestCalldata(uint64_t amount) {
    fuzzer::AbiCodec codec(&artifact_.abi, {Address::FromUint(0xd0)});
    fuzzer::Tx tx;
    tx.fn_index = 0;  // invest(uint256)
    tx.args = {U256(amount)};
    return codec.EncodeCalldata(tx);
  }

  lang::ContractArtifact artifact_;
};

TEST_F(SessionBackendTest, DeployOnceRewindMany) {
  AcceptingHost host;
  SessionBackend backend(&host);
  Address deployer = Address::FromUint(0xd0);
  backend.FundAccount(deployer, U256::PowerOfTen(24));
  auto addr = backend.DeployContract(artifact_.runtime_code,
                                     artifact_.ctor_code, {}, deployer,
                                     U256(0));
  ASSERT_TRUE(addr.ok());
  backend.MarkDeployed();

  const Account* account = backend.state().Find(addr.value());
  ASSERT_NE(account, nullptr);
  size_t baseline_slots = account->storage.size();

  SequencePlan plan;
  PreparedTx ptx;
  ptx.request.to = addr.value();
  ptx.request.sender = deployer;
  ptx.request.value = U256(40);
  ptx.request.data = InvestCalldata(40);
  plan.txs.push_back(ptx);
  for (int round = 0; round < 3; ++round) {
    SequenceOutcome outcome = backend.ExecuteSequence(plan);
    ASSERT_EQ(outcome.txs.size(), 1u);
    ASSERT_TRUE(outcome.txs[0].success) << "round " << round;
    // invest() writes raised/deposits storage; the plan's effects stay
    // until the next plan (or an explicit Rewind) — outcomes are values,
    // the session state is scratch.
    EXPECT_GT(backend.state().Find(addr.value())->storage.size(),
              baseline_slots);
    backend.Rewind();
    EXPECT_EQ(backend.state().Find(addr.value())->storage.size(),
              baseline_slots);
  }
}

TEST_F(SessionBackendTest, ExecuteRecordsATrace) {
  AcceptingHost host;
  SessionBackend backend(&host);
  Address deployer = Address::FromUint(0xd0);
  backend.FundAccount(deployer, U256::PowerOfTen(24));
  auto addr = backend.DeployContract(artifact_.runtime_code,
                                     artifact_.ctor_code, {}, deployer,
                                     U256(0));
  ASSERT_TRUE(addr.ok());
  backend.MarkDeployed();

  SequencePlan plan;
  PreparedTx ptx;
  ptx.tag = 7;
  ptx.request.to = addr.value();
  ptx.request.sender = deployer;
  ptx.request.value = U256(1);
  ptx.request.data = InvestCalldata(1);
  plan.txs.push_back(ptx);
  SequenceOutcome outcome = backend.ExecuteSequence(plan);
  ASSERT_EQ(outcome.txs.size(), 1u);
  EXPECT_EQ(outcome.txs[0].tag, 7);
  EXPECT_GT(outcome.txs[0].trace.instruction_count(), 0u);
  EXPECT_FALSE(outcome.txs[0].trace.branches().empty());
  EXPECT_EQ(outcome.instructions, outcome.txs[0].trace.instruction_count());
}

TEST_F(SessionBackendTest, BindResetsAllSessionState) {
  AcceptingHost host;
  SessionBackend backend(&host);
  backend.FundAccount(Address::FromUint(0xa), U256(123));
  ASSERT_EQ(backend.state().GetBalance(Address::FromUint(0xa)), U256(123));

  backend.Bind(&host);
  EXPECT_EQ(backend.state().GetBalance(Address::FromUint(0xa)),
            U256::Zero());
  EXPECT_EQ(backend.state().account_count(), 0u);
}

TEST_F(SessionBackendTest, CampaignUnbindsExternalBackendOnDestruction) {
  // The campaign's host dies with it; a caller-supplied backend must come
  // back unbound rather than pointing at the dead host.
  SessionBackend backend;
  fuzzer::CampaignConfig config;
  config.max_executions = 30;
  fuzzer::RunCampaign(artifact_, config, &backend);
  EXPECT_FALSE(backend.bound());
}

TEST(SessionPoolTest, RecyclesReleasedBackends) {
  SessionPool pool;
  EXPECT_EQ(pool.created(), 0u);

  std::unique_ptr<SessionBackend> a = pool.Acquire();
  std::unique_ptr<SessionBackend> b = pool.Acquire();
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.pooled(), 0u);

  SessionBackend* raw = a.get();
  pool.Release(std::move(a));
  EXPECT_EQ(pool.pooled(), 1u);

  std::unique_ptr<SessionBackend> c = pool.Acquire();
  EXPECT_EQ(c.get(), raw);  // recycled, not freshly created
  EXPECT_EQ(pool.created(), 2u);
  EXPECT_EQ(pool.pooled(), 0u);

  pool.Release(std::move(b));
  pool.Release(std::move(c));
  EXPECT_EQ(pool.pooled(), 2u);
}

}  // namespace
}  // namespace mufuzz::evm
