// Parameterized conformance suite for the ExecutionBackend contract: the
// in-process SessionBackend under both interpreter tiers (decoded and the
// byte-switch oracle) must satisfy the same plan-in/outcome-out semantics:
//  - Bind/Deploy/MarkDeployed/Rewind round-trips leave the slate clean;
//  - outcomes are self-contained values, isolated between sequences (batch
//    neighbors and re-executions never bleed into each other);
//  - batch results equal serial results, in plan order, and recycled
//    outcome buffers carry nothing over into the next batch;
//  - results are bit-for-bit identical across tiers, which is the
//    foundation of the campaign-level determinism tests.
// Outcomes are compared through the event-complete Fingerprint of
// outcome_fingerprint.h; prefix_resume_test.cc holds the resume suite.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "corpus/builtin.h"
#include "evm/execution_backend.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/fuzzing_host.h"
#include "lang/compiler.h"
#include "outcome_fingerprint.h"

namespace mufuzz::evm {
namespace {

std::vector<std::string> Fingerprints(
    const std::vector<SequenceOutcome>& outcomes) {
  std::vector<std::string> fps;
  fps.reserve(outcomes.size());
  for (const SequenceOutcome& o : outcomes) fps.push_back(Fingerprint(o));
  return fps;
}

class BackendConformanceTest : public BackendTierTest {
 protected:
  void SetUp() override {
    auto compiled = lang::CompileContract(corpus::CrowdsaleExample().source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    artifact_ = std::move(compiled).value();
    deployer_ = Address::FromUint(0xd0);
    // A stochastic-but-sequence-pure host: the conformance suite must hold
    // under failure injection, not just the benign AcceptingHost.
    host_ = std::make_unique<fuzzer::FuzzingHost>(
        /*seed=*/0x5eedf00d, /*failure_probability=*/0.25,
        /*max_reentries=*/2);
  }

  /// An unbound backend of the tier under test.
  std::unique_ptr<ExecutionBackend> MakeBackend() const {
    return NewBackend(GetParam());
  }

  /// Binds, funds, deploys, and marks — the setup phase every campaign runs.
  void Prepare(ExecutionBackend* backend) {
    backend->Bind(host_.get());
    backend->FundAccount(deployer_, U256::PowerOfTen(24));
    auto addr = backend->DeployContract(artifact_.runtime_code,
                                        artifact_.ctor_code, {}, deployer_,
                                        U256(0));
    ASSERT_TRUE(addr.ok());
    contract_ = addr.value();
    backend->FundAccount(contract_, U256::PowerOfTen(20));
    backend->MarkDeployed();
  }

  /// invest(amount) carrying `amount` wei, tagged with `tag`.
  PreparedTx Invest(uint64_t amount, int tag) {
    fuzzer::AbiCodec codec(&artifact_.abi, {deployer_});
    fuzzer::Tx tx;
    tx.fn_index = 0;
    tx.args = {U256(amount)};
    PreparedTx prepared;
    prepared.tag = tag;
    prepared.request.to = contract_;
    prepared.request.sender = deployer_;
    prepared.request.value = U256(amount);
    prepared.request.data = codec.EncodeCalldata(tx);
    return prepared;
  }

  /// A batch of distinct single-tx and multi-tx plans with distinct
  /// environment seeds.
  std::vector<SequencePlan> SamplePlans() {
    std::vector<SequencePlan> plans;
    for (uint64_t k = 0; k < 6; ++k) {
      SequencePlan plan;
      plan.host_seed = 0x1000 + k;
      plan.txs.push_back(Invest(10 + 7 * k, /*tag=*/0));
      if (k % 2 == 0) plan.txs.push_back(Invest(3 + k, /*tag=*/1));
      plans.push_back(std::move(plan));
    }
    return plans;
  }

  lang::ContractArtifact artifact_;
  std::unique_ptr<fuzzer::FuzzingHost> host_;
  Address deployer_;
  Address contract_;
};

TEST_P(BackendConformanceTest, BindDeployMarkRewindRoundTrip) {
  std::unique_ptr<ExecutionBackend> backend = MakeBackend();
  Prepare(backend.get());

  const Account* account = backend->state().Find(contract_);
  ASSERT_NE(account, nullptr);
  size_t baseline_slots = account->storage.size();

  SequencePlan plan;
  plan.host_seed = 42;
  plan.txs.push_back(Invest(40, 0));
  for (int round = 0; round < 3; ++round) {
    SequenceOutcome outcome = backend->ExecuteSequence(plan);
    ASSERT_EQ(outcome.txs.size(), 1u);
    EXPECT_TRUE(outcome.txs[0].success) << "round " << round;
    backend->Rewind();
    EXPECT_EQ(backend->state().Find(contract_)->storage.size(),
              baseline_slots)
        << "round " << round;
  }
}

TEST_P(BackendConformanceTest, RebindResetsAllSessionState) {
  std::unique_ptr<ExecutionBackend> backend = MakeBackend();
  Prepare(backend.get());
  EXPECT_GT(backend->state().account_count(), 0u);

  backend->Bind(host_.get());
  EXPECT_EQ(backend->state().account_count(), 0u);
}

TEST_P(BackendConformanceTest, MatchesSessionBackendReference) {
  // The cross-tier contract: every tier produces exactly what the decoded
  // reference produces, outcome for outcome.
  SessionBackend reference;
  Prepare(&reference);
  std::vector<SequencePlan> plans = SamplePlans();
  std::vector<SequenceOutcome> expected;
  for (const SequencePlan& plan : plans) {
    expected.push_back(reference.ExecuteSequence(plan));
  }

  std::unique_ptr<ExecutionBackend> backend = MakeBackend();
  Prepare(backend.get());
  std::vector<SequenceOutcome> actual = backend->ExecuteSequenceBatch(plans);
  EXPECT_EQ(Fingerprints(actual), Fingerprints(expected));
}

TEST_P(BackendConformanceTest, BatchEqualsSerialOnSameBackend) {
  std::unique_ptr<ExecutionBackend> backend = MakeBackend();
  Prepare(backend.get());
  std::vector<SequencePlan> plans = SamplePlans();

  std::vector<SequenceOutcome> serial;
  for (const SequencePlan& plan : plans) {
    serial.push_back(backend->ExecuteSequence(plan));
  }
  std::vector<SequenceOutcome> batch = backend->ExecuteSequenceBatch(plans);
  EXPECT_EQ(Fingerprints(batch), Fingerprints(serial));
}

TEST_P(BackendConformanceTest, OutcomesAreIsolatedBetweenSequences) {
  // Plan A's outcome must not depend on what else is in the batch or on
  // anything executed before it.
  std::vector<SequencePlan> plans = SamplePlans();
  const SequencePlan& a = plans[1];

  std::unique_ptr<ExecutionBackend> alone = MakeBackend();
  Prepare(alone.get());
  std::string alone_fp = Fingerprint(alone->ExecuteSequence(a));

  std::unique_ptr<ExecutionBackend> crowded = MakeBackend();
  Prepare(crowded.get());
  std::vector<SequenceOutcome> outcomes = crowded->ExecuteSequenceBatch(plans);
  EXPECT_EQ(Fingerprint(outcomes[1]), alone_fp);

  // Re-execution of the identical plan reproduces the identical outcome,
  // even under the stochastic host — sequence-purity in action.
  EXPECT_EQ(Fingerprint(crowded->ExecuteSequence(a)), alone_fp);
}

TEST_P(BackendConformanceTest, SplitBatchesMatchSerialReference) {
  // Batch boundaries are invisible: the plans split across two batches,
  // executed back to back, map to their own outcomes in plan order.
  std::unique_ptr<ExecutionBackend> backend = MakeBackend();
  Prepare(backend.get());
  std::vector<SequencePlan> plans = SamplePlans();

  std::span<const SequencePlan> all(plans);
  std::vector<SequenceOutcome> out1 =
      backend->ExecuteSequenceBatch(all.first(3));
  std::vector<SequenceOutcome> out2 =
      backend->ExecuteSequenceBatch(all.subspan(3));

  SessionBackend reference;
  Prepare(&reference);
  ASSERT_EQ(out1.size(), 3u);
  ASSERT_EQ(out2.size(), plans.size() - 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(Fingerprint(out1[i]),
              Fingerprint(reference.ExecuteSequence(plans[i])));
  }
  for (size_t i = 0; i < out2.size(); ++i) {
    EXPECT_EQ(Fingerprint(out2[i]),
              Fingerprint(reference.ExecuteSequence(plans[3 + i])));
  }
}

TEST_P(BackendConformanceTest, RecycledOutcomeBuffersCarryNoStaleState) {
  // The shape the K-parent campaign loop drives: one differently sized
  // wave per parent, all held at once, recycled in an order that is not
  // the execution order, then the buffers reused by waves of other sizes.
  // Every outcome must equal the serial reference — no transaction slot,
  // trace, or touched-pc list may survive from a buffer's previous batch.
  std::unique_ptr<ExecutionBackend> backend = MakeBackend();
  Prepare(backend.get());
  std::vector<SequencePlan> plans = SamplePlans();
  SessionBackend reference;
  Prepare(&reference);

  constexpr size_t kParents = 4;
  std::vector<std::vector<SequencePlan>> waves;
  for (size_t parent = 0; parent < kParents; ++parent) {
    // Parent `p` gets a wave of p+1 plans with per-parent host seeds, so
    // every wave is distinguishable and differently sized.
    std::vector<SequencePlan> wave;
    for (size_t j = 0; j <= parent; ++j) {
      SequencePlan plan = plans[(parent + j) % plans.size()];
      plan.host_seed += 0x100 * (parent + 1);
      wave.push_back(std::move(plan));
    }
    waves.push_back(std::move(wave));
  }

  auto check = [&](const std::vector<SequenceOutcome>& outcomes,
                   size_t parent) {
    ASSERT_EQ(outcomes.size(), waves[parent].size()) << parent;
    for (size_t j = 0; j < waves[parent].size(); ++j) {
      EXPECT_EQ(Fingerprint(outcomes[j]),
                Fingerprint(reference.ExecuteSequence(waves[parent][j])))
          << "parent " << parent << " plan " << j;
    }
  };

  // Smallest wave first, recycled 2, 0, 3, 1; then largest first, so every
  // buffer is reused at a different size than it was filled at.
  for (const std::vector<size_t>& order :
       {std::vector<size_t>{0, 1, 2, 3}, std::vector<size_t>{3, 2, 1, 0}}) {
    std::vector<std::vector<SequenceOutcome>> outcomes(kParents);
    for (size_t parent : order) {
      outcomes[parent] = backend->ExecuteSequenceBatch(waves[parent]);
    }
    for (size_t parent : {2u, 0u, 3u, 1u}) {
      check(outcomes[parent], parent);
      backend->RecycleOutcomes(std::move(outcomes[parent]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, BackendConformanceTest,
    ::testing::Values(BackendCase{"session", /*byte_switch=*/false},
                      BackendCase{"byte_switch", /*byte_switch=*/true}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mufuzz::evm
