// Parameterized conformance suite for the SessionBackend contract under both
// interpreter tiers (decoded and the byte-switch oracle): the same
// plan-in/outcome-out semantics must hold:
//  - Bind/Deploy/MarkDeployed/Rewind round-trips leave the slate clean;
//  - outcomes are self-contained values, isolated between sequences (earlier
//    plans and re-executions never bleed into each other);
//  - a reused outcome slot carries nothing over from the plan it held
//    before;
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
  std::unique_ptr<SessionBackend> MakeBackend() const {
    return NewBackend(GetParam());
  }

  /// Binds, funds, deploys, and marks — the setup phase every campaign runs.
  void Prepare(SessionBackend* backend) {
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

  /// Distinct single-tx and multi-tx plans with distinct environment seeds.
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
  std::unique_ptr<SessionBackend> backend = MakeBackend();
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
  std::unique_ptr<SessionBackend> backend = MakeBackend();
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
  std::unique_ptr<SessionBackend> backend = MakeBackend();
  Prepare(backend.get());
  for (const SequencePlan& plan : SamplePlans()) {
    SequenceOutcome actual;
    backend->ExecuteSequenceInto(plan, &actual);
    EXPECT_EQ(Fingerprint(actual), Fingerprint(reference.ExecuteSequence(plan)))
        << "host_seed " << plan.host_seed;
  }
}

TEST_P(BackendConformanceTest, OutcomesAreIsolatedBetweenSequences) {
  // Plan A's outcome must not depend on anything executed before it.
  std::vector<SequencePlan> plans = SamplePlans();
  const SequencePlan& a = plans[1];

  std::unique_ptr<SessionBackend> alone = MakeBackend();
  Prepare(alone.get());
  SequenceOutcome alone_outcome;
  alone->ExecuteSequenceInto(a, &alone_outcome);
  const std::string alone_fp = Fingerprint(alone_outcome);

  std::unique_ptr<SessionBackend> crowded = MakeBackend();
  Prepare(crowded.get());
  std::vector<SequenceOutcome> outcomes(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    crowded->ExecuteSequenceInto(plans[i], &outcomes[i]);
  }
  EXPECT_EQ(Fingerprint(outcomes[1]), alone_fp);

  // Re-execution of the identical plan reproduces the identical outcome,
  // even under the stochastic host — sequence-purity in action.
  SequenceOutcome again;
  crowded->ExecuteSequenceInto(a, &again);
  EXPECT_EQ(Fingerprint(again), alone_fp);
}

TEST_P(BackendConformanceTest, RecycledOutcomeBuffersCarryNoStaleState) {
  // The shape the campaign loop drives: one outcome slot filled again and
  // again by plans of 1 and 2 transactions, growing and shrinking in both
  // orders. Every fill must equal the reference — no transaction slot,
  // trace, or touched-pc list may survive from the slot's previous plan.
  std::unique_ptr<SessionBackend> backend = MakeBackend();
  Prepare(backend.get());
  SessionBackend reference;
  Prepare(&reference);
  std::vector<SequencePlan> plans = SamplePlans();
  ASSERT_EQ(plans[0].txs.size(), 2u);
  ASSERT_EQ(plans[1].txs.size(), 1u);

  SequenceOutcome slot;
  for (size_t first : {0u, 1u}) {
    for (size_t i = 0; i < plans.size(); ++i) {
      // first == 0 runs 2, 1, 2, ... transactions; first == 1 runs
      // 1, 2, 1, ...
      const SequencePlan& plan = plans[(first + i) % plans.size()];
      backend->ExecuteSequenceInto(plan, &slot);
      EXPECT_EQ(Fingerprint(slot), Fingerprint(reference.ExecuteSequence(plan)))
          << "order " << first << " step " << i;
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
