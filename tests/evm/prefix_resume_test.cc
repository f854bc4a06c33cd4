// Prefix resume and suffix replay in SessionBackend are invisible: plan
// streams whose plans share transactions with their predecessor, as a
// campaign's mutated children do, produce exactly what a backend that runs
// every plan from the deployed mark produces, under every interpreter tier;
// every session call that can change the pre-state of a plan drops the
// records; and a tail is replayed exactly when the state it ran on is
// provably the same.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/builtin.h"
#include "evm/world_state.h"
#include "evm/execution_backend.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/fuzzing_host.h"
#include "lang/compiler.h"
#include "outcome_fingerprint.h"

namespace mufuzz::evm {
namespace {

/// FuzzingHost that counts the external calls it serviced, so a test can
/// check that its plan streams really reached the host, and digests the
/// lifecycle and external calls it received, in order, so a test can check
/// a resumed run drove it exactly like a full run.
class CountingHost : public fuzzer::FuzzingHost {
 public:
  using FuzzingHost::FuzzingHost;
  void OnSequenceStart(uint64_t seed) override {
    lifecycle = (lifecycle ^ seed) * 0x100000001b3ULL;
    FuzzingHost::OnSequenceStart(seed);
  }
  void OnTransactionStart(const Bytes& calldata) override {
    lifecycle = (lifecycle ^ Fnv1a64(calldata)) * 0x100000001b3ULL + 1;
    FuzzingHost::OnTransactionStart(calldata);
  }
  ExternalCallOutcome OnExternalCall(const ExternalCallRequest& req,
                                     ReentryHandle* reentry) override {
    ++calls;
    lifecycle = (lifecycle ^ Fnv1a64(req.data)) * 0x100000001b3ULL + 2;
    return FuzzingHost::OnExternalCall(req, reentry);
  }
  uint64_t calls = 0;
  uint64_t lifecycle = 0;
};

/// Prefix resume against a reference that never resumes: the same random
/// plan stream, with the same setup calls in between, runs on a subject
/// backend and on a reference that rewinds before every plan (Rewind drops
/// the plan records, so every reference plan runs from the mark). Plans
/// share prefixes, and tails after one replaced transaction, with their
/// predecessor; hosts inject failures and re-enter, so the prefix, the
/// replay and the host-consulted cut all run.
class PrefixReuseDiffTest : public BackendTierTest {
 protected:
  struct Fixture {
    const lang::ContractArtifact* artifact = nullptr;
    std::vector<Address> senders;
    std::unique_ptr<fuzzer::AbiCodec> codec;
    Address contract;
  };

  /// Binds, funds, deploys and marks, as a campaign does.
  void Prepare(SessionBackend* backend, Host* host, Fixture* fx) {
    backend->Bind(host);
    for (const Address& sender : fx->senders) {
      backend->FundAccount(sender, U256::PowerOfTen(24));
    }
    Bytes ctor_args;
    for (size_t i = 0; i < fx->artifact->abi.constructor_inputs.size(); ++i) {
      U256(7 + i).AppendBytesBE(&ctor_args);
    }
    auto addr = backend->DeployContract(fx->artifact->runtime_code,
                                        fx->artifact->ctor_code, ctor_args,
                                        fx->senders[0], U256(0));
    ASSERT_TRUE(addr.ok());
    fx->contract = addr.value();
    backend->FundAccount(fx->contract, U256::PowerOfTen(20));
    backend->MarkDeployed();
  }

  PreparedTx RandomTx(const Fixture& fx, Rng* rng) {
    const int fn = static_cast<int>(
        rng->NextBelow(fx.artifact->abi.functions.size()));
    fuzzer::Tx tx = fx.codec->RandomTx(fn, rng);
    PreparedTx prepared;
    prepared.request.to = fx.contract;
    prepared.request.sender = fx.senders[tx.sender_index];
    prepared.request.value = tx.value;
    prepared.request.data = fx.codec->EncodeCalldata(tx);
    return prepared;
  }

  /// A child of `prev`: a random-length prefix of it (sometimes all of
  /// it), a fresh tail, sometimes one replaced transaction, and new tags.
  SequencePlan NextPlan(const SequencePlan& prev, const Fixture& fx,
                        Rng* rng) {
    SequencePlan plan;
    plan.host_seed = rng->NextBelow(4);
    size_t keep = rng->NextBelow(prev.txs.size() + 2);
    keep = std::min(keep, prev.txs.size());
    plan.txs.assign(prev.txs.begin(), prev.txs.begin() + keep);
    const size_t len = std::max<size_t>(keep, 1 + rng->NextBelow(5));
    while (plan.txs.size() < len) plan.txs.push_back(RandomTx(fx, rng));
    if (rng->Chance(0.2)) {
      plan.txs[rng->NextBelow(plan.txs.size())] = RandomTx(fx, rng);
    }
    for (size_t i = 0; i < plan.txs.size(); ++i) {
      plan.txs[i].tag = static_cast<int>(100 * i + rng->NextBelow(100));
    }
    return plan;
  }
};

TEST_P(PrefixReuseDiffTest, CorpusPlanStreamsMatchNonResumingReference) {
  std::vector<corpus::CorpusEntry> entries = corpus::VulnerableSuite(155);
  entries.push_back(corpus::CrowdsaleExample());
  entries.push_back(corpus::GameExample());

  uint64_t reused = 0;
  uint64_t host_calls = 0;
  for (size_t e = 0; e < entries.size(); ++e) {
    SCOPED_TRACE(entries[e].name);
    auto compiled = lang::CompileContract(entries[e].source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    if (compiled->abi.functions.empty()) continue;

    Fixture fx;
    fx.artifact = &*compiled;
    fx.senders = {Address::FromUint(0xd0), Address::FromUint(0xd1),
                  Address::FromUint(0xd2)};
    fx.codec = std::make_unique<fuzzer::AbiCodec>(&compiled->abi, fx.senders);
    CountingHost subject_host(/*seed=*/e, /*failure_probability=*/0.3,
                              /*max_reentries=*/2);
    CountingHost reference_host(e, 0.3, 2);
    std::unique_ptr<SessionBackend> subject_backend = NewBackend(GetParam());
    std::unique_ptr<SessionBackend> reference_backend =
        NewBackend(GetParam());
    SessionBackend& subject = *subject_backend;
    SessionBackend& reference = *reference_backend;
    Prepare(&subject, &subject_host, &fx);
    Prepare(&reference, &reference_host, &fx);

    Rng rng(0x9e3779b9 + e);
    SequencePlan plan;
    for (int step = 0; step < 48; ++step) {
      // Session calls between plans, mirrored on both backends.
      switch (rng.NextBelow(24)) {
        case 0:
          subject.Rewind();
          reference.Rewind();
          break;
        case 1: {
          const Address& who = fx.senders[rng.NextBelow(fx.senders.size())];
          const U256 balance(rng.NextU64());
          subject.FundAccount(who, balance);
          reference.FundAccount(who, balance);
          break;
        }
        case 2: {
          auto a = subject.DeployContract(fx.artifact->runtime_code, {}, {},
                                          fx.senders[0], U256(0));
          auto b = reference.DeployContract(fx.artifact->runtime_code, {}, {},
                                            fx.senders[0], U256(0));
          ASSERT_TRUE(a.ok() && b.ok());
          EXPECT_EQ(a.value(), b.value());
          break;
        }
        case 3:
          subject.MarkDeployed();
          reference.MarkDeployed();
          break;
        case 4:
          reused += subject.reused_txs();
          Prepare(&subject, &subject_host, &fx);
          Prepare(&reference, &reference_host, &fx);
          break;
        default:
          break;
      }
      plan = NextPlan(plan, fx, &rng);
      SCOPED_TRACE("step " + std::to_string(step));
      SequenceOutcome got = subject.ExecuteSequence(plan);
      reference.Rewind();
      SequenceOutcome want = reference.ExecuteSequence(plan);
      ASSERT_EQ(Fingerprint(got), Fingerprint(want));
      ASSERT_EQ(subject.state().accounts(), reference.state().accounts());
    }
    EXPECT_EQ(reference.reused_txs(), 0u);
    reused += subject.reused_txs();
    host_calls += subject_host.calls;
    EXPECT_EQ(subject_host.calls, reference_host.calls);
    EXPECT_EQ(subject_host.lifecycle, reference_host.lifecycle);
  }
  // The streams must have exercised both the resume path and the cut.
  EXPECT_GT(reused, 0u);
  EXPECT_GT(host_calls, 0u);
}

TEST_P(PrefixReuseDiffTest, HostConsultingTransactionEndsTheSharedPrefix) {
  // Crowdsale's refund pays the investor back through an external call, so
  // a plan [invest, refund, invest] shares only its first transaction with
  // a repeat of itself.
  auto compiled = lang::CompileContract(corpus::CrowdsaleExample().source);
  ASSERT_TRUE(compiled.ok());
  Fixture fx;
  fx.artifact = &*compiled;
  fx.senders = {Address::FromUint(0xd0)};
  fx.codec = std::make_unique<fuzzer::AbiCodec>(&compiled->abi, fx.senders);
  CountingHost host(1, 0.5, 2);
  std::unique_ptr<SessionBackend> owned_backend = NewBackend(GetParam());
  SessionBackend& backend = *owned_backend;
  Prepare(&backend, &host, &fx);

  auto call = [&](const std::string& name, uint64_t value) {
    fuzzer::Tx tx;
    for (size_t i = 0; i < compiled->abi.functions.size(); ++i) {
      if (compiled->abi.functions[i].name == name) {
        tx.fn_index = static_cast<int>(i);
      }
    }
    EXPECT_GE(tx.fn_index, 0) << name;
    tx.args.assign(compiled->abi.functions[tx.fn_index].inputs.size(),
                   U256(value));
    PreparedTx prepared;
    prepared.request.to = fx.contract;
    prepared.request.sender = fx.senders[0];
    prepared.request.value = U256(value);
    prepared.request.data = fx.codec->EncodeCalldata(tx);
    return prepared;
  };
  SequencePlan plan;
  plan.txs = {call("invest", 1), call("refund", 0), call("invest", 2)};

  backend.ExecuteSequence(plan);
  EXPECT_EQ(backend.reused_txs(), 0u);
  const uint64_t calls_after_first = host.calls;
  ASSERT_GT(calls_after_first, 0u) << "refund should call the host";
  backend.ExecuteSequence(plan);
  EXPECT_EQ(backend.reused_txs(), 1u);
  EXPECT_EQ(host.calls, 2 * calls_after_first);

  // Each session call drops the plan records: the run right after it
  // resumes nothing, the one after that resumes again.
  const std::vector<std::pair<std::string, std::function<void()>>> drops = {
      {"Rewind", [&] { backend.Rewind(); }},
      {"FundAccount",
       [&] { backend.FundAccount(fx.senders[0], U256::PowerOfTen(24)); }},
      {"DeployContract",
       [&] {
         ASSERT_TRUE(backend
                         .DeployContract(compiled->runtime_code, {}, {},
                                         fx.senders[0], U256(0))
                         .ok());
       }},
      {"MarkDeployed", [&] { backend.MarkDeployed(); }},
  };
  for (const auto& [name, drop] : drops) {
    SCOPED_TRACE(name);
    const uint64_t before = backend.reused_txs();
    drop();
    backend.ExecuteSequence(plan);
    EXPECT_EQ(backend.reused_txs(), before);
    backend.ExecuteSequence(plan);
    EXPECT_EQ(backend.reused_txs(), before + 1);
  }
  // Bind starts a new session; nothing carries over into it.
  const uint64_t before = backend.reused_txs();
  backend.Bind(&host);
  backend.ExecuteSequence(plan);
  EXPECT_EQ(backend.reused_txs(), before);
}

/// Hand-built Crowdsale plans that pin when a tail is replayed. Every run
/// is checked against a fresh backend that runs the plan alone: outcomes,
/// final state, and the host's lifecycle and external calls.
///  - invest(d) with value d writes state;
///  - withdraw() with value reverts (it is not payable), leaving no trace;
///  - refund() from a sender who invested nothing pays 0 through the host
///    and writes nothing; from an investor it also zeroes their share.
class PrefixReuseReplayTest : public PrefixReuseDiffTest {
 protected:
  void SetUp() override {
    auto compiled = lang::CompileContract(corpus::CrowdsaleExample().source);
    ASSERT_TRUE(compiled.ok());
    artifact_ = std::move(compiled).value();
    fx_.artifact = &artifact_;
    fx_.senders = {Address::FromUint(0xd0), Address::FromUint(0xd1)};
    fx_.codec = std::make_unique<fuzzer::AbiCodec>(&artifact_.abi,
                                                   fx_.senders);
    subject_ = NewBackend(GetParam());
    Prepare(subject_.get(), &host_, &fx_);
  }

  PreparedTx Call(const std::string& name, int sender, uint64_t arg,
                  uint64_t value) {
    fuzzer::Tx tx;
    for (size_t i = 0; i < artifact_.abi.functions.size(); ++i) {
      if (artifact_.abi.functions[i].name == name) {
        tx.fn_index = static_cast<int>(i);
      }
    }
    EXPECT_GE(tx.fn_index, 0) << name;
    tx.args.assign(artifact_.abi.functions[tx.fn_index].inputs.size(),
                   U256(arg));
    PreparedTx prepared;
    prepared.request.to = fx_.contract;
    prepared.request.sender = fx_.senders[sender];
    prepared.request.value = U256(value);
    prepared.request.data = fx_.codec->EncodeCalldata(tx);
    return prepared;
  }
  PreparedTx Invest(int sender, uint64_t amount) {
    return Call("invest", sender, amount, amount);
  }
  PreparedTx Reverting(uint64_t value) { return Call("withdraw", 0, 0, value); }
  PreparedTx Refund(int sender) { return Call("refund", sender, 0, 0); }

  /// Runs `txs` on the subject and on a fresh backend, checks that they
  /// agree, and returns how many transactions the subject reused.
  uint64_t Run(std::vector<PreparedTx> txs) {
    SequencePlan plan;
    plan.host_seed = 3;
    plan.txs = std::move(txs);
    for (size_t i = 0; i < plan.txs.size(); ++i) {
      plan.txs[i].tag = static_cast<int>(10 * ++runs_ + i);
    }
    const uint64_t reused_before = subject_->reused_txs();
    host_.calls = 0;
    host_.lifecycle = 0;
    last_ = subject_->ExecuteSequence(plan);

    CountingHost fresh_host(1, 0.0, 2);
    std::unique_ptr<SessionBackend> fresh = NewBackend(GetParam());
    Fixture fresh_fx;
    fresh_fx.artifact = &artifact_;
    fresh_fx.senders = fx_.senders;
    Prepare(fresh.get(), &fresh_host, &fresh_fx);
    EXPECT_EQ(fresh_fx.contract, fx_.contract);
    const SequenceOutcome want = fresh->ExecuteSequence(plan);
    EXPECT_EQ(Fingerprint(last_), Fingerprint(want));
    EXPECT_EQ(subject_->state().accounts(), fresh->state().accounts());
    EXPECT_EQ(host_.calls, fresh_host.calls);
    EXPECT_EQ(host_.lifecycle, fresh_host.lifecycle);
    EXPECT_EQ(fresh->reused_txs(), 0u);
    return subject_->reused_txs() - reused_before;
  }

  lang::ContractArtifact artifact_;
  Fixture fx_;
  CountingHost host_{1, 0.0, 2};
  std::unique_ptr<SessionBackend> subject_;
  SequenceOutcome last_;
  int runs_ = 0;
};

TEST_P(PrefixReuseReplayTest, RevertingDivergenceReplaysTheTail) {
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Invest(0, 3), Invest(1, 4)}),
            0u);
  EXPECT_FALSE(last_.txs[1].success);
  // Only the reverting transaction differs: the prefix is restored, the
  // new reverting transaction runs, and the two after it are replayed.
  EXPECT_EQ(Run({Invest(0, 5), Reverting(2), Invest(0, 3), Invest(1, 4)}),
            3u);
  EXPECT_FALSE(last_.txs[1].success);
  EXPECT_TRUE(last_.txs[2].success && last_.txs[3].success);
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Invest(0, 3), Invest(1, 4)}),
            3u);
  // A tail that differs from the last plan's is executed.
  EXPECT_EQ(Run({Invest(0, 5), Reverting(2), Invest(0, 3), Invest(1, 6)}),
            2u);
}

// Both plans lead with a reverting transaction, so the tail after the
// divergence is recorded with its write sets in either order.
TEST_P(PrefixReuseReplayTest, PreviousDivergentWriteBlocksReplay) {
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Invest(0, 7), Invest(0, 3),
                 Invest(1, 4)}),
            0u);
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Reverting(2), Invest(0, 3),
                 Invest(1, 4)}),
            2u);
}

TEST_P(PrefixReuseReplayTest, NewDivergentWriteBlocksReplay) {
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Reverting(2), Invest(0, 3),
                 Invest(1, 4)}),
            0u);
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Invest(0, 7), Invest(0, 3),
                 Invest(1, 4)}),
            2u);
}

TEST_P(PrefixReuseReplayTest, HostCallingTailTransactionIsReExecuted) {
  // Sender 1 invested nothing: its refund pays 0 through the host and
  // leaves the state as it was, so the transaction after it still replays.
  const std::vector<PreparedTx> a = {Invest(0, 5), Reverting(1), Refund(1),
                                     Invest(0, 4)};
  EXPECT_EQ(Run(a), 0u);
  const uint64_t refund_calls = host_.calls;
  ASSERT_GT(refund_calls, 0u) << "refund should call the host";
  EXPECT_EQ(Run({Invest(0, 5), Reverting(2), Refund(1), Invest(0, 4)}), 2u);
  EXPECT_EQ(host_.calls, refund_calls);
  // Sender 0's refund calls the host and zeroes its share: nothing after
  // it is replayed, and nothing after it is recorded.
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Refund(0), Invest(0, 4)}), 1u);
  EXPECT_GT(host_.calls, 0u);
  EXPECT_EQ(Run({Invest(0, 5), Reverting(2), Refund(0), Invest(0, 4)}), 1u);
}

TEST_P(PrefixReuseReplayTest, GrowingAndShrinkingPlans) {
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Invest(0, 3)}), 0u);
  // Grows: the tail replays up to the last plan's length, then executes.
  EXPECT_EQ(Run({Invest(0, 5), Reverting(2), Invest(0, 3), Invest(1, 4)}),
            2u);
  // Shrinks: the records past its end are dropped.
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1)}), 1u);
  EXPECT_EQ(Run({Invest(0, 5), Reverting(2), Invest(0, 3), Invest(1, 4)}),
            1u);
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1), Invest(0, 3), Invest(1, 4)}),
            3u);
  EXPECT_EQ(Run({Invest(0, 5)}), 1u);
  EXPECT_EQ(Run({}), 0u);
  EXPECT_EQ(Run({Invest(0, 5), Reverting(1)}), 0u);
}

/// The write set of a journal stretch reproduces the state it left behind.
TEST(PrefixReuseWorldStateTest, CollectedWritesReapplyToTheSameAccounts) {
  const Address eoa = Address::FromUint(0xe0);
  const Address fresh = Address::FromUint(0xe1);
  const Address contract = Address::FromUint(0xc0);
  WorldState ws;
  ws.SetBalance(eoa, U256(100));
  ws.SetCode(contract, Bytes{0x00});
  ws.SetStorage(contract, U256(1), U256(11), /*taint=*/2);
  ws.SetStorage(contract, U256(2), U256(22));
  const size_t mark = ws.Snapshot();
  const auto before = ws.accounts();

  const size_t from = ws.journal_size();
  ASSERT_TRUE(ws.Transfer(eoa, fresh, U256(40)));  // creates `fresh`
  ws.SetStorage(contract, U256(1), U256(0));       // erases a slot
  ws.SetStorage(contract, U256(2), U256(23), 4);   // retaints a slot
  ws.SetStorage(contract, U256(3), U256(0), 8);    // taint-only slot
  ws.SetStorage(contract, U256(4), U256(5));
  ws.SetStorage(contract, U256(4), U256(6), 1);  // written twice
  ws.SetStorage(contract, U256(5), U256(7));
  ws.SetStorage(contract, U256(5), U256(0));  // written and erased
  ws.MarkSelfDestructed(contract);
  const auto after = ws.accounts();

  std::vector<StateWrite> writes;
  ASSERT_TRUE(ws.CollectWrites(from, &writes));
  ws.RestoreKeep(mark);
  ASSERT_EQ(ws.accounts(), before);
  ws.ApplyWrites(writes);
  EXPECT_EQ(ws.accounts(), after);
  EXPECT_EQ(ws.GetStorageTaint(contract, U256(2)), 4u);
  EXPECT_EQ(ws.GetStorageTaint(contract, U256(3)), 8u);
  EXPECT_EQ(ws.GetStorageTaint(contract, U256(4)), 1u);
  // Applied writes are journaled like any other mutation.
  ws.RestoreKeep(mark);
  EXPECT_EQ(ws.accounts(), before);

  // Collecting replaces what the vector held.
  const size_t from_empty = ws.journal_size();
  ASSERT_TRUE(ws.CollectWrites(from_empty, &writes));
  EXPECT_TRUE(writes.empty());
}

TEST(PrefixReuseWorldStateTest, CodeChangeIsNotCollected) {
  const Address contract = Address::FromUint(0xc0);
  WorldState ws;
  ws.SetCode(contract, Bytes{0x00});
  ws.Snapshot();
  const size_t from = ws.journal_size();
  ws.SetStorage(contract, U256(1), U256(1));
  ws.SetCode(contract, Bytes{0x60, 0x00});
  std::vector<StateWrite> writes;
  EXPECT_FALSE(ws.CollectWrites(from, &writes));
}

INSTANTIATE_TEST_SUITE_P(
    AllTiers, PrefixReuseReplayTest,
    ::testing::Values(BackendCase{"decoded", /*byte_switch=*/false},
                      BackendCase{"byte_switch", /*byte_switch=*/true}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

INSTANTIATE_TEST_SUITE_P(
    AllTiers, PrefixReuseDiffTest,
    ::testing::Values(BackendCase{"decoded", /*byte_switch=*/false},
                      BackendCase{"byte_switch", /*byte_switch=*/true}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mufuzz::evm
