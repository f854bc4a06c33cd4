// Prefix resume in SessionBackend is invisible: plan streams whose plans
// share leading transactions, as a campaign's mutated children do, produce
// exactly what a backend that runs every plan from the deployed mark
// produces, under every interpreter tier; and every session call that can
// change the pre-state of a plan drops the retained prefix.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "corpus/builtin.h"
#include "evm/execution_backend.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/fuzzing_host.h"
#include "lang/compiler.h"
#include "outcome_fingerprint.h"

namespace mufuzz::evm {
namespace {

/// FuzzingHost that counts the external calls it serviced, so a test can
/// check that its plan streams really reached the host, and digests the
/// lifecycle calls it received, so a test can check a resumed run armed it
/// exactly like a full run.
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
    return FuzzingHost::OnExternalCall(req, reentry);
  }
  uint64_t calls = 0;
  uint64_t lifecycle = 0;
};

/// Prefix resume against a reference that never resumes: the same random
/// plan stream, with the same setup calls in between, runs on a subject
/// backend and on a reference that rewinds before every plan (Rewind drops
/// the retained prefix, so every reference plan runs from the mark). Plans
/// share prefixes with their predecessor, hosts inject failures and
/// re-enter, so both the reuse path and the host-consulted cut run.
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

  // Each session call drops the retained prefix: the run right after it
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

INSTANTIATE_TEST_SUITE_P(
    AllTiers, PrefixReuseDiffTest,
    ::testing::Values(BackendCase{"decoded", /*byte_switch=*/false},
                      BackendCase{"byte_switch", /*byte_switch=*/true}),
    [](const ::testing::TestParamInfo<BackendCase>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace mufuzz::evm
