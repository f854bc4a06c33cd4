#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/dependency_graph.h"
#include "analysis/statevar_analysis.h"
#include "corpus/builtin.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/coverage.h"
#include "fuzzer/energy.h"
#include "fuzzer/mask.h"
#include "fuzzer/sequence.h"
#include "lang/compiler.h"

namespace mufuzz::fuzzer {
namespace {

using corpus::CrowdsaleExample;
using lang::CompileContract;
using lang::ContractArtifact;

ContractArtifact CompileOk(std::string_view src) {
  auto result = CompileContract(src);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

std::vector<Address> TestSenders() {
  return {Address::FromUint(1), Address::FromUint(2), Address::FromUint(3)};
}

// -------------------------------------------------------------- AbiCodec --

class AbiCodecTest : public ::testing::Test {
 protected:
  void SetUp() override {
    artifact_ = CompileOk(CrowdsaleExample().source);
    codec_ = std::make_unique<AbiCodec>(&artifact_.abi, TestSenders());
  }
  ContractArtifact artifact_;
  std::unique_ptr<AbiCodec> codec_;
};

TEST_F(AbiCodecTest, EncodeCalldataHasSelectorAndWords) {
  Tx tx;
  tx.fn_index = 0;  // invest(uint256)
  tx.args = {U256(42)};
  Bytes data = codec_->EncodeCalldata(tx);
  ASSERT_EQ(data.size(), 4u + 32u);
  uint32_t selector = (uint32_t(data[0]) << 24) | (uint32_t(data[1]) << 16) |
                      (uint32_t(data[2]) << 8) | data[3];
  EXPECT_EQ(selector, artifact_.abi.functions[0].selector);
  EXPECT_EQ(data[4 + 31], 42);
}

TEST_F(AbiCodecTest, MissingArgsEncodeAsZero) {
  Tx tx;
  tx.fn_index = 0;
  Bytes data = codec_->EncodeCalldata(tx);
  ASSERT_EQ(data.size(), 36u);
  for (size_t i = 4; i < 36; ++i) EXPECT_EQ(data[i], 0);
}

TEST_F(AbiCodecTest, ByteStreamRoundTrip) {
  Tx tx;
  tx.fn_index = 0;  // invest is payable: value survives
  tx.args = {U256(777)};
  tx.value = U256(123456);
  Bytes stream;
  codec_->ToByteStreamInto(tx, &stream);
  EXPECT_EQ(stream.size(), codec_->StreamLength(0));

  Tx back;
  back.fn_index = 0;
  codec_->FromByteStream(stream, &back);
  EXPECT_EQ(back.value, U256(123456));
  ASSERT_EQ(back.args.size(), 1u);
  EXPECT_EQ(back.args[0], U256(777));
}

TEST_F(AbiCodecTest, NonPayableValueSurvivesByteStream) {
  // refund() is fn index 1 and non-payable: the value word still round-
  // trips — calling a non-payable function with value is a legitimate
  // (reverting) probe that covers the payable guard's revert direction.
  Tx tx;
  tx.fn_index = 1;
  tx.value = U256(999);
  Bytes stream;
  codec_->ToByteStreamInto(tx, &stream);
  Tx back;
  back.fn_index = 1;
  codec_->FromByteStream(stream, &back);
  EXPECT_EQ(back.value, U256(999));
}

TEST_F(AbiCodecTest, RandomTxRespectsAbi) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Tx tx = codec_->RandomTx(0, &rng);
    EXPECT_EQ(tx.fn_index, 0);
    EXPECT_EQ(tx.args.size(), 1u);
    EXPECT_LT(tx.sender_index, 3);
  }
  // Non-payable functions get value only occasionally (the ~10% invalid-
  // input probe).
  int with_value = 0;
  for (int i = 0; i < 100; ++i) {
    with_value += codec_->RandomTx(1, &rng).value.IsZero() ? 0 : 1;
  }
  EXPECT_LT(with_value, 30);
  EXPECT_GT(with_value, 0);
}

TEST_F(AbiCodecTest, RandomValuesCoverBoundaries) {
  Rng rng(9);
  bool saw_zero = false, saw_large = false;
  for (int i = 0; i < 400; ++i) {
    U256 v = codec_->RandomValueForType(lang::Type::Uint256(), &rng);
    if (v.IsZero()) saw_zero = true;
    if (v.BitLength() > 128) saw_large = true;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_large);
}

// -------------------------------------------------------------- Coverage --

TEST(CoverageMapTest, BranchAccounting) {
  CoverageMap cov(4);  // 4 JUMPIs -> 8 directions
  EXPECT_TRUE(cov.AddBranch(10, true));
  EXPECT_FALSE(cov.AddBranch(10, true));  // duplicate
  EXPECT_TRUE(cov.AddBranch(10, false));
  EXPECT_EQ(cov.covered_count(), 2u);
  EXPECT_DOUBLE_EQ(cov.Fraction(), 2.0 / 8.0);
  EXPECT_TRUE(cov.IsCovered(10, true));
  EXPECT_FALSE(cov.IsCovered(20, true));
}

TEST(CoverageMapTest, DistanceOnlyImproves) {
  CoverageMap cov(4);
  EXPECT_TRUE(cov.OfferDistance(10, true, 100));
  EXPECT_FALSE(cov.OfferDistance(10, true, 150));  // worse
  EXPECT_TRUE(cov.OfferDistance(10, true, 40));    // better
  EXPECT_EQ(cov.BestDistance(10, true), 40u);
}

TEST(CoverageMapTest, CoveredDirectionsStopOfferingDistance) {
  CoverageMap cov(4);
  cov.AddBranch(10, true);
  EXPECT_FALSE(cov.OfferDistance(10, true, 1));
}

TEST(CoverageMapTest, EmptyContractIsFullyCovered) {
  CoverageMap cov(0);
  EXPECT_DOUBLE_EQ(cov.Fraction(), 1.0);
}

// ------------------------------------------------------------------ Mask --

TEST(MaskTest, OperatorsPreserveStreamLength) {
  Rng rng(3);
  ByteMutator mutator;
  for (int op = 0; op < kNumMutOps; ++op) {
    Bytes stream(64, 0xaa);
    mutator.Apply(&stream, static_cast<MutOp>(op), 10, 4, &rng);
    EXPECT_EQ(stream.size(), 64u) << "op " << op;
  }
}

TEST(MaskTest, InsertShiftsRight) {
  Rng rng(3);
  ByteMutator mutator;
  Bytes stream = {1, 2, 3, 4, 5, 6};
  mutator.Apply(&stream, MutOp::kInsert, 1, 2, &rng);
  // Bytes after the insertion point shifted right by 2; tail dropped.
  EXPECT_EQ(stream[3], 2);
  EXPECT_EQ(stream[4], 3);
  EXPECT_EQ(stream[5], 4);
  EXPECT_EQ(stream[0], 1);
}

TEST(MaskTest, DeleteShiftsLeftAndZeroFills) {
  Rng rng(3);
  ByteMutator mutator;
  Bytes stream = {1, 2, 3, 4, 5, 6};
  mutator.Apply(&stream, MutOp::kDelete, 1, 2, &rng);
  EXPECT_EQ(stream, (Bytes{1, 4, 5, 6, 0, 0}));
}

TEST(MaskTest, ReplaceInjectsObservedConstants) {
  Rng rng(3);
  ByteMutator mutator;
  U256 constant(0x1388aULL);  // a "magic" comparison constant
  mutator.AddInterestingConstant(constant);
  // With the constant pool populated, repeated R at a word boundary should
  // eventually write the full constant.
  bool hit = false;
  for (int i = 0; i < 64 && !hit; ++i) {
    Bytes stream(32, 0);
    mutator.Apply(&stream, MutOp::kReplace, 5, 2, &rng);
    hit = U256::FromBytesBE(BytesView(stream.data(), 32)).value() == constant;
  }
  EXPECT_TRUE(hit);
}

TEST(MaskTest, InterestingConstantsDeduplicate) {
  ByteMutator mutator;
  mutator.AddInterestingConstant(U256(5));
  mutator.AddInterestingConstant(U256(5));
  mutator.AddInterestingConstant(U256(6));
  EXPECT_EQ(mutator.interesting_count(), 2u);
}

TEST(MaskTest, InterestingPoolKeepsInsertionOrderUpToCap) {
  // Reference: the linear-scan pool (append unless present, stop at the
  // cap). Values repeat often and differ in one limb only, so duplicate
  // detection and index-slot collisions are both exercised.
  Rng rng(11);
  ByteMutator mutator;
  std::vector<U256> reference;
  for (int i = 0; i < 2000; ++i) {
    uint64_t limbs[4] = {0, 0, 0, 0};
    limbs[rng.NextBelow(4)] = rng.NextBelow(40);
    const U256 value(limbs[0], limbs[1], limbs[2], limbs[3]);
    mutator.AddInterestingConstant(value);
    if (reference.size() < ByteMutator::kMaxInteresting &&
        std::find(reference.begin(), reference.end(), value) ==
            reference.end()) {
      reference.push_back(value);
    }
    ASSERT_EQ(mutator.interesting(), reference) << "after insert " << i;
  }
  EXPECT_EQ(mutator.interesting_count(), ByteMutator::kMaxInteresting);
}

TEST(MaskTest, MaskAllowDeny) {
  MutationMask mask(16);
  EXPECT_FALSE(mask.AnyAllowed());
  mask.Allow(3, MutOp::kOverwrite);
  EXPECT_TRUE(mask.IsAllowed(3, MutOp::kOverwrite));
  EXPECT_FALSE(mask.IsAllowed(3, MutOp::kDelete));
  EXPECT_FALSE(mask.IsAllowed(4, MutOp::kOverwrite));
  EXPECT_TRUE(mask.AnyAllowed());
  EXPECT_EQ(mask.ProtectedCount(), 15u);
}

TEST(MaskTest, MutateRandomHonorsMask) {
  Rng rng(11);
  ByteMutator mutator;
  MutationMask mask(32);
  // Only position 7 may be overwritten.
  mask.Allow(7, MutOp::kOverwrite);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes stream(32, 0x55);
    ASSERT_TRUE(mutator.MutateRandom(&stream, &mask, &rng));
    for (size_t i = 0; i < stream.size(); ++i) {
      if (i < 7 || i > 14) {
        // O at 7 mutates up to 8 bytes from position 7.
        EXPECT_EQ(stream[i], 0x55) << "byte " << i << " mutated";
      }
    }
  }
}

TEST(MaskTest, ComputeMaskMarksPropertyPreservingPositions) {
  Rng rng(13);
  ByteMutator mutator;
  Bytes stream(8, 0);
  stream[0] = 99;  // the "critical" byte
  // Probe: the property holds iff byte 0 still equals 99.
  auto probe = [](const Bytes& s) { return !s.empty() && s[0] == 99; };
  MutationMask mask = ComputeMask(stream, /*stride=*/1, mutator, &rng, probe);
  ASSERT_EQ(mask.length(), 8u);
  // Mutating at position 0 destroys the property for overwrite: position 0
  // should allow strictly fewer ops than a position past the critical byte.
  int allowed_at_0 = 0, allowed_at_6 = 0;
  for (int op = 0; op < kNumMutOps; ++op) {
    allowed_at_0 += mask.IsAllowed(0, static_cast<MutOp>(op)) ? 1 : 0;
    allowed_at_6 += mask.IsAllowed(6, static_cast<MutOp>(op)) ? 1 : 0;
  }
  EXPECT_LT(allowed_at_0, allowed_at_6);
  EXPECT_EQ(allowed_at_6, kNumMutOps);  // tail bytes are free to mutate
}

// ----------------------------------------------------------------- Sequence --

class SequenceBuilderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    artifact_ = CompileOk(CrowdsaleExample().source);
    dataflow_ = analysis::AnalyzeDataflow(*artifact_.ast);
    graph_ = analysis::DependencyGraph::Build(dataflow_);
    codec_ = std::make_unique<AbiCodec>(&artifact_.abi, TestSenders());
    builder_ = std::make_unique<SequenceBuilder>(codec_.get(), &dataflow_,
                                                 &graph_);
  }

  int CountFn(const Sequence& seq, int fn) {
    int count = 0;
    for (const Tx& tx : seq) count += (tx.fn_index == fn) ? 1 : 0;
    return count;
  }

  ContractArtifact artifact_;
  analysis::ContractDataflow dataflow_;
  analysis::DependencyGraph graph_;
  std::unique_ptr<AbiCodec> codec_;
  std::unique_ptr<SequenceBuilder> builder_;
};

TEST_F(SequenceBuilderTest, RepeatableFunctionsFollowRawRule) {
  // invest (index 0) has the RAW on `invested`; refund/withdraw do not
  // qualify (refund writes invests with a plain assignment after a compound
  // one... invest's RAW makes it the repeatable one).
  std::vector<int> repeatable = builder_->RepeatableFunctions();
  EXPECT_FALSE(repeatable.empty());
  EXPECT_EQ(repeatable[0], 0);
}

TEST_F(SequenceBuilderTest, OrderedInitialSequencePutsInvestFirst) {
  Rng rng(21);
  StrategyConfig mufuzz = StrategyConfig::MuFuzz();
  for (int trial = 0; trial < 10; ++trial) {
    Sequence seq = builder_->InitialSequence(mufuzz, &rng);
    ASSERT_GE(seq.size(), 3u);
    EXPECT_EQ(seq.front().fn_index, 0);  // invest leads
    // RAW repetition applied: invest appears at least twice.
    EXPECT_GE(CountFn(seq, 0), 2);
  }
}

TEST_F(SequenceBuilderTest, ConFuzziusOrderWithoutRepetition) {
  Rng rng(22);
  StrategyConfig confuzzius = StrategyConfig::ConFuzzius();
  Sequence seq = builder_->InitialSequence(confuzzius, &rng);
  ASSERT_EQ(seq.size(), 3u);       // one tx per function
  EXPECT_EQ(CountFn(seq, 0), 1);   // no repetition
  EXPECT_EQ(seq.front().fn_index, 0);
}

TEST_F(SequenceBuilderTest, RandomStrategyGivesVariedSequences) {
  Rng rng(23);
  StrategyConfig sfuzz = StrategyConfig::SFuzz();
  bool invest_not_first = false;
  for (int trial = 0; trial < 30; ++trial) {
    Sequence seq = builder_->InitialSequence(sfuzz, &rng);
    ASSERT_FALSE(seq.empty());
    if (seq.front().fn_index != 0) invest_not_first = true;
  }
  EXPECT_TRUE(invest_not_first);  // random order does not privilege invest
}

TEST_F(SequenceBuilderTest, MutationKeepsSequencesBounded) {
  Rng rng(24);
  StrategyConfig mufuzz = StrategyConfig::MuFuzz();
  Sequence seq = builder_->InitialSequence(mufuzz, &rng);
  for (int i = 0; i < 300; ++i) {
    builder_->MutateSequence(&seq, mufuzz, &rng);
    ASSERT_LE(seq.size(), SequenceBuilder::kMaxSequenceLength + 1);
    ASSERT_GE(seq.size(), 1u);
    for (const Tx& tx : seq) {
      ASSERT_GE(tx.fn_index, 0);
      ASSERT_LT(tx.fn_index, 3);
    }
  }
}

// ------------------------------------------------------------------ Energy --

TEST(EnergySchedulerTest, DisabledSchedulerIsNeutral) {
  ContractArtifact artifact = CompileOk(CrowdsaleExample().source);
  EnergyScheduler scheduler(&artifact, /*enabled=*/false);
  EXPECT_DOUBLE_EQ(scheduler.BranchWeight(1234), 1.0);
  EXPECT_EQ(scheduler.AssignEnergy({1, 2, 3}, 6), 6);
  EXPECT_DOUBLE_EQ(scheduler.VulnerabilityBonus({1, 2, 3}), 0.0);
}

TEST(EnergySchedulerTest, NestedAndVulnerableBranchesGainWeight) {
  ContractArtifact artifact = CompileOk(R"(
    contract Weighted {
      uint256 s;
      function deep(uint256 a) public {
        if (a > 1) {
          if (a > 2) {
            s = block.timestamp;
          }
        }
      }
      function flat(uint256 a) public {
        if (a == 0) { s = 1; }
      }
    })");
  EnergyScheduler scheduler(&artifact, /*enabled=*/true);
  // Observe every branch in the map.
  for (const auto& entry : artifact.branch_map) {
    scheduler.ObserveBranch(entry.jumpi_pc);
  }
  EXPECT_GT(scheduler.weighted_branches(), 0u);

  // The inner if of deep() guards a TIMESTAMP: weight must exceed both the
  // outer if's and flat()'s branch weight.
  uint32_t inner_pc = 0, flat_pc = 0;
  for (const auto& entry : artifact.branch_map) {
    if (entry.kind == lang::BranchKind::kIf) {
      if (entry.function_index == 0 && entry.nesting_depth == 1) {
        inner_pc = entry.jumpi_pc;
      }
      if (entry.function_index == 1) flat_pc = entry.jumpi_pc;
    }
  }
  ASSERT_NE(inner_pc, 0u);
  ASSERT_NE(flat_pc, 0u);
  EXPECT_GT(scheduler.BranchWeight(inner_pc), scheduler.BranchWeight(flat_pc));
  // Energy assignment scales with the weights but stays clamped.
  int energy = scheduler.AssignEnergy({inner_pc}, 6);
  EXPECT_GT(energy, 6);
  EXPECT_LE(energy, 6 * EnergyScheduler::kMaxEnergyFactor);
}

}  // namespace
}  // namespace mufuzz::fuzzer
