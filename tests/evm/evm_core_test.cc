#include <gtest/gtest.h>

#include "common/rng.h"
#include "copy_state_backstop.h"
#include "evm/bytecode_builder.h"
#include "evm/memory.h"
#include "evm/opcodes.h"
#include "evm/stack.h"
#include "evm/taint.h"
#include "evm/trace.h"
#include "evm/world_state.h"

namespace mufuzz::evm {
namespace {

// ---------------------------------------------------------------- Opcodes --

TEST(OpcodesTest, MetadataForCoreOps) {
  EXPECT_STREQ(GetOpInfo(Op::kAdd).name, "ADD");
  EXPECT_EQ(GetOpInfo(Op::kAdd).stack_inputs, 2);
  EXPECT_EQ(GetOpInfo(Op::kAdd).stack_outputs, 1);
  EXPECT_STREQ(GetOpInfo(Op::kJumpi).name, "JUMPI");
  EXPECT_STREQ(GetOpInfo(Op::kSstore).name, "SSTORE");
  EXPECT_EQ(GetOpInfo(Op::kCall).stack_inputs, 7);
  EXPECT_EQ(GetOpInfo(Op::kDelegatecall).stack_inputs, 6);
}

TEST(OpcodesTest, UndefinedOpcodesAreMarked) {
  EXPECT_FALSE(GetOpInfo(uint8_t{0x0c}).defined);
  EXPECT_FALSE(GetOpInfo(uint8_t{0x21}).defined);
  EXPECT_FALSE(GetOpInfo(uint8_t{0xef}).defined);
  EXPECT_TRUE(GetOpInfo(uint8_t{0x01}).defined);
}

TEST(OpcodesTest, PushFamilyHelpers) {
  EXPECT_TRUE(IsPush(0x60));
  EXPECT_TRUE(IsPush(0x7f));
  EXPECT_FALSE(IsPush(0x5f));
  EXPECT_FALSE(IsPush(0x80));
  EXPECT_EQ(PushSize(0x60), 1);
  EXPECT_EQ(PushSize(0x7f), 32);
  EXPECT_EQ(GetOpInfo(uint8_t{0x63}).immediate, 4);  // PUSH4
  EXPECT_STREQ(GetOpInfo(uint8_t{0x63}).name, "PUSH4");
}

TEST(OpcodesTest, DupSwapLogHelpers) {
  EXPECT_TRUE(IsDup(0x80));
  EXPECT_EQ(DupDepth(0x80), 1);
  EXPECT_EQ(DupDepth(0x8f), 16);
  EXPECT_TRUE(IsSwap(0x90));
  EXPECT_EQ(SwapDepth(0x90), 1);
  EXPECT_EQ(SwapDepth(0x9f), 16);
  EXPECT_TRUE(IsLog(0xa0));
  EXPECT_EQ(LogTopics(0xa2), 2);
}

TEST(OpcodesTest, BlockTerminators) {
  EXPECT_TRUE(IsBlockTerminator(static_cast<uint8_t>(Op::kStop)));
  EXPECT_TRUE(IsBlockTerminator(static_cast<uint8_t>(Op::kJump)));
  EXPECT_TRUE(IsBlockTerminator(static_cast<uint8_t>(Op::kJumpi)));
  EXPECT_TRUE(IsBlockTerminator(static_cast<uint8_t>(Op::kRevert)));
  EXPECT_FALSE(IsBlockTerminator(static_cast<uint8_t>(Op::kAdd)));
  EXPECT_FALSE(IsBlockTerminator(static_cast<uint8_t>(Op::kJumpdest)));
}

TEST(OpcodesTest, VulnerableInstructionClassification) {
  EXPECT_TRUE(IsVulnerableInstruction(static_cast<uint8_t>(Op::kCall)));
  EXPECT_TRUE(IsVulnerableInstruction(static_cast<uint8_t>(Op::kTimestamp)));
  EXPECT_TRUE(
      IsVulnerableInstruction(static_cast<uint8_t>(Op::kSelfdestruct)));
  EXPECT_TRUE(IsVulnerableInstruction(static_cast<uint8_t>(Op::kAdd)));
  EXPECT_FALSE(IsVulnerableInstruction(static_cast<uint8_t>(Op::kPop)));
  EXPECT_FALSE(IsVulnerableInstruction(static_cast<uint8_t>(Op::kMload)));
}

TEST(OpcodesTest, TaintRendering) {
  EXPECT_EQ(TaintToString(kTaintNone), "none");
  EXPECT_EQ(TaintToString(kTaintBlock), "block");
  EXPECT_EQ(TaintToString(kTaintBlock | kTaintCalldata), "block|calldata");
}

// ------------------------------------------------------------------ Stack --

TEST(StackTest, PushPopLifo) {
  Stack s;
  EXPECT_TRUE(s.Push(Word(U256(1))));
  EXPECT_TRUE(s.Push(Word(U256(2))));
  Word w;
  EXPECT_TRUE(s.Pop(&w));
  EXPECT_EQ(w.value, U256(2));
  EXPECT_TRUE(s.Pop(&w));
  EXPECT_EQ(w.value, U256(1));
  EXPECT_FALSE(s.Pop(&w));  // underflow
}

TEST(StackTest, OverflowAt1024) {
  Stack s;
  for (size_t i = 0; i < Stack::kMaxDepth; ++i) {
    ASSERT_TRUE(s.Push(Word(U256(i))));
  }
  EXPECT_FALSE(s.Push(Word(U256(0))));
}

TEST(StackTest, DupCopiesDeepItem) {
  Stack s;
  s.Push(Word(U256(10)));
  s.Push(Word(U256(20)));
  s.Push(Word(U256(30)));
  ASSERT_TRUE(s.Dup(3));  // duplicates the 10
  EXPECT_EQ(s.TopUnsafe(0).value, U256(10));
  EXPECT_EQ(s.size(), 4u);
  EXPECT_FALSE(s.Dup(5));  // too deep
}

TEST(StackTest, SwapExchangesItems) {
  Stack s;
  s.Push(Word(U256(1)));
  s.Push(Word(U256(2)));
  s.Push(Word(U256(3)));
  ASSERT_TRUE(s.Swap(2));  // swap top with 2 below
  EXPECT_EQ(s.TopUnsafe(0).value, U256(1));
  EXPECT_EQ(s.TopUnsafe(2).value, U256(3));
  EXPECT_FALSE(s.Swap(3));  // too deep
}

TEST(StackTest, WordCarriesInstrumentation) {
  Word w(U256(5), kTaintCalldata);
  w.cmp_id = 7;
  w.call_id = 3;
  Stack s;
  s.Push(w);
  Word out;
  s.Pop(&out);
  EXPECT_EQ(out.taint, kTaintCalldata);
  EXPECT_EQ(out.cmp_id, 7);
  EXPECT_EQ(out.call_id, 3);
}

// ----------------------------------------------------------------- Memory --

TEST(MemoryTest, Store32Load32RoundTrip) {
  Memory m;
  U256 v = U256::FromHex("0xdeadbeefcafebabe").value();
  ASSERT_TRUE(m.Store32(64, v));
  U256 out;
  ASSERT_TRUE(m.Load32(64, &out));
  EXPECT_EQ(out, v);
}

TEST(MemoryTest, ExpandsWordWise) {
  Memory m;
  ASSERT_TRUE(m.Store8(0, 0xff));
  EXPECT_EQ(m.size() % 32, 0u);
  EXPECT_EQ(m.SizeWords(), 1u);
  ASSERT_TRUE(m.Store8(33, 0x01));
  EXPECT_EQ(m.SizeWords(), 2u);
}

TEST(MemoryTest, FreshMemoryReadsZero) {
  Memory m;
  U256 out;
  ASSERT_TRUE(m.Load32(1000, &out));
  EXPECT_TRUE(out.IsZero());
}

TEST(MemoryTest, RejectsExpansionBeyondCap) {
  Memory m;
  EXPECT_FALSE(m.Expand(Memory::kMaxBytes, 32));
  EXPECT_FALSE(m.Expand(UINT64_MAX - 4, 32));  // overflow
  U256 out;
  EXPECT_FALSE(m.Load32(Memory::kMaxBytes, &out));
}

TEST(MemoryTest, CopyInZeroPadsPastSource) {
  Memory m;
  Bytes src = {1, 2, 3};
  ASSERT_TRUE(m.CopyIn(0, src, 1, 5));  // copies {2,3,0,0,0}
  Bytes out;
  ASSERT_TRUE(m.CopyOut(0, 5, &out));
  EXPECT_EQ(out, (Bytes{2, 3, 0, 0, 0}));
}

TEST(MemoryTest, CopyInSourceOffsetsNearTwoToTheSixtyFourReadZeros) {
  // The interpreter passes a source offset that does not fit in 64 bits as
  // UINT64_MAX; offset + i must not wrap around to the source's start.
  Memory m;
  Bytes src = {1, 2, 3, 4};
  for (uint64_t src_offset : {uint64_t{4}, uint64_t{5}, UINT64_MAX - 2,
                              UINT64_MAX - 1, UINT64_MAX}) {
    SCOPED_TRACE(src_offset);
    ASSERT_TRUE(m.Store32(0, U256::Max()));
    ASSERT_TRUE(m.CopyIn(0, src, src_offset, 8));
    Bytes out;
    ASSERT_TRUE(m.CopyOut(0, 8, &out));
    EXPECT_EQ(out, Bytes(8, 0));
  }
  // A copy that starts inside the source still takes its tail.
  ASSERT_TRUE(m.CopyIn(0, src, 3, 3));
  Bytes out;
  ASSERT_TRUE(m.CopyOut(0, 3, &out));
  EXPECT_EQ(out, (Bytes{4, 0, 0}));
}

TEST(MemoryTest, MisalignedStore32) {
  Memory m;
  ASSERT_TRUE(m.Store32(5, U256::Max()));
  U256 out;
  ASSERT_TRUE(m.Load32(5, &out));
  EXPECT_EQ(out, U256::Max());
  // Bytes before offset 5 stay zero.
  Bytes head;
  ASSERT_TRUE(m.CopyOut(0, 5, &head));
  EXPECT_EQ(head, (Bytes{0, 0, 0, 0, 0}));
}

// ------------------------------------------------------------ World state --

TEST(WorldStateTest, StorageDefaultsToZero) {
  Storage s;
  EXPECT_EQ(s.Load(U256(1)), U256(0));
  EXPECT_EQ(s.LoadTaint(U256(1)), 0u);
}

TEST(WorldStateTest, StorageRoundTripWithTaint) {
  Storage s;
  s.Store(U256(1), U256(42), kTaintBlock);
  EXPECT_EQ(s.Load(U256(1)), U256(42));
  EXPECT_EQ(s.LoadTaint(U256(1)), kTaintBlock);
}

TEST(WorldStateTest, StoringZeroErasesSlot) {
  Storage s;
  s.Store(U256(1), U256(42));
  s.Store(U256(1), U256(0));
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.Load(U256(1)), U256(0));
}

TEST(WorldStateTest, TransferMovesBalance) {
  WorldState w;
  Address a = Address::FromUint(1), b = Address::FromUint(2);
  w.SetBalance(a, U256(100));
  EXPECT_TRUE(w.Transfer(a, b, U256(30)));
  EXPECT_EQ(w.GetBalance(a), U256(70));
  EXPECT_EQ(w.GetBalance(b), U256(30));
}

TEST(WorldStateTest, TransferFailsOnInsufficientFunds) {
  WorldState w;
  Address a = Address::FromUint(1), b = Address::FromUint(2);
  w.SetBalance(a, U256(10));
  EXPECT_FALSE(w.Transfer(a, b, U256(11)));
  EXPECT_EQ(w.GetBalance(a), U256(10));
  EXPECT_EQ(w.GetBalance(b), U256(0));
}

TEST(WorldStateTest, ZeroValueTransferAlwaysSucceeds) {
  WorldState w;
  EXPECT_TRUE(w.Transfer(Address::FromUint(1), Address::FromUint(2),
                         U256(0)));
}

TEST(WorldStateTest, SnapshotRevertRestoresEverything) {
  WorldState w;
  Address a = Address::FromUint(1);
  w.SetBalance(a, U256(100));
  w.SetStorage(a, U256(0), U256(7));

  size_t snap = w.Snapshot();
  w.SetBalance(a, U256(1));
  w.SetStorage(a, U256(0), U256(99));
  w.SetCode(a, Bytes{0x00});

  w.RevertTo(snap);
  EXPECT_EQ(w.GetBalance(a), U256(100));
  EXPECT_EQ(w.Find(a)->storage.Load(U256(0)), U256(7));
  EXPECT_FALSE(w.Find(a)->HasCode());
}

TEST(WorldStateTest, NestedSnapshots) {
  WorldState w;
  Address a = Address::FromUint(1);
  w.SetBalance(a, U256(1));
  size_t s1 = w.Snapshot();
  w.SetBalance(a, U256(2));
  size_t s2 = w.Snapshot();
  w.SetBalance(a, U256(3));
  w.RevertTo(s2);
  EXPECT_EQ(w.GetBalance(a), U256(2));
  w.RevertTo(s1);
  EXPECT_EQ(w.GetBalance(a), U256(1));
}

TEST(WorldStateTest, CommitDiscardsSnapshotKeepingChanges) {
  WorldState w;
  Address a = Address::FromUint(1);
  size_t s1 = w.Snapshot();
  w.SetBalance(a, U256(5));
  w.Commit(s1);
  EXPECT_EQ(w.GetBalance(a), U256(5));
}

TEST(WorldStateTest, FailedTransferStillCreatesSender) {
  WorldState w;
  CopyStateBackstop oracle;
  Address a = Address::FromUint(1), b = Address::FromUint(2);
  size_t snap = w.Snapshot();
  ASSERT_EQ(oracle.Snapshot(), snap);
  EXPECT_FALSE(w.Transfer(a, b, U256(5)));
  EXPECT_FALSE(oracle.Transfer(a, b, U256(5)));
  // Seed semantics: the funds check touches `from` but never `to`.
  EXPECT_NE(w.Find(a), nullptr);
  EXPECT_EQ(w.Find(b), nullptr);
  EXPECT_TRUE(SameObservableState(w, oracle));
  w.RevertTo(snap);
  oracle.RevertTo(snap);
  EXPECT_EQ(w.Find(a), nullptr);
  EXPECT_TRUE(SameObservableState(w, oracle));
}

TEST(WorldStateTest, SelfTransferIsObservableNoOp) {
  WorldState w;
  Address a = Address::FromUint(1);
  w.SetBalance(a, U256(10));
  EXPECT_TRUE(w.Transfer(a, a, U256(4)));
  EXPECT_EQ(w.GetBalance(a), U256(10));
  EXPECT_FALSE(w.Transfer(a, a, U256(11)));  // still funds-checked
}

TEST(WorldStateTest, TaintSurvivesSnapshotRevert) {
  WorldState w;
  Address a = Address::FromUint(1);
  w.SetStorage(a, U256(0), U256(7), kTaintBlock);

  size_t snap = w.Snapshot();
  w.SetStorage(a, U256(0), U256(8), kTaintCaller);
  ASSERT_EQ(w.GetStorageTaint(a, U256(0)), kTaintCaller);

  w.RevertTo(snap);
  EXPECT_EQ(w.GetStorage(a, U256(0)), U256(7));
  EXPECT_EQ(w.GetStorageTaint(a, U256(0)), kTaintBlock);
  // The taints() accessor exposes the raw per-slot masks.
  EXPECT_EQ(w.Find(a)->storage.taints().at(U256(0)), kTaintBlock);
}

TEST(WorldStateTest, RevertErasesAccountsCreatedSinceSnapshot) {
  WorldState w;
  Address a = Address::FromUint(1), b = Address::FromUint(2);
  w.SetBalance(a, U256(1));
  size_t snap = w.Snapshot();
  w.Touch(b);
  w.SetBalance(b, U256(9));
  ASSERT_EQ(w.account_count(), 2u);
  w.RevertTo(snap);
  EXPECT_EQ(w.account_count(), 1u);
  EXPECT_EQ(w.Find(b), nullptr);
}

/// The CALL-frame pattern: an inner frame reverts, execution continues, and
/// then the *outer* frame reverts too — the outer revert must also undo
/// whatever happened between the two inner marks.
TEST(WorldStateTest, InnerRevertInsideRevertedOuterFrame) {
  WorldState w;
  CopyStateBackstop oracle;
  Address a = Address::FromUint(1);
  auto set = [&](const U256& v) {
    w.SetBalance(a, v);
    oracle.SetBalance(a, v);
  };
  set(U256(1));
  size_t outer = w.Snapshot();
  ASSERT_EQ(oracle.Snapshot(), outer);
  set(U256(2));
  size_t inner = w.Snapshot();
  ASSERT_EQ(oracle.Snapshot(), inner);
  set(U256(3));
  w.RevertTo(inner);
  oracle.RevertTo(inner);
  EXPECT_EQ(w.GetBalance(a), U256(2));
  set(U256(4));  // post-inner-revert progress, also doomed
  w.RevertTo(outer);
  oracle.RevertTo(outer);
  EXPECT_EQ(w.GetBalance(a), U256(1));
  EXPECT_TRUE(SameObservableState(w, oracle));
}

/// Commit of a mid-stack id keeps the changes but an *earlier* snapshot must
/// still be able to unwind them (the successful-CALL-inside-reverted-tx
/// pattern).
TEST(WorldStateTest, CommitMidStackKeepsChangesRevertibleByOuter) {
  WorldState w;
  CopyStateBackstop oracle;
  Address a = Address::FromUint(1);
  auto set = [&](const U256& v) {
    w.SetBalance(a, v);
    oracle.SetBalance(a, v);
  };
  set(U256(1));
  size_t s0 = w.Snapshot();
  ASSERT_EQ(oracle.Snapshot(), s0);
  set(U256(2));
  size_t s1 = w.Snapshot();
  ASSERT_EQ(oracle.Snapshot(), s1);
  set(U256(3));
  w.Snapshot();
  oracle.Snapshot();
  set(U256(4));
  w.Commit(s1);  // drops s1 and s2, keeps balance == 4
  oracle.Commit(s1);
  EXPECT_EQ(w.GetBalance(a), U256(4));
  EXPECT_TRUE(SameObservableState(w, oracle));
  w.RevertTo(s0);
  oracle.RevertTo(s0);
  EXPECT_EQ(w.GetBalance(a), U256(1));
  EXPECT_TRUE(SameObservableState(w, oracle));
}

TEST(WorldStateTest, RestoreKeepTwiceInARow) {
  WorldState w;
  CopyStateBackstop oracle;
  Address a = Address::FromUint(1);
  w.SetBalance(a, U256(5));
  oracle.SetBalance(a, U256(5));
  size_t snap = w.Snapshot();
  ASSERT_EQ(oracle.Snapshot(), snap);

  w.SetBalance(a, U256(6));
  oracle.SetBalance(a, U256(6));
  w.RestoreKeep(snap);
  oracle.RestoreKeep(snap);
  EXPECT_EQ(w.GetBalance(a), U256(5));

  // Immediately again, with no mutation in between.
  w.RestoreKeep(snap);
  oracle.RestoreKeep(snap);
  EXPECT_EQ(w.GetBalance(a), U256(5));
  EXPECT_EQ(w.snapshot_depth(), 1u);
  EXPECT_TRUE(SameObservableState(w, oracle));

  w.SetBalance(a, U256(7));
  oracle.SetBalance(a, U256(7));
  w.RestoreKeep(snap);
  oracle.RestoreKeep(snap);
  EXPECT_EQ(w.GetBalance(a), U256(5));
  EXPECT_TRUE(SameObservableState(w, oracle));
}

TEST(WorldStateTest, JournalScalesWithTouchesNotStateSize) {
  WorldState w;
  for (uint64_t i = 0; i < 100; ++i) {
    w.SetStorage(Address::FromUint(i), U256(i), U256(i + 1));
  }
  size_t snap = w.Snapshot();
  EXPECT_EQ(w.journal_size(), 0u);  // O(1) snapshot: nothing copied
  w.SetStorage(Address::FromUint(0), U256(0), U256(42));
  w.SetBalance(Address::FromUint(1), U256(7));
  EXPECT_EQ(w.journal_size(), 2u);  // one undo entry per touched field
  w.RestoreKeep(snap);
  EXPECT_EQ(w.journal_size(), 0u);
  EXPECT_EQ(w.GetStorage(Address::FromUint(0), U256(0)), U256(1));
}

TEST(WorldStateTest, CommittingLastSnapshotDropsJournal) {
  WorldState w;
  Address a = Address::FromUint(1);
  size_t snap = w.Snapshot();
  w.SetBalance(a, U256(5));
  EXPECT_GT(w.journal_size(), 0u);
  w.Commit(snap);
  EXPECT_EQ(w.snapshot_depth(), 0u);
  EXPECT_EQ(w.journal_size(), 0u);  // nothing can unwind past this point
  EXPECT_EQ(w.GetBalance(a), U256(5));
}

/// The differential oracle test the whole refactor leans on: drive the
/// journaled WorldState and the old copy-based semantics through thousands
/// of interleaved mutate/snapshot/revert/commit/restore ops and assert the
/// observable state never diverges.
TEST(WorldStateDifferentialTest, JournalMatchesCopyOracleUnderRandomOps) {
  Rng rng(0xd1ff0421);
  WorldState w;
  CopyStateBackstop oracle;
  std::vector<size_t> live;  // live snapshot ids (stack discipline)
  constexpr int kOps = 5000;
  for (int i = 0; i < kOps; ++i) {
    Address addr = Address::FromUint(rng.NextBelow(6));
    switch (rng.NextBelow(10)) {
      case 0: {
        U256 v(rng.NextBelow(5));
        w.SetBalance(addr, v);
        oracle.SetBalance(addr, v);
        break;
      }
      case 1: {
        U256 key(rng.NextBelow(4));
        U256 v(rng.NextBelow(3));  // zeros exercise the slot-erase path
        uint32_t taint = static_cast<uint32_t>(rng.NextBelow(4));
        w.SetStorage(addr, key, v, taint);
        oracle.SetStorage(addr, key, v, taint);
        break;
      }
      case 2: {
        Bytes code;
        if (rng.NextBelow(2) == 1) {
          code.push_back(static_cast<uint8_t>(rng.NextBelow(256)));
        }
        w.SetCode(addr, code);
        oracle.SetCode(addr, code);
        break;
      }
      case 3:
        w.MarkSelfDestructed(addr);
        oracle.MarkSelfDestructed(addr);
        break;
      case 4: {
        Address to = Address::FromUint(rng.NextBelow(6));
        U256 v(rng.NextBelow(8));
        ASSERT_EQ(w.Transfer(addr, to, v), oracle.Transfer(addr, to, v));
        break;
      }
      case 5:
        w.Touch(addr);
        oracle.Touch(addr);
        break;
      case 6:
        ASSERT_EQ(oracle.Snapshot(), w.Snapshot());
        live.push_back(w.snapshot_depth() - 1);
        break;
      case 7: {
        if (live.empty()) break;
        size_t idx = rng.NextBelow(live.size());
        w.RevertTo(live[idx]);
        oracle.RevertTo(live[idx]);
        live.resize(idx);
        break;
      }
      case 8: {
        if (live.empty()) break;
        size_t idx = rng.NextBelow(live.size());
        w.Commit(live[idx]);
        oracle.Commit(live[idx]);
        live.resize(idx);
        break;
      }
      case 9: {
        if (live.empty()) break;
        size_t idx = rng.NextBelow(live.size());
        w.RestoreKeep(live[idx]);
        oracle.RestoreKeep(live[idx]);
        live.resize(idx + 1);
        break;
      }
    }
    ASSERT_TRUE(SameObservableState(w, oracle)) << "diverged at op " << i;
    ASSERT_EQ(w.snapshot_depth(), oracle.snapshot_depth()) << "op " << i;
  }
  // End with a full unwind: reverting the oldest live snapshot discards
  // every later one in the same call.
  if (!live.empty()) {
    w.RevertTo(live.front());
    oracle.RevertTo(live.front());
  }
  EXPECT_TRUE(SameObservableState(w, oracle));
}

// -------------------------------------------------------- BytecodeBuilder --

TEST(BytecodeBuilderTest, MinimalPushWidth) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0xff});
  b.EmitPush(uint64_t{0x100});
  auto code = b.Assemble();
  ASSERT_TRUE(code.ok());
  // PUSH1 00, PUSH1 ff, PUSH2 0100
  EXPECT_EQ(code.value(),
            (Bytes{0x60, 0x00, 0x60, 0xff, 0x61, 0x01, 0x00}));
}

TEST(BytecodeBuilderTest, Push32ForMaxValue) {
  BytecodeBuilder b;
  b.EmitPush(U256::Max());
  auto code = b.Assemble();
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value().size(), 33u);
  EXPECT_EQ(code.value()[0], 0x7f);  // PUSH32
}

TEST(BytecodeBuilderTest, LabelFixupsResolve) {
  BytecodeBuilder b;
  auto label = b.NewLabel();
  b.EmitJump(label);     // PUSH2 xxxx JUMP  (4 bytes)
  b.Emit(Op::kInvalid);  // skipped
  b.Bind(label);         // JUMPDEST at offset 5
  b.Emit(Op::kStop);
  auto code = b.Assemble();
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value()[0], 0x61);  // PUSH2
  EXPECT_EQ(code.value()[1], 0x00);
  EXPECT_EQ(code.value()[2], 0x05);
  EXPECT_EQ(code.value()[5], static_cast<uint8_t>(Op::kJumpdest));
}

TEST(BytecodeBuilderTest, UnboundLabelFails) {
  BytecodeBuilder b;
  auto label = b.NewLabel();
  b.EmitJump(label);
  EXPECT_FALSE(b.Assemble().ok());
}

TEST(BytecodeBuilderTest, JumpIReturnsPcOfJumpi) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{1});  // condition
  auto label = b.NewLabel();
  uint32_t jumpi_pc = b.EmitJumpI(label);
  b.Bind(label);
  // PUSH1 01 (2 bytes) + PUSH2 xxxx (3 bytes) -> JUMPI at 5.
  EXPECT_EQ(jumpi_pc, 5u);
  auto code = b.Assemble();
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.value()[5], static_cast<uint8_t>(Op::kJumpi));
}

// ------------------------------------------------------- Branch distance --

TEST(BranchDistanceTest, EqWantTrue) {
  CmpRecord cmp{CmpOp::kEq, U256(100), U256(88), false, 0};
  EXPECT_EQ(BranchDistance(cmp, true), 12u);
  cmp.a = U256(88);
  EXPECT_EQ(BranchDistance(cmp, true), 0u);
}

TEST(BranchDistanceTest, EqWantFalse) {
  CmpRecord cmp{CmpOp::kEq, U256(88), U256(88), false, 0};
  EXPECT_EQ(BranchDistance(cmp, false), 1u);
  cmp.a = U256(89);
  EXPECT_EQ(BranchDistance(cmp, false), 0u);
}

TEST(BranchDistanceTest, LtSemantics) {
  CmpRecord cmp{CmpOp::kLt, U256(10), U256(5), false, 0};  // 10 < 5: false
  EXPECT_EQ(BranchDistance(cmp, true), 6u);                // need to drop 6
  EXPECT_EQ(BranchDistance(cmp, false), 0u);
  cmp.a = U256(3);  // 3 < 5: true
  EXPECT_EQ(BranchDistance(cmp, true), 0u);
  EXPECT_EQ(BranchDistance(cmp, false), 2u);
}

TEST(BranchDistanceTest, GtSemantics) {
  CmpRecord cmp{CmpOp::kGt, U256(5), U256(10), false, 0};
  EXPECT_EQ(BranchDistance(cmp, true), 6u);
  EXPECT_EQ(BranchDistance(cmp, false), 0u);
}

TEST(BranchDistanceTest, NegationFlipsPolarity) {
  CmpRecord cmp{CmpOp::kEq, U256(100), U256(88), true, 0};  // negated
  // Negated EQ wanting "true" is really wanting a != b, already satisfied.
  EXPECT_EQ(BranchDistance(cmp, true), 0u);
  EXPECT_EQ(BranchDistance(cmp, false), 12u);
}

TEST(BranchDistanceTest, IsZeroDistanceTracksMagnitude) {
  CmpRecord cmp{CmpOp::kIsZero, U256(37), U256(0), false, 0};
  EXPECT_EQ(BranchDistance(cmp, true), 37u);
  EXPECT_EQ(BranchDistance(cmp, false), 0u);
  cmp.a = U256(0);
  EXPECT_EQ(BranchDistance(cmp, true), 0u);
  EXPECT_EQ(BranchDistance(cmp, false), 1u);
}

TEST(BranchDistanceTest, SaturatesOnHugeGaps) {
  CmpRecord cmp{CmpOp::kEq, U256::Max(), U256(0), false, 0};
  EXPECT_EQ(BranchDistance(cmp, true), UINT64_MAX);
}

TEST(BranchDistanceTest, SignedComparisons) {
  CmpRecord slt{CmpOp::kSlt, -U256(5), U256(3), false, 0};  // -5 < 3: true
  EXPECT_EQ(BranchDistance(slt, true), 0u);
  CmpRecord sgt{CmpOp::kSgt, -U256(5), U256(3), false, 0};  // -5 > 3: false
  EXPECT_GT(BranchDistance(sgt, true), 0u);
}

}  // namespace
}  // namespace mufuzz::evm
