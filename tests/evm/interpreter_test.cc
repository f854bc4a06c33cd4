#include "evm/interpreter.h"

#include <gtest/gtest.h>

#include <vector>

#include "byte_switch_oracle.h"
#include "common/keccak.h"
#include "common/rng.h"
#include "copy_boundary_programs.h"
#include "evm/bytecode_builder.h"
#include "evm/executor.h"

namespace mufuzz::evm {
namespace {

constexpr uint64_t kGas = 1000000;

/// Fixture: a world with one contract whose code the test assembles.
class InterpreterTest : public ::testing::Test {
 protected:
  Address DeployCode(const Bytes& code) {
    Address addr = Address::FromUint(0xc0de);
    state_.SetCode(addr, code);
    return addr;
  }

  ExecResult Run(const Bytes& code, const Bytes& calldata = {},
                 const U256& value = U256(0)) {
    Address contract = DeployCode(code);
    Address sender = Address::FromUint(0xabc);
    state_.SetBalance(sender, U256::PowerOfTen(20));
    Interpreter interp(&state_, &host_, block_);
    const uint64_t oracle_frames = ByteSwitchOracle::frames_run();
    if (byte_switch_) ByteSwitchOracle::Install(&interp);
    interp.set_observer(&trace_);
    last_interp_cmp_records_ = nullptr;
    MessageCall call;
    call.to = contract;
    call.code_address = contract;
    call.caller = sender;
    call.origin = sender;
    call.value = value;
    call.data = calldata;
    call.gas = kGas;
    ExecResult result = interp.ExecuteTransaction(call);
    if (byte_switch_) {
      EXPECT_GT(ByteSwitchOracle::frames_run(), oracle_frames);
    }
    cmp_records_ = interp.cmp_records();
    return result;
  }

  WorldState state_;
  AcceptingHost host_;
  BlockContext block_;
  /// Run executes on the byte-switch oracle instead of the decoded loop.
  bool byte_switch_ = false;
  TraceRecorder trace_;
  std::vector<CmpRecord> cmp_records_;
  const std::vector<CmpRecord>* last_interp_cmp_records_ = nullptr;
};

// Returns a program computing `expr_builder` and returning the top of stack
// as a 32-byte value.
Bytes ReturnTop(BytecodeBuilder* b) {
  b->EmitPush(uint64_t{0});
  b->Emit(Op::kMstore);  // mem[0] = top
  b->EmitPush(uint64_t{32});
  b->EmitPush(uint64_t{0});
  b->Emit(Op::kReturn);  // return mem[0..32)
  return b->Assemble().value();
}

U256 OutputWord(const ExecResult& result) {
  return U256::FromBytesBE(
             BytesView(result.output.data(), result.output.size()))
      .value();
}

TEST(Keccak256MemoTest, AgreesWithKeccakOnHitsCollisionsAndLongInputs) {
  // A stream of inputs drawn from a pool larger than the table, so entries
  // are overwritten and re-filled; lengths straddle the 64-byte cap, and
  // inputs differing in one byte must never share a digest.
  Rng rng(0x5a3);
  std::vector<Bytes> pool;
  for (size_t len : {0, 1, 8, 31, 32, 33, 63, 64, 65, 96}) {
    for (int k = 0; k < 12; ++k) {
      Bytes input(len);
      for (uint8_t& b : input) b = static_cast<uint8_t>(rng.NextBelow(4));
      pool.push_back(input);
      if (!input.empty()) {
        input[rng.NextBelow(input.size())] ^= 0x80;
        pool.push_back(input);
      }
    }
  }
  Keccak256Memo memo;
  for (int i = 0; i < 4000; ++i) {
    const Bytes& input = pool[rng.NextBelow(pool.size())];
    auto digest = Keccak256(input);
    ASSERT_EQ(memo.Hash(input),
              U256::FromBytesBE(BytesView(digest.data(), 32)).value())
        << "len " << input.size();
  }
}

TEST_F(InterpreterTest, StopSucceedsWithEmptyOutput) {
  BytecodeBuilder b;
  b.Emit(Op::kStop);
  ExecResult r = Run(b.Assemble().value());
  EXPECT_TRUE(r.Success());
  EXPECT_TRUE(r.output.empty());
}

TEST_F(InterpreterTest, EmptyCodeIsImplicitStop) {
  // Executing an account with empty code succeeds vacuously.
  Address contract = Address::FromUint(0xc0de);
  Interpreter interp(&state_, &host_, block_);
  MessageCall call;
  call.to = contract;
  call.code_address = contract;
  call.caller = Address::FromUint(1);
  call.gas = kGas;
  EXPECT_TRUE(interp.ExecuteTransaction(call).Success());
}

TEST_F(InterpreterTest, ArithmeticAddSubMul) {
  // (5 + 7) * 3 - 6 == 30.  Stack order: push y then x for "x OP y".
  BytecodeBuilder b;
  b.EmitPush(uint64_t{7});
  b.EmitPush(uint64_t{5});
  b.Emit(Op::kAdd);  // 12
  b.EmitPush(uint64_t{3});
  b.Emit(Op::kMul);  // 36 (order-independent)
  b.EmitPush(uint64_t{6});
  b.Emit(Op::kSwap1);
  b.Emit(Op::kSub);  // 36 - 6
  ExecResult r = Run(ReturnTop(&b));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(30));
}

TEST_F(InterpreterTest, DivModByZeroYieldZero) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{42});
  b.Emit(Op::kDiv);  // 42 / 0 == 0
  ExecResult r = Run(ReturnTop(&b));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(0));
}

TEST_F(InterpreterTest, ExpOpcode) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{10});  // exponent
  b.EmitPush(uint64_t{2});   // base (top)
  b.Emit(Op::kExp);
  ExecResult r = Run(ReturnTop(&b));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(1024));
}

TEST_F(InterpreterTest, ComparisonOpsAndIsZero) {
  // 3 < 5 -> 1; ISZERO -> 0; ISZERO -> 1.
  BytecodeBuilder b;
  b.EmitPush(uint64_t{5});
  b.EmitPush(uint64_t{3});
  b.Emit(Op::kLt);
  b.Emit(Op::kIszero);
  b.Emit(Op::kIszero);
  ExecResult r = Run(ReturnTop(&b));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(1));
}

TEST_F(InterpreterTest, CalldataloadZeroPadsPastEnd) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{0});
  b.Emit(Op::kCalldataload);
  Bytes calldata = {0xff};  // one byte: word reads 0xff000...0
  ExecResult r = Run(ReturnTop(&b), calldata);
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(0xff) << 248);
}

TEST_F(InterpreterTest, CalldataAndCodeReadsAtBoundaryOffsetsMatchSpec) {
  // Offsets at and past the end of the source, and offsets that do not fit
  // in 64 bits, read zeros; they must not wrap around to the source start.
  const Bytes calldata = BoundaryCalldata();
  const size_t code_size =
      CopyBoundaryProgram(CopyRead::kCodecopy, U256()).size();
  for (bool byte_switch : {false, true}) {
    byte_switch_ = byte_switch;
    for (CopyRead read : {CopyRead::kCalldataload, CopyRead::kCalldatacopy,
                          CopyRead::kCodecopy}) {
      const bool from_code = read == CopyRead::kCodecopy;
      for (const U256& offset :
           CopyBoundaryOffsets(from_code ? code_size : calldata.size())) {
        SCOPED_TRACE(CopyReadName(read) + " at " + offset.ToHex() +
                     (byte_switch ? " byte-switch" : " decoded"));
        const Bytes code = CopyBoundaryProgram(read, offset);
        ExecResult r = Run(code, calldata);
        ASSERT_TRUE(r.Success());
        const Bytes& src = from_code ? code : calldata;
        EXPECT_EQ(r.output, SpecPaddedRead(src, offset));
      }
    }
  }
}

TEST_F(InterpreterTest, ReturndatacopyOutOfBoundsHalts) {
  // EIP-211: RETURNDATACOPY of a range that does not lie inside the return
  // data halts exceptionally, even when the length is zero; it does not
  // zero-pad like CALLDATACOPY.
  const Address callee = Address::FromUint(0xca11);
  state_.SetCode(callee, {static_cast<uint8_t>(Op::kPush1), 0x2a,
                          static_cast<uint8_t>(Op::kPush1), 0x00,
                          static_cast<uint8_t>(Op::kMstore),
                          static_cast<uint8_t>(Op::kPush1), 0x20,
                          static_cast<uint8_t>(Op::kPush1), 0x00,
                          static_cast<uint8_t>(Op::kReturn)});
  constexpr uint64_t kSize = 32;  // the callee's return data
  // Optionally calls the callee, then RETURNDATACOPY(0, src, len); STOP.
  auto program = [&](bool call_first, const U256& src, const U256& len) {
    BytecodeBuilder b;
    if (call_first) {
      for (int i = 0; i < 5; ++i) b.EmitPush(uint64_t{0});  // no io, value 0
      b.EmitPush(callee.ToWord());
      b.EmitPush(uint64_t{100000});
      b.Emit(Op::kCall);
      b.Emit(Op::kPop);
    }
    b.EmitPush(len);
    b.EmitPush(src);
    b.EmitPush(uint64_t{0});
    b.Emit(Op::kReturndatacopy);
    b.Emit(Op::kStop);
    return b.Assemble().value();
  };
  struct Case {
    const char* name;
    bool call_first;
    U256 src;
    U256 len;
    bool halts;
  };
  const Case kCases[] = {
      {"(0,0,32) with no prior call", false, U256(0), U256(32), true},
      {"(0,0,0) with no prior call", false, U256(0), U256(0), false},
      {"(0,2^64,0) with no prior call", false, U256(0, 1, 0, 0), U256(0),
       true},
      {"(0,0,size)", true, U256(0), U256(kSize), false},
      {"(0,size,0)", true, U256(kSize), U256(0), false},
      {"(0,size+1,0)", true, U256(kSize + 1), U256(0), true},
      {"(0,1,size)", true, U256(1), U256(kSize), true},
      {"(0,2^64,0)", true, U256(0, 1, 0, 0), U256(0), true},
      {"(0,2^64-1,2)", true, U256(UINT64_MAX), U256(2), true},
  };
  for (bool byte_switch : {false, true}) {
    byte_switch_ = byte_switch;
    for (const Case& c : kCases) {
      SCOPED_TRACE(std::string(c.name) +
                   (byte_switch ? " byte-switch" : " decoded"));
      ExecResult r = Run(program(c.call_first, c.src, c.len));
      EXPECT_EQ(r.outcome,
                c.halts ? Outcome::kMemoryError : Outcome::kSuccess)
          << OutcomeToString(r.outcome);
      // A memory error charges the gas spent so far, like any other: here
      // the three pushes and the copy's static cost.
      if (c.halts && !c.call_first) {
        EXPECT_EQ(r.gas_used, 3u * GetOpInfo(Op::kPush1).gas +
                                  GetOpInfo(Op::kReturndatacopy).gas);
      }
    }
  }
}

TEST_F(InterpreterTest, CallvalueAndCaller) {
  BytecodeBuilder b;
  b.Emit(Op::kCallvalue);
  ExecResult r = Run(ReturnTop(&b), {}, U256(123));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(123));
}

TEST_F(InterpreterTest, ValueTransferCreditsContract) {
  BytecodeBuilder b;
  b.Emit(Op::kStop);
  Run(b.Assemble().value(), {}, U256(500));
  EXPECT_EQ(state_.GetBalance(Address::FromUint(0xc0de)), U256(500));
}

TEST_F(InterpreterTest, SstoreSloadRoundTrip) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{77});  // value
  b.EmitPush(uint64_t{1});   // key
  b.Emit(Op::kSstore);
  b.EmitPush(uint64_t{1});
  b.Emit(Op::kSload);
  ExecResult r = Run(ReturnTop(&b));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(77));
  EXPECT_EQ(state_.Find(Address::FromUint(0xc0de))->storage.Load(U256(1)),
            U256(77));
}

TEST_F(InterpreterTest, RevertRollsBackStorageAndBalance) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{77});
  b.EmitPush(uint64_t{1});
  b.Emit(Op::kSstore);
  b.EmitRevert();
  ExecResult r = Run(b.Assemble().value(), {}, U256(10));
  EXPECT_TRUE(r.Reverted());
  const Account* acct = state_.Find(Address::FromUint(0xc0de));
  EXPECT_EQ(acct->storage.Load(U256(1)), U256(0));
  EXPECT_EQ(acct->balance, U256(0));  // the 10 wei went back
}

TEST_F(InterpreterTest, JumpToJumpdest) {
  BytecodeBuilder b;
  auto skip = b.NewLabel();
  b.EmitJump(skip);
  b.Emit(Op::kInvalid);  // must be skipped
  b.Bind(skip);
  b.Emit(Op::kStop);
  EXPECT_TRUE(Run(b.Assemble().value()).Success());
}

TEST_F(InterpreterTest, JumpToNonJumpdestFails) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{1});  // offset 1 is push data, not a JUMPDEST
  b.Emit(Op::kJump);
  ExecResult r = Run(b.Assemble().value());
  EXPECT_EQ(r.outcome, Outcome::kBadJump);
}

TEST_F(InterpreterTest, JumpiTakenAndNotTakenEmitBranchEvents) {
  // if (calldata[0..32) == 42) SSTORE(0,1)
  BytecodeBuilder b;
  auto then = b.NewLabel();
  auto done = b.NewLabel();
  b.EmitPush(uint64_t{42});
  b.EmitPush(uint64_t{0});
  b.Emit(Op::kCalldataload);
  b.Emit(Op::kEq);
  b.EmitJumpI(then);
  b.EmitJump(done);
  b.Bind(then);
  b.EmitPush(uint64_t{1});
  b.EmitPush(uint64_t{0});
  b.Emit(Op::kSstore);
  b.Bind(done);
  b.Emit(Op::kStop);
  Bytes code = b.Assemble().value();

  Bytes calldata(32, 0);
  calldata[31] = 42;
  ExecResult r = Run(code, calldata);
  ASSERT_TRUE(r.Success());
  ASSERT_EQ(trace_.branches().size(), 1u);
  EXPECT_TRUE(trace_.branches()[0].taken);
  EXPECT_GE(trace_.branches()[0].cmp_id, 0);
  // Condition is tainted by calldata.
  EXPECT_TRUE(trace_.branches()[0].cond_taint & kTaintCalldata);

  trace_.Clear();
  calldata[31] = 40;
  r = Run(code, calldata);
  ASSERT_TRUE(r.Success());
  ASSERT_EQ(trace_.branches().size(), 1u);
  EXPECT_FALSE(trace_.branches()[0].taken);
  // Distance to flip: |42 - 40| = 2.
  const BranchEvent& ev = trace_.branches()[0];
  EXPECT_EQ(BranchDistance(cmp_records_[ev.cmp_id], true), 2u);
}

TEST_F(InterpreterTest, RequirePatternKeepsDistanceThroughIszero) {
  // require(x == 88): EQ; ISZERO; JUMPI(revert). The not-taken direction of
  // the revert branch still reports a meaningful distance via negation.
  BytecodeBuilder b;
  auto revert_label = b.NewLabel();
  b.EmitPush(uint64_t{88});
  b.EmitPush(uint64_t{0});
  b.Emit(Op::kCalldataload);
  b.Emit(Op::kEq);
  b.Emit(Op::kIszero);
  b.EmitJumpI(revert_label);
  b.Emit(Op::kStop);
  b.Bind(revert_label);
  b.EmitRevert();
  Bytes code = b.Assemble().value();

  Bytes calldata(32, 0);
  calldata[31] = 100;
  ExecResult r = Run(code, calldata);
  EXPECT_TRUE(r.Reverted());
  ASSERT_EQ(trace_.branches().size(), 1u);
  const BranchEvent& ev = trace_.branches()[0];
  EXPECT_TRUE(ev.taken);  // took the revert branch
  ASSERT_GE(ev.cmp_id, 0);
  // To NOT take the revert branch we need x == 88: distance 12.
  EXPECT_EQ(BranchDistance(cmp_records_[ev.cmp_id], false), 12u);
}

TEST_F(InterpreterTest, BlockStateReadsAreTaintedAndRecorded) {
  BytecodeBuilder b;
  auto label = b.NewLabel();
  b.Emit(Op::kTimestamp);
  b.EmitPush(uint64_t{2});
  b.Emit(Op::kSwap1);
  b.Emit(Op::kMod);      // timestamp % 2
  b.EmitJumpI(label);
  b.Bind(label);
  b.Emit(Op::kStop);
  ExecResult r = Run(b.Assemble().value());
  ASSERT_TRUE(r.Success());
  ASSERT_EQ(trace_.branches().size(), 1u);
  EXPECT_TRUE(trace_.branches()[0].cond_taint & kTaintBlock);
}

TEST_F(InterpreterTest, OverflowEventsOnWrappingArithmetic) {
  BytecodeBuilder b;
  b.EmitPush(U256::Max());
  b.EmitPush(uint64_t{0});
  b.Emit(Op::kCalldataload);  // attacker-controlled
  b.Emit(Op::kAdd);           // overflows when calldata word >= 1
  Bytes calldata(32, 0);
  calldata[31] = 5;
  ExecResult r = Run(ReturnTop(&b), calldata);
  ASSERT_TRUE(r.Success());
  ASSERT_EQ(trace_.overflows().size(), 1u);
  EXPECT_EQ(trace_.overflows()[0].op, Op::kAdd);
  EXPECT_TRUE(trace_.overflows()[0].operand_taint & kTaintCalldata);
  EXPECT_EQ(OutputWord(r), U256(4));  // wrapped
}

TEST_F(InterpreterTest, KeccakOpcodeMatchesLibrary) {
  // keccak256(mem[0..3)) where mem = "abc".
  BytecodeBuilder b;
  b.EmitPush(uint64_t{0x6162630000000000ULL});  // "abc" + zeros
  b.EmitPush(U256(192));  // shift amount (top of stack)
  b.Emit(Op::kShl);
  b.EmitPush(uint64_t{0});
  b.Emit(Op::kMstore);
  b.EmitPush(uint64_t{3});  // length
  b.EmitPush(uint64_t{0});  // offset
  b.Emit(Op::kKeccak256);
  ExecResult r = Run(ReturnTop(&b));
  ASSERT_TRUE(r.Success());
  auto expected = Keccak256(std::string_view("abc"));
  EXPECT_EQ(OutputWord(r),
            U256::FromBytesBE(BytesView(expected.data(), 32)).value());
}

TEST_F(InterpreterTest, OutOfGasOnInfiniteLoop) {
  BytecodeBuilder b;
  auto loop = b.NewLabel();
  b.Bind(loop);
  b.EmitJump(loop);
  ExecResult r = Run(b.Assemble().value());
  EXPECT_EQ(r.outcome, Outcome::kOutOfGas);
}

TEST_F(InterpreterTest, StackUnderflowDetected) {
  BytecodeBuilder b;
  b.Emit(Op::kAdd);  // nothing on the stack
  ExecResult r = Run(b.Assemble().value());
  EXPECT_EQ(r.outcome, Outcome::kStackError);
}

TEST_F(InterpreterTest, UndefinedOpcodeFails) {
  Bytes code = {0x0c};
  ExecResult r = Run(code);
  EXPECT_EQ(r.outcome, Outcome::kInvalidOp);
}

TEST_F(InterpreterTest, CallToExternalAccountTransfersValue) {
  // CALL(gas=5000, to=0xbeef, value=99, no data).
  BytecodeBuilder b;
  b.EmitPush(uint64_t{0});       // out_len
  b.EmitPush(uint64_t{0});       // out_off
  b.EmitPush(uint64_t{0});       // in_len
  b.EmitPush(uint64_t{0});       // in_off
  b.EmitPush(uint64_t{99});      // value
  b.EmitPush(uint64_t{0xbeef});  // to
  b.EmitPush(uint64_t{5000});    // gas
  b.Emit(Op::kCall);
  Bytes code = b.Assemble().value();
  ExecResult r = Run(ReturnTop(&b), {}, U256(200));  // fund the contract
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(1));  // call succeeded
  EXPECT_EQ(state_.GetBalance(Address::FromUint(0xbeef)), U256(99));
  ASSERT_EQ(trace_.calls().size(), 1u);
  EXPECT_TRUE(trace_.calls()[0].to_external);
  EXPECT_EQ(trace_.calls()[0].value, U256(99));
  (void)code;
}

TEST_F(InterpreterTest, CallStatusWordFeedsJumpiAsChecked) {
  // if (!call(...)) revert  — the status word must be flagged checked.
  BytecodeBuilder b;
  auto ok = b.NewLabel();
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{1});
  b.EmitPush(uint64_t{0xbeef});
  b.EmitPush(uint64_t{3000});
  b.Emit(Op::kCall);
  b.EmitJumpI(ok);
  b.EmitRevert();
  b.Bind(ok);
  b.Emit(Op::kStop);
  ExecResult r = Run(b.Assemble().value(), {}, U256(10));
  ASSERT_TRUE(r.Success());
  ASSERT_EQ(trace_.calls().size(), 1u);
  ASSERT_EQ(trace_.checked_calls().size(), 1u);
  EXPECT_EQ(trace_.checked_calls()[0], trace_.calls()[0].call_id);
}

TEST_F(InterpreterTest, SelfdestructMovesBalanceAndRecordsEvent) {
  BytecodeBuilder b;
  b.EmitPush(uint64_t{0xdead});
  b.Emit(Op::kSelfdestruct);
  ExecResult r = Run(b.Assemble().value(), {}, U256(500));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(state_.GetBalance(Address::FromUint(0xdead)), U256(500));
  EXPECT_EQ(state_.GetBalance(Address::FromUint(0xc0de)), U256(0));
  EXPECT_TRUE(state_.Find(Address::FromUint(0xc0de))->self_destructed);
  ASSERT_EQ(trace_.selfdestructs().size(), 1u);
  EXPECT_FALSE(trace_.selfdestructs()[0].caller_guard_seen);
}

TEST_F(InterpreterTest, CallerGuardFlagReachesSelfdestructEvent) {
  // if (caller == 0xabc) selfdestruct — guard flag must be set.
  BytecodeBuilder b;
  auto die = b.NewLabel();
  b.EmitPush(uint64_t{0xabc});
  b.Emit(Op::kCaller);
  b.Emit(Op::kEq);
  b.EmitJumpI(die);
  b.Emit(Op::kStop);
  b.Bind(die);
  b.EmitPush(uint64_t{0xdead});
  b.Emit(Op::kSelfdestruct);
  ExecResult r = Run(b.Assemble().value());
  ASSERT_TRUE(r.Success());
  ASSERT_EQ(trace_.selfdestructs().size(), 1u);
  EXPECT_TRUE(trace_.selfdestructs()[0].caller_guard_seen);
}

TEST_F(InterpreterTest, BalanceReadTaintsWord) {
  BytecodeBuilder b;
  auto label = b.NewLabel();
  b.Emit(Op::kSelfbalance);
  b.EmitPush(uint64_t{100});
  b.Emit(Op::kEq);
  b.EmitJumpI(label);
  b.Bind(label);
  b.Emit(Op::kStop);
  ExecResult r = Run(b.Assemble().value());
  ASSERT_TRUE(r.Success());
  ASSERT_EQ(trace_.branches().size(), 1u);
  EXPECT_TRUE(trace_.branches()[0].cond_taint & kTaintBalance);
}

TEST_F(InterpreterTest, StorageTaintPersistsAcrossTransactions) {
  // Tx1 stores a block-tainted value; tx2 branches on it: the branch
  // condition must still carry block taint (sequence-level flows).
  BytecodeBuilder store_prog;
  store_prog.Emit(Op::kTimestamp);
  store_prog.EmitPush(uint64_t{0});
  store_prog.Emit(Op::kSstore);
  store_prog.Emit(Op::kStop);

  BytecodeBuilder branch_prog;
  auto label = branch_prog.NewLabel();
  branch_prog.EmitPush(uint64_t{0});
  branch_prog.Emit(Op::kSload);
  branch_prog.EmitJumpI(label);
  branch_prog.Bind(label);
  branch_prog.Emit(Op::kStop);

  // Deploy a contract whose code we swap between transactions — the storage
  // (and its taint) persists in the account.
  Address contract = DeployCode(store_prog.Assemble().value());
  Address sender = Address::FromUint(0xabc);
  Interpreter interp(&state_, &host_, block_);
  interp.set_observer(&trace_);
  MessageCall call;
  call.to = contract;
  call.code_address = contract;
  call.caller = sender;
  call.origin = sender;
  call.gas = kGas;
  ASSERT_TRUE(interp.ExecuteTransaction(call).Success());

  state_.SetCode(contract, branch_prog.Assemble().value());
  trace_.Clear();
  ASSERT_TRUE(interp.ExecuteTransaction(call).Success());
  ASSERT_EQ(trace_.branches().size(), 1u);
  EXPECT_TRUE(trace_.branches()[0].cond_taint & kTaintBlock);
  EXPECT_TRUE(trace_.branches()[0].cond_taint & kTaintStorage);
}

TEST_F(InterpreterTest, NestedCallBetweenContracts) {
  // Contract B stores 7 at key 9. Contract A calls B, then loads B? No —
  // A calls B and returns B's success flag; B's storage must be updated.
  BytecodeBuilder bb;
  bb.EmitPush(uint64_t{7});
  bb.EmitPush(uint64_t{9});
  bb.Emit(Op::kSstore);
  bb.Emit(Op::kStop);
  Address b_addr = Address::FromUint(0xb);
  state_.SetCode(b_addr, bb.Assemble().value());

  BytecodeBuilder ab;
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0});    // value 0
  ab.EmitPush(uint64_t{0xb});  // to B
  ab.EmitPush(uint64_t{100000});
  ab.Emit(Op::kCall);
  ExecResult r = Run(ReturnTop(&ab));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(1));
  EXPECT_EQ(state_.Find(b_addr)->storage.Load(U256(9)), U256(7));
  ASSERT_EQ(trace_.calls().size(), 1u);
  EXPECT_FALSE(trace_.calls()[0].to_external);
}

TEST_F(InterpreterTest, FailedNestedCallRevertsChildStateOnly) {
  // B stores then reverts; A must see CALL status 0 and B's storage clean,
  // but A's own prior store survives.
  BytecodeBuilder bb;
  bb.EmitPush(uint64_t{7});
  bb.EmitPush(uint64_t{9});
  bb.Emit(Op::kSstore);
  bb.EmitRevert();
  Address b_addr = Address::FromUint(0xb);
  state_.SetCode(b_addr, bb.Assemble().value());

  BytecodeBuilder ab;
  ab.EmitPush(uint64_t{1});  // A stores 1 at 0 first
  ab.EmitPush(uint64_t{0});
  ab.Emit(Op::kSstore);
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0});
  ab.EmitPush(uint64_t{0xb});
  ab.EmitPush(uint64_t{100000});
  ab.Emit(Op::kCall);
  ExecResult r = Run(ReturnTop(&ab));
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(0));  // child failed
  EXPECT_EQ(state_.Find(b_addr)->storage.Load(U256(9)), U256(0));
  EXPECT_EQ(state_.Find(Address::FromUint(0xc0de))->storage.Load(U256(0)),
            U256(1));
}

TEST_F(InterpreterTest, FailureInjectingHostFailsCallsAndReturnsValue) {
  FailureInjectingHost failing_host(/*seed=*/1, /*failure_probability=*/1.0);
  BytecodeBuilder b;
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{50});
  b.EmitPush(uint64_t{0xbeef});
  b.EmitPush(uint64_t{5000});
  b.Emit(Op::kCall);
  Bytes code;
  {
    b.EmitPush(uint64_t{0});
    b.Emit(Op::kMstore);
    b.EmitPush(uint64_t{32});
    b.EmitPush(uint64_t{0});
    b.Emit(Op::kReturn);
    code = b.Assemble().value();
  }
  Address contract = DeployCode(code);
  state_.SetBalance(contract, U256(100));
  Interpreter interp(&state_, &failing_host, block_);
  interp.set_observer(&trace_);
  MessageCall call;
  call.to = contract;
  call.code_address = contract;
  call.caller = Address::FromUint(0xabc);
  call.origin = call.caller;
  call.gas = kGas;
  ExecResult r = interp.ExecuteTransaction(call);
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(OutputWord(r), U256(0));  // failed call
  // Value bounced back.
  EXPECT_EQ(state_.GetBalance(contract), U256(100));
  EXPECT_EQ(state_.GetBalance(Address::FromUint(0xbeef)), U256(0));
}

TEST_F(InterpreterTest, ReentrancyProbeReinvokesVictim) {
  // Victim: unconditionally CALLs the attacker with value and ample gas.
  // The probe host calls back; the reentered frame reaches the same call
  // site, producing two CallEvents at the same pc at different depths.
  ReentrancyProbeHost probe(/*max_reentries=*/1);
  probe.SetReentryCalldata(Bytes{0x00});

  BytecodeBuilder b;
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{10});      // value
  b.EmitPush(uint64_t{0xa77a});  // attacker
  b.EmitPush(uint64_t{50000});   // enough gas to reenter
  b.Emit(Op::kCall);
  b.Emit(Op::kStop);
  Address victim = DeployCode(b.Assemble().value());
  state_.SetBalance(victim, U256(1000));

  Interpreter interp(&state_, &probe, block_);
  interp.set_observer(&trace_);
  MessageCall call;
  call.to = victim;
  call.code_address = victim;
  call.caller = Address::FromUint(0xabc);
  call.origin = call.caller;
  call.gas = kGas;
  ASSERT_TRUE(interp.ExecuteTransaction(call).Success());
  ASSERT_EQ(trace_.calls().size(), 2u);
  EXPECT_EQ(trace_.calls()[0].pc, trace_.calls()[1].pc);
  EXPECT_NE(trace_.calls()[0].depth, trace_.calls()[1].depth);
  EXPECT_EQ(probe.reentries_used(), 1);
}

TEST_F(InterpreterTest, TransferGasDoesNotTriggerReentrancyProbe) {
  // A 2300-gas transfer must NOT be reentered (transfer() is safe).
  ReentrancyProbeHost probe(1);
  probe.SetReentryCalldata(Bytes{0x00});
  BytecodeBuilder b;
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{0});
  b.EmitPush(uint64_t{10});
  b.EmitPush(uint64_t{0xa77a});
  b.EmitPush(uint64_t{0});  // gas operand 0: only the stipend flows
  b.Emit(Op::kCall);
  b.Emit(Op::kStop);
  Address victim = DeployCode(b.Assemble().value());
  state_.SetBalance(victim, U256(1000));
  Interpreter interp(&state_, &probe, block_);
  interp.set_observer(&trace_);
  MessageCall call;
  call.to = victim;
  call.code_address = victim;
  call.caller = Address::FromUint(0xabc);
  call.origin = call.caller;
  call.gas = kGas;
  ASSERT_TRUE(interp.ExecuteTransaction(call).Success());
  EXPECT_EQ(probe.reentries_used(), 0);
  EXPECT_EQ(trace_.calls().size(), 1u);
}

// ------------------------------------------------------------ ChainSession --

TEST(ChainSessionTest, DeployAndCall) {
  AcceptingHost host;
  ChainSession chain(&host);

  // Constructor stores 11 at slot 0; runtime returns SLOAD(0).
  BytecodeBuilder ctor;
  ctor.EmitPush(uint64_t{11});
  ctor.EmitPush(uint64_t{0});
  ctor.Emit(Op::kSstore);
  ctor.Emit(Op::kStop);

  BytecodeBuilder runtime;
  runtime.EmitPush(uint64_t{0});
  runtime.Emit(Op::kSload);
  runtime.EmitPush(uint64_t{0});
  runtime.Emit(Op::kMstore);
  runtime.EmitPush(uint64_t{32});
  runtime.EmitPush(uint64_t{0});
  runtime.Emit(Op::kReturn);

  Address deployer = Address::FromUint(0xd0);
  chain.FundAccount(deployer, U256::PowerOfTen(20));
  auto addr = chain.Deploy(runtime.Assemble().value(),
                           ctor.Assemble().value(), {}, deployer, U256(0));
  ASSERT_TRUE(addr.ok());

  TransactionRequest tx;
  tx.to = addr.value();
  tx.sender = deployer;
  ExecResult r = chain.Apply(tx);
  ASSERT_TRUE(r.Success());
  EXPECT_EQ(U256::FromBytesBE(BytesView(r.output.data(), r.output.size()))
                .value(),
            U256(11));
}

TEST(ChainSessionTest, FailedConstructorAbortsDeployment) {
  AcceptingHost host;
  ChainSession chain(&host);
  BytecodeBuilder ctor;
  ctor.EmitRevert();
  auto addr = chain.Deploy({0x00}, ctor.Assemble().value(), {},
                           Address::FromUint(0xd0), U256(0));
  EXPECT_FALSE(addr.ok());
}

TEST(ChainSessionTest, BlockAdvancesPerTransaction) {
  AcceptingHost host;
  ChainSession chain(&host);
  BytecodeBuilder runtime;
  runtime.Emit(Op::kTimestamp);
  runtime.EmitPush(uint64_t{0});
  runtime.Emit(Op::kMstore);
  runtime.EmitPush(uint64_t{32});
  runtime.EmitPush(uint64_t{0});
  runtime.Emit(Op::kReturn);
  auto addr =
      chain.Deploy(runtime.Assemble().value(), {}, {},
                   Address::FromUint(0xd0), U256(0));
  ASSERT_TRUE(addr.ok());
  TransactionRequest tx;
  tx.to = addr.value();
  tx.sender = Address::FromUint(0xd0);
  ExecResult r1 = chain.Apply(tx);
  ExecResult r2 = chain.Apply(tx);
  auto t1 = U256::FromBytesBE(BytesView(r1.output.data(), 32)).value();
  auto t2 = U256::FromBytesBE(BytesView(r2.output.data(), 32)).value();
  EXPECT_EQ(t2 - t1, U256(13));
}

TEST(ChainSessionTest, SnapshotRestoreRewindsStateAndBlock) {
  AcceptingHost host;
  ChainSession chain(&host);
  BytecodeBuilder runtime;
  runtime.EmitPush(uint64_t{5});
  runtime.EmitPush(uint64_t{0});
  runtime.Emit(Op::kSstore);
  runtime.Emit(Op::kStop);
  auto addr = chain.Deploy(runtime.Assemble().value(), {}, {},
                           Address::FromUint(0xd0), U256(0));
  ASSERT_TRUE(addr.ok());

  auto snap = chain.Snapshot();
  TransactionRequest tx;
  tx.to = addr.value();
  tx.sender = Address::FromUint(0xd0);
  ASSERT_TRUE(chain.Apply(tx).Success());
  EXPECT_EQ(chain.state().Find(addr.value())->storage.Load(U256(0)), U256(5));

  chain.Restore(snap);
  EXPECT_EQ(chain.state().Find(addr.value())->storage.Load(U256(0)), U256(0));
}

}  // namespace
}  // namespace mufuzz::evm
