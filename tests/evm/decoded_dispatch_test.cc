// Differential suite for the decoded-dispatch interpreter: the byte-switch
// loop (which re-derives jump targets and immediates from raw bytes) is the
// oracle, the pre-decoded IR loop is the subject. Every run is compared on
// outcome, output, gas, the comparison records, the full observer event
// stream (including the raw per-step (pc, opcode, depth) tuples), and the
// final world state — the subject must be bit-for-bit the byte path.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/u256.h"
#include "copy_boundary_programs.h"
#include "corpus/builtin.h"
#include "evm/code_cache.h"
#include "evm/executor.h"
#include "evm/host.h"
#include "evm/interpreter.h"
#include "evm/opcodes.h"
#include "evm/stack.h"
#include "evm/trace.h"
#include "evm/world_state.h"
#include "fuzzer/campaign.h"
#include "lang/compiler.h"

namespace mufuzz::evm {
namespace {

/// TraceRecorder plus the raw OnStep stream, which it opts into.
/// TraceRecorder only gets the step count; the differential contract is
/// stronger — the decoded loop must report the same (pc, opcode, depth)
/// tuple for every instruction.
class FullTrace : public TraceRecorder {
 public:
  struct Step {
    uint32_t pc;
    uint8_t opcode;
    int depth;
  };

  FullTrace() : TraceRecorder(/*step_stream=*/true) {}

  void OnStep(uint32_t pc, uint8_t opcode, int depth) override {
    steps_.push_back({pc, opcode, depth});
  }

  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<Step> steps_;
};

void ExpectSameTrace(const FullTrace& a, const FullTrace& b) {
  ASSERT_EQ(a.steps().size(), b.steps().size());
  for (size_t i = 0; i < a.steps().size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(a.steps()[i].pc, b.steps()[i].pc);
    EXPECT_EQ(a.steps()[i].opcode, b.steps()[i].opcode);
    EXPECT_EQ(a.steps()[i].depth, b.steps()[i].depth);
  }
  EXPECT_EQ(a.instruction_count(), b.instruction_count());
  EXPECT_EQ(a.instruction_count(), a.steps().size());

  ASSERT_EQ(a.branches().size(), b.branches().size());
  for (size_t i = 0; i < a.branches().size(); ++i) {
    SCOPED_TRACE("branch " + std::to_string(i));
    const BranchEvent& x = a.branches()[i];
    const BranchEvent& y = b.branches()[i];
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.dest, y.dest);
    EXPECT_EQ(x.taken, y.taken);
    EXPECT_EQ(x.cmp_id, y.cmp_id);
    EXPECT_EQ(x.call_id, y.call_id);
    EXPECT_EQ(x.cond_taint, y.cond_taint);
    EXPECT_EQ(x.depth, y.depth);
  }

  ASSERT_EQ(a.jumps().size(), b.jumps().size());
  for (size_t i = 0; i < a.jumps().size(); ++i) {
    SCOPED_TRACE("jump " + std::to_string(i));
    EXPECT_EQ(a.jumps()[i].from, b.jumps()[i].from);
    EXPECT_EQ(a.jumps()[i].to, b.jumps()[i].to);
    EXPECT_EQ(a.jumps()[i].depth, b.jumps()[i].depth);
  }

  ASSERT_EQ(a.calls().size(), b.calls().size());
  for (size_t i = 0; i < a.calls().size(); ++i) {
    SCOPED_TRACE("call " + std::to_string(i));
    const CallEvent& x = a.calls()[i];
    const CallEvent& y = b.calls()[i];
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.target, y.target);
    EXPECT_EQ(x.value, y.value);
    EXPECT_EQ(x.gas, y.gas);
    EXPECT_EQ(x.success, y.success);
    EXPECT_EQ(x.to_external, y.to_external);
    EXPECT_EQ(x.target_taint, y.target_taint);
    EXPECT_EQ(x.value_taint, y.value_taint);
    EXPECT_EQ(x.depth, y.depth);
    EXPECT_EQ(x.call_id, y.call_id);
    EXPECT_EQ(x.caller_guard_seen, y.caller_guard_seen);
  }

  ASSERT_EQ(a.stores().size(), b.stores().size());
  for (size_t i = 0; i < a.stores().size(); ++i) {
    SCOPED_TRACE("store " + std::to_string(i));
    const StoreEvent& x = a.stores()[i];
    const StoreEvent& y = b.stores()[i];
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.key, y.key);
    EXPECT_EQ(x.value, y.value);
    EXPECT_EQ(x.value_taint, y.value_taint);
    EXPECT_EQ(x.depth, y.depth);
  }

  ASSERT_EQ(a.overflows().size(), b.overflows().size());
  for (size_t i = 0; i < a.overflows().size(); ++i) {
    SCOPED_TRACE("overflow " + std::to_string(i));
    const OverflowEvent& x = a.overflows()[i];
    const OverflowEvent& y = b.overflows()[i];
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.op, y.op);
    EXPECT_EQ(x.operand_taint, y.operand_taint);
    EXPECT_EQ(x.result_stored, y.result_stored);
    EXPECT_EQ(x.depth, y.depth);
  }

  ASSERT_EQ(a.selfdestructs().size(), b.selfdestructs().size());
  for (size_t i = 0; i < a.selfdestructs().size(); ++i) {
    SCOPED_TRACE("selfdestruct " + std::to_string(i));
    const SelfdestructEvent& x = a.selfdestructs()[i];
    const SelfdestructEvent& y = b.selfdestructs()[i];
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.beneficiary, y.beneficiary);
    EXPECT_EQ(x.caller_guard_seen, y.caller_guard_seen);
    EXPECT_EQ(x.depth, y.depth);
  }

  ASSERT_EQ(a.balance_reads().size(), b.balance_reads().size());
  for (size_t i = 0; i < a.balance_reads().size(); ++i) {
    EXPECT_EQ(a.balance_reads()[i].pc, b.balance_reads()[i].pc);
    EXPECT_EQ(a.balance_reads()[i].depth, b.balance_reads()[i].depth);
  }

  ASSERT_EQ(a.block_reads().size(), b.block_reads().size());
  for (size_t i = 0; i < a.block_reads().size(); ++i) {
    EXPECT_EQ(a.block_reads()[i].pc, b.block_reads()[i].pc);
    EXPECT_EQ(a.block_reads()[i].op, b.block_reads()[i].op);
    EXPECT_EQ(a.block_reads()[i].depth, b.block_reads()[i].depth);
  }

  EXPECT_EQ(a.checked_calls(), b.checked_calls());
}

void ExpectSameCmps(const std::vector<CmpRecord>& a,
                    const std::vector<CmpRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("cmp " + std::to_string(i));
    EXPECT_EQ(a[i].op, b[i].op);
    EXPECT_EQ(a[i].a, b[i].a);
    EXPECT_EQ(a[i].b, b[i].b);
    EXPECT_EQ(a[i].negated, b[i].negated);
    EXPECT_EQ(a[i].taint, b[i].taint);
  }
}

/// One raw-bytecode transaction under one dispatch mode, with its full
/// observable output captured for comparison.
struct RawRun {
  ExecResult exec;
  std::vector<CmpRecord> cmps;
  FullTrace trace;
  WorldState state;
};

RawRun RunRaw(DispatchMode mode, const Bytes& code, const Bytes& calldata,
              const U256& value, uint64_t gas, CodeCache* cache) {
  RawRun r;
  const Address contract = Address::FromUint(0xc0de);
  const Address sender = Address::FromUint(0xab01);
  r.state.SetCode(contract, code);
  r.state.SetBalance(sender, U256::PowerOfTen(20));
  AcceptingHost host;
  EvmConfig config;
  config.dispatch = mode;
  config.code_cache = cache;
  Interpreter interp(&r.state, &host, BlockContext(), config);
  interp.set_observer(&r.trace);
  MessageCall call;
  call.to = contract;
  call.code_address = contract;
  call.caller = sender;
  call.origin = sender;
  call.value = value;
  call.data = calldata;
  call.gas = gas;
  r.exec = interp.ExecuteTransaction(call);
  r.cmps = interp.cmp_records();
  return r;
}

/// Runs `code` under both dispatch modes and asserts every observable
/// is identical. Returns the byte-switch result for extra assertions.
ExecResult ExpectModesAgree(const Bytes& code, const Bytes& calldata = {},
                            const U256& value = U256(),
                            uint64_t gas = 1000000) {
  CodeCache cache;
  RawRun oracle =
      RunRaw(DispatchMode::kByteSwitch, code, calldata, value, gas, &cache);
  RawRun subject =
      RunRaw(DispatchMode::kDecoded, code, calldata, value, gas, &cache);
  EXPECT_EQ(oracle.exec.outcome, subject.exec.outcome)
      << OutcomeToString(oracle.exec.outcome) << " vs "
      << OutcomeToString(subject.exec.outcome);
  EXPECT_EQ(oracle.exec.output, subject.exec.output);
  EXPECT_EQ(oracle.exec.gas_used, subject.exec.gas_used);
  ExpectSameCmps(oracle.cmps, subject.cmps);
  ExpectSameTrace(oracle.trace, subject.trace);
  EXPECT_EQ(oracle.state.accounts(), subject.state.accounts());
  return oracle.exec;
}

/// Returns the first decoded instruction with the given IrOp, or nullptr.
const DecodedInsn* FindIr(const DecodedCode& decoded, IrOp ir) {
  for (const DecodedInsn& insn : decoded.insns) {
    if (insn.ir == ir) return &insn;
  }
  return nullptr;
}

Bytes ReturnConstant(uint8_t v) {
  return Bytes{static_cast<uint8_t>(Op::kPush1), v,
               static_cast<uint8_t>(Op::kPush1), 0x00,
               static_cast<uint8_t>(Op::kMstore),
               static_cast<uint8_t>(Op::kPush1), 0x20,
               static_cast<uint8_t>(Op::kPush1), 0x00,
               static_cast<uint8_t>(Op::kReturn)};
}

// ---------------------------------------------------------------- decoder --

TEST(DecodedDispatchTest, TruncatedPushIsZeroPadded) {
  // PUSH4 with only two data bytes before the code ends: EVM semantics pad
  // the missing bytes with zero, so the immediate is 0x01020000.
  const Bytes code = {0x63 /* PUSH4 */, 0x01, 0x02};
  std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
  const DecodedInsn* push = FindIr(*decoded, IrOp::kPush);
  ASSERT_NE(push, nullptr);
  EXPECT_EQ(push->immediate, U256(0x01020000));
  EXPECT_EQ(push->pc, 0u);

  // Both loops run it: push, then fall off the end (implicit STOP).
  ExecResult result = ExpectModesAgree(code);
  EXPECT_EQ(result.outcome, Outcome::kSuccess);
}

TEST(DecodedDispatchTest, StraightLinePushJumpFuses) {
  // PUSH1 4; JUMP; <pad>; JUMPDEST; STOP — the push/jump pair fuses and the
  // target resolves at decode time to the destination block's entry.
  const Bytes code = {static_cast<uint8_t>(Op::kPush1), 0x04,
                      static_cast<uint8_t>(Op::kJump),
                      0x00,
                      static_cast<uint8_t>(Op::kJumpdest),
                      static_cast<uint8_t>(Op::kStop)};
  std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
  const DecodedInsn* fused = FindIr(*decoded, IrOp::kPushJump);
  ASSERT_NE(fused, nullptr);
  EXPECT_EQ(fused->pc, 0u);   // the PUSH
  EXPECT_EQ(fused->pc2, 2u);  // the JUMP
  ASSERT_GE(fused->jump_target, 0);
  EXPECT_EQ(decoded->insns[fused->jump_target].ir, IrOp::kBlockCheck);
  EXPECT_EQ(decoded->pc_to_insn[4], fused->jump_target);

  ExecResult result = ExpectModesAgree(code);
  EXPECT_EQ(result.outcome, Outcome::kSuccess);
}

TEST(DecodedDispatchTest, NoFusionAcrossBlockLeaders) {
  // PUSH1 2; JUMPDEST; JUMP — the JUMPDEST between the push and the jump is
  // a block leader, so nothing fuses; the jump consumes its destination and
  // loops back once, then underflows, identically in both modes.
  const Bytes code = {static_cast<uint8_t>(Op::kPush1), 0x02,
                      static_cast<uint8_t>(Op::kJumpdest),
                      static_cast<uint8_t>(Op::kJump)};
  std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
  EXPECT_EQ(FindIr(*decoded, IrOp::kPushJump), nullptr);
  EXPECT_NE(FindIr(*decoded, IrOp::kPush), nullptr);
  EXPECT_NE(FindIr(*decoded, IrOp::kJump), nullptr);

  ExecResult result = ExpectModesAgree(code, {}, U256(), 10000);
  EXPECT_EQ(result.outcome, Outcome::kStackError);
}

TEST(DecodedDispatchTest, FusedJumpTruncatesDestinationLikeByteOracle) {
  // The byte path truncates a u64-sized jump destination to its low 32 bits
  // before the JUMPDEST lookup; the decode-time resolution of fused jumps
  // must replicate that quirk. Destination (1<<32)+10 therefore lands on the
  // JUMPDEST at pc 10.
  const uint64_t dest = (uint64_t{1} << 32) + 10;
  Bytes code;
  code.push_back(0x67 /* PUSH8 */);
  AppendU64BE(&code, dest);            // pcs 0..8
  code.push_back(static_cast<uint8_t>(Op::kJump));      // pc 9
  code.push_back(static_cast<uint8_t>(Op::kJumpdest));  // pc 10
  code.push_back(static_cast<uint8_t>(Op::kStop));      // pc 11

  std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
  const DecodedInsn* fused = FindIr(*decoded, IrOp::kPushJump);
  ASSERT_NE(fused, nullptr);
  EXPECT_GE(fused->jump_target, 0);

  ExecResult result = ExpectModesAgree(code);
  EXPECT_EQ(result.outcome, Outcome::kSuccess);
}

TEST(DecodedDispatchTest, FusedJumpiUnderflowChargesBothComponents) {
  // PUSH1 3; JUMPI with an empty stack: the byte path charges the push
  // (3 gas) and the JUMPI (10 gas) before failing the arity check. The
  // fused handler must charge identically before reporting kStackError.
  const Bytes code = {static_cast<uint8_t>(Op::kPush1), 0x03,
                      static_cast<uint8_t>(Op::kJumpi)};
  ExecResult result = ExpectModesAgree(code);
  EXPECT_EQ(result.outcome, Outcome::kStackError);
  EXPECT_EQ(result.gas_used, 13u);
}

TEST(DecodedDispatchTest, FusedPushPairOverflowMatchesByteOracle) {
  // Fill the stack to kMaxDepth - 1, then hit a fusable PUSH;PUSH;ADD. The
  // first push lands exactly at the cap; the second overflows after its gas
  // was charged — the fused handler must replicate the per-component
  // bookkeeping instead of failing the triple atomically.
  Bytes code;
  for (size_t i = 0; i + 1 < Stack::kMaxDepth; ++i) {
    code.push_back(static_cast<uint8_t>(Op::kPush1));
    code.push_back(0x01);
  }
  code.push_back(static_cast<uint8_t>(Op::kPush1));
  code.push_back(0x01);
  code.push_back(static_cast<uint8_t>(Op::kPush1));
  code.push_back(0x02);
  code.push_back(static_cast<uint8_t>(Op::kAdd));

  ExecResult result = ExpectModesAgree(code);
  EXPECT_EQ(result.outcome, Outcome::kStackError);
  // 1023 pushes + the two fused pushes, all charged at 3 gas each.
  EXPECT_EQ(result.gas_used, (Stack::kMaxDepth + 1) * 3);
}

TEST(DecodedDispatchTest, FullDepthPushesAgreeWithByteOracle) {
  // 1024 pushes fill the stack exactly; the 1025th, or a DUP on the full
  // stack, overflows after its gas was charged — in both loops.
  for (size_t pushes : {Stack::kMaxDepth, Stack::kMaxDepth + 1}) {
    SCOPED_TRACE(pushes);
    Bytes code;
    for (size_t i = 0; i < pushes; ++i) {
      code.push_back(static_cast<uint8_t>(Op::kPush1));
      code.push_back(static_cast<uint8_t>(i));
    }
    code.push_back(static_cast<uint8_t>(Op::kStop));
    ExecResult result = ExpectModesAgree(code);
    EXPECT_EQ(result.outcome, pushes == Stack::kMaxDepth
                                  ? Outcome::kSuccess
                                  : Outcome::kStackError);
    EXPECT_EQ(result.gas_used, pushes * 3);
  }
  Bytes code;
  for (size_t i = 0; i < Stack::kMaxDepth; ++i) {
    code.push_back(static_cast<uint8_t>(Op::kPush1));
    code.push_back(0x01);
  }
  code.push_back(static_cast<uint8_t>(Op::kDup1));
  ExecResult result = ExpectModesAgree(code);
  EXPECT_EQ(result.outcome, Outcome::kStackError);
  EXPECT_EQ(result.gas_used, (Stack::kMaxDepth + 1) * 3);
}

TEST(DecodedDispatchTest, CalldataAndCodeBoundaryReadsAgreeWithByteOracle) {
  // Source offsets around the end of the source and around 2^64: both
  // loops read the EVM's zero padding, never bytes from the source start.
  const Bytes calldata = BoundaryCalldata();
  const size_t code_size =
      CopyBoundaryProgram(CopyRead::kCodecopy, U256()).size();
  for (CopyRead read : {CopyRead::kCalldataload, CopyRead::kCalldatacopy,
                        CopyRead::kCodecopy}) {
    const bool from_code = read == CopyRead::kCodecopy;
    for (const U256& offset :
         CopyBoundaryOffsets(from_code ? code_size : calldata.size())) {
      SCOPED_TRACE(CopyReadName(read) + " at " + offset.ToHex());
      const Bytes code = CopyBoundaryProgram(read, offset);
      ExecResult result = ExpectModesAgree(code, calldata);
      ASSERT_EQ(result.outcome, Outcome::kSuccess);
      EXPECT_EQ(result.output,
                SpecPaddedRead(from_code ? code : calldata, offset));
    }
  }
}

// ------------------------------------------------------ instruction count --

/// A recorder that overrides OnStep without opting into the step stream:
/// the interpreter must never call it, yet still report the count.
class CountOnlyTrace : public TraceRecorder {
 public:
  void OnStep(uint32_t, uint8_t, int) override { ++step_calls; }
  uint64_t step_calls = 0;
};

/// Runs `code` under `mode` (with value 1, against a host that calls back
/// into the contract once) twice: observed by a FullTrace and by a
/// CountOnlyTrace. Checks that instruction_count() equals the number of
/// OnStep calls the FullTrace saw, and that the plain recorder gets the same
/// count with no OnStep calls. Returns the count.
uint64_t CheckInstructionCount(DispatchMode mode, const Bytes& code,
                               uint64_t max_steps, Outcome want) {
  uint64_t count = 0;
  for (bool stream : {true, false}) {
    SCOPED_TRACE(stream ? "step stream" : "count only");
    WorldState state;
    const Address contract = Address::FromUint(0xc0de);
    const Address sender = Address::FromUint(0xab01);
    state.SetCode(contract, code);
    state.SetBalance(sender, U256::PowerOfTen(20));
    ReentrancyProbeHost host;
    host.SetReentryCalldata({0x01});
    CodeCache cache;
    EvmConfig config;
    config.dispatch = mode;
    config.max_steps = max_steps;
    config.code_cache = &cache;
    Interpreter interp(&state, &host, BlockContext(), config);
    FullTrace full;
    CountOnlyTrace plain;
    interp.set_observer(stream ? static_cast<ExecObserver*>(&full) : &plain);
    MessageCall call;
    call.to = contract;
    call.code_address = contract;
    call.caller = sender;
    call.origin = sender;
    call.value = U256(1);
    call.gas = 1000000;
    EXPECT_EQ(interp.ExecuteTransaction(call).outcome, want);
    if (stream) {
      EXPECT_EQ(full.instruction_count(), full.steps().size());
      count = full.steps().size();
    } else {
      EXPECT_EQ(plain.step_calls, 0u);
      EXPECT_EQ(plain.instruction_count(), count);
    }
  }
  return count;
}

TEST(InstructionCountTest, StepLimitAbortIsNotCounted) {
  // JUMPDEST; PUSH1 0; JUMP loops until the step limit: the step that hits
  // the limit is neither streamed nor counted.
  const Bytes code = {static_cast<uint8_t>(Op::kJumpdest),
                      static_cast<uint8_t>(Op::kPush1), 0x00,
                      static_cast<uint8_t>(Op::kJump)};
  for (DispatchMode mode :
       {DispatchMode::kDecoded, DispatchMode::kByteSwitch}) {
    EXPECT_EQ(CheckInstructionCount(mode, code, /*max_steps=*/50,
                                    Outcome::kStepLimit),
              50u);
  }
}

TEST(InstructionCountTest, UndefinedOpcodeInReenteredFrameIsNotCounted) {
  // Called with value, the contract jumps over an undefined opcode and
  // sends 1 wei to a code-less account; the host calls back in with no
  // value, so the re-entered frame falls through to the undefined opcode.
  // The count covers both frames and leaves out the undefined opcode.
  ASSERT_FALSE(GetOpInfo(0x0c).defined);
  auto op = [](Op o) { return static_cast<uint8_t>(o); };
  const Bytes code = {
      op(Op::kCallvalue), op(Op::kPush1), 0x05, op(Op::kJumpi),
      0x0c,                                      // undefined (pc 4)
      op(Op::kJumpdest),                         // pc 5
      op(Op::kPush1), 0x00, op(Op::kPush1), 0x00,  // out_len, out_off
      op(Op::kPush1), 0x00, op(Op::kPush1), 0x00,  // in_len, in_off
      op(Op::kPush1), 0x01,                        // value
      0x61 /* PUSH2 */, 0xde, 0xad,                // code-less target
      0x62 /* PUSH3 */, 0x01, 0x86, 0xa0,          // gas 100000
      op(Op::kCall), op(Op::kPop), op(Op::kStop)};
  for (DispatchMode mode :
       {DispatchMode::kDecoded, DispatchMode::kByteSwitch}) {
    // Outer frame: 3 + JUMPDEST + 7 pushes + CALL + POP + STOP = 14;
    // re-entered frame: CALLVALUE, PUSH1, JUMPI = 3.
    EXPECT_EQ(CheckInstructionCount(mode, code, /*max_steps=*/2000000,
                                    Outcome::kSuccess),
              17u);
  }
}

TEST(DecodedDispatchTest, SetCodeInvalidatesDecodeMemo) {
  // The per-account decode memo must not survive SetCode: redeploying new
  // bytecode at the same address has to execute the new code.
  WorldState state;
  AcceptingHost host;
  const Address contract = Address::FromUint(0xc0de);
  EvmConfig config;
  CodeCache cache;
  config.code_cache = &cache;
  config.dispatch = DispatchMode::kDecoded;
  Interpreter interp(&state, &host, BlockContext(), config);
  MessageCall call;
  call.to = contract;
  call.code_address = contract;
  call.caller = Address::FromUint(0xab01);
  call.origin = call.caller;
  call.gas = 100000;

  state.SetCode(contract, ReturnConstant(1));
  ExecResult first = interp.ExecuteTransaction(call);
  ASSERT_TRUE(first.Success());
  ASSERT_EQ(first.output.size(), 32u);
  EXPECT_EQ(first.output[31], 1);

  state.SetCode(contract, ReturnConstant(2));
  ExecResult second = interp.ExecuteTransaction(call);
  ASSERT_TRUE(second.Success());
  ASSERT_EQ(second.output.size(), 32u);
  EXPECT_EQ(second.output[31], 2);
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------- randomized programs --

/// Generates opcode soup biased toward the interesting shapes: fusable
/// pairs/triples, jumps to genuinely recorded JUMPDESTs (so some control
/// flow survives validation), truncated pushes, and raw random bytes for
/// undefined-opcode coverage.
Bytes RandomProgram(Rng* rng) {
  static const std::vector<uint8_t> kPlain = {
      static_cast<uint8_t>(Op::kAdd),        static_cast<uint8_t>(Op::kMul),
      static_cast<uint8_t>(Op::kSub),        static_cast<uint8_t>(Op::kDiv),
      static_cast<uint8_t>(Op::kSdiv),       static_cast<uint8_t>(Op::kMod),
      static_cast<uint8_t>(Op::kSmod),       static_cast<uint8_t>(Op::kAddmod),
      static_cast<uint8_t>(Op::kMulmod),     static_cast<uint8_t>(Op::kExp),
      static_cast<uint8_t>(Op::kSignextend), static_cast<uint8_t>(Op::kLt),
      static_cast<uint8_t>(Op::kGt),         static_cast<uint8_t>(Op::kSlt),
      static_cast<uint8_t>(Op::kSgt),        static_cast<uint8_t>(Op::kEq),
      static_cast<uint8_t>(Op::kIszero),     static_cast<uint8_t>(Op::kAnd),
      static_cast<uint8_t>(Op::kOr),         static_cast<uint8_t>(Op::kXor),
      static_cast<uint8_t>(Op::kNot),        static_cast<uint8_t>(Op::kByte),
      static_cast<uint8_t>(Op::kShl),        static_cast<uint8_t>(Op::kShr),
      static_cast<uint8_t>(Op::kSar),        static_cast<uint8_t>(Op::kKeccak256),
      static_cast<uint8_t>(Op::kAddress),    static_cast<uint8_t>(Op::kBalance),
      static_cast<uint8_t>(Op::kOrigin),     static_cast<uint8_t>(Op::kCaller),
      static_cast<uint8_t>(Op::kCallvalue),
      static_cast<uint8_t>(Op::kCalldataload),
      static_cast<uint8_t>(Op::kCalldatasize),
      static_cast<uint8_t>(Op::kCalldatacopy),
      static_cast<uint8_t>(Op::kCodesize),   static_cast<uint8_t>(Op::kCodecopy),
      static_cast<uint8_t>(Op::kGasprice),
      static_cast<uint8_t>(Op::kReturndatasize),
      static_cast<uint8_t>(Op::kReturndatacopy),
      static_cast<uint8_t>(Op::kBlockhash),  static_cast<uint8_t>(Op::kCoinbase),
      static_cast<uint8_t>(Op::kTimestamp),  static_cast<uint8_t>(Op::kNumber),
      static_cast<uint8_t>(Op::kDifficulty), static_cast<uint8_t>(Op::kGaslimit),
      static_cast<uint8_t>(Op::kSelfbalance),
      static_cast<uint8_t>(Op::kPop),        static_cast<uint8_t>(Op::kMload),
      static_cast<uint8_t>(Op::kMstore),     static_cast<uint8_t>(Op::kMstore8),
      static_cast<uint8_t>(Op::kSload),      static_cast<uint8_t>(Op::kSstore),
      static_cast<uint8_t>(Op::kPc),         static_cast<uint8_t>(Op::kMsize),
      static_cast<uint8_t>(Op::kGas),        static_cast<uint8_t>(Op::kLog0),
      static_cast<uint8_t>(Op::kCall),
      static_cast<uint8_t>(Op::kStaticcall),
      static_cast<uint8_t>(Op::kDelegatecall),
  };
  static const std::vector<uint8_t> kFoldable = {
      static_cast<uint8_t>(Op::kAdd), static_cast<uint8_t>(Op::kMul),
      static_cast<uint8_t>(Op::kSub), static_cast<uint8_t>(Op::kDiv),
      static_cast<uint8_t>(Op::kAnd), static_cast<uint8_t>(Op::kOr),
      static_cast<uint8_t>(Op::kXor),
  };
  static const std::vector<uint8_t> kTerminators = {
      static_cast<uint8_t>(Op::kStop), static_cast<uint8_t>(Op::kReturn),
      static_cast<uint8_t>(Op::kRevert),
      static_cast<uint8_t>(Op::kSelfdestruct),
      static_cast<uint8_t>(Op::kInvalid),
  };

  Bytes code;
  std::vector<uint32_t> dests;
  const size_t target_len = 24 + rng->NextBelow(140);
  while (code.size() < target_len) {
    const uint64_t k = rng->NextBelow(100);
    if (k < 28) {  // small push
      code.push_back(static_cast<uint8_t>(Op::kPush1));
      code.push_back(static_cast<uint8_t>(rng->NextU64()));
    } else if (k < 36) {  // wide push (may run off the code end: truncated)
      const int n = static_cast<int>(1 + rng->NextBelow(32));
      code.push_back(static_cast<uint8_t>(0x5f + n));
      for (int i = 0; i < n && code.size() < target_len + 8; ++i) {
        code.push_back(static_cast<uint8_t>(rng->NextU64()));
      }
    } else if (k < 56) {  // plain op
      code.push_back(rng->Pick(kPlain));
    } else if (k < 64) {  // dup / swap with random depth
      const uint8_t base = (k % 2 == 0) ? 0x80 : 0x90;
      code.push_back(static_cast<uint8_t>(base + rng->NextBelow(16)));
    } else if (k < 72) {  // jumpdest (recorded so later jumps can hit it)
      dests.push_back(static_cast<uint32_t>(code.size()));
      code.push_back(static_cast<uint8_t>(Op::kJumpdest));
    } else if (k < 86) {  // push-dest + jump/jumpi (the fused-jump shapes)
      const uint32_t d = (!dests.empty() && rng->Chance(0.8))
                             ? rng->Pick(dests)
                             : static_cast<uint32_t>(rng->NextBelow(256));
      code.push_back(0x61 /* PUSH2 */);
      code.push_back(static_cast<uint8_t>(d >> 8));
      code.push_back(static_cast<uint8_t>(d & 0xff));
      code.push_back(rng->Chance(0.5) ? static_cast<uint8_t>(Op::kJump)
                                      : static_cast<uint8_t>(Op::kJumpi));
    } else if (k < 92) {  // fusable PUSH;PUSH;arith triple
      code.push_back(static_cast<uint8_t>(Op::kPush1));
      code.push_back(static_cast<uint8_t>(rng->NextU64()));
      code.push_back(static_cast<uint8_t>(Op::kPush1));
      code.push_back(static_cast<uint8_t>(rng->NextU64()));
      code.push_back(rng->Pick(kFoldable));
    } else if (k < 96) {  // fusable DUPn;SLOAD pair
      code.push_back(static_cast<uint8_t>(0x80 + rng->NextBelow(4)));
      code.push_back(static_cast<uint8_t>(Op::kSload));
    } else if (k < 98) {  // terminator
      code.push_back(rng->Pick(kTerminators));
    } else {  // raw byte: undefined opcodes, decoder robustness
      code.push_back(static_cast<uint8_t>(rng->NextU64()));
    }
  }
  return code;
}

TEST(DecodedDispatchTest, RandomProgramsAgreeWithByteOracle) {
  Rng rng(20260807);
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE("program " + std::to_string(iter));
    const Bytes code = RandomProgram(&rng);
    Bytes calldata;
    const size_t data_len = rng.NextBelow(69);
    for (size_t i = 0; i < data_len; ++i) {
      calldata.push_back(static_cast<uint8_t>(rng.NextU64()));
    }
    const U256 value(rng.NextBelow(1000));
    const uint64_t gas = 20000 + rng.NextBelow(40000);
    ExpectModesAgree(code, calldata, value, gas);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      std::string hex;
      for (uint8_t byte : code) {
        static const char* kDigits = "0123456789abcdef";
        hex.push_back(kDigits[byte >> 4]);
        hex.push_back(kDigits[byte & 0xf]);
      }
      FAIL() << "divergence on program " << iter << " code=" << hex;
    }
  }
}

// ------------------------------------------------------- builtin corpus --

/// Everything observable from running one compiled contract through a
/// ChainSession under one dispatch mode.
struct CorpusRun {
  bool deploy_ok = false;
  std::vector<ExecResult> results;
  std::vector<std::vector<CmpRecord>> cmps;
  FullTrace trace;
  std::unordered_map<Address, Account, Address::Hasher> accounts;
};

CorpusRun RunCorpusEntry(const lang::ContractArtifact& artifact,
                         DispatchMode mode, uint64_t seed) {
  CorpusRun run;
  CodeCache cache;
  EvmConfig config;
  config.dispatch = mode;
  config.code_cache = &cache;
  AcceptingHost host;
  ChainSession chain(&host, BlockContext(), config);
  chain.interpreter().set_observer(&run.trace);

  Rng rng(seed);
  const Address deployer = Address::FromUint(0xd0d0);
  chain.FundAccount(deployer, U256::PowerOfTen(24));

  Bytes ctor_args;
  for (size_t i = 0; i < artifact.abi.constructor_inputs.size(); ++i) {
    U256(rng.NextBelow(1000) + 1).AppendBytesBE(&ctor_args);
  }
  const U256 ctor_value =
      artifact.abi.constructor_payable ? U256::PowerOfTen(18) : U256();
  Result<Address> addr = chain.Deploy(artifact.runtime_code,
                                      artifact.ctor_code, ctor_args, deployer,
                                      ctor_value);
  run.deploy_ok = addr.ok();
  if (run.deploy_ok) {
    for (const lang::AbiFunction& fn : artifact.abi.functions) {
      for (int trial = 0; trial < 2; ++trial) {
        TransactionRequest tx;
        tx.to = *addr;
        tx.sender = deployer;
        tx.value = fn.payable ? U256(rng.NextBelow(100) + 1) : U256();
        AppendU32BE(&tx.data, fn.selector);
        for (size_t i = 0; i < fn.inputs.size(); ++i) {
          U256(rng.NextU64() % 10000).AppendBytesBE(&tx.data);
        }
        run.results.push_back(chain.Apply(tx));
        run.cmps.push_back(chain.interpreter().cmp_records());
      }
    }
  }
  run.accounts = chain.state().accounts();
  return run;
}

TEST(DecodedDispatchTest, BuiltinCorpusAgreesWithByteOracle) {
  std::vector<corpus::CorpusEntry> entries = corpus::VulnerableSuite(155);
  entries.push_back(corpus::CrowdsaleExample());
  entries.push_back(corpus::GameExample());

  for (size_t e = 0; e < entries.size(); ++e) {
    SCOPED_TRACE(entries[e].name);
    Result<lang::ContractArtifact> artifact =
        lang::CompileContract(entries[e].source);
    ASSERT_TRUE(artifact.ok()) << entries[e].name;

    const uint64_t seed = 1000 + e;
    CorpusRun oracle =
        RunCorpusEntry(*artifact, DispatchMode::kByteSwitch, seed);
    CorpusRun subject =
        RunCorpusEntry(*artifact, DispatchMode::kDecoded, seed);

    ASSERT_EQ(oracle.deploy_ok, subject.deploy_ok);
    ASSERT_EQ(oracle.results.size(), subject.results.size());
    for (size_t i = 0; i < oracle.results.size(); ++i) {
      SCOPED_TRACE("tx " + std::to_string(i));
      EXPECT_EQ(oracle.results[i].outcome, subject.results[i].outcome);
      EXPECT_EQ(oracle.results[i].output, subject.results[i].output);
      EXPECT_EQ(oracle.results[i].gas_used, subject.results[i].gas_used);
      ExpectSameCmps(oracle.cmps[i], subject.cmps[i]);
    }
    ExpectSameTrace(oracle.trace, subject.trace);
    EXPECT_EQ(oracle.accounts, subject.accounts);
  }
}

// ------------------------------------------------------------ fuzzer path --

TEST(DecodedDispatchTest, CampaignSurfacesCodeCacheStats) {
  Result<lang::ContractArtifact> artifact =
      lang::CompileContract(corpus::CrowdsaleExample().source);
  ASSERT_TRUE(artifact.ok());
  fuzzer::CampaignConfig config;
  config.seed = 7;
  config.max_executions = 40;
  fuzzer::CampaignResult result = fuzzer::RunCampaign(*artifact, config);
  EXPECT_GE(result.code_cache.entries, 1u);
  EXPECT_GE(result.code_cache.hits + result.code_cache.misses, 1u);

  // Cache traffic is observability, not semantics: two results differing
  // only in the cache counters still compare equal.
  fuzzer::CampaignResult perturbed = result;
  perturbed.code_cache.hits += 12345;
  perturbed.code_cache.decode_ns += 1;
  EXPECT_TRUE(result == perturbed);
}

// ------------------------------------------------------------ concurrency --

TEST(CodeCacheConcurrencyTest, SharedDecodeIsPointerIdentical) {
  CodeCache cache;
  const Bytes code = ReturnConstant(7);
  std::shared_ptr<const DecodedCode> a = cache.GetOrDecode(code);
  std::shared_ptr<const DecodedCode> b = cache.GetOrDecode(code);
  EXPECT_EQ(a.get(), b.get());
  CodeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(CodeCacheConcurrencyTest, ConcurrentMixedDispatchAgrees) {
  // Several threads share one cache, each repeatedly executing the same
  // three programs under alternating dispatch modes. Exercises the
  // lock-probe/decode-outside-lock/first-insert-wins path under TSan and
  // checks that every thread observes identical results.
  CodeCache cache;
  std::vector<Bytes> programs;
  for (uint8_t v = 1; v <= 3; ++v) {
    Bytes code = ReturnConstant(v);
    // Distinct tail so each program also exercises a loop: count down from
    // v * 3 before returning.
    Bytes looped;
    looped.push_back(static_cast<uint8_t>(Op::kPush1));
    looped.push_back(static_cast<uint8_t>(v * 3));
    const uint8_t loop_pc = 2;
    looped.push_back(static_cast<uint8_t>(Op::kJumpdest));
    looped.push_back(static_cast<uint8_t>(Op::kPush1));
    looped.push_back(0x01);
    looped.push_back(static_cast<uint8_t>(Op::kSwap1));
    looped.push_back(static_cast<uint8_t>(Op::kSub));
    looped.push_back(static_cast<uint8_t>(Op::kDup1));
    looped.push_back(static_cast<uint8_t>(Op::kPush1));
    looped.push_back(loop_pc);
    looped.push_back(static_cast<uint8_t>(Op::kJumpi));
    looped.push_back(static_cast<uint8_t>(Op::kPop));
    looped.insert(looped.end(), code.begin(), code.end());
    programs.push_back(std::move(looped));
  }

  constexpr int kThreads = 4;
  constexpr int kIters = 20;
  std::vector<std::vector<uint64_t>> logs(kThreads);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int iter = 0; iter < kIters; ++iter) {
          for (const Bytes& code : programs) {
            for (DispatchMode mode :
                 {DispatchMode::kDecoded, DispatchMode::kByteSwitch}) {
              RawRun r = RunRaw(mode, code, {}, U256(), 200000, &cache);
              logs[t].push_back(static_cast<uint64_t>(r.exec.outcome));
              logs[t].push_back(r.exec.gas_used);
              logs[t].push_back(r.exec.output.empty() ? 0 : r.exec.output[31]);
            }
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(logs[t], logs[0]) << "thread " << t;
  }
  CodeCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, programs.size());
  EXPECT_GE(stats.misses, programs.size());
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<uint64_t>(kThreads) * kIters * programs.size() * 2);
}

}  // namespace
}  // namespace mufuzz::evm
