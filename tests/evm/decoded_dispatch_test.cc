// Differential suite for the decoded-dispatch interpreter: the byte-switch
// loop (which re-derives jump targets and immediates from raw bytes) is the
// oracle, the pre-decoded IR loop is the subject. Every run is compared on
// outcome, output, gas, the comparison records, every recorded event list
// and the raw per-step (pc, opcode, depth) stream, and the final world
// state — the subject must be bit-for-bit the byte path.
//
// A step-stream recorder keeps the decoded loop on its per-op path, so each
// differential case also runs the subject under a recorder that does not
// opt into the step stream: that run charges whole blocks at once (block
// mode) and must agree with the oracle on everything but the step stream.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "byte_switch_oracle.h"
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
#include "selector_dispatch_contract.h"

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

  explicit FullTrace(bool step_stream = true) : TraceRecorder(step_stream) {}

  void OnStep(uint32_t pc, uint8_t opcode, int depth) override {
    steps_.push_back({pc, opcode, depth});
  }

  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<Step> steps_;
};

/// Every event list and the instruction count; not the step stream.
void ExpectSameEvents(const TraceRecorder& a, const TraceRecorder& b) {
  EXPECT_EQ(a.instruction_count(), b.instruction_count());

  ASSERT_EQ(a.branches().size(), b.branches().size());
  for (size_t i = 0; i < a.branches().size(); ++i) {
    SCOPED_TRACE("branch " + std::to_string(i));
    const BranchEvent& x = a.branches()[i];
    const BranchEvent& y = b.branches()[i];
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.taken, y.taken);
    EXPECT_EQ(x.cmp_id, y.cmp_id);
    EXPECT_EQ(x.call_id, y.call_id);
    EXPECT_EQ(x.cond_taint, y.cond_taint);
    EXPECT_EQ(x.depth, y.depth);
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

  ASSERT_EQ(a.overflows().size(), b.overflows().size());
  for (size_t i = 0; i < a.overflows().size(); ++i) {
    SCOPED_TRACE("overflow " + std::to_string(i));
    const OverflowEvent& x = a.overflows()[i];
    const OverflowEvent& y = b.overflows()[i];
    EXPECT_EQ(x.pc, y.pc);
    EXPECT_EQ(x.op, y.op);
    EXPECT_EQ(x.operand_taint, y.operand_taint);
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

  EXPECT_EQ(a.checked_calls(), b.checked_calls());
}

/// The step streams, then everything ExpectSameEvents compares.
void ExpectSameTrace(const FullTrace& a, const FullTrace& b) {
  ASSERT_EQ(a.steps().size(), b.steps().size());
  for (size_t i = 0; i < a.steps().size(); ++i) {
    SCOPED_TRACE("step " + std::to_string(i));
    EXPECT_EQ(a.steps()[i].pc, b.steps()[i].pc);
    EXPECT_EQ(a.steps()[i].opcode, b.steps()[i].opcode);
    EXPECT_EQ(a.steps()[i].depth, b.steps()[i].depth);
  }
  EXPECT_EQ(a.instruction_count(), a.steps().size());
  ExpectSameEvents(a, b);
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

/// The frame loop a differential run executes on.
enum class Tier { kDecoded, kByteSwitch };

/// Puts `interp` on `tier`'s frame loop and returns the oracle's frame count
/// on this thread, for ExpectRanOn once the run is over.
uint64_t UseTier(Tier tier, Interpreter* interp) {
  if (tier == Tier::kByteSwitch) ByteSwitchOracle::Install(interp);
  return ByteSwitchOracle::frames_run();
}

/// Checks that the run since UseTier returned `oracle_frames` executed on
/// `tier`: the oracle ran frames for kByteSwitch and none for kDecoded.
void ExpectRanOn(Tier tier, uint64_t oracle_frames) {
  if (tier == Tier::kByteSwitch) {
    EXPECT_GT(ByteSwitchOracle::frames_run(), oracle_frames);
  } else {
    EXPECT_EQ(ByteSwitchOracle::frames_run(), oracle_frames);
  }
}

/// One transaction on one tier, with its full observable output captured
/// for comparison.
struct RawRun {
  explicit RawRun(bool step_stream) : trace(step_stream) {}

  ExecResult exec;
  std::vector<CmpRecord> cmps;
  FullTrace trace;
  WorldState state;
};

/// How a differential run executes: the interpreter limits it varies, and
/// the host. With `reentry_calldata` set, a ReentrancyProbeHost calls back
/// into the caller with that calldata; otherwise an AcceptingHost.
struct RunSetup {
  uint64_t max_steps = EvmConfig().max_steps;
  std::optional<Bytes> reentry_calldata;
};

/// Runs `call` from a copy of `pre` on tier `mode`.
RawRun RunCall(Tier mode, const WorldState& pre,
               const MessageCall& call, CodeCache* cache,
               const RunSetup& setup, bool step_stream = true) {
  RawRun r(step_stream);
  r.state = pre;
  AcceptingHost accepting;
  ReentrancyProbeHost probe;
  Host* host = &accepting;
  if (setup.reentry_calldata.has_value()) {
    probe.SetReentryCalldata(*setup.reentry_calldata);
    host = &probe;
  }
  EvmConfig config;
  config.code_cache = cache;
  config.max_steps = setup.max_steps;
  Interpreter interp(&r.state, host, BlockContext(), config);
  const uint64_t oracle_frames = UseTier(mode, &interp);
  interp.set_observer(&r.trace);
  r.exec = interp.ExecuteTransaction(call);
  ExpectRanOn(mode, oracle_frames);
  r.cmps = interp.cmp_records();
  return r;
}

const Address kContract = Address::FromUint(0xc0de);
const Address kSender = Address::FromUint(0xab01);

/// `code` installed at kContract, and a funded kSender.
WorldState RawPreState(const Bytes& code) {
  WorldState state;
  state.SetCode(kContract, code);
  state.SetBalance(kSender, U256::PowerOfTen(20));
  return state;
}

/// kSender calling kContract.
MessageCall RawCall(const Bytes& calldata, const U256& value, uint64_t gas) {
  MessageCall call;
  call.to = kContract;
  call.code_address = kContract;
  call.caller = kSender;
  call.origin = kSender;
  call.value = value;
  call.data = calldata;
  call.gas = gas;
  return call;
}

RawRun RunRaw(Tier mode, const Bytes& code, const Bytes& calldata,
              const U256& value, uint64_t gas, CodeCache* cache,
              uint64_t max_steps = EvmConfig().max_steps) {
  RunSetup setup;
  setup.max_steps = max_steps;
  return RunCall(mode, RawPreState(code), RawCall(calldata, value, gas),
                 cache, setup);
}

/// Outcome, output, gas, comparison records and world state.
void ExpectSameResult(const RawRun& oracle, const RawRun& subject) {
  EXPECT_EQ(oracle.exec.outcome, subject.exec.outcome)
      << OutcomeToString(oracle.exec.outcome) << " vs "
      << OutcomeToString(subject.exec.outcome);
  EXPECT_EQ(oracle.exec.output, subject.exec.output);
  EXPECT_EQ(oracle.exec.gas_used, subject.exec.gas_used);
  ExpectSameCmps(oracle.cmps, subject.cmps);
  EXPECT_EQ(oracle.state.accounts(), subject.state.accounts());
}

/// Runs `call` from `pre` on the byte oracle and twice on the decoded loop:
/// under a step-stream observer (the per-op path) and under one that does
/// not opt in (block mode). Asserts every observable agrees with the oracle
/// and returns the oracle's result.
ExecResult ExpectCallAgrees(const WorldState& pre, const MessageCall& call,
                            const RunSetup& setup = {}) {
  CodeCache cache;
  RawRun oracle = RunCall(Tier::kByteSwitch, pre, call, &cache, setup);
  {
    SCOPED_TRACE("decoded, step stream");
    RawRun subject = RunCall(Tier::kDecoded, pre, call, &cache, setup);
    ExpectSameResult(oracle, subject);
    ExpectSameTrace(oracle.trace, subject.trace);
  }
  {
    SCOPED_TRACE("decoded, no step stream");
    RawRun subject = RunCall(Tier::kDecoded, pre, call, &cache, setup,
                             /*step_stream=*/false);
    ExpectSameResult(oracle, subject);
    ExpectSameEvents(oracle.trace, subject.trace);
    EXPECT_TRUE(subject.trace.steps().empty());
  }
  return oracle.exec;
}

/// ExpectCallAgrees for raw bytecode at kContract.
ExecResult ExpectModesAgree(const Bytes& code, const Bytes& calldata = {},
                            const U256& value = U256(),
                            uint64_t gas = 1000000,
                            uint64_t max_steps = EvmConfig().max_steps) {
  RunSetup setup;
  setup.max_steps = max_steps;
  return ExpectCallAgrees(RawPreState(code), RawCall(calldata, value, gas),
                          setup);
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

TEST(DecodedDispatchTest, FusedJumpRejectsDestinationAbove32Bits) {
  // A destination is valid iff its whole value is a JUMPDEST's pc: (1<<32)+10
  // is a bad jump although its low 32 bits name the JUMPDEST at pc 10. The
  // decoder's fused-jump resolution and both loops must all say so.
  for (const uint64_t dest : {(uint64_t{1} << 32) + 10, uint64_t{10}}) {
    SCOPED_TRACE("destination " + std::to_string(dest));
    Bytes code;
    code.push_back(0x67 /* PUSH8 */);
    AppendU64BE(&code, dest);            // pcs 0..8
    code.push_back(static_cast<uint8_t>(Op::kJump));      // pc 9
    code.push_back(static_cast<uint8_t>(Op::kJumpdest));  // pc 10
    code.push_back(static_cast<uint8_t>(Op::kStop));      // pc 11

    std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
    const DecodedInsn* fused = FindIr(*decoded, IrOp::kPushJump);
    ASSERT_NE(fused, nullptr);
    const bool valid = dest == 10;
    EXPECT_EQ(fused->jump_target, valid ? decoded->pc_to_insn[10] : -1);

    ExecResult result = ExpectModesAgree(code);
    EXPECT_EQ(result.outcome, valid ? Outcome::kSuccess : Outcome::kBadJump);
  }
}

TEST(DecodedDispatchTest, UnfusedJumpsRejectDestinationAbove32Bits) {
  // The same destinations through plain JUMP and JUMPI: DUP1; POP between
  // the push and the jump keeps them from fusing.
  for (const bool conditional : {false, true}) {
    for (const uint64_t low : {uint64_t{0}, uint64_t{1} << 32}) {
      Bytes code;
      if (conditional) code.push_back(static_cast<uint8_t>(Op::kPush1));
      if (conditional) code.push_back(0x01);  // taken
      const uint64_t dest_pc = code.size() + 9 + 3 + (conditional ? 1 : 0);
      code.push_back(0x67 /* PUSH8 */);
      AppendU64BE(&code, low + dest_pc);
      code.push_back(static_cast<uint8_t>(Op::kDup1));
      code.push_back(static_cast<uint8_t>(Op::kPop));
      code.push_back(static_cast<uint8_t>(conditional ? Op::kJumpi
                                                      : Op::kJump));
      if (conditional) code.push_back(static_cast<uint8_t>(Op::kStop));
      ASSERT_EQ(code.size(), dest_pc);
      code.push_back(static_cast<uint8_t>(Op::kJumpdest));
      AppendU64BE(&code, 0);  // eight STOPs: success iff the jump landed
      SCOPED_TRACE(std::string(conditional ? "JUMPI" : "JUMP") + " to " +
                   std::to_string(low + dest_pc));

      std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
      EXPECT_NE(FindIr(*decoded, conditional ? IrOp::kJumpi : IrOp::kJump),
                nullptr);
      ExecResult result = ExpectModesAgree(code);
      EXPECT_EQ(result.outcome,
                low == 0 ? Outcome::kSuccess : Outcome::kBadJump);
    }
  }
}

TEST(DecodedDispatchTest, KeccakWordCostDoesNotWrap) {
  EXPECT_EQ(KeccakWordGas(0), 0u);
  EXPECT_EQ(KeccakWordGas(1), 6u);
  EXPECT_EQ(KeccakWordGas(32), 6u);
  EXPECT_EQ(KeccakWordGas(33), 12u);
  EXPECT_EQ(KeccakWordGas(UINT64_MAX), 6 * (uint64_t{1} << 59));
  // Lengths whose `length + 31` wraps: the word charge runs out of gas and
  // consumes it all, in both loops; it is not a charge of 0 followed by a
  // memory error.
  for (const uint64_t length : {UINT64_MAX, UINT64_MAX - 30}) {
    SCOPED_TRACE("length " + std::to_string(length));
    Bytes code;
    code.push_back(0x67 /* PUSH8 */);
    AppendU64BE(&code, length);
    code.push_back(static_cast<uint8_t>(Op::kPush1));
    code.push_back(0x00);
    code.push_back(static_cast<uint8_t>(Op::kKeccak256));
    code.push_back(static_cast<uint8_t>(Op::kStop));
    const ExecResult result = ExpectModesAgree(code, {}, U256(), 100000);
    EXPECT_EQ(result.outcome, Outcome::kOutOfGas);
    EXPECT_EQ(result.gas_used, 100000u);
  }
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

// ------------------------------------------------ fused compare-and-branch --

uint8_t OpByte(Op op) { return static_cast<uint8_t>(op); }

/// Appends PUSH<width> `value` (big-endian, `width` bytes).
void AppendPush(Bytes* code, uint64_t value, int width) {
  code->push_back(static_cast<uint8_t>(0x5f + width));
  for (int i = width - 1; i >= 0; --i) {
    code->push_back(i >= 8 ? 0 : static_cast<uint8_t>(value >> (8 * i)));
  }
}

/// DUP1; PUSH<sel_width> selector; EQ; PUSH<label_width> label; JUMPI.
void AppendDispatchCase(Bytes* code, uint64_t selector, uint64_t label,
                        int sel_width = 4, int label_width = 2) {
  code->push_back(OpByte(Op::kDup1));
  AppendPush(code, selector, sel_width);
  code->push_back(OpByte(Op::kEq));
  AppendPush(code, label, label_width);
  code->push_back(OpByte(Op::kJumpi));
}

/// <head>; PUSH<label_width> label; JUMPI, head being a compare or ISZERO.
void AppendBranch(Bytes* code, Op head, uint64_t label, int label_width = 2) {
  code->push_back(OpByte(head));
  AppendPush(code, label, label_width);
  code->push_back(OpByte(Op::kJumpi));
}

/// Appends `count` PUSH1s, filling the stack to that depth.
void AppendFill(Bytes* code, size_t count) {
  for (size_t i = 0; i < count; ++i) AppendPush(code, i & 0xff, 1);
}

/// The number of decoded instructions with the given IrOp.
size_t CountIr(const DecodedCode& decoded, IrOp ir) {
  size_t n = 0;
  for (const DecodedInsn& insn : decoded.insns) n += insn.ir == ir ? 1 : 0;
  return n;
}

/// Label placeholder patched by PatchLabels: the pc of the JUMPDEST that
/// ends each test program.
constexpr uint64_t kEndLabel = 0xfe00;

/// Replaces every 2-byte kEndLabel immediate with `pc`.
void PatchLabels(Bytes* code, uint32_t pc) {
  for (size_t i = 0; i + 2 < code->size(); ++i) {
    if ((*code)[i] == 0x61 && (*code)[i + 1] == (kEndLabel >> 8) &&
        (*code)[i + 2] == (kEndLabel & 0xff)) {
      (*code)[i + 1] = static_cast<uint8_t>(pc >> 8);
      (*code)[i + 2] = static_cast<uint8_t>(pc & 0xff);
    }
  }
}

/// Ends `code` with STOP (the fall-through) and JUMPDEST; PUSH1 1; STOP (the
/// target), and points every kEndLabel at that JUMPDEST.
Bytes WithEnd(Bytes code) {
  code.push_back(OpByte(Op::kStop));
  const uint32_t dest = static_cast<uint32_t>(code.size());
  code.push_back(OpByte(Op::kJumpdest));
  AppendPush(&code, 1, 1);
  code.push_back(OpByte(Op::kStop));
  PatchLabels(&code, dest);
  return code;
}

/// Straight-line programs covering each fused shape, taken and not taken.
std::vector<std::pair<std::string, Bytes>> FusedShapePrograms() {
  std::vector<std::pair<std::string, Bytes>> programs;
  for (bool hit : {true, false}) {
    Bytes code;
    AppendPush(&code, 0xa9059cbb, 4);
    AppendDispatchCase(&code, hit ? 0xa9059cbb : 0x70a08231, kEndLabel);
    programs.push_back({std::string("dispatch ") + (hit ? "hit" : "miss"),
                        WithEnd(code)});
  }
  for (Op cmp : {Op::kLt, Op::kGt, Op::kSlt, Op::kSgt, Op::kEq}) {
    for (uint64_t x : {3, 5}) {
      Bytes code;
      AppendPush(&code, 5, 1);  // y
      AppendPush(&code, x, 1);  // x, the top
      AppendBranch(&code, cmp, kEndLabel);
      programs.push_back(
          {OpName(OpByte(cmp)) + " x=" + std::to_string(x), WithEnd(code)});
    }
  }
  for (uint64_t x : {0, 7}) {
    Bytes raw;
    AppendPush(&raw, x, 1);
    AppendBranch(&raw, Op::kIszero, kEndLabel);
    programs.push_back({"ISZERO raw " + std::to_string(x), WithEnd(raw)});
    // ISZERO over a compare negates the compare's record.
    Bytes over;
    AppendPush(&over, 5, 1);
    AppendPush(&over, x, 1);
    over.push_back(OpByte(Op::kLt));
    AppendBranch(&over, Op::kIszero, kEndLabel);
    programs.push_back({"ISZERO over LT " + std::to_string(x), WithEnd(over)});
  }
  return programs;
}

TEST(DecodedDispatchTest, FusedBranchShapesDecodeToOneInstruction) {
  Bytes code;
  AppendPush(&code, 0x12345678, 4);
  AppendDispatchCase(&code, 0x12345678, kEndLabel, /*sel_width=*/4,
                     /*label_width=*/2);                      // pcs 5..15
  AppendPush(&code, 1, 1);
  AppendPush(&code, 2, 1);
  AppendBranch(&code, Op::kSgt, kEndLabel);                   // pcs 20..24
  AppendPush(&code, 0, 1);
  AppendBranch(&code, Op::kIszero, kEndLabel);                // pcs 27..31
  code = WithEnd(code);
  const uint32_t dest = 33;
  ASSERT_EQ(code[dest], OpByte(Op::kJumpdest));

  std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
  const DecodedInsn* dispatch = FindIr(*decoded, IrOp::kDispatchJumpi);
  ASSERT_NE(dispatch, nullptr);
  EXPECT_EQ(dispatch->pc, 5u);
  EXPECT_EQ(dispatch->immediate, U256(0x12345678));
  EXPECT_EQ(dispatch->pc2, dest);  // the label
  EXPECT_EQ(dispatch->opcode2, 0x63);  // PUSH4
  EXPECT_EQ(dispatch->opcode3, 0x61);  // PUSH2
  EXPECT_EQ(dispatch->jump_target, decoded->pc_to_insn[dest]);

  const DecodedInsn* cmp = FindIr(*decoded, IrOp::kCmpJumpi);
  ASSERT_NE(cmp, nullptr);
  EXPECT_EQ(cmp->pc, 20u);
  EXPECT_EQ(cmp->opcode, OpByte(Op::kSgt));
  EXPECT_EQ(cmp->pc2, 21u);
  EXPECT_EQ(cmp->pc3, 24u);
  EXPECT_EQ(cmp->jump_target, decoded->pc_to_insn[dest]);

  const DecodedInsn* iszero = FindIr(*decoded, IrOp::kIszeroJumpi);
  ASSERT_NE(iszero, nullptr);
  EXPECT_EQ(iszero->pc, 27u);
  EXPECT_EQ(iszero->pc3, 31u);
  EXPECT_EQ(iszero->jump_target, decoded->pc_to_insn[dest]);

  // Nothing else fused into a PUSH;JUMPI pair.
  EXPECT_EQ(FindIr(*decoded, IrOp::kPushJumpi), nullptr);
  EXPECT_EQ(ExpectModesAgree(code).outcome, Outcome::kSuccess);
}

TEST(DecodedDispatchTest, CompiledDispatcherFusesEveryCase) {
  // A 14-function contract, the size of a D1-large one: each dispatch case
  // is one instruction, as are the calldata-size guard and every
  // non-payable CALLVALUE guard.
  constexpr int kFunctions = 14;
  Result<lang::ContractArtifact> artifact =
      lang::CompileContract(SelectorDispatchSource(kFunctions));
  ASSERT_TRUE(artifact.ok()) << artifact.status().ToString();
  std::shared_ptr<const DecodedCode> decoded =
      DecodeCode(artifact->runtime_code);

  std::vector<uint32_t> dispatch_pcs;
  size_t payable_guards = 0;
  for (const lang::BranchMapEntry& entry : artifact->branch_map) {
    if (entry.kind == lang::BranchKind::kDispatch) {
      dispatch_pcs.push_back(entry.jumpi_pc);
    }
    if (entry.kind == lang::BranchKind::kPayableGuard) ++payable_guards;
  }
  ASSERT_EQ(dispatch_pcs.size(), static_cast<size_t>(kFunctions));
  std::vector<uint32_t> fused_pcs;
  for (const DecodedInsn& insn : decoded->insns) {
    if (insn.ir != IrOp::kDispatchJumpi) continue;
    // The JUMPI's pc follows from the DUP1's pc and the two PUSH widths.
    fused_pcs.push_back(insn.pc + 4 + PushSize(insn.opcode2) +
                        PushSize(insn.opcode3));
  }
  EXPECT_EQ(fused_pcs, dispatch_pcs);
  EXPECT_EQ(CountIr(*decoded, IrOp::kIszeroJumpi), payable_guards);
  EXPECT_GE(CountIr(*decoded, IrOp::kCmpJumpi), 1u);  // calldatasize < 4

  // Calling the last function runs all 14 cases; both loops agree on it.
  const lang::AbiFunction& last = artifact->abi.functions.back();
  Bytes calldata;
  AppendU32BE(&calldata, last.selector);
  U256(7).AppendBytesBE(&calldata);
  CodeCache cache;
  RawRun run = RunRaw(Tier::kDecoded, artifact->runtime_code,
                      calldata, U256(), 1000000, &cache);
  EXPECT_EQ(run.exec.outcome, Outcome::kSuccess);
  size_t dispatch_events = 0;
  for (const BranchEvent& ev : run.trace.branches()) {
    dispatch_events += std::count(dispatch_pcs.begin(), dispatch_pcs.end(),
                                  ev.pc);
  }
  EXPECT_EQ(dispatch_events, static_cast<size_t>(kFunctions));
  ExpectModesAgree(artifact->runtime_code, calldata);
}

TEST(DecodedDispatchTest, FusedBranchOutOfGasAndStepLimitAtEveryComponent) {
  // Every prefix of gas and of steps: the fused handlers must stop at the
  // same component, with the same records and events, as the byte loop.
  for (const auto& [name, code] : FusedShapePrograms()) {
    SCOPED_TRACE(name);
    const ExecResult full = ExpectModesAgree(code);
    ASSERT_EQ(full.outcome, Outcome::kSuccess);
    for (uint64_t gas = 0; gas <= full.gas_used; ++gas) {
      SCOPED_TRACE("gas " + std::to_string(gas));
      ExpectModesAgree(code, {}, U256(), gas);
    }
    CodeCache cache;
    const uint64_t steps = RunRaw(Tier::kByteSwitch, code, {}, U256(),
                                  1000000, &cache)
                               .trace.instruction_count();
    for (uint64_t limit = 0; limit <= steps; ++limit) {
      SCOPED_TRACE("max_steps " + std::to_string(limit));
      const ExecResult r = ExpectModesAgree(code, {}, U256(), 1000000, limit);
      EXPECT_EQ(r.outcome,
                limit < steps ? Outcome::kStepLimit : Outcome::kSuccess);
    }
  }
}

TEST(DecodedDispatchTest, FusedBranchStackErrorsMatchByteOracle) {
  // Depths at which each shape underflows, overflows at one of its
  // components, or just fits. The fill and the shape share a block, so the
  // deep cases run in checked mode and the byte loop's per-op checks apply.
  struct Case {
    std::string name;
    size_t depth;
    Op head;  // kDup1 for the dispatch case
    Outcome want;
    uint64_t gas;  // gas used, when the outcome is a stack error
  };
  const uint64_t g = 3;  // every fill push, DUP1, PUSHn, compare and ISZERO
  const std::vector<Case> cases = {
      {"dispatch at 0: DUP1 underflows", 0, Op::kDup1, Outcome::kStackError,
       g},
      {"dispatch at 1024: DUP1 overflows", 1024, Op::kDup1,
       Outcome::kStackError, 1025 * g},
      {"dispatch at 1023: PUSH4 overflows", 1023, Op::kDup1,
       Outcome::kStackError, 1025 * g},
      {"dispatch at 1022 fits", 1022, Op::kDup1, Outcome::kSuccess, 0},
      {"LT at 0 underflows", 0, Op::kLt, Outcome::kStackError, g},
      {"LT at 1 underflows", 1, Op::kLt, Outcome::kStackError, 2 * g},
      {"LT at 1024 fits", 1024, Op::kLt, Outcome::kSuccess, 0},
      {"ISZERO at 0 underflows", 0, Op::kIszero, Outcome::kStackError, g},
      {"ISZERO at 1024: PUSH overflows", 1024, Op::kIszero,
       Outcome::kStackError, 1026 * g},
      {"ISZERO at 1023 fits", 1023, Op::kIszero, Outcome::kSuccess, 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Bytes code;
    AppendFill(&code, c.depth);
    if (c.head == Op::kDup1) {
      AppendDispatchCase(&code, 0x01, kEndLabel);
    } else {
      AppendBranch(&code, c.head, kEndLabel);
    }
    code = WithEnd(code);
    const ExecResult r = ExpectModesAgree(code);
    EXPECT_EQ(r.outcome, c.want) << OutcomeToString(r.outcome);
    if (c.want == Outcome::kStackError) {
      EXPECT_EQ(r.gas_used, c.gas);
    }
  }
}

TEST(DecodedDispatchTest, FusedBranchToNonJumpdestFailsOnlyWhenTaken) {
  // The label points at the STOP after the shape (not a JUMPDEST): taken,
  // the branch is a bad jump after its event; not taken, it falls through.
  for (bool taken : {true, false}) {
    SCOPED_TRACE(taken ? "taken" : "not taken");
    std::vector<Bytes> programs;
    Bytes dispatch;
    AppendPush(&dispatch, 0x42, 1);
    AppendDispatchCase(&dispatch, taken ? 0x42 : 0x43, 13);
    programs.push_back(dispatch);
    Bytes cmp;
    AppendPush(&cmp, 5, 1);
    AppendPush(&cmp, taken ? 3 : 9, 1);
    AppendBranch(&cmp, Op::kLt, 9);
    programs.push_back(cmp);
    Bytes iszero;
    AppendPush(&iszero, taken ? 0 : 1, 1);
    AppendBranch(&iszero, Op::kIszero, 7);
    programs.push_back(iszero);
    for (Bytes& code : programs) {
      code.push_back(OpByte(Op::kStop));  // the label's pc
      std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
      // One fused branch, whose target failed to resolve.
      size_t fused = 0;
      for (const DecodedInsn& insn : decoded->insns) {
        if (insn.ir == IrOp::kDispatchJumpi || insn.ir == IrOp::kCmpJumpi ||
            insn.ir == IrOp::kIszeroJumpi) {
          ++fused;
          EXPECT_EQ(insn.jump_target, -1);
        }
      }
      EXPECT_EQ(fused, 1u);
      const ExecResult r = ExpectModesAgree(code);
      EXPECT_EQ(r.outcome, taken ? Outcome::kBadJump : Outcome::kSuccess);
    }
  }
}

TEST(DecodedDispatchTest, FusedBranchCarriesCallResultAndCallerTaint) {
  // Conditions fed by a CALL status word (call id, OnCallResultChecked) and
  // by CALLER (cond taint, and the caller-guard flag a later SELFDESTRUCT
  // reports), through each fused shape.
  auto call_status = [](Bytes* code) {
    for (int i = 0; i < 5; ++i) AppendPush(code, 0, 1);  // no io, value 0
    AppendPush(code, 0xbeef, 2);                          // code-less target
    AppendPush(code, 5000, 2);
    code->push_back(OpByte(Op::kCall));
  };
  auto caller_word = [](Bytes* code) {
    code->push_back(OpByte(Op::kCaller));
  };
  const uint64_t sender = 0xab01;  // RunRaw's caller
  std::vector<std::pair<std::string, Bytes>> programs;
  {
    Bytes code;
    call_status(&code);
    AppendBranch(&code, Op::kIszero, kEndLabel);
    programs.push_back({"ISZERO(call)", code});
  }
  {
    Bytes code;
    call_status(&code);
    AppendPush(&code, 1, 1);
    AppendBranch(&code, Op::kEq, kEndLabel);
    programs.push_back({"EQ(1, call)", code});
  }
  {
    Bytes code;
    call_status(&code);
    AppendDispatchCase(&code, 1, kEndLabel, /*sel_width=*/1);
    programs.push_back({"dispatch on call", code});
  }
  for (bool match : {true, false}) {
    const uint64_t who = match ? sender : sender + 1;
    Bytes dispatch;
    caller_word(&dispatch);
    AppendDispatchCase(&dispatch, who, kEndLabel, /*sel_width=*/20);
    programs.push_back({"dispatch on caller", dispatch});
    Bytes eq;
    caller_word(&eq);
    AppendPush(&eq, who, 20);
    AppendBranch(&eq, Op::kEq, kEndLabel);
    programs.push_back({"EQ(caller)", eq});
  }
  {
    Bytes code;
    caller_word(&code);
    AppendBranch(&code, Op::kIszero, kEndLabel);
    programs.push_back({"ISZERO(caller)", code});
  }
  for (auto& [name, body] : programs) {
    SCOPED_TRACE(name);
    // Both directions end in a SELFDESTRUCT that reports the guard flag.
    Bytes code = body;
    AppendPush(&code, 0xbe, 1);
    code.push_back(OpByte(Op::kSelfdestruct));
    const uint32_t dest = static_cast<uint32_t>(code.size());
    code.push_back(OpByte(Op::kJumpdest));
    AppendPush(&code, 0xbe, 1);
    code.push_back(OpByte(Op::kSelfdestruct));
    PatchLabels(&code, dest);
    std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
    EXPECT_EQ(CountIr(*decoded, IrOp::kDispatchJumpi) +
                  CountIr(*decoded, IrOp::kCmpJumpi) +
                  CountIr(*decoded, IrOp::kIszeroJumpi),
              1u);
    EXPECT_EQ(ExpectModesAgree(code).outcome, Outcome::kSuccess);
  }
}

TEST(DecodedDispatchTest, BranchShapesThatMustNotFuse) {
  // A label wider than 4 bytes, or a JUMPDEST inside the shape, leaves the
  // pieces unfused; both loops still agree.
  std::vector<std::pair<std::string, Bytes>> programs;
  // A JUMPDEST between the PUSHn and the EQ still lets EQ; PUSH; JUMPI fuse
  // as a compare, but never the whole dispatch case.
  Bytes split_dispatch;
  AppendPush(&split_dispatch, 0x42, 1);
  split_dispatch.push_back(OpByte(Op::kDup1));
  AppendPush(&split_dispatch, 0x42, 1);
  split_dispatch.push_back(OpByte(Op::kJumpdest));
  AppendBranch(&split_dispatch, Op::kEq, 5);
  {
    Bytes code;
    AppendPush(&code, 0x42, 1);
    AppendDispatchCase(&code, 0x42, 17, /*sel_width=*/4, /*label_width=*/5);
    code.push_back(OpByte(Op::kStop));
    code.push_back(OpByte(Op::kJumpdest));  // pc 17
    programs.push_back({"dispatch, PUSH5 label", code});
  }
  {
    Bytes code;
    AppendPush(&code, 1, 1);
    AppendPush(&code, 2, 1);
    AppendBranch(&code, Op::kGt, 14, /*label_width=*/6);
    code.push_back(OpByte(Op::kStop));
    code.push_back(OpByte(Op::kJumpdest));  // pc 14
    programs.push_back({"GT, PUSH6 label", code});
  }
  {
    Bytes code;
    AppendPush(&code, 0, 1);
    AppendBranch(&code, Op::kIszero, 0, /*label_width=*/32);
    programs.push_back({"ISZERO, PUSH32 label", code});
  }
  {
    // DUP1; PUSH1; EQ; PUSH1; JUMPDEST; JUMPI — the JUMPDEST starts a block.
    Bytes code;
    AppendPush(&code, 0x42, 1);
    code.push_back(OpByte(Op::kDup1));
    AppendPush(&code, 0x42, 1);
    code.push_back(OpByte(Op::kEq));
    AppendPush(&code, 8, 1);
    code.push_back(OpByte(Op::kJumpdest));
    code.push_back(OpByte(Op::kJumpi));
    programs.push_back({"dispatch split before JUMPI", code});
  }
  {
    // LT; JUMPDEST; PUSH1; JUMPI and ISZERO; PUSH1; JUMPDEST; JUMPI.
    Bytes lt;
    AppendPush(&lt, 5, 1);
    AppendPush(&lt, 3, 1);
    lt.push_back(OpByte(Op::kLt));
    lt.push_back(OpByte(Op::kJumpdest));
    AppendPush(&lt, 5, 1);
    lt.push_back(OpByte(Op::kJumpi));
    programs.push_back({"LT split by JUMPDEST", lt});
    Bytes iszero;
    AppendPush(&iszero, 0, 1);
    iszero.push_back(OpByte(Op::kIszero));
    AppendPush(&iszero, 5, 1);
    iszero.push_back(OpByte(Op::kJumpdest));
    iszero.push_back(OpByte(Op::kJumpi));
    programs.push_back({"ISZERO split by JUMPDEST", iszero});
  }
  for (const auto& [name, code] : programs) {
    SCOPED_TRACE(name);
    std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
    EXPECT_EQ(FindIr(*decoded, IrOp::kDispatchJumpi), nullptr);
    EXPECT_EQ(FindIr(*decoded, IrOp::kCmpJumpi), nullptr);
    EXPECT_EQ(FindIr(*decoded, IrOp::kIszeroJumpi), nullptr);
    ExpectModesAgree(code);
    for (uint64_t gas : {0, 5, 9, 14, 20}) {
      ExpectModesAgree(code, {}, U256(), gas);
    }
  }
  std::shared_ptr<const DecodedCode> decoded = DecodeCode(split_dispatch);
  EXPECT_EQ(FindIr(*decoded, IrOp::kDispatchJumpi), nullptr);
  EXPECT_NE(FindIr(*decoded, IrOp::kCmpJumpi), nullptr);
  ExpectModesAgree(split_dispatch);
}

/// Programs made mostly of the fused branch shapes, with random widths,
/// operands, taints (CALLER, CALLDATALOAD, CALL status) and labels that are
/// valid JUMPDESTs, invalid, or wider than 4 bytes.
Bytes RandomBranchProgram(Rng* rng) {
  Bytes code;
  std::vector<uint32_t> dests;
  auto label = [&]() -> uint64_t {
    if (!dests.empty() && rng->Chance(0.7)) return rng->Pick(dests);
    return rng->NextBelow(200);
  };
  auto label_width = [&]() {
    return rng->Chance(0.9) ? 2 : 1 + static_cast<int>(rng->NextBelow(6));
  };
  const size_t target_len = 30 + rng->NextBelow(120);
  while (code.size() < target_len) {
    const uint64_t k = rng->NextBelow(100);
    if (k < 20) {
      AppendPush(&code, rng->NextBelow(4),
                 1 + static_cast<int>(rng->NextBelow(4)));
    } else if (k < 30) {
      const Op sources[] = {Op::kCaller, Op::kCallvalue, Op::kCalldatasize};
      code.push_back(OpByte(sources[rng->NextBelow(3)]));
    } else if (k < 34) {
      AppendPush(&code, 0, 1);
      code.push_back(OpByte(Op::kCalldataload));
    } else if (k < 37) {
      for (int i = 0; i < 5; ++i) AppendPush(&code, 0, 1);
      AppendPush(&code, 0xbeef, 2);
      AppendPush(&code, 5000, 2);
      code.push_back(OpByte(Op::kCall));
    } else if (k < 52) {
      const uint64_t sel = rng->NextBelow(4);
      const int width =
          1 + static_cast<int>(rng->NextBelow(rng->Chance(0.8) ? 4 : 32));
      AppendDispatchCase(&code, sel, label(), width, label_width());
    } else if (k < 66) {
      const Op cmps[] = {Op::kLt, Op::kGt, Op::kSlt, Op::kSgt, Op::kEq};
      AppendBranch(&code, cmps[rng->NextBelow(5)], label(), label_width());
    } else if (k < 76) {
      if (rng->Chance(0.5)) code.push_back(OpByte(Op::kLt));
      AppendBranch(&code, Op::kIszero, label(), label_width());
    } else if (k < 84) {
      dests.push_back(static_cast<uint32_t>(code.size()));
      code.push_back(OpByte(Op::kJumpdest));
    } else if (k < 92) {
      const uint8_t base = (k % 2 == 0) ? 0x80 : 0x90;
      code.push_back(static_cast<uint8_t>(base + rng->NextBelow(3)));
    } else if (k < 97) {
      code.push_back(OpByte(Op::kPop));
    } else {
      code.push_back(OpByte(Op::kStop));
    }
  }
  return code;
}

TEST(DecodedDispatchTest, RandomBranchShapesAgreeWithByteOracle) {
  Rng rng(20261018);
  for (int iter = 0; iter < 300; ++iter) {
    SCOPED_TRACE("program " + std::to_string(iter));
    const Bytes code = RandomBranchProgram(&rng);
    Bytes calldata;
    const size_t data_len = rng.NextBelow(40);
    for (size_t i = 0; i < data_len; ++i) {
      calldata.push_back(static_cast<uint8_t>(rng.NextBelow(3)));
    }
    const uint64_t gas = rng.Chance(0.3) ? rng.NextBelow(200) : 100000;
    const uint64_t max_steps =
        rng.Chance(0.3) ? rng.NextBelow(60) : EvmConfig().max_steps;
    ExpectModesAgree(code, calldata, U256(rng.NextBelow(2)), gas, max_steps);
    if (HasFatalFailure() || HasNonfatalFailure()) {
      FAIL() << "divergence on program " << iter;
    }
  }
}

// --------------------------------------------------------- block charging --

TEST(DecodedBlockChargeTest, BlockCheckCarriesStaticGasAndLength) {
  // PUSH1 1; PUSH1 2; ADD (fused); POP; GAS | POP; STOP — GAS ends its block
  // so it reads exact gas, and the fused triple counts as three.
  const Bytes code = {OpByte(Op::kPush1), 0x01, OpByte(Op::kPush1), 0x02,
                      OpByte(Op::kAdd),   OpByte(Op::kPop),
                      OpByte(Op::kGas),   OpByte(Op::kPop),
                      OpByte(Op::kStop)};
  std::shared_ptr<const DecodedCode> decoded = DecodeCode(code);
  std::vector<const DecodedInsn*> checks;
  for (const DecodedInsn& insn : decoded->insns) {
    if (insn.ir == IrOp::kBlockCheck) checks.push_back(&insn);
  }
  ASSERT_EQ(checks.size(), 2u);
  EXPECT_EQ(checks[0]->BlockGas(), 3u + 3 + 3 + 2 + 2);
  EXPECT_EQ(checks[0]->BlockLength(), 5u);
  EXPECT_EQ(checks[1]->BlockGas(), 2u);
  EXPECT_EQ(checks[1]->BlockLength(), 2u);
  EXPECT_EQ(ExpectModesAgree(code).gas_used, 15u);
}

/// ExpectModesAgree at every gas budget from 0 to `extra` past what the
/// program uses with plenty.
void ExpectModesAgreeAtEveryGas(const Bytes& code, const U256& value,
                                uint64_t extra = 1) {
  const ExecResult full = ExpectModesAgree(code, {}, value);
  for (uint64_t gas = 0; gas <= full.gas_used + extra; ++gas) {
    SCOPED_TRACE("gas " + std::to_string(gas));
    ExpectModesAgree(code, {}, value, gas);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DecodedBlockChargeTest, GasThenValueCallMidBlock) {
  // Straight-line code around GAS; CALL with value: GAS must push the exact
  // gas left, and the CALL must charge its 9000 and forward gas from it.
  Bytes code;
  for (int i = 0; i < 4; ++i) AppendPush(&code, 0, 1);  // no io
  AppendPush(&code, 1, 1);                              // value
  AppendPush(&code, 0xdead, 2);                         // code-less target
  code.push_back(OpByte(Op::kGas));
  code.push_back(OpByte(Op::kCall));
  code.push_back(OpByte(Op::kGas));  // the gas left after the call
  AppendPush(&code, 0, 1);
  code.push_back(OpByte(Op::kMstore));
  AppendPush(&code, 0x20, 1);
  code.push_back(OpByte(Op::kMstore));  // the call's status
  AppendPush(&code, 0x40, 1);
  AppendPush(&code, 0, 1);
  code.push_back(OpByte(Op::kReturn));
  ExpectModesAgreeAtEveryGas(code, U256(5), 2400);
}

TEST(DecodedBlockChargeTest, HostReentryUnderTightStepLimit) {
  // Called with value, the contract sends 1 wei to a code-less account
  // mid-block; the host calls back in without value, and the re-entered
  // frame runs a short block and stores. Both frames share one step
  // counter: every limit must stop the same instruction in every loop.
  Bytes code;
  code.push_back(OpByte(Op::kCallvalue));
  AppendPush(&code, 0, 1);  // patched: the JUMPDEST below
  code.push_back(OpByte(Op::kJumpi));
  AppendPush(&code, 1, 1);
  AppendPush(&code, 2, 1);
  code.push_back(OpByte(Op::kAdd));
  AppendPush(&code, 0, 1);
  code.push_back(OpByte(Op::kSstore));
  code.push_back(OpByte(Op::kStop));
  code[2] = static_cast<uint8_t>(code.size());
  code.push_back(OpByte(Op::kJumpdest));
  for (int i = 0; i < 4; ++i) AppendPush(&code, 0, 1);
  AppendPush(&code, 1, 1);
  AppendPush(&code, 0xdead, 2);
  AppendPush(&code, 100000, 3);
  code.push_back(OpByte(Op::kCall));
  AppendPush(&code, 1, 1);
  code.push_back(OpByte(Op::kAdd));
  AppendPush(&code, 1, 1);
  code.push_back(OpByte(Op::kSstore));
  code.push_back(OpByte(Op::kStop));

  const WorldState pre = RawPreState(code);
  const MessageCall call = RawCall({}, U256(1), 1000000);
  RunSetup setup;
  setup.reentry_calldata = Bytes{0x01};
  const ExecResult full = ExpectCallAgrees(pre, call, setup);
  ASSERT_EQ(full.outcome, Outcome::kSuccess);
  CodeCache cache;
  const uint64_t steps =
      RunCall(Tier::kByteSwitch, pre, call, &cache, setup)
          .trace.instruction_count();
  // Outer: to the JUMPDEST 3, the call 1 + 7 + 1, after it 5; inner 3 + 6.
  EXPECT_EQ(steps, 3u + 9 + 5 + 3 + 6);
  for (uint64_t limit = 0; limit <= steps; ++limit) {
    SCOPED_TRACE("max_steps " + std::to_string(limit));
    setup.max_steps = limit;
    ExpectCallAgrees(pre, call, setup);
    if (HasFailure()) return;
  }
}

TEST(DecodedBlockChargeTest, FailingKeccakWordChargeMidBlock) {
  // KECCAK256 over 64 bytes (6 gas a word) followed by a zero-gas STOP, or
  // by a compare (a record) and a store. At budgets where the block fits but
  // the word charge does not, block mode gives back the rest of the block;
  // at some of them the charge then succeeds on the per-op path.
  for (const bool zero_gas_tail : {true, false}) {
    SCOPED_TRACE(zero_gas_tail ? "STOP after KECCAK256" : "work after it");
    Bytes code;
    AppendPush(&code, 0x40, 1);
    AppendPush(&code, 0, 1);
    code.push_back(OpByte(Op::kKeccak256));
    if (!zero_gas_tail) {
      AppendPush(&code, 7, 1);
      code.push_back(OpByte(Op::kLt));
      AppendPush(&code, 0, 1);
      code.push_back(OpByte(Op::kMstore));
    }
    code.push_back(OpByte(Op::kStop));
    ExpectModesAgreeAtEveryGas(code, U256());
  }
  // The first budget that covers the block but not the words: three
  // instructions ran, STOP did not.
  const Bytes code = {OpByte(Op::kPush1), 0x40, OpByte(Op::kPush1), 0x00,
                      OpByte(Op::kKeccak256), OpByte(Op::kStop)};
  CodeCache cache;
  RunSetup setup;
  const RawRun r = RunCall(Tier::kDecoded, RawPreState(code),
                           RawCall({}, U256(), 36 + 11), &cache, setup,
                           /*step_stream=*/false);
  EXPECT_EQ(r.exec.outcome, Outcome::kOutOfGas);
  EXPECT_EQ(r.trace.instruction_count(), 3u);
}

TEST(DecodedBlockChargeTest, MemoryErrorMidBlockGivesBackTheRest) {
  // An MSTORE past the memory cap halts mid-block: gas_used and the
  // instruction count cover the three instructions run, not the block.
  Bytes code;
  AppendPush(&code, 1, 1);
  AppendPush(&code, 0xffffffff, 4);
  code.push_back(OpByte(Op::kMstore));
  AppendPush(&code, 2, 1);
  AppendPush(&code, 3, 1);
  code.push_back(OpByte(Op::kAdd));
  code.push_back(OpByte(Op::kPop));
  code.push_back(OpByte(Op::kStop));
  const ExecResult r = ExpectModesAgree(code);
  EXPECT_EQ(r.outcome, Outcome::kMemoryError);
  EXPECT_EQ(r.gas_used, 9u);
  ExpectModesAgreeAtEveryGas(code, U256());
}

TEST(DecodedBlockChargeTest, BuiltinTransactionsAgreeAtEveryGasAndStepLimit) {
  // Every function of the two paper examples, each called from the state
  // the previous call left, at every gas budget up to what it uses and at
  // every step limit up to what it runs.
  for (const corpus::CorpusEntry* entry :
       {&corpus::CrowdsaleExample(), &corpus::GameExample()}) {
    SCOPED_TRACE(entry->name);
    Result<lang::ContractArtifact> artifact =
        lang::CompileContract(entry->source);
    ASSERT_TRUE(artifact.ok());
    AcceptingHost host;
    ChainSession chain(&host);
    chain.FundAccount(kSender, U256::PowerOfTen(24));
    Result<Address> addr = chain.Deploy(artifact->runtime_code,
                                        artifact->ctor_code, {}, kSender,
                                        U256());
    ASSERT_TRUE(addr.ok());
    WorldState pre = chain.state();
    for (const lang::AbiFunction& fn : artifact->abi.functions) {
      SCOPED_TRACE(fn.name);
      MessageCall call;
      call.to = *addr;
      call.code_address = *addr;
      call.caller = kSender;
      call.origin = kSender;
      call.value = fn.payable ? U256::PowerOfTen(16) * U256(88) : U256();
      AppendU32BE(&call.data, fn.selector);
      for (size_t i = 0; i < fn.inputs.size(); ++i) {
        U256(3).AppendBytesBE(&call.data);
      }
      call.gas = 1000000;
      CodeCache cache;
      RawRun full =
          RunCall(Tier::kByteSwitch, pre, call, &cache, RunSetup());
      const uint64_t gas_used = full.exec.gas_used;
      const uint64_t steps = full.trace.instruction_count();
      for (call.gas = 0; call.gas <= gas_used; ++call.gas) {
        SCOPED_TRACE("gas " + std::to_string(call.gas));
        ExpectCallAgrees(pre, call);
        if (HasFailure()) return;
      }
      call.gas = 1000000;
      RunSetup setup;
      for (setup.max_steps = 0; setup.max_steps <= steps;
           ++setup.max_steps) {
        SCOPED_TRACE("max_steps " + std::to_string(setup.max_steps));
        ExpectCallAgrees(pre, call, setup);
        if (HasFailure()) return;
      }
      pre = std::move(full.state);
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

/// Runs `code` on tier `mode` (with value 1, against a host that calls back
/// into the contract once) twice: observed by a FullTrace and by a
/// CountOnlyTrace. Checks that instruction_count() equals the number of
/// OnStep calls the FullTrace saw, and that the plain recorder gets the same
/// count with no OnStep calls. Returns the count.
uint64_t CheckInstructionCount(Tier mode, const Bytes& code,
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
    config.max_steps = max_steps;
    config.code_cache = &cache;
    Interpreter interp(&state, &host, BlockContext(), config);
    const uint64_t oracle_frames = UseTier(mode, &interp);
    FullTrace full;
    CountOnlyTrace plain;
    interp.set_observer(stream ? static_cast<TraceRecorder*>(&full) : &plain);
    MessageCall call;
    call.to = contract;
    call.code_address = contract;
    call.caller = sender;
    call.origin = sender;
    call.value = U256(1);
    call.gas = 1000000;
    EXPECT_EQ(interp.ExecuteTransaction(call).outcome, want);
    ExpectRanOn(mode, oracle_frames);
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
  for (Tier mode : {Tier::kDecoded, Tier::kByteSwitch}) {
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
  for (Tier mode : {Tier::kDecoded, Tier::kByteSwitch}) {
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
/// ChainSession on one tier.
struct CorpusRun {
  explicit CorpusRun(bool step_stream) : trace(step_stream) {}

  bool deploy_ok = false;
  std::vector<ExecResult> results;
  std::vector<std::vector<CmpRecord>> cmps;
  FullTrace trace;
  std::unordered_map<Address, Account, Address::Hasher> accounts;
};

CorpusRun RunCorpusEntry(const lang::ContractArtifact& artifact,
                         Tier mode, uint64_t seed,
                         bool step_stream = true) {
  CorpusRun run(step_stream);
  CodeCache cache;
  EvmConfig config;
  config.code_cache = &cache;
  AcceptingHost host;
  ChainSession chain(&host, BlockContext(), config);
  const uint64_t oracle_frames = UseTier(mode, &chain.interpreter());
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
  ExpectRanOn(mode, oracle_frames);
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
        RunCorpusEntry(*artifact, Tier::kByteSwitch, seed);
    for (bool step_stream : {true, false}) {
      SCOPED_TRACE(step_stream ? "decoded, step stream"
                               : "decoded, no step stream");
      CorpusRun subject = RunCorpusEntry(*artifact, Tier::kDecoded,
                                         seed, step_stream);
      ASSERT_EQ(oracle.deploy_ok, subject.deploy_ok);
      ASSERT_EQ(oracle.results.size(), subject.results.size());
      for (size_t i = 0; i < oracle.results.size(); ++i) {
        SCOPED_TRACE("tx " + std::to_string(i));
        EXPECT_EQ(oracle.results[i].outcome, subject.results[i].outcome);
        EXPECT_EQ(oracle.results[i].output, subject.results[i].output);
        EXPECT_EQ(oracle.results[i].gas_used, subject.results[i].gas_used);
        ExpectSameCmps(oracle.cmps[i], subject.cmps[i]);
      }
      if (step_stream) {
        ExpectSameTrace(oracle.trace, subject.trace);
      } else {
        ExpectSameEvents(oracle.trace, subject.trace);
        EXPECT_TRUE(subject.trace.steps().empty());
      }
      EXPECT_EQ(oracle.accounts, subject.accounts);
    }
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
            for (Tier mode : {Tier::kDecoded, Tier::kByteSwitch}) {
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
