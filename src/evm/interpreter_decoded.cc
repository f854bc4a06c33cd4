// The threaded-dispatch execution loop over pre-decoded IR (see
// evm/code_cache.h). This is the only frame loop of the library and the hot
// path of the whole system; the byte-switch loop survives in the test tree
// (tests/evm/byte_switch_oracle.cc) as its differential oracle.
//
// Equivalence contract (pinned by tests/evm/decoded_dispatch_test.cc): for
// any bytecode and call, this loop produces the same ExecResult (outcome,
// output, gas_used), the same state-journal effects, the same comparison
// records, and the same observer-event stream — events carry original byte
// pcs — as the byte-switch loop. To that end every handler replicates the
// byte loop's per-instruction order exactly: step-limit check, (defined
// check), OnStep, gas charge, stack-arity check, then the operation. Fused
// superinstructions perform that bookkeeping once per original instruction.
//
// Most blocks skip that per-op path. Each block's kBlockCheck carries, from
// decode time, the block's stack needs (min entry height, peak growth), its
// static gas sum and its count of original instructions. When the entry
// height proves the block free of stack errors, no step observer is set and
// the gas and step budgets cover the whole block, the check charges the
// gas, steps_ and instructions_ once and the block runs in block mode: no
// per-op bookkeeping, no stack checks. Within the block nothing can then run
// out of static gas or hit the step limit, so the per-op path's outcome is
// the same; only a halt before the block's end (a memory error, a failed
// dynamic charge) sees the early charge, and it gives back what the block
// has not executed (GIVE_BACK) before it reports gas or returns. GAS and the
// CALL family, which read the gas left or run frames sharing steps_, end
// their block at decode time, so they always see exact counters. A KECCAK
// word charge that fails in block mode gives back and retries on the per-op
// path. Every other block (the error path, a tight gas or step budget, a
// step-stream observer) runs the byte loop's exact per-op bookkeeping and
// checks, so it aborts at the same instruction with the same partial event
// stream. Dynamic gas is charged per op in both modes.

#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/keccak.h"
#include "evm/code_cache.h"
#include "evm/interpreter.h"
#include "evm/memory.h"
#include "evm/stack.h"

// Direct-threaded dispatch needs GNU computed goto; everything else (and
// -DMUFUZZ_PORTABLE_DISPATCH builds, which CI exercises) uses a portable
// switch loop over the same handler bodies.
#if !defined(MUFUZZ_PORTABLE_DISPATCH) && \
    (defined(__GNUC__) || defined(__clang__))
#define MUFUZZ_THREADED_DISPATCH 1
#endif

// The hot-loop helpers below must be inlined into RunFrameDecoded; GCC
// stops inlining into a function that large on its own.
#if defined(__GNUC__) || defined(__clang__)
#define MUFUZZ_ALWAYS_INLINE __attribute__((always_inline)) inline
#else
#define MUFUZZ_ALWAYS_INLINE inline
#endif

namespace mufuzz::evm {

namespace {

/// LT/GT/SLT/SGT/EQ as the byte loop evaluates it: x is the top word.
MUFUZZ_ALWAYS_INLINE bool Compare(uint8_t opcode, const U256& x,
                                  const U256& y, CmpOp* cmp_op) {
  switch (static_cast<Op>(opcode)) {
    case Op::kLt:
      *cmp_op = CmpOp::kLt;
      return x < y;
    case Op::kGt:
      *cmp_op = CmpOp::kGt;
      return x > y;
    case Op::kSlt:
      *cmp_op = CmpOp::kSlt;
      return x.Slt(y);
    case Op::kSgt:
      *cmp_op = CmpOp::kSgt;
      return x.Sgt(y);
    default:
      *cmp_op = CmpOp::kEq;
      return x == y;
  }
}

/// ISZERO's comparison record: the negation of the comparison that
/// produced `x`, so distance stays meaningful through require()'s ISZERO
/// chains, or a fresh IsZero record. Returns the result's cmp_id.
MUFUZZ_ALWAYS_INLINE int32_t RecordIszero(std::vector<CmpRecord>* records,
                                          const Word& x) {
  const int32_t id = static_cast<int32_t>(records->size());
  if (x.cmp_id >= 0) {
    CmpRecord rec = (*records)[x.cmp_id];
    rec.negated = !rec.negated;
    records->push_back(rec);
  } else {
    records->push_back({CmpOp::kIsZero, x.value, U256::Zero(), false, x.taint});
  }
  return id;
}

/// MLOAD's tag for the word at byte `offset`: a load that straddles two
/// words ORs in the second one's taint and loses the call identity.
MUFUZZ_ALWAYS_INLINE MemTaintMap::Tag MemTagLoad(const MemTaintMap& mem_taint,
                                                 uint64_t offset) {
  MemTaintMap::Tag tag;
  const MemTaintMap::Tag* found = mem_taint.Find(offset / 32);
  if (found != nullptr) tag = *found;
  if (offset % 32 != 0) {
    found = mem_taint.Find(offset / 32 + 1);
    if (found != nullptr) {
      tag.taint |= found->taint;
      tag.call_id = -1;  // misaligned: call identity is lost
    }
  }
  return tag;
}

/// Tags every word that bytes [offset, offset + len) touch; an untainted
/// store without a call id erases their tags instead.
MUFUZZ_ALWAYS_INLINE void MemTaintStore(MemTaintMap* mem_taint,
                                        uint64_t offset, uint64_t len,
                                        uint32_t taint, int32_t call_id = -1) {
  if (len == 0) return;
  for (uint64_t w = offset / 32; w <= (offset + len - 1) / 32; ++w) {
    if (taint == 0 && call_id < 0) {
      mem_taint->Erase(w);
    } else {
      mem_taint->Set(w, MemTaintMap::Tag{taint, call_id});
    }
  }
}

/// The OR of the taints of every word that bytes [offset, offset + len)
/// touch.
MUFUZZ_ALWAYS_INLINE uint32_t MemTaintRange(const MemTaintMap& mem_taint,
                                            uint64_t offset, uint64_t len) {
  uint32_t t = 0;
  if (len == 0) return t;
  for (uint64_t w = offset / 32; w <= (offset + len - 1) / 32; ++w) {
    const MemTaintMap::Tag* found = mem_taint.Find(w);
    if (found != nullptr) t |= found->taint;
  }
  return t;
}

// Static gas of kDispatchJumpi's two fixed-opcode components.
const uint16_t kEqGas = GetOpInfo(Op::kEq).gas;
const uint16_t kJumpiGas = GetOpInfo(Op::kJumpi).gas;

}  // namespace

// One entry per IrOp, in enum order (the dispatch table and the switch are
// both generated from this list).
#define MUFUZZ_IR_OPS(X)                                                 \
  X(BlockCheck)                                                          \
  X(Stop)                                                                \
  X(Arith)                                                               \
  X(AddmodMulmod)                                                        \
  X(Cmp)                                                                 \
  X(Iszero)                                                              \
  X(Bitwise)                                                             \
  X(Not)                                                                 \
  X(Byte)                                                                \
  X(Shift)                                                               \
  X(Keccak)                                                              \
  X(Address)                                                             \
  X(Balance)                                                             \
  X(Selfbalance)                                                         \
  X(Origin)                                                              \
  X(Caller)                                                              \
  X(Callvalue)                                                           \
  X(Calldataload)                                                        \
  X(Calldatasize)                                                        \
  X(Calldatacopy)                                                        \
  X(Codesize)                                                            \
  X(Codecopy)                                                            \
  X(Gasprice)                                                            \
  X(Returndatasize)                                                      \
  X(Returndatacopy)                                                      \
  X(Blockhash)                                                           \
  X(BlockRead)                                                           \
  X(Pop)                                                                 \
  X(Mload)                                                               \
  X(Mstore)                                                              \
  X(Mstore8)                                                             \
  X(Sload)                                                               \
  X(Sstore)                                                              \
  X(Jump)                                                                \
  X(Jumpi)                                                               \
  X(Pc)                                                                  \
  X(Msize)                                                               \
  X(Gas)                                                                 \
  X(Jumpdest)                                                            \
  X(ReturnRevert)                                                        \
  X(Invalid)                                                             \
  X(Selfdestruct)                                                        \
  X(Create)                                                              \
  X(CallFamily)                                                          \
  X(Push)                                                                \
  X(Dup)                                                                 \
  X(Swap)                                                                \
  X(Log)                                                                 \
  X(Undefined)                                                           \
  X(PushJump)                                                            \
  X(PushJumpi)                                                           \
  X(DupSload)                                                            \
  X(PushPushArith)                                                       \
  X(DispatchJumpi)                                                       \
  X(CmpJumpi)                                                            \
  X(IszeroJumpi)                                                         \
  X(End)

ExecResult Interpreter::RunFrameDecoded(const MessageCall& call,
                                        const DecodedCode& decoded) {
  const Bytes& code = decoded.code;
  const DecodedInsn* const insns = decoded.insns.data();
  const int32_t* const pc_to_insn = decoded.pc_to_insn.data();

  // Frame state lives in a pooled arena: warm containers checked out for
  // the duration of this frame (nested calls check out their own).
  ArenaLease lease(this);
  Stack& stack = lease.arena.stack;
  Memory& memory = lease.arena.memory;
  // Word-granular memory instrumentation, identical to the byte loop.
  MemTaintMap& mem_taint = lease.arena.mem_taint;
  Bytes& return_data = lease.arena.return_data;
  bool caller_guard_seen = false;
  uint64_t gas = call.gas;
  const DecodedInsn* ins = insns;  ///< the instruction being executed
  /// The current block was charged whole at its kBlockCheck (see the top of
  /// this file); false runs the per-op bookkeeping and stack checks.
  bool block_mode = false;

  // Stack errors only happen on the per-op path.
  auto stack_err = [&]() {
    return ExecResult{Outcome::kStackError, {}, call.gas - gas};
  };
  auto charge = [&](uint64_t amount) {
    if (gas < amount) return false;
    gas -= amount;
    return true;
  };

  // A JUMPI's observer events and guard tracking, given its condition word's
  // instrumentation.
  auto on_branch = [&](uint32_t pc, bool taken, int32_t cmp_id,
                       int32_t call_id, uint32_t taint) {
    if (observer_ != nullptr) {
      BranchEvent ev;
      ev.pc = pc;
      ev.taken = taken;
      ev.cmp_id = cmp_id;
      ev.call_id = call_id;
      ev.cond_taint = taint;
      ev.depth = call.depth;
      observer_->OnBranch(ev);
      if (call_id >= 0) observer_->OnCallResultChecked(call_id);
    }
    if (taint & kTaintCaller) caller_guard_seen = true;
  };

  // Executing a frame brings the callee account into existence (journaled).
  state_->Touch(call.to);

// Leaves block mode before the block's end: gives back the block's charge
// for the instructions after `ins`, which then run on the per-op path. A
// macro and a by-value call, not a lambda capturing `gas` and `ins` by
// reference: GCC keeps such a lambda out of line, which pins both counters
// to the stack frame for the whole loop.
#define GIVE_BACK()                                \
  do {                                             \
    if (block_mode) {                              \
      block_mode = false;                          \
      const BlockCharge rest = ChargeAfter(ins);   \
      gas += rest.gas;                             \
      steps_ -= rest.length;                       \
      instructions_ -= rest.length;                \
    }                                              \
  } while (0)

// Every halt but a block's normal end goes through these two.
#define HALT(outcome)                                   \
  do {                                                  \
    GIVE_BACK();                                        \
    return ExecResult{(outcome), {}, call.gas - gas};   \
  } while (0)
#define OUT_OF_GAS()                                         \
  do {                                                       \
    GIVE_BACK();                                             \
    return ExecResult{Outcome::kOutOfGas, {}, call.gas};     \
  } while (0)

// Per-original-instruction bookkeeping on the per-op path, in the byte
// loop's exact order.
#define STEP(pc_, opcode_, gas_)                                          \
  do {                                                                    \
    if (++steps_ > config_.max_steps) {                                   \
      return ExecResult{Outcome::kStepLimit, {}, call.gas - gas};         \
    }                                                                     \
    ++instructions_;                                                      \
    if (step_observer_ != nullptr) {                                      \
      step_observer_->OnStep((pc_), (opcode_), call.depth);               \
    }                                                                     \
    if (gas < (gas_)) return ExecResult{Outcome::kOutOfGas, {}, call.gas}; \
    gas -= (gas_);                                                        \
  } while (0)

// Handler prologue for unfused instructions.
#define PRELUDE()                                             \
  do {                                                        \
    if (!block_mode) {                                        \
      STEP(ins->pc, ins->opcode, ins->gas);                   \
      if (stack.size() < static_cast<size_t>(ins->inputs)) {  \
        return stack_err();                                   \
      }                                                       \
    }                                                         \
  } while (0)

// Push that replicates the byte loop's overflow handling on the per-op path
// and skips it in block mode, where the block check proved it cannot fail.
#define PUSH_W(w)                                   \
  do {                                              \
    if (!block_mode) {                              \
      if (!stack.Push(w)) return stack_err();       \
    } else {                                        \
      stack.PushUnsafe(w);                          \
    }                                               \
  } while (0)

#ifdef MUFUZZ_THREADED_DISPATCH
#define HANDLER(name) lbl_##name:
#define DISPATCH() goto* kDispatchTable[static_cast<int>(ins->ir)]
#define MUFUZZ_LABEL_ENTRY(name) &&lbl_##name,
  static const void* const kDispatchTable[] = {
      MUFUZZ_IR_OPS(MUFUZZ_LABEL_ENTRY)};
  static_assert(true, "");  // require a trailing semicolon above
  DISPATCH();
#else
#define HANDLER(name) case IrOp::k##name:
#define DISPATCH() goto dispatch_top
dispatch_top:
  switch (ins->ir) {
#endif

// Every handler ends in DISPATCH() (or NEXT(), which advances first) or
// returns, so control never falls through between handlers in either
// dispatch flavor.
#define NEXT()   \
  do {           \
    ++ins;       \
    DISPATCH();  \
  } while (0)

// End of a fused JUMPI: jump to the decode-time target or fall through.
#define FUSED_JUMPI_TAIL(taken)                                   \
  do {                                                            \
    if (taken) {                                                  \
      if (ins->jump_target < 0) HALT(Outcome::kBadJump);   \
      ins = insns + ins->jump_target;                             \
      DISPATCH();                                                 \
    }                                                             \
    NEXT();                                                       \
  } while (0)

  HANDLER(BlockCheck) {
    // The whole block is provably free of stack errors iff the entry height
    // covers the deepest pop and the peak growth stays under the cap; it
    // cannot run out of static gas or steps iff the budgets cover it all.
    // (steps_ + length cannot wrap: length < 2^32 and steps_ counts steps.)
    const size_t height = stack.size();
    block_mode = height >= ins->block_need &&
                 height + ins->block_peak <= Stack::kMaxDepth &&
                 step_observer_ == nullptr && gas >= ins->BlockGas() &&
                 steps_ + ins->BlockLength() <= config_.max_steps;
    if (block_mode) {
      gas -= ins->BlockGas();
      steps_ += ins->BlockLength();
      instructions_ += ins->BlockLength();
    }
    NEXT();
  }

  HANDLER(Stop) {
    PRELUDE();
    return ExecResult{Outcome::kSuccess, {}, call.gas - gas};
  }

  HANDLER(Arith) {
    PRELUDE();
    Word x = stack.PopUnsafe();
    Word y = stack.PopUnsafe();
    U256 r;
    bool overflow = false;
    switch (static_cast<Op>(ins->opcode)) {
      case Op::kAdd:
        r = x.value + y.value;
        overflow = U256::AddOverflows(x.value, y.value);
        break;
      case Op::kMul:
        r = x.value * y.value;
        overflow = U256::MulOverflows(x.value, y.value);
        break;
      case Op::kSub:
        r = x.value - y.value;
        overflow = U256::SubUnderflows(x.value, y.value);
        break;
      case Op::kDiv:
        r = x.value / y.value;
        break;
      case Op::kSdiv:
        r = x.value.Sdiv(y.value);
        break;
      case Op::kMod:
        r = x.value % y.value;
        break;
      case Op::kSmod:
        r = x.value.Smod(y.value);
        break;
      case Op::kExp:
        r = x.value.Exp(y.value);
        break;
      case Op::kSignextend:
        r = y.value.SignExtend(x.value);
        break;
      default:
        break;
    }
    if (overflow && observer_ != nullptr) {
      observer_->OnOverflow({ins->pc, static_cast<Op>(ins->opcode),
                             x.taint | y.taint, call.depth});
    }
    PUSH_W(Word(r, x.taint | y.taint));
    NEXT();
  }

  HANDLER(AddmodMulmod) {
    PRELUDE();
    Word x = stack.PopUnsafe();
    Word y = stack.PopUnsafe();
    Word m = stack.PopUnsafe();
    U256 r = (static_cast<Op>(ins->opcode) == Op::kAddmod)
                 ? U256::AddMod(x.value, y.value, m.value)
                 : U256::MulMod(x.value, y.value, m.value);
    PUSH_W(Word(r, x.taint | y.taint | m.taint));
    NEXT();
  }

  HANDLER(Cmp) {
    PRELUDE();
    Word x = stack.PopUnsafe();
    Word y = stack.PopUnsafe();
    CmpOp cmp_op;
    const bool truth = Compare(ins->opcode, x.value, y.value, &cmp_op);
    Word result(truth ? U256::One() : U256::Zero(), x.taint | y.taint);
    result.cmp_id = static_cast<int32_t>(cmp_records_.size());
    cmp_records_.push_back(
        {cmp_op, x.value, y.value, false, x.taint | y.taint});
    result.call_id = (x.call_id >= 0) ? x.call_id : y.call_id;
    PUSH_W(result);
    NEXT();
  }

  HANDLER(Iszero) {
    PRELUDE();
    Word x = stack.PopUnsafe();
    Word result(x.value.IsZero() ? U256::One() : U256::Zero(), x.taint);
    result.cmp_id = RecordIszero(&cmp_records_, x);
    result.call_id = x.call_id;
    PUSH_W(result);
    NEXT();
  }

  HANDLER(Bitwise) {
    PRELUDE();
    Word x = stack.PopUnsafe();
    Word y = stack.PopUnsafe();
    U256 r;
    const Op op = static_cast<Op>(ins->opcode);
    if (op == Op::kAnd) r = x.value & y.value;
    if (op == Op::kOr) r = x.value | y.value;
    if (op == Op::kXor) r = x.value ^ y.value;
    Word result(r, x.taint | y.taint);
    result.call_id = (x.call_id >= 0) ? x.call_id : y.call_id;
    PUSH_W(result);
    NEXT();
  }

  HANDLER(Not) {
    PRELUDE();
    Word x = stack.PopUnsafe();
    PUSH_W(Word(~x.value, x.taint));
    NEXT();
  }

  HANDLER(Byte) {
    PRELUDE();
    Word i = stack.PopUnsafe();
    Word x = stack.PopUnsafe();
    PUSH_W(Word(x.value.Byte(i.value), x.taint | i.taint));
    NEXT();
  }

  HANDLER(Shift) {
    PRELUDE();
    Word shift = stack.PopUnsafe();
    Word x = stack.PopUnsafe();
    unsigned n = shift.value.FitsU64() && shift.value.low64() < 256
                     ? static_cast<unsigned>(shift.value.low64())
                     : 256;
    U256 r;
    const Op op = static_cast<Op>(ins->opcode);
    if (op == Op::kShl) r = x.value << n;
    if (op == Op::kShr) r = x.value >> n;
    if (op == Op::kSar) r = x.value.Sar(n);
    PUSH_W(Word(r, x.taint | shift.taint));
    NEXT();
  }

  HANDLER(Keccak) {
    PRELUDE();
    Word off = stack.PopUnsafe();
    Word len = stack.PopUnsafe();
    if (!off.value.FitsU64() || !len.value.FitsU64()) {
      HALT(Outcome::kMemoryError);
    }
    uint64_t offset = off.value.low64();
    uint64_t length = len.value.low64();
    const uint64_t word_gas = KeccakWordGas(length);
    // In block mode the rest of the block is charged already: a word charge
    // that fails gives that back and retries on the per-op path.
    if (gas < word_gas) GIVE_BACK();
    if (!charge(word_gas)) OUT_OF_GAS();
    BytesView input;
    if (!memory.ViewOut(offset, length, &input)) {
      HALT(Outcome::kMemoryError);
    }
    PUSH_W(Word(keccak_memo_.Hash(input),
                MemTaintRange(mem_taint, offset, length)));
    NEXT();
  }

  HANDLER(Address) {
    PRELUDE();
    PUSH_W(Word(call.to.ToWord()));
    NEXT();
  }

  HANDLER(Balance) {
    PRELUDE();
    Word a = stack.PopUnsafe();
    Address addr = Address::FromWord(a.value);
    PUSH_W(Word(state_->GetBalance(addr), a.taint | kTaintBalance));
    NEXT();
  }

  HANDLER(Selfbalance) {
    PRELUDE();
    PUSH_W(Word(state_->GetBalance(call.to), kTaintBalance));
    NEXT();
  }

  HANDLER(Origin) {
    PRELUDE();
    PUSH_W(Word(call.origin.ToWord(), kTaintOrigin));
    NEXT();
  }

  HANDLER(Caller) {
    PRELUDE();
    PUSH_W(Word(call.caller.ToWord(), kTaintCaller));
    NEXT();
  }

  HANDLER(Callvalue) {
    PRELUDE();
    PUSH_W(Word(call.value, kTaintCallValue));
    NEXT();
  }

  HANDLER(Calldataload) {
    PRELUDE();
    Word off = stack.PopUnsafe();
    U256 v;
    // Bytes past the end of the calldata read as zero; an offset at or past
    // the end (any offset that does not fit in 64 bits included) reads zero.
    const size_t size = call.data.size();
    if (off.value.FitsU64() && off.value.low64() < size) {
      const uint64_t o = off.value.low64();
      if (size - o >= 32) {
        v = U256::FromBytesBE32(call.data.data() + o);
      } else {
        uint8_t buf[32] = {};
        std::memcpy(buf, call.data.data() + o, size - o);
        v = U256::FromBytesBE32(buf);
      }
    }
    PUSH_W(Word(v, kTaintCalldata | off.taint));
    NEXT();
  }

  HANDLER(Calldatasize) {
    PRELUDE();
    PUSH_W(Word(U256(call.data.size())));
    NEXT();
  }

  HANDLER(Calldatacopy) {
    PRELUDE();
    Word dst = stack.PopUnsafe();
    Word src = stack.PopUnsafe();
    Word len = stack.PopUnsafe();
    if (!dst.value.FitsU64() || !len.value.FitsU64()) {
      HALT(Outcome::kMemoryError);
    }
    uint64_t src_off = src.value.FitsU64() ? src.value.low64() : UINT64_MAX;
    if (!memory.CopyIn(dst.value.low64(), call.data, src_off,
                       len.value.low64())) {
      HALT(Outcome::kMemoryError);
    }
    MemTaintStore(&mem_taint, dst.value.low64(), len.value.low64(),
                  kTaintCalldata);
    NEXT();
  }

  HANDLER(Codesize) {
    PRELUDE();
    PUSH_W(Word(U256(code.size())));
    NEXT();
  }

  HANDLER(Codecopy) {
    PRELUDE();
    Word dst = stack.PopUnsafe();
    Word src = stack.PopUnsafe();
    Word len = stack.PopUnsafe();
    if (!dst.value.FitsU64() || !len.value.FitsU64()) {
      HALT(Outcome::kMemoryError);
    }
    uint64_t src_off = src.value.FitsU64() ? src.value.low64() : UINT64_MAX;
    if (!memory.CopyIn(dst.value.low64(), code, src_off,
                       len.value.low64())) {
      HALT(Outcome::kMemoryError);
    }
    NEXT();
  }

  HANDLER(Gasprice) {
    PRELUDE();
    PUSH_W(Word(U256(1)));
    NEXT();
  }

  HANDLER(Returndatasize) {
    PRELUDE();
    PUSH_W(Word(U256(return_data.size())));
    NEXT();
  }

  HANDLER(Returndatacopy) {
    PRELUDE();
    Word dst = stack.PopUnsafe();
    Word src = stack.PopUnsafe();
    Word len = stack.PopUnsafe();
    if (!dst.value.FitsU64() || !len.value.FitsU64()) {
      HALT(Outcome::kMemoryError);
    }
    // EIP-211: reading past the end of the return data halts, even a
    // zero-length read.
    if (!ReturnDataInBounds(src.value, len.value.low64(),
                            return_data.size())) {
      HALT(Outcome::kMemoryError);
    }
    if (!memory.CopyIn(dst.value.low64(), return_data, src.value.low64(),
                       len.value.low64())) {
      HALT(Outcome::kMemoryError);
    }
    NEXT();
  }

  HANDLER(Blockhash) {
    PRELUDE();
    Word n = stack.PopUnsafe();
    auto digest = Keccak256(BlockhashSeed(n.value.low64()));
    PUSH_W(Word(U256::FromBytesBE32(digest.data()), kTaintBlock));
    NEXT();
  }

  HANDLER(BlockRead) {
    PRELUDE();
    U256 v;
    switch (static_cast<Op>(ins->opcode)) {
      case Op::kCoinbase:
        v = block_.coinbase.ToWord();
        break;
      case Op::kTimestamp:
        v = U256(block_.timestamp);
        break;
      case Op::kNumber:
        v = U256(block_.number);
        break;
      case Op::kDifficulty:
        v = block_.difficulty;
        break;
      case Op::kGaslimit:
        v = U256(block_.gas_limit);
        break;
      default:
        break;
    }
    PUSH_W(Word(v, kTaintBlock));
    NEXT();
  }

  HANDLER(Pop) {
    PRELUDE();
    (void)stack.PopUnsafe();
    NEXT();
  }

  HANDLER(Mload) {
    PRELUDE();
    Word off = stack.PopUnsafe();
    if (!off.value.FitsU64()) {
      HALT(Outcome::kMemoryError);
    }
    U256 v;
    if (!memory.Load32(off.value.low64(), &v)) {
      HALT(Outcome::kMemoryError);
    }
    MemTaintMap::Tag tag = MemTagLoad(mem_taint, off.value.low64());
    Word loaded(v, tag.taint);
    loaded.call_id = tag.call_id;
    PUSH_W(loaded);
    NEXT();
  }

  HANDLER(Mstore) {
    PRELUDE();
    Word off = stack.PopUnsafe();
    Word val = stack.PopUnsafe();
    if (!off.value.FitsU64() ||
        !memory.Store32(off.value.low64(), val.value)) {
      HALT(Outcome::kMemoryError);
    }
    MemTaintStore(&mem_taint, off.value.low64(), 32, val.taint, val.call_id);
    NEXT();
  }

  HANDLER(Mstore8) {
    PRELUDE();
    Word off = stack.PopUnsafe();
    Word val = stack.PopUnsafe();
    if (!off.value.FitsU64() ||
        !memory.Store8(off.value.low64(),
                       static_cast<uint8_t>(val.value.low64() & 0xff))) {
      HALT(Outcome::kMemoryError);
    }
    MemTaintStore(&mem_taint, off.value.low64(), 1, val.taint);
    NEXT();
  }

  HANDLER(Sload) {
    PRELUDE();
    Word key = stack.PopUnsafe();
    // One account probe for value + taint (Touch pinned the account).
    const Account* acct = state_->Find(call.to);
    U256 v = acct ? acct->storage.Load(key.value) : U256::Zero();
    uint32_t t =
        kTaintStorage | (acct ? acct->storage.LoadTaint(key.value) : 0);
    PUSH_W(Word(v, t));
    NEXT();
  }

  HANDLER(Sstore) {
    PRELUDE();
    if (call.is_static) {
      HALT(Outcome::kStaticViolation);
    }
    Word key = stack.PopUnsafe();
    Word val = stack.PopUnsafe();
    state_->SetStorage(call.to, key.value, val.value, val.taint);
    NEXT();
  }

  HANDLER(Jump) {
    PRELUDE();
    Word dest = stack.PopUnsafe();
    const uint64_t d = dest.value.low64();
    if (!dest.value.FitsU64() || d >= code.size() || pc_to_insn[d] < 0) {
      HALT(Outcome::kBadJump);
    }
    ins = insns + pc_to_insn[d];
    DISPATCH();
  }

  HANDLER(Jumpi) {
    PRELUDE();
    Word dest = stack.PopUnsafe();
    Word cond = stack.PopUnsafe();
    bool taken = !cond.value.IsZero();
    on_branch(ins->pc, taken, cond.cmp_id, cond.call_id, cond.taint);
    if (taken) {
      const uint64_t d = dest.value.low64();
      if (!dest.value.FitsU64() || d >= code.size() || pc_to_insn[d] < 0) {
        HALT(Outcome::kBadJump);
      }
      ins = insns + pc_to_insn[d];
      DISPATCH();
    }
    NEXT();
  }

  HANDLER(Pc) {
    PRELUDE();
    PUSH_W(Word(U256(ins->pc)));
    NEXT();
  }

  HANDLER(Msize) {
    PRELUDE();
    PUSH_W(Word(U256(memory.SizeWords() * 32)));
    NEXT();
  }

  HANDLER(Gas) {
    PRELUDE();
    PUSH_W(Word(U256(gas)));
    NEXT();
  }

  HANDLER(Jumpdest) {
    PRELUDE();
    NEXT();
  }

  HANDLER(ReturnRevert) {
    PRELUDE();
    Word off = stack.PopUnsafe();
    Word len = stack.PopUnsafe();
    Bytes out;
    if (off.value.FitsU64() && len.value.FitsU64()) {
      if (!memory.CopyOut(off.value.low64(), len.value.low64(), &out)) {
        HALT(Outcome::kMemoryError);
      }
    }
    return ExecResult{static_cast<Op>(ins->opcode) == Op::kReturn
                          ? Outcome::kSuccess
                          : Outcome::kRevert,
                      std::move(out), call.gas - gas};
  }

  HANDLER(Invalid) {
    PRELUDE();
    return ExecResult{Outcome::kInvalidOp, {}, call.gas};
  }

  HANDLER(Selfdestruct) {
    PRELUDE();
    if (call.is_static) {
      HALT(Outcome::kStaticViolation);
    }
    Word beneficiary = stack.PopUnsafe();
    Address to = Address::FromWord(beneficiary.value);
    U256 balance = state_->GetBalance(call.to);
    state_->SetBalance(call.to, U256::Zero());
    state_->MarkSelfDestructed(call.to);
    // Read `to` after zeroing the self balance so to == self nets right.
    state_->SetBalance(to, state_->GetBalance(to) + balance);
    if (observer_ != nullptr) {
      observer_->OnSelfdestruct(
          {ins->pc, to, caller_guard_seen, call.depth});
    }
    return ExecResult{Outcome::kSuccess, {}, call.gas - gas};
  }

  HANDLER(Create) {
    PRELUDE();
    // Contract creation from within contracts is out of scope for the
    // MiniSol corpus; treat as an invalid operation.
    GIVE_BACK();
    return ExecResult{Outcome::kInvalidOp, {}, call.gas};
  }

  HANDLER(CallFamily) {
    PRELUDE();
    // The handler's locals live in this block so they are destroyed before
    // NEXT(): a computed-goto dispatch leaves the handler without running
    // destructors, which leaked the call buffers.
    Word status;
    {
      const Op op = static_cast<Op>(ins->opcode);
      bool has_value = (op == Op::kCall || op == Op::kCallcode);
      Word gas_w = stack.PopUnsafe();
      Word to_w = stack.PopUnsafe();
      Word value_w;
      if (has_value) value_w = stack.PopUnsafe();
      Word in_off = stack.PopUnsafe();
      Word in_len = stack.PopUnsafe();
      Word out_off = stack.PopUnsafe();
      Word out_len = stack.PopUnsafe();

      if (!in_off.value.FitsU64() || !in_len.value.FitsU64() ||
          !out_off.value.FitsU64() || !out_len.value.FitsU64()) {
        HALT(Outcome::kMemoryError);
      }
      Bytes input;
      if (!memory.CopyOut(in_off.value.low64(), in_len.value.low64(),
                          &input)) {
        HALT(Outcome::kMemoryError);
      }

      Address target = Address::FromWord(to_w.value);
      U256 value = has_value ? value_w.value : U256::Zero();
      if (!value.IsZero()) {
        if (!charge(9000)) OUT_OF_GAS();
      }
      uint64_t gas_requested =
          gas_w.value.FitsU64() ? gas_w.value.low64() : gas;
      uint64_t gas_forwarded = std::min(gas_requested, gas);
      if (!value.IsZero()) gas_forwarded += 2300;  // call stipend

      int32_t call_id = next_call_id_++;
      CallEvent ev;
      ev.pc = ins->pc;
      ev.kind = op;
      ev.target = target;
      ev.value = value;
      ev.gas = gas_forwarded;
      ev.target_taint = to_w.taint;
      ev.value_taint = has_value ? value_w.taint : kTaintNone;
      ev.depth = call.depth;
      ev.call_id = call_id;
      ev.caller_guard_seen = caller_guard_seen;

      bool success = false;
      Bytes child_output;
      const Account* target_acct = state_->Find(target);
      bool target_has_code = target_acct != nullptr &&
                             target_acct->HasCode() &&
                             op != Op::kCallcode;
      ev.to_external = !target_has_code;

      if (call.is_static && !value.IsZero()) {
        success = false;
      } else if (target_has_code) {
        // Nested message call into another in-state contract.
        MessageCall child;
        if (op == Op::kDelegatecall) {
          child.to = call.to;              // keep storage context
          child.code_address = target;     // borrow code
          child.caller = call.caller;
          child.value = call.value;
        } else {
          child.to = target;
          child.code_address = target;
          child.caller = call.to;
          child.value = value;
        }
        child.origin = call.origin;
        child.data = input;
        child.gas = gas_forwarded;
        child.is_static = call.is_static || op == Op::kStaticcall;
        child.depth = call.depth + 1;

        size_t snapshot = state_->Snapshot();
        bool transfer_ok = true;
        if (!value.IsZero() && op == Op::kCall) {
          transfer_ok = state_->Transfer(call.to, target, value);
        }
        if (transfer_ok) {
          ExecResult child_result = RunFrame(child);
          uint64_t used = std::min(child_result.gas_used, gas);
          gas -= used;
          success = child_result.Success();
          child_output = std::move(child_result.output);
          if (success) {
            state_->Commit(snapshot);
          } else {
            state_->RevertTo(snapshot);
          }
        } else {
          state_->RevertTo(snapshot);
          success = false;
        }
      } else {
        // External (code-less) target: host decides; value moves first.
        bool transfer_ok = true;
        if (!value.IsZero()) {
          transfer_ok = state_->Transfer(call.to, target, value);
        }
        if (transfer_ok) {
          ExternalCallRequest req;
          req.caller = call.to;
          req.target = target;
          req.value = value;
          req.data = input;
          req.gas = gas_forwarded;
          req.kind = op;
          req.depth = call.depth;
          ++host_calls_;
          ExternalCallOutcome outcome = host_->OnExternalCall(req, this);
          success = outcome.success;
          child_output = std::move(outcome.return_data);
          if (!success && !value.IsZero()) {
            // Failed call returns the value.
            state_->Transfer(target, call.to, value);
          }
        } else {
          success = false;
        }
      }

      ev.success = success;
      if (observer_ != nullptr) observer_->OnCall(ev);

      return_data = child_output;
      uint64_t copy_len =
          std::min<uint64_t>(out_len.value.low64(), child_output.size());
      if (copy_len > 0) {
        if (!memory.CopyIn(out_off.value.low64(), child_output, 0,
                           copy_len)) {
          HALT(Outcome::kMemoryError);
        }
      }
      status = Word(success ? U256::One() : U256::Zero(), kTaintCallResult);
      status.call_id = call_id;
    }
    PUSH_W(status);
    NEXT();
  }

  HANDLER(Push) {
    PRELUDE();
    PUSH_W(Word(ins->immediate));
    NEXT();
  }

  HANDLER(Dup) {
    PRELUDE();
    int n = DupDepth(ins->opcode);
    if (!block_mode) {
      if (!stack.Dup(n)) return stack_err();
    } else {
      stack.PushUnsafe(Word(stack.TopUnsafe(n - 1)));
    }
    NEXT();
  }

  HANDLER(Swap) {
    PRELUDE();
    int n = SwapDepth(ins->opcode);
    if (!block_mode) {
      if (!stack.Swap(n)) return stack_err();
    } else {
      stack.SwapUnsafe(n);
    }
    NEXT();
  }

  HANDLER(Log) {
    PRELUDE();
    (void)stack.PopUnsafe();
    (void)stack.PopUnsafe();
    for (int i = 0; i < LogTopics(ins->opcode); ++i) {
      (void)stack.PopUnsafe();
    }
    NEXT();
  }

  HANDLER(Undefined) {
    // The byte path bails before OnStep and the gas charge — but after the
    // step-limit bump.
    if (++steps_ > config_.max_steps) {
      HALT(Outcome::kStepLimit);
    }
    return ExecResult{Outcome::kInvalidOp, {}, call.gas};
  }

  HANDLER(PushJump) {
    // PUSH component. The pushed word is consumed by the JUMP immediately,
    // so it never materializes — but the overflow the byte path would hit
    // must still be reported on the per-op path.
    if (!block_mode) {
      STEP(ins->pc, ins->opcode, ins->gas);
      if (stack.size() >= Stack::kMaxDepth) return stack_err();
      // JUMP component (its arity is satisfied by the virtual push).
      STEP(ins->pc2, ins->opcode2, ins->gas2);
    }
    if (ins->jump_target < 0) HALT(Outcome::kBadJump);
    ins = insns + ins->jump_target;
    DISPATCH();
  }

  HANDLER(PushJumpi) {
    if (!block_mode) {
      // PUSH dest component.
      STEP(ins->pc, ins->opcode, ins->gas);
      if (stack.size() >= Stack::kMaxDepth) return stack_err();
      // JUMPI component: needs the condition under the virtual dest.
      STEP(ins->pc2, ins->opcode2, ins->gas2);
      if (stack.size() < 1) return stack_err();
    }
    Word cond = stack.PopUnsafe();
    bool taken = !cond.value.IsZero();
    on_branch(ins->pc2, taken, cond.cmp_id, cond.call_id, cond.taint);
    FUSED_JUMPI_TAIL(taken);
  }

  HANDLER(DupSload) {
    // DUPn component: the duplicated key never round-trips through the
    // stack; it is read in place below.
    const int n = DupDepth(ins->opcode);
    if (!block_mode) {
      STEP(ins->pc, ins->opcode, ins->gas);
      if (stack.size() < static_cast<size_t>(n)) return stack_err();
      if (stack.size() >= Stack::kMaxDepth) return stack_err();
      // SLOAD component (arity satisfied by the virtual dup).
      STEP(ins->pc2, ins->opcode2, ins->gas2);
    }
    U256 key = stack.TopUnsafe(n - 1).value;  // SLOAD discards the key taint
    const Account* acct = state_->Find(call.to);
    U256 v = acct ? acct->storage.Load(key) : U256::Zero();
    uint32_t t = kTaintStorage | (acct ? acct->storage.LoadTaint(key) : 0);
    // Net effect of DUP + SLOAD is one push; the byte path's SLOAD push can
    // never overflow after the dup succeeded, so the unchecked push is
    // exact on both paths.
    stack.PushUnsafe(Word(v, t));
    NEXT();
  }

  HANDLER(PushPushArith) {
    if (!block_mode) {
      // PUSH a component.
      STEP(ins->pc, ins->opcode, ins->gas);
      if (stack.size() >= Stack::kMaxDepth) return stack_err();
      // PUSH b component: the byte path pushes a first, so its overflow
      // threshold is one lower.
      STEP(ins->pc2, ins->opcode2, ins->gas2);
      if (stack.size() + 1 >= Stack::kMaxDepth) return stack_err();
      // Folded arithmetic component (arity satisfied by the virtual pushes).
      STEP(ins->pc3, ins->opcode3, ins->gas3);
    }
    if (ins->folded_overflow && observer_ != nullptr) {
      observer_->OnOverflow({ins->pc3, static_cast<Op>(ins->opcode3),
                             kTaintNone, call.depth});
    }
    PUSH_W(Word(ins->immediate));
    NEXT();
  }

  // The fused compare-and-branch shapes below never materialize the
  // comparison result or the pushed label: the operands are read in place
  // and the net stack effect is applied once. On the per-op path every
  // component still gets its own bookkeeping and the stack error the byte
  // loop would raise at that component.

  HANDLER(DispatchJumpi) {
    // DUP1 component: the selector stays where it is.
    const uint32_t n = static_cast<uint32_t>(PushSize(ins->opcode2));
    const uint32_t eq_pc = ins->pc + 2 + n;
    if (!block_mode) {
      STEP(ins->pc, ins->opcode, ins->gas);
      if (stack.size() < 1 || stack.size() >= Stack::kMaxDepth) {
        return stack_err();
      }
      // PUSHn s component: it would land above the duplicate.
      STEP(ins->pc + 1, ins->opcode2, ins->gas2);
      if (stack.size() + 1 >= Stack::kMaxDepth) return stack_err();
      // EQ component: x = s (untainted, no call id), y = the duplicate.
      STEP(eq_pc, static_cast<uint8_t>(Op::kEq), kEqGas);
    }
    const Word& sel = stack.TopUnsafe();
    const bool taken = sel.value == ins->immediate;
    const int32_t cmp_id = static_cast<int32_t>(cmp_records_.size());
    cmp_records_.push_back(
        {CmpOp::kEq, ins->immediate, sel.value, false, sel.taint});
    const uint32_t jumpi_pc =
        eq_pc + 2 + static_cast<uint32_t>(PushSize(ins->opcode3));
    if (!block_mode) {
      // PUSHm L component: cannot overflow, the EQ freed a slot.
      STEP(eq_pc + 1, ins->opcode3, ins->gas3);
      // JUMPI component.
      STEP(jumpi_pc, static_cast<uint8_t>(Op::kJumpi), kJumpiGas);
    }
    on_branch(jumpi_pc, taken, cmp_id, sel.call_id, sel.taint);
    FUSED_JUMPI_TAIL(taken);
  }

  HANDLER(CmpJumpi) {
    // Compare component.
    if (!block_mode) {
      STEP(ins->pc, ins->opcode, ins->gas);
      if (stack.size() < 2) return stack_err();
    }
    const Word& x = stack.TopUnsafe(0);
    const Word& y = stack.TopUnsafe(1);
    CmpOp cmp_op;
    const bool taken = Compare(ins->opcode, x.value, y.value, &cmp_op);
    const uint32_t taint = x.taint | y.taint;
    const int32_t call_id = x.call_id >= 0 ? x.call_id : y.call_id;
    const int32_t cmp_id = static_cast<int32_t>(cmp_records_.size());
    cmp_records_.push_back({cmp_op, x.value, y.value, false, taint});
    stack.DropUnsafe(2);
    if (!block_mode) {
      // PUSH L component: cannot overflow, the compare freed a slot.
      STEP(ins->pc2, ins->opcode2, ins->gas2);
      // JUMPI component.
      STEP(ins->pc3, ins->opcode3, ins->gas3);
    }
    on_branch(ins->pc3, taken, cmp_id, call_id, taint);
    FUSED_JUMPI_TAIL(taken);
  }

  HANDLER(IszeroJumpi) {
    // ISZERO component: the result would replace x in place.
    if (!block_mode) {
      STEP(ins->pc, ins->opcode, ins->gas);
      if (stack.size() < 1) return stack_err();
    }
    const Word& x = stack.TopUnsafe();
    const bool taken = x.value.IsZero();
    const int32_t cmp_id = RecordIszero(&cmp_records_, x);
    if (!block_mode) {
      // PUSH L component.
      STEP(ins->pc2, ins->opcode2, ins->gas2);
      if (stack.size() >= Stack::kMaxDepth) return stack_err();
      // JUMPI component.
      STEP(ins->pc3, ins->opcode3, ins->gas3);
    }
    on_branch(ins->pc3, taken, cmp_id, x.call_id, x.taint);
    stack.DropUnsafe(1);
    FUSED_JUMPI_TAIL(taken);
  }

  HANDLER(End) {
    // Fell off the end of the code: implicit STOP (no step, no charge).
    return ExecResult{Outcome::kSuccess, {}, call.gas - gas};
  }

#ifndef MUFUZZ_THREADED_DISPATCH
  }
  // Unreachable: every IrOp has a case and every case returns or jumps.
  return ExecResult{Outcome::kSuccess, {}, call.gas - gas};
#endif

#undef FUSED_JUMPI_TAIL
#undef NEXT
#undef DISPATCH
#undef HANDLER
#undef PUSH_W
#undef PRELUDE
#undef STEP
#undef OUT_OF_GAS
#undef HALT
#undef GIVE_BACK
#ifdef MUFUZZ_LABEL_ENTRY
#undef MUFUZZ_LABEL_ENTRY
#endif
}

#undef MUFUZZ_IR_OPS
#undef MUFUZZ_ALWAYS_INLINE

}  // namespace mufuzz::evm
