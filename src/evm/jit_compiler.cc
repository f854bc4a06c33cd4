// Baseline JIT: compiles DecodedCode (evm/code_cache.h) into native x86-64
// subroutine-threaded code. The design keeps the equivalence contract of the
// decoded loop intact (see interpreter_decoded.cc): every per-IrOp helper
// below is a line-for-line transliteration of the corresponding decoded
// handler — same bookkeeping order (step limit, OnStep, gas charge), same
// stack-check placement, same gas accounting on every failure path, same
// observer events carrying original byte pcs. What the emitted code buys is
// the removal of the dispatch indirection: straight-line hot ops (PUSH, POP,
// DUP, SWAP, JUMPDEST, fused PUSH+JUMP, folded PUSH+PUSH+arith) and the
// per-original-instruction bookkeeping are inlined as native code, fused
// static jumps become direct branches, and everything else is a direct call
// to its helper — no dispatch table, no ip bookkeeping on the fast path.
//
// Register model of the emitted function (SysV x86-64):
//   rbx  = JitFrameRaw* (callee-saved, loaded once in the prologue)
//   rax/rcx/rdx/rsi/rdi/r8 + xmm0-5 = scratch
// Helpers are `uint32_t fn(JitFrameRaw*, const DecodedInsn*)` returning a
// control code (continue / static branch / dynamic branch / done). Dynamic
// jumps dispatch through a per-insn native-address table.

#include "evm/jit_compiler.h"

#include <cstddef>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/keccak.h"
#include "evm/code_cache.h"
#include "evm/interpreter.h"
#include "evm/memory.h"
#include "evm/stack.h"
#include "evm/taint.h"

namespace mufuzz::evm {

bool JitAvailable() {
#ifdef MUFUZZ_JIT_SUPPORTED
  return true;
#else
  return false;
#endif
}

// ---------------------------------------------------------------------------
// Frame layout shared with the emitted code.
// ---------------------------------------------------------------------------

namespace {

constexpr uint8_t kOffStack = 0;
constexpr uint8_t kOffSp = 8;
constexpr uint8_t kOffGas = 16;
constexpr uint8_t kOffStepsPtr = 24;
constexpr uint8_t kOffMaxSteps = 32;
constexpr uint8_t kOffObserver = 40;
constexpr uint8_t kOffJumpIp = 48;
constexpr uint8_t kOffChecked = 56;
constexpr uint8_t kOffCallerGuard = 64;
constexpr uint8_t kOffDepth = 72;

static_assert(offsetof(JitFrameRaw, stack) == kOffStack);
static_assert(offsetof(JitFrameRaw, sp) == kOffSp);
static_assert(offsetof(JitFrameRaw, gas) == kOffGas);
static_assert(offsetof(JitFrameRaw, steps_ptr) == kOffStepsPtr);
static_assert(offsetof(JitFrameRaw, max_steps) == kOffMaxSteps);
static_assert(offsetof(JitFrameRaw, observer) == kOffObserver);
static_assert(offsetof(JitFrameRaw, jump_ip) == kOffJumpIp);
static_assert(offsetof(JitFrameRaw, checked) == kOffChecked);
static_assert(offsetof(JitFrameRaw, caller_guard) == kOffCallerGuard);
static_assert(offsetof(JitFrameRaw, depth) == kOffDepth);

// The emitted push/dup/swap sequences bake in the Word layout.
static_assert(sizeof(Word) == 48);
static_assert(offsetof(Word, value) == 0);
static_assert(offsetof(Word, taint) == 32);
static_assert(offsetof(Word, cmp_id) == 36);
static_assert(offsetof(Word, call_id) == 40);

// Helper control codes (eax on return from a helper call).
constexpr uint32_t kCtlNext = 0;     ///< fall through to the next insn
constexpr uint32_t kCtlStatic = 1;   ///< branch to ins->jump_target
constexpr uint32_t kCtlDynamic = 2;  ///< branch to frame->jump_ip
constexpr uint32_t kCtlDone = 3;     ///< frame->result holds the ExecResult

}  // namespace

// ---------------------------------------------------------------------------
// JitExec: the C++ half of a compiled frame. Friend of Interpreter.
// ---------------------------------------------------------------------------

/// Full per-frame state. JitFrameRaw must stay the first member: emitted
/// code addresses the raw prefix, helpers recover the full frame from it.
struct JitExec {
  using MemTag = MemTaintMap::Tag;

  struct Frame {
    JitFrameRaw raw;
    Interpreter* it = nullptr;
    const MessageCall* call = nullptr;
    const DecodedCode* decoded = nullptr;
    // Pooled frame state (see FrameArena): the arena this frame checked
    // out, so compiled frames reuse warm containers exactly like both
    // interpreter loops. A pointer (not references) keeps Frame standard
    // layout for the raw-prefix offsetof contract below.
    FrameArena* arena = nullptr;
    ExecResult result;

    Memory& memory() const { return arena->memory; }
    MemTaintMap& mem_taint() const { return arena->mem_taint; }
    Bytes& return_data() const { return arena->return_data; }
  };

  static Frame& F(JitFrameRaw* raw) {
    static_assert(offsetof(Frame, raw) == 0);
    return *reinterpret_cast<Frame*>(raw);
  }
  static Word* Stk(Frame& f) { return static_cast<Word*>(f.raw.stack); }

  // -- Failure results, matching the decoded loop's lambdas exactly. -------
  static uint32_t FailOutOfGas(Frame& f) {
    f.result = ExecResult{Outcome::kOutOfGas, {}, f.call->gas};
    return kCtlDone;
  }
  static uint32_t FailStack(Frame& f) {
    f.result = ExecResult{Outcome::kStackError, {}, f.call->gas - f.raw.gas};
    return kCtlDone;
  }
  static uint32_t FailMem(Frame& f) {
    f.result = ExecResult{Outcome::kMemoryError, {}, f.call->gas - f.raw.gas};
    return kCtlDone;
  }
  static uint32_t FailBadJump(Frame& f) {
    f.result = ExecResult{Outcome::kBadJump, {}, f.call->gas - f.raw.gas};
    return kCtlDone;
  }
  static uint32_t FailStepLimit(Frame& f) {
    f.result = ExecResult{Outcome::kStepLimit, {}, f.call->gas - f.raw.gas};
    return kCtlDone;
  }

  static bool Charge(Frame& f, uint64_t amount) {
    if (f.raw.gas < amount) return false;
    f.raw.gas -= amount;
    return true;
  }

  /// Per-original-instruction bookkeeping in the byte loop's exact order:
  /// step-limit bump/check, OnStep, gas charge. False = f.result is set.
  /// Reads the raw-frame mirrors (steps_ptr/observer/depth) rather than
  /// chasing Interpreter members — helpers run once per op, and the mirrors
  /// are pinned for the frame's lifetime in Run.
  static bool Bookkeep(Frame& f, uint32_t pc, uint8_t opcode, uint16_t gas) {
    if (++*f.raw.steps_ptr > f.raw.max_steps) {
      FailStepLimit(f);
      return false;
    }
    if (f.raw.observer != nullptr) {
      static_cast<ExecObserver*>(f.raw.observer)
          ->OnStep(pc, opcode, f.raw.depth);
    }
    if (!Charge(f, gas)) {
      FailOutOfGas(f);
      return false;
    }
    return true;
  }

  /// Handler prologue for unfused instructions (PRELUDE in the decoded
  /// loop): bookkeeping plus the checked-mode arity test.
  static bool Prelude(Frame& f, const DecodedInsn* ins) {
    if (!Bookkeep(f, ins->pc, ins->opcode, ins->gas)) return false;
    if (f.raw.checked && f.raw.sp < static_cast<uint64_t>(ins->inputs)) {
      FailStack(f);
      return false;
    }
    return true;
  }

  // -- Raw-stack accessors (the Stack class equivalents). -------------------
  static Word PopW(Frame& f) { return Stk(f)[--f.raw.sp]; }
  static const Word& TopW(Frame& f, size_t depth = 0) {
    return Stk(f)[f.raw.sp - 1 - depth];
  }
  /// PUSH_W: checked-mode overflow test, unchecked otherwise.
  static bool PushW(Frame& f, const Word& w) {
    if (f.raw.checked && f.raw.sp >= Stack::kMaxDepth) {
      FailStack(f);
      return false;
    }
    Stk(f)[f.raw.sp++] = w;
    return true;
  }

  // -- Word-granular memory instrumentation (identical to the loops). ------
  static MemTag MemTagLoad(Frame& f, uint64_t offset) {
    MemTag tag;
    const MemTag* found = f.mem_taint().Find(offset / 32);
    if (found != nullptr) tag = *found;
    if (offset % 32 != 0) {
      found = f.mem_taint().Find(offset / 32 + 1);
      if (found != nullptr) {
        tag.taint |= found->taint;
        tag.call_id = -1;  // misaligned: call identity is lost
      }
    }
    return tag;
  }
  static void MemTaintStore(Frame& f, uint64_t offset, uint64_t len,
                            uint32_t taint, int32_t call_id = -1) {
    if (len == 0) return;
    for (uint64_t w = offset / 32; w <= (offset + len - 1) / 32; ++w) {
      if (taint == 0 && call_id < 0) {
        f.mem_taint().Erase(w);
      } else {
        f.mem_taint().Set(w, MemTag{taint, call_id});
      }
    }
  }
  static uint32_t MemTaintRange(Frame& f, uint64_t offset, uint64_t len) {
    uint32_t t = 0;
    if (len == 0) return t;
    for (uint64_t w = offset / 32; w <= (offset + len - 1) / 32; ++w) {
      const MemTag* found = f.mem_taint().Find(w);
      if (found != nullptr) t |= found->taint;
    }
    return t;
  }

  // -- Observer thunks the emitted bookkeeping calls directly. -------------
  static void ThunkOnStep(JitFrameRaw* raw, uint32_t pc, uint32_t opcode) {
    Frame& f = F(raw);
    f.it->observer_->OnStep(pc, static_cast<uint8_t>(opcode),
                            f.call->depth);
  }
  static void ThunkOnJump(JitFrameRaw* raw, uint32_t from, uint32_t to) {
    Frame& f = F(raw);
    f.it->observer_->OnJump(from, to, f.call->depth);
  }
  /// Shared bail target of the emitted step-limit/gas/stack/jump checks.
  static void ThunkFail(JitFrameRaw* raw, uint32_t kind) {
    Frame& f = F(raw);
    switch (kind) {
      case 0:
        FailStepLimit(f);
        break;
      case 1:
        FailOutOfGas(f);
        break;
      case 2:
        FailStack(f);
        break;
      default:
        FailBadJump(f);
        break;
    }
  }

  // -- Per-IrOp helpers: transliterations of interpreter_decoded.cc. -------

  static uint32_t OpStop(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    f.result = ExecResult{Outcome::kSuccess, {}, f.call->gas - f.raw.gas};
    return kCtlDone;
  }

  static uint32_t OpArith(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word x = PopW(f);
    Word y = PopW(f);
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
    if (overflow && f.it->observer_ != nullptr) {
      f.it->observer_->OnOverflow({ins->pc, static_cast<Op>(ins->opcode),
                                   x.taint | y.taint, false,
                                   f.call->depth});
    }
    if (!PushW(f, Word(r, x.taint | y.taint))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpAddmodMulmod(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word x = PopW(f);
    Word y = PopW(f);
    Word m = PopW(f);
    U256 r = (static_cast<Op>(ins->opcode) == Op::kAddmod)
                 ? U256::AddMod(x.value, y.value, m.value)
                 : U256::MulMod(x.value, y.value, m.value);
    if (!PushW(f, Word(r, x.taint | y.taint | m.taint))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpCmp(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word x = PopW(f);
    Word y = PopW(f);
    bool truth = false;
    CmpOp cmp_op = CmpOp::kEq;
    switch (static_cast<Op>(ins->opcode)) {
      case Op::kLt:
        truth = x.value < y.value;
        cmp_op = CmpOp::kLt;
        break;
      case Op::kGt:
        truth = x.value > y.value;
        cmp_op = CmpOp::kGt;
        break;
      case Op::kSlt:
        truth = x.value.Slt(y.value);
        cmp_op = CmpOp::kSlt;
        break;
      case Op::kSgt:
        truth = x.value.Sgt(y.value);
        cmp_op = CmpOp::kSgt;
        break;
      case Op::kEq:
        truth = x.value == y.value;
        cmp_op = CmpOp::kEq;
        break;
      default:
        break;
    }
    Word result(truth ? U256::One() : U256::Zero(), x.taint | y.taint);
    result.cmp_id = static_cast<int32_t>(f.it->cmp_records_.size());
    f.it->cmp_records_.push_back(
        {cmp_op, x.value, y.value, false, x.taint | y.taint});
    result.call_id = (x.call_id >= 0) ? x.call_id : y.call_id;
    if (!PushW(f, result)) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpIszero(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word x = PopW(f);
    Word result(x.value.IsZero() ? U256::One() : U256::Zero(), x.taint);
    if (x.cmp_id >= 0) {
      CmpRecord rec = f.it->cmp_records_[x.cmp_id];
      rec.negated = !rec.negated;
      result.cmp_id = static_cast<int32_t>(f.it->cmp_records_.size());
      f.it->cmp_records_.push_back(rec);
    } else {
      result.cmp_id = static_cast<int32_t>(f.it->cmp_records_.size());
      f.it->cmp_records_.push_back(
          {CmpOp::kIsZero, x.value, U256::Zero(), false, x.taint});
    }
    result.call_id = x.call_id;
    if (!PushW(f, result)) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpBitwise(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word x = PopW(f);
    Word y = PopW(f);
    U256 r;
    const Op op = static_cast<Op>(ins->opcode);
    if (op == Op::kAnd) r = x.value & y.value;
    if (op == Op::kOr) r = x.value | y.value;
    if (op == Op::kXor) r = x.value ^ y.value;
    Word result(r, x.taint | y.taint);
    result.call_id = (x.call_id >= 0) ? x.call_id : y.call_id;
    if (!PushW(f, result)) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpNot(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word x = PopW(f);
    if (!PushW(f, Word(~x.value, x.taint))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpByte(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word i = PopW(f);
    Word x = PopW(f);
    if (!PushW(f, Word(x.value.Byte(i.value), x.taint | i.taint))) {
      return kCtlDone;
    }
    return kCtlNext;
  }

  static uint32_t OpShift(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word shift = PopW(f);
    Word x = PopW(f);
    unsigned n = shift.value.FitsU64() && shift.value.low64() < 256
                     ? static_cast<unsigned>(shift.value.low64())
                     : 256;
    U256 r;
    const Op op = static_cast<Op>(ins->opcode);
    if (op == Op::kShl) r = x.value << n;
    if (op == Op::kShr) r = x.value >> n;
    if (op == Op::kSar) r = x.value.Sar(n);
    if (!PushW(f, Word(r, x.taint | shift.taint))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpKeccak(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word off = PopW(f);
    Word len = PopW(f);
    if (!off.value.FitsU64() || !len.value.FitsU64()) return FailMem(f);
    uint64_t offset = off.value.low64();
    uint64_t length = len.value.low64();
    if (!Charge(f, 6 * ((length + 31) / 32))) return FailOutOfGas(f);
    BytesView input;
    if (!f.memory().ViewOut(offset, length, &input)) return FailMem(f);
    U256 r = f.it->keccak_memo_.Hash(input);
    if (!PushW(f, Word(r, MemTaintRange(f, offset, length)))) {
      return kCtlDone;
    }
    return kCtlNext;
  }

  static uint32_t OpAddress(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(f.call->to.ToWord()))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpBalance(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word a = PopW(f);
    Address addr = Address::FromWord(a.value);
    if (f.it->observer_ != nullptr) {
      f.it->observer_->OnBalanceRead({ins->pc, f.call->depth});
    }
    if (!PushW(f, Word(f.it->state_->GetBalance(addr),
                       a.taint | kTaintBalance))) {
      return kCtlDone;
    }
    return kCtlNext;
  }

  static uint32_t OpSelfbalance(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (f.it->observer_ != nullptr) {
      f.it->observer_->OnBalanceRead({ins->pc, f.call->depth});
    }
    if (!PushW(f, Word(f.it->state_->GetBalance(f.call->to),
                       kTaintBalance))) {
      return kCtlDone;
    }
    return kCtlNext;
  }

  static uint32_t OpOrigin(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(f.call->origin.ToWord(), kTaintOrigin))) {
      return kCtlDone;
    }
    return kCtlNext;
  }

  static uint32_t OpCaller(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(f.call->caller.ToWord(), kTaintCaller))) {
      return kCtlDone;
    }
    return kCtlNext;
  }

  static uint32_t OpCallvalue(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(f.call->value, kTaintCallValue))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpCalldataload(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word off = PopW(f);
    U256 v;
    if (off.value.FitsU64()) {
      uint64_t o = off.value.low64();
      uint8_t buf[32];
      for (int i = 0; i < 32; ++i) {
        buf[i] = (o + i < f.call->data.size()) ? f.call->data[o + i] : 0;
      }
      v = U256::FromBytesBE(BytesView(buf, 32)).value();
    }
    if (!PushW(f, Word(v, kTaintCalldata | off.taint))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpCalldatasize(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(U256(f.call->data.size())))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpCalldatacopy(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word dst = PopW(f);
    Word src = PopW(f);
    Word len = PopW(f);
    if (!dst.value.FitsU64() || !len.value.FitsU64()) return FailMem(f);
    uint64_t src_off = src.value.FitsU64() ? src.value.low64() : UINT64_MAX;
    if (!f.memory().CopyIn(dst.value.low64(), f.call->data, src_off,
                         len.value.low64())) {
      return FailMem(f);
    }
    MemTaintStore(f, dst.value.low64(), len.value.low64(), kTaintCalldata);
    return kCtlNext;
  }

  static uint32_t OpCodesize(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(U256(f.decoded->code.size())))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpCodecopy(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word dst = PopW(f);
    Word src = PopW(f);
    Word len = PopW(f);
    if (!dst.value.FitsU64() || !len.value.FitsU64()) return FailMem(f);
    uint64_t src_off = src.value.FitsU64() ? src.value.low64() : UINT64_MAX;
    if (!f.memory().CopyIn(dst.value.low64(), f.decoded->code, src_off,
                         len.value.low64())) {
      return FailMem(f);
    }
    return kCtlNext;
  }

  static uint32_t OpGasprice(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(U256(1)))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpReturndatasize(JitFrameRaw* raw,
                                   const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(U256(f.return_data().size())))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpReturndatacopy(JitFrameRaw* raw,
                                   const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word dst = PopW(f);
    Word src = PopW(f);
    Word len = PopW(f);
    if (!dst.value.FitsU64() || !len.value.FitsU64()) return FailMem(f);
    uint64_t src_off = src.value.FitsU64() ? src.value.low64() : UINT64_MAX;
    if (!f.memory().CopyIn(dst.value.low64(), f.return_data(), src_off,
                         len.value.low64())) {
      return FailMem(f);
    }
    return kCtlNext;
  }

  static uint32_t OpBlockhash(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word n = PopW(f);
    auto digest = Keccak256(BlockhashSeed(n.value.low64()));
    if (f.it->observer_ != nullptr) {
      f.it->observer_->OnBlockRead(
          {ins->pc, static_cast<Op>(ins->opcode), f.call->depth});
    }
    if (!PushW(f,
               Word(U256::FromBytesBE(BytesView(digest.data(), 32)).value(),
                    kTaintBlock))) {
      return kCtlDone;
    }
    return kCtlNext;
  }

  static uint32_t OpBlockRead(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    const BlockContext& block = f.it->block_;
    U256 v;
    switch (static_cast<Op>(ins->opcode)) {
      case Op::kCoinbase:
        v = block.coinbase.ToWord();
        break;
      case Op::kTimestamp:
        v = U256(block.timestamp);
        break;
      case Op::kNumber:
        v = U256(block.number);
        break;
      case Op::kDifficulty:
        v = block.difficulty;
        break;
      case Op::kGaslimit:
        v = U256(block.gas_limit);
        break;
      default:
        break;
    }
    if (f.it->observer_ != nullptr) {
      f.it->observer_->OnBlockRead(
          {ins->pc, static_cast<Op>(ins->opcode), f.call->depth});
    }
    if (!PushW(f, Word(v, kTaintBlock))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpPop(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    (void)PopW(f);
    return kCtlNext;
  }

  static uint32_t OpMload(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word off = PopW(f);
    if (!off.value.FitsU64()) return FailMem(f);
    U256 v;
    if (!f.memory().Load32(off.value.low64(), &v)) return FailMem(f);
    MemTag tag = MemTagLoad(f, off.value.low64());
    Word loaded(v, tag.taint);
    loaded.call_id = tag.call_id;
    if (!PushW(f, loaded)) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpMstore(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word off = PopW(f);
    Word val = PopW(f);
    if (!off.value.FitsU64() ||
        !f.memory().Store32(off.value.low64(), val.value)) {
      return FailMem(f);
    }
    MemTaintStore(f, off.value.low64(), 32, val.taint, val.call_id);
    return kCtlNext;
  }

  static uint32_t OpMstore8(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word off = PopW(f);
    Word val = PopW(f);
    if (!off.value.FitsU64() ||
        !f.memory().Store8(off.value.low64(),
                         static_cast<uint8_t>(val.value.low64() & 0xff))) {
      return FailMem(f);
    }
    MemTaintStore(f, off.value.low64(), 1, val.taint);
    return kCtlNext;
  }

  static uint32_t OpSload(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word key = PopW(f);
    const Account* acct = f.it->state_->Find(f.call->to);
    U256 v = acct ? acct->storage.Load(key.value) : U256::Zero();
    uint32_t t =
        kTaintStorage | (acct ? acct->storage.LoadTaint(key.value) : 0);
    if (!PushW(f, Word(v, t))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpSstore(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (f.call->is_static) {
      f.result = ExecResult{Outcome::kStaticViolation, {},
                            f.call->gas - f.raw.gas};
      return kCtlDone;
    }
    Word key = PopW(f);
    Word val = PopW(f);
    f.it->state_->SetStorage(f.call->to, key.value, val.value, val.taint);
    if (f.it->observer_ != nullptr) {
      f.it->observer_->OnStore(
          {ins->pc, key.value, val.value, val.taint, f.call->depth});
    }
    return kCtlNext;
  }

  static uint32_t OpJump(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word dest = PopW(f);
    // Same truncation quirk as the byte path: FitsU64, then the low 64 bits
    // truncated to uint32 before validation.
    uint32_t d32 = static_cast<uint32_t>(dest.value.low64());
    if (!dest.value.FitsU64() || d32 >= f.decoded->code.size() ||
        f.decoded->pc_to_insn[d32] < 0) {
      return FailBadJump(f);
    }
    if (f.it->observer_ != nullptr) {
      f.it->observer_->OnJump(ins->pc, d32, f.call->depth);
    }
    f.raw.jump_ip = static_cast<uint64_t>(f.decoded->pc_to_insn[d32]);
    return kCtlDynamic;
  }

  static uint32_t OpJumpi(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word dest = PopW(f);
    Word cond = PopW(f);
    bool taken = !cond.value.IsZero();
    if (f.it->observer_ != nullptr) {
      BranchEvent ev;
      ev.pc = ins->pc;
      ev.dest = dest.value.FitsU64()
                    ? static_cast<uint32_t>(dest.value.low64())
                    : 0;
      ev.taken = taken;
      ev.cmp_id = cond.cmp_id;
      ev.call_id = cond.call_id;
      ev.cond_taint = cond.taint;
      ev.depth = f.call->depth;
      f.it->observer_->OnBranch(ev);
      if (cond.call_id >= 0) {
        f.it->observer_->OnCallResultChecked(cond.call_id);
      }
    }
    if (cond.taint & kTaintCaller) f.raw.caller_guard = 1;
    if (taken) {
      uint32_t d32 = static_cast<uint32_t>(dest.value.low64());
      if (!dest.value.FitsU64() || d32 >= f.decoded->code.size() ||
          f.decoded->pc_to_insn[d32] < 0) {
        return FailBadJump(f);
      }
      f.raw.jump_ip = static_cast<uint64_t>(f.decoded->pc_to_insn[d32]);
      return kCtlDynamic;
    }
    return kCtlNext;
  }

  static uint32_t OpPc(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(U256(ins->pc)))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpMsize(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(U256(f.memory().SizeWords() * 32)))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpGas(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(U256(f.raw.gas)))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpJumpdest(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpReturnRevert(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    Word off = PopW(f);
    Word len = PopW(f);
    Bytes out;
    if (off.value.FitsU64() && len.value.FitsU64()) {
      if (!f.memory().CopyOut(off.value.low64(), len.value.low64(), &out)) {
        return FailMem(f);
      }
    }
    f.result = ExecResult{static_cast<Op>(ins->opcode) == Op::kReturn
                              ? Outcome::kSuccess
                              : Outcome::kRevert,
                          std::move(out), f.call->gas - f.raw.gas};
    return kCtlDone;
  }

  static uint32_t OpInvalid(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    f.result = ExecResult{Outcome::kInvalidOp, {}, f.call->gas};
    return kCtlDone;
  }

  static uint32_t OpSelfdestruct(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (f.call->is_static) {
      f.result = ExecResult{Outcome::kStaticViolation, {},
                            f.call->gas - f.raw.gas};
      return kCtlDone;
    }
    Word beneficiary = PopW(f);
    Address to = Address::FromWord(beneficiary.value);
    WorldState* state = f.it->state_;
    U256 balance = state->GetBalance(f.call->to);
    state->SetBalance(f.call->to, U256::Zero());
    state->MarkSelfDestructed(f.call->to);
    // Read `to` after zeroing the self balance so to == self nets right.
    state->SetBalance(to, state->GetBalance(to) + balance);
    if (f.it->observer_ != nullptr) {
      f.it->observer_->OnSelfdestruct(
          {ins->pc, to, f.raw.caller_guard != 0, f.call->depth});
    }
    f.result = ExecResult{Outcome::kSuccess, {}, f.call->gas - f.raw.gas};
    return kCtlDone;
  }

  static uint32_t OpCreate(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    // Contract creation from within contracts is out of scope for the
    // MiniSol corpus; treat as an invalid operation.
    f.result = ExecResult{Outcome::kInvalidOp, {}, f.call->gas};
    return kCtlDone;
  }

  static uint32_t OpCallFamily(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    const MessageCall& call = *f.call;
    Interpreter* it = f.it;
    const Op op = static_cast<Op>(ins->opcode);
    bool has_value = (op == Op::kCall || op == Op::kCallcode);
    Word gas_w = PopW(f);
    Word to_w = PopW(f);
    Word value_w;
    if (has_value) value_w = PopW(f);
    Word in_off = PopW(f);
    Word in_len = PopW(f);
    Word out_off = PopW(f);
    Word out_len = PopW(f);

    if (!in_off.value.FitsU64() || !in_len.value.FitsU64() ||
        !out_off.value.FitsU64() || !out_len.value.FitsU64()) {
      return FailMem(f);
    }
    Bytes input;
    if (!f.memory().CopyOut(in_off.value.low64(), in_len.value.low64(),
                          &input)) {
      return FailMem(f);
    }

    Address target = Address::FromWord(to_w.value);
    U256 value = has_value ? value_w.value : U256::Zero();
    if (!value.IsZero()) {
      if (!Charge(f, 9000)) return FailOutOfGas(f);
    }
    uint64_t gas_requested =
        gas_w.value.FitsU64() ? gas_w.value.low64() : f.raw.gas;
    uint64_t gas_forwarded = std::min(gas_requested, f.raw.gas);
    if (!value.IsZero()) gas_forwarded += 2300;  // call stipend

    int32_t call_id = it->next_call_id_++;
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
    ev.caller_guard_seen = f.raw.caller_guard != 0;

    bool success = false;
    Bytes child_output;
    WorldState* state = it->state_;
    const Account* target_acct = state->Find(target);
    bool target_has_code = target_acct != nullptr &&
                           target_acct->HasCode() && op != Op::kCallcode;
    ev.to_external = !target_has_code;

    if (call.is_static && !value.IsZero()) {
      success = false;
    } else if (target_has_code) {
      // Nested message call into another in-state contract.
      MessageCall child;
      if (op == Op::kDelegatecall) {
        child.to = call.to;           // keep storage context
        child.code_address = target;  // borrow code
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

      size_t snapshot = state->Snapshot();
      bool transfer_ok = true;
      if (!value.IsZero() && op == Op::kCall) {
        transfer_ok = state->Transfer(call.to, target, value);
      }
      if (transfer_ok) {
        ExecResult child_result = it->RunFrame(child);
        uint64_t used = std::min(child_result.gas_used, f.raw.gas);
        f.raw.gas -= used;
        success = child_result.Success();
        child_output = std::move(child_result.output);
        if (success) {
          state->Commit(snapshot);
        } else {
          state->RevertTo(snapshot);
        }
      } else {
        state->RevertTo(snapshot);
        success = false;
      }
    } else {
      // External (code-less) target: host decides; value moves first.
      bool transfer_ok = true;
      if (!value.IsZero()) {
        transfer_ok = state->Transfer(call.to, target, value);
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
        ++it->host_calls_;
        ExternalCallOutcome outcome = it->host_->OnExternalCall(req, it);
        success = outcome.success;
        child_output = std::move(outcome.return_data);
        if (!success && !value.IsZero()) {
          // Failed call returns the value.
          state->Transfer(target, call.to, value);
        }
      } else {
        success = false;
      }
    }

    ev.success = success;
    if (it->observer_ != nullptr) it->observer_->OnCall(ev);

    f.return_data() = child_output;
    uint64_t copy_len =
        std::min<uint64_t>(out_len.value.low64(), child_output.size());
    if (copy_len > 0) {
      if (!f.memory().CopyIn(out_off.value.low64(), child_output, 0,
                           copy_len)) {
        return FailMem(f);
      }
    }
    Word status(success ? U256::One() : U256::Zero(), kTaintCallResult);
    status.call_id = call_id;
    if (!PushW(f, status)) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpPush(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    if (!PushW(f, Word(ins->immediate))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpDup(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    int n = DupDepth(ins->opcode);
    if (f.raw.checked) {
      if (f.raw.sp < static_cast<uint64_t>(n) ||
          f.raw.sp >= Stack::kMaxDepth) {
        return FailStack(f);
      }
    }
    Word copy = TopW(f, n - 1);
    Stk(f)[f.raw.sp++] = copy;
    return kCtlNext;
  }

  static uint32_t OpSwap(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    int n = SwapDepth(ins->opcode);
    if (f.raw.checked &&
        f.raw.sp < static_cast<uint64_t>(n) + 1) {
      return FailStack(f);
    }
    std::swap(Stk(f)[f.raw.sp - 1], Stk(f)[f.raw.sp - 1 - n]);
    return kCtlNext;
  }

  static uint32_t OpLog(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    if (!Prelude(f, ins)) return kCtlDone;
    (void)PopW(f);
    (void)PopW(f);
    for (int i = 0; i < LogTopics(ins->opcode); ++i) {
      (void)PopW(f);
    }
    return kCtlNext;
  }

  static uint32_t OpUndefined(JitFrameRaw* raw, const DecodedInsn* ins) {
    (void)ins;
    Frame& f = F(raw);
    // The byte path bails before OnStep and the gas charge — but after the
    // step-limit bump.
    if (++f.it->steps_ > f.it->config_.max_steps) {
      return FailStepLimit(f);
    }
    f.result = ExecResult{Outcome::kInvalidOp, {}, f.call->gas};
    return kCtlDone;
  }

  static uint32_t OpPushJump(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    // PUSH component: the pushed word is consumed by the JUMP immediately,
    // but the overflow the byte path would hit must still be reported.
    if (!Bookkeep(f, ins->pc, ins->opcode, ins->gas)) return kCtlDone;
    if (f.raw.checked && f.raw.sp >= Stack::kMaxDepth) return FailStack(f);
    // JUMP component (its arity is satisfied by the virtual push).
    if (!Bookkeep(f, ins->pc2, ins->opcode2, ins->gas2)) return kCtlDone;
    if (ins->jump_target < 0) return FailBadJump(f);
    if (f.it->observer_ != nullptr) {
      f.it->observer_->OnJump(ins->pc2,
                              static_cast<uint32_t>(ins->immediate.low64()),
                              f.call->depth);
    }
    return kCtlStatic;
  }

  static uint32_t OpPushJumpi(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    // PUSH dest component.
    if (!Bookkeep(f, ins->pc, ins->opcode, ins->gas)) return kCtlDone;
    if (f.raw.checked && f.raw.sp >= Stack::kMaxDepth) return FailStack(f);
    // JUMPI component: needs the condition under the virtual dest.
    if (!Bookkeep(f, ins->pc2, ins->opcode2, ins->gas2)) return kCtlDone;
    if (f.raw.checked && f.raw.sp < 1) return FailStack(f);
    Word cond = PopW(f);
    bool taken = !cond.value.IsZero();
    if (f.it->observer_ != nullptr) {
      BranchEvent ev;
      ev.pc = ins->pc2;
      ev.dest = ins->immediate.FitsU64()
                    ? static_cast<uint32_t>(ins->immediate.low64())
                    : 0;
      ev.taken = taken;
      ev.cmp_id = cond.cmp_id;
      ev.call_id = cond.call_id;
      ev.cond_taint = cond.taint;
      ev.depth = f.call->depth;
      f.it->observer_->OnBranch(ev);
      if (cond.call_id >= 0) {
        f.it->observer_->OnCallResultChecked(cond.call_id);
      }
    }
    if (cond.taint & kTaintCaller) f.raw.caller_guard = 1;
    if (taken) {
      if (ins->jump_target < 0) return FailBadJump(f);
      return kCtlStatic;
    }
    return kCtlNext;
  }

  /// Observer tail of the inlined kPushJumpi: the emitted fast path has
  /// already run both bookkeeps and both checked stack tests and proven the
  /// observer non-null, so this only pops the condition, reports the branch,
  /// and returns the control code for the native kCtlStatic dispatch.
  static uint32_t PushJumpiTail(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    Word cond = PopW(f);
    bool taken = !cond.value.IsZero();
    BranchEvent ev;
    ev.pc = ins->pc2;
    ev.dest = ins->immediate.FitsU64()
                  ? static_cast<uint32_t>(ins->immediate.low64())
                  : 0;
    ev.taken = taken;
    ev.cmp_id = cond.cmp_id;
    ev.call_id = cond.call_id;
    ev.cond_taint = cond.taint;
    ev.depth = f.call->depth;
    f.it->observer_->OnBranch(ev);
    if (cond.call_id >= 0) {
      f.it->observer_->OnCallResultChecked(cond.call_id);
    }
    if (cond.taint & kTaintCaller) f.raw.caller_guard = 1;
    if (taken) {
      if (ins->jump_target < 0) return FailBadJump(f);
      return kCtlStatic;
    }
    return kCtlNext;
  }

  /// Overflow-event tail of the inlined kArith ADD/SUB: bookkeeping and the
  /// arity check already ran natively and the carry chain proved an
  /// overflow with a live observer, so this redoes the op in full Word form
  /// (pops, event, push — the push cannot fail: two pops preceded it).
  static void ArithTail(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    Word x = PopW(f);
    Word y = PopW(f);
    const Op op = static_cast<Op>(ins->opcode);
    U256 r = op == Op::kAdd ? x.value + y.value : x.value - y.value;
    f.it->observer_->OnOverflow(
        {ins->pc, op, x.taint | y.taint, false, f.call->depth});
    Stk(f)[f.raw.sp++] = Word(r, x.taint | y.taint);
  }

  static uint32_t OpDupSload(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    // DUPn component: the duplicated key never round-trips through the
    // stack; it is read in place below.
    if (!Bookkeep(f, ins->pc, ins->opcode, ins->gas)) return kCtlDone;
    int n = DupDepth(ins->opcode);
    if (f.raw.checked) {
      if (f.raw.sp < static_cast<uint64_t>(n)) return FailStack(f);
      if (f.raw.sp >= Stack::kMaxDepth) return FailStack(f);
    }
    // SLOAD component (arity satisfied by the virtual dup).
    if (!Bookkeep(f, ins->pc2, ins->opcode2, ins->gas2)) return kCtlDone;
    U256 key = TopW(f, n - 1).value;  // SLOAD discards the key taint
    const Account* acct = f.it->state_->Find(f.call->to);
    U256 v = acct ? acct->storage.Load(key) : U256::Zero();
    uint32_t t = kTaintStorage | (acct ? acct->storage.LoadTaint(key) : 0);
    // Net effect of DUP + SLOAD is one push; it can never overflow after
    // the dup check passed (see the decoded handler).
    Stk(f)[f.raw.sp++] = Word(v, t);
    return kCtlNext;
  }

  static uint32_t OpPushPushArith(JitFrameRaw* raw, const DecodedInsn* ins) {
    Frame& f = F(raw);
    // PUSH a component.
    if (!Bookkeep(f, ins->pc, ins->opcode, ins->gas)) return kCtlDone;
    if (f.raw.checked && f.raw.sp >= Stack::kMaxDepth) return FailStack(f);
    // PUSH b component: the byte path pushes a first, so its overflow
    // threshold is one lower.
    if (!Bookkeep(f, ins->pc2, ins->opcode2, ins->gas2)) return kCtlDone;
    if (f.raw.checked && f.raw.sp + 1 >= Stack::kMaxDepth) {
      return FailStack(f);
    }
    // Folded arithmetic component (arity satisfied by the virtual pushes).
    if (!Bookkeep(f, ins->pc3, ins->opcode3, ins->gas3)) return kCtlDone;
    if (ins->folded_overflow && f.it->observer_ != nullptr) {
      f.it->observer_->OnOverflow({ins->pc3, static_cast<Op>(ins->opcode3),
                                   kTaintNone, false, f.call->depth});
    }
    if (!PushW(f, Word(ins->immediate))) return kCtlDone;
    return kCtlNext;
  }

  static uint32_t OpEnd(JitFrameRaw* raw, const DecodedInsn* ins) {
    (void)ins;
    Frame& f = F(raw);
    // Fell off the end of the code: implicit STOP (no step, no charge).
    f.result = ExecResult{Outcome::kSuccess, {}, f.call->gas - f.raw.gas};
    return kCtlDone;
  }

  static ExecResult Run(Interpreter* it, const MessageCall& call,
                        const DecodedCode& decoded,
                        const CompiledCode& compiled);
};

ExecResult JitExec::Run(Interpreter* it, const MessageCall& call,
                        const DecodedCode& decoded,
                        const CompiledCode& compiled) {
  // Executing a frame brings the callee account into existence (journaled),
  // exactly as both interpreter loops do before dispatching.
  it->state_->Touch(call.to);

  // Memory / taint map / return data come from the pooled arena, like both
  // interpreter loops. The operand stack keeps its own uninitialized pool —
  // every slot is written before it is read, and constructing 1024 Words
  // per frame costs more than many whole transactions — indexed by the
  // lease slot (live-frame count), not call.depth: host reentry can put two
  // live frames at the same depth, and they must not share a buffer.
  Interpreter::ArenaLease lease(it);
  const size_t slot = it->arena_top_ - 1;
  if (it->jit_stacks_.size() <= slot) it->jit_stacks_.resize(slot + 1);
  if (it->jit_stacks_[slot] == nullptr) {
    it->jit_stacks_[slot].reset(
        new unsigned char[sizeof(Word) * Stack::kMaxDepth]);
  }
  Frame f;
  f.arena = &lease.arena;
  f.it = it;
  f.call = &call;
  f.decoded = &decoded;
  f.raw.stack = it->jit_stacks_[slot].get();
  f.raw.sp = 0;
  f.raw.gas = call.gas;
  f.raw.steps_ptr = &it->steps_;
  f.raw.max_steps = it->config_.max_steps;
  f.raw.observer = it->observer_;
  f.raw.jump_ip = 0;
  f.raw.checked = 1;
  f.raw.depth = call.depth;

  compiled.entry(&f.raw);
  return f.result;
}

ExecResult Interpreter::RunFrameJit(const MessageCall& call,
                                    const DecodedCode& decoded,
                                    const CompiledCode& compiled) {
  return JitExec::Run(this, call, decoded, compiled);
}

// ---------------------------------------------------------------------------
// The emitter (x86-64 SysV only).
// ---------------------------------------------------------------------------

#ifdef MUFUZZ_JIT_SUPPORTED

namespace {

using HelperFn = uint32_t (*)(JitFrameRaw*, const DecodedInsn*);

template <typename F>
uint64_t FnAddr(F* f) {
  return reinterpret_cast<uint64_t>(reinterpret_cast<void*>(f));
}

/// Itanium-ABI pointer-to-member-function: {ptr, adj}, where a virtual
/// member has ptr = 1 + the byte offset of its vtable slot. Extracting the
/// slot lets the emitted bookkeeping dispatch observer->OnStep with the
/// same load-vtable-and-call sequence the compiled decoded loop uses — no
/// C++ thunk hop on the per-step hot path. The emitter is x86-64 SysV only
/// and every such toolchain speaks this ABI; an unexpected representation
/// (non-virtual, this-adjustment, oversized offset) falls back to the thunk.
struct VtableSlot {
  bool valid = false;
  uint32_t off = 0;  ///< byte offset into the vtable
};

template <typename Pmf>
VtableSlot SlotOf(Pmf pmf) {
  struct Rep {
    uint64_t ptr;
    uint64_t adj;
  };
  static_assert(sizeof(Pmf) == sizeof(Rep));
  Rep rep;
  std::memcpy(&rep, &pmf, sizeof rep);
  VtableSlot slot;
  if ((rep.ptr & 1) != 0 && rep.adj == 0 && rep.ptr - 1 <= 0x7FFFFFFF) {
    slot.valid = true;
    slot.off = static_cast<uint32_t>(rep.ptr - 1);
  }
  return slot;
}

// Condition-code bytes for the 0F 8x jcc rel32 family.
constexpr uint8_t kJb = 0x82;
constexpr uint8_t kJae = 0x83;
constexpr uint8_t kJe = 0x84;
constexpr uint8_t kJne = 0x85;
constexpr uint8_t kJa = 0x87;
// Opcode bytes for the short 7x jcc rel8 family (Emitter::Jcc8Fwd).
constexpr uint8_t kJae8 = 0x73;  // also jnc
constexpr uint8_t kJe8 = 0x74;

class Emitter {
 public:
  enum Stub {
    kStubEpilogue = 0,
    kStubStepLimit,
    kStubOutOfGas,
    kStubStackErr,
    kStubBadJump,
    kStubDynJump,
    kStubCount,
  };

  explicit Emitter(size_t insn_count) : insn_off_(insn_count, 0) {}

  // -- Raw byte plumbing. ---------------------------------------------------
  void B(uint8_t b) { buf_.push_back(b); }
  void Seq(std::initializer_list<uint8_t> bs) {
    buf_.insert(buf_.end(), bs);
  }
  void W32(uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  void W64(uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back((v >> (8 * i)) & 0xff);
  }
  size_t Here() const { return buf_.size(); }

  // -- Branch plumbing. -----------------------------------------------------
  void MarkInsn(size_t index) { insn_off_[index] = Here(); }
  void JmpInsn(size_t index) {
    B(0xE9);
    insn_fixups_.push_back({Here(), index});
    W32(0);
  }
  void JccInsn(uint8_t cc, size_t index) {
    B(0x0F);
    B(cc);
    insn_fixups_.push_back({Here(), index});
    W32(0);
  }
  void JmpStub(Stub s) {
    B(0xE9);
    stub_fixups_.push_back({Here(), s});
    W32(0);
  }
  void JccStub(uint8_t cc, Stub s) {
    B(0x0F);
    B(cc);
    stub_fixups_.push_back({Here(), s});
    W32(0);
  }
  size_t JccFwd(uint8_t cc) {
    B(0x0F);
    B(cc);
    size_t pos = Here();
    W32(0);
    return pos;
  }
  void Bind(size_t pos) { Patch(pos, Here()); }
  /// Short unconditional forward jump; pair with Bind8.
  size_t JmpFwd8() {
    B(0xEB);
    size_t pos = Here();
    B(0);
    return pos;
  }
  void Bind8(size_t pos) {
    buf_[pos] = static_cast<uint8_t>(Here() - (pos + 1));
  }
  void MarkStub(Stub s) { stub_off_[s] = Here(); }

  void Finish() {
    for (const auto& [pos, index] : insn_fixups_) {
      Patch(pos, insn_off_[index]);
    }
    for (const auto& [pos, stub] : stub_fixups_) {
      Patch(pos, stub_off_[stub]);
    }
  }

  // -- Instruction helpers (rbx = JitFrameRaw*). ----------------------------
  void MovRaxFrame(uint8_t off) { Seq({0x48, 0x8B, 0x43, off}); }
  void MovFrameRax(uint8_t off) { Seq({0x48, 0x89, 0x43, off}); }
  void MovRdxFrame(uint8_t off) { Seq({0x48, 0x8B, 0x53, off}); }
  void CmpRaxImm(uint32_t imm) {
    Seq({0x48, 0x3D});
    W32(imm);
  }
  void AddRaxImm(uint32_t imm) {
    Seq({0x48, 0x05});
    W32(imm);
  }
  void SubRaxImm(uint32_t imm) {
    Seq({0x48, 0x2D});
    W32(imm);
  }
  void MovAbsRax(uint64_t v) {
    Seq({0x48, 0xB8});
    W64(v);
  }
  void MovAbsRsi(uint64_t v) {
    Seq({0x48, 0xBE});
    W64(v);
  }
  void MovAbsRcx(uint64_t v) {
    Seq({0x48, 0xB9});
    W64(v);
  }
  void MovAbsR8(uint64_t v) {
    Seq({0x49, 0xB8});
    W64(v);
  }
  void CallRax() { Seq({0xFF, 0xD0}); }
  /// call qword [rax + disp32] (virtual dispatch through a vtable in rax).
  void CallRaxDisp(uint32_t disp) {
    Seq({0xFF, 0x90});
    W32(disp);
  }
  void MovRdiRbx() { Seq({0x48, 0x89, 0xDF}); }
  void MovRdiFrame(uint8_t off) { Seq({0x48, 0x8B, 0x7B, off}); }
  void TestRdiRdi() { Seq({0x48, 0x85, 0xFF}); }
  /// mov ecx, dword [rbx + off].
  void MovEcxFrame(uint8_t off) { Seq({0x8B, 0x4B, off}); }
  /// mov rax, qword [rdi] (load a vtable pointer).
  void MovRaxMemRdi() { Seq({0x48, 0x8B, 0x07}); }
  void MovEsiImm(uint32_t v) {
    B(0xBE);
    W32(v);
  }
  void MovEdxImm(uint32_t v) {
    B(0xBA);
    W32(v);
  }
  void TestRaxRax() { Seq({0x48, 0x85, 0xC0}); }
  void TestEaxEax() { Seq({0x85, 0xC0}); }
  void CmpEaxImm8(uint8_t v) { Seq({0x83, 0xF8, v}); }
  void CmpCheckedZero() { Seq({0x80, 0x7B, kOffChecked, 0x00}); }
  void SetChecked(uint8_t v) { Seq({0xC6, 0x43, kOffChecked, v}); }
  void CmpSpImm32(uint32_t v) {
    Seq({0x48, 0x81, 0x7B, kOffSp});
    W32(v);
  }
  /// sub qword [rbx + off], imm32 (sign-extended; callers pass <= 16 bits).
  void SubFrameImm32(uint8_t off, uint32_t v) {
    Seq({0x48, 0x81, 0x6B, off});
    W32(v);
  }
  void IncSp() { Seq({0x48, 0xFF, 0x43, kOffSp}); }
  void DecSp() { Seq({0x48, 0xFF, 0x4B, kOffSp}); }
  /// rdx = &stack[sp] (rax, rcx clobbered).
  void LoadStackTopRdx() {
    MovRaxFrame(kOffSp);
    MovRdxFrame(kOffStack);
    Seq({0x48, 0x8D, 0x0C, 0x40});  // lea rcx, [rax + rax*2]
    Seq({0x48, 0xC1, 0xE1, 0x04});  // shl rcx, 4
    Seq({0x48, 0x01, 0xCA});        // add rdx, rcx
  }
  /// movups xmmN, [rdx + disp] / movups [rdx + disp], xmmN.
  void MovupsLoad(uint8_t xmm, int32_t disp) {
    Seq({0x0F, 0x10, static_cast<uint8_t>(0x82 | (xmm << 3))});
    W32(static_cast<uint32_t>(disp));
  }
  void MovupsStore(uint8_t xmm, int32_t disp) {
    Seq({0x0F, 0x11, static_cast<uint8_t>(0x82 | (xmm << 3))});
    W32(static_cast<uint32_t>(disp));
  }
  /// mov qword [rdx + disp], r8.
  void MovRdxDispR8(int32_t disp) {
    Seq({0x4C, 0x89, 0x82});
    W32(static_cast<uint32_t>(disp));
  }
  /// mov dword [rdx + disp], imm32.
  void MovRdxDispImm32(int32_t disp, uint32_t imm) {
    Seq({0xC7, 0x82});
    W32(static_cast<uint32_t>(disp));
    W32(imm);
  }
  /// REX.W `op` r(8+n), [rdx + disp8] (n = 0..3 selects r8..r11). `op` is
  /// the two-operand opcode byte: 8B mov-load, 89 mov-store, 03 add,
  /// 13 adc, 2B sub, 1B sbb, 23 and, 0B or, 33 xor. The same ModRM byte
  /// serves both directions — 89 writes the register to memory.
  void RnRdxDisp8(uint8_t op, uint8_t n, int8_t disp) {
    Seq({0x4C, op, static_cast<uint8_t>(0x42 | (n << 3)),
         static_cast<uint8_t>(disp)});
  }
  /// REX.W `op` rax, [rdx + disp8] (same opcode table as RnRdxDisp8).
  void RaxRdxDisp8(uint8_t op, int8_t disp) {
    Seq({0x48, op, 0x42, static_cast<uint8_t>(disp)});
  }
  /// 32-bit `op` eax, [rdx + disp8] (no REX; same opcode table).
  void EaxRdxDisp8(uint8_t op, int8_t disp) {
    Seq({op, 0x42, static_cast<uint8_t>(disp)});
  }
  /// cmovs eax, [rdx + disp8].
  void CmovsEaxRdxDisp8(int8_t disp) {
    Seq({0x0F, 0x48, 0x42, static_cast<uint8_t>(disp)});
  }
  /// mov dword [rdx + disp8], imm32.
  void MovRdxDisp8Imm32(int8_t disp, uint32_t imm) {
    Seq({0xC7, 0x42, static_cast<uint8_t>(disp)});
    W32(imm);
  }
  /// test dword [rdx + disp8], imm32.
  void TestRdxDisp8Imm32(int8_t disp, uint32_t imm) {
    Seq({0xF7, 0x42, static_cast<uint8_t>(disp)});
    W32(imm);
  }
  /// mov qword [rbx + disp8], imm32 (sign-extended).
  void MovFrameImm32(uint8_t off, uint32_t imm) {
    Seq({0x48, 0xC7, 0x43, off});
    W32(imm);
  }
  /// Short forward jcc (rel8, 0x7x opcode byte); pair with Bind8.
  size_t Jcc8Fwd(uint8_t cc8) {
    B(cc8);
    size_t pos = Here();
    B(0);
    return pos;
  }

  const std::vector<uint8_t>& buf() const { return buf_; }
  const std::vector<size_t>& insn_off() const { return insn_off_; }

 private:
  void Patch(size_t pos, size_t target) {
    int64_t rel = static_cast<int64_t>(target) -
                  (static_cast<int64_t>(pos) + 4);
    uint32_t rel32 = static_cast<uint32_t>(static_cast<int32_t>(rel));
    for (int i = 0; i < 4; ++i) buf_[pos + i] = (rel32 >> (8 * i)) & 0xff;
  }

  std::vector<uint8_t> buf_;
  std::vector<size_t> insn_off_;
  std::vector<std::pair<size_t, size_t>> insn_fixups_;
  std::vector<std::pair<size_t, Stub>> stub_fixups_;
  size_t stub_off_[kStubCount] = {};
};

/// Fail-kind codes passed to JitExec::ThunkFail by the shared bail stubs.
constexpr uint32_t kFailStepLimit = 0;
constexpr uint32_t kFailOutOfGas = 1;
constexpr uint32_t kFailStackErr = 2;
constexpr uint32_t kFailBadJump = 3;

/// Emits the per-original-instruction bookkeeping inline: step-limit
/// bump/check, observer OnStep (guarded on a null test), gas charge.
void EmitBookkeep(Emitter& e, uint32_t pc, uint8_t opcode, uint16_t gas) {
  // steps: rax = steps_ptr; rcx = *rax + 1; *rax = rcx; rcx > max ? bail.
  e.MovRaxFrame(kOffStepsPtr);
  e.Seq({0x48, 0x8B, 0x08});        // mov rcx, [rax]
  e.Seq({0x48, 0x83, 0xC1, 0x01});  // add rcx, 1
  e.Seq({0x48, 0x89, 0x08});        // mov [rax], rcx
  e.Seq({0x48, 0x3B, 0x4B, kOffMaxSteps});  // cmp rcx, [rbx + max_steps]
  e.JccStub(kJa, Emitter::kStubStepLimit);
  // observer: null test, then OnStep — a native virtual dispatch when the
  // ABI representation could be decoded, the C++ thunk otherwise.
  static const VtableSlot kOnStepSlot = SlotOf(&ExecObserver::OnStep);
  if (kOnStepSlot.valid) {
    e.MovRdiFrame(kOffObserver);
    e.TestRdiRdi();
    size_t no_obs = e.JccFwd(kJe);
    e.MovEsiImm(pc);
    e.MovEdxImm(opcode);
    e.MovEcxFrame(kOffDepth);
    e.MovRaxMemRdi();
    e.CallRaxDisp(kOnStepSlot.off);
    e.Bind(no_obs);
  } else {
    e.MovRaxFrame(kOffObserver);
    e.TestRaxRax();
    size_t no_obs = e.JccFwd(kJe);
    e.MovRdiRbx();
    e.MovEsiImm(pc);
    e.MovEdxImm(opcode);
    e.MovAbsRax(FnAddr(&JitExec::ThunkOnStep));
    e.CallRax();
    e.Bind(no_obs);
  }
  // gas charge: a destructive sub whose borrow IS the gas < amount test.
  // Legal because the out-of-gas result reports f.call->gas (the frame's
  // whole budget), never the clobbered remaining-gas counter.
  if (gas != 0) {
    e.SubFrameImm32(kOffGas, gas);
    e.JccStub(kJb, Emitter::kStubOutOfGas);
  }
}

/// Emits the checked-mode arity test of PRELUDE (skipped for arity 0).
void EmitArityCheck(Emitter& e, uint8_t inputs) {
  if (inputs == 0) return;
  e.CmpCheckedZero();
  size_t skip = e.JccFwd(kJe);
  e.CmpSpImm32(inputs);
  e.JccStub(kJb, Emitter::kStubStackErr);
  e.Bind(skip);
}

/// Emits the checked-mode stack-overflow test: sp >= limit ? stack error.
void EmitOverflowCheck(Emitter& e, uint32_t limit) {
  e.CmpCheckedZero();
  size_t skip = e.JccFwd(kJe);
  e.CmpSpImm32(limit);
  e.JccStub(kJae, Emitter::kStubStackErr);
  e.Bind(skip);
}

/// Emits an unchecked push of a compile-time-constant Word: four immediate
/// limb stores plus the taint/cmp_id/call_id defaults.
void EmitPushImm(Emitter& e, const U256& value) {
  e.LoadStackTopRdx();
  for (int i = 0; i < 4; ++i) {
    e.MovAbsR8(value.limb(i));
    e.MovRdxDispR8(8 * i);
  }
  e.MovRdxDispImm32(32, 0);            // taint = kTaintNone
  e.MovRdxDispImm32(36, 0xFFFFFFFF);   // cmp_id = -1
  e.MovRdxDispImm32(40, 0xFFFFFFFF);   // call_id = -1
  e.IncSp();
}

/// Emits `call helper(frame, ins)`.
void EmitHelperCall(Emitter& e, HelperFn fn, const DecodedInsn* ins) {
  e.MovRdiRbx();
  e.MovAbsRsi(reinterpret_cast<uint64_t>(ins));
  e.MovAbsRax(FnAddr(fn));
  e.CallRax();
}

/// Emits the control-code dispatch after a helper that can only return
/// kCtlNext or kCtlDone.
void EmitCtlNextDone(Emitter& e) {
  e.TestEaxEax();
  e.JccStub(kJne, Emitter::kStubEpilogue);
}

/// Dispatch after a helper that can return kCtlNext/kCtlDynamic/kCtlDone.
void EmitCtlDynamic(Emitter& e) {
  e.TestEaxEax();
  size_t next = e.JccFwd(kJe);
  e.CmpEaxImm8(kCtlDynamic);
  e.JccStub(kJe, Emitter::kStubDynJump);
  e.JmpStub(Emitter::kStubEpilogue);
  e.Bind(next);
}

/// Dispatch after a helper that can return kCtlNext/kCtlStatic/kCtlDone.
/// `target` is the static branch target (insn index); kCtlStatic is
/// unreachable when the decode left jump_target invalid, so the epilogue
/// stands in.
void EmitCtlStatic(Emitter& e, int32_t target) {
  e.TestEaxEax();
  size_t next = e.JccFwd(kJe);
  if (target >= 0) {
    e.CmpEaxImm8(kCtlStatic);
    e.JccInsn(kJe, static_cast<size_t>(target));
  }
  e.JmpStub(Emitter::kStubEpilogue);
  e.Bind(next);
}

void EmitFailStub(Emitter& e, Emitter::Stub stub, uint32_t kind) {
  e.MarkStub(stub);
  e.MovRdiRbx();
  e.MovEsiImm(kind);
  e.MovAbsRax(FnAddr(&JitExec::ThunkFail));
  e.CallRax();
  e.JmpStub(Emitter::kStubEpilogue);
}

// With rdx = &stack[sp], the two operands of a binary op sit at fixed
// displacements: x (the top word OpArith/OpBitwise pop first) and y below
// it. Word is 48 bytes, so every field is in rel8 range of rdx.
constexpr int8_t kXValue = -48;   ///< stack[sp-1].value limb 0
constexpr int8_t kYValue = -96;   ///< stack[sp-2].value limb 0
constexpr int8_t kXTaint = -16;   ///< stack[sp-1].taint
constexpr int8_t kYTaint = -64;   ///< stack[sp-2].taint
constexpr int8_t kYCmpId = -60;   ///< stack[sp-2].cmp_id
constexpr int8_t kXCallId = -8;   ///< stack[sp-1].call_id
constexpr int8_t kYCallId = -56;  ///< stack[sp-2].call_id

/// Writes the merged taint (x|y), cmp_id = -1, and the result limbs held in
/// r8..r11 into y's slot, then drops sp — the net effect of pop/pop/push.
/// call_id is left to the caller (arith resets it, bitwise propagates it).
void EmitBinopStore(Emitter& e) {
  for (uint8_t i = 0; i < 4; ++i) {
    e.RnRdxDisp8(0x89, i, static_cast<int8_t>(kYValue + 8 * i));
  }
  e.EaxRdxDisp8(0x8B, kXTaint);
  e.EaxRdxDisp8(0x0B, kYTaint);
  e.EaxRdxDisp8(0x89, kYTaint);
  e.MovRdxDisp8Imm32(kYCmpId, 0xFFFFFFFF);
  e.DecSp();
}

/// Inlined kArith ADD/SUB. The carry chain computes the 256-bit result into
/// r8..r11 without touching the stack; the final CF is exactly
/// U256::AddOverflows / SubUnderflows. Overflow with a live observer defers
/// to JitExec::ArithTail (which replays the op in Word form and fires the
/// OnOverflow event); otherwise — including overflow with no observer,
/// where the decoded handler also skips the event — the result lands in
/// y's slot with taint = x|y and cmp_id/call_id reset, matching OpArith's
/// pop/pop/push net effect.
void EmitInlineAddSub(Emitter& e, const DecodedInsn* ins, bool is_add) {
  EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
  EmitArityCheck(e, ins->inputs);
  e.LoadStackTopRdx();
  const uint8_t first = is_add ? 0x03 : 0x2B;  // add / sub r, m
  const uint8_t rest = is_add ? 0x13 : 0x1B;   // adc / sbb r, m
  for (uint8_t i = 0; i < 4; ++i) {
    e.RnRdxDisp8(0x8B, i, static_cast<int8_t>(kXValue + 8 * i));
    e.RnRdxDisp8(i == 0 ? first : rest, i,
                 static_cast<int8_t>(kYValue + 8 * i));
  }
  size_t fast_nc = e.Jcc8Fwd(kJae8);  // jnc: no overflow
  e.MovRaxFrame(kOffObserver);
  e.TestRaxRax();
  size_t fast_noobs = e.Jcc8Fwd(kJe8);
  e.MovRdiRbx();
  e.MovAbsRsi(reinterpret_cast<uint64_t>(ins));
  e.MovAbsRax(FnAddr(&JitExec::ArithTail));
  e.CallRax();
  size_t done = e.JmpFwd8();
  e.Bind8(fast_nc);
  e.Bind8(fast_noobs);
  EmitBinopStore(e);
  e.MovRdxDisp8Imm32(kYCallId, 0xFFFFFFFF);
  e.Bind8(done);
}

/// Inlined kBitwise AND/OR/XOR: no overflow, no observer event — fully
/// native. call_id propagates as in OpBitwise: x's if >= 0, else y's.
void EmitInlineBitwise(Emitter& e, const DecodedInsn* ins) {
  EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
  EmitArityCheck(e, ins->inputs);
  e.LoadStackTopRdx();
  const Op op = static_cast<Op>(ins->opcode);
  const uint8_t opb = op == Op::kAnd ? 0x23 : op == Op::kOr ? 0x0B : 0x33;
  for (uint8_t i = 0; i < 4; ++i) {
    e.RnRdxDisp8(0x8B, i, static_cast<int8_t>(kXValue + 8 * i));
    e.RnRdxDisp8(opb, i, static_cast<int8_t>(kYValue + 8 * i));
  }
  // call_id into y BEFORE EmitBinopStore bumps sp down (rdx is stale-proof:
  // it never reloads), so order is free; keep it first for clarity.
  e.EaxRdxDisp8(0x8B, kXCallId);
  e.TestEaxEax();
  e.CmovsEaxRdxDisp8(kYCallId);  // x.call_id < 0 ? y.call_id : x.call_id
  e.EaxRdxDisp8(0x89, kYCallId);
  EmitBinopStore(e);
}

/// Inlined kPushJumpi fast path. Bookkeeping and both checked stack tests
/// run natively; with no observer attached the pop, the caller-guard taint
/// test, and the taken decision are all native — a fused conditional branch
/// with zero calls. With an observer the already-bookkept frame defers to
/// JitExec::PushJumpiTail for the branch event, dispatched exactly like the
/// old full-helper path.
void EmitInlinePushJumpi(Emitter& e, const DecodedInsn* ins) {
  // PUSH dest component.
  EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
  EmitOverflowCheck(e, static_cast<uint32_t>(Stack::kMaxDepth));
  // JUMPI component: needs the condition under the virtual dest.
  EmitBookkeep(e, ins->pc2, ins->opcode2, ins->gas2);
  EmitArityCheck(e, 1);
  e.MovRaxFrame(kOffObserver);
  e.TestRaxRax();
  size_t slow = e.JccFwd(kJne);
  // Fast path: pop cond (it stays readable at rdx-48 — DecSp only touches
  // the frame, not rdx), record a caller-tainted guard, branch on != 0.
  e.LoadStackTopRdx();
  e.DecSp();
  e.TestRdxDisp8Imm32(kXTaint, kTaintCaller);
  size_t no_guard = e.Jcc8Fwd(kJe8);
  e.MovFrameImm32(kOffCallerGuard, 1);
  e.Bind8(no_guard);
  e.RaxRdxDisp8(0x8B, kXValue);
  e.RaxRdxDisp8(0x0B, static_cast<int8_t>(kXValue + 8));
  e.RaxRdxDisp8(0x0B, static_cast<int8_t>(kXValue + 16));
  e.RaxRdxDisp8(0x0B, static_cast<int8_t>(kXValue + 24));
  size_t not_taken = e.JccFwd(kJe);
  if (ins->jump_target < 0) {
    e.JmpStub(Emitter::kStubBadJump);
  } else {
    e.JmpInsn(static_cast<size_t>(ins->jump_target));
  }
  e.Bind(not_taken);
  size_t done = e.JmpFwd8();
  e.Bind(slow);
  EmitHelperCall(e, &JitExec::PushJumpiTail, ins);
  EmitCtlStatic(e, ins->jump_target);
  e.Bind8(done);
}

/// Helper table, indexed by IrOp, for the subroutine-threaded default path.
HelperFn HelperFor(IrOp ir) {
  switch (ir) {
    case IrOp::kStop:
      return &JitExec::OpStop;
    case IrOp::kArith:
      return &JitExec::OpArith;
    case IrOp::kAddmodMulmod:
      return &JitExec::OpAddmodMulmod;
    case IrOp::kCmp:
      return &JitExec::OpCmp;
    case IrOp::kIszero:
      return &JitExec::OpIszero;
    case IrOp::kBitwise:
      return &JitExec::OpBitwise;
    case IrOp::kNot:
      return &JitExec::OpNot;
    case IrOp::kByte:
      return &JitExec::OpByte;
    case IrOp::kShift:
      return &JitExec::OpShift;
    case IrOp::kKeccak:
      return &JitExec::OpKeccak;
    case IrOp::kAddress:
      return &JitExec::OpAddress;
    case IrOp::kBalance:
      return &JitExec::OpBalance;
    case IrOp::kSelfbalance:
      return &JitExec::OpSelfbalance;
    case IrOp::kOrigin:
      return &JitExec::OpOrigin;
    case IrOp::kCaller:
      return &JitExec::OpCaller;
    case IrOp::kCallvalue:
      return &JitExec::OpCallvalue;
    case IrOp::kCalldataload:
      return &JitExec::OpCalldataload;
    case IrOp::kCalldatasize:
      return &JitExec::OpCalldatasize;
    case IrOp::kCalldatacopy:
      return &JitExec::OpCalldatacopy;
    case IrOp::kCodesize:
      return &JitExec::OpCodesize;
    case IrOp::kCodecopy:
      return &JitExec::OpCodecopy;
    case IrOp::kGasprice:
      return &JitExec::OpGasprice;
    case IrOp::kReturndatasize:
      return &JitExec::OpReturndatasize;
    case IrOp::kReturndatacopy:
      return &JitExec::OpReturndatacopy;
    case IrOp::kBlockhash:
      return &JitExec::OpBlockhash;
    case IrOp::kBlockRead:
      return &JitExec::OpBlockRead;
    case IrOp::kPop:
      return &JitExec::OpPop;
    case IrOp::kMload:
      return &JitExec::OpMload;
    case IrOp::kMstore:
      return &JitExec::OpMstore;
    case IrOp::kMstore8:
      return &JitExec::OpMstore8;
    case IrOp::kSload:
      return &JitExec::OpSload;
    case IrOp::kSstore:
      return &JitExec::OpSstore;
    case IrOp::kJump:
      return &JitExec::OpJump;
    case IrOp::kJumpi:
      return &JitExec::OpJumpi;
    case IrOp::kPc:
      return &JitExec::OpPc;
    case IrOp::kMsize:
      return &JitExec::OpMsize;
    case IrOp::kGas:
      return &JitExec::OpGas;
    case IrOp::kJumpdest:
      return &JitExec::OpJumpdest;
    case IrOp::kReturnRevert:
      return &JitExec::OpReturnRevert;
    case IrOp::kInvalid:
      return &JitExec::OpInvalid;
    case IrOp::kSelfdestruct:
      return &JitExec::OpSelfdestruct;
    case IrOp::kCreate:
      return &JitExec::OpCreate;
    case IrOp::kCallFamily:
      return &JitExec::OpCallFamily;
    case IrOp::kPush:
      return &JitExec::OpPush;
    case IrOp::kDup:
      return &JitExec::OpDup;
    case IrOp::kSwap:
      return &JitExec::OpSwap;
    case IrOp::kLog:
      return &JitExec::OpLog;
    case IrOp::kUndefined:
      return &JitExec::OpUndefined;
    case IrOp::kPushJump:
      return &JitExec::OpPushJump;
    case IrOp::kPushJumpi:
      return &JitExec::OpPushJumpi;
    case IrOp::kDupSload:
      return &JitExec::OpDupSload;
    case IrOp::kPushPushArith:
      return &JitExec::OpPushPushArith;
    case IrOp::kEnd:
      return &JitExec::OpEnd;
    case IrOp::kBlockCheck:
      break;  // always inlined
  }
  return nullptr;
}

/// Bailout guard: contracts past this size keep the decoded interpreter (a
/// fuzzing corpus contract is a few KB; this is a DoS backstop, not a real
/// ceiling).
constexpr size_t kMaxJitInsns = size_t{1} << 18;

}  // namespace

std::shared_ptr<const CompiledCode> JitCompile(const DecodedCode& decoded) {
  const size_t n = decoded.insns.size();
  if (n == 0 || n > kMaxJitInsns) return nullptr;

  auto compiled = std::make_shared<CompiledCode>();
  // Pre-size the dynamic-jump table so its data pointer can be embedded in
  // the emitted code before the final addresses are known.
  compiled->insn_addr.assign(n, nullptr);

  Emitter e(n);
  // Prologue: keep rsp 16-aligned at helper call sites; rbx holds the frame.
  e.Seq({0x55});                    // push rbp
  e.Seq({0x53});                    // push rbx
  e.Seq({0x48, 0x83, 0xEC, 0x08});  // sub rsp, 8
  e.Seq({0x48, 0x89, 0xFB});        // mov rbx, rdi

  for (size_t i = 0; i < n; ++i) {
    const DecodedInsn* ins = &decoded.insns[i];
    e.MarkInsn(i);
    switch (ins->ir) {
      case IrOp::kBlockCheck: {
        // checked = sp < block_need || sp + block_peak > kMaxDepth.
        if (ins->block_need >= DecodedInsn::kBlockUnsafe) {
          e.SetChecked(1);
          break;
        }
        std::vector<size_t> to_checked;
        e.MovRaxFrame(kOffSp);
        if (ins->block_need > 0) {
          e.CmpRaxImm(ins->block_need);
          to_checked.push_back(e.JccFwd(kJb));
        }
        if (ins->block_peak > 0) {
          e.AddRaxImm(ins->block_peak);
          e.CmpRaxImm(static_cast<uint32_t>(Stack::kMaxDepth));
          to_checked.push_back(e.JccFwd(kJa));
        }
        e.SetChecked(0);
        if (!to_checked.empty()) {
          size_t over = e.JmpFwd8();  // skip the set-1 arm
          for (size_t pos : to_checked) e.Bind(pos);
          e.SetChecked(1);
          e.Bind8(over);
        }
        break;
      }
      case IrOp::kPush: {
        EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
        EmitOverflowCheck(e, static_cast<uint32_t>(Stack::kMaxDepth));
        EmitPushImm(e, ins->immediate);
        break;
      }
      case IrOp::kPop: {
        EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
        EmitArityCheck(e, ins->inputs);
        e.DecSp();
        break;
      }
      case IrOp::kJumpdest: {
        EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
        break;
      }
      case IrOp::kDup: {
        EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
        const int depth = DupDepth(ins->opcode);
        // Checked mode: underflow (sp < n) and overflow (sp >= 1024).
        e.CmpCheckedZero();
        size_t skip = e.JccFwd(kJe);
        e.CmpSpImm32(static_cast<uint32_t>(depth));
        e.JccStub(kJb, Emitter::kStubStackErr);
        e.CmpSpImm32(static_cast<uint32_t>(Stack::kMaxDepth));
        e.JccStub(kJae, Emitter::kStubStackErr);
        e.Bind(skip);
        // stack[sp] = stack[sp - n]; ++sp. 48-byte copy via xmm0.
        e.LoadStackTopRdx();
        const int32_t src = -48 * depth;
        for (int32_t part = 0; part < 48; part += 16) {
          e.MovupsLoad(0, src + part);
          e.MovupsStore(0, part);
        }
        e.IncSp();
        break;
      }
      case IrOp::kSwap: {
        EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
        const int depth = SwapDepth(ins->opcode);
        e.CmpCheckedZero();
        size_t skip = e.JccFwd(kJe);
        e.CmpSpImm32(static_cast<uint32_t>(depth) + 1);
        e.JccStub(kJb, Emitter::kStubStackErr);
        e.Bind(skip);
        // Swap stack[sp-1] <-> stack[sp-1-n], 48 bytes via xmm0..5.
        e.LoadStackTopRdx();
        const int32_t top = -48;
        const int32_t other = -48 - 48 * depth;
        for (int32_t part = 0; part < 48; part += 16) {
          e.MovupsLoad(static_cast<uint8_t>(part / 16), top + part);
          e.MovupsLoad(static_cast<uint8_t>(3 + part / 16), other + part);
        }
        for (int32_t part = 0; part < 48; part += 16) {
          e.MovupsStore(static_cast<uint8_t>(3 + part / 16), top + part);
          e.MovupsStore(static_cast<uint8_t>(part / 16), other + part);
        }
        break;
      }
      case IrOp::kPushJump: {
        // PUSH component bookkeeping + checked overflow test.
        EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
        EmitOverflowCheck(e, static_cast<uint32_t>(Stack::kMaxDepth));
        // JUMP component bookkeeping.
        EmitBookkeep(e, ins->pc2, ins->opcode2, ins->gas2);
        if (ins->jump_target < 0) {
          e.JmpStub(Emitter::kStubBadJump);
          break;
        }
        // Observer OnJump, then a direct native branch.
        e.MovRaxFrame(kOffObserver);
        e.TestRaxRax();
        size_t no_obs = e.JccFwd(kJe);
        e.MovRdiRbx();
        e.MovEsiImm(ins->pc2);
        e.MovEdxImm(static_cast<uint32_t>(ins->immediate.low64()));
        e.MovAbsRax(FnAddr(&JitExec::ThunkOnJump));
        e.CallRax();
        e.Bind(no_obs);
        e.JmpInsn(static_cast<size_t>(ins->jump_target));
        break;
      }
      case IrOp::kPushPushArith: {
        if (ins->folded_overflow) {
          // The folded op reports an overflow event: keep the helper.
          EmitHelperCall(e, &JitExec::OpPushPushArith, ins);
          EmitCtlNextDone(e);
          break;
        }
        EmitBookkeep(e, ins->pc, ins->opcode, ins->gas);
        EmitOverflowCheck(e, static_cast<uint32_t>(Stack::kMaxDepth));
        EmitBookkeep(e, ins->pc2, ins->opcode2, ins->gas2);
        // Byte path pushes a first, so b's overflow threshold is one lower.
        EmitOverflowCheck(e, static_cast<uint32_t>(Stack::kMaxDepth) - 1);
        EmitBookkeep(e, ins->pc3, ins->opcode3, ins->gas3);
        // The final push cannot overflow after the first test passed.
        EmitPushImm(e, ins->immediate);
        break;
      }
      case IrOp::kJump:
      case IrOp::kJumpi: {
        EmitHelperCall(e, HelperFor(ins->ir), ins);
        EmitCtlDynamic(e);
        break;
      }
      case IrOp::kPushJumpi: {
        EmitInlinePushJumpi(e, ins);
        break;
      }
      case IrOp::kArith: {
        const Op op = static_cast<Op>(ins->opcode);
        if (op == Op::kAdd || op == Op::kSub) {
          EmitInlineAddSub(e, ins, op == Op::kAdd);
          break;
        }
        // MUL/DIV/MOD/EXP/... keep the helper: multi-limb products and
        // quotients don't pay for inline emission.
        EmitHelperCall(e, &JitExec::OpArith, ins);
        EmitCtlNextDone(e);
        break;
      }
      case IrOp::kBitwise: {
        EmitInlineBitwise(e, ins);
        break;
      }
      default: {
        HelperFn fn = HelperFor(ins->ir);
        if (fn == nullptr) return nullptr;  // decoder emitted the impossible
        EmitHelperCall(e, fn, ins);
        EmitCtlNextDone(e);
        break;
      }
    }
  }

  // Shared stubs.
  e.MarkStub(Emitter::kStubEpilogue);
  e.Seq({0x48, 0x83, 0xC4, 0x08});  // add rsp, 8
  e.Seq({0x5B});                    // pop rbx
  e.Seq({0x5D});                    // pop rbp
  e.Seq({0xC3});                    // ret
  EmitFailStub(e, Emitter::kStubStepLimit, kFailStepLimit);
  EmitFailStub(e, Emitter::kStubOutOfGas, kFailOutOfGas);
  EmitFailStub(e, Emitter::kStubStackErr, kFailStackErr);
  EmitFailStub(e, Emitter::kStubBadJump, kFailBadJump);
  // Dynamic-jump stub: jmp insn_addr[frame->jump_ip].
  e.MarkStub(Emitter::kStubDynJump);
  e.MovRaxFrame(kOffJumpIp);
  e.MovAbsRcx(reinterpret_cast<uint64_t>(compiled->insn_addr.data()));
  e.Seq({0xFF, 0x24, 0xC1});  // jmp [rcx + rax*8]

  e.Finish();

  if (!compiled->arena.Allocate(e.buf().size())) return nullptr;
  std::memcpy(compiled->arena.data(), e.buf().data(), e.buf().size());
  if (!compiled->arena.Seal()) return nullptr;

  for (size_t i = 0; i < n; ++i) {
    compiled->insn_addr[i] = compiled->arena.data() + e.insn_off()[i];
  }
  compiled->entry =
      reinterpret_cast<CompiledCode::EntryFn>(compiled->arena.data());
  compiled->code_size = e.buf().size();
  return compiled;
}

#else  // !MUFUZZ_JIT_SUPPORTED

std::shared_ptr<const CompiledCode> JitCompile(const DecodedCode& decoded) {
  (void)decoded;
  return nullptr;
}

#endif  // MUFUZZ_JIT_SUPPORTED

}  // namespace mufuzz::evm
