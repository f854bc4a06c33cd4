// The byte-switch interpreter loop: the tests' reference oracle for the
// decoded loop (see byte_switch_oracle.h).

#include "byte_switch_oracle.h"

#include <algorithm>
#include <unordered_set>

#include "common/keccak.h"
#include "evm/code_cache.h"
#include "evm/memory.h"
#include "evm/stack.h"

namespace mufuzz::evm {

namespace {

thread_local uint64_t frames_run_on_thread = 0;

/// Collects the pcs of valid JUMPDESTs (JUMPDEST bytes not inside PUSH data).
std::unordered_set<uint32_t> FindJumpdests(BytesView code) {
  std::unordered_set<uint32_t> dests;
  for (size_t pc = 0; pc < code.size();) {
    uint8_t op = code[pc];
    if (op == static_cast<uint8_t>(Op::kJumpdest)) {
      dests.insert(static_cast<uint32_t>(pc));
    }
    pc += 1 + (IsPush(op) ? PushSize(op) : 0);
  }
  return dests;
}

/// True iff the whole of `dest` is the pc of a valid JUMPDEST.
bool IsJumpdest(const std::unordered_set<uint32_t>& jumpdests,
                const U256& dest) {
  return dest.FitsU64() && dest.low64() <= UINT32_MAX &&
         jumpdests.contains(static_cast<uint32_t>(dest.low64()));
}

}  // namespace

void ByteSwitchOracle::Install(Interpreter* interp) {
  interp->frame_loop_ = &ByteSwitchOracle::RunFrame;
}

uint64_t ByteSwitchOracle::frames_run() { return frames_run_on_thread; }

void ByteSwitchSessionBackend::Bind(Host* host, BlockContext block,
                                    EvmConfig config) {
  SessionBackend::Bind(host, block, config);
  ByteSwitchOracle::Install(&session().interpreter());
}

ExecResult ByteSwitchOracle::RunFrame(Interpreter& interp,
                                     const MessageCall& call,
                                     const DecodedCode& decoded) {
  ++frames_run_on_thread;
  const Bytes& code = decoded.code;
  // The oracle re-derives jump targets from the raw bytes on purpose: the
  // differential suite then cross-checks the decoder's pre-validated table
  // against an independent derivation.
  const auto jumpdests = FindJumpdests(code);

  // Frame state lives in a pooled arena: warm containers checked out for
  // the duration of this frame (nested calls check out their own).
  Interpreter::ArenaLease lease(&interp);
  Stack& stack = lease.arena.stack;
  Memory& memory = lease.arena.memory;
  // Word-granular memory instrumentation (offset/32 -> taint + call id), so
  // flows like `bool ok = send(...); require(ok)` survive the memory trip.
  using MemTag = MemTaintMap::Tag;
  MemTaintMap& mem_taint = lease.arena.mem_taint;
  Bytes& return_data = lease.arena.return_data;  // last call's (RETURNDATA*)
  bool caller_guard_seen = false;
  uint64_t gas = call.gas;
  uint32_t pc = 0;

  auto out_of_gas = [&]() { return ExecResult{Outcome::kOutOfGas, {}, call.gas}; };
  auto stack_err = [&]() {
    return ExecResult{Outcome::kStackError, {}, call.gas - gas};
  };

  auto charge = [&](uint64_t amount) {
    if (gas < amount) return false;
    gas -= amount;
    return true;
  };

  auto mem_tag_load = [&](uint64_t offset) -> MemTag {
    MemTag tag;
    const MemTag* found = mem_taint.Find(offset / 32);
    if (found != nullptr) tag = *found;
    if (offset % 32 != 0) {
      found = mem_taint.Find(offset / 32 + 1);
      if (found != nullptr) {
        tag.taint |= found->taint;
        tag.call_id = -1;  // misaligned: call identity is lost
      }
    }
    return tag;
  };
  auto mem_taint_store = [&](uint64_t offset, uint64_t len, uint32_t taint,
                             int32_t call_id = -1) {
    if (len == 0) return;
    for (uint64_t w = offset / 32; w <= (offset + len - 1) / 32; ++w) {
      if (taint == 0 && call_id < 0) {
        mem_taint.Erase(w);
      } else {
        mem_taint.Set(w, MemTag{taint, call_id});
      }
    }
  };
  auto mem_taint_range = [&](uint64_t offset, uint64_t len) -> uint32_t {
    uint32_t t = 0;
    if (len == 0) return t;
    for (uint64_t w = offset / 32; w <= (offset + len - 1) / 32; ++w) {
      const MemTag* found = mem_taint.Find(w);
      if (found != nullptr) t |= found->taint;
    }
    return t;
  };

  // Executing a frame brings the callee account into existence (journaled).
  interp.state_->Touch(call.to);

  while (pc < code.size()) {
    if (++interp.steps_ > interp.config_.max_steps) {
      return {Outcome::kStepLimit, {}, call.gas - gas};
    }
    uint8_t opcode = code[pc];
    const OpInfo& info = GetOpInfo(opcode);
    if (!info.defined) {
      return {Outcome::kInvalidOp, {}, call.gas};
    }
    ++interp.instructions_;
    if (interp.step_observer_ != nullptr) {
      interp.step_observer_->OnStep(pc, opcode, call.depth);
    }
    if (!charge(info.gas)) return out_of_gas();
    if (stack.size() < static_cast<size_t>(info.stack_inputs)) {
      return stack_err();
    }

    const Op op = static_cast<Op>(opcode);
    uint32_t insn_pc = pc;
    pc += 1 + info.immediate;

    switch (op) {
      case Op::kStop:
        return {Outcome::kSuccess, {}, call.gas - gas};

      // ---- Arithmetic -------------------------------------------------
      case Op::kAdd:
      case Op::kMul:
      case Op::kSub:
      case Op::kDiv:
      case Op::kSdiv:
      case Op::kMod:
      case Op::kSmod:
      case Op::kExp:
      case Op::kSignextend: {
        Word x, y;
        stack.Pop(&x);
        stack.Pop(&y);
        U256 r;
        bool overflow = false;
        switch (op) {
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
        if (overflow && interp.observer_ != nullptr) {
          interp.observer_->OnOverflow(
              {insn_pc, op, x.taint | y.taint, call.depth});
        }
        Word result(r, x.taint | y.taint);
        if (!stack.Push(result)) return stack_err();
        break;
      }
      case Op::kAddmod:
      case Op::kMulmod: {
        Word x, y, m;
        stack.Pop(&x);
        stack.Pop(&y);
        stack.Pop(&m);
        U256 r = (op == Op::kAddmod) ? U256::AddMod(x.value, y.value, m.value)
                                     : U256::MulMod(x.value, y.value, m.value);
        if (!stack.Push(Word(r, x.taint | y.taint | m.taint))) {
          return stack_err();
        }
        break;
      }

      // ---- Comparison & logic -----------------------------------------
      case Op::kLt:
      case Op::kGt:
      case Op::kSlt:
      case Op::kSgt:
      case Op::kEq: {
        Word x, y;
        stack.Pop(&x);
        stack.Pop(&y);
        bool truth = false;
        CmpOp cmp_op = CmpOp::kEq;
        switch (op) {
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
        result.cmp_id = static_cast<int32_t>(interp.cmp_records_.size());
        interp.cmp_records_.push_back(
            {cmp_op, x.value, y.value, false, x.taint | y.taint});
        result.call_id = (x.call_id >= 0) ? x.call_id : y.call_id;
        if (!stack.Push(result)) return stack_err();
        break;
      }
      case Op::kIszero: {
        Word x;
        stack.Pop(&x);
        Word result(x.value.IsZero() ? U256::One() : U256::Zero(), x.taint);
        if (x.cmp_id >= 0) {
          // Negate the existing comparison so distance stays meaningful
          // through require()'s ISZERO chains.
          CmpRecord rec = interp.cmp_records_[x.cmp_id];
          rec.negated = !rec.negated;
          result.cmp_id = static_cast<int32_t>(interp.cmp_records_.size());
          interp.cmp_records_.push_back(rec);
        } else {
          result.cmp_id = static_cast<int32_t>(interp.cmp_records_.size());
          interp.cmp_records_.push_back(
              {CmpOp::kIsZero, x.value, U256::Zero(), false, x.taint});
        }
        result.call_id = x.call_id;
        if (!stack.Push(result)) return stack_err();
        break;
      }
      case Op::kAnd:
      case Op::kOr:
      case Op::kXor: {
        Word x, y;
        stack.Pop(&x);
        stack.Pop(&y);
        U256 r;
        if (op == Op::kAnd) r = x.value & y.value;
        if (op == Op::kOr) r = x.value | y.value;
        if (op == Op::kXor) r = x.value ^ y.value;
        Word result(r, x.taint | y.taint);
        result.call_id = (x.call_id >= 0) ? x.call_id : y.call_id;
        if (!stack.Push(result)) return stack_err();
        break;
      }
      case Op::kNot: {
        Word x;
        stack.Pop(&x);
        if (!stack.Push(Word(~x.value, x.taint))) return stack_err();
        break;
      }
      case Op::kByte: {
        Word i, x;
        stack.Pop(&i);
        stack.Pop(&x);
        if (!stack.Push(Word(x.value.Byte(i.value), x.taint | i.taint))) {
          return stack_err();
        }
        break;
      }
      case Op::kShl:
      case Op::kShr:
      case Op::kSar: {
        Word shift, x;
        stack.Pop(&shift);
        stack.Pop(&x);
        unsigned n = shift.value.FitsU64() && shift.value.low64() < 256
                         ? static_cast<unsigned>(shift.value.low64())
                         : 256;
        U256 r;
        if (op == Op::kShl) r = x.value << n;
        if (op == Op::kShr) r = x.value >> n;
        if (op == Op::kSar) r = x.value.Sar(n);
        if (!stack.Push(Word(r, x.taint | shift.taint))) return stack_err();
        break;
      }

      case Op::kKeccak256: {
        Word off, len;
        stack.Pop(&off);
        stack.Pop(&len);
        if (!off.value.FitsU64() || !len.value.FitsU64()) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        uint64_t offset = off.value.low64();
        uint64_t length = len.value.low64();
        if (!charge(KeccakWordGas(length))) return out_of_gas();
        BytesView input;
        if (!memory.ViewOut(offset, length, &input)) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        auto digest = Keccak256(input);
        U256 r = U256::FromBytesBE(BytesView(digest.data(), 32)).value();
        if (!stack.Push(Word(r, mem_taint_range(offset, length)))) {
          return stack_err();
        }
        break;
      }

      // ---- Environment -------------------------------------------------
      case Op::kAddress:
        if (!stack.Push(Word(call.to.ToWord()))) return stack_err();
        break;
      case Op::kBalance: {
        Word a;
        stack.Pop(&a);
        Address addr = Address::FromWord(a.value);
        if (!stack.Push(Word(interp.state_->GetBalance(addr),
                             a.taint | kTaintBalance))) {
          return stack_err();
        }
        break;
      }
      case Op::kSelfbalance:
        if (!stack.Push(
                Word(interp.state_->GetBalance(call.to), kTaintBalance))) {
          return stack_err();
        }
        break;
      case Op::kOrigin:
        if (!stack.Push(Word(call.origin.ToWord(), kTaintOrigin))) {
          return stack_err();
        }
        break;
      case Op::kCaller:
        if (!stack.Push(Word(call.caller.ToWord(), kTaintCaller))) {
          return stack_err();
        }
        break;
      case Op::kCallvalue:
        if (!stack.Push(Word(call.value, kTaintCallValue))) return stack_err();
        break;
      case Op::kCalldataload: {
        Word off;
        stack.Pop(&off);
        U256 v;
        if (off.value.FitsU64()) {
          uint64_t o = off.value.low64();
          uint8_t buf[32];
          for (uint64_t i = 0; i < 32; ++i) {
            // o + i < size, written so that it cannot wrap around 2^64.
            bool in_bounds = o < call.data.size() && i < call.data.size() - o;
            buf[i] = in_bounds ? call.data[o + i] : 0;
          }
          v = U256::FromBytesBE(BytesView(buf, 32)).value();
        }
        if (!stack.Push(Word(v, kTaintCalldata | off.taint))) {
          return stack_err();
        }
        break;
      }
      case Op::kCalldatasize:
        if (!stack.Push(Word(U256(call.data.size())))) return stack_err();
        break;
      case Op::kCalldatacopy: {
        Word dst, src, len;
        stack.Pop(&dst);
        stack.Pop(&src);
        stack.Pop(&len);
        if (!dst.value.FitsU64() || !len.value.FitsU64()) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        uint64_t src_off = src.value.FitsU64() ? src.value.low64() : UINT64_MAX;
        if (!memory.CopyIn(dst.value.low64(), call.data, src_off,
                           len.value.low64())) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        mem_taint_store(dst.value.low64(), len.value.low64(), kTaintCalldata);
        break;
      }
      case Op::kCodesize:
        if (!stack.Push(Word(U256(code.size())))) return stack_err();
        break;
      case Op::kCodecopy: {
        Word dst, src, len;
        stack.Pop(&dst);
        stack.Pop(&src);
        stack.Pop(&len);
        if (!dst.value.FitsU64() || !len.value.FitsU64()) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        uint64_t src_off = src.value.FitsU64() ? src.value.low64() : UINT64_MAX;
        if (!memory.CopyIn(dst.value.low64(), code, src_off,
                           len.value.low64())) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        break;
      }
      case Op::kGasprice:
        if (!stack.Push(Word(U256(1)))) return stack_err();
        break;
      case Op::kReturndatasize:
        if (!stack.Push(Word(U256(return_data.size())))) return stack_err();
        break;
      case Op::kReturndatacopy: {
        Word dst, src, len;
        stack.Pop(&dst);
        stack.Pop(&src);
        stack.Pop(&len);
        if (!dst.value.FitsU64() || !len.value.FitsU64()) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        // EIP-211: reading past the end of the return data halts, even a
        // zero-length read.
        if (!ReturnDataInBounds(src.value, len.value.low64(),
                                return_data.size())) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        if (!memory.CopyIn(dst.value.low64(), return_data, src.value.low64(),
                           len.value.low64())) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        break;
      }

      // ---- Block state ---------------------------------------------------
      case Op::kBlockhash: {
        Word n;
        stack.Pop(&n);
        Bytes seed;
        AppendU64BE(&seed, n.value.low64());
        auto digest = Keccak256(seed);
        if (!stack.Push(
                Word(U256::FromBytesBE(BytesView(digest.data(), 32)).value(),
                     kTaintBlock))) {
          return stack_err();
        }
        break;
      }
      case Op::kCoinbase:
      case Op::kTimestamp:
      case Op::kNumber:
      case Op::kDifficulty:
      case Op::kGaslimit: {
        U256 v;
        switch (op) {
          case Op::kCoinbase:
            v = interp.block_.coinbase.ToWord();
            break;
          case Op::kTimestamp:
            v = U256(interp.block_.timestamp);
            break;
          case Op::kNumber:
            v = U256(interp.block_.number);
            break;
          case Op::kDifficulty:
            v = interp.block_.difficulty;
            break;
          case Op::kGaslimit:
            v = U256(interp.block_.gas_limit);
            break;
          default:
            break;
        }
        if (!stack.Push(Word(v, kTaintBlock))) return stack_err();
        break;
      }

      // ---- Stack / memory / storage / flow --------------------------------
      case Op::kPop: {
        Word w;
        stack.Pop(&w);
        break;
      }
      case Op::kMload: {
        Word off;
        stack.Pop(&off);
        if (!off.value.FitsU64()) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        U256 v;
        if (!memory.Load32(off.value.low64(), &v)) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        MemTag tag = mem_tag_load(off.value.low64());
        Word loaded(v, tag.taint);
        loaded.call_id = tag.call_id;
        if (!stack.Push(loaded)) return stack_err();
        break;
      }
      case Op::kMstore: {
        Word off, val;
        stack.Pop(&off);
        stack.Pop(&val);
        if (!off.value.FitsU64() ||
            !memory.Store32(off.value.low64(), val.value)) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        mem_taint_store(off.value.low64(), 32, val.taint, val.call_id);
        break;
      }
      case Op::kMstore8: {
        Word off, val;
        stack.Pop(&off);
        stack.Pop(&val);
        if (!off.value.FitsU64() ||
            !memory.Store8(off.value.low64(),
                           static_cast<uint8_t>(val.value.low64() & 0xff))) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        mem_taint_store(off.value.low64(), 1, val.taint);
        break;
      }
      case Op::kSload: {
        Word key;
        stack.Pop(&key);
        // One account probe for value + taint (Touch pinned the account).
        const Account* acct = interp.state_->Find(call.to);
        U256 v = acct ? acct->storage.Load(key.value) : U256::Zero();
        uint32_t t =
            kTaintStorage | (acct ? acct->storage.LoadTaint(key.value) : 0);
        if (!stack.Push(Word(v, t))) return stack_err();
        break;
      }
      case Op::kSstore: {
        if (call.is_static) {
          return {Outcome::kStaticViolation, {}, call.gas - gas};
        }
        Word key, val;
        stack.Pop(&key);
        stack.Pop(&val);
        interp.state_->SetStorage(call.to, key.value, val.value, val.taint);
        break;
      }
      case Op::kJump: {
        Word dest;
        stack.Pop(&dest);
        if (!IsJumpdest(jumpdests, dest.value)) {
          return {Outcome::kBadJump, {}, call.gas - gas};
        }
        pc = static_cast<uint32_t>(dest.value.low64());
        break;
      }
      case Op::kJumpi: {
        Word dest, cond;
        stack.Pop(&dest);
        stack.Pop(&cond);
        bool taken = !cond.value.IsZero();
        if (interp.observer_ != nullptr) {
          BranchEvent ev;
          ev.pc = insn_pc;
          ev.taken = taken;
          ev.cmp_id = cond.cmp_id;
          ev.call_id = cond.call_id;
          ev.cond_taint = cond.taint;
          ev.depth = call.depth;
          interp.observer_->OnBranch(ev);
          if (cond.call_id >= 0) {
            interp.observer_->OnCallResultChecked(cond.call_id);
          }
        }
        if (cond.taint & kTaintCaller) caller_guard_seen = true;
        if (taken) {
          if (!IsJumpdest(jumpdests, dest.value)) {
            return {Outcome::kBadJump, {}, call.gas - gas};
          }
          pc = static_cast<uint32_t>(dest.value.low64());
        }
        break;
      }
      case Op::kPc:
        if (!stack.Push(Word(U256(insn_pc)))) return stack_err();
        break;
      case Op::kMsize:
        if (!stack.Push(Word(U256(memory.SizeWords() * 32)))) {
          return stack_err();
        }
        break;
      case Op::kGas:
        if (!stack.Push(Word(U256(gas)))) return stack_err();
        break;
      case Op::kJumpdest:
        break;

      // ---- System ----------------------------------------------------------
      case Op::kReturn:
      case Op::kRevert: {
        Word off, len;
        stack.Pop(&off);
        stack.Pop(&len);
        Bytes out;
        if (off.value.FitsU64() && len.value.FitsU64()) {
          if (!memory.CopyOut(off.value.low64(), len.value.low64(), &out)) {
            return {Outcome::kMemoryError, {}, call.gas - gas};
          }
        }
        return {op == Op::kReturn ? Outcome::kSuccess : Outcome::kRevert,
                std::move(out), call.gas - gas};
      }
      case Op::kInvalid:
        return {Outcome::kInvalidOp, {}, call.gas};
      case Op::kSelfdestruct: {
        if (call.is_static) {
          return {Outcome::kStaticViolation, {}, call.gas - gas};
        }
        Word beneficiary;
        stack.Pop(&beneficiary);
        Address to = Address::FromWord(beneficiary.value);
        U256 balance = interp.state_->GetBalance(call.to);
        interp.state_->SetBalance(call.to, U256::Zero());
        interp.state_->MarkSelfDestructed(call.to);
        // Read `to` after zeroing the self balance so to == self nets right.
        interp.state_->SetBalance(to, interp.state_->GetBalance(to) + balance);
        if (interp.observer_ != nullptr) {
          interp.observer_->OnSelfdestruct(
              {insn_pc, to, caller_guard_seen, call.depth});
        }
        return {Outcome::kSuccess, {}, call.gas - gas};
      }
      case Op::kCreate:
        // Contract creation from within contracts is out of scope for the
        // MiniSol corpus; treat as an invalid operation.
        return {Outcome::kInvalidOp, {}, call.gas};

      case Op::kCall:
      case Op::kCallcode:
      case Op::kDelegatecall:
      case Op::kStaticcall: {
        bool has_value = (op == Op::kCall || op == Op::kCallcode);
        Word gas_w, to_w, value_w, in_off, in_len, out_off, out_len;
        stack.Pop(&gas_w);
        stack.Pop(&to_w);
        if (has_value) stack.Pop(&value_w);
        stack.Pop(&in_off);
        stack.Pop(&in_len);
        stack.Pop(&out_off);
        stack.Pop(&out_len);

        if (!in_off.value.FitsU64() || !in_len.value.FitsU64() ||
            !out_off.value.FitsU64() || !out_len.value.FitsU64()) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }
        Bytes input;
        if (!memory.CopyOut(in_off.value.low64(), in_len.value.low64(),
                            &input)) {
          return {Outcome::kMemoryError, {}, call.gas - gas};
        }

        Address target = Address::FromWord(to_w.value);
        U256 value = has_value ? value_w.value : U256::Zero();
        if (!value.IsZero()) {
          if (!charge(9000)) return out_of_gas();
        }
        uint64_t gas_requested =
            gas_w.value.FitsU64() ? gas_w.value.low64() : gas;
        uint64_t gas_forwarded = std::min(gas_requested, gas);
        if (!value.IsZero()) gas_forwarded += 2300;  // call stipend

        int32_t call_id = interp.next_call_id_++;
        CallEvent ev;
        ev.pc = insn_pc;
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
        const Account* target_acct = interp.state_->Find(target);
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

          size_t snapshot = interp.state_->Snapshot();
          bool transfer_ok = true;
          if (!value.IsZero() && op == Op::kCall) {
            transfer_ok = interp.state_->Transfer(call.to, target, value);
          }
          if (transfer_ok) {
            ExecResult child_result = interp.RunFrame(child);
            uint64_t used = std::min(child_result.gas_used, gas);
            gas -= used;
            success = child_result.Success();
            child_output = std::move(child_result.output);
            if (success) {
              interp.state_->Commit(snapshot);
            } else {
              interp.state_->RevertTo(snapshot);
            }
          } else {
            interp.state_->RevertTo(snapshot);
            success = false;
          }
        } else {
          // External (code-less) target: host decides; value moves first.
          bool transfer_ok = true;
          if (!value.IsZero()) {
            transfer_ok = interp.state_->Transfer(call.to, target, value);
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
            ++interp.host_calls_;
            ExternalCallOutcome outcome =
                interp.host_->OnExternalCall(req, &interp);
            success = outcome.success;
            child_output = std::move(outcome.return_data);
            if (!success && !value.IsZero()) {
              // Failed call returns the value.
              interp.state_->Transfer(target, call.to, value);
            }
          } else {
            success = false;
          }
        }

        ev.success = success;
        if (interp.observer_ != nullptr) interp.observer_->OnCall(ev);

        return_data = child_output;
        uint64_t copy_len =
            std::min<uint64_t>(out_len.value.low64(), child_output.size());
        if (copy_len > 0) {
          if (!memory.CopyIn(out_off.value.low64(), child_output, 0,
                             copy_len)) {
            return {Outcome::kMemoryError, {}, call.gas - gas};
          }
        }
        Word status(success ? U256::One() : U256::Zero(), kTaintCallResult);
        status.call_id = call_id;
        if (!stack.Push(status)) return stack_err();
        break;
      }

      default: {
        // PUSH / DUP / SWAP / LOG families.
        if (IsPush(opcode)) {
          int n = PushSize(opcode);
          uint8_t buf[32] = {0};
          for (int i = 0; i < n; ++i) {
            size_t idx = insn_pc + 1 + i;
            buf[32 - n + i] = idx < code.size() ? code[idx] : 0;
          }
          if (!stack.Push(
                  Word(U256::FromBytesBE(BytesView(buf, 32)).value()))) {
            return stack_err();
          }
        } else if (IsDup(opcode)) {
          if (!stack.Dup(DupDepth(opcode))) return stack_err();
        } else if (IsSwap(opcode)) {
          if (!stack.Swap(SwapDepth(opcode))) return stack_err();
        } else if (IsLog(opcode)) {
          Word off, len;
          stack.Pop(&off);
          stack.Pop(&len);
          for (int i = 0; i < LogTopics(opcode); ++i) {
            Word topic;
            stack.Pop(&topic);
          }
        } else {
          return {Outcome::kInvalidOp, {}, call.gas};
        }
        break;
      }
    }
  }
  // Fell off the end of the code: implicit STOP.
  return {Outcome::kSuccess, {}, call.gas - gas};
}

}  // namespace mufuzz::evm
