#include "evm/code_cache.h"

#include <algorithm>
#include <chrono>

#include "common/keccak.h"

namespace mufuzz::evm {

namespace {

/// One instruction of the pre-fusion scan.
struct RawInsn {
  uint32_t pc = 0;
  uint8_t opcode = 0;
  bool leader = false;  ///< starts a block (see DecodeCode)
  U256 imm;             ///< pre-parsed PUSH immediate (zero-padded)
};

IrOp IrOpFor(uint8_t opcode) {
  const OpInfo& info = GetOpInfo(opcode);
  if (!info.defined) return IrOp::kUndefined;
  if (IsPush(opcode)) return IrOp::kPush;
  if (IsDup(opcode)) return IrOp::kDup;
  if (IsSwap(opcode)) return IrOp::kSwap;
  if (IsLog(opcode)) return IrOp::kLog;
  switch (static_cast<Op>(opcode)) {
    case Op::kStop:
      return IrOp::kStop;
    case Op::kAdd:
    case Op::kMul:
    case Op::kSub:
    case Op::kDiv:
    case Op::kSdiv:
    case Op::kMod:
    case Op::kSmod:
    case Op::kExp:
    case Op::kSignextend:
      return IrOp::kArith;
    case Op::kAddmod:
    case Op::kMulmod:
      return IrOp::kAddmodMulmod;
    case Op::kLt:
    case Op::kGt:
    case Op::kSlt:
    case Op::kSgt:
    case Op::kEq:
      return IrOp::kCmp;
    case Op::kIszero:
      return IrOp::kIszero;
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      return IrOp::kBitwise;
    case Op::kNot:
      return IrOp::kNot;
    case Op::kByte:
      return IrOp::kByte;
    case Op::kShl:
    case Op::kShr:
    case Op::kSar:
      return IrOp::kShift;
    case Op::kKeccak256:
      return IrOp::kKeccak;
    case Op::kAddress:
      return IrOp::kAddress;
    case Op::kBalance:
      return IrOp::kBalance;
    case Op::kSelfbalance:
      return IrOp::kSelfbalance;
    case Op::kOrigin:
      return IrOp::kOrigin;
    case Op::kCaller:
      return IrOp::kCaller;
    case Op::kCallvalue:
      return IrOp::kCallvalue;
    case Op::kCalldataload:
      return IrOp::kCalldataload;
    case Op::kCalldatasize:
      return IrOp::kCalldatasize;
    case Op::kCalldatacopy:
      return IrOp::kCalldatacopy;
    case Op::kCodesize:
      return IrOp::kCodesize;
    case Op::kCodecopy:
      return IrOp::kCodecopy;
    case Op::kGasprice:
      return IrOp::kGasprice;
    case Op::kReturndatasize:
      return IrOp::kReturndatasize;
    case Op::kReturndatacopy:
      return IrOp::kReturndatacopy;
    case Op::kBlockhash:
      return IrOp::kBlockhash;
    case Op::kCoinbase:
    case Op::kTimestamp:
    case Op::kNumber:
    case Op::kDifficulty:
    case Op::kGaslimit:
      return IrOp::kBlockRead;
    case Op::kPop:
      return IrOp::kPop;
    case Op::kMload:
      return IrOp::kMload;
    case Op::kMstore:
      return IrOp::kMstore;
    case Op::kMstore8:
      return IrOp::kMstore8;
    case Op::kSload:
      return IrOp::kSload;
    case Op::kSstore:
      return IrOp::kSstore;
    case Op::kJump:
      return IrOp::kJump;
    case Op::kJumpi:
      return IrOp::kJumpi;
    case Op::kPc:
      return IrOp::kPc;
    case Op::kMsize:
      return IrOp::kMsize;
    case Op::kGas:
      return IrOp::kGas;
    case Op::kJumpdest:
      return IrOp::kJumpdest;
    case Op::kReturn:
    case Op::kRevert:
      return IrOp::kReturnRevert;
    case Op::kInvalid:
      return IrOp::kInvalid;
    case Op::kSelfdestruct:
      return IrOp::kSelfdestruct;
    case Op::kCreate:
      return IrOp::kCreate;
    case Op::kCall:
    case Op::kCallcode:
    case Op::kDelegatecall:
    case Op::kStaticcall:
      return IrOp::kCallFamily;
    default:
      return IrOp::kUndefined;
  }
}

bool IsFoldableArith(uint8_t opcode) {
  switch (static_cast<Op>(opcode)) {
    case Op::kAdd:
    case Op::kMul:
    case Op::kSub:
    case Op::kDiv:
    case Op::kAnd:
    case Op::kOr:
    case Op::kXor:
      return true;
    default:
      return false;
  }
}

/// Folds `PUSH a; PUSH b; op` at decode time. The byte path pops x = b (top)
/// then y = a, so the fold follows the same operand order.
U256 FoldArith(uint8_t opcode, const U256& a, const U256& b, bool* overflow) {
  const U256& x = b;
  const U256& y = a;
  *overflow = false;
  switch (static_cast<Op>(opcode)) {
    case Op::kAdd:
      *overflow = U256::AddOverflows(x, y);
      return x + y;
    case Op::kMul:
      *overflow = U256::MulOverflows(x, y);
      return x * y;
    case Op::kSub:
      *overflow = U256::SubUnderflows(x, y);
      return x - y;
    case Op::kDiv:
      return x / y;
    case Op::kAnd:
      return x & y;
    case Op::kOr:
      return x | y;
    case Op::kXor:
      return x ^ y;
    default:
      return U256::Zero();
  }
}

/// True for instructions after which the next one starts a block: the basic
/// block terminators, a halting undefined byte, and the instructions that
/// must see exact gas and step counts (GAS, the CALL family).
bool EndsBlock(uint8_t opcode) {
  if (!GetOpInfo(opcode).defined || IsBlockTerminator(opcode)) return true;
  switch (static_cast<Op>(opcode)) {
    case Op::kGas:
    case Op::kCall:
    case Op::kCallcode:
    case Op::kDelegatecall:
    case Op::kStaticcall:
      return true;
    default:
      return false;
  }
}

/// Stack-effect aggregate of the block starting at raw[start]: the minimum
/// entry height that runs every instruction without underflow, and the peak
/// net growth above the entry height. Conservative past a halting
/// instruction (the unreachable tail only tightens the bound — a block
/// classified "checked" is never wrong, just slower).
void BlockStackStats(const std::vector<RawInsn>& raw, size_t start,
                     uint16_t* need_out, uint16_t* peak_out) {
  int height = 0;
  int need = 0;
  int peak = 0;
  for (size_t i = start; i < raw.size(); ++i) {
    if (i != start && raw[i].leader) break;
    const OpInfo& info = GetOpInfo(raw[i].opcode);
    need = std::max(need, info.stack_inputs - height);
    height += info.stack_outputs - info.stack_inputs;
    peak = std::max(peak, height);
    if (!info.defined || IsBlockTerminator(raw[i].opcode)) break;
  }
  constexpr int kClamp = DecodedInsn::kBlockUnsafe;
  *need_out = static_cast<uint16_t>(std::min(need, kClamp));
  *peak_out = static_cast<uint16_t>(std::min(peak, kClamp));
}

void FillComponent(const RawInsn& r, uint32_t* pc, uint16_t* gas,
                   uint8_t* opcode) {
  *pc = r.pc;
  *gas = GetOpInfo(r.opcode).gas;
  *opcode = r.opcode;
}

/// The jump label a fused jump resolves in pass 3; false for other ops.
bool FusedJumpLabel(const DecodedInsn& ins, U256* label) {
  switch (ins.ir) {
    case IrOp::kPushJump:
    case IrOp::kPushJumpi:
    case IrOp::kCmpJumpi:
    case IrOp::kIszeroJumpi:
      *label = ins.immediate;
      return true;
    case IrOp::kDispatchJumpi:
      *label = U256(ins.pc2);
      return true;
    default:
      return false;
  }
}

/// The original instructions one decoded instruction stands for.
uint32_t ComponentCount(const DecodedInsn& insn) {
  switch (insn.ir) {
    case IrOp::kBlockCheck:
    case IrOp::kUndefined:
    case IrOp::kEnd:
      return 0;
    case IrOp::kPushJump:
    case IrOp::kPushJumpi:
    case IrOp::kDupSload:
      return 2;
    case IrOp::kPushPushArith:
    case IrOp::kCmpJumpi:
    case IrOp::kIszeroJumpi:
      return 3;
    case IrOp::kDispatchJumpi:
      return 5;
    default:
      return 1;
  }
}

uint32_t ComponentGas(const DecodedInsn& insn) {
  switch (insn.ir) {
    case IrOp::kBlockCheck:
    case IrOp::kUndefined:
    case IrOp::kEnd:
      return 0;
    case IrOp::kDispatchJumpi:
      // DUP1, PUSHn, EQ, PUSHm, JUMPI.
      return uint32_t{insn.gas} + insn.gas2 + GetOpInfo(Op::kEq).gas +
             insn.gas3 + GetOpInfo(Op::kJumpi).gas;
    default:
      // Unused component slots are zero.
      return uint32_t{insn.gas} + insn.gas2 + insn.gas3;
  }
}

}  // namespace

BlockCharge ChargeAfter(const DecodedInsn* insn) {
  BlockCharge charge;
  for (++insn; insn->ir != IrOp::kBlockCheck && insn->ir != IrOp::kEnd;
       ++insn) {
    charge.gas += ComponentGas(*insn);
    charge.length += ComponentCount(*insn);
  }
  return charge;
}

std::shared_ptr<const DecodedCode> DecodeCode(BytesView code) {
  auto out = std::make_shared<DecodedCode>();
  out->code.assign(code.begin(), code.end());
  out->pc_to_insn.assign(code.size(), -1);

  // Pass 1: linear scan — parse immediates (zero-padded past the code end),
  // mark block leaders (entry, JUMPDEST, the instruction after EndsBlock).
  std::vector<RawInsn> raw;
  bool next_is_leader = true;
  for (size_t pc = 0; pc < code.size();) {
    uint8_t op = code[pc];
    const OpInfo& info = GetOpInfo(op);
    RawInsn r;
    r.pc = static_cast<uint32_t>(pc);
    r.opcode = op;
    r.leader = next_is_leader || op == static_cast<uint8_t>(Op::kJumpdest);
    if (IsPush(op)) {
      int n = PushSize(op);
      uint8_t buf[32] = {0};
      for (int i = 0; i < n; ++i) {
        size_t idx = pc + 1 + i;
        buf[32 - n + i] = idx < code.size() ? code[idx] : 0;
      }
      r.imm = U256::FromBytesBE(BytesView(buf, 32)).value();
    }
    next_is_leader = EndsBlock(op);
    raw.push_back(std::move(r));
    pc += 1 + info.immediate;
  }

  // Pass 2: emit — a kBlockCheck before every leader, then greedy fusion of
  // the hot patterns. A fused group never crosses into a leader: the second
  // and third components are checked to not start a block (they cannot be
  // JUMPDESTs, and the first component is never a terminator, but the check
  // keeps the invariant explicit).
  std::vector<DecodedInsn>& insns = out->insns;
  auto non_leader = [&](size_t j) {
    return j < raw.size() && !raw[j].leader;
  };
  auto is_op = [&](size_t j, Op op) {
    return non_leader(j) && raw[j].opcode == static_cast<uint8_t>(op);
  };
  // `PUSHm L; JUMPI` at j with a label of at most 4 bytes, so it fits the
  // 32-bit pc field.
  auto short_push_jumpi = [&](size_t j) {
    return non_leader(j) && IsPush(raw[j].opcode) &&
           PushSize(raw[j].opcode) <= 4 && is_op(j + 1, Op::kJumpi);
  };
  size_t i = 0;
  while (i < raw.size()) {
    const RawInsn& r = raw[i];
    const OpInfo& info = GetOpInfo(r.opcode);
    if (r.leader) {
      DecodedInsn bc;
      bc.ir = IrOp::kBlockCheck;
      bc.pc = r.pc;
      BlockStackStats(raw, i, &bc.block_need, &bc.block_peak);
      if (r.opcode == static_cast<uint8_t>(Op::kJumpdest)) {
        out->pc_to_insn[r.pc] = static_cast<int32_t>(insns.size());
      }
      insns.push_back(bc);
    }

    DecodedInsn ins;
    FillComponent(r, &ins.pc, &ins.gas, &ins.opcode);
    ins.inputs = static_cast<uint8_t>(info.stack_inputs);

    if (r.opcode == static_cast<uint8_t>(Op::kDup1) && non_leader(i + 1) &&
        IsPush(raw[i + 1].opcode) && is_op(i + 2, Op::kEq) &&
        short_push_jumpi(i + 3)) {
      ins.ir = IrOp::kDispatchJumpi;
      ins.immediate = raw[i + 1].imm;
      ins.pc2 = static_cast<uint32_t>(raw[i + 3].imm.low64());
      ins.opcode2 = raw[i + 1].opcode;
      ins.gas2 = GetOpInfo(raw[i + 1].opcode).gas;
      ins.opcode3 = raw[i + 3].opcode;
      ins.gas3 = GetOpInfo(raw[i + 3].opcode).gas;
      i += 5;
    } else if ((IsComparison(r.opcode) ||
                r.opcode == static_cast<uint8_t>(Op::kIszero)) &&
               short_push_jumpi(i + 1)) {
      ins.ir = IsComparison(r.opcode) ? IrOp::kCmpJumpi : IrOp::kIszeroJumpi;
      FillComponent(raw[i + 1], &ins.pc2, &ins.gas2, &ins.opcode2);
      FillComponent(raw[i + 2], &ins.pc3, &ins.gas3, &ins.opcode3);
      ins.immediate = raw[i + 1].imm;
      i += 3;
    } else if (IsPush(r.opcode) && non_leader(i + 1) && non_leader(i + 2) &&
        IsPush(raw[i + 1].opcode) && IsFoldableArith(raw[i + 2].opcode)) {
      ins.ir = IrOp::kPushPushArith;
      FillComponent(raw[i + 1], &ins.pc2, &ins.gas2, &ins.opcode2);
      FillComponent(raw[i + 2], &ins.pc3, &ins.gas3, &ins.opcode3);
      ins.immediate = FoldArith(raw[i + 2].opcode, r.imm, raw[i + 1].imm,
                                &ins.folded_overflow);
      i += 3;
    } else if (IsPush(r.opcode) && non_leader(i + 1) &&
               (raw[i + 1].opcode == static_cast<uint8_t>(Op::kJump) ||
                raw[i + 1].opcode == static_cast<uint8_t>(Op::kJumpi))) {
      ins.ir = raw[i + 1].opcode == static_cast<uint8_t>(Op::kJump)
                   ? IrOp::kPushJump
                   : IrOp::kPushJumpi;
      FillComponent(raw[i + 1], &ins.pc2, &ins.gas2, &ins.opcode2);
      ins.immediate = r.imm;
      i += 2;
    } else if (IsDup(r.opcode) && non_leader(i + 1) &&
               raw[i + 1].opcode == static_cast<uint8_t>(Op::kSload)) {
      ins.ir = IrOp::kDupSload;
      FillComponent(raw[i + 1], &ins.pc2, &ins.gas2, &ins.opcode2);
      i += 2;
    } else {
      ins.ir = IrOpFor(r.opcode);
      if (ins.ir == IrOp::kPush) ins.immediate = r.imm;
      i += 1;
    }
    insns.push_back(std::move(ins));
  }

  DecodedInsn end;
  end.ir = IrOp::kEnd;
  end.pc = static_cast<uint32_t>(code.size());
  insns.push_back(end);

  // Pass 3: resolve fused jump targets against the finished JUMPDEST table;
  // a label is valid iff its full value is a JUMPDEST pc.
  for (DecodedInsn& ins : insns) {
    U256 label;
    if (!FusedJumpLabel(ins, &label) || !label.FitsU64()) continue;
    const uint64_t dest = label.low64();
    if (dest < code.size() && out->pc_to_insn[dest] >= 0) {
      ins.jump_target = out->pc_to_insn[dest];
    }
  }

  // Pass 4: each kBlockCheck's static charge. A block has fewer original
  // instructions than the code has bytes, so the count fits its field.
  for (DecodedInsn& ins : insns) {
    if (ins.ir != IrOp::kBlockCheck) continue;
    const BlockCharge block = ChargeAfter(&ins);
    ins.pc3 = static_cast<uint32_t>(block.length);
    if (block.gas <= UINT32_MAX) {
      ins.pc2 = static_cast<uint32_t>(block.gas);
    } else {
      // Too much gas for the field: the block always runs per-op.
      ins.block_need = DecodedInsn::kBlockUnsafe;
    }
  }

  return out;
}

std::shared_ptr<const DecodedCode> CodeCache::GetOrDecode(const Bytes& code) {
  auto key = Keccak256(BytesView(code.data(), code.size()));
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      ++stats_.hits;
      return it->second;
    }
    ++stats_.misses;
  }
  auto start = std::chrono::steady_clock::now();
  auto decoded = DecodeCode(BytesView(code.data(), code.size()));
  auto elapsed = std::chrono::steady_clock::now() - start;

  std::lock_guard<std::mutex> lock(mu_);
  stats_.decode_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  // Two threads may race to decode the same code; the first insert wins so
  // every session shares one immutable instance.
  auto [it, inserted] = map_.try_emplace(key, std::move(decoded));
  return it->second;
}

CodeCacheStats CodeCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CodeCacheStats s = stats_;
  s.entries = map_.size();
  return s;
}

size_t CodeCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return map_.size();
}

CodeCache* CodeCache::Global() {
  static CodeCache* cache = new CodeCache();
  return cache;
}

}  // namespace mufuzz::evm
