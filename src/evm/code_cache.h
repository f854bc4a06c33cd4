#ifndef MUFUZZ_EVM_CODE_CACHE_H_
#define MUFUZZ_EVM_CODE_CACHE_H_

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/u256.h"
#include "evm/opcodes.h"

namespace mufuzz::evm {

/// Handler selector for one decoded instruction. The decoded-dispatch loop
/// (interpreter_decoded.cc) keys its computed-goto table — or the portable
/// switch fallback — on this, so the hot loop never touches the raw opcode
/// byte except to report it in observer events.
enum class IrOp : uint8_t {
  /// Pseudo-instruction inserted before every block leader. When the entry
  /// stack height proves the block's stack effects in bounds, no step
  /// observer is set, and the gas and step budgets cover the whole block,
  /// it charges the block's static gas, steps and instruction count at once
  /// and the block runs without per-op bookkeeping (block mode); otherwise
  /// the block runs the byte path's per-op bookkeeping and checks. Emits
  /// nothing itself.
  kBlockCheck = 0,
  kStop,
  kArith,          ///< ADD..SIGNEXTEND (binary arithmetic)
  kAddmodMulmod,
  kCmp,            ///< LT/GT/SLT/SGT/EQ — records a CmpRecord
  kIszero,
  kBitwise,        ///< AND/OR/XOR
  kNot,
  kByte,
  kShift,          ///< SHL/SHR/SAR
  kKeccak,
  kAddress,
  kBalance,
  kSelfbalance,
  kOrigin,
  kCaller,
  kCallvalue,
  kCalldataload,
  kCalldatasize,
  kCalldatacopy,
  kCodesize,
  kCodecopy,
  kGasprice,
  kReturndatasize,
  kReturndatacopy,
  kBlockhash,
  kBlockRead,      ///< COINBASE/TIMESTAMP/NUMBER/DIFFICULTY/GASLIMIT
  kPop,
  kMload,
  kMstore,
  kMstore8,
  kSload,
  kSstore,
  kJump,
  kJumpi,
  kPc,
  kMsize,
  kGas,
  kJumpdest,
  kReturnRevert,
  kInvalid,        ///< INVALID (0xfe)
  kSelfdestruct,
  kCreate,
  kCallFamily,     ///< CALL/CALLCODE/DELEGATECALL/STATICCALL
  kPush,           ///< PUSH1..PUSH32, immediate pre-parsed
  kDup,
  kSwap,
  kLog,
  kUndefined,      ///< hole in the opcode space — halts without an OnStep
  // Fused superinstructions. Legal because jumps can only land on
  // JUMPDESTs, so control flow can never enter the middle of a fused pair;
  // each fused handler still performs the per-component step/event/gas
  // bookkeeping so the observable stream is bit-for-bit the byte path's.
  kPushJump,       ///< PUSHn imm; JUMP — target pre-resolved at decode
  kPushJumpi,      ///< PUSHn imm; JUMPI — target pre-resolved at decode
  kDupSload,       ///< DUPn; SLOAD — key read in place, no push/pop round trip
  kPushPushArith,  ///< PUSHa; PUSHb; (ADD|MUL|SUB|DIV|AND|OR|XOR) — folded
  /// DUP1; PUSHn s; EQ; PUSHm L; JUMPI (m <= 4) — one case of MiniSol's
  /// linear selector dispatcher; the selector is compared in place.
  kDispatchJumpi,
  kCmpJumpi,       ///< (LT|GT|SLT|SGT|EQ); PUSHm L; JUMPI (m <= 4)
  kIszeroJumpi,    ///< ISZERO; PUSHm L; JUMPI (m <= 4)
  kEnd,            ///< sentinel past the last instruction: implicit STOP
};

inline constexpr int kIrOpCount = static_cast<int>(IrOp::kEnd) + 1;

/// One pre-decoded instruction. For fused superinstructions the
/// (pc, opcode, gas) triples of the second/third original instructions ride
/// along so the handler can replicate the byte path's per-instruction
/// bookkeeping (step limit, OnStep, gas charge) exactly.
///
/// kDispatchJumpi has five components and no room for five triples, so it
/// lays the fields out differently: `immediate` is the selector s, `pc` the
/// DUP1's pc, `opcode2`/`gas2` the PUSHn and `opcode3`/`gas3` the PUSHm;
/// `pc2` holds the jump label L. The other component pcs follow from `pc`
/// and the two PUSH widths, and EQ and JUMPI are fixed opcodes.
struct DecodedInsn {
  /// Pre-parsed PUSH immediate (zero-padded when the data runs off the code
  /// end, per EVM semantics), the jump label for fused jumps, the folded
  /// constant for kPushPushArith, or the selector for kDispatchJumpi.
  U256 immediate;
  uint32_t pc = 0;        ///< byte pc of the (first) original instruction
  /// Second fused component (kDispatchJumpi: L; kBlockCheck: the block's
  /// static gas sum, see BlockGas).
  uint32_t pc2 = 0;
  /// Third fused component (kBlockCheck: the block's count of original
  /// instructions, see BlockLength).
  uint32_t pc3 = 0;
  /// Pre-resolved instruction index for fused jumps (the target block's
  /// kBlockCheck); -1 when the label is not a valid JUMPDEST.
  int32_t jump_target = -1;
  /// kBlockCheck: minimum stack height required to run the whole block
  /// without underflow, and the peak net growth above the entry height.
  /// Both clamped to kBlockUnsafe when the block can never run unchecked.
  uint16_t block_need = 0;
  uint16_t block_peak = 0;
  uint16_t gas = 0;       ///< static gas of the (first) original instruction
  uint16_t gas2 = 0;
  uint16_t gas3 = 0;
  uint8_t opcode = 0;     ///< original opcode byte (observer events carry it)
  uint8_t opcode2 = 0;
  uint8_t opcode3 = 0;
  uint8_t inputs = 0;     ///< stack arity of the original instruction
  IrOp ir = IrOp::kEnd;
  bool folded_overflow = false;  ///< kPushPushArith: constant-folded op wraps

  static constexpr uint16_t kBlockUnsafe = 2048;

  /// kBlockCheck: the static gas of every original instruction in the block.
  uint32_t BlockGas() const { return pc2; }
  /// kBlockCheck: the block's original instructions, fused components
  /// included and a trailing undefined opcode excluded (it never counts).
  uint32_t BlockLength() const { return pc3; }
};
// One instruction per cache line: new shapes reuse fields, never add any.
static_assert(sizeof(DecodedInsn) == 64);

/// The static charge of the decoded instructions after `insn`, up to the end
/// of its block: their gas, and their count of original instructions (fused
/// components included; an undefined opcode counts as none, as in the byte
/// loop). After a kBlockCheck that is its whole block; the decoded loop uses
/// it to give back the part of a block that a halt leaves unexecuted.
struct BlockCharge {
  uint64_t gas = 0;
  uint64_t length = 0;
};
BlockCharge ChargeAfter(const DecodedInsn* insn);

/// The immutable decode of one contract's bytecode: a flat instruction
/// array (kEnd-terminated), the original bytes (CODESIZE/CODECOPY and the
/// byte-switch oracle read them), and the pre-validated jump-target table.
/// Shared read-only across sessions and worker threads via shared_ptr.
struct DecodedCode {
  Bytes code;
  std::vector<DecodedInsn> insns;
  /// pc -> instruction index of the block entry (kBlockCheck) for every
  /// valid JUMPDEST; -1 elsewhere. Sized code.size() for O(1) validation —
  /// this replaces the byte-switch loop's per-frame JUMPDEST set.
  std::vector<int32_t> pc_to_insn;
};

/// Decodes raw bytecode into the linear IR (leader marking, block
/// stack-effect and static-charge aggregation, superinstruction fusion, jump
/// pre-resolution). A block is a basic block, except that GAS and the CALL
/// family also end one: GAS reads the gas left and a call runs frames that
/// share the step counter, so both must see them exact.
std::shared_ptr<const DecodedCode> DecodeCode(BytesView code);

/// Cumulative counters of one CodeCache. Hit/miss counts depend on how many
/// sessions executed — they are observability, not semantics, and
/// are excluded from CampaignResult equality.
struct CodeCacheStats {
  uint64_t entries = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t decode_ns = 0;  ///< total wall time spent decoding

  friend bool operator==(const CodeCacheStats&, const CodeCacheStats&) =
      default;
};

/// Content-addressed (keccak-of-code) cache of DecodedCode. Insert-only and
/// mutex-protected, so concurrent sessions deploying the same contract share
/// one decode per process instead of one per session. Decoding
/// runs outside the lock; when two threads race on the same code the first
/// insert wins and both receive the same shared instance.
class CodeCache {
 public:
  std::shared_ptr<const DecodedCode> GetOrDecode(const Bytes& code);

  CodeCacheStats stats() const;
  size_t size() const;

  /// The process-wide default cache (used when EvmConfig::code_cache is
  /// null). Intentionally leaked: sessions on detached worker threads may
  /// outlive static destruction order.
  static CodeCache* Global();

 private:
  struct KeyHasher {
    size_t operator()(const std::array<uint8_t, 32>& key) const {
      size_t h;
      static_assert(sizeof(h) <= 32);
      __builtin_memcpy(&h, key.data(), sizeof(h));
      return h;
    }
  };

  mutable std::mutex mu_;
  std::unordered_map<std::array<uint8_t, 32>,
                     std::shared_ptr<const DecodedCode>, KeyHasher>
      map_;
  CodeCacheStats stats_;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_CODE_CACHE_H_
