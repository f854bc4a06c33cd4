#ifndef MUFUZZ_EVM_INTERPRETER_H_
#define MUFUZZ_EVM_INTERPRETER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/address.h"
#include "common/bytes.h"
#include "common/u256.h"
#include "evm/frame_arena.h"
#include "evm/host.h"
#include "evm/trace.h"
#include "evm/world_state.h"

namespace mufuzz::evm {

class CodeCache;
struct DecodedCode;

/// The test tree's byte-switch oracle (tests/evm/byte_switch_oracle.h):
/// the only code that may put an Interpreter on another frame loop.
struct ByteSwitchOracle;

/// Interpreter limits. The step cap is a belt-and-braces guard on top of gas
/// so a mis-priced loop cannot wedge a fuzzing campaign.
struct EvmConfig {
  uint64_t tx_gas_limit = 10000000;
  int max_call_depth = 12;
  uint64_t max_steps = 2000000;
  /// Cache for pre-decoded bytecode; nullptr means CodeCache::Global() (one
  /// decode per contract per process, shared across sessions and workers).
  CodeCache* code_cache = nullptr;
};

/// A message call to execute: `to` receives the call and supplies the storage
/// context; `code_address` supplies the code (differs from `to` only for
/// DELEGATECALL).
struct MessageCall {
  Address to;
  Address code_address;
  Address caller;
  Address origin;
  U256 value;
  Bytes data;
  uint64_t gas = 0;
  bool is_static = false;
  int depth = 0;
};

/// Why an execution frame stopped.
enum class Outcome {
  kSuccess,       ///< STOP / RETURN / SELFDESTRUCT
  kRevert,        ///< REVERT
  kOutOfGas,
  kInvalidOp,     ///< INVALID or undefined opcode
  kStackError,    ///< under/overflow
  kBadJump,       ///< jump target is not a JUMPDEST
  kMemoryError,   ///< memory expansion beyond the cap
  kDepthExceeded,
  kStepLimit,
  kStaticViolation,  ///< state mutation inside STATICCALL
  kBalanceError,     ///< value transfer without funds
};

const char* OutcomeToString(Outcome outcome);

/// Result of one message call (or one transaction at depth zero).
struct ExecResult {
  Outcome outcome = Outcome::kSuccess;
  Bytes output;
  uint64_t gas_used = 0;

  bool Success() const { return outcome == Outcome::kSuccess; }
  bool Reverted() const { return outcome == Outcome::kRevert; }
};

/// BLOCKHASH's preimage: the block number as 8 big-endian bytes, built on
/// the stack so the handler stays allocation-free.
inline std::array<uint8_t, 8> BlockhashSeed(uint64_t number) {
  std::array<uint8_t, 8> seed;
  for (int i = 0; i < 8; ++i) {
    seed[i] = static_cast<uint8_t>(number >> (56 - 8 * i));
  }
  return seed;
}

/// RETURNDATACOPY's bounds rule (EIP-211): the range [offset, offset + len)
/// must lie inside the return data, whatever the length.
inline bool ReturnDataInBounds(const U256& offset, uint64_t len,
                               size_t size) {
  if (!offset.FitsU64()) return false;
  const uint64_t start = offset.low64();
  return start <= size && len <= size - start;
}

/// KECCAK256's per-word gas: 6 for each 32-byte word of input, counted
/// without overflow for any 64-bit length.
inline uint64_t KeccakWordGas(uint64_t length) {
  return 6 * (length / 32 + (length % 32 != 0 ? 1 : 0));
}

/// Direct-mapped memo of KECCAK256 over short inputs. Contracts hash the
/// same few 32/64-byte words (mapping slots: key || slot index) over and
/// over, so a small table keyed on the exact input bytes turns almost every
/// hash into a compare. Entries are overwritten on collision; a hit returns
/// exactly what Keccak256 would.
class Keccak256Memo {
 public:
  /// Inputs longer than this bypass the table.
  static constexpr size_t kMaxInput = 64;

  U256 Hash(BytesView input);

 private:
  static constexpr int kIndexBits = 5;
  static constexpr size_t kEntries = size_t{1} << kIndexBits;

  struct Entry {
    uint8_t len = 0xff;  ///< input length; 0xff marks an empty entry
    uint8_t input[kMaxInput];
    U256 digest;
  };

  std::array<Entry, kEntries> entries_;
};

/// The EVM bytecode interpreter with instrumentation hooks.
///
/// One instance executes transactions against a WorldState. Nested CALLs to
/// in-state contracts recurse internally; calls to code-less addresses are
/// delegated to the Host (which may re-enter via ReentryHandle). The
/// recorder receives branch, call, overflow, selfdestruct and checked-call
/// events — the feedback channels MuFuzz's three components consume.
class Interpreter : public ReentryHandle {
  friend struct ByteSwitchOracle;

 public:
  Interpreter(WorldState* state, Host* host, BlockContext block,
              EvmConfig config = EvmConfig());

  /// Recorder for instrumentation events; may be nullptr. OnStep reaches it
  /// only if it opted into the step stream (TraceRecorder::step_stream).
  void set_observer(TraceRecorder* observer) {
    observer_ = observer;
    step_observer_ =
        observer != nullptr && observer->step_stream() ? observer : nullptr;
  }

  /// Executes a top-level message call. Reverts all state changes if the
  /// outcome is not success. Comparison records and call ids reset per call.
  ExecResult ExecuteTransaction(const MessageCall& call);

  /// Comparison records accumulated during the last ExecuteTransaction;
  /// BranchEvent::cmp_id indexes into this.
  const std::vector<CmpRecord>& cmp_records() const { return cmp_records_; }

  /// Steals the last transaction's comparison records into `out` (cleared
  /// first), handing the interpreter `out`'s warm buffer in exchange — the
  /// allocation-free alternative to copying cmp_records() per transaction.
  void TakeCmpRecords(std::vector<CmpRecord>* out) {
    out->clear();
    out->swap(cmp_records_);
  }

  /// ReentryHandle: used by adversarial hosts to call back into contracts.
  bool Reenter(const Address& target, const Address& sender,
               const U256& value, const Bytes& data, uint64_t gas) override;

  const BlockContext& block() const { return block_; }
  void set_block(const BlockContext& block) { block_ = block; }

  /// The code cache this interpreter decodes through (never null).
  CodeCache* code_cache() const { return cache_; }

  /// External calls handed to Host::OnExternalCall so far (monotonic). The
  /// execution backend diffs it around a transaction: a transaction that
  /// never consulted the host is a pure function of the pre-state and the
  /// request.
  uint64_t host_calls() const { return host_calls_; }

 private:
  /// Runs one call frame (recursively for nested calls): resolves the
  /// callee's DecodedCode (memoized on the account, shared via the cache)
  /// and hands off to RunFrameDecoded, or to frame_loop_ when one is
  /// installed. Nested CALL frames and Reenter come back through here, so
  /// they run on the same loop. State snapshots for nested frames are
  /// managed by the caller of RunFrame.
  ExecResult RunFrame(const MessageCall& call);

  /// The threaded-dispatch IR loop (interpreter_decoded.cc). Bit-for-bit
  /// equivalent to the tests' byte-switch oracle in outcome, gas, state
  /// journal, and every observer event (events carry original byte pcs, not
  /// IR indices).
  ExecResult RunFrameDecoded(const MessageCall& call,
                             const DecodedCode& decoded);

  /// Checks out the next free frame arena (Reset, ready to use). Arenas are
  /// pooled with stack discipline — every live frame holds exactly one, so
  /// indexing by an acquisition counter stays correct under host reentry,
  /// where two frames can share a `call.depth`.
  FrameArena& AcquireFrameArena() {
    if (arena_top_ == frame_arenas_.size()) {
      frame_arenas_.push_back(std::make_unique<FrameArena>());
    }
    FrameArena& arena = *frame_arenas_[arena_top_++];
    arena.Reset();
    return arena;
  }

  /// RAII checkout of a frame arena for the duration of one RunFrame* body
  /// (they return from many places; the lease releases on every path).
  struct ArenaLease {
    explicit ArenaLease(Interpreter* interp)
        : interp(interp), arena(interp->AcquireFrameArena()) {}
    ~ArenaLease() { --interp->arena_top_; }
    ArenaLease(const ArenaLease&) = delete;
    ArenaLease& operator=(const ArenaLease&) = delete;

    Interpreter* interp;
    FrameArena& arena;
  };

  WorldState* state_;
  Host* host_;
  BlockContext block_;
  EvmConfig config_;
  CodeCache* cache_ = nullptr;
  /// A frame loop in place of RunFrameDecoded. Null (the default) runs the
  /// decoded loop; only ByteSwitchOracle sets it, once per interpreter.
  using FrameLoop = ExecResult (*)(Interpreter& interp,
                                   const MessageCall& call,
                                   const DecodedCode& decoded);
  FrameLoop frame_loop_ = nullptr;
  TraceRecorder* observer_ = nullptr;
  /// observer_ when it takes the step stream, else nullptr.
  TraceRecorder* step_observer_ = nullptr;

  std::vector<CmpRecord> cmp_records_;
  int32_t next_call_id_ = 0;
  /// Step-limit counter: every dispatched instruction, undefined opcodes and
  /// the step that hits the limit included.
  uint64_t steps_ = 0;
  /// Instructions the observer is told about (OnInstructions): the steps
  /// that pass the step-limit and defined-opcode checks, i.e. exactly those
  /// a step-stream observer receives through OnStep.
  uint64_t instructions_ = 0;
  int reenter_depth_ = 0;
  uint64_t host_calls_ = 0;
  /// Used by the decoded loop; the tests' byte-switch oracle calls
  /// Keccak256 directly, so the differential suites check the memo.
  Keccak256Memo keccak_memo_;
  /// Stack-disciplined pool of frame arenas (see FrameArena): arenas_[i]
  /// belongs to the i-th live frame on this interpreter's call stack.
  /// Capacity persists for the session lifetime, so steady-state frames
  /// reuse warm containers instead of constructing fresh ones.
  std::vector<std::unique_ptr<FrameArena>> frame_arenas_;
  size_t arena_top_ = 0;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_INTERPRETER_H_
