#ifndef MUFUZZ_EVM_TRACE_H_
#define MUFUZZ_EVM_TRACE_H_

#include <cstdint>
#include <vector>

#include "common/address.h"
#include "common/u256.h"
#include "evm/opcodes.h"
#include "evm/taint.h"

namespace mufuzz::evm {

/// Comparison operators recorded for branch-distance feedback.
enum class CmpOp : uint8_t { kEq, kLt, kGt, kSlt, kSgt, kIsZero };

/// One recorded comparison: `a OP b`, possibly negated by an ISZERO chain.
/// The branch-distance metric (§IV-B) is computed from these operands.
struct CmpRecord {
  CmpOp op;
  U256 a;
  U256 b;
  bool negated = false;
  uint32_t taint = kTaintNone;  ///< union of operand taints
};

/// Emitted at every JUMPI.
struct BranchEvent {
  uint32_t pc = 0;          ///< pc of the JUMPI
  uint32_t dest = 0;        ///< jump destination operand
  bool taken = false;       ///< condition was non-zero
  int32_t cmp_id = -1;      ///< comparison that produced the condition
  int32_t call_id = -1;     ///< CALL whose status fed the condition, if any
  uint32_t cond_taint = kTaintNone;
  int depth = 0;            ///< call depth
};

/// Emitted at every CALL / DELEGATECALL / STATICCALL.
struct CallEvent {
  uint32_t pc = 0;
  Op kind = Op::kCall;
  Address target;
  U256 value;
  uint64_t gas = 0;
  bool success = false;
  bool to_external = false;    ///< target had no code in the world state
  uint32_t target_taint = kTaintNone;
  uint32_t value_taint = kTaintNone;
  int depth = 0;
  int32_t call_id = -1;        ///< unique id; status words reference it
  bool caller_guard_seen = false;  ///< a msg.sender check dominated this call
};

/// Emitted at every SSTORE.
struct StoreEvent {
  uint32_t pc = 0;
  U256 key;
  U256 value;
  uint32_t value_taint = kTaintNone;
  int depth = 0;
};

/// Emitted when ADD/SUB/MUL wraps modulo 2^256.
struct OverflowEvent {
  uint32_t pc = 0;
  Op op = Op::kAdd;
  uint32_t operand_taint = kTaintNone;
  bool result_stored = false;  ///< filled post-hoc if the value reached SSTORE
  int depth = 0;
};

/// Emitted at SELFDESTRUCT.
struct SelfdestructEvent {
  uint32_t pc = 0;
  Address beneficiary;
  bool caller_guard_seen = false;
  int depth = 0;
};

/// Emitted when BALANCE/SELFBALANCE executes.
struct BalanceReadEvent {
  uint32_t pc = 0;
  int depth = 0;
};

/// Emitted when a block-state opcode (TIMESTAMP, NUMBER, ...) executes.
struct BlockReadEvent {
  uint32_t pc = 0;
  Op op = Op::kTimestamp;
  int depth = 0;
};

/// Observer interface the interpreter reports into. The fuzzer installs a
/// TraceRecorder; a no-op default keeps the interpreter usable standalone.
///
/// The per-instruction stream is opt-in: the interpreter calls OnStep only
/// for an observer constructed with `step_stream` set (the differential
/// tests' full trace is one), so the production path makes no virtual call
/// per instruction. Every observer gets the instruction count instead,
/// once per top-level transaction, through OnInstructions.
class ExecObserver {
 public:
  ExecObserver() = default;
  explicit ExecObserver(bool step_stream) : step_stream_(step_stream) {}
  virtual ~ExecObserver() = default;

  bool step_stream() const { return step_stream_; }

  /// One executed instruction; only called when step_stream() is set.
  virtual void OnStep(uint32_t /*pc*/, uint8_t /*opcode*/, int /*depth*/) {}
  /// Called at the end of each Interpreter::ExecuteTransaction with the
  /// number of instructions it executed, re-entered frames included: exactly
  /// the number of OnStep calls a step-stream observer saw for it.
  virtual void OnInstructions(uint64_t /*count*/) {}
  virtual void OnBranch(const BranchEvent&) {}
  virtual void OnJump(uint32_t /*from_pc*/, uint32_t /*to_pc*/,
                      int /*depth*/) {}
  virtual void OnCall(const CallEvent&) {}
  virtual void OnStore(const StoreEvent&) {}
  virtual void OnOverflow(const OverflowEvent&) {}
  virtual void OnSelfdestruct(const SelfdestructEvent&) {}
  virtual void OnBalanceRead(const BalanceReadEvent&) {}
  virtual void OnBlockRead(const BlockReadEvent&) {}
  /// A failed external call's status word reached a JUMPI (exception handled).
  virtual void OnCallResultChecked(int32_t /*call_id*/) {}

 private:
  bool step_stream_ = false;
};

/// Records the full event stream of one transaction; the bug oracles and the
/// coverage/distance feedback consume this.
class TraceRecorder : public ExecObserver {
 public:
  TraceRecorder() = default;
  explicit TraceRecorder(bool step_stream) : ExecObserver(step_stream) {}

  void OnInstructions(uint64_t count) override { instruction_count_ += count; }
  void OnBranch(const BranchEvent& ev) override { branches_.push_back(ev); }
  void OnJump(uint32_t from, uint32_t to, int depth) override {
    jumps_.push_back({from, to, depth});
  }
  void OnCall(const CallEvent& ev) override { calls_.push_back(ev); }
  void OnStore(const StoreEvent& ev) override { stores_.push_back(ev); }
  void OnOverflow(const OverflowEvent& ev) override {
    overflows_.push_back(ev);
  }
  void OnSelfdestruct(const SelfdestructEvent& ev) override {
    selfdestructs_.push_back(ev);
  }
  void OnBalanceRead(const BalanceReadEvent& ev) override {
    balance_reads_.push_back(ev);
  }
  void OnBlockRead(const BlockReadEvent& ev) override {
    block_reads_.push_back(ev);
  }
  void OnCallResultChecked(int32_t call_id) override {
    checked_calls_.push_back(call_id);
  }

  struct JumpEdge {
    uint32_t from;
    uint32_t to;
    int depth;
  };

  const std::vector<BranchEvent>& branches() const { return branches_; }
  const std::vector<JumpEdge>& jumps() const { return jumps_; }
  const std::vector<CallEvent>& calls() const { return calls_; }
  const std::vector<StoreEvent>& stores() const { return stores_; }
  const std::vector<OverflowEvent>& overflows() const { return overflows_; }
  const std::vector<SelfdestructEvent>& selfdestructs() const {
    return selfdestructs_;
  }
  const std::vector<BalanceReadEvent>& balance_reads() const {
    return balance_reads_;
  }
  const std::vector<BlockReadEvent>& block_reads() const {
    return block_reads_;
  }
  const std::vector<int32_t>& checked_calls() const { return checked_calls_; }
  uint64_t instruction_count() const { return instruction_count_; }

  void Clear() {
    branches_.clear();
    jumps_.clear();
    calls_.clear();
    stores_.clear();
    overflows_.clear();
    selfdestructs_.clear();
    balance_reads_.clear();
    block_reads_.clear();
    checked_calls_.clear();
    instruction_count_ = 0;
  }

  /// O(1) capacity exchange — the recycle discipline of the execution
  /// backend: the recorder that accumulated a transaction's events swaps
  /// into the outcome slot, and the slot's (cleared) buffers swap back to
  /// record the next transaction. No event vector is ever reallocated in
  /// steady state.
  void Swap(TraceRecorder* other) {
    branches_.swap(other->branches_);
    jumps_.swap(other->jumps_);
    calls_.swap(other->calls_);
    stores_.swap(other->stores_);
    overflows_.swap(other->overflows_);
    selfdestructs_.swap(other->selfdestructs_);
    balance_reads_.swap(other->balance_reads_);
    block_reads_.swap(other->block_reads_);
    checked_calls_.swap(other->checked_calls_);
    std::swap(instruction_count_, other->instruction_count_);
  }

  /// Shrink-to-reuse hygiene: frees any event buffer whose capacity grew
  /// past `max_events` (a pathological sequence shouldn't pin its peak
  /// footprint in the recycle pools forever). Call after Clear().
  void ShrinkIfOversized(size_t max_events) {
    if (branches_.capacity() > max_events) branches_.shrink_to_fit();
    if (jumps_.capacity() > max_events) jumps_.shrink_to_fit();
    if (calls_.capacity() > max_events) calls_.shrink_to_fit();
    if (stores_.capacity() > max_events) stores_.shrink_to_fit();
    if (overflows_.capacity() > max_events) overflows_.shrink_to_fit();
    if (selfdestructs_.capacity() > max_events) selfdestructs_.shrink_to_fit();
    if (balance_reads_.capacity() > max_events) balance_reads_.shrink_to_fit();
    if (block_reads_.capacity() > max_events) block_reads_.shrink_to_fit();
    if (checked_calls_.capacity() > max_events) checked_calls_.shrink_to_fit();
  }

 private:
  std::vector<BranchEvent> branches_;
  std::vector<JumpEdge> jumps_;
  std::vector<CallEvent> calls_;
  std::vector<StoreEvent> stores_;
  std::vector<OverflowEvent> overflows_;
  std::vector<SelfdestructEvent> selfdestructs_;
  std::vector<BalanceReadEvent> balance_reads_;
  std::vector<BlockReadEvent> block_reads_;
  std::vector<int32_t> checked_calls_;
  uint64_t instruction_count_ = 0;
};

/// Branch-distance computation from a comparison record (§IV-B): how far is
/// the recorded comparison from evaluating to `want_true`? Zero means it
/// already does; the fuzzer minimizes this to approach hard branches.
uint64_t BranchDistance(const CmpRecord& cmp, bool want_true);

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_TRACE_H_
