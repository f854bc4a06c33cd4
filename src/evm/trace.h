#ifndef MUFUZZ_EVM_TRACE_H_
#define MUFUZZ_EVM_TRACE_H_

#include <cstdint>
#include <utility>
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

/// Emitted when ADD/SUB/MUL wraps modulo 2^256.
struct OverflowEvent {
  uint32_t pc = 0;
  Op op = Op::kAdd;
  uint32_t operand_taint = kTaintNone;
  int depth = 0;
};

/// Emitted at SELFDESTRUCT.
struct SelfdestructEvent {
  uint32_t pc = 0;
  Address beneficiary;
  bool caller_guard_seen = false;
  int depth = 0;
};

/// Records the events of one transaction that the bug oracles and the
/// coverage/distance feedback read: branches (coverage, distances, BD, TO,
/// SE), calls (BD, UD, RE, UE), overflows (IO and the keep verdict),
/// selfdestructs (US), checked calls (UE), and the instruction count. The
/// comparison records BranchEvent::cmp_id indexes into live in the
/// interpreter (Interpreter::TakeCmpRecords).
///
/// The interpreter holds a TraceRecorder* and appends to it directly: every
/// event hook is an inline push_back, not a virtual call. The one virtual
/// hook is the per-instruction stream, which is opt-in: the interpreter
/// calls OnStep only for a recorder constructed with `step_stream` set (the
/// differential tests' full trace is one), so the production path makes no
/// virtual call per instruction. Every recorder gets the instruction count
/// instead, once per top-level transaction, through OnInstructions.
class TraceRecorder {
 public:
  TraceRecorder() = default;
  explicit TraceRecorder(bool step_stream) : step_stream_(step_stream) {}
  // Declaring the destructor suppresses the implicit moves, so all five are
  // spelled out: outcomes are relocated by move, and a recorder without
  // its moves would copy every event vector instead.
  virtual ~TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = default;
  TraceRecorder& operator=(const TraceRecorder&) = default;
  TraceRecorder(TraceRecorder&&) noexcept = default;
  TraceRecorder& operator=(TraceRecorder&&) noexcept = default;

  bool step_stream() const { return step_stream_; }

  /// One executed instruction; only called when step_stream() is set.
  virtual void OnStep(uint32_t /*pc*/, uint8_t /*opcode*/, int /*depth*/) {}
  /// Called at the end of each Interpreter::ExecuteTransaction with the
  /// number of instructions it executed, re-entered frames included: exactly
  /// the number of OnStep calls a step-stream recorder saw for it.
  void OnInstructions(uint64_t count) { instruction_count_ += count; }
  void OnBranch(const BranchEvent& ev) { branches_.push_back(ev); }
  void OnCall(const CallEvent& ev) { calls_.push_back(ev); }
  void OnOverflow(const OverflowEvent& ev) { overflows_.push_back(ev); }
  void OnSelfdestruct(const SelfdestructEvent& ev) {
    selfdestructs_.push_back(ev);
  }
  /// A failed external call's status word reached a JUMPI (exception handled).
  void OnCallResultChecked(int32_t call_id) {
    checked_calls_.push_back(call_id);
  }

  const std::vector<BranchEvent>& branches() const { return branches_; }
  const std::vector<CallEvent>& calls() const { return calls_; }
  const std::vector<OverflowEvent>& overflows() const { return overflows_; }
  const std::vector<SelfdestructEvent>& selfdestructs() const {
    return selfdestructs_;
  }
  const std::vector<int32_t>& checked_calls() const { return checked_calls_; }
  uint64_t instruction_count() const { return instruction_count_; }

  void Clear() {
    branches_.clear();
    calls_.clear();
    overflows_.clear();
    selfdestructs_.clear();
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
    calls_.swap(other->calls_);
    overflows_.swap(other->overflows_);
    selfdestructs_.swap(other->selfdestructs_);
    checked_calls_.swap(other->checked_calls_);
    std::swap(instruction_count_, other->instruction_count_);
  }

  /// Shrink-to-reuse hygiene: frees any event buffer whose capacity grew
  /// past `max_events` (a pathological sequence shouldn't pin its peak
  /// footprint in a reused outcome slot forever). Call after Clear().
  void ShrinkIfOversized(size_t max_events) {
    if (branches_.capacity() > max_events) branches_.shrink_to_fit();
    if (calls_.capacity() > max_events) calls_.shrink_to_fit();
    if (overflows_.capacity() > max_events) overflows_.shrink_to_fit();
    if (selfdestructs_.capacity() > max_events) selfdestructs_.shrink_to_fit();
    if (checked_calls_.capacity() > max_events) checked_calls_.shrink_to_fit();
  }

 private:
  bool step_stream_ = false;
  std::vector<BranchEvent> branches_;
  std::vector<CallEvent> calls_;
  std::vector<OverflowEvent> overflows_;
  std::vector<SelfdestructEvent> selfdestructs_;
  std::vector<int32_t> checked_calls_;
  uint64_t instruction_count_ = 0;
};

/// Branch-distance computation from a comparison record (§IV-B): how far is
/// the recorded comparison from evaluating to `want_true`? Zero means it
/// already does; the fuzzer minimizes this to approach hard branches.
uint64_t BranchDistance(const CmpRecord& cmp, bool want_true);

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_TRACE_H_
