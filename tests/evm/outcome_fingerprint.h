#ifndef MUFUZZ_TESTS_EVM_OUTCOME_FINGERPRINT_H_
#define MUFUZZ_TESTS_EVM_OUTCOME_FINGERPRINT_H_

#include <ostream>
#include <string>
#include <type_traits>

#include "evm/execution_backend.h"

namespace mufuzz::evm {

/// One interpreter tier of a parameterized backend suite.
struct BackendCase {
  std::string name;
  DispatchMode dispatch;
};

/// Prints the case by name, so test names carry no object bytes.
inline void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.name; }

/// Appends `fields` to `fp`, space-separated, as one event record.
template <typename... Fields>
inline void Put(std::string* fp, const Fields&... fields) {
  auto put = [fp](const auto& f) {
    using F = std::decay_t<decltype(f)>;
    if constexpr (std::is_same_v<F, U256> || std::is_same_v<F, Address>) {
      *fp += f.ToHex();
    } else if constexpr (std::is_enum_v<F>) {
      *fp += std::to_string(static_cast<int>(f));
    } else {
      *fp += std::to_string(f);
    }
    *fp += ' ';
  };
  (put(fields), ...);
  *fp += ';';
}

/// Everything observable about an outcome, flattened for EXPECT_EQ diffs:
/// every field of every recorded event, so a path that hands back a stale
/// or partial event cannot compare equal.
inline std::string Fingerprint(const SequenceOutcome& outcome) {
  std::string fp = "instr=" + std::to_string(outcome.instructions);
  for (const TxOutcome& txo : outcome.txs) {
    const TraceRecorder& t = txo.trace;
    fp += "\n| tag=" + std::to_string(txo.tag) +
          " ok=" + std::to_string(txo.success) +
          " out=" + std::to_string(static_cast<int>(txo.outcome)) +
          " gas=" + std::to_string(txo.gas_used) +
          " in=" + std::to_string(t.instruction_count());
    fp += "\n  cmps: ";
    for (const CmpRecord& c : txo.cmps) {
      Put(&fp, c.op, c.a, c.b, c.negated, c.taint);
    }
    fp += "\n  br: ";
    for (const BranchEvent& e : t.branches()) {
      Put(&fp, e.pc, e.taken, e.cmp_id, e.call_id, e.cond_taint, e.depth);
    }
    fp += "\n  calls: ";
    for (const CallEvent& e : t.calls()) {
      Put(&fp, e.pc, e.kind, e.target, e.value, e.gas, e.success,
          e.to_external, e.target_taint, e.value_taint, e.depth, e.call_id,
          e.caller_guard_seen);
    }
    fp += "\n  overflows: ";
    for (const OverflowEvent& e : t.overflows()) {
      Put(&fp, e.pc, e.op, e.operand_taint, e.depth);
    }
    fp += "\n  selfdestructs: ";
    for (const SelfdestructEvent& e : t.selfdestructs()) {
      Put(&fp, e.pc, e.beneficiary, e.caller_guard_seen, e.depth);
    }
    fp += "\n  checked_calls: ";
    for (int32_t call_id : t.checked_calls()) Put(&fp, call_id);
  }
  return fp;
}

}  // namespace mufuzz::evm

#endif  // MUFUZZ_TESTS_EVM_OUTCOME_FINGERPRINT_H_
