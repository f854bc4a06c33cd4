#ifndef MUFUZZ_TESTS_EVM_OUTCOME_FINGERPRINT_H_
#define MUFUZZ_TESTS_EVM_OUTCOME_FINGERPRINT_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <type_traits>

#include "byte_switch_oracle.h"
#include "evm/execution_backend.h"

namespace mufuzz::evm {

/// One interpreter tier of a parameterized backend suite.
struct BackendCase {
  std::string name;
  /// Runs on the byte-switch oracle (ByteSwitchSessionBackend) instead of
  /// the decoded loop.
  bool byte_switch = false;
};

/// Prints the case by name, so test names carry no object bytes.
inline void PrintTo(const BackendCase& c, std::ostream* os) { *os << c.name; }

/// An unbound backend of the case's tier.
inline std::unique_ptr<SessionBackend> NewBackend(const BackendCase& c) {
  if (c.byte_switch) return std::make_unique<ByteSwitchSessionBackend>();
  return std::make_unique<SessionBackend>();
}

/// Fixture base of the suites parameterized by BackendCase: each test must
/// run its frames on its case's tier, so the oracle's frame count on this
/// thread goes up during a byte_switch test and stays put during a decoded
/// one.
class BackendTierTest : public ::testing::TestWithParam<BackendCase> {
 protected:
  void TearDown() override {
    if (GetParam().byte_switch) {
      EXPECT_GT(ByteSwitchOracle::frames_run(), oracle_frames_before_);
    } else {
      EXPECT_EQ(ByteSwitchOracle::frames_run(), oracle_frames_before_);
    }
  }

 private:
  const uint64_t oracle_frames_before_ = ByteSwitchOracle::frames_run();
};

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
