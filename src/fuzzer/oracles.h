#ifndef MUFUZZ_FUZZER_ORACLES_H_
#define MUFUZZ_FUZZER_ORACLES_H_

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "analysis/bug_types.h"
#include "common/address.h"
#include "evm/trace.h"
#include "evm/world_state.h"
#include "lang/codegen.h"

namespace mufuzz::fuzzer {

/// Inputs available to the per-transaction oracles: the execution trace of
/// one transaction, the comparison records backing its branch events, and
/// the compiled artifact for pc→source attribution. `trace` and
/// `cmp_records` must be set; `artifact` may be null (lines read 0).
struct OracleContext {
  const evm::TraceRecorder* trace = nullptr;
  const std::vector<evm::CmpRecord>* cmp_records = nullptr;
  const lang::ContractArtifact* artifact = nullptr;
};

/// Runs the eight per-transaction bug oracles of §IV-D (all but EF, which is
/// contract-lifetime):
///  BD — block-state taint reaching a JUMPI or a CALL value,
///  UD — DELEGATECALL with calldata-tainted target and no caller guard,
///  IO — wrapping ADD/SUB/MUL whose operands carry attacker taint,
///  RE — the same call site re-entered at nested depth with value and gas,
///  US — SELFDESTRUCT reached without a caller guard,
///  SE — an EQ over a BALANCE-tainted operand feeding a JUMPI,
///  TO — ORIGIN taint in a branch condition,
///  UE — a failed external call whose status never reached a JUMPI.
std::vector<analysis::BugReport> RunTxOracles(const OracleContext& ctx);

/// (bug class, pc) keys already reported — the report-interning set the
/// sink-based oracle pass threads through a campaign.
using BugKeySet = std::set<std::pair<int, uint32_t>>;

/// Sink-based oracle pass: appends to `out` only reports whose (bug, pc)
/// key is new to `seen`, in the same scan order as the vector-returning
/// overload — so the appended stream equals DeduplicateReports() over the
/// full raw stream. Duplicate findings are suppressed *before* their
/// message strings are built: once every reachable finding has fired once,
/// the steady-state fuzz loop runs this allocation-free.
void RunTxOracles(const OracleContext& ctx, BugKeySet* seen,
                  std::vector<analysis::BugReport>* out);

/// EF oracle (§IV-D via ContractFuzzer): the contract can receive ether (a
/// payable function exists) yet its runtime code contains no instruction
/// that could ever send it out (no CALL/CALLCODE/DELEGATECALL/SELFDESTRUCT).
bool CheckEtherFreezing(const lang::ContractArtifact& artifact,
                        const evm::WorldState& state,
                        const Address& contract);

/// Removes duplicate reports (same class at the same pc), preserving order.
std::vector<analysis::BugReport> DeduplicateReports(
    std::vector<analysis::BugReport> reports);

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_ORACLES_H_
