#include "fuzzer/oracles.h"

#include <algorithm>
#include <set>

#include "analysis/disasm.h"
#include "evm/opcodes.h"
#include "evm/taint.h"

namespace mufuzz::fuzzer {

namespace {

using analysis::BugClass;
using analysis::BugReport;
using evm::BranchEvent;
using evm::CallEvent;
using evm::CmpOp;
using evm::CmpRecord;
using evm::Op;

int LineForPc(const lang::ContractArtifact* artifact, uint32_t pc) {
  if (artifact == nullptr) return 0;
  const lang::BranchMapEntry* entry = artifact->FindBranch(pc);
  return entry != nullptr ? entry->line : 0;
}

}  // namespace

std::vector<BugReport> RunTxOracles(const OracleContext& ctx) {
  BugKeySet seen;
  std::vector<BugReport> reports;
  RunTxOracles(ctx, &seen, &reports);
  return reports;
}

void RunTxOracles(const OracleContext& ctx, BugKeySet* seen,
                  std::vector<BugReport>* out) {
  const evm::TraceRecorder& trace = *ctx.trace;
  // The key check comes first so repeat findings — the overwhelmingly
  // common case in a steady-state campaign — cost one set lookup and never
  // build a message string. `build` runs only for new keys.
  auto emit = [&](BugClass bug, uint32_t pc, auto&& build) {
    if (!seen->insert({static_cast<int>(bug), pc}).second) return;
    out->push_back(build());
  };

  // One pass over the branches decides which of the three branch oracles
  // can fire at all; the common transaction carries no block, origin or
  // balance taint and skips their loops. The loops that do run keep the
  // fixed order below, so skipping never reorders the reports.
  uint32_t branch_taint = evm::kTaintNone;
  for (const BranchEvent& ev : trace.branches()) branch_taint |= ev.cond_taint;
  bool balance_eq = false;
  for (const CmpRecord& cmp : *ctx.cmp_records) {
    if (cmp.op == CmpOp::kEq && (cmp.taint & evm::kTaintBalance)) {
      balance_eq = true;
      break;
    }
  }

  // ---- BD: block-state taint reaching control flow or a call value. ----
  if (branch_taint & evm::kTaintBlock) {
    for (const BranchEvent& ev : trace.branches()) {
      if (ev.cond_taint & evm::kTaintBlock) {
        emit(BugClass::kBlockDependency, ev.pc, [&] {
          return BugReport{BugClass::kBlockDependency, ev.pc,
                           LineForPc(ctx.artifact, ev.pc),
                           "block-state value influences branch condition",
                           -1};
        });
      }
    }
  }
  for (const CallEvent& ev : trace.calls()) {
    if ((ev.value_taint & evm::kTaintBlock) && !ev.value.IsZero()) {
      emit(BugClass::kBlockDependency, ev.pc, [&] {
        return BugReport{BugClass::kBlockDependency, ev.pc, 0,
                         "block-state value influences transferred amount",
                         -1};
      });
    }
  }

  // ---- TO: tx.origin in a branch condition. ----
  if (branch_taint & evm::kTaintOrigin) {
    for (const BranchEvent& ev : trace.branches()) {
      if (ev.cond_taint & evm::kTaintOrigin) {
        emit(BugClass::kTxOriginUse, ev.pc, [&] {
          return BugReport{BugClass::kTxOriginUse, ev.pc,
                           LineForPc(ctx.artifact, ev.pc),
                           "tx.origin used in branch condition", -1};
        });
      }
    }
  }

  // ---- SE: strict equality over a balance read feeding a JUMPI. ----
  if (balance_eq) {
    for (const BranchEvent& ev : trace.branches()) {
      if (ev.cmp_id < 0 ||
          ev.cmp_id >= static_cast<int32_t>(ctx.cmp_records->size())) {
        continue;
      }
      const CmpRecord& cmp = (*ctx.cmp_records)[ev.cmp_id];
      if (cmp.op == CmpOp::kEq && (cmp.taint & evm::kTaintBalance)) {
        emit(BugClass::kStrictEtherEquality, ev.pc, [&] {
          return BugReport{BugClass::kStrictEtherEquality, ev.pc,
                           LineForPc(ctx.artifact, ev.pc),
                           "balance compared for strict equality", -1};
        });
      }
    }
  }

  // ---- IO: wrapping arithmetic with attacker-controllable operands. ----
  for (const auto& ev : trace.overflows()) {
    constexpr uint32_t kAttackerTaint =
        evm::kTaintCalldata | evm::kTaintCallValue;
    if (ev.operand_taint & kAttackerTaint) {
      emit(BugClass::kIntegerOverflow, ev.pc, [&] {
        return BugReport{BugClass::kIntegerOverflow, ev.pc, 0,
                         std::string("wrapping ") +
                             evm::GetOpInfo(ev.op).name +
                             " on attacker-influenced operands",
                         -1};
      });
    }
  }

  // ---- UD: delegatecall to an attacker-influenced target, unguarded. ----
  for (const CallEvent& ev : trace.calls()) {
    if (ev.kind != Op::kDelegatecall) continue;
    bool attacker_target =
        (ev.target_taint & (evm::kTaintCalldata | evm::kTaintStorage)) != 0;
    if (attacker_target && !ev.caller_guard_seen) {
      emit(BugClass::kUnprotectedDelegatecall, ev.pc, [&] {
        return BugReport{BugClass::kUnprotectedDelegatecall, ev.pc, 0,
                         "delegatecall target controllable and unguarded",
                         -1};
      });
    }
  }

  // ---- RE: the same call site executed again at nested depth (the probe
  // host re-entered and the contract let the nested call through). Note the
  // nested event is recorded *before* its enclosing call returns, so the
  // pairing must be order-insensitive. ----
  for (size_t i = 0; i < trace.calls().size(); ++i) {
    for (size_t j = 0; j < trace.calls().size(); ++j) {
      if (i == j) continue;
      const CallEvent& outer = trace.calls()[i];
      const CallEvent& inner = trace.calls()[j];
      if (outer.pc == inner.pc && inner.depth > outer.depth &&
          outer.kind == Op::kCall && !outer.value.IsZero() &&
          outer.gas > 2300) {
        emit(BugClass::kReentrancy, outer.pc, [&] {
          return BugReport{BugClass::kReentrancy, outer.pc, 0,
                           "call site re-entered before state settled", -1};
        });
      }
    }
  }

  // ---- US: selfdestruct reached without a caller guard. ----
  for (const auto& ev : trace.selfdestructs()) {
    if (!ev.caller_guard_seen) {
      emit(BugClass::kUnprotectedSelfdestruct, ev.pc, [&] {
        return BugReport{BugClass::kUnprotectedSelfdestruct, ev.pc, 0,
                         "selfdestruct reachable by arbitrary caller", -1};
      });
    }
  }

  // ---- UE: failed external call whose status never reached a JUMPI. The
  // checked-calls list is scanned linearly — it is a handful of entries,
  // and building a hash set per transaction put an allocation on the
  // steady-state path for nothing. ----
  const auto& checked = trace.checked_calls();
  for (const CallEvent& ev : trace.calls()) {
    if (ev.kind == Op::kCall && !ev.success && ev.to_external &&
        std::find(checked.begin(), checked.end(), ev.call_id) ==
            checked.end()) {
      emit(BugClass::kUnhandledException, ev.pc, [&] {
        return BugReport{BugClass::kUnhandledException, ev.pc, 0,
                         "external call failed and result was not checked",
                         -1};
      });
    }
  }
}

bool CheckEtherFreezing(const lang::ContractArtifact& artifact,
                        const evm::WorldState& state,
                        const Address& contract) {
  const evm::Account* acct = state.Find(contract);
  if (acct != nullptr && acct->self_destructed) return false;
  // The contract must be able to receive ether (a payable function)…
  bool can_receive = false;
  for (const auto& fn : artifact.abi.functions) {
    if (fn.payable) {
      can_receive = true;
      break;
    }
  }
  if (!can_receive && artifact.abi.constructor_payable) can_receive = true;
  if (!can_receive) return false;
  // …while its runtime code has no instruction that could ever send it out.
  for (const analysis::Insn& insn :
       analysis::Disassemble(artifact.runtime_code)) {
    switch (static_cast<Op>(insn.opcode)) {
      case Op::kCall:
      case Op::kCallcode:
      case Op::kDelegatecall:
      case Op::kSelfdestruct:
        return false;
      default:
        break;
    }
  }
  return true;
}

std::vector<BugReport> DeduplicateReports(std::vector<BugReport> reports) {
  std::set<std::pair<int, uint32_t>> seen;
  std::vector<BugReport> out;
  for (auto& report : reports) {
    auto key = std::make_pair(static_cast<int>(report.bug), report.pc);
    if (seen.insert(key).second) {
      out.push_back(std::move(report));
    }
  }
  return out;
}

}  // namespace mufuzz::fuzzer
