// Differential test: RunTxOracles against the scan-everything reference it
// replaced. The production pass decides up front which branch oracles can
// fire (one OR over the branch condition taints, one look at the
// comparison records for a balance-tainted EQ) and skips the rest; the
// reference below walks every list for every oracle. Over random synthetic
// traces both must append the same reports, in the same order, and leave
// the same `seen` set — the report order is CampaignResult::bugs.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bug_types.h"
#include "common/rng.h"
#include "corpus/builtin.h"
#include "evm/opcodes.h"
#include "evm/taint.h"
#include "evm/trace.h"
#include "fuzzer/oracles.h"
#include "lang/compiler.h"

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

/// The oracle pass as it was before the pre-pass, verbatim: every oracle
/// scans its whole event list.
void ReferenceTxOracles(const OracleContext& ctx, BugKeySet* seen,
                        std::vector<BugReport>* out) {
  const evm::TraceRecorder& trace = *ctx.trace;
  auto emit = [&](BugClass bug, uint32_t pc, auto&& build) {
    if (!seen->insert({static_cast<int>(bug), pc}).second) return;
    out->push_back(build());
  };

  // ---- BD: block-state taint reaching control flow or a call value. ----
  for (const BranchEvent& ev : trace.branches()) {
    if (ev.cond_taint & evm::kTaintBlock) {
      emit(BugClass::kBlockDependency, ev.pc, [&] {
        return BugReport{BugClass::kBlockDependency, ev.pc,
                         LineForPc(ctx.artifact, ev.pc),
                         "block-state value influences branch condition", -1};
      });
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
  for (const BranchEvent& ev : trace.branches()) {
    if (ev.cond_taint & evm::kTaintOrigin) {
      emit(BugClass::kTxOriginUse, ev.pc, [&] {
        return BugReport{BugClass::kTxOriginUse, ev.pc,
                         LineForPc(ctx.artifact, ev.pc),
                         "tx.origin used in branch condition", -1};
      });
    }
  }

  // ---- SE: strict equality over a balance read feeding a JUMPI. ----
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

  // ---- RE: the same call site executed again at nested depth. ----
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

  // ---- UE: failed external call whose status never reached a JUMPI. ----
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

/// The taints a branch condition or comparison can carry, weighted toward
/// none so most traces keep some oracles quiet.
uint32_t RandomTaint(Rng* rng) {
  static constexpr uint32_t kTaints[] = {
      evm::kTaintBlock,    evm::kTaintOrigin,   evm::kTaintBalance,
      evm::kTaintCaller,   evm::kTaintCalldata, evm::kTaintCallValue,
      evm::kTaintStorage,  evm::kTaintCallResult};
  uint32_t taint = evm::kTaintNone;
  while (rng->Chance(0.35)) taint |= kTaints[rng->NextBelow(8)];
  return taint;
}

/// A pc from a small pool, so events repeat call sites and (bug, pc) keys
/// collide across oracles, events and traces. Half the pool are the
/// artifact's JUMPI pcs, so branch reports carry real source lines.
uint32_t RandomPc(const std::vector<uint32_t>& pool, Rng* rng) {
  return pool[rng->NextBelow(pool.size())];
}

/// One transaction's trace and comparison records, drawn at random.
struct SyntheticTx {
  evm::TraceRecorder trace;
  std::vector<CmpRecord> cmps;
};

SyntheticTx RandomTx(const std::vector<uint32_t>& pcs, Rng* rng) {
  SyntheticTx tx;
  static constexpr CmpOp kOps[] = {CmpOp::kEq,  CmpOp::kLt,  CmpOp::kGt,
                                   CmpOp::kSlt, CmpOp::kSgt, CmpOp::kIsZero};
  const size_t n_cmps = rng->NextBelow(6);
  for (size_t i = 0; i < n_cmps; ++i) {
    CmpRecord cmp;
    cmp.op = rng->Chance(0.5) ? CmpOp::kEq : kOps[rng->NextBelow(6)];
    cmp.a = U256(rng->NextBelow(4));
    cmp.b = U256(rng->NextBelow(4));
    cmp.negated = rng->Chance(0.3);
    cmp.taint = RandomTaint(rng);
    tx.cmps.push_back(cmp);
  }

  // Calls: nested (depth > 0) re-executions of a few call sites, CALLs and
  // DELEGATECALLs, checked and unchecked failures.
  static constexpr Op kKinds[] = {Op::kCall, Op::kCall, Op::kDelegatecall,
                                  Op::kStaticcall};
  const size_t n_calls = rng->NextBelow(6);
  int32_t next_call_id = 0;
  for (size_t i = 0; i < n_calls; ++i) {
    CallEvent ev;
    ev.pc = RandomPc(pcs, rng);
    ev.kind = kKinds[rng->NextBelow(4)];
    ev.target = Address::FromUint(0x100 + rng->NextBelow(3));
    ev.value = rng->Chance(0.5) ? U256::Zero() : U256(1 + rng->NextBelow(9));
    ev.gas = rng->Chance(0.5) ? 2300 : 50000;
    ev.success = rng->Chance(0.5);
    ev.to_external = rng->Chance(0.6);
    ev.target_taint = RandomTaint(rng);
    ev.value_taint = RandomTaint(rng);
    ev.depth = static_cast<int>(rng->NextBelow(3));
    ev.call_id = next_call_id++;
    ev.caller_guard_seen = rng->Chance(0.4);
    tx.trace.OnCall(ev);
  }

  // Branches, each optionally checking a call's status word. cmp_id runs
  // past both ends of the comparison records.
  const size_t n_branches = rng->NextBelow(10);
  for (size_t i = 0; i < n_branches; ++i) {
    BranchEvent ev;
    ev.pc = RandomPc(pcs, rng);
    ev.taken = rng->Chance(0.5);
    ev.cmp_id = static_cast<int32_t>(rng->NextBelow(n_cmps + 3)) - 1;
    ev.call_id = next_call_id > 0 && rng->Chance(0.3)
                     ? static_cast<int32_t>(rng->NextBelow(next_call_id))
                     : -1;
    ev.cond_taint = RandomTaint(rng);
    ev.depth = static_cast<int>(rng->NextBelow(3));
    tx.trace.OnBranch(ev);
    if (ev.call_id >= 0) tx.trace.OnCallResultChecked(ev.call_id);
  }

  static constexpr Op kArith[] = {Op::kAdd, Op::kSub, Op::kMul};
  const size_t n_overflows = rng->NextBelow(3);
  for (size_t i = 0; i < n_overflows; ++i) {
    tx.trace.OnOverflow({RandomPc(pcs, rng), kArith[rng->NextBelow(3)],
                         RandomTaint(rng),
                         static_cast<int>(rng->NextBelow(3))});
  }

  const size_t n_selfdestructs = rng->NextBelow(2) * rng->NextBelow(3);
  for (size_t i = 0; i < n_selfdestructs; ++i) {
    tx.trace.OnSelfdestruct({RandomPc(pcs, rng), Address::FromUint(0x200),
                             rng->Chance(0.5),
                             static_cast<int>(rng->NextBelow(3))});
  }
  return tx;
}

/// Every key the production pass could emit for `pcs`, a random subset of
/// which pre-seeds `seen` (a campaign's later transactions).
BugKeySet RandomSeen(const std::vector<uint32_t>& pcs, Rng* rng) {
  static constexpr BugClass kClasses[] = {
      BugClass::kBlockDependency,        BugClass::kTxOriginUse,
      BugClass::kStrictEtherEquality,    BugClass::kIntegerOverflow,
      BugClass::kUnprotectedDelegatecall, BugClass::kReentrancy,
      BugClass::kUnprotectedSelfdestruct, BugClass::kUnhandledException};
  BugKeySet seen;
  for (BugClass bug : kClasses) {
    for (uint32_t pc : pcs) {
      if (rng->Chance(0.3)) seen.insert({static_cast<int>(bug), pc});
    }
  }
  return seen;
}

class OracleDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto compiled = lang::CompileContract(corpus::CrowdsaleExample().source);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    artifact_ = std::move(compiled).value();
    // Four JUMPI pcs of the artifact plus four pcs outside its branch map.
    for (size_t i = 0; i < artifact_.branch_map.size() && i < 4; ++i) {
      pcs_.push_back(artifact_.branch_map[i].jumpi_pc);
    }
    ASSERT_FALSE(pcs_.empty());
    for (uint32_t pc : {1u, 2u, 3u, 100000u}) pcs_.push_back(pc);
  }

  /// Runs `txs` through both passes as one campaign would — one `seen` set
  /// threaded through every transaction — starting from `seen`.
  void ExpectSameStream(const std::vector<SyntheticTx>& txs,
                        const BugKeySet& seen) {
    BugKeySet seen_ref = seen;
    BugKeySet seen_new = seen;
    std::vector<BugReport> ref;
    std::vector<BugReport> got;
    for (size_t i = 0; i < txs.size(); ++i) {
      SCOPED_TRACE("tx " + std::to_string(i));
      OracleContext ctx{&txs[i].trace, &txs[i].cmps, &artifact_};
      ReferenceTxOracles(ctx, &seen_ref, &ref);
      RunTxOracles(ctx, &seen_new, &got);
      ASSERT_EQ(got.size(), ref.size());
      for (size_t r = 0; r < ref.size(); ++r) {
        SCOPED_TRACE("report " + std::to_string(r));
        EXPECT_EQ(got[r].bug, ref[r].bug);
        EXPECT_EQ(got[r].pc, ref[r].pc);
        EXPECT_EQ(got[r].line, ref[r].line);
        EXPECT_EQ(got[r].detail, ref[r].detail);
        EXPECT_EQ(got[r].function_index, ref[r].function_index);
      }
      ASSERT_EQ(seen_new, seen_ref);
    }
  }

  lang::ContractArtifact artifact_;
  std::vector<uint32_t> pcs_;
};

TEST_F(OracleDiffTest, RandomTracesMatchReferenceFromEmptySeenSet) {
  Rng rng(2301);
  size_t reports = 0;
  for (int round = 0; round < 300; ++round) {
    std::vector<SyntheticTx> txs;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) txs.push_back(RandomTx(pcs_, &rng));
    ExpectSameStream(txs, {});
    for (const SyntheticTx& tx : txs) {
      BugKeySet seen;
      std::vector<BugReport> out;
      RunTxOracles({&tx.trace, &tx.cmps, &artifact_}, &seen, &out);
      reports += out.size();
    }
    if (HasFatalFailure()) return;
  }
  // The traces must exercise the oracles, not just agree on silence.
  EXPECT_GT(reports, 300u);
}

TEST_F(OracleDiffTest, RandomTracesMatchReferenceFromPreSeededSeenSet) {
  Rng rng(2302);
  for (int round = 0; round < 300; ++round) {
    std::vector<SyntheticTx> txs;
    const size_t n = 1 + rng.NextBelow(4);
    for (size_t i = 0; i < n; ++i) txs.push_back(RandomTx(pcs_, &rng));
    ExpectSameStream(txs, RandomSeen(pcs_, &rng));
    if (HasFatalFailure()) return;
  }
}

/// Every oracle class fires somewhere in the random stream, so a skipped
/// or reordered loop cannot hide behind an oracle that never reports.
TEST_F(OracleDiffTest, RandomTracesReachEveryOracleClass) {
  Rng rng(2301);
  std::set<BugClass> classes;
  for (int round = 0; round < 300; ++round) {
    SyntheticTx tx = RandomTx(pcs_, &rng);
    BugKeySet seen;
    std::vector<BugReport> out;
    RunTxOracles({&tx.trace, &tx.cmps, &artifact_}, &seen, &out);
    for (const BugReport& r : out) classes.insert(r.bug);
  }
  EXPECT_EQ(classes.size(), 8u);
}

/// A branch whose condition carries block, origin and balance taint over a
/// balance-tainted EQ reports BD, then TO, then SE at its pc: the order the
/// oracles run in.
TEST_F(OracleDiffTest, BranchOraclesReportInScanOrder) {
  evm::TraceRecorder trace;
  std::vector<CmpRecord> cmps = {
      {CmpOp::kEq, U256(1), U256(2), false, evm::kTaintBalance}};
  BranchEvent ev;
  ev.pc = 7;
  ev.cmp_id = 0;
  ev.cond_taint = evm::kTaintBlock | evm::kTaintOrigin | evm::kTaintBalance;
  trace.OnBranch(ev);
  BugKeySet seen;
  std::vector<BugReport> out;
  RunTxOracles({&trace, &cmps, nullptr}, &seen, &out);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].bug, BugClass::kBlockDependency);
  EXPECT_EQ(out[1].bug, BugClass::kTxOriginUse);
  EXPECT_EQ(out[2].bug, BugClass::kStrictEtherEquality);
}

}  // namespace
}  // namespace mufuzz::fuzzer
