#include "fuzzer/feedback_engine.h"

#include <utility>

#include "fuzzer/oracles.h"

namespace mufuzz::fuzzer {

namespace {

/// Every runtime JUMPI pc, in branch-map order — pre-interned into the
/// dense CoverageMap so the steady-state feedback path never grows it.
std::vector<uint32_t> BranchMapPcs(const lang::ContractArtifact& artifact) {
  std::vector<uint32_t> pcs;
  pcs.reserve(artifact.branch_map.size());
  for (const auto& entry : artifact.branch_map) pcs.push_back(entry.jumpi_pc);
  return pcs;
}

}  // namespace

FeedbackEngine::FeedbackEngine(const lang::ContractArtifact* artifact,
                               const StrategyConfig& strategy,
                               ByteMutator* constants)
    : artifact_(artifact),
      constant_injection_(strategy.constant_injection),
      constants_(constants),
      energy_(artifact, strategy.dynamic_energy),
      coverage_(artifact->total_jumpis, BranchMapPcs(*artifact)) {
  slots_.resize(coverage_.slot_count());
  for (const auto& entry : artifact->branch_map) {
    slots_[coverage_.Slot(entry.jumpi_pc)].entry = &entry;
  }
}

void FeedbackEngine::BeginSequence() { best_flip_distance_ = UINT64_MAX; }

void FeedbackEngine::ProcessTx(int tx_index, const evm::TraceRecorder& trace,
                               const std::vector<evm::CmpRecord>& cmps,
                               bool tx_success, CampaignResult* result,
                               ExecSignals* stats) {
  for (const evm::BranchEvent& ev : trace.branches()) {
    const size_t slot = coverage_.Slot(ev.pc);
    // A pc outside the branch map interns a new slot on first sight.
    if (slot >= slots_.size()) slots_.resize(coverage_.slot_count());
    SlotInfo& info = slots_[slot];
    if (coverage_.AddBranchAt(slot, ev.taken)) ++stats->new_branches;
    stats->touched_pcs.push_back(ev.pc);

    // "Nested branch": at least two enclosing conditional statements
    // counting itself (nesting_depth >= 1 in the branch map).
    if (info.entry != nullptr && info.entry->nesting_depth >= 1) {
      stats->hits_nested = true;
    }
    // Algorithm 3 weights each branch once, on its first execution.
    if (!info.energy_scored) {
      info.energy_scored = true;
      energy_.ObserveBranch(ev.pc);
    }

    // Distance feedback only steers toward a direction not yet covered:
    // for a covered one OfferDistanceAt is a no-op returning false, and no
    // constants are harvested, so most dispatcher and guard events stop
    // here.
    if (ev.cmp_id >= 0 && ev.cmp_id < static_cast<int32_t>(cmps.size()) &&
        !coverage_.IsCoveredAt(slot, !ev.taken)) {
      const evm::CmpRecord& cmp = cmps[ev.cmp_id];
      // Distance to the *other* direction of this branch.
      uint64_t flip = evm::BranchDistance(cmp, !ev.taken);
      if (coverage_.OfferDistanceAt(slot, !ev.taken, flip)) {
        stats->improved_distance = true;
        if (flip < best_flip_distance_) {
          best_flip_distance_ = flip;
          stats->best_tx = tx_index;
        }
      }
      // Harvest comparison constants at still-uncovered directions for
      // the R ("replace with interesting values") operator — solver-class
      // feedback only some strategies possess.
      if (constant_injection_) {
        constants_->AddInterestingConstant(cmp.a);
        constants_->AddInterestingConstant(cmp.b);
      }
    }
  }
  if (!trace.overflows().empty()) stats->saw_overflow = true;

  // Oracles fire only on transactions that actually went through: a wrap
  // or call that a require() catches is reverted, not exploitable.
  if (tx_success) {
    OracleContext ctx{&trace, &cmps, artifact_};
    size_t before = result->bugs.size();
    RunTxOracles(ctx, &seen_bug_keys_, &result->bugs);
    for (size_t i = before; i < result->bugs.size(); ++i) {
      result->bug_classes.insert(result->bugs[i].bug);
    }
  }
}

void FeedbackEngine::Finalize(const evm::WorldState& state,
                              const Address& contract,
                              const SeedQueueStats& queue_stats,
                              CampaignResult* result) {
  result->queue_stats = queue_stats;
  if (CheckEtherFreezing(*artifact_, state, contract)) {
    result->bugs.push_back({analysis::BugClass::kEtherFreezing, 0, 0,
                            "payable contract without ether-out instruction",
                            -1});
    result->bug_classes.insert(analysis::BugClass::kEtherFreezing);
  }

  result->bugs = DeduplicateReports(std::move(result->bugs));
  result->covered_branches = coverage_.covered_count();
  result->branch_coverage = coverage_.Fraction();

  // User-level branch coverage (source branches only).
  int user_jumpis = 0;
  size_t user_covered = 0;
  for (const auto& entry : artifact_->branch_map) {
    switch (entry.kind) {
      case lang::BranchKind::kIf:
      case lang::BranchKind::kWhile:
      case lang::BranchKind::kFor:
      case lang::BranchKind::kRequire:
      case lang::BranchKind::kTransferCheck:
        ++user_jumpis;
        if (coverage_.IsCovered(entry.jumpi_pc, true)) ++user_covered;
        if (coverage_.IsCovered(entry.jumpi_pc, false)) ++user_covered;
        break;
      default:
        break;
    }
  }
  result->user_branch_coverage =
      user_jumpis == 0
          ? 1.0
          : static_cast<double>(user_covered) / (2.0 * user_jumpis);
}

ChildVerdict FeedbackEngine::JudgeChild(const ExecSignals& stats, Rng* rng) {
  ChildVerdict verdict;
  verdict.keep = stats.new_branches > 0 || stats.improved_distance ||
                 stats.saw_overflow || rng->Chance(0.02);
  if (!verdict.keep) return verdict;
  verdict.priority = 1.0 + 10.0 * stats.new_branches +
                     5.0 * (stats.improved_distance ? 1 : 0) +
                     3.0 * (stats.hits_nested ? 1 : 0) +
                     energy_.VulnerabilityBonus(stats.touched_pcs);
  return verdict;
}

double FeedbackEngine::InitialSeedPriority(const ExecSignals& stats) {
  return 1.0 + 10.0 * stats.new_branches +
         energy_.VulnerabilityBonus(stats.touched_pcs);
}

}  // namespace mufuzz::fuzzer
