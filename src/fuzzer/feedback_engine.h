#ifndef MUFUZZ_FUZZER_FEEDBACK_ENGINE_H_
#define MUFUZZ_FUZZER_FEEDBACK_ENGINE_H_

#include <cstdint>
#include <vector>

#include "analysis/bug_types.h"
#include "common/address.h"
#include "common/rng.h"
#include "evm/trace.h"
#include "evm/world_state.h"
#include "fuzzer/campaign_result.h"
#include "fuzzer/coverage.h"
#include "fuzzer/energy.h"
#include "fuzzer/mask.h"
#include "fuzzer/oracles.h"
#include "fuzzer/strategy.h"
#include "lang/codegen.h"

namespace mufuzz::fuzzer {

/// Aggregated signals from executing one sequence — what seed selection and
/// mask eligibility feed on (the RunStats of the former Campaign monolith).
struct ExecSignals {
  int new_branches = 0;
  bool improved_distance = false;
  bool hits_nested = false;
  /// A wrapping arithmetic event occurred — oracle-adjacent behavior worth
  /// keeping in the queue even without coverage gain.
  bool saw_overflow = false;
  std::vector<uint32_t> touched_pcs;
  int best_tx = 0;  ///< tx index with the closest uncovered branch
};

/// The apply stage's ruling on one executed child: whether it enters the
/// seed queue, and at what priority (meaningful only when `keep`).
struct ChildVerdict {
  bool keep = false;
  double priority = 0;
};

/// Consumes execution traces and turns them into coverage, branch-distance,
/// energy, oracle, and interesting-constant feedback — the processing half
/// of Fig. 2's feedback loop, factored out of the campaign so alternative
/// engines (sharded coverage, async oracle pipelines) can slot in.
class FeedbackEngine {
 public:
  /// `constants` receives comparison operands harvested at uncovered
  /// branches when the strategy enables constant injection (may be nullptr
  /// only if it doesn't).
  FeedbackEngine(const lang::ContractArtifact* artifact,
                 const StrategyConfig& strategy, ByteMutator* constants);
  virtual ~FeedbackEngine() = default;

  /// Resets per-sequence state (the best-flip-distance tracker).
  virtual void BeginSequence();

  /// Applies feedback from one transaction's trace: coverage and distance
  /// bookkeeping, energy observation, constant harvesting, and — for
  /// transactions that actually went through — the bug oracles, appended to
  /// `result`.
  virtual void ProcessTx(int tx_index, const evm::TraceRecorder& trace,
                         const std::vector<evm::CmpRecord>& cmps,
                         bool tx_success, CampaignResult* result,
                         ExecSignals* stats);

  /// Contract-lifetime wrap-up: the ether-freezing oracle, report
  /// deduplication, the final coverage figures, and the seed-queue
  /// diagnostics (`queue_stats` is the campaign's island counters).
  virtual void Finalize(const evm::WorldState& state, const Address& contract,
                        const SeedQueueStats& queue_stats,
                        CampaignResult* result);

  /// The keep/Add policy for one executed child (Algorithm 1's seed-queue
  /// admission): keep productive children, oracle-adjacent ones (wrapping
  /// arithmetic), and a thin random sample for queue diversity. Draw
  /// discipline: the diversity arm pulls from `rng` only when no
  /// deterministic keep signal fired — the short-circuit order is part of
  /// the campaign's reproducible rng stream, so the campaign calls this
  /// strictly in (parent rank, child index) apply order.
  virtual ChildVerdict JudgeChild(const ExecSignals& stats, Rng* rng);

  /// Queue priority for an initial corpus seed (no parent to credit, so
  /// only coverage gain and vulnerability adjacency count).
  virtual double InitialSeedPriority(const ExecSignals& stats);

  CoverageMap& coverage() { return coverage_; }
  const CoverageMap& coverage() const { return coverage_; }
  EnergyScheduler& energy() { return energy_; }

 private:
  /// What ProcessTx reads per branch event besides coverage, indexed by
  /// the event's CoverageMap slot (so one pc → slot lookup serves all).
  struct SlotInfo {
    /// Branch-map entry (nullptr = compiler-introduced or foreign pc).
    const lang::BranchMapEntry* entry = nullptr;
    /// The energy scheduler has scored this branch (ObserveBranch).
    bool energy_scored = false;
  };

  const lang::ContractArtifact* artifact_;
  bool constant_injection_;
  ByteMutator* constants_;
  EnergyScheduler energy_;
  CoverageMap coverage_;
  std::vector<SlotInfo> slots_;  ///< per CoverageMap slot
  /// Smallest flip distance seen in the current sequence (per-sequence).
  uint64_t best_flip_distance_ = UINT64_MAX;
  /// Campaign-lifetime (bug, pc) keys already reported. Interning at insert
  /// is equivalent to the old raw-append + DeduplicateReports-at-Finalize
  /// (first occurrence per key survives either way) but keeps repeat
  /// findings from allocating report strings on the steady-state path.
  BugKeySet seen_bug_keys_;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_FEEDBACK_ENGINE_H_
