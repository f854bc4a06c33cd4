#ifndef MUFUZZ_FUZZER_CAMPAIGN_H_
#define MUFUZZ_FUZZER_CAMPAIGN_H_

#include <array>
#include <memory>
#include <vector>

#include "analysis/dependency_graph.h"
#include "analysis/statevar_analysis.h"
#include "common/rng.h"
#include "evm/execution_backend.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/campaign_result.h"
#include "fuzzer/feedback_engine.h"
#include "fuzzer/fuzzing_host.h"
#include "fuzzer/mutation_pipeline.h"
#include "fuzzer/mutation_planner.h"
#include "fuzzer/seed_scheduler.h"
#include "fuzzer/strategy.h"
#include "lang/codegen.h"

namespace mufuzz::fuzzer {

/// Campaign knobs. Budgets are in sequence executions, the substrate-neutral
/// analogue of the paper's 10/20-minute wall-clock budgets (documented in
/// EXPERIMENTS.md).
struct CampaignConfig {
  StrategyConfig strategy;
  uint64_t seed = 1;
  int max_executions = 1500;    ///< sequence executions
  int initial_seeds = 4;
  int base_energy = 6;          ///< mutations per selected seed (>= 1)
  double call_failure_probability = 0.25;
  U256 initial_contract_balance = U256(100) * U256::PowerOfTen(18);
  int coverage_samples = 25;    ///< points on the coverage-over-time curve
  int mask_stride_divisor = 8;  ///< mask sampling density (len / divisor)

  // --------------------------------------------------- Speculative fan-out --
  /// Parents speculatively expanded per selection round (K). Each round
  /// selects K distinct parents and keeps one child per parent in flight,
  /// planning and applying strictly in (parent rank, child index) order —
  /// so results are a pure function of (seed, fanout), never of where the
  /// campaign runs. 0/1 = the serial parent chain. K is part of the
  /// reproducibility key: K parents' children interleave rng draws
  /// differently than K serial chains would.
  int fanout = 1;
};

/// One fuzzing campaign over one contract: deploy once, then iterate
/// seed-selection → (sequence | masked-input) mutation → execution →
/// feedback, per the architecture of Fig. 2 and Algorithm 1.
///
/// The campaign composes four fuzzer-layer modules and the one concrete
/// evm backend:
///  - SeedScheduler  — queue, selection, eviction (owned, or an island queue)
///  - MutationPipeline — sequence ops + mask-guided byte ops
///  - MutationPlanner — parent snapshots, energy, and child planning
///  - FeedbackEngine — coverage / distance / energy / oracles
///  - evm::SessionBackend — plan-in/outcome-out execution (owned or pooled)
///
/// Execution runs over a speculative parent set: each selection round
/// picks K = `fanout` distinct parents, and every sweep plans and executes
/// one child per parent with budget (all K before anyone's outcome is
/// applied), then applies the previous sweep's child of each parent
/// strictly in rank order. Each parent therefore owns two child slots — one
/// being planned and executed, one waiting to be applied — and the campaign
/// owns one more for mask probes and the seed corpus. All randomness flows
/// from Rngs seeded by the config and is drawn in planning/apply order, so
/// results are identical wherever the campaign runs — serially or on any
/// FuzzService worker. K=1 is the paper's one-child-at-a-time loop.
///
/// One sweep loop serves both drivers. StepRound bounds planning by a round
/// target and drains the set before it returns (rounds are barriers, which
/// island migration needs). StepStream bounds planning by the campaign
/// budget and may pause between sweeps with the set parked, so a streamed
/// run follows the schedule of one monolithic run however it is chopped.
class Campaign {
 public:
  /// When `backend` is null the campaign owns a private SessionBackend;
  /// otherwise it Bind()s the provided one (the worker-pool reuse path)
  /// and the caller keeps ownership.
  ///
  /// When `scheduler` is null the campaign owns a private SeedScheduler;
  /// otherwise it fuzzes out of the provided queue (the island-model path —
  /// typically one island of a ShardedSeedScheduler) and the caller keeps
  /// ownership; the scheduler must outlive the campaign. `island_id` is
  /// recorded in the result (-1 = standalone).
  Campaign(const lang::ContractArtifact* artifact, CampaignConfig config,
           evm::SessionBackend* backend = nullptr,
           SeedScheduler* scheduler = nullptr, int island_id = -1);
  ~Campaign();

  /// Runs to budget exhaustion and returns the result. Equivalent to
  /// SeedCorpus() + StepRound(max_executions) + Finalize().
  CampaignResult Run();

  /// Resets the result and executes the initial seed corpus, one seed at a
  /// time through the probe slot, in order. Call once, before stepping.
  void SeedCorpus();

  /// True when stepping can do no more work: the execution budget is spent,
  /// the queue is empty, the contract failed to deploy, or it has no
  /// function to call. Finalize() may run. Both drivers stop on it.
  bool Done() const;

  /// The island coordinator's step: plans (and applies) up to
  /// `round_executions` more sequence executions (never past the campaign
  /// budget; energy and mask probes may overshoot a round boundary by a
  /// bounded amount, exactly as they overshoot the budget). Every planned
  /// child is applied before this returns.
  void StepRound(uint64_t round_executions);

  /// The FuzzService's step: advances the monolithic schedule until at
  /// least `quantum` more executions have been applied (or Done()),
  /// possibly parking the K-parent set — with up to one executed-but-
  /// unapplied child per parent — across the pause. The pause quantum never
  /// leaks into results. A campaign uses StepRound or StepStream, not both.
  void StepStream(uint64_t quantum);

  /// Contract-lifetime wrap-up; returns the final result.
  CampaignResult Finalize();

  /// Applies every parked parent's waiting child — strictly in rank order,
  /// exactly as a continued run would — and then abandons the set: the
  /// early-stop path Cancel needs before Finalize(), with every executed
  /// child accounted for in the partial result. A no-op when nothing is
  /// parked (always so after StepRound).
  void DrainStream();

  /// Marks the campaign cancelled: Finalize() flags the (partial but valid)
  /// result. Idempotent; does not stop execution by itself — the scheduler
  /// stops stepping and calls DrainStream()/Finalize().
  void MarkCancelled() { cancelled_ = true; }

  /// A cheap mid-run progress snapshot. Callers must not race StepRound /
  /// StepStream — the FuzzService reads this between the job's slices,
  /// under its scheduler lock.
  struct Progress {
    uint64_t executions = 0;
    uint64_t transactions = 0;
    double coverage = 0;     ///< branch-coverage fraction so far
    size_t bugs_found = 0;   ///< distinct (bug, pc) oracle findings so far
    /// Executions planned so far: applied plus in flight. Never regresses
    /// across snapshots.
    uint64_t planned_executions = 0;
    /// Executions run but not yet applied — the speculative children a
    /// streamed campaign keeps across pauses (at most one per parent).
    uint64_t inflight_executions = 0;
    /// Parents in the currently parked speculative set (streaming only;
    /// 0 at set boundaries and on the stepped path, whose rounds drain).
    int parents_in_flight = 0;
    /// Code-cache counters at snapshot time (diagnostics; see
    /// CampaignResult::code_cache for the caveats).
    evm::CodeCacheStats code_cache;
    /// Heap allocations since the end of SeedCorpus (0 unless the build has
    /// MUFUZZ_ALLOC_STATS and the corpus ran). Process-wide counter, so
    /// concurrent campaigns see each other's traffic — a steady-state
    /// health signal, not an exact attribution.
    uint64_t heap_allocs = 0;
  };
  Progress SnapshotProgress() const;

 private:
  /// Builds the plan for `seq` into the probe slot, executes it
  /// synchronously, and applies its feedback — the serial path used by the
  /// seed corpus and mask probes.
  ExecSignals ExecuteSequenceNow(const Sequence& seq);

  /// Applies one executed sequence's outcome to coverage, distances,
  /// oracles, energy observations, interesting constants, and the
  /// result counters — strictly in plan order. Writes into `stats`
  /// (reset first) so the hot path reuses one scratch ExecSignals instead
  /// of allocating a touched_pcs vector per execution.
  void ApplyOutcome(const evm::SequenceOutcome& outcome, ExecSignals* stats);

  /// One child's slot: the mutated sequence (kept for the keep/Add
  /// decision), its encoded plan, and the outcome the backend filled.
  /// Slots persist and keep their heap capacity from child to child.
  struct ChildSlot {
    Sequence seq;
    evm::SequencePlan plan;
    evm::SequenceOutcome outcome;
  };

  /// One parent of the current speculative set: its plan snapshot plus two
  /// child slots that alternate — children[next] takes the child planned
  /// in the current sweep, children[next ^ 1] the one awaiting its apply
  /// stage.
  struct ParentSlot {
    MutationPlanner::ParentPlan plan;
    std::array<ChildSlot, 2> children;
    int next = 0;
    bool planned = false;  ///< children[next] was planned this sweep
    bool waiting = false;  ///< children[next ^ 1] awaits its apply stage
  };

  /// The apply stage for one child: feedback, UPDATE_ENERGY against the
  /// parent, and the keep/Add decision.
  void ApplyChild(MutationPlanner::ParentPlan* parent, ChildSlot* child);

  /// Begins a new speculative expansion round: up to `fanout` parents
  /// selected, masked, energized, and snapshotted in rank order into
  /// parents_. Requires the set drained (selection reads the queue).
  /// Returns false when the queue is empty.
  bool BeginParentSet(const MutationPlanner::MaskHook& mask_hook);

  /// One sweep over the set: plans and executes the next child of every
  /// parent with budget (rank order, bounded by `bound` total planned
  /// executions), then applies each parent's previous child in rank order.
  /// Returns true while the set still has waiting or plannable work.
  bool SweepParentSet(uint64_t bound);

  /// The one sweep loop behind both drivers: begins parent sets and sweeps
  /// them while planning stays under `bound`, and returns — with the set
  /// parked if it has work left — at the first sweep or set boundary where
  /// at least `pause_at` executions have been applied.
  void Advance(uint64_t bound, uint64_t pause_at);

  void MaybeComputeMask(FuzzSeed* seed);

  const lang::ContractArtifact* artifact_;
  CampaignConfig config_;
  int island_id_;
  Rng rng_;

  // Substrate (evm layer).
  std::unique_ptr<FuzzingHost> host_;
  std::unique_ptr<evm::SessionBackend> owned_backend_;
  evm::SessionBackend* backend_ = nullptr;
  Address contract_;

  // Analyses.
  analysis::ContractDataflow dataflow_;
  analysis::DependencyGraph depgraph_;
  std::unique_ptr<AbiCodec> codec_;

  // Engine modules. The scheduler is either owned (standalone) or an
  // externally owned island queue (see ctor).
  std::unique_ptr<SeedScheduler> owned_scheduler_;
  SeedScheduler* scheduler_ = nullptr;
  std::unique_ptr<MutationPipeline> mutation_;
  std::unique_ptr<FeedbackEngine> feedback_;
  std::unique_ptr<MutationPlanner> planner_;

  /// Executions planned (executed or applied). Runs ahead of
  /// result_.executions by the waiting count; equal whenever the set is
  /// drained (round and set boundaries).
  uint64_t planned_executions_ = 0;

  /// The speculative parent set: parents_[0, parent_count_) is live (0 =
  /// between sets); later slots are idle but keep their child slots' heap
  /// capacity for the next, larger set.
  std::vector<ParentSlot> parents_;
  size_t parent_count_ = 0;
  /// The slot mask probes and the seed corpus execute through.
  evm::SequencePlan probe_plan_;
  evm::SequenceOutcome probe_outcome_;
  bool cancelled_ = false;

  /// Scratch for ApplyOutcome — reused across every execution so the
  /// feedback path appends into a warm touched_pcs buffer.
  ExecSignals signals_scratch_;

  // MUFUZZ_ALLOC_STATS observability (all zero when the hook is compiled
  // out): allocation counter at the end of SeedCorpus (steady state starts
  // there).
  uint64_t steady_alloc_base_ = 0;
  bool steady_base_set_ = false;

  CampaignResult result_;
};

/// Convenience: compile-free single call for already-compiled artifacts.
/// Pass `backend` to run over a pooled session (see SessionPool).
CampaignResult RunCampaign(const lang::ContractArtifact& artifact,
                           const CampaignConfig& config,
                           evm::SessionBackend* backend = nullptr);

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_CAMPAIGN_H_
