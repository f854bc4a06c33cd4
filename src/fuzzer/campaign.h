#ifndef MUFUZZ_FUZZER_CAMPAIGN_H_
#define MUFUZZ_FUZZER_CAMPAIGN_H_

#include <memory>
#include <optional>
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
  /// selects K distinct parents and keeps one wave per parent in flight,
  /// planning and applying strictly in (parent rank, child index) order —
  /// so results are a pure function of (seed, fanout), never of where the
  /// campaign runs. 0/1 = the serial parent chain. K is part of the
  /// reproducibility key: K parents' waves interleave rng draws differently
  /// than K serial chains would.
  int fanout = 1;
};

/// One fuzzing campaign over one contract: deploy once, then iterate
/// seed-selection → (sequence | masked-input) mutation → execution →
/// feedback, per the architecture of Fig. 2.
///
/// The campaign is a thin composer over five modules, each swappable:
///  - SeedScheduler  — queue, selection, eviction (fuzzer layer)
///  - MutationPipeline — sequence ops + mask-guided byte ops (fuzzer layer)
///  - MutationPlanner — wave planning over parent snapshots (fuzzer layer)
///  - FeedbackEngine — coverage / distance / energy / oracles (fuzzer layer)
///  - ExecutionBackend — plan-in/outcome-out substrate (evm layer)
///
/// Execution is wave-pipelined over a speculative parent set: each
/// selection round picks K = `fanout` distinct parents, and every pipeline
/// sweep plans and executes one child (a one-child wave) per parent with
/// budget (all K before anyone's outcome is applied), then applies the
/// previous sweep's waves strictly in parent rank order. All randomness
/// flows from Rngs seeded by the config and is drawn in planning/apply
/// order, so results are identical wherever the campaign runs — serially
/// or on any FuzzService worker. K=1 degenerates to the classic
/// single-parent pipeline.
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
           evm::ExecutionBackend* backend = nullptr,
           SeedScheduler* scheduler = nullptr, int island_id = -1);
  ~Campaign();

  /// Runs to budget exhaustion and returns the result. Equivalent to
  /// SeedCorpus() + StepRound(max_executions) + Finalize().
  CampaignResult Run();

  // ------------------------------------------------------------------------
  // Stepped interface — the island coordinator's view. Call SeedCorpus()
  // once, StepRound() until Done() (migrating seeds between rounds), then
  // Finalize() once.
  // ------------------------------------------------------------------------

  /// Resets the result and executes the initial seed corpus (as one batch —
  /// initial seeds are independent, so they ride the same wave machinery).
  void SeedCorpus();

  /// True when the execution budget is exhausted (or the contract failed to
  /// deploy, or the queue drained).
  bool Done() const;

  /// Plans (and applies) up to `round_executions` more sequence executions
  /// (never past the campaign budget; energy waves and mask probes may
  /// overshoot a round boundary by a bounded amount, exactly as they
  /// overshoot the budget). All in-flight waves are applied before this
  /// returns — rounds are barriers, which is what island migration needs.
  void StepRound(uint64_t round_executions);

  /// Contract-lifetime wrap-up; returns the final result.
  CampaignResult Finalize();

  // ------------------------------------------------------------------------
  // Streaming interface — the FuzzService's view. Unlike StepRound, which
  // drains the wave pipeline at every round boundary (rounds are barriers —
  // what island migration needs), the streaming step *suspends* the
  // pipeline: the current parent and any in-flight wave survive across
  // calls, so the plan/apply schedule is exactly the schedule of one
  // monolithic StepRound(max_executions) no matter how the run is chopped.
  // That makes results a pure function of (config.seed, fanout) — the
  // pause quantum, unlike StepRound's round size, can never leak into them.
  // A campaign uses either the stepped interface or the streaming one;
  // mixing the two mid-run is unsupported.
  // ------------------------------------------------------------------------

  /// Advances the monolithic schedule until at least `quantum` more
  /// executions have been applied (or the campaign ran out of budget /
  /// seeds), possibly parking the whole K-parent set — with up to one
  /// executed-but-unapplied wave per parent — across the pause. Call
  /// SeedCorpus() first, then StepStream() until StreamDone().
  void StepStream(uint64_t quantum);

  /// True when the streamed schedule is exhausted (budget spent, queue
  /// drained, deploy failed, or nothing executable) and the pipeline is
  /// drained — Finalize() may run.
  bool StreamDone() const;

  /// Applies every parked parent's in-flight wave — strictly in (parent
  /// rank, child index) order, exactly as a continued run would — and then
  /// abandons the set, leaving the pipeline drained mid-schedule: the
  /// early-stop path Cancel needs before Finalize(), with all K parents'
  /// executed children accounted for in the partial result. After
  /// draining, StreamDone() is true.
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
    /// Executions run but not yet applied — the speculative waves a
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
  /// Builds the plan for `seq`, executes it synchronously, and applies its
  /// feedback — the serial path used by the seed corpus and mask probes.
  ExecSignals ExecuteSequenceNow(const Sequence& seq);

  /// Applies one executed sequence's outcome to coverage, distances,
  /// oracles, energy observations, interesting constants, and the
  /// result counters — strictly in plan order. Writes into `stats`
  /// (reset first) so the hot path reuses one scratch ExecSignals instead
  /// of allocating a touched_pcs vector per execution.
  void ApplyOutcome(const evm::SequenceOutcome& outcome, ExecSignals* stats);

  /// One planned wave, executed at plan time, whose outcomes are not
  /// applied yet.
  struct InFlightWave {
    MutationPlanner::Wave wave;
    std::vector<evm::SequenceOutcome> outcomes;
  };

  /// The apply stage for one wave: per child (in plan order) feedback,
  /// UPDATE_ENERGY against the parent, and the keep/Add decision. Recycles
  /// the spent outcomes, plans, and child sequences when done.
  void ApplyWave(MutationPlanner::ParentPlan* parent, InFlightWave* inflight);

  /// One parent of the current speculative set: its plan snapshot plus the
  /// wave (at most one) awaiting its apply stage.
  struct ParentSlot {
    MutationPlanner::ParentPlan plan;
    std::optional<InFlightWave> inflight;
  };

  /// Begins a new speculative expansion round: up to `fanout` parents
  /// selected, masked, energized, and snapshotted in rank order. Requires
  /// the pipeline drained (selection reads the queue). Empty when the
  /// queue is empty.
  std::vector<ParentSlot> BeginParentSet(
      const MutationPlanner::MaskHook& mask_hook);

  /// One pipeline sweep over the set: plans and executes the next wave for
  /// every parent with budget (rank order, bounded by `bound` total
  /// planned executions), then applies each parent's previous wave in
  /// (parent rank, child index) order. Returns true while the set still
  /// has in-flight or plannable work — false once drained and exhausted.
  bool SweepParentSet(std::vector<ParentSlot>* parents, uint64_t bound);

  /// Suspended parent-set pipeline position for the streaming interface.
  struct StreamState {
    /// The parked speculative set (empty = between rounds).
    std::vector<ParentSlot> parents;
    bool exhausted = false;  ///< budget spent or queue drained, drained
  };

  void MaybeComputeMask(FuzzSeed* seed);

  const lang::ContractArtifact* artifact_;
  CampaignConfig config_;
  int island_id_;
  Rng rng_;

  // Substrate (evm layer).
  std::unique_ptr<FuzzingHost> host_;
  std::unique_ptr<evm::ExecutionBackend> owned_backend_;
  evm::ExecutionBackend* backend_ = nullptr;
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
  /// result_.executions by the in-flight count; equal whenever the pipeline
  /// is drained (round and parent boundaries).
  uint64_t planned_executions_ = 0;

  /// Present once StepStream has run; absent on the stepped/monolithic path.
  std::optional<StreamState> stream_;
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
                           evm::ExecutionBackend* backend = nullptr);

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_CAMPAIGN_H_
