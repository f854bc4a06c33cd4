#include "fuzzer/campaign.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/alloc_stats.h"
#include "fuzzer/sharded_seed_scheduler.h"

namespace mufuzz::fuzzer {

namespace {

/// Fixed actor pool: deployer, two honest users, and the attacker address
/// the probe host answers for.
std::vector<Address> MakeSenderPool() {
  return {
      Address::FromUint(0xd0d0),    // deployer
      Address::FromUint(0xa11ce),   // user 1
      Address::FromUint(0xb0b),     // user 2
      Address::FromUint(0xa77ac4e7ULL),  // attacker (external, no code)
  };
}

}  // namespace

Campaign::Campaign(const lang::ContractArtifact* artifact,
                   CampaignConfig config, evm::SessionBackend* backend,
                   SeedScheduler* scheduler, int island_id)
    : artifact_(artifact),
      config_(config),
      island_id_(island_id),
      rng_(config.seed),
      dataflow_(analysis::AnalyzeDataflow(*artifact->ast)),
      depgraph_(analysis::DependencyGraph::Build(dataflow_)) {
  host_ = std::make_unique<FuzzingHost>(rng_.NextU64(),
                                        config_.call_failure_probability,
                                        /*max_reentries=*/2);
  // Seed of the planner's per-sequence environment stream (see
  // MutationPlanner::BuildPlan), drawn here so it precedes the constructor-
  // argument draws like the host seed does.
  const uint64_t host_stream_seed = rng_.NextU64();
  if (backend != nullptr) {
    backend_ = backend;
  } else {
    owned_backend_ = std::make_unique<evm::SessionBackend>();
    backend_ = owned_backend_.get();
  }
  backend_->Bind(host_.get(), evm::BlockContext(), evm::EvmConfig());

  std::vector<Address> senders = MakeSenderPool();
  codec_ = std::make_unique<AbiCodec>(&artifact_->abi, senders);
  for (const Address& sender : senders) {
    backend_->FundAccount(sender, U256::PowerOfTen(24));
  }

  // Deploy with typed random constructor arguments.
  Bytes ctor_args;
  for (const auto& input : artifact_->abi.constructor_inputs) {
    codec_->RandomValueForType(input.type, &rng_).AppendBytesBE(&ctor_args);
  }
  auto addr = backend_->DeployContract(artifact_->runtime_code,
                                       artifact_->ctor_code, ctor_args,
                                       senders[0], U256(0));
  if (addr.ok()) {
    contract_ = addr.value();
    backend_->FundAccount(contract_, config_.initial_contract_balance);
  }
  // Post-deploy rewind point: every sequence plan starts here (fresh state
  // per fuzz round, like the paper's re-execution model).
  backend_->MarkDeployed();

  mutation_ = std::make_unique<MutationPipeline>(
      codec_.get(), &dataflow_, &depgraph_, config_.strategy,
      config_.mask_stride_divisor);
  feedback_ = std::make_unique<FeedbackEngine>(artifact_, config_.strategy,
                                               mutation_->byte_mutator());
  if (scheduler != nullptr) {
    scheduler_ = scheduler;
  } else {
    owned_scheduler_ =
        std::make_unique<SeedScheduler>(config_.strategy.distance_feedback);
    scheduler_ = owned_scheduler_.get();
  }
  planner_ = std::make_unique<MutationPlanner>(
      codec_.get(), mutation_.get(), scheduler_, feedback_.get(), contract_,
      config_.base_energy, config_.strategy.dynamic_energy,
      host_stream_seed);
  // Close the steady-state recycling loop: a full queue's evictions hand
  // their buffers back to the planner, which serves them out again as
  // FuzzSeed shells for kept children (allocation hygiene only — admission
  // and eviction decisions are untouched).
  scheduler_->set_evict_hook(
      [this](FuzzSeed&& seed) { planner_->RecycleSeed(std::move(seed)); });
}

Campaign::~Campaign() {
  // A caller-supplied backend outlives this campaign, but the host it is
  // bound to dies here — drop the binding so later use can't reach a dead
  // host (the next campaign re-Binds anyway).
  if (owned_backend_ == nullptr && backend_ != nullptr) backend_->Unbind();
}

void Campaign::ApplyOutcome(const evm::SequenceOutcome& outcome,
                            ExecSignals* stats) {
  stats->new_branches = 0;
  stats->improved_distance = false;
  stats->hits_nested = false;
  stats->saw_overflow = false;
  stats->touched_pcs.clear();
  stats->best_tx = 0;
  result_.executions++;
  feedback_->BeginSequence();

  for (const evm::TxOutcome& txo : outcome.txs) {
    result_.transactions++;
    result_.instructions += txo.trace.instruction_count();
    feedback_->ProcessTx(txo.tag, txo.trace, txo.cmps, txo.success, &result_,
                         stats);
  }

  // Coverage-over-time samples.
  int interval =
      std::max(1, config_.max_executions / std::max(1, config_.coverage_samples));
  if (result_.executions % static_cast<uint64_t>(interval) == 0) {
    result_.coverage_curve.emplace_back(
        static_cast<int>(result_.executions),
        feedback_->coverage().Fraction());
  }
}

ExecSignals Campaign::ExecuteSequenceNow(const Sequence& seq) {
  if (contract_.IsZero() || artifact_->abi.functions.empty()) return {};
  planner_->BuildPlan(seq, &probe_plan_);
  ++planned_executions_;
  backend_->ExecuteSequenceInto(probe_plan_, &probe_outcome_);
  ApplyOutcome(probe_outcome_, &signals_scratch_);
  return signals_scratch_;
}

void Campaign::MaybeComputeMask(FuzzSeed* seed) {
  if (!mutation_->WantsMask(*seed)) return;
  // Mask probes are real executions; bound their share of the campaign so
  // masking never crowds out exploration (the paper's energy upper bound).
  uint64_t max_masks = static_cast<uint64_t>(config_.max_executions) / 250 + 2;
  if (result_.masks_computed >= max_masks) return;

  bool computed = mutation_->ComputeSeedMask(
      seed, &rng_,
      [this](const Sequence& seq) { return ExecuteSequenceNow(seq); });
  if (computed) result_.masks_computed++;
}

void Campaign::SeedCorpus() {
  result_ = CampaignResult();
  planned_executions_ = 0;
  parent_count_ = 0;
  steady_base_set_ = false;
  result_.total_jumpis = artifact_->total_jumpis;
  result_.island_id = island_id_;
  if (contract_.IsZero()) return;

  // Each initial seed is drawn, executed through the probe slot and applied
  // before the next is drawn. Drawing reads only the static ABI and
  // dependency graph, never feedback, so the interleaving changes no result.
  for (int k = 0; k < config_.initial_seeds; ++k) {
    FuzzSeed seed;
    seed.seq = mutation_->InitialSequence(&rng_);
    ExecSignals stats = ExecuteSequenceNow(seed.seq);
    seed.hits_nested = stats.hits_nested;
    seed.improved_distance = stats.improved_distance;
    seed.focus_tx = stats.best_tx;
    seed.priority = feedback_->InitialSeedPriority(stats);
    seed.touched_pcs = std::move(stats.touched_pcs);
    scheduler_->Add(std::move(seed));
  }
  // A service seeds every job before stepping any of them.
  backend_->Trim();

  // Steady state starts here: everything the hot loop needs is allocated.
  if (AllocStatsEnabled()) {
    steady_alloc_base_ = CurrentAllocStats().allocs;
    steady_base_set_ = true;
  }
}

bool Campaign::Done() const {
  return contract_.IsZero() || artifact_->abi.functions.empty() ||
         result_.executions >= static_cast<uint64_t>(config_.max_executions) ||
         scheduler_->empty();
}

void Campaign::ApplyChild(MutationPlanner::ParentPlan* parent,
                          ChildSlot* child) {
  ExecSignals& stats = signals_scratch_;
  ApplyOutcome(child->outcome, &stats);
  // UPDATE_ENERGY (Algorithm 1 line 29): productive children extend the
  // parent's budget. An extension earned by a child is visible when the
  // parent's next child after the one already in flight is planned,
  // never retroactively — the schedule depends only on (seed, K), not on
  // execution timing.
  planner_->ExtendEnergy(parent, stats.new_branches);
  ChildVerdict verdict = feedback_->JudgeChild(stats, &rng_);
  if (!verdict.keep) return;
  FuzzSeed seed = planner_->AcquireSeed();
  // Swap, not move: the shell's recycled sequence buffer lands in the
  // child slot, which the parent's next child overwrites warm.
  std::swap(seed.seq, child->seq);
  seed.hits_nested = stats.hits_nested;
  seed.improved_distance = stats.improved_distance;
  seed.touched_pcs = stats.touched_pcs;  // copy: scratch stays warm
  seed.focus_tx = stats.best_tx;
  seed.priority = verdict.priority;
  scheduler_->Add(std::move(seed));
}

bool Campaign::BeginParentSet(const MutationPlanner::MaskHook& mask_hook) {
  std::vector<MutationPlanner::ParentPlan> plans =
      planner_->BeginParents(&rng_, mask_hook, config_.fanout);
  if (parents_.size() < plans.size()) parents_.resize(plans.size());
  for (size_t r = 0; r < plans.size(); ++r) {
    ParentSlot& slot = parents_[r];
    slot.plan = std::move(plans[r]);
    slot.planned = false;
    slot.waiting = false;
  }
  parent_count_ = plans.size();
  return parent_count_ > 0;
}

bool Campaign::SweepParentSet(uint64_t bound) {
  // Plan phase (rank order): every parent with budget gets its next child
  // planned and executed *before* anyone's outcome is applied, and sweep
  // k's children are applied only after sweep k+1 is planned. The
  // plan/apply interleaving is fixed by this loop: results are a pure
  // function of (seed, K). (The fan-out interleaves rng draws differently
  // than K serial chains would — K, like the seed, is part of the
  // reproducibility key; see ARCHITECTURE.md.)
  for (size_t r = 0; r < parent_count_; ++r) {
    ParentSlot& slot = parents_[r];
    ChildSlot& child = slot.children[slot.next];
    slot.planned = planned_executions_ < bound &&
                   planner_->PlanChild(&slot.plan,
                                       bound - planned_executions_, &rng_,
                                       &child.seq, &child.plan);
    if (!slot.planned) continue;
    ++planned_executions_;
    backend_->ExecuteSequenceInto(child.plan, &child.outcome);
  }

  // Apply phase, strictly rank order — energy extensions and keep/Add
  // decisions land in this fixed order.
  bool more = false;
  for (size_t r = 0; r < parent_count_; ++r) {
    ParentSlot& slot = parents_[r];
    if (slot.waiting) ApplyChild(&slot.plan, &slot.children[slot.next ^ 1]);
    slot.waiting = slot.planned;
    if (slot.planned) slot.next ^= 1;
    more = more || slot.waiting ||
           (slot.plan.planned < slot.plan.allowed &&
            planned_executions_ < bound);
  }
  return more;
}

void Campaign::Advance(uint64_t bound, uint64_t pause_at) {
  if (Done()) return;
  MutationPlanner::MaskHook mask_hook = [this](FuzzSeed* seed) {
    MaybeComputeMask(seed);
  };
  for (;;) {
    // Set boundary: the set is drained here, so selection sees every
    // keep/Add decision so far — and the round's K picks land back to back
    // on a queue no child can change mid-selection.
    if (parent_count_ == 0 &&
        (planned_executions_ >= bound || !BeginParentSet(mask_hook))) {
      break;
    }
    // Pause between sweeps — never instead of one, so the schedule does not
    // depend on where pauses fall. A set with work left stays parked.
    bool more = SweepParentSet(bound);
    while (more && result_.executions < pause_at) more = SweepParentSet(bound);
    if (!more) parent_count_ = 0;
    if (result_.executions >= pause_at) break;
  }
  // Every return is a pause; a service may run hundreds of other jobs
  // before this one resumes.
  backend_->Trim();
}

void Campaign::StepRound(uint64_t round_executions) {
  const uint64_t budget = static_cast<uint64_t>(config_.max_executions);
  Advance(std::min(budget, planned_executions_ + round_executions),
          std::numeric_limits<uint64_t>::max());
}

void Campaign::StepStream(uint64_t quantum) {
  Advance(static_cast<uint64_t>(config_.max_executions),
          result_.executions + quantum);
}

void Campaign::DrainStream() {
  for (size_t r = 0; r < parent_count_; ++r) {
    ParentSlot& slot = parents_[r];
    if (!slot.waiting) continue;
    ApplyChild(&slot.plan, &slot.children[slot.next ^ 1]);
    slot.waiting = false;
  }
  parent_count_ = 0;
}

Campaign::Progress Campaign::SnapshotProgress() const {
  Progress progress;
  progress.executions = result_.executions;
  progress.transactions = result_.transactions;
  progress.coverage = feedback_->coverage().Fraction();
  progress.bugs_found = result_.bugs.size();
  progress.planned_executions = planned_executions_;
  progress.inflight_executions = planned_executions_ - result_.executions;
  progress.parents_in_flight = static_cast<int>(parent_count_);
  progress.code_cache = backend_->code_cache_stats();
  if (steady_base_set_ && AllocStatsEnabled()) {
    progress.heap_allocs = CurrentAllocStats().allocs - steady_alloc_base_;
  }
  return progress;
}

CampaignResult Campaign::Finalize() {
  result_.cancelled = cancelled_;
  result_.code_cache = backend_->code_cache_stats();
  if (contract_.IsZero()) return result_;

  // Canonical finalize view: rewind the last executed plan's residue to the
  // deployed mark before any state-reading oracle runs.
  backend_->Rewind();
  feedback_->Finalize(backend_->state(), contract_, scheduler_->stats(),
                      &result_);

  if (result_.coverage_curve.empty() ||
      result_.coverage_curve.back().first !=
          static_cast<int>(result_.executions)) {
    result_.coverage_curve.emplace_back(
        static_cast<int>(result_.executions), result_.branch_coverage);
  }
  return result_;
}

CampaignResult Campaign::Run() {
  SeedCorpus();
  StepRound(static_cast<uint64_t>(config_.max_executions));
  return Finalize();
}

CampaignResult RunCampaign(const lang::ContractArtifact& artifact,
                           const CampaignConfig& config,
                           evm::SessionBackend* backend) {
  Campaign campaign(&artifact, config, backend);
  return campaign.Run();
}

std::vector<CampaignResult> RunIslandGroup(
    const lang::ContractArtifact& artifact,
    const std::vector<CampaignConfig>& members, int exchange_interval) {
  std::vector<std::unique_ptr<SeedScheduler>> queues;
  queues.reserve(members.size());
  for (const CampaignConfig& config : members) {
    queues.push_back(
        std::make_unique<SeedScheduler>(config.strategy.distance_feedback));
  }
  ShardedSeedScheduler archipelago(std::move(queues));
  // Declared after the archipelago, so the campaigns are destroyed before
  // the queues they fuzz out of.
  std::vector<std::unique_ptr<Campaign>> campaigns;
  campaigns.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    const int island_id = static_cast<int>(i);
    campaigns.push_back(std::make_unique<Campaign>(
        &artifact, members[i], nullptr, archipelago.island(island_id),
        island_id));
    campaigns.back()->SeedCorpus();
  }
  const uint64_t interval =
      static_cast<uint64_t>(std::max(1, exchange_interval));
  for (;;) {
    bool stepped = false;
    for (const std::unique_ptr<Campaign>& campaign : campaigns) {
      if (campaign->Done()) continue;
      campaign->StepRound(interval);
      stepped = true;
    }
    if (!stepped) break;
    archipelago.RunMigrationRound(kIslandMigrationTopK);
  }
  std::vector<CampaignResult> results;
  results.reserve(campaigns.size());
  for (const std::unique_ptr<Campaign>& campaign : campaigns) {
    results.push_back(campaign->Finalize());
  }
  return results;
}

}  // namespace mufuzz::fuzzer
