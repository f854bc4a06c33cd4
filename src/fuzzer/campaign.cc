#include "fuzzer/campaign.h"

#include <algorithm>
#include <utility>

#include "common/alloc_stats.h"

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
                   CampaignConfig config, evm::ExecutionBackend* backend,
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
  // Route through the batch entry point so the probe's plan and outcome
  // flow through the same recycle pools as wave executions.
  std::vector<evm::SequencePlan> plans = planner_->AcquirePlanVec();
  plans.push_back(planner_->BuildPlan(seq));
  ++planned_executions_;
  std::vector<evm::SequenceOutcome> outcomes =
      backend_->ExecuteSequenceBatch(plans);
  ApplyOutcome(outcomes.front(), &signals_scratch_);
  backend_->RecycleOutcomes(std::move(outcomes));
  planner_->RecyclePlans(std::move(plans));
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
  steady_base_set_ = false;
  result_.total_jumpis = artifact_->total_jumpis;
  result_.island_id = island_id_;
  if (contract_.IsZero()) return;

  // The initial seeds are mutually independent, so they ride the batch API
  // as one wave: planned in order, executed together, applied in order.
  const bool executable = !artifact_->abi.functions.empty();
  std::vector<Sequence> seqs;
  std::vector<evm::SequencePlan> plans;
  seqs.reserve(config_.initial_seeds);
  plans.reserve(config_.initial_seeds);
  for (int k = 0; k < config_.initial_seeds; ++k) {
    seqs.push_back(mutation_->InitialSequence(&rng_));
    if (executable) {
      plans.push_back(planner_->BuildPlan(seqs.back()));
      ++planned_executions_;
    }
  }
  std::vector<evm::SequenceOutcome> outcomes;
  if (executable) outcomes = backend_->ExecuteSequenceBatch(plans);

  for (int k = 0; k < config_.initial_seeds; ++k) {
    ExecSignals stats;
    if (executable) {
      ApplyOutcome(outcomes[static_cast<size_t>(k)], &signals_scratch_);
      stats = signals_scratch_;
    }
    FuzzSeed seed;
    seed.seq = std::move(seqs[static_cast<size_t>(k)]);
    seed.hits_nested = stats.hits_nested;
    seed.improved_distance = stats.improved_distance;
    seed.touched_pcs = stats.touched_pcs;
    seed.focus_tx = stats.best_tx;
    seed.priority = feedback_->InitialSeedPriority(stats);
    scheduler_->Add(std::move(seed));
  }
  if (executable) {
    backend_->RecycleOutcomes(std::move(outcomes));
    planner_->RecyclePlans(std::move(plans));
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
  return contract_.IsZero() ||
         result_.executions >= static_cast<uint64_t>(config_.max_executions) ||
         scheduler_->empty();
}

void Campaign::ApplyWave(MutationPlanner::ParentPlan* parent,
                         InFlightWave* inflight) {
  std::vector<Sequence>& children = inflight->wave.children;
  for (size_t i = 0; i < children.size(); ++i) {
    ExecSignals& stats = signals_scratch_;
    ApplyOutcome(inflight->outcomes[i], &stats);
    // UPDATE_ENERGY (Algorithm 1 line 29): productive children extend the
    // parent's budget. An extension earned by a child is visible when the
    // parent's next child after the one already in flight is planned,
    // never retroactively — the schedule depends only on (seed, K), not on
    // execution timing.
    planner_->ExtendEnergy(parent, stats.new_branches);
    ChildVerdict verdict = feedback_->JudgeChild(stats, &rng_);
    if (!verdict.keep) continue;
    FuzzSeed child = planner_->AcquireSeed();
    // Swap, not move: the shell's recycled sequence buffer lands in
    // children[i] and flows back to the planner's spare pool warm.
    std::swap(child.seq, children[i]);
    child.hits_nested = stats.hits_nested;
    child.improved_distance = stats.improved_distance;
    child.touched_pcs = stats.touched_pcs;  // copy: scratch stays warm
    child.focus_tx = stats.best_tx;
    child.priority = verdict.priority;
    scheduler_->Add(std::move(child));
  }
  // Spent wave: outcomes back to the backend pool, plans and child
  // sequences back to the planner pools.
  backend_->RecycleOutcomes(std::move(inflight->outcomes));
  planner_->RecyclePlans(std::move(inflight->wave.plans));
  planner_->RecycleChildren(std::move(children));
}

std::vector<Campaign::ParentSlot> Campaign::BeginParentSet(
    const MutationPlanner::MaskHook& mask_hook) {
  std::vector<MutationPlanner::ParentPlan> plans =
      planner_->BeginParents(&rng_, mask_hook, config_.fanout);
  std::vector<ParentSlot> parents;
  parents.reserve(plans.size());
  for (MutationPlanner::ParentPlan& plan : plans) {
    ParentSlot slot;
    slot.plan = std::move(plan);
    parents.push_back(std::move(slot));
  }
  return parents;
}

bool Campaign::SweepParentSet(std::vector<ParentSlot>* parents,
                              uint64_t bound) {
  // Plan phase (rank order): every parent with budget gets its next child
  // planned and executed *before* anyone's outcomes are applied, and sweep
  // k's waves are applied only after sweep k+1 is planned. The plan/apply
  // interleaving is fixed by this loop: results are a pure function of
  // (seed, K). (The fan-out interleaves rng draws differently than K serial
  // chains would — K, like the seed, is part of the reproducibility key;
  // see ARCHITECTURE.md.)
  std::vector<std::optional<InFlightWave>> next(parents->size());
  for (size_t r = 0; r < parents->size(); ++r) {
    ParentSlot& slot = (*parents)[r];
    if (slot.plan.planned >= slot.plan.allowed ||
        planned_executions_ >= bound) {
      continue;
    }
    MutationPlanner::Wave planned =
        planner_->PlanWave(&slot.plan, bound - planned_executions_, &rng_);
    if (planned.children.empty()) {
      planner_->RecycleChildren(std::move(planned.children));
      planner_->RecyclePlans(std::move(planned.plans));
      continue;
    }
    planned_executions_ += planned.children.size();
    InFlightWave wave;
    wave.outcomes = backend_->ExecuteSequenceBatch(planned.plans);
    wave.wave = std::move(planned);
    next[r].emplace(std::move(wave));
  }

  // Apply phase, strictly (parent rank, child index) order — energy
  // extensions and keep/Add decisions land in this fixed order.
  for (size_t r = 0; r < parents->size(); ++r) {
    ParentSlot& slot = (*parents)[r];
    if (slot.inflight.has_value()) ApplyWave(&slot.plan, &*slot.inflight);
    slot.inflight = std::move(next[r]);
  }

  for (const ParentSlot& slot : *parents) {
    if (slot.inflight.has_value()) return true;
    if (slot.plan.planned < slot.plan.allowed &&
        planned_executions_ < bound) {
      return true;
    }
  }
  return false;
}

void Campaign::StepRound(uint64_t round_executions) {
  if (contract_.IsZero() || artifact_->abi.functions.empty()) return;
  const uint64_t budget = static_cast<uint64_t>(config_.max_executions);
  const uint64_t target =
      std::min(budget, planned_executions_ + round_executions);

  MutationPlanner::MaskHook mask_hook = [this](FuzzSeed* seed) {
    MaybeComputeMask(seed);
  };

  while (planned_executions_ < target) {
    // Set boundary: the pipeline is drained here, so selection sees every
    // keep/Add decision of earlier waves — and the round's K picks land
    // back to back on a queue no wave can mutate mid-selection.
    std::vector<ParentSlot> parents = BeginParentSet(mask_hook);
    if (parents.empty()) break;
    while (SweepParentSet(&parents, target)) {
    }
  }
  backend_->Trim();
}

void Campaign::StepStream(uint64_t quantum) {
  if (contract_.IsZero() || artifact_->abi.functions.empty()) return;
  if (!stream_.has_value()) stream_.emplace();
  StreamState& s = *stream_;
  if (s.exhausted) return;

  // This loop is the StepRound sweep loop with two differences: every
  // planning decision is bounded by the *campaign budget* (never a round
  // target — so the operation sequence matches the monolithic run exactly),
  // and instead of draining at the end it returns with the whole parent
  // set — and its in-flight waves — parked in `stream_`, to be resumed by
  // the next call.
  const uint64_t budget = static_cast<uint64_t>(config_.max_executions);
  const uint64_t pause_at = result_.executions + quantum;
  // Every return is a pause; the service may run hundreds of other jobs
  // before this one resumes.
  struct TrimOnPause {
    evm::ExecutionBackend* backend;
    ~TrimOnPause() { backend->Trim(); }
  } trim_on_pause{backend_};

  MutationPlanner::MaskHook mask_hook = [this](FuzzSeed* seed) {
    MaybeComputeMask(seed);
  };

  for (;;) {
    if (s.parents.empty()) {
      if (planned_executions_ >= budget) {
        s.exhausted = true;
        return;
      }
      s.parents = BeginParentSet(mask_hook);
      if (s.parents.empty()) {
        s.exhausted = true;
        return;
      }
    }
    while (SweepParentSet(&s.parents, budget)) {
      // Pause between pipeline sweeps — never instead of one, so the
      // schedule is unchanged. The set's unapplied waves (if any) stay
      // parked with it.
      if (result_.executions >= pause_at) return;
    }
    s.parents.clear();
    if (result_.executions >= pause_at) return;  // set-boundary pause
  }
}

bool Campaign::StreamDone() const {
  return contract_.IsZero() || artifact_->abi.functions.empty() ||
         (stream_.has_value() && stream_->exhausted) || Done();
}

void Campaign::DrainStream() {
  if (!stream_.has_value()) return;
  StreamState& s = *stream_;
  // Apply whatever the speculative set has executed — in (parent rank,
  // child index) order, exactly as a continued run would — then abandon
  // the set: the partial result accounts for every executed child of all
  // K parents.
  for (ParentSlot& slot : s.parents) {
    if (!slot.inflight.has_value()) continue;
    ApplyWave(&slot.plan, &*slot.inflight);
    slot.inflight.reset();
  }
  s.parents.clear();
  s.exhausted = true;
}

Campaign::Progress Campaign::SnapshotProgress() const {
  Progress progress;
  progress.executions = result_.executions;
  progress.transactions = result_.transactions;
  progress.coverage = feedback_->coverage().Fraction();
  progress.bugs_found = result_.bugs.size();
  progress.planned_executions = planned_executions_;
  progress.inflight_executions = planned_executions_ - result_.executions;
  if (stream_.has_value()) {
    progress.parents_in_flight = static_cast<int>(stream_->parents.size());
  }
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
                           evm::ExecutionBackend* backend) {
  Campaign campaign(&artifact, config, backend);
  return campaign.Run();
}

}  // namespace mufuzz::fuzzer
