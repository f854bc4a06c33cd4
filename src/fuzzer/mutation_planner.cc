#include "fuzzer/mutation_planner.h"

#include <algorithm>

#include "fuzzer/energy.h"

namespace mufuzz::fuzzer {

MutationPlanner::MutationPlanner(const AbiCodec* codec,
                                 MutationPipeline* mutation,
                                 SeedScheduler* scheduler,
                                 FeedbackEngine* feedback,
                                 const Address& contract, int base_energy,
                                 bool dynamic_energy,
                                 uint64_t host_stream_seed)
    : codec_(codec),
      mutation_(mutation),
      scheduler_(scheduler),
      feedback_(feedback),
      contract_(contract),
      base_energy_(base_energy),
      dynamic_energy_(dynamic_energy),
      host_stream_(host_stream_seed) {}

std::vector<MutationPlanner::ParentPlan> MutationPlanner::BeginParents(
    Rng* rng, const MaskHook& mask_hook, int fanout) {
  std::vector<ParentPlan> parents;
  const size_t k = static_cast<size_t>(std::max(1, fanout));
  // All K picks happen here, before any mask probe or energy assignment:
  // the queue does not change between picks, so the ids stay distinct and
  // resolvable for the whole loop below.
  std::vector<SeedId> ids = scheduler_->SelectParents(rng, k);
  parents.reserve(ids.size());
  for (size_t rank = 0; rank < ids.size(); ++rank) {
    FuzzSeed* seed = scheduler_->Get(ids[rank]);
    if (seed == nullptr) continue;  // unreachable: picks are resident

    if (mask_hook) mask_hook(seed);
    // The hook may have executed probe sequences, but probes only read the
    // queue through Get(id)-stable handles and never Add — `seed` (and the
    // remaining ranks' handles) stays valid.

    int energy = dynamic_energy_
                     ? feedback_->energy().AssignEnergy(seed->touched_pcs,
                                                        base_energy_)
                     : base_energy_;

    // Snapshot the parent's fields — stable-handle discipline: in-flight
    // waves outlive any FuzzSeed* (the apply stage's Add() reallocates the
    // queue), so planning works from this copy, never the resident seed.
    ParentPlan parent;
    parent.valid = true;
    parent.id = ids[rank];
    parent.rank = static_cast<int>(rank);
    parent.seq = seed->seq;
    parent.mask = seed->mask;
    parent.mask_valid = seed->mask_valid;
    parent.focus =
        parent.seq.empty()
            ? 0
            : std::min<int>(seed->focus_tx,
                            static_cast<int>(parent.seq.size()) - 1);
    parent.allowed = energy;
    parent.cap = static_cast<int>(base_energy_ *
                                  EnergyScheduler::kMaxEnergyFactor);
    parents.push_back(std::move(parent));
  }
  return parents;
}

MutationPlanner::Wave MutationPlanner::PlanWave(ParentPlan* parent,
                                                uint64_t room, Rng* rng) {
  Wave wave;
  if (!child_vec_pool_.empty()) {
    wave.children = std::move(child_vec_pool_.back());
    child_vec_pool_.pop_back();
  }
  if (!plan_vec_pool_.empty()) {
    wave.plans = std::move(plan_vec_pool_.back());
    plan_vec_pool_.pop_back();
  }
  if (!parent->valid || parent->planned >= parent->allowed || room == 0) {
    return wave;
  }
  // Copy-assign into a warm slot: the recycled Sequence's Tx/args vectors
  // keep their capacity, so the parent copy doesn't allocate.
  Sequence* seq = NextChildSlot(&wave.children);
  *seq = parent->seq;
  mutation_->MutateChild(seq, parent->mask, parent->mask_valid, parent->focus,
                         rng);
  BuildPlanInto(*seq, NextPlanSlot(&wave.plans));
  ++parent->planned;
  return wave;
}

Sequence* MutationPlanner::NextChildSlot(std::vector<Sequence>* children) {
  if (!spare_children_.empty()) {
    children->push_back(std::move(spare_children_.back()));
    spare_children_.pop_back();
  } else {
    children->emplace_back();
  }
  return &children->back();
}

evm::SequencePlan* MutationPlanner::NextPlanSlot(
    std::vector<evm::SequencePlan>* plans) {
  if (!spare_plans_.empty()) {
    plans->push_back(std::move(spare_plans_.back()));
    spare_plans_.pop_back();
  } else {
    plans->emplace_back();
  }
  return &plans->back();
}

void MutationPlanner::RecycleChildren(std::vector<Sequence> children) {
  for (Sequence& seq : children) {
    if (spare_children_.size() >= kMaxSpareObjects) break;
    spare_children_.push_back(std::move(seq));
  }
  children.clear();
  if (child_vec_pool_.size() < kMaxPooledVectors) {
    child_vec_pool_.push_back(std::move(children));
  }
}

void MutationPlanner::RecyclePlans(std::vector<evm::SequencePlan> plans) {
  for (evm::SequencePlan& plan : plans) {
    if (spare_plans_.size() >= kMaxSpareObjects) break;
    spare_plans_.push_back(std::move(plan));
  }
  plans.clear();
  if (plan_vec_pool_.size() < kMaxPooledVectors) {
    plan_vec_pool_.push_back(std::move(plans));
  }
}

FuzzSeed MutationPlanner::AcquireSeed() {
  if (spare_seeds_.empty()) return FuzzSeed{};
  FuzzSeed seed = std::move(spare_seeds_.back());
  spare_seeds_.pop_back();
  // Containers keep their capacity; scalar fields reset to the
  // default-constructed state. `seq` intentionally keeps its stale
  // transactions — clearing would destroy the warm Tx slots — so the
  // caller must overwrite or swap it before the seed is read.
  seed.touched_pcs.clear();
  seed.mask.Reset();
  seed.priority = 1.0;
  seed.hits_nested = false;
  seed.improved_distance = false;
  seed.focus_tx = 0;
  seed.mask_valid = false;
  return seed;
}

void MutationPlanner::RecycleSeed(FuzzSeed seed) {
  if (spare_seeds_.size() >= kMaxSpareObjects) return;
  spare_seeds_.push_back(std::move(seed));
}

std::vector<evm::SequencePlan> MutationPlanner::AcquirePlanVec() {
  std::vector<evm::SequencePlan> plans;
  if (!plan_vec_pool_.empty()) {
    plans = std::move(plan_vec_pool_.back());
    plan_vec_pool_.pop_back();
  }
  return plans;
}

void MutationPlanner::ExtendEnergy(ParentPlan* parent, int new_branches) {
  if (new_branches <= 0) return;
  parent->allowed = std::min(parent->allowed + 2, parent->cap);
}

evm::SequencePlan MutationPlanner::BuildPlan(const Sequence& seq) {
  evm::SequencePlan plan;
  if (!spare_plans_.empty()) {
    plan = std::move(spare_plans_.back());
    spare_plans_.pop_back();
  }
  BuildPlanInto(seq, &plan);
  return plan;
}

void MutationPlanner::BuildPlanInto(const Sequence& seq,
                                    evm::SequencePlan* plan) {
  plan->host_seed = host_stream_.NextU64();
  const std::vector<Address>& senders = codec_->senders();
  const size_t fn_count = codec_->abi().functions.size();
  const uint64_t default_gas = evm::TransactionRequest().gas;
  size_t used = 0;
  for (size_t i = 0; i < seq.size(); ++i) {
    const Tx& tx = seq[i];
    if (tx.fn_index < 0 || tx.fn_index >= static_cast<int>(fn_count)) {
      continue;
    }
    if (used == plan->txs.size()) {
      if (!spare_txs_.empty()) {
        plan->txs.push_back(std::move(spare_txs_.back()));
        spare_txs_.pop_back();
      } else {
        plan->txs.emplace_back();
      }
    }
    // Every field is overwritten — a recycled slot can't leak stale state.
    evm::PreparedTx& prepared = plan->txs[used];
    prepared.tag = static_cast<int>(i);
    prepared.request.to = contract_;
    prepared.request.sender = senders[tx.sender_index % senders.size()];
    prepared.request.value = tx.value;
    prepared.request.gas = default_gas;
    codec_->EncodeCalldataInto(tx, &prepared.request.data);
    ++used;
  }
  while (plan->txs.size() > used) {
    if (spare_txs_.size() < kMaxSpareObjects) {
      spare_txs_.push_back(std::move(plan->txs.back()));
    }
    plan->txs.pop_back();
  }
}

}  // namespace mufuzz::fuzzer
