#ifndef MUFUZZ_FUZZER_MUTATION_PLANNER_H_
#define MUFUZZ_FUZZER_MUTATION_PLANNER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "evm/execution_backend.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/feedback_engine.h"
#include "fuzzer/mutation_pipeline.h"
#include "fuzzer/seed_scheduler.h"

namespace mufuzz::fuzzer {

/// The planning stage of the campaign loop: selects a round's parent set
/// from the scheduler, snapshots the fields mutation needs (so a child in
/// flight never dangles into the queue), assigns each parent's energy, and
/// mutates one child at a time into a caller-owned sequence and its
/// self-contained evm::SequencePlan. The campaign owns every slot it plans
/// into; the planner keeps only the spare PreparedTx and FuzzSeed buffers.
///
/// Determinism: every plan draws its environment seed from the planner's
/// private host-seed stream *in planning order*, and all mutation
/// randomness comes from the campaign Rng passed in. Since the campaign's
/// loop calls BeginParents/PlanChild/ExtendEnergy in a fixed order
/// (independent of backend timing), the full plan stream — and therefore
/// the campaign result — is a pure function of the campaign seed and the
/// fan-out K, for any worker count.
class MutationPlanner {
 public:
  MutationPlanner(const AbiCodec* codec, MutationPipeline* mutation,
                  SeedScheduler* scheduler, FeedbackEngine* feedback,
                  const Address& contract, int base_energy,
                  bool dynamic_energy, uint64_t host_stream_seed);

  /// The per-parent mutation budget and the snapshot mutation works from.
  struct ParentPlan {
    bool valid = false;
    SeedId id = kInvalidSeedId;  ///< stable handle of the selected resident
    int rank = 0;     ///< position in the round's parent set (0 = first pick)
    Sequence seq;
    MutationMask mask;
    bool mask_valid = false;
    int focus = 0;
    int allowed = 0;  ///< children this parent may spawn (UPDATE_ENERGY raises)
    int planned = 0;  ///< children planned so far
    int cap = 0;      ///< absolute ceiling: base * kMaxEnergyFactor
  };

  /// Runs before energy assignment on the freshly selected parent —
  /// the campaign hangs mask computation (which itself executes probe
  /// sequences) here.
  using MaskHook = std::function<void(FuzzSeed*)>;

  /// Begins one speculative expansion round: selects up to `fanout`
  /// distinct parents (one SeedScheduler::SelectParents round — all picks
  /// land back to back, so no handle is invalidated between them), then
  /// per rank runs the mask hook, assigns energy, and snapshots the parent.
  /// Requires every previously planned child to be applied (selection
  /// reads the queue). Returns an empty vector when the queue
  /// is empty. `fanout <= 1` is the serial parent chain, pick for pick.
  std::vector<ParentPlan> BeginParents(Rng* rng, const MaskHook& mask_hook,
                                       int fanout);

  /// Plans the parent's next child into `child` and `plan` when the parent
  /// has budget left and `room` > 0; returns false (touching neither)
  /// otherwise. Both are overwritten in place, keeping their heap capacity.
  bool PlanChild(ParentPlan* parent, uint64_t room, Rng* rng, Sequence* child,
                 evm::SequencePlan* plan);

  /// UPDATE_ENERGY (Algorithm 1 line 29), applied by the apply stage:
  /// productive children extend the parent's budget, up to the cap.
  void ExtendEnergy(ParentPlan* parent, int new_branches);

  /// Encodes a sequence into `plan`, drawing the plan's environment seed
  /// from the host-seed stream. Unencodable transactions (out-of-range
  /// function index) are skipped; each PreparedTx is tagged with its
  /// position in `seq` so feedback indexes line up. The plan's PreparedTx
  /// slots (and their calldata buffers) are reused in place; extras are
  /// parked in a spare stash for the next plan that grows.
  void BuildPlan(const Sequence& seq, evm::SequencePlan* plan);

  /// A warm FuzzSeed shell for the apply stage: containers keep their
  /// capacity from a recycled (evicted) seed, scalar fields are reset.
  /// `seq` may still hold stale transactions (clearing would free the warm
  /// Tx slots) — the caller must overwrite or swap it before reading.
  FuzzSeed AcquireSeed();

  /// Returns an evicted seed's buffers to the pool (the scheduler's
  /// evict-hook target). Beyond the cap the seed is simply freed.
  void RecycleSeed(FuzzSeed seed);

 private:
  /// Spare-stash cap — beyond it, recycled objects are simply freed.
  static constexpr size_t kMaxSpareObjects = 256;

  const AbiCodec* codec_;
  MutationPipeline* mutation_;
  SeedScheduler* scheduler_;
  FeedbackEngine* feedback_;
  Address contract_;
  int base_energy_;
  bool dynamic_energy_;
  /// Private stream for per-sequence environment seeds, advanced once per
  /// BuildPlan in planning order.
  Rng host_stream_;

  // Spare stashes (client-thread only; reuse never affects results —
  // every reused object is fully overwritten before use).
  std::vector<evm::PreparedTx> spare_txs_;
  std::vector<FuzzSeed> spare_seeds_;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_MUTATION_PLANNER_H_
