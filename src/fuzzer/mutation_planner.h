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

/// The planning stage of the wave pipeline: selects a round's parent set
/// from the scheduler, snapshots the fields mutation needs (so in-flight
/// waves never dangle into the queue), assigns each parent's energy, and
/// turns mutated children into self-contained evm::SequencePlans the
/// execute stage can ship to any backend.
///
/// Determinism: every plan draws its environment seed from the planner's
/// private host-seed stream *in planning order*, and all mutation
/// randomness comes from the campaign Rng passed in. Since the campaign's
/// staged loop calls BeginParents/PlanWave/ExtendEnergy in a fixed order
/// (independent of backend timing), the full plan stream — and therefore
/// the campaign result — is a pure function of the campaign seed and the
/// fan-out K, for any backend and any worker count.
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

  /// One planned wave: the mutated child sequences (kept for the apply
  /// stage's keep/Add decision) and their encoded plans (executed by the
  /// backend), index-aligned. Both vectors are drawn from the planner's
  /// recycle pools — hand them back via RecycleChildren / RecyclePlans when
  /// spent, and the steady-state planning path stops allocating.
  struct Wave {
    std::vector<Sequence> children;
    std::vector<evm::SequencePlan> plans;
  };

  /// Runs before energy assignment on the freshly selected parent —
  /// the campaign hangs mask computation (which itself executes probe
  /// sequences) here.
  using MaskHook = std::function<void(FuzzSeed*)>;

  /// Begins one speculative expansion round: selects up to `fanout`
  /// distinct parents (one SeedScheduler::SelectParents round — all picks
  /// land back to back, so no handle is invalidated between them), then
  /// per rank runs the mask hook, assigns energy, and snapshots the parent.
  /// Requires every outcome of previously planned waves to be applied
  /// (selection reads the queue). Returns an empty vector when the queue
  /// is empty. `fanout <= 1` is the serial parent chain, pick for pick.
  std::vector<ParentPlan> BeginParents(Rng* rng, const MaskHook& mask_hook,
                                       int fanout);

  /// Plans the parent's next child: one when the parent has budget left and
  /// `room` > 0, none otherwise.
  Wave PlanWave(ParentPlan* parent, uint64_t room, Rng* rng);

  /// Returns a spent wave's child sequences to the recycle pool (their
  /// nested Tx/args capacity is reused by the next PlanWave). Client thread
  /// only, like every planner call.
  void RecycleChildren(std::vector<Sequence> children);

  /// Returns spent plans (their wave applied) so the next BuildPlan
  /// encodes into their warm calldata buffers instead of allocating.
  void RecyclePlans(std::vector<evm::SequencePlan> plans);

  /// UPDATE_ENERGY (Algorithm 1 line 29), applied by the apply stage:
  /// productive children extend the parent's budget, up to the cap.
  void ExtendEnergy(ParentPlan* parent, int new_branches);

  /// Encodes a sequence into a self-contained plan, drawing the plan's
  /// environment seed from the host-seed stream. Unencodable transactions
  /// (out-of-range function index) are skipped; each PreparedTx is tagged
  /// with its position in `seq` so feedback indexes line up.
  evm::SequencePlan BuildPlan(const Sequence& seq);

  /// A warm FuzzSeed shell for the apply stage: containers keep their
  /// capacity from a recycled (evicted) seed, scalar fields are reset.
  /// `seq` may still hold stale transactions (clearing would free the warm
  /// Tx slots) — the caller must overwrite or swap it before reading.
  FuzzSeed AcquireSeed();

  /// Returns an evicted seed's buffers to the pool (the scheduler's
  /// evict-hook target). Beyond the cap the seed is simply freed.
  void RecycleSeed(FuzzSeed seed);

  /// A pooled empty plan vector for one-off (probe) executions, so the
  /// mask-probe path shares the wave path's vector recycling.
  std::vector<evm::SequencePlan> AcquirePlanVec();

 private:
  /// BuildPlan into a recycled plan object: PreparedTx slots (and their
  /// calldata buffers) are reused in place, extras parked in spare_txs_.
  void BuildPlanInto(const Sequence& seq, evm::SequencePlan* plan);
  /// Appends a warm slot (from the spare stash when possible) and returns it.
  Sequence* NextChildSlot(std::vector<Sequence>* children);
  evm::SequencePlan* NextPlanSlot(std::vector<evm::SequencePlan>* plans);

  /// Pool caps — beyond these, recycled objects are simply freed.
  static constexpr size_t kMaxPooledVectors = 16;
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

  // Recycle pools (client-thread only; recycling never affects results —
  // every reused object is fully overwritten before use).
  std::vector<std::vector<Sequence>> child_vec_pool_;
  std::vector<Sequence> spare_children_;
  std::vector<std::vector<evm::SequencePlan>> plan_vec_pool_;
  std::vector<evm::SequencePlan> spare_plans_;
  std::vector<evm::PreparedTx> spare_txs_;
  std::vector<FuzzSeed> spare_seeds_;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_MUTATION_PLANNER_H_
