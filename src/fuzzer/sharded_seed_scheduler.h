#ifndef MUFUZZ_FUZZER_SHARDED_SEED_SCHEDULER_H_
#define MUFUZZ_FUZZER_SHARDED_SEED_SCHEDULER_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "fuzzer/seed_scheduler.h"

namespace mufuzz::fuzzer {

/// An archipelago of seed queues: one private `SeedScheduler` island per
/// campaign, plus the deterministic cross-island migration step (the
/// "sharded corpus" of the ROADMAP's island model).
///
/// Concurrency contract: there are no locks. `RunMigrationRound` must be
/// called while no campaign is stepping; RunIslandGroup steps and migrates
/// a whole group on one thread, so its round loop provides exactly that
/// window.
///
/// Determinism contract: a migration round is a pure function of island
/// contents. The round snapshots every island's top-k into a round-indexed
/// exchange buffer *before* any import, then merges into each destination
/// in (source island id, seed rank) order. Island ids are assigned by the
/// caller from member order — never from thread ids — so the merged outcome is
/// bit-for-bit independent of worker count, scheduling, and completion
/// order.
class ShardedSeedScheduler {
 public:
  /// Takes ownership of pre-built islands (one per campaign; per-island
  /// policy flags may differ when the group mixes strategies).
  explicit ShardedSeedScheduler(
      std::vector<std::unique_ptr<SeedScheduler>> islands);

  /// Convenience: `num_islands` uniform islands.
  ShardedSeedScheduler(int num_islands, bool distance_feedback,
                       size_t max_queue = SeedScheduler::kDefaultMaxQueue);

  SeedScheduler* island(int i) { return islands_[i].get(); }
  int num_islands() const { return static_cast<int>(islands_.size()); }

  /// One migration round: every island exports clones of its top `top_k`
  /// seeds into the exchange buffer, then every island imports every
  /// *foreign* buffered seed in (source island id, rank) order through the
  /// normal admission policy — except migrants whose exact sequence the
  /// destination already holds, which are skipped (clones never
  /// recirculate). Returns the number of admitted migrants. No-op (and not
  /// counted as a round) with fewer than two islands or top_k <= 0.
  uint64_t RunMigrationRound(int top_k);

  /// Completed migration rounds — the index the next exchange buffer will
  /// carry.
  int rounds_completed() const { return rounds_completed_; }

  /// The last round's exchange buffer, indexed by source island
  /// (diagnostics / tests).
  const std::vector<std::vector<FuzzSeed>>& last_exchange() const {
    return exchange_buffer_;
  }

 private:
  std::vector<std::unique_ptr<SeedScheduler>> islands_;
  std::vector<std::vector<FuzzSeed>> exchange_buffer_;
  int rounds_completed_ = 0;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_SHARDED_SEED_SCHEDULER_H_
