#include "fuzzer/seed_scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace mufuzz::fuzzer {

SeedScheduler::SeedScheduler(bool distance_feedback, size_t max_queue)
    : distance_feedback_(distance_feedback), max_queue_(max_queue) {}

SeedId SeedScheduler::Select(Rng* rng) {
  SeedId id = SelectExcluding(rng, {});
  if (id != kInvalidSeedId) {
    stats_.selects++;
    stats_.select_rounds++;
  }
  return id;
}

SeedId SeedScheduler::SelectExcluding(Rng* rng,
                                      std::span<const SeedId> exclude) {
  // Candidate view: residents not picked earlier this round, in admission
  // order. With an empty exclusion this is the queue itself, so the draws
  // below are exactly the single-Select draws.
  std::vector<size_t> candidates;
  candidates.reserve(queue_.size());
  for (size_t i = 0; i < queue_.size(); ++i) {
    bool excluded = false;
    for (SeedId id : exclude) {
      if (queue_[i].id == id) {
        excluded = true;
        break;
      }
    }
    if (!excluded) candidates.push_back(i);
  }
  if (candidates.empty()) return kInvalidSeedId;
  if (!distance_feedback_ || rng->Chance(0.3)) {
    return queue_[candidates[rng->NextBelow(candidates.size())]].id;
  }
  // Branch-distance feedback: prefer the highest-priority candidate. Scan in
  // admission order, strict '>' keeps the oldest on ties (stable iteration).
  Entry* best = &queue_[candidates[0]];
  for (size_t i : candidates) {
    if (queue_[i].seed.priority > best->seed.priority) best = &queue_[i];
  }
  // Mild decay avoids starving the rest of the queue: a repeatedly chosen
  // seed sinks below its rivals, and the 30% uniform arm above guarantees
  // every resident keeps a floor probability of selection.
  best->seed.priority *= 0.95;
  return best->id;
}

std::vector<SeedId> SeedScheduler::SelectParents(Rng* rng, size_t k) {
  std::vector<SeedId> picked;
  // Picks are distinct residents, so a round never outgrows the queue; `k`
  // comes straight from a job's `fanout` and may be far larger.
  picked.reserve(std::min(k, queue_.size()));
  for (size_t i = 0; i < k; ++i) {
    SeedId id = SelectExcluding(rng, picked);
    if (id == kInvalidSeedId) break;
    // Contract hardening: a pick that resolves to an earlier pick of the
    // same round (an override ignoring `exclude`, or an id recycled across
    // an eviction — neither happens with this implementation) is rejected;
    // one resident must never be expanded as two parents.
    bool alias = false;
    for (SeedId prev : picked) {
      if (prev == id) {
        alias = true;
        break;
      }
    }
    if (alias) break;
    picked.push_back(id);
  }
  if (!picked.empty()) {
    stats_.selects += picked.size();
    stats_.select_rounds++;
  }
  return picked;
}

FuzzSeed* SeedScheduler::Get(SeedId id) {
  for (Entry& entry : queue_) {
    if (entry.id == id) return &entry.seed;
  }
  return nullptr;
}

size_t SeedScheduler::WorstIndex() const {
  assert(!queue_.empty());
  size_t worst = 0;
  for (size_t i = 1; i < queue_.size(); ++i) {
    if (queue_[i].seed.priority < queue_[worst].seed.priority) worst = i;
  }
  return worst;
}

bool SeedScheduler::Add(FuzzSeed seed) {
  if (queue_.size() >= max_queue_) {
    size_t worst = WorstIndex();
    // Eviction-inversion guard: a full queue never trades a better resident
    // for a strictly worse newcomer.
    if (seed.priority < queue_[worst].seed.priority) {
      stats_.rejected++;
      return false;
    }
    if (evict_hook_) evict_hook_(std::move(queue_[worst].seed));
    queue_.erase(queue_.begin() + worst);
    stats_.evicted++;
  }
  queue_.push_back(Entry{next_id_++, std::move(seed)});
  stats_.admitted++;
  return true;
}

std::vector<FuzzSeed> SeedScheduler::ExportTop(size_t k) {
  // Rank by (priority desc, id asc) over a copy of the index set so the
  // queue's admission order is untouched.
  std::vector<size_t> order(queue_.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    if (queue_[a].seed.priority != queue_[b].seed.priority) {
      return queue_[a].seed.priority > queue_[b].seed.priority;
    }
    return queue_[a].id < queue_[b].id;
  });
  std::vector<FuzzSeed> top;
  size_t n = std::min(k, order.size());
  top.reserve(n);
  for (size_t i = 0; i < n; ++i) top.push_back(queue_[order[i]].seed);
  stats_.exported += n;
  return top;
}

bool SeedScheduler::Import(FuzzSeed seed) {
  if (!Add(std::move(seed))) return false;
  stats_.imported++;
  return true;
}

bool SeedScheduler::ContainsSequence(const Sequence& seq) const {
  for (const Entry& entry : queue_) {
    if (entry.seed.seq == seq) return true;
  }
  return false;
}

double SeedScheduler::MinPriority() const {
  assert(!queue_.empty());
  double min = queue_[0].seed.priority;
  for (const Entry& entry : queue_) min = std::min(min, entry.seed.priority);
  return min;
}

double SeedScheduler::MaxPriority() const {
  assert(!queue_.empty());
  double max = queue_[0].seed.priority;
  for (const Entry& entry : queue_) max = std::max(max, entry.seed.priority);
  return max;
}

const SeedQueueStats& SeedScheduler::stats() {
  stats_.final_queue = queue_.size();
  stats_.selects_per_round =
      stats_.select_rounds == 0
          ? 0.0
          : static_cast<double>(stats_.selects) /
                static_cast<double>(stats_.select_rounds);
  return stats_;
}

}  // namespace mufuzz::fuzzer
