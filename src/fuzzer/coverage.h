#ifndef MUFUZZ_FUZZER_COVERAGE_H_
#define MUFUZZ_FUZZER_COVERAGE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "evm/trace.h"

namespace mufuzz::fuzzer {

/// Identity of one branch direction: (JUMPI pc, taken).
inline uint64_t BranchId(uint32_t pc, bool taken) {
  return (static_cast<uint64_t>(pc) << 1) | (taken ? 1 : 0);
}
inline uint32_t BranchIdPc(uint64_t id) {
  return static_cast<uint32_t>(id >> 1);
}
inline bool BranchIdTaken(uint64_t id) { return (id & 1) != 0; }

/// Campaign-global branch coverage (the paper's "basic block transitions"
/// metric, §V-B) plus the per-uncovered-branch best-distance table that
/// drives seed selection (Algorithm 1, lines 7–13).
///
/// Storage is dense, not hashed: the contract's JUMPI pcs are interned into
/// consecutive slots (the artifact's branch map enumerates every runtime
/// JUMPI, so the campaign pre-interns them all at construction), coverage is
/// two bits per slot in a bitset, and best distances live in a flat array
/// indexed by (slot, direction). The hot AddBranch/OfferDistance path is
/// then a pc→slot table load plus a bit test — no hashing, no rehashing, no
/// node allocations — which is what lets FeedbackEngine::ProcessTx run
/// allocation-free per trace. ProcessTx goes one step further: it resolves
/// each branch event's slot once (Slot) and reads everything else by slot
/// (the *At calls). Unknown pcs (traces from code outside the branch map,
/// e.g. tests driving raw bytecode) intern lazily.
class CoverageMap {
 public:
  explicit CoverageMap(int total_jumpis) : total_jumpis_(total_jumpis) {}

  /// Pre-interns `jumpi_pcs` (slot order = span order) so steady-state
  /// lookups never grow the tables.
  CoverageMap(int total_jumpis, std::span<const uint32_t> jumpi_pcs)
      : total_jumpis_(total_jumpis) {
    for (uint32_t pc : jumpi_pcs) (void)Slot(pc);
  }

  /// Slot of the JUMPI at `pc`, interning it on first sight. Slots are
  /// dense and stable: the pre-interned pcs take slots 0..n-1 in span order,
  /// and later pcs append. The *At calls below take a slot from here, so a
  /// caller handling one branch event resolves its pc once.
  size_t Slot(uint32_t pc) {
    if (pc < pc_slot_.size()) {
      const int32_t slot = pc_slot_[pc];
      if (slot >= 0) return static_cast<size_t>(slot);
    }
    return InternSlot(pc);
  }
  size_t slot_count() const { return slot_pcs_.size(); }

  /// Records a branch direction; returns true if it is new coverage.
  bool AddBranch(uint32_t pc, bool taken) {
    return AddBranchAt(Slot(pc), taken);
  }
  bool AddBranchAt(size_t slot, bool taken) {
    size_t bit = 2 * slot + (taken ? 1 : 0);
    uint64_t mask = uint64_t{1} << (bit & 63);
    uint64_t& word = covered_bits_[bit >> 6];
    if ((word & mask) != 0) return false;
    word |= mask;
    ++covered_count_;
    return true;
  }

  bool IsCovered(uint32_t pc, bool taken) const {
    int32_t slot = FindSlot(pc);
    return slot >= 0 && IsCoveredAt(static_cast<size_t>(slot), taken);
  }
  bool IsCoveredAt(size_t slot, bool taken) const {
    size_t bit = 2 * slot + (taken ? 1 : 0);
    return (covered_bits_[bit >> 6] >> (bit & 63)) & 1;
  }

  /// Offers a distance observation for the *uncovered* direction opposite
  /// to an executed branch. Returns true if it improves (shrinks) the best
  /// known distance — the "DISTANCE decreases" trigger of Algorithms 1–2.
  bool OfferDistance(uint32_t pc, bool want_taken, uint64_t distance) {
    return OfferDistanceAt(Slot(pc), want_taken, distance);
  }
  bool OfferDistanceAt(size_t slot, bool want_taken, uint64_t distance) {
    size_t bit = 2 * slot + (want_taken ? 1 : 0);
    if ((covered_bits_[bit >> 6] >> (bit & 63)) & 1) return false;
    // The first observation for a direction always "improves" — even a
    // saturated UINT64_MAX distance — exactly like inserting into the old
    // hash map did; the verdict feeds the campaign rng stream, so it must
    // be bit-identical.
    uint64_t mask = uint64_t{1} << (bit & 63);
    uint64_t& seen = distance_seen_bits_[bit >> 6];
    uint64_t& best = best_distance_[bit];
    if ((seen & mask) == 0) {
      seen |= mask;
      best = distance;
      return true;
    }
    if (distance < best) {
      best = distance;
      return true;
    }
    return false;
  }

  /// Best known distance toward an uncovered direction (UINT64_MAX if none).
  uint64_t BestDistance(uint32_t pc, bool taken) const {
    int32_t slot = FindSlot(pc);
    if (slot < 0) return UINT64_MAX;
    return best_distance_[2 * static_cast<size_t>(slot) + (taken ? 1 : 0)];
  }

  size_t covered_count() const { return covered_count_; }
  int total_jumpis() const { return total_jumpis_; }

  /// Fraction of the 2×JUMPI branch-direction space covered, in [0, 1].
  double Fraction() const {
    if (total_jumpis_ == 0) return covered_count_ == 0 ? 1.0 : 0.0;
    return static_cast<double>(covered_count_) /
           static_cast<double>(2 * total_jumpis_);
  }

  /// Covered branch ids, sorted — the interned coverage signature
  /// (differential tests compare this against set-based reference maps).
  std::vector<uint64_t> CoveredIds() const {
    std::vector<uint64_t> ids;
    ids.reserve(covered_count_);
    for (size_t slot = 0; slot < slot_pcs_.size(); ++slot) {
      for (int dir = 0; dir < 2; ++dir) {
        size_t bit = 2 * slot + static_cast<size_t>(dir);
        if ((covered_bits_[bit >> 6] >> (bit & 63)) & 1) {
          ids.push_back(BranchId(slot_pcs_[slot], dir != 0));
        }
      }
    }
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  /// Interns `pc`, which has no slot yet, growing the dense tables. Out of
  /// line (coverage.cc): steady state never takes it, because the campaign
  /// pre-interns the artifact's full branch map.
  size_t InternSlot(uint32_t pc);

  int32_t FindSlot(uint32_t pc) const {
    return pc < pc_slot_.size() ? pc_slot_[pc] : -1;
  }

  std::vector<int32_t> pc_slot_;        ///< pc → slot (-1 = never seen)
  std::vector<uint32_t> slot_pcs_;      ///< slot → pc
  std::vector<uint64_t> covered_bits_;  ///< 2 bits per slot (false, true)
  /// Whether a distance was ever offered for (slot, dir) — first offers
  /// always count as improvements, matching the old map-insert semantics.
  std::vector<uint64_t> distance_seen_bits_;
  std::vector<uint64_t> best_distance_; ///< per (slot, dir); UINT64_MAX = none
  size_t covered_count_ = 0;
  int total_jumpis_;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_COVERAGE_H_
