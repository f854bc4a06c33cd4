// Differential test: the dense bitset CoverageMap against a set-based
// reference implementing the retired hash-map semantics, over random branch
// streams. The dense map replaced the unordered_set/unordered_map backing in
// the allocation-free hot-path change; every observable — per-call return
// values included, since OfferDistance verdicts feed the campaign rng
// stream — must be bit-identical.

#include "fuzzer/coverage.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"

namespace mufuzz::fuzzer {
namespace {

/// The retired CoverageMap semantics, verbatim: a branch-id set plus a
/// best-distance hash map.
class SetCoverageReference {
 public:
  explicit SetCoverageReference(int total_jumpis)
      : total_jumpis_(total_jumpis) {}

  bool AddBranch(uint32_t pc, bool taken) {
    return covered_.insert(BranchId(pc, taken)).second;
  }

  bool IsCovered(uint32_t pc, bool taken) const {
    return covered_.count(BranchId(pc, taken)) != 0;
  }

  bool OfferDistance(uint32_t pc, bool want_taken, uint64_t distance) {
    uint64_t id = BranchId(pc, want_taken);
    if (covered_.count(id) != 0) return false;
    auto it = best_.find(id);
    if (it == best_.end()) {
      best_.emplace(id, distance);
      return true;  // first offer always improves, even UINT64_MAX
    }
    if (distance < it->second) {
      it->second = distance;
      return true;
    }
    return false;
  }

  uint64_t BestDistance(uint32_t pc, bool taken) const {
    auto it = best_.find(BranchId(pc, taken));
    return it == best_.end() ? UINT64_MAX : it->second;
  }

  size_t covered_count() const { return covered_.size(); }

  double Fraction() const {
    if (total_jumpis_ == 0) return covered_.empty() ? 1.0 : 0.0;
    return static_cast<double>(covered_.size()) /
           static_cast<double>(2 * total_jumpis_);
  }

  std::vector<uint64_t> CoveredIds() const {
    std::vector<uint64_t> ids(covered_.begin(), covered_.end());
    std::sort(ids.begin(), ids.end());
    return ids;
  }

 private:
  std::unordered_set<uint64_t> covered_;
  std::unordered_map<uint64_t, uint64_t> best_;
  int total_jumpis_;
};

/// How the dense map is driven: by pc, or the way FeedbackEngine::ProcessTx
/// drives it — resolve the slot once, then use the slot-indexed calls.
enum class Api { kByPc, kBySlot };

/// Drives both maps with an identical random op stream and asserts every
/// return value and every queried state matches.
void RunDifferential(CoverageMap* dense, SetCoverageReference* reference,
                     uint64_t seed, int ops, uint32_t pc_range,
                     Api api = Api::kByPc) {
  Rng rng(seed);
  std::unordered_map<uint32_t, size_t> slot_of;  // first slot seen per pc
  std::unordered_map<size_t, uint32_t> pc_of;    // first pc seen per slot
  for (int i = 0; i < ops; ++i) {
    uint32_t pc = static_cast<uint32_t>(rng.NextBelow(pc_range));
    bool taken = rng.Chance(0.5);
    const uint64_t op = rng.NextBelow(3);
    if (api == Api::kBySlot) {
      const size_t slot = dense->Slot(pc);
      // Slots are stable and one-to-one: a pc keeps its slot, and no two
      // pcs share one.
      ASSERT_LT(slot, dense->slot_count());
      ASSERT_EQ(slot_of.emplace(pc, slot).first->second, slot)
          << "pc " << pc << " moved slots";
      ASSERT_EQ(pc_of.emplace(slot, pc).first->second, pc)
          << "slot " << slot << " shared";
      switch (op) {
        case 0:
          ASSERT_EQ(dense->AddBranchAt(slot, taken),
                    reference->AddBranch(pc, taken))
              << "AddBranchAt op " << i;
          break;
        case 1: {
          uint64_t distance =
              rng.Chance(0.2) ? UINT64_MAX : rng.NextU64() % 1000;
          ASSERT_EQ(dense->OfferDistanceAt(slot, taken, distance),
                    reference->OfferDistance(pc, taken, distance))
              << "OfferDistanceAt op " << i;
          break;
        }
        default:
          ASSERT_EQ(dense->IsCoveredAt(slot, taken),
                    reference->IsCovered(pc, taken));
          ASSERT_EQ(dense->BestDistance(pc, taken),
                    reference->BestDistance(pc, taken));
          break;
      }
      continue;
    }
    switch (op) {
      case 0: {
        bool a = dense->AddBranch(pc, taken);
        bool b = reference->AddBranch(pc, taken);
        ASSERT_EQ(a, b) << "AddBranch(" << pc << "," << taken << ") op " << i;
        break;
      }
      case 1: {
        // Distances include the saturated sentinel — the first-offer
        // semantics around UINT64_MAX are exactly what a naive port breaks.
        uint64_t distance =
            rng.Chance(0.2) ? UINT64_MAX : rng.NextU64() % 1000;
        bool a = dense->OfferDistance(pc, taken, distance);
        bool b = reference->OfferDistance(pc, taken, distance);
        ASSERT_EQ(a, b) << "OfferDistance(" << pc << "," << taken << ","
                        << distance << ") op " << i;
        break;
      }
      default: {
        ASSERT_EQ(dense->IsCovered(pc, taken),
                  reference->IsCovered(pc, taken));
        ASSERT_EQ(dense->BestDistance(pc, taken),
                  reference->BestDistance(pc, taken));
        break;
      }
    }
  }
  ASSERT_EQ(dense->covered_count(), reference->covered_count());
  ASSERT_DOUBLE_EQ(dense->Fraction(), reference->Fraction());
  ASSERT_EQ(dense->CoveredIds(), reference->CoveredIds());
  for (uint32_t pc = 0; pc < pc_range; ++pc) {
    for (int dir = 0; dir < 2; ++dir) {
      ASSERT_EQ(dense->IsCovered(pc, dir != 0),
                reference->IsCovered(pc, dir != 0))
          << "pc " << pc << " dir " << dir;
      ASSERT_EQ(dense->BestDistance(pc, dir != 0),
                reference->BestDistance(pc, dir != 0))
          << "pc " << pc << " dir " << dir;
    }
  }
}

TEST(CoverageMapDiffTest, RandomStreamsMatchSetReference) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CoverageMap dense(/*total_jumpis=*/40);
    SetCoverageReference reference(/*total_jumpis=*/40);
    RunDifferential(&dense, &reference, seed, /*ops=*/4000, /*pc_range=*/80);
  }
}

TEST(CoverageMapDiffTest, PreInterningChangesNothing) {
  // The campaign pre-interns the artifact's branch map; lazy interning must
  // yield identical observables (only the growth path differs).
  std::vector<uint32_t> pcs;
  for (uint32_t pc = 0; pc < 64; ++pc) pcs.push_back(pc * 3 + 1);
  CoverageMap preinterned(/*total_jumpis=*/64,
                          std::span<const uint32_t>(pcs.data(), pcs.size()));
  SetCoverageReference reference(/*total_jumpis=*/64);
  RunDifferential(&preinterned, &reference, /*seed=*/42, /*ops=*/6000,
                  /*pc_range=*/200);
}

TEST(CoverageMapDiffTest, SlotApiMatchesSetReference) {
  // The slot-indexed calls FeedbackEngine::ProcessTx uses, over lazily
  // interned and over pre-interned maps.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    CoverageMap dense(/*total_jumpis=*/40);
    SetCoverageReference reference(/*total_jumpis=*/40);
    RunDifferential(&dense, &reference, seed, /*ops=*/4000, /*pc_range=*/80,
                    Api::kBySlot);
  }
  std::vector<uint32_t> pcs;
  for (uint32_t pc = 0; pc < 64; ++pc) pcs.push_back(pc * 3 + 1);
  CoverageMap preinterned(/*total_jumpis=*/64,
                          std::span<const uint32_t>(pcs.data(), pcs.size()));
  for (size_t i = 0; i < pcs.size(); ++i) {
    EXPECT_EQ(preinterned.Slot(pcs[i]), i);  // slot order = span order
  }
  SetCoverageReference reference(/*total_jumpis=*/64);
  RunDifferential(&preinterned, &reference, /*seed=*/43, /*ops=*/6000,
                  /*pc_range=*/200, Api::kBySlot);
}

TEST(CoverageMapDiffTest, FirstOfferAlwaysImprovesEvenSaturated) {
  // Pinned regression: inserting UINT64_MAX as the first observation must
  // return true (hash-map-insert semantics); a distance<best check alone
  // would say false and perturb the campaign rng stream downstream.
  CoverageMap dense(/*total_jumpis=*/1);
  EXPECT_TRUE(dense.OfferDistance(7, true, UINT64_MAX));
  EXPECT_FALSE(dense.OfferDistance(7, true, UINT64_MAX));
  EXPECT_TRUE(dense.OfferDistance(7, true, 5));
  EXPECT_FALSE(dense.OfferDistance(7, true, 5));
  EXPECT_TRUE(dense.OfferDistance(7, true, 4));
  // Covering the direction disables offers entirely.
  EXPECT_TRUE(dense.AddBranch(7, true));
  EXPECT_FALSE(dense.OfferDistance(7, true, 0));
}

TEST(CoverageMapDiffTest, EmptyContractFractionSpecialCase) {
  CoverageMap dense(/*total_jumpis=*/0);
  SetCoverageReference reference(/*total_jumpis=*/0);
  EXPECT_DOUBLE_EQ(dense.Fraction(), reference.Fraction());
  dense.AddBranch(3, false);
  reference.AddBranch(3, false);
  EXPECT_DOUBLE_EQ(dense.Fraction(), reference.Fraction());
}

}  // namespace
}  // namespace mufuzz::fuzzer
