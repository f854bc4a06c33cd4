#include "fuzzer/coverage.h"

namespace mufuzz::fuzzer {

size_t CoverageMap::InternSlot(uint32_t pc) {
  if (pc >= pc_slot_.size()) pc_slot_.resize(static_cast<size_t>(pc) + 1, -1);
  const size_t slot = slot_pcs_.size();
  pc_slot_[pc] = static_cast<int32_t>(slot);
  slot_pcs_.push_back(pc);
  covered_bits_.resize((2 * slot_pcs_.size() + 63) / 64, 0);
  distance_seen_bits_.resize((2 * slot_pcs_.size() + 63) / 64, 0);
  best_distance_.resize(2 * slot_pcs_.size(), UINT64_MAX);
  return slot;
}

}  // namespace mufuzz::fuzzer
