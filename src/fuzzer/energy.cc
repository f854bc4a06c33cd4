#include "fuzzer/energy.h"

#include <algorithm>

namespace mufuzz::fuzzer {

EnergyScheduler::EnergyScheduler(const lang::ContractArtifact* artifact,
                                 bool enabled)
    : artifact_(artifact),
      inference_(artifact->runtime_code),
      enabled_(enabled) {
  // Size the flat table for the contract up front; only foreign pcs (other
  // code executing under the same trace) grow it later.
  if (enabled_) weights_.resize(artifact->runtime_code.size());
}

void EnergyScheduler::ObserveBranch(uint32_t pc) {
  if (!enabled_) return;
  if (pc >= weights_.size()) {
    weights_.resize(static_cast<size_t>(pc) + 1);
  } else if (weights_[pc].weighted) {
    return;  // already weighted
  }
  BranchInfo info;
  info.weighted = true;
  // w1: nested-conditional score from the branch map (Algorithm 3 lines
  // 6-10). Compiler-introduced guards keep weight 1.
  const lang::BranchMapEntry* entry = artifact_->FindBranch(pc);
  int nested_score = 0;
  if (entry != nullptr) {
    switch (entry->kind) {
      case lang::BranchKind::kIf:
      case lang::BranchKind::kWhile:
      case lang::BranchKind::kFor:
      case lang::BranchKind::kRequire:
        nested_score = entry->nesting_depth + 1;
        break;
      default:
        nested_score = 0;
    }
  }
  info.weight = 1.0 + kNestedWeightStep * nested_score;
  // w2: prefix inference — is a vulnerable instruction reachable past
  // either direction of this branch (Algorithm 3 lines 11-15)?
  if (inference_.GuardsVulnerableInstruction(pc, true) ||
      inference_.GuardsVulnerableInstruction(pc, false)) {
    info.weight += kVulnerableWeight;
    info.guards_vulnerable = true;
  }
  weights_[pc] = info;
  ++weighted_count_;
}

double EnergyScheduler::BranchWeight(uint32_t pc) const {
  if (!enabled_) return 1.0;
  const BranchInfo* info = InfoAt(pc);
  return info == nullptr ? 1.0 : info->weight;
}

int EnergyScheduler::AssignEnergy(const std::vector<uint32_t>& touched_pcs,
                                  int base) const {
  if (!enabled_ || touched_pcs.empty()) return base;
  double sum = 0;
  for (uint32_t pc : touched_pcs) sum += BranchWeight(pc);
  double mean = sum / static_cast<double>(touched_pcs.size());
  int energy = static_cast<int>(base * mean);
  return std::clamp(energy, 1,
                    static_cast<int>(base * kMaxEnergyFactor));
}

double EnergyScheduler::VulnerabilityBonus(
    const std::vector<uint32_t>& touched_pcs) const {
  if (!enabled_) return 0.0;
  double bonus = 0.0;
  for (uint32_t pc : touched_pcs) {
    const BranchInfo* info = InfoAt(pc);
    if (info != nullptr && info->guards_vulnerable) bonus += 1.0;
  }
  return bonus;
}

}  // namespace mufuzz::fuzzer
