#ifndef MUFUZZ_FUZZER_ENERGY_H_
#define MUFUZZ_FUZZER_ENERGY_H_

#include <cstdint>
#include <vector>

#include "analysis/prefix_inference.h"
#include "lang/codegen.h"

namespace mufuzz::fuzzer {

/// The dynamic-adaptive energy adjustment of §IV-C (Algorithm 3).
///
/// During the pre-fuzz phase the scheduler walks the exercised path,
/// assigns each branch a weight from (a) its nested-conditional score and
/// (b) whether the path prefix analysis finds a vulnerable instruction
/// reachable past it; later fuzzing rounds scale a seed's mutation energy by
/// the weights of the branches it touched.
class EnergyScheduler {
 public:
  /// `artifact` supplies the branch map (nesting scores); its runtime code
  /// feeds the prefix-inference CFG.
  EnergyScheduler(const lang::ContractArtifact* artifact, bool enabled);

  /// Algorithm 3 for one executed branch: weights the JUMPI at `pc`.
  /// Idempotent per branch (weights are path-independent in our setting).
  void ObserveBranch(uint32_t pc);

  /// Weight of the branch at `pc` (1.0 if never observed / disabled).
  double BranchWeight(uint32_t pc) const;

  /// Mutation energy for a seed touching `touched_pcs`: base energy scaled
  /// by the mean weight of touched branches, clamped to [1, 8*base].
  int AssignEnergy(const std::vector<uint32_t>& touched_pcs, int base) const;

  /// Extra seed-selection priority when the seed's path reaches branches
  /// guarding vulnerable instructions ("seeds that reach branches covering
  /// the vulnerable instructions are preferentially selected", §IV-C).
  double VulnerabilityBonus(const std::vector<uint32_t>& touched_pcs) const;

  bool enabled() const { return enabled_; }
  size_t weighted_branches() const { return weighted_count_; }

  // Weight model constants (exposed for the ablation benches).
  static constexpr double kNestedWeightStep = 0.5;   // w1 per nesting level
  static constexpr double kVulnerableWeight = 2.0;   // w2
  static constexpr double kMaxEnergyFactor = 8.0;

 private:
  struct BranchInfo {
    double weight = 1.0;
    bool guards_vulnerable = false;
    bool weighted = false;  ///< ObserveBranch has scored this pc
  };

  /// Flat pc-indexed weight table (branch pcs are bounded by the runtime
  /// code size; foreign pcs grow it lazily). Lookups are an array load —
  /// AssignEnergy / VulnerabilityBonus run per parent or child. The per-branch-event
  /// path does not read it: FeedbackEngine keeps its own per-slot "scored"
  /// bit and calls ObserveBranch once per branch.
  const BranchInfo* InfoAt(uint32_t pc) const {
    if (pc >= weights_.size()) return nullptr;
    const BranchInfo& info = weights_[pc];
    return info.weighted ? &info : nullptr;
  }

  const lang::ContractArtifact* artifact_;
  analysis::PrefixInference inference_;
  bool enabled_;
  std::vector<BranchInfo> weights_;
  size_t weighted_count_ = 0;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_ENERGY_H_
