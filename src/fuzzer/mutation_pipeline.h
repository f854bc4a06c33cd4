#ifndef MUFUZZ_FUZZER_MUTATION_PIPELINE_H_
#define MUFUZZ_FUZZER_MUTATION_PIPELINE_H_

#include <functional>

#include "analysis/dependency_graph.h"
#include "analysis/statevar_analysis.h"
#include "common/rng.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/feedback_engine.h"
#include "fuzzer/mask.h"
#include "fuzzer/seed_scheduler.h"
#include "fuzzer/sequence.h"
#include "fuzzer/strategy.h"

namespace mufuzz::fuzzer {

/// The mutation half of the engine: sequence-level operators (§IV-A, via
/// SequenceBuilder) and mask-guided byte-level operators (§IV-B, via
/// ByteMutator + ComputeMask), composed per the strategy's switches at
/// construction. The campaign drives it; execution stays outside — mask
/// probes call back through a SequenceExecutor so the pipeline needs no
/// backend of its own.
class MutationPipeline {
 public:
  /// Executes a candidate sequence and reports its feedback signals — the
  /// campaign's execute-one-sequence entry point, loaned to mask probes.
  using SequenceExecutor = std::function<ExecSignals(const Sequence&)>;

  MutationPipeline(const AbiCodec* codec,
                   const analysis::ContractDataflow* dataflow,
                   const analysis::DependencyGraph* graph,
                   const StrategyConfig& strategy, int mask_stride_divisor);
  virtual ~MutationPipeline() = default;

  /// An initial sequence per the strategy (dependency-ordered or random).
  virtual Sequence InitialSequence(Rng* rng) const;

  /// Mutates `seq` in place: sequence-level with probability 0.3 (or when
  /// empty), otherwise a byte-level mutation of one transaction's stream,
  /// mask-guided when the parent's mask covers that transaction.
  virtual void MutateChild(Sequence* seq, const MutationMask& parent_mask,
                           bool parent_mask_valid, int parent_focus,
                           Rng* rng);

  /// Mask eligibility (Algorithm 1 line 17): only mask-guided strategies,
  /// only seeds that hit a nested branch or shrank a branch distance, and
  /// never twice for the same seed.
  bool WantsMask(const FuzzSeed& seed) const;

  /// COMPUTE_MASK (Algorithm 2) over `seed`'s focus transaction. Probes run
  /// real executions through `execute`. Returns true iff a mask was
  /// computed (the focus stream may be empty).
  virtual bool ComputeSeedMask(FuzzSeed* seed, Rng* rng,
                               const SequenceExecutor& execute);

  ByteMutator* byte_mutator() { return &byte_mutator_; }
  const SequenceBuilder& builder() const { return builder_; }

 private:
  const AbiCodec* codec_;
  StrategyConfig strategy_;
  SequenceBuilder builder_;
  ByteMutator byte_mutator_;
  int mask_stride_divisor_;
  /// The focus transaction's byte stream, encoded in place so its capacity
  /// carries over from child to child.
  Bytes stream_;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_MUTATION_PIPELINE_H_
