#ifndef MUFUZZ_FUZZER_SEQUENCE_H_
#define MUFUZZ_FUZZER_SEQUENCE_H_

#include <vector>

#include "analysis/dependency_graph.h"
#include "analysis/statevar_analysis.h"
#include "common/rng.h"
#include "fuzzer/abi_codec.h"
#include "fuzzer/strategy.h"
#include "fuzzer/tx.h"

namespace mufuzz::fuzzer {

/// Builds and mutates transaction sequences (§IV-A).
///
/// With dataflow ordering on, initial sequences follow the write-before-read
/// order of the dependency graph (constructor first is handled by the
/// campaign's deployment step); the sequence-aware mutation additionally
/// duplicates functions carrying a RAW self-dependency on a branch-read
/// state variable — the rule that unlocks the Crowdsale else-branch.
class SequenceBuilder {
 public:
  SequenceBuilder(const AbiCodec* codec,
                  const analysis::ContractDataflow* dataflow,
                  const analysis::DependencyGraph* graph);

  /// An initial sequence per the strategy: dependency-ordered (with one RAW
  /// repetition already applied when enabled) or uniformly random.
  Sequence InitialSequence(const StrategyConfig& config, Rng* rng) const;

  /// In-place sequence mutation: one of {repeat-RAW-function, extend with a
  /// random tx, swap two txs, replace a tx, drop a tx}, respecting the
  /// strategy's switches. Random-order strategies never apply the RAW rule.
  void MutateSequence(Sequence* seq, const StrategyConfig& config,
                      Rng* rng) const;

  /// Indices of functions the RAW rule marks as repeatable, ascending.
  /// Built once from the dataflow at construction.
  const std::vector<int>& RepeatableFunctions() const { return repeatable_; }

  /// Maximum sequence length the builder will grow to.
  static constexpr size_t kMaxSequenceLength = 12;

 private:
  int NumFunctions() const {
    return static_cast<int>(codec_->abi().functions.size());
  }
  /// True if `fn` already appears in `seq`.
  static bool ContainsFn(const Sequence& seq, int fn);

  const AbiCodec* codec_;
  const analysis::DependencyGraph* graph_;
  std::vector<int> repeatable_;
};

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_SEQUENCE_H_
