#include "fuzzer/mutation_pipeline.h"

#include <algorithm>

namespace mufuzz::fuzzer {

MutationPipeline::MutationPipeline(const AbiCodec* codec,
                                   const analysis::ContractDataflow* dataflow,
                                   const analysis::DependencyGraph* graph,
                                   const StrategyConfig& strategy,
                                   int mask_stride_divisor)
    : codec_(codec),
      strategy_(strategy),
      builder_(codec, dataflow, graph),
      mask_stride_divisor_(mask_stride_divisor) {}

Sequence MutationPipeline::InitialSequence(Rng* rng) const {
  return builder_.InitialSequence(strategy_, rng);
}

void MutationPipeline::MutateChild(Sequence* seq,
                                   const MutationMask& parent_mask,
                                   bool parent_mask_valid, int parent_focus,
                                   Rng* rng) {
  bool sequence_level = rng->Chance(0.3);
  if (sequence_level || seq->empty()) {
    builder_.MutateSequence(seq, strategy_, rng);
    return;
  }
  // Input-level mutation on the focus transaction (mask-guided when the
  // mask is available for that tx).
  size_t tx_index = rng->Chance(0.7) ? static_cast<size_t>(parent_focus)
                                     : rng->NextBelow(seq->size());
  codec_->ToByteStreamInto((*seq)[tx_index], &stream_);
  const MutationMask* mask =
      (parent_mask_valid && tx_index == static_cast<size_t>(parent_focus))
          ? &parent_mask
          : nullptr;
  byte_mutator_.MutateRandom(&stream_, mask, rng);
  codec_->FromByteStream(stream_, &(*seq)[tx_index]);
}

bool MutationPipeline::WantsMask(const FuzzSeed& seed) const {
  if (!strategy_.mask_guided || seed.mask_valid || seed.seq.empty()) {
    return false;
  }
  // Algorithm 1 line 17: only seeds that hit a nested branch or shrank a
  // branch distance are worth the mask-computation budget.
  return seed.hits_nested || seed.improved_distance;
}

bool MutationPipeline::ComputeSeedMask(FuzzSeed* seed, Rng* rng,
                                       const SequenceExecutor& execute) {
  size_t focus = std::min<size_t>(seed->focus_tx, seed->seq.size() - 1);
  codec_->ToByteStreamInto(seed->seq[focus], &stream_);
  if (stream_.empty()) return false;
  size_t stride = std::max<size_t>(
      1, stream_.size() / std::max(1, mask_stride_divisor_));

  // One probe sequence for the whole mask scan: copy-assign re-fills the
  // warm Tx slots in place instead of allocating a fresh copy per probe.
  Sequence probe_seq;
  auto probe = [&](const Bytes& mutated) {
    probe_seq = seed->seq;
    codec_->FromByteStream(mutated, &probe_seq[focus]);
    ExecSignals stats = execute(probe_seq);
    return stats.hits_nested || stats.improved_distance;
  };
  seed->mask = ComputeMask(stream_, stride, byte_mutator_, rng, probe);
  seed->mask_valid = true;
  return true;
}

}  // namespace mufuzz::fuzzer
