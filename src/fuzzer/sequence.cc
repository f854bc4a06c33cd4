#include "fuzzer/sequence.h"

#include <algorithm>

namespace mufuzz::fuzzer {

SequenceBuilder::SequenceBuilder(const AbiCodec* codec,
                                 const analysis::ContractDataflow* dataflow,
                                 const analysis::DependencyGraph* graph)
    : codec_(codec), graph_(graph) {
  for (size_t i = 0; i < dataflow->functions.size(); ++i) {
    if (dataflow->FunctionIsRepeatable(i)) {
      repeatable_.push_back(static_cast<int>(i));
    }
  }
}

Sequence SequenceBuilder::InitialSequence(const StrategyConfig& config,
                                          Rng* rng) const {
  int n = NumFunctions();
  Sequence seq;
  if (n == 0) return seq;

  if (config.dataflow_order) {
    // Dependency-derived order (randomized tie-breaking keeps diversity
    // across initial seeds while respecting hard edges).
    std::vector<int> order = rng->Chance(0.5)
                                 ? graph_->DeriveOrder()
                                 : graph_->DeriveOrderRandomized(rng);
    for (int fn : order) {
      seq.push_back(codec_->RandomTx(fn, rng));
    }
    if (!config.raw_repetition && config.allow_duplicates && !seq.empty()) {
      // IR-Fuzz-style prolongation: extend the ordered sequence with random
      // (possibly duplicate) transactions, untargeted.
      size_t extra = 1 + rng->NextBelow(2);
      for (size_t i = 0; i < extra && seq.size() < kMaxSequenceLength; ++i) {
        seq.push_back(
            codec_->RandomTx(static_cast<int>(rng->NextBelow(n)), rng));
      }
    }
    if (config.raw_repetition) {
      // Apply the RAW rule up front: duplicate each repeatable function
      // once, inserted after its first occurrence.
      for (int fn : RepeatableFunctions()) {
        auto it = std::find_if(seq.begin(), seq.end(), [fn](const Tx& tx) {
          return tx.fn_index == fn;
        });
        if (it != seq.end() && seq.size() < kMaxSequenceLength) {
          size_t pos = static_cast<size_t>(it - seq.begin());
          // Anywhere strictly after the first occurrence.
          size_t insert_at = pos + 1 + rng->NextBelow(seq.size() - pos);
          seq.insert(seq.begin() + insert_at, codec_->RandomTx(fn, rng));
        }
      }
    }
  } else {
    // Random construction à la sFuzz/ContractFuzzer: a random permutation
    // of the callable functions, each appearing once. Without the RAW
    // repetition rule, baselines cannot run a function consecutively — the
    // exact limitation §III-B demonstrates.
    std::vector<int> fns(n);
    for (int i = 0; i < n; ++i) fns[i] = i;
    rng->Shuffle(&fns);
    size_t len = 1 + rng->NextBelow(static_cast<uint64_t>(n));
    for (size_t i = 0; i < len && i < kMaxSequenceLength; ++i) {
      seq.push_back(codec_->RandomTx(fns[i], rng));
    }
    if (config.raw_repetition) {
      for (int fn : RepeatableFunctions()) {
        if (seq.size() >= kMaxSequenceLength) break;
        seq.push_back(codec_->RandomTx(fn, rng));
      }
    } else if (config.allow_duplicates && n > 0) {
      // Prolongation without targeting: append a couple of random extra
      // transactions (duplicates allowed).
      size_t extra = 1 + rng->NextBelow(2);
      for (size_t i = 0; i < extra && seq.size() < kMaxSequenceLength; ++i) {
        seq.push_back(
            codec_->RandomTx(static_cast<int>(rng->NextBelow(n)), rng));
      }
    }
  }
  return seq;
}

bool SequenceBuilder::ContainsFn(const Sequence& seq, int fn) {
  for (const Tx& tx : seq) {
    if (tx.fn_index == fn) return true;
  }
  return false;
}

void SequenceBuilder::MutateSequence(Sequence* seq,
                                     const StrategyConfig& config,
                                     Rng* rng) const {
  int n = NumFunctions();
  if (n == 0) return;
  if (seq->empty()) {
    seq->push_back(codec_->RandomTx(static_cast<int>(rng->NextBelow(n)), rng));
    return;
  }

  enum class MutKind { kRepeatRaw, kExtend, kSwap, kReplace, kDrop };
  // The sequence-aware rule gets extra probability mass (the last two
  // entries): it is the mutation that drives deep-state discovery.
  static constexpr MutKind kChoices[] = {
      MutKind::kExtend, MutKind::kSwap,      MutKind::kReplace,
      MutKind::kDrop,   MutKind::kRepeatRaw, MutKind::kRepeatRaw};
  const bool repeat_raw = config.raw_repetition && !repeatable_.empty();
  const size_t choice_count = repeat_raw ? 6 : 4;

  switch (kChoices[rng->NextBelow(choice_count)]) {
    case MutKind::kRepeatRaw: {
      int fn = repeatable_[rng->NextBelow(repeatable_.size())];
      if (seq->size() >= kMaxSequenceLength) break;
      auto it = std::find_if(seq->begin(), seq->end(), [fn](const Tx& tx) {
        return tx.fn_index == fn;
      });
      if (it == seq->end()) {
        // Not present yet: append twice so the RAW function runs repeatedly.
        seq->push_back(codec_->RandomTx(fn, rng));
        if (seq->size() < kMaxSequenceLength) {
          seq->push_back(codec_->RandomTx(fn, rng));
        }
      } else {
        size_t pos = static_cast<size_t>(it - seq->begin());
        size_t insert_at = pos + 1 + rng->NextBelow(seq->size() - pos);
        seq->insert(seq->begin() + insert_at, codec_->RandomTx(fn, rng));
      }
      break;
    }
    case MutKind::kExtend: {
      if (seq->size() >= kMaxSequenceLength) break;
      int fn = static_cast<int>(rng->NextBelow(n));
      // One-shot-per-function strategies (every baseline) may only extend
      // with functions not yet present; MuFuzz's RAW rule is the sole
      // mechanism that duplicates transactions.
      if (!config.allow_duplicates && ContainsFn(*seq, fn)) break;
      size_t at = rng->NextBelow(seq->size() + 1);
      seq->insert(seq->begin() + at, codec_->RandomTx(fn, rng));
      break;
    }
    case MutKind::kSwap: {
      if (seq->size() < 2) break;
      // Dataflow-ordered strategies only swap adjacent compatible txs to
      // avoid destroying the hard ordering; random strategies swap freely.
      size_t i = rng->NextBelow(seq->size());
      size_t j = rng->NextBelow(seq->size());
      if (config.dataflow_order) {
        int fi = (*seq)[i].fn_index;
        int fj = (*seq)[j].fn_index;
        if (graph_->HasEdge(std::min(fi, fj), std::max(fi, fj)) &&
            fi != fj) {
          break;  // would invert a write-before-read edge
        }
      }
      std::swap((*seq)[i], (*seq)[j]);
      break;
    }
    case MutKind::kReplace: {
      size_t at = rng->NextBelow(seq->size());
      int fn = static_cast<int>(rng->NextBelow(n));
      // Same one-shot discipline as kExtend: baselines re-roll the existing
      // transaction instead of introducing a duplicate function.
      if (!config.allow_duplicates && fn != (*seq)[at].fn_index &&
          ContainsFn(*seq, fn)) {
        fn = (*seq)[at].fn_index;
      }
      (*seq)[at] = codec_->RandomTx(fn, rng);
      break;
    }
    case MutKind::kDrop: {
      if (seq->size() < 2) break;
      seq->erase(seq->begin() + rng->NextBelow(seq->size()));
      break;
    }
  }
}

}  // namespace mufuzz::fuzzer
