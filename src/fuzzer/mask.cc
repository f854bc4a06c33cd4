#include "fuzzer/mask.h"

#include <algorithm>

namespace mufuzz::fuzzer {

namespace {

/// Classic boundary bytes, AFL-style.
constexpr uint8_t kInterestingBytes[] = {0x00, 0x01, 0x7f, 0x80, 0xff, 0x10};

/// Multiplicative hash of all four limbs, folded so that its low bits (the
/// index slot) depend on every limb.
uint64_t MixLimbs(const U256& v) {
  uint64_t h = v.limb(0);
  h = (h ^ v.limb(1)) * 0x9e3779b97f4a7c15ULL;
  h = (h ^ v.limb(2)) * 0xc2b2ae3d27d4eb4fULL;
  h = (h ^ v.limb(3)) * 0x165667b19e3779f9ULL;
  return h ^ (h >> 29);
}

}  // namespace

void ByteMutator::InsertInteresting(const U256& value) {
  static_assert((kIndexSlots & (kIndexSlots - 1)) == 0,
                "index slot count must be a power of two");
  static_assert(kMaxInteresting < 256, "positions must fit the uint8_t slots");
  size_t slot = static_cast<size_t>(MixLimbs(value)) & (kIndexSlots - 1);
  for (; index_[slot] != 0; slot = (slot + 1) & (kIndexSlots - 1)) {
    if (interesting_[index_[slot] - 1] == value) return;
  }
  interesting_.push_back(value);
  index_[slot] = static_cast<uint8_t>(interesting_.size());
}

void ByteMutator::Apply(Bytes* stream, MutOp op, size_t pos, size_t n,
                        Rng* rng) const {
  if (stream->empty()) return;
  pos = std::min(pos, stream->size() - 1);
  n = std::max<size_t>(1, std::min(n, stream->size() - pos));

  switch (op) {
    case MutOp::kOverwrite:
      for (size_t i = 0; i < n; ++i) {
        (*stream)[pos + i] = rng->NextByte();
      }
      break;
    case MutOp::kInsert: {
      // Shift [pos, end-n) right by n, fill the gap with random bytes.
      for (size_t i = stream->size(); i-- > pos + n;) {
        (*stream)[i] = (*stream)[i - n];
      }
      for (size_t i = 0; i < n && pos + i < stream->size(); ++i) {
        (*stream)[pos + i] = rng->NextByte();
      }
      break;
    }
    case MutOp::kReplace: {
      // Prefer a full observed comparison constant aligned to the enclosing
      // 32-byte word — this is what solves strict equality guards like
      // `msg.value == 88 finney`.
      if (!interesting_.empty() && rng->Chance(0.7)) {
        const U256& constant =
            interesting_[rng->NextBelow(interesting_.size())];
        size_t word_start = (pos / 32) * 32;
        auto raw = constant.ToBytesBE();
        for (size_t i = 0; i < 32 && word_start + i < stream->size(); ++i) {
          (*stream)[word_start + i] = raw[i];
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          (*stream)[pos + i] =
              kInterestingBytes[rng->NextBelow(std::size(kInterestingBytes))];
        }
      }
      break;
    }
    case MutOp::kDelete: {
      // Shift left from pos by n, zero-fill the tail.
      for (size_t i = pos; i + n < stream->size(); ++i) {
        (*stream)[i] = (*stream)[i + n];
      }
      size_t tail = stream->size() > n ? stream->size() - n : 0;
      for (size_t i = std::max(tail, pos); i < stream->size(); ++i) {
        (*stream)[i] = 0;
      }
      break;
    }
  }
}

bool ByteMutator::MutateRandom(Bytes* stream, const MutationMask* mask,
                               Rng* rng) const {
  if (stream->empty()) return false;
  bool use_mask = mask != nullptr && !mask->empty() && mask->AnyAllowed();
  for (int attempt = 0; attempt < 32; ++attempt) {
    size_t pos = rng->NextBelow(stream->size());
    MutOp op = static_cast<MutOp>(rng->NextBelow(kNumMutOps));
    if (use_mask && !mask->IsAllowed(pos, op)) continue;
    size_t n = 1 + rng->NextBelow(std::min<size_t>(8, stream->size() - pos));
    Apply(stream, op, pos, n, rng);
    return true;
  }
  if (use_mask) {
    // Mask too tight for random probing: scan for any allowed pair.
    for (size_t pos = 0; pos < stream->size(); ++pos) {
      for (int op = 0; op < kNumMutOps; ++op) {
        if (mask->IsAllowed(pos, static_cast<MutOp>(op))) {
          Apply(stream, static_cast<MutOp>(op), pos, 1, rng);
          return true;
        }
      }
    }
    return false;
  }
  Apply(stream, MutOp::kOverwrite, rng->NextBelow(stream->size()), 1, rng);
  return true;
}

MutationMask ComputeMask(const Bytes& stream, size_t stride,
                         const ByteMutator& mutator, Rng* rng,
                         const std::function<bool(const Bytes&)>& probe) {
  MutationMask mask(stream.size());
  if (stream.empty()) return mask;
  size_t n = 1 + rng->NextBelow(std::min<size_t>(4, stream.size()));
  stride = std::max<size_t>(1, stride);
  // One mutant buffer for the whole scan: copy-assign re-fills it in place,
  // so only the first probe pays an allocation.
  Bytes mutant;
  for (size_t pos = 0; pos < stream.size(); pos += stride) {
    for (int op_index = 0; op_index < kNumMutOps; ++op_index) {
      MutOp op = static_cast<MutOp>(op_index);
      mutant = stream;
      mutator.Apply(&mutant, op, pos, n, rng);
      if (probe(mutant)) {
        // Property preserved: this (position, op) pair is safe to mutate.
        // Mark the whole stride window so the runtime mask has no gaps.
        for (size_t w = pos; w < std::min(pos + stride, stream.size()); ++w) {
          mask.Allow(w, op);
        }
      }
    }
  }
  return mask;
}

}  // namespace mufuzz::fuzzer
