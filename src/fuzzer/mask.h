#ifndef MUFUZZ_FUZZER_MASK_H_
#define MUFUZZ_FUZZER_MASK_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/u256.h"

namespace mufuzz::fuzzer {

/// The four mutation operators of §IV-B: overwriting, inserting, replacing,
/// and deleting bytes at a position.
enum class MutOp : uint8_t {
  kOverwrite = 0,  // O: overwrite n bytes with random values
  kInsert = 1,     // I: insert n bytes (stream length is fixed: shifts right)
  kReplace = 2,    // R: replace n bytes with interesting values
  kDelete = 3,     // D: delete n bytes (shifts left, zero-fills the tail)
};
inline constexpr int kNumMutOps = 4;

/// Per-byte-position set of permitted mutation operators — the output of
/// Algorithm 2. Positions whose set is empty are the "crucial parts of the
/// test inputs [that] should not be mutated".
class MutationMask {
 public:
  MutationMask() = default;
  explicit MutationMask(size_t length) : bits_(length, 0) {}

  size_t length() const { return bits_.size(); }
  bool empty() const { return bits_.empty(); }

  void Allow(size_t pos, MutOp op) {
    if (pos < bits_.size()) {
      bits_[pos] |= static_cast<uint8_t>(1u << static_cast<int>(op));
    }
  }

  /// OK_TO_MUTATE of Algorithm 1, line 23.
  bool IsAllowed(size_t pos, MutOp op) const {
    if (pos >= bits_.size()) return false;
    return (bits_[pos] >> static_cast<int>(op)) & 1;
  }

  /// True if at least one (position, op) pair is allowed — otherwise the
  /// mask would block everything and the mutator falls back to unmasked.
  bool AnyAllowed() const {
    for (uint8_t b : bits_) {
      if (b != 0) return true;
    }
    return false;
  }

  /// Empties the mask, retaining capacity — recycled seeds reset their
  /// stale mask this way so later copies of the (invalid) mask are free.
  void Reset() { bits_.clear(); }

  /// Count of fully-protected positions (no op allowed).
  size_t ProtectedCount() const {
    size_t count = 0;
    for (uint8_t b : bits_) {
      if (b == 0) ++count;
    }
    return count;
  }

 private:
  std::vector<uint8_t> bits_;
};

/// Byte-stream mutator implementing O/I/R/D over fixed-length streams.
/// The R operator draws from an "interesting values" pool that the campaign
/// feeds with comparison constants observed at uncovered branches — the
/// "replacing bytes with interesting values" operator of §IV-B.
class ByteMutator {
 public:
  ByteMutator() = default;

  /// Most constants the interesting pool holds.
  static constexpr size_t kMaxInteresting = 64;

  /// Adds a 32-byte constant to the interesting pool (deduplicated, capped
  /// at kMaxInteresting). Feedback calls this for both operands of every
  /// comparison at an uncovered branch direction, so a full pool returns
  /// here without a call.
  void AddInterestingConstant(const U256& value) {
    if (interesting_.size() >= kMaxInteresting) return;
    InsertInteresting(value);
  }
  size_t interesting_count() const { return interesting_.size(); }
  /// The pool in insertion order (the R operator draws index into it).
  const std::vector<U256>& interesting() const { return interesting_; }

  /// Applies m = (op, n) at `pos` per §IV-B's operator definitions. Stream
  /// length is ABI-fixed, so I shifts right (dropping the tail) and D shifts
  /// left (zero-filling the tail).
  void Apply(Bytes* stream, MutOp op, size_t pos, size_t n, Rng* rng) const;

  /// One random mutation honoring `mask` (pass nullptr or an empty mask for
  /// unmasked mutation). Returns false if the mask permits nothing.
  bool MutateRandom(Bytes* stream, const MutationMask* mask, Rng* rng) const;

 private:
  /// Open-addressing index slots over `interesting_`, twice its cap so a
  /// probe always reaches an empty slot.
  static constexpr size_t kIndexSlots = 2 * kMaxInteresting;

  /// Appends `value` unless the pool holds it already (requires a free
  /// place in the pool).
  void InsertInteresting(const U256& value);

  std::vector<U256> interesting_;
  /// Membership index: slot -> position in `interesting_` + 1, 0 = empty.
  /// Makes the duplicate test O(1) while `interesting_` keeps its order.
  std::array<uint8_t, kIndexSlots> index_{};
};

/// COMPUTE_MASK of Algorithm 2: for sampled positions and each operator,
/// apply the mutation to a copy of `stream`, re-execute via `probe`, and
/// permit the (position, op) pair iff the probe reports that the mutant
/// still hits the nested branch or still shrinks the branch distance.
///
/// `probe(mutated_stream)` must return true in exactly that case; every call
/// costs one execution, so `stride` bounds the sampling density.
MutationMask ComputeMask(const Bytes& stream, size_t stride,
                         const ByteMutator& mutator, Rng* rng,
                         const std::function<bool(const Bytes&)>& probe);

}  // namespace mufuzz::fuzzer

#endif  // MUFUZZ_FUZZER_MASK_H_
