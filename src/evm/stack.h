#ifndef MUFUZZ_EVM_STACK_H_
#define MUFUZZ_EVM_STACK_H_

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "common/u256.h"
#include "evm/taint.h"

namespace mufuzz::evm {

/// A stack word plus the instrumentation the fuzzer feeds on: a taint mask,
/// an optional comparison-record id (for branch distance), and an optional
/// originating-call id (for the unhandled-exception oracle).
struct Word {
  U256 value;
  uint32_t taint = kTaintNone;
  int32_t cmp_id = -1;   ///< Index into the frame's comparison-record table.
  int32_t call_id = -1;  ///< Id of the CALL that produced this status word.

  Word() = default;
  explicit Word(U256 v) : value(std::move(v)) {}
  Word(U256 v, uint32_t t) : value(std::move(v)), taint(t) {}
};
static_assert(std::is_trivially_destructible_v<Word>,
              "Stack never destroys the words it holds");

/// EVM operand stack, limited to 1024 entries like the real machine.
///
/// The items live in one fixed kMaxDepth buffer with a size field, so a
/// push is a store and a bump, with no capacity check. The buffer is raw
/// storage: a slot is constructed when it is first pushed, so the pages of
/// slots a frame never reaches are never touched and stay out of the
/// resident set (Word is trivially destructible, so nothing is destroyed).
///
/// Over/underflow are reported by returning false; the interpreter converts
/// that into an execution failure (no exceptions in library code).
class Stack {
 public:
  static constexpr size_t kMaxDepth = 1024;

  Stack()
      : items_(static_cast<Word*>(::operator new(kMaxDepth * sizeof(Word)))) {}
  ~Stack() { ::operator delete(items_); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  bool Push(const Word& w) {
    if (size_ >= kMaxDepth) return false;
    PushUnsafe(w);
    return true;
  }

  bool Pop(Word* out) {
    if (size_ == 0) return false;
    *out = items_[--size_];
    return true;
  }

  /// DUPn: duplicates the item `depth-1` below the top onto the top.
  bool Dup(int depth) {
    if (static_cast<size_t>(depth) > size_) return false;
    if (size_ >= kMaxDepth) return false;
    PushUnsafe(items_[size_ - depth]);
    return true;
  }

  /// SWAPn: swaps the top with the item `depth` below it.
  bool Swap(int depth) {
    if (size_ < static_cast<size_t>(depth) + 1) return false;
    SwapUnsafe(depth);
    return true;
  }

  // Unchecked accessors for the decoded-dispatch loop: a block whose entry
  // height covers its deepest pop and whose peak growth stays under
  // kMaxDepth (proven at decode time, checked once per block) skips the
  // per-op bounds tests. Callers outside that proof must use the checked
  // variants above.

  void PushUnsafe(const Word& w) {
    ::new (static_cast<void*>(items_ + size_)) Word(w);
    ++size_;
  }

  Word PopUnsafe() { return items_[--size_]; }

  /// Pops `n` items without reading them.
  void DropUnsafe(size_t n) { size_ -= n; }

  /// Reference to the item `depth` below the top (0 == top). Stays valid
  /// until that item is popped or overwritten.
  const Word& TopUnsafe(size_t depth = 0) const {
    return items_[size_ - 1 - depth];
  }

  /// SWAPn without the depth check.
  void SwapUnsafe(int depth) {
    std::swap(items_[size_ - 1], items_[size_ - 1 - depth]);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void Clear() { size_ = 0; }

 private:
  Word* items_;  ///< kMaxDepth slots; [0, size_) are live
  size_t size_ = 0;
};

}  // namespace mufuzz::evm

#endif  // MUFUZZ_EVM_STACK_H_
