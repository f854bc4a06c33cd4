#include "common/alloc_stats.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <new>

namespace mufuzz {
namespace {

#ifdef MUFUZZ_ALLOC_STATS
/// One cache line of counters. Threads are dealt shards round-robin, so
/// with up to kShards threads no two threads write the same line; beyond
/// that, threads share a shard and its relaxed fetch_adds stay exact.
struct alignas(64) CounterShard {
  std::atomic<uint64_t> allocs{0};
  std::atomic<uint64_t> deallocs{0};
  std::atomic<uint64_t> bytes{0};
};

/// More shards than cores buys nothing; each one dealt costs every
/// snapshot a cache line, and campaigns take two snapshots per wave.
constexpr uint64_t kShards = 16;
constexpr uint32_t kNoShard = ~uint32_t{0};

CounterShard g_shards[kShards];
/// Threads dealt a shard so far; shards [0, min(dealt, kShards)) are in use.
std::atomic<uint64_t> g_shards_dealt{0};
/// This thread's shard. A constant-initialized, trivially destructible
/// thread_local, so reading it needs no TLS guard, and operator new may use
/// it at any point of a thread's life, thread exit included.
thread_local uint32_t t_shard = kNoShard;

CounterShard& ThisThreadShard() {
  uint32_t shard = t_shard;
  if (shard == kNoShard) {
    shard = static_cast<uint32_t>(
        g_shards_dealt.fetch_add(1, std::memory_order_relaxed) % kShards);
    t_shard = shard;
  }
  return g_shards[shard];
}
#endif

}  // namespace

bool AllocStatsEnabled() {
#ifdef MUFUZZ_ALLOC_STATS
  return true;
#else
  return false;
#endif
}

AllocCounters CurrentAllocStats() {
  AllocCounters c;
#ifdef MUFUZZ_ALLOC_STATS
  // Shards outlive the threads that wrote them, so exited threads' counts
  // stay in the sum. Only dealt shards can hold counts, and a thread is
  // dealt its shard before it first counts, so any allocation that happens
  // before this call lands in a shard the load below covers.
  const uint64_t in_use =
      std::min(g_shards_dealt.load(std::memory_order_relaxed), kShards);
  for (uint64_t i = 0; i < in_use; ++i) {
    const CounterShard& shard = g_shards[i];
    c.allocs += shard.allocs.load(std::memory_order_relaxed);
    c.deallocs += shard.deallocs.load(std::memory_order_relaxed);
    c.bytes += shard.bytes.load(std::memory_order_relaxed);
  }
#endif
  return c;
}

}  // namespace mufuzz

#ifdef MUFUZZ_ALLOC_STATS

// Global replacement of the allocation functions: count, then defer to
// malloc/free. Alignment-aware variants overalign via aligned_alloc. These
// replace the C++ runtime's versions for the whole program (tests and
// benches linked against mufuzz_core included), which is exactly what the
// steady-state-allocation invariant needs — nothing can allocate past the
// counter.

namespace {

void CountAlloc(std::size_t size) {
  mufuzz::CounterShard& shard = mufuzz::ThisThreadShard();
  shard.allocs.fetch_add(1, std::memory_order_relaxed);
  shard.bytes.fetch_add(size, std::memory_order_relaxed);
}

void* CountedAlloc(std::size_t size) {
  CountAlloc(size);
  // malloc(0) may return nullptr; operator new must not.
  return std::malloc(size != 0 ? size : 1);
}

void* CountedAllocAligned(std::size_t size, std::size_t align) {
  CountAlloc(size);
  // aligned_alloc requires size to be a multiple of the alignment.
  std::size_t rounded = (size + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}

void CountedFree(void* p) {
  if (p == nullptr) return;
  mufuzz::ThisThreadShard().deallocs.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  void* p = CountedAlloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = CountedAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = CountedAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  CountedFree(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  CountedFree(p);
}

#endif  // MUFUZZ_ALLOC_STATS
