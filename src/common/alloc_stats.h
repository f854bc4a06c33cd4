#ifndef MUFUZZ_COMMON_ALLOC_STATS_H_
#define MUFUZZ_COMMON_ALLOC_STATS_H_

#include <cstdint>

namespace mufuzz {

/// Process-wide heap-allocation counters, fed by a global operator
/// new/delete replacement when the build defines MUFUZZ_ALLOC_STATS (the
/// CMake option of the same name, ON by default; sanitizer builds switch it
/// off so ASan/TSan keep their own allocator interposition intact).
///
/// This is the observability hook behind the "allocation-free hot path"
/// invariant: the allocation-regression test and the per-wave counters in
/// Campaign::Progress / JobProgress both read these. Counters are relaxed
/// atomics — cheap enough to leave on in Release, monotone, and summed
/// across all threads (service workers included: a campaign's allocations
/// happen on whichever worker runs its round).
///
/// The counters are sharded so that worker threads do not contend for one
/// cache line on every new/delete: 16 cache-line-aligned shards, each
/// thread dealt one round-robin on its first allocation and remembering it
/// in a trivially destructible thread_local index (threads past the 16th
/// share shards, still counted exactly). CurrentAllocStats sums the shards
/// dealt so far, so a single-threaded process reads one cache line. A
/// shard outlives the threads that wrote it, so allocations made by
/// threads that have since exited stay counted.
struct AllocCounters {
  uint64_t allocs = 0;    ///< operator new calls
  uint64_t deallocs = 0;  ///< operator delete calls
  uint64_t bytes = 0;     ///< bytes requested through operator new
};

/// True when the counting allocator is compiled in; counters stay zero (and
/// alloc-budget tests skip) otherwise.
bool AllocStatsEnabled();

/// Snapshot of the process-wide counters since process start. Deltas of two
/// snapshots bound the allocations of the interval (all threads).
AllocCounters CurrentAllocStats();

}  // namespace mufuzz

#endif  // MUFUZZ_COMMON_ALLOC_STATS_H_
