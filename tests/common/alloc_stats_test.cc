// The counting allocator's sharded counters: allocations on any thread,
// including threads that have exited before the snapshot, are in the sum.

#include "common/alloc_stats.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <thread>
#include <vector>

namespace mufuzz {
namespace {

TEST(AllocStatsTest, CountsFromExitedThreadsStayIncluded) {
  if (!AllocStatsEnabled()) {
    GTEST_SKIP() << "built with MUFUZZ_ALLOC_STATS=OFF";
  }
  constexpr int kThreads = 4;
  constexpr uint64_t kPairs = 2000;
  constexpr size_t kSize = 48;

  const AllocCounters before = CurrentAllocStats();
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([] {
        for (uint64_t i = 0; i < kPairs; ++i) {
          // Direct calls of the allocation functions, which (unlike
          // new-expressions) the compiler may not elide.
          void* p = ::operator new(kSize);
          static_cast<volatile uint8_t*>(p)[0] = 1;
          ::operator delete(p);
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  const AllocCounters after = CurrentAllocStats();

  EXPECT_GE(after.allocs - before.allocs, kThreads * kPairs);
  EXPECT_GE(after.deallocs - before.deallocs, kThreads * kPairs);
  EXPECT_GE(after.bytes - before.bytes, kThreads * kPairs * kSize);
}

TEST(AllocStatsTest, SnapshotsAreMonotone) {
  if (!AllocStatsEnabled()) {
    GTEST_SKIP() << "built with MUFUZZ_ALLOC_STATS=OFF";
  }
  AllocCounters prev = CurrentAllocStats();
  std::thread churn([] {
    for (int i = 0; i < 5000; ++i) {
      void* p = ::operator new(16);
      ::operator delete(p);
    }
  });
  for (int i = 0; i < 200; ++i) {
    const AllocCounters now = CurrentAllocStats();
    ASSERT_GE(now.allocs, prev.allocs);
    ASSERT_GE(now.deallocs, prev.deallocs);
    ASSERT_GE(now.bytes, prev.bytes);
    prev = now;
  }
  churn.join();
}

}  // namespace
}  // namespace mufuzz
