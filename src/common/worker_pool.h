#ifndef MUFUZZ_COMMON_WORKER_POOL_H_
#define MUFUZZ_COMMON_WORKER_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mufuzz {

/// A small persistent thread pool. Threads are spawned once at construction
/// and reused for every task, replacing the spawn/join-per-round pattern the
/// island rounds used to pay (thread creation is microseconds, but a round
/// can be sub-millisecond).
///
/// ParallelEach(count, fn) is fork-join: fn(0..count) is drained from a
/// shared counter by min(size(), count) bodies — up to size()-1 pool threads
/// plus the calling thread — and a std::barrier holds the caller until every
/// index completed. Which thread runs which index is scheduling-dependent;
/// callers must keep fn independent per index (write to disjoint slots).
class WorkerPool {
 public:
  /// Spawns `threads` workers (minimum 1).
  explicit WorkerPool(int threads);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  /// Drains outstanding tasks, then joins all workers.
  ~WorkerPool();

  int size() const { return static_cast<int>(threads_.size()); }

  /// Runs fn(0..count) across the pool plus the calling thread and returns
  /// once all indices completed (barrier semantics, like the former
  /// spawn-and-join ForEachParallel).
  void ParallelEach(size_t count, const std::function<void(size_t)>& fn);

 private:
  /// Enqueues a task for any free worker.
  void Post(std::function<void()> task);
  void ThreadMain();

  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;
  bool stopping_ = false;
};

}  // namespace mufuzz

#endif  // MUFUZZ_COMMON_WORKER_POOL_H_
