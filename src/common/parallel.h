#ifndef XMODEL_COMMON_PARALLEL_H_
#define XMODEL_COMMON_PARALLEL_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace xmodel::common {

/// Resolves a user-facing worker-count option: 0 = one worker per hardware
/// thread, otherwise the requested count (floored at 1).
inline int ResolveWorkerCount(int requested) {
  if (requested > 0) return requested;
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

/// A reusable fork-join pool: `num_workers - 1` long-lived threads plus the
/// calling thread. Run(fn) invokes fn(worker_index) once per worker
/// (index 0 runs on the caller) and returns when every invocation has
/// finished — one barrier per Run, cheap enough to issue once per BFS
/// level. With one worker no threads are spawned and Run degenerates to a
/// plain call, so single-worker paths stay thread-free.
///
/// Run must not be called concurrently or reentrantly; the pool is a
/// fork-join primitive, not a task queue.
class WorkerPool {
 public:
  explicit WorkerPool(int num_workers)
      : num_workers_(num_workers < 1 ? 1 : num_workers) {
    threads_.reserve(static_cast<size_t>(num_workers_ - 1));
    for (int w = 1; w < num_workers_; ++w) {
      threads_.emplace_back([this, w] { WorkerLoop(w); });
    }
  }

  ~WorkerPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_ = true;
    }
    start_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  int num_workers() const { return num_workers_; }

  /// Runs fn(0) .. fn(num_workers - 1) concurrently; blocks until all
  /// return.
  void Run(const std::function<void(int)>& fn) {
    if (num_workers_ == 1) {
      fn(0);
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      task_ = &fn;
      ++epoch_;
      remaining_ = num_workers_ - 1;
    }
    start_cv_.notify_all();
    fn(0);
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [this] { return remaining_ == 0; });
    task_ = nullptr;
  }

 private:
  void WorkerLoop(int worker_index) {
    uint64_t seen_epoch = 0;
    for (;;) {
      const std::function<void(int)>* task = nullptr;
      {
        std::unique_lock<std::mutex> lock(mu_);
        start_cv_.wait(lock,
                       [&] { return shutdown_ || epoch_ != seen_epoch; });
        if (shutdown_) return;
        seen_epoch = epoch_;
        task = task_;
      }
      (*task)(worker_index);
      {
        std::lock_guard<std::mutex> lock(mu_);
        if (--remaining_ == 0) done_cv_.notify_all();
      }
    }
  }

  const int num_workers_;
  std::vector<std::thread> threads_;
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int)>* task_ = nullptr;
  uint64_t epoch_ = 0;
  int remaining_ = 0;
  bool shutdown_ = false;
};

/// Runs task(0) .. task(n - 1), each exactly once, and returns when all
/// have finished. With a pool the indices are handed out by an atomic
/// cursor, so at most pool->num_workers() tasks are in flight at once;
/// with a null pool (the caller is itself a pool task, or has no pool)
/// they run inline in index order. Code that splits its work into tasks
/// calls this in both situations, so there is one implementation whether
/// or not the tasks run concurrently. Same reentrancy rule as Run.
inline void ParallelFor(WorkerPool* pool, size_t n,
                        const std::function<void(size_t)>& task) {
  if (pool == nullptr || pool->num_workers() == 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) task(i);
    return;
  }
  std::atomic<size_t> cursor{0};
  pool->Run([&](int) {
    for (size_t i = cursor.fetch_add(1, std::memory_order_relaxed); i < n;
         i = cursor.fetch_add(1, std::memory_order_relaxed)) {
      task(i);
    }
  });
}

/// How many ways ParallelFor on `pool` can split work: the worker count,
/// or 1 inline.
inline size_t ParallelWidth(const WorkerPool* pool) {
  return pool == nullptr ? 1 : static_cast<size_t>(pool->num_workers());
}

}  // namespace xmodel::common

#endif  // XMODEL_COMMON_PARALLEL_H_
