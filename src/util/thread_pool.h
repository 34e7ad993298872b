#ifndef STTR_UTIL_THREAD_POOL_H_
#define STTR_UTIL_THREAD_POOL_H_

#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace sttr {

/// Fixed-size worker pool. Stands in for the paper's multi-GPU data
/// parallelism (Table 2): each worker computes gradients on its own shard of
/// a batch, exactly as each GPU would. Also backs the batched inference path
/// (ParallelMatMul, parallel evaluation) via GlobalThreadPool().
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for asynchronous execution.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every submitted task has finished.
  void Wait() EXCLUDES(mu_);

  /// Runs fn(i) for i in [0, n), sharded across the pool, and waits.
  /// Work is split into grain-sized chunks (several per worker) so uneven
  /// per-index costs load-balance instead of serialising on the slowest
  /// shard.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  /// Runs fn(begin, end) over a partition of [0, n) into chunks of at most
  /// `grain` indices, sharded across the pool, and waits. This is the entry
  /// point the blocked tensor kernels use: one std::function per *range*,
  /// not per index, so dispatch overhead is amortised over the chunk.
  void ParallelForChunked(
      size_t n, size_t grain,
      const std::function<void(size_t begin, size_t end)>& fn);

  size_t num_threads() const { return threads_.size(); }

  /// True when the calling thread is a worker of *any* ThreadPool. Parallel
  /// kernels consult this to fall back to their serial form instead of
  /// nesting pools (which would both oversubscribe and risk deadlocking a
  /// pool waiting on itself).
  static bool InWorker();

 private:
  void WorkerLoop() EXCLUDES(mu_);

  std::vector<std::thread> threads_;
  Mutex mu_;
  /// Pending tasks are [queue_head_, queue_.size()). The vector is rewound
  /// whenever it drains, so it grows to its high-water mark and steady
  /// Submit/run cycles stop allocating.
  std::vector<std::function<void()>> queue_ GUARDED_BY(mu_);
  size_t queue_head_ GUARDED_BY(mu_) = 0;
  CondVar work_available_;
  CondVar all_done_;
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;
};

/// Worker count for shared parallel paths: the STTR_NUM_THREADS environment
/// variable when set to a positive integer, else the number of CPUs the
/// calling thread may run on (sched_getaffinity, so a process pinned with
/// taskset or a cpuset gets one worker per allowed CPU), else
/// hardware_concurrency() (minimum 1).
size_t DefaultNumThreads();

/// Lazily constructed process-wide pool of DefaultNumThreads() workers,
/// shared by ParallelMatMul and the parallel evaluation protocol. Never
/// destroyed before exit, so handing references around is safe.
ThreadPool& GlobalThreadPool();

}  // namespace sttr

#endif  // STTR_UTIL_THREAD_POOL_H_
