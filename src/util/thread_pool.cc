#include "util/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <cstdlib>

#include "util/check.h"
#include "util/logging.h"

namespace sttr {

namespace {

thread_local bool t_in_worker = false;

// Consumed queue slots tolerated before a queue that never drains is
// compacted.
constexpr size_t kQueueCompactAt = 1024;

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  STTR_CHECK_GE(num_threads, 1u);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (auto& t : threads_) t.join();
}

bool ThreadPool::InWorker() { return t_in_worker; }

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    STTR_CHECK(!shutting_down_) << "Submit() after shutdown";
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mu_);
  while (in_flight_ != 0) all_done_.Wait(mu_);
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  // ~4 chunks per worker balances load without per-index dispatch cost.
  const size_t grain =
      std::max<size_t>(1, n / (4 * std::max<size_t>(1, threads_.size())));
  ParallelForChunked(n, grain, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) fn(i);
  });
}

void ThreadPool::ParallelForChunked(
    size_t n, size_t grain,
    const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<size_t>(1, grain);
  if (n <= grain || InWorker()) {
    // Single chunk, or already on a pool worker: run inline rather than
    // nesting pools (a worker blocking in Wait() could starve the queue).
    fn(0, n);
    return;
  }
  // Each task captures two words, which std::function stores inline, and
  // the queue is reserved for all chunks at once: a pool whose queue has
  // reached this call's size dispatches without allocating.
  struct Range {
    const std::function<void(size_t, size_t)>* fn;
    size_t n;
    size_t grain;
  };
  const Range range{&fn, n, grain};
  const size_t chunks = (n + grain - 1) / grain;
  {
    MutexLock lock(mu_);
    STTR_CHECK(!shutting_down_) << "ParallelForChunked() after shutdown";
    queue_.reserve(queue_.size() + chunks);
    for (size_t begin = 0; begin < n; begin += grain) {
      queue_.push_back([r = &range, begin] {
        (*r->fn)(begin, std::min(r->n, begin + r->grain));
      });
    }
    in_flight_ += chunks;
  }
  work_available_.NotifyAll();
  Wait();
}

void ThreadPool::WorkerLoop() {
  t_in_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && queue_head_ == queue_.size()) {
        work_available_.Wait(mu_);
      }
      if (queue_head_ == queue_.size()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(queue_[queue_head_++]);
      if (queue_head_ == queue_.size()) {
        // Drained: rewind, keeping the capacity for the next burst.
        queue_.clear();
        queue_head_ = 0;
      } else if (queue_head_ >= kQueueCompactAt &&
                 2 * queue_head_ >= queue_.size()) {
        // Never drained under sustained submission: drop the consumed
        // prefix so the vector stays bounded by the pending backlog.
        queue_.erase(queue_.begin(),
                     queue_.begin() + static_cast<std::ptrdiff_t>(queue_head_));
        queue_head_ = 0;
      }
    }
    task();
    {
      MutexLock lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

size_t DefaultNumThreads() {
  if (const char* env = std::getenv("STTR_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && v > 0) return static_cast<size_t>(v);
    STTR_LOG(Warning) << "STTR_NUM_THREADS='" << env
                      << "' is not a positive integer; falling back to "
                         "the CPU count";
  }
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    const int n = CPU_COUNT(&allowed);
    if (n > 0) return static_cast<size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<size_t>(hw);
}

ThreadPool& GlobalThreadPool() {
  // Leaked on purpose: joining workers during static destruction races
  // with other exit-time teardown, and the OS reclaims the threads anyway.
  static ThreadPool* pool = new ThreadPool(DefaultNumThreads());
  return *pool;
}

}  // namespace sttr
