#include "util/thread_pool.h"

#include <sched.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

namespace sttr {
namespace {

TEST(ThreadPoolTest, RunsSubmittedTasks) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitOnEmptyPoolReturns) {
  ThreadPool pool(1);
  pool.Wait();  // must not deadlock
  SUCCEED();
}

TEST(ThreadPoolTest, ParallelForCoversAllIndices) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(101);
  pool.ParallelFor(101, [&hits](size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ParallelForZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPoolTest, ParallelForFewerItemsThanThreads) {
  ThreadPool pool(8);
  std::atomic<int> counter{0};
  pool.ParallelFor(3, [&counter](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, SequentialBatchesReuseWorkers) {
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  for (int round = 0; round < 5; ++round) {
    pool.ParallelFor(100, [&sum](size_t i) {
      sum.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(sum.load(), 5 * 4950);
}

TEST(ParallelForChunkedTest, CoversRangeExactlyOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelForChunked(257, 16, [&hits](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunkedTest, SmallRangeRunsAsSingleChunk) {
  ThreadPool pool(4);
  std::atomic<int> chunks{0};
  std::atomic<size_t> covered{0};
  pool.ParallelForChunked(5, 100, [&](size_t begin, size_t end) {
    chunks.fetch_add(1);
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(chunks.load(), 1);
  EXPECT_EQ(covered.load(), 5u);
}

TEST(ParallelForChunkedTest, ZeroIsNoop) {
  ThreadPool pool(2);
  pool.ParallelForChunked(0, 8, [](size_t, size_t) {
    FAIL() << "must not run";
  });
}

TEST(ParallelForChunkedTest, NestedCallFromWorkerRunsInline) {
  // A parallel region launched from inside a worker must degrade to an
  // inline serial run instead of re-entering the pool (which would
  // deadlock the outer Wait()).
  ThreadPool pool(2);
  std::atomic<long> sum{0};
  pool.ParallelFor(4, [&](size_t) {
    EXPECT_TRUE(ThreadPool::InWorker());
    pool.ParallelForChunked(10, 2, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        sum.fetch_add(static_cast<long>(i));
      }
    });
  });
  EXPECT_EQ(sum.load(), 4 * 45);
}

TEST(ThreadPoolTest, InWorkerFalseOnCallerThread) {
  EXPECT_FALSE(ThreadPool::InWorker());
  ThreadPool pool(2);
  std::atomic<int> inside{0};
  pool.Submit([&inside] {
    if (ThreadPool::InWorker()) inside.fetch_add(1);
  });
  pool.Wait();
  EXPECT_EQ(inside.load(), 1);
  EXPECT_FALSE(ThreadPool::InWorker());
}

TEST(ThreadPoolTest, DefaultNumThreadsRespectsEnv) {
  setenv("STTR_NUM_THREADS", "3", /*overwrite=*/1);
  EXPECT_EQ(DefaultNumThreads(), 3u);
  setenv("STTR_NUM_THREADS", "not-a-number", /*overwrite=*/1);
  EXPECT_GE(DefaultNumThreads(), 1u);
  unsetenv("STTR_NUM_THREADS");
  EXPECT_GE(DefaultNumThreads(), 1u);
}

TEST(ThreadPoolTest, DefaultNumThreadsCountsTheAllowedCpus) {
  unsetenv("STTR_NUM_THREADS");
  cpu_set_t original;
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(DefaultNumThreads(), static_cast<size_t>(CPU_COUNT(&original)));

  // Pin to the first allowed CPU, and to the first two when there are two:
  // the count follows the mask, not the machine.
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  int added = 0;
  for (int cpu = 0; cpu < CPU_SETSIZE && added < 2; ++cpu) {
    if (!CPU_ISSET(cpu, &original)) continue;
    CPU_SET(cpu, &pinned);
    ++added;
    ASSERT_EQ(sched_setaffinity(0, sizeof(pinned), &pinned), 0);
    EXPECT_EQ(DefaultNumThreads(), static_cast<size_t>(added));
  }
  // The environment variable still wins over the mask.
  setenv("STTR_NUM_THREADS", "5", /*overwrite=*/1);
  EXPECT_EQ(DefaultNumThreads(), 5u);
  unsetenv("STTR_NUM_THREADS");
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
}

TEST(ThreadPoolTest, DestructorJoinsCleanly) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 20; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Wait();
  }
  EXPECT_EQ(counter.load(), 20);
}

}  // namespace
}  // namespace sttr
