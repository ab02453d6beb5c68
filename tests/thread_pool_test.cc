// Lifecycle and contract tests for the intra-op ThreadPool: static
// contiguous partitioning, serial fallback, reconfiguration, reduction
// determinism, rejection of nested parallel regions, and concurrent
// callers. Also the binary the ThreadSanitizer CI job runs to prove the
// pool's synchronization protocol is race-free.

#include "base/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "gtest/gtest.h"

namespace dhgcn {
namespace {

// Restores the pool size on scope exit so tests stay order-independent.
class ThreadPoolGuard {
 public:
  explicit ThreadPoolGuard(int64_t n)
      : previous_(ThreadPool::Get().thread_count()) {
    ThreadPool::Get().SetThreads(n);
  }
  ~ThreadPoolGuard() { ThreadPool::Get().SetThreads(previous_); }

 private:
  int64_t previous_;
};

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (int64_t threads : {1, 2, 7}) {
    ThreadPoolGuard pool(threads);
    const int64_t range = 103;
    std::vector<int64_t> hits(range, 0);
    int64_t* phits = hits.data();
    ThreadPool::Get().ParallelFor(0, range, /*grain=*/7,
                                  [&](int64_t b, int64_t e) {
                                    for (int64_t i = b; i < e; ++i) {
                                      ++phits[i];
                                    }
                                  });
    for (int64_t i = 0; i < range; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)], 1)
          << "index " << i << " at threads=" << threads;
    }
  }
}

TEST(ThreadPool, ChunkBoundariesIndependentOfThreadCount) {
  const int64_t begin = 5, end = 83, grain = 9;
  const int64_t chunks = (end - begin + grain - 1) / grain;

  auto record = [&] {
    std::vector<std::pair<int64_t, int64_t>> seen(
        static_cast<size_t>(chunks), {-1, -1});
    auto* pseen = seen.data();
    ThreadPool::Get().ParallelFor(
        begin, end, grain, [&](int64_t b, int64_t e) {
          pseen[(b - begin) / grain] = {b, e};
        });
    return seen;
  };

  ThreadPool::Get().SetThreads(1);
  std::vector<std::pair<int64_t, int64_t>> serial = record();
  for (int64_t c = 0; c < chunks; ++c) {
    int64_t b = begin + c * grain;
    EXPECT_EQ(serial[static_cast<size_t>(c)].first, b);
    EXPECT_EQ(serial[static_cast<size_t>(c)].second,
              std::min(end, b + grain));
  }
  for (int64_t threads : {2, 3, 7}) {
    ThreadPool::Get().SetThreads(threads);
    EXPECT_EQ(record(), serial) << "threads=" << threads;
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ThreadPool, EmptyRangeNeverInvokesTask) {
  for (int64_t threads : {1, 4}) {
    ThreadPoolGuard pool(threads);
    bool called = false;
    ThreadPool::Get().ParallelFor(3, 3, 5,
                                  [&](int64_t, int64_t) { called = true; });
    ThreadPool::Get().ParallelFor(7, 3, 5,
                                  [&](int64_t, int64_t) { called = true; });
    EXPECT_FALSE(called);
  }
}

TEST(ThreadPool, RangeSmallerThanGrainIsOneChunk) {
  ThreadPoolGuard pool(4);
  int64_t calls = 0;
  int64_t seen_begin = -1, seen_end = -1;
  ThreadPool::Get().ParallelFor(2, 6, /*grain=*/100,
                                [&](int64_t b, int64_t e) {
                                  ++calls;
                                  seen_begin = b;
                                  seen_end = e;
                                });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(seen_begin, 2);
  EXPECT_EQ(seen_end, 6);
}

TEST(ThreadPool, SetThreadsReconfigures) {
  ThreadPool& pool = ThreadPool::Get();
  int64_t original = pool.thread_count();
  pool.SetThreads(3);
  EXPECT_EQ(pool.thread_count(), 3);
  std::atomic<int64_t> sum{0};
  pool.ParallelFor(0, 64, 4, [&](int64_t b, int64_t e) {
    for (int64_t i = b; i < e; ++i) sum.fetch_add(i);
  });
  EXPECT_EQ(sum.load(), 64 * 63 / 2);
  pool.SetThreads(1);
  EXPECT_EQ(pool.thread_count(), 1);
  pool.SetThreads(5);
  EXPECT_EQ(pool.thread_count(), 5);
  pool.SetThreads(original);
}

TEST(ThreadPool, InParallelRegionFlag) {
  ThreadPoolGuard pool(2);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
  std::atomic<int64_t> inside{0};
  ThreadPool::Get().ParallelFor(0, 8, 1, [&](int64_t, int64_t) {
    if (ThreadPool::InParallelRegion()) inside.fetch_add(1);
  });
  EXPECT_EQ(inside.load(), 8);
  EXPECT_FALSE(ThreadPool::InParallelRegion());
}

TEST(ThreadPoolDeathTest, NestedParallelForIsRejected) {
  // Serial pool: the fork in the death test then happens with no live
  // worker threads, and the serial fallback enforces the same contract.
  ThreadPoolGuard pool(1);
  EXPECT_DEATH(ThreadPool::Get().ParallelFor(
                   0, 4, 1,
                   [](int64_t, int64_t) {
                     ThreadPool::Get().ParallelFor(
                         0, 2, 1, [](int64_t, int64_t) {});
                   }),
               "DHGCN_CHECK");
}

TEST(ThreadPoolDeathTest, SetThreadsRejectsNonPositive) {
  ThreadPoolGuard pool(1);
  EXPECT_DEATH(ThreadPool::Get().SetThreads(0), "DHGCN_CHECK");
}

TEST(ThreadPool, ReduceSumMatchesSerialLoop) {
  // Small enough that no chunk-cap widening kicks in: chunk partials at
  // grain 8 reproduce the serial per-chunk double sums exactly.
  const int64_t n = 24;
  auto term = [](int64_t i) {
    return static_cast<double>(i % 7) * 0.25 + 1.0;
  };
  double expected = 0.0;
  for (int64_t i = 0; i < n; ++i) expected += term(i);
  for (int64_t threads : {1, 2, 7}) {
    ThreadPoolGuard pool(threads);
    double got = ThreadPool::Get().ParallelReduceSum(
        0, n, 8, [&](int64_t b, int64_t e) {
          double t = 0.0;
          for (int64_t i = b; i < e; ++i) t += term(i);
          return t;
        });
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ThreadPool, ReduceSumBitIdenticalAcrossThreadCounts) {
  // Pathological float-ish terms where summation order matters; the
  // fixed ascending-chunk combine must give identical bits for 1..N
  // threads even when the serial whole-range sum would differ.
  const int64_t n = 1000;
  auto term = [](int64_t i) {
    return (i % 2 == 0 ? 1.0e16 : 1.0) / static_cast<double>(i + 1);
  };
  auto run = [&] {
    return ThreadPool::Get().ParallelReduceSum(
        0, n, 1, [&](int64_t b, int64_t e) {
          double t = 0.0;
          for (int64_t i = b; i < e; ++i) t += term(i);
          return t;
        });
  };
  ThreadPool::Get().SetThreads(1);
  double serial = run();
  for (int64_t threads : {2, 3, 7}) {
    ThreadPool::Get().SetThreads(threads);
    double parallel = run();
    EXPECT_EQ(parallel, serial) << "threads=" << threads;
  }
  ThreadPool::Get().SetThreads(1);
}

TEST(ThreadPool, ReduceSumCapsChunkCount) {
  ThreadPoolGuard pool(4);
  std::atomic<int64_t> calls{0};
  ThreadPool::Get().ParallelReduceSum(
      0, 100000, 1, [&](int64_t b, int64_t e) {
        calls.fetch_add(1);
        return static_cast<double>(e - b);
      });
  EXPECT_LE(calls.load(), ThreadPool::kMaxReduceChunks);
  EXPECT_GT(calls.load(), 1);
}

TEST(ThreadPool, ManyConsecutiveJobs) {
  // Back-to-back jobs exercise the straggler-safe publication protocol:
  // a worker still draining job k must not corrupt job k+1.
  ThreadPoolGuard pool(4);
  for (int64_t round = 0; round < 200; ++round) {
    std::atomic<int64_t> sum{0};
    ThreadPool::Get().ParallelFor(0, 32, 1, [&](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) sum.fetch_add(i + round);
    });
    ASSERT_EQ(sum.load(), 32 * 31 / 2 + 32 * round) << "round " << round;
  }
}

TEST(ThreadPool, ConcurrentCallersRunInlineAndStayExact) {
  // Two threads drive one 4-thread pool at once. Whichever finds the
  // other's job in flight runs its chunks inline, so neither waits on
  // the other: every call must still cover its range exactly once and
  // reduce to the serial bits.
  const int64_t range = 97;
  auto term = [](int64_t i) {
    return (i % 2 == 0 ? 1.0e16 : 1.0) / static_cast<double>(i + 1);
  };
  auto reduce = [&] {
    return ThreadPool::Get().ParallelReduceSum(
        0, 1000, 1, [&](int64_t b, int64_t e) {
          double t = 0.0;
          for (int64_t i = b; i < e; ++i) t += term(i);
          return t;
        });
  };
  double serial = 0.0;
  {
    ThreadPoolGuard serial_pool(1);
    serial = reduce();
  }
  ThreadPoolGuard pool(4);
  std::atomic<int64_t> bad_cover{0};
  std::atomic<int64_t> bad_sum{0};
  auto drive = [&] {
    std::vector<int64_t> hits(range);
    int64_t* phits = hits.data();
    for (int64_t round = 0; round < 300; ++round) {
      std::fill(hits.begin(), hits.end(), 0);
      ThreadPool::Get().ParallelFor(0, range, /*grain=*/3,
                                    [&](int64_t b, int64_t e) {
                                      for (int64_t i = b; i < e; ++i) {
                                        ++phits[i];
                                      }
                                    });
      for (int64_t hit : hits) {
        if (hit != 1) bad_cover.fetch_add(1);
      }
      if (reduce() != serial) bad_sum.fetch_add(1);
    }
  };
  std::thread other(drive);  // lint: allow-thread — the second caller
  drive();
  other.join();
  EXPECT_EQ(bad_cover.load(), 0);
  EXPECT_EQ(bad_sum.load(), 0);
}

}  // namespace
}  // namespace dhgcn
