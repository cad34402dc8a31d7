// Unit tests for src/util: RMQ, RNG, summary statistics, thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/util/arena.hpp"
#include "src/util/flat.hpp"
#include "src/util/rmq.hpp"
#include "src/util/rng.hpp"
#include "src/util/stats.hpp"
#include "src/util/thread_pool.hpp"

namespace sap {
namespace {

TEST(RangeMinTest, SingleElement) {
  const std::vector<std::int64_t> v{42};
  RangeMin rmq(v);
  EXPECT_EQ(rmq.min(0, 0), 42);
  EXPECT_EQ(rmq.argmin(0, 0), 0u);
}

TEST(RangeMinTest, KnownArray) {
  const std::vector<std::int64_t> v{5, 3, 8, 3, 9, 1, 7};
  RangeMin rmq(v);
  EXPECT_EQ(rmq.min(0, 6), 1);
  EXPECT_EQ(rmq.argmin(0, 6), 5u);
  EXPECT_EQ(rmq.min(0, 3), 3);
  EXPECT_EQ(rmq.argmin(0, 3), 1u);  // ties resolve to the left
  EXPECT_EQ(rmq.min(2, 4), 3);
  EXPECT_EQ(rmq.argmin(2, 4), 3u);
  EXPECT_EQ(rmq.min(6, 6), 7);
}

TEST(RangeMinTest, MatchesNaiveOnRandomArrays) {
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 64));
    std::vector<std::int64_t> v(n);
    for (auto& x : v) x = rng.uniform_int(-100, 100);
    RangeMin rmq(v);
    for (std::size_t lo = 0; lo < n; ++lo) {
      for (std::size_t hi = lo; hi < n; ++hi) {
        const auto naive =
            *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo),
                              v.begin() + static_cast<std::ptrdiff_t>(hi) + 1);
        ASSERT_EQ(rmq.min(lo, hi), naive) << "range [" << lo << "," << hi << "]";
        ASSERT_EQ(v[rmq.argmin(lo, hi)], naive);
      }
    }
  }
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.uniform_int(-7, 13);
    ASSERT_GE(x, -7);
    ASSERT_LE(x, 13);
  }
}

TEST(RngTest, UniformIntCoversSupport) {
  Rng rng(11);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_int(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, Uniform01InHalfOpenInterval) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
  }
}

TEST(RngTest, ForkDecorrelates) {
  Rng parent(3);
  Rng child1 = parent.fork();
  Rng child2 = parent.fork();
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (child1() == child2()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(SummaryTest, MeanAndExtremes) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_EQ(s.count(), 4u);
}

TEST(SummaryTest, MergeMatchesSequential) {
  Rng rng(23);
  Summary all;
  Summary left;
  Summary right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform01() * 10 - 5;
    all.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), all.count());
  EXPECT_NEAR(left.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), all.min());
  EXPECT_DOUBLE_EQ(left.max(), all.max());
}

TEST(ThreadPoolTest, RunsEveryIteration) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(16,
                                 [](std::size_t i) {
                                   if (i == 7) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
}

TEST(ThreadPoolTest, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPoolTest, FirstExceptionWinsWhenManyThrow) {
  // Many iterations throw concurrently; exactly one of their exceptions must
  // propagate intact (first to be recorded wins, later ones are dropped),
  // and every iteration still runs — no early abort leaves work undone.
  ThreadPool pool(4);
  for (int trial = 0; trial < 20; ++trial) {
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i % 9 == 3) throw std::runtime_error("boom@" + std::to_string(i));
      });
      FAIL() << "parallel_for did not throw";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      ASSERT_EQ(what.rfind("boom@", 0), 0u) << what;
      const std::size_t i = std::stoul(what.substr(5));
      EXPECT_EQ(i % 9, 3u) << what;
    }
    EXPECT_EQ(ran.load(), 64);
  }
}

TEST(ThreadPoolTest, ReusableAfterThrow) {
  // A throwing sweep must leave the pool in a clean state: subsequent
  // parallel_for calls run every iteration exactly once, repeatedly.
  ThreadPool pool(4);
  for (int round = 0; round < 5; ++round) {
    EXPECT_THROW(pool.parallel_for(32,
                                   [](std::size_t i) {
                                     if (i == 5) throw std::logic_error("x");
                                   }),
                 std::logic_error);
    std::vector<std::atomic<int>> hits(200);
    pool.parallel_for(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& h : hits) ASSERT_EQ(h.load(), 1);
  }
}

TEST(ThreadPoolTest, StressManySmallSweeps) {
  // Back-to-back sweeps of varying size exercise the wake/sleep handshake;
  // a lost wakeup or double-claimed index shows up as a wrong sum.
  ThreadPool pool(8);
  for (std::size_t n = 1; n <= 128; ++n) {
    std::atomic<std::size_t> sum{0};
    pool.parallel_for(n, [&](std::size_t i) { sum.fetch_add(i + 1); });
    ASSERT_EQ(sum.load(), n * (n + 1) / 2) << "sweep of size " << n;
  }
}

TEST(ThreadPoolTest, RunsBodiesOnAtMostThreadCountThreads) {
  for (const std::size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.thread_count(), threads);
    std::mutex mutex;
    std::set<std::thread::id> seen;
    pool.parallel_for(256, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::microseconds(50));
      std::lock_guard lock(mutex);
      seen.insert(std::this_thread::get_id());
    });
    EXPECT_LE(seen.size(), pool.thread_count()) << threads << " threads";
  }
}

TEST(ThreadPoolTest, SingleThreadPoolRunsEverythingOnTheCaller) {
  ThreadPool pool(1);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  pool.parallel_for(64, [&](std::size_t) {
    std::lock_guard lock(mutex);
    seen.insert(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 1u);
  EXPECT_EQ(*seen.begin(), std::this_thread::get_id());
}

TEST(PercentileTest, MatchesLinearInterpolation) {
  const std::vector<double> v{4.0, 1.0, 3.0, 2.0};  // sorted: 1 2 3 4
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 4.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 2.5);
  EXPECT_DOUBLE_EQ(percentile(v, 25.0), 1.75);
  EXPECT_DOUBLE_EQ(percentile({7.5}, 95.0), 7.5);
  EXPECT_TRUE(std::isnan(percentile({}, 50.0)));
}

TEST(FlatBufTest, CapacityIsSplitFromSize) {
  Arena arena;
  FlatBuf<std::int64_t> buf(arena, 16);
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 16u);
  for (std::int64_t i = 0; i < 16; ++i) buf.push_back(i);
  EXPECT_EQ(buf.size(), 16u);
  buf.clear();
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_EQ(buf.capacity(), 16u);  // clear releases no storage
  buf.resize_within_capacity(8);
  EXPECT_EQ(buf.size(), 8u);
}

TEST(FlatBufTest, GrowthPreservesContents) {
  Arena arena;
  FlatBuf<std::int64_t> buf(arena);
  for (std::int64_t i = 0; i < 10000; ++i) buf.push_back(i * 3);
  ASSERT_EQ(buf.size(), 10000u);
  for (std::int64_t i = 0; i < 10000; ++i) {
    ASSERT_EQ(buf[static_cast<std::size_t>(i)], i * 3);
  }
}

TEST(FlatBufTest, AppendBulkCopies) {
  Arena arena;
  FlatBuf<std::int32_t> buf(arena);
  const std::vector<std::int32_t> chunk{1, 2, 3, 4, 5};
  for (int round = 0; round < 100; ++round) {
    buf.append(chunk.data(), chunk.size());
  }
  ASSERT_EQ(buf.size(), 500u);
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(buf[i], static_cast<std::int32_t>(i % 5 + 1));
  }
}

TEST(FlatBufTest, ResizeZeroedZeroFillsTheTail) {
  Arena arena;
  FlatBuf<std::int64_t> buf(arena);
  buf.push_back(7);
  buf.resize_zeroed(100);
  EXPECT_EQ(buf[0], 7);
  for (std::size_t i = 1; i < 100; ++i) EXPECT_EQ(buf[i], 0);
}

TEST(FlatBufTest, ViewIsUnmanagedAndShared) {
  Arena arena;
  FlatBuf<std::int64_t> buf(arena, 4);
  buf.push_back(1);
  buf.push_back(2);
  BufView<std::int64_t> view = buf.view();
  view[0] = 42;  // same storage
  EXPECT_EQ(buf[0], 42);
  view.push_back(3);  // within capacity, view-local size
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(buf.size(), 2u);  // the owner's size is untouched
}

TEST(FlatMatTest, ReshapeWithinReservationKeepsStorage) {
  Arena arena;
  FlatMat<std::int64_t> mat(arena);
  mat.reshape_zeroed(4, 6);
  EXPECT_EQ(mat.rows(), 4u);
  EXPECT_EQ(mat.cols(), 6u);
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 6; ++c) EXPECT_EQ(mat(r, c), 0);
  }
  mat(2, 3) = 99;
  // Shrinking the column count within the same stride reshapes in place.
  const std::size_t stride = mat.stride();
  mat.reshape_zeroed(4, 5);
  EXPECT_EQ(mat.stride(), stride);
  EXPECT_EQ(mat(2, 3), 99);
}

TEST(FlatMatTest, RowSpanHasLogicalWidth) {
  Arena arena;
  FlatMat<std::int64_t> mat(arena);
  mat.reshape_zeroed(3, 5);
  auto row = mat.row(1);
  EXPECT_EQ(row.size(), 5u);
  row[4] = 11;
  EXPECT_EQ(mat(1, 4), 11);
}

TEST(FlatMatTest, GrowthZeroFills) {
  Arena arena;
  FlatMat<std::int64_t> mat(arena);
  mat.reshape_zeroed(2, 2);
  mat(1, 1) = 5;
  mat.reshape_zeroed(64, 64);  // forces reallocation
  for (std::size_t r = 0; r < 64; ++r) {
    for (std::size_t c = 0; c < 64; ++c) EXPECT_EQ(mat(r, c), 0);
  }
  EXPECT_GE(mat.row_capacity(), 64u);
}

}  // namespace
}  // namespace sap
