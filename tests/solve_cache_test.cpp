// Unit tests for the scale-out serving substrate: canonical instance
// hashing (cache key + shard route), the coalescing LRU solve cache, the
// striped latency reservoir, and shard routing. The concurrency tests
// (hammering acquire/publish/abandon and record/snapshot from many threads)
// carry the `concurrency` ctest label so the TSan lane runs them.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/io/canonical.hpp"
#include "src/service/shard.hpp"
#include "src/service/solve_cache.hpp"
#include "src/util/latency_reservoir.hpp"

namespace sap {
namespace {

using service::ShardPool;
using service::SolveCache;

TEST(CanonicalTextTest, StripsCommentsBlankLinesAndWhitespaceRuns) {
  const std::string noisy =
      "# header comment\n"
      "sap-path v1\n"
      "\n"
      "edges   3\t \n"
      "capacities 4 4 4   # trailing comment\n"
      "\r\n"
      "tasks 1\n"
      "0  0\t2   5\n";
  const std::string clean =
      "sap-path v1\n"
      "edges 3\n"
      "capacities 4 4 4\n"
      "tasks 1\n"
      "0 0 2 5\n";
  EXPECT_EQ(canonical_instance_text(noisy), clean);
  // Canonical form is a fixed point.
  EXPECT_EQ(canonical_instance_text(clean), clean);
  EXPECT_EQ(canonical_digest(noisy), canonical_digest(clean));
}

TEST(CanonicalTextTest, NeverMergesDistinctTokenStreams) {
  // A separator survives wherever one existed: "4 4" must not collide with
  // "44", and a newline boundary must not collide with a space.
  EXPECT_NE(canonical_digest("4 4\n"), canonical_digest("44\n"));
  EXPECT_NE(canonical_digest("a b\n"), canonical_digest("a\nb\n"));
  EXPECT_NE(canonical_digest("edges 3\n"), canonical_digest("edges 30\n"));
}

TEST(CanonicalTextTest, DigestIsOrderSensitiveAndFieldFramed) {
  InstanceHasher h1;
  h1.update("abc");
  h1.update_u64(7);
  InstanceHasher h2;
  h2.update_u64(7);
  h2.update("abc");
  EXPECT_NE(h1.digest(), h2.digest());  // order matters

  // Each update() call is a framed field: ("ab","c") must not collide with
  // ("abc") — otherwise adjacent request fields could concatenate-collide
  // (algo "ful" + instance "lx" vs algo "full" + instance "x").
  InstanceHasher h3;
  h3.update("ab");
  h3.update("c");
  InstanceHasher h4;
  h4.update("abc");
  EXPECT_NE(h3.digest(), h4.digest());

  // Identical field sequences collide, of course.
  InstanceHasher h5;
  h5.update("ab");
  h5.update("c");
  EXPECT_EQ(h3.digest(), h5.digest());
}

InstanceDigest key_of(std::uint64_t n) {
  InstanceHasher h;
  h.update_u64(n);
  return h.digest();
}

TEST(SolveCacheTest, DisabledCacheAlwaysReturnsDisabledAndCountsNothing) {
  SolveCache cache(0);
  EXPECT_FALSE(cache.enabled());
  const auto acquired = cache.acquire(key_of(1), 1);
  EXPECT_EQ(acquired.role, SolveCache::Role::kDisabled);
  EXPECT_TRUE(cache.publish(key_of(1), "x").empty());
  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(SolveCacheTest, OwnerPublishesThenHitsServeTheStoredBytes) {
  SolveCache cache(4);
  const auto first = cache.acquire(key_of(1), 10);
  ASSERT_EQ(first.role, SolveCache::Role::kOwner);
  EXPECT_TRUE(cache.publish(key_of(1), "payload-1").empty());

  const auto second = cache.acquire(key_of(1), 11);
  ASSERT_EQ(second.role, SolveCache::Role::kHit);
  EXPECT_EQ(second.payload, "payload-1");

  const SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(SolveCacheTest, LruEvictionBoundsEntriesAndEvictsOldestFirst) {
  SolveCache cache(3);
  for (std::uint64_t k = 1; k <= 3; ++k) {
    ASSERT_EQ(cache.acquire(key_of(k), k).role, SolveCache::Role::kOwner);
    std::string value = "v";
    value += std::to_string(k);
    (void)cache.publish(key_of(k), value);
  }
  // Touch key 1 so key 2 becomes the least recently used.
  ASSERT_EQ(cache.acquire(key_of(1), 100).role, SolveCache::Role::kHit);

  // Inserting key 4 must evict exactly one entry — key 2.
  ASSERT_EQ(cache.acquire(key_of(4), 101).role, SolveCache::Role::kOwner);
  (void)cache.publish(key_of(4), "v4");

  SolveCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(cache.acquire(key_of(1), 102).role, SolveCache::Role::kHit);
  EXPECT_EQ(cache.acquire(key_of(3), 103).role, SolveCache::Role::kHit);
  EXPECT_EQ(cache.acquire(key_of(4), 104).role, SolveCache::Role::kHit);
  // Key 2 is gone; asking for it makes the caller the new owner.
  EXPECT_EQ(cache.acquire(key_of(2), 105).role, SolveCache::Role::kOwner);

  // Capacity stays bounded under sustained inserts.
  (void)cache.publish(key_of(2), "v2");
  for (std::uint64_t k = 10; k < 30; ++k) {
    ASSERT_EQ(cache.acquire(key_of(k), k).role, SolveCache::Role::kOwner);
    (void)cache.publish(key_of(k), "x");
    EXPECT_LE(cache.stats().entries, 3u);
  }
}

TEST(SolveCacheTest, WaitersParkBehindOwnerAndPublishReturnsThemInOrder) {
  SolveCache cache(4);
  ASSERT_EQ(cache.acquire(key_of(7), 1).role, SolveCache::Role::kOwner);
  EXPECT_EQ(cache.acquire(key_of(7), 2).role, SolveCache::Role::kWaiter);
  EXPECT_EQ(cache.acquire(key_of(7), 3).role, SolveCache::Role::kWaiter);

  const std::vector<std::uint64_t> waiters =
      cache.publish(key_of(7), "shared");
  EXPECT_EQ(waiters, (std::vector<std::uint64_t>{2, 3}));
  EXPECT_EQ(cache.stats().coalesced, 2u);
  EXPECT_EQ(cache.acquire(key_of(7), 4).payload, "shared");
}

TEST(SolveCacheTest, AbandonReturnsWaitersAndStoresNothing) {
  SolveCache cache(4);
  ASSERT_EQ(cache.acquire(key_of(9), 1).role, SolveCache::Role::kOwner);
  EXPECT_EQ(cache.acquire(key_of(9), 2).role, SolveCache::Role::kWaiter);

  const std::vector<std::uint64_t> waiters = cache.abandon(key_of(9));
  EXPECT_EQ(waiters, (std::vector<std::uint64_t>{2}));
  EXPECT_EQ(cache.stats().entries, 0u);
  // The key is free again: the next caller owns a fresh computation. This
  // is the mechanism behind "degraded responses are never cached".
  EXPECT_EQ(cache.acquire(key_of(9), 3).role, SolveCache::Role::kOwner);
}

TEST(SolveCacheTest, ConcurrentAcquirersSettleEveryWaiterExactlyOnce) {
  // Many threads race acquire() on a small key space; owners always
  // publish. Invariants: every parked waiter id is returned by exactly one
  // publish, every hit sees the owner's bytes, entries stay bounded.
  constexpr int kThreads = 8;
  constexpr int kIterations = 400;
  constexpr std::uint64_t kKeys = 4;
  SolveCache cache(2);  // smaller than the key space: evictions happen too

  std::mutex settled_mutex;
  std::set<std::uint64_t> settled;      // waiter ids returned by publishes
  std::set<std::uint64_t> parked;       // waiter ids that got kWaiter
  std::atomic<std::uint64_t> next_id{1};
  std::atomic<int> hits{0}, owners{0}, waiters{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const std::uint64_t k =
            (static_cast<std::uint64_t>(t) + static_cast<std::uint64_t>(i)) %
            kKeys;
        const std::uint64_t id = next_id.fetch_add(1);
        const auto acquired = cache.acquire(key_of(k), id);
        switch (acquired.role) {
          case SolveCache::Role::kHit:
            hits.fetch_add(1);
            EXPECT_EQ(acquired.payload, "value-" + std::to_string(k));
            break;
          case SolveCache::Role::kOwner: {
            owners.fetch_add(1);
            const auto ids =
                cache.publish(key_of(k), "value-" + std::to_string(k));
            std::lock_guard lock(settled_mutex);
            for (const std::uint64_t settled_id : ids) {
              EXPECT_TRUE(settled.insert(settled_id).second)
                  << "waiter settled twice";
            }
            break;
          }
          case SolveCache::Role::kWaiter: {
            waiters.fetch_add(1);
            std::lock_guard lock(settled_mutex);
            parked.insert(id);
            break;
          }
          case SolveCache::Role::kDisabled:
            ADD_FAILURE() << "cache reported disabled";
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Every parked waiter was settled by exactly one publish (the insert
  // uniqueness above), and nobody else was.
  EXPECT_EQ(settled, parked);
  const SolveCache::Stats stats = cache.stats();
  EXPECT_LE(stats.entries, 2u);
  EXPECT_EQ(stats.hits, static_cast<std::uint64_t>(hits.load()));
  EXPECT_EQ(stats.coalesced, static_cast<std::uint64_t>(waiters.load()));
  EXPECT_EQ(stats.misses, static_cast<std::uint64_t>(owners.load()));
}

TEST(LatencyReservoirTest, SnapshotReportsPercentilesAndTotalCount) {
  LatencyReservoir reservoir(/*capacity=*/100, /*stripes=*/1);
  for (int i = 1; i <= 100; ++i) reservoir.record(static_cast<double>(i));
  const LatencyReservoir::Snapshot snap = reservoir.snapshot();
  EXPECT_EQ(snap.samples, 100u);
  EXPECT_NEAR(snap.p50_ms, 50.0, 2.0);
  EXPECT_NEAR(snap.p95_ms, 95.0, 2.0);
  EXPECT_EQ(snap.max_ms, 100.0);
}

TEST(LatencyReservoirTest, RingRetainsRecentSamplesBeyondCapacity) {
  LatencyReservoir reservoir(/*capacity=*/8, /*stripes=*/1);
  for (int i = 0; i < 1000; ++i) reservoir.record(1.0);
  const LatencyReservoir::Snapshot snap = reservoir.snapshot();
  EXPECT_EQ(snap.samples, 1000u);  // total ever recorded
  EXPECT_EQ(snap.p50_ms, 1.0);     // retained window stays bounded
}

TEST(LatencyReservoirTest, ConcurrentRecordersAndSnapshottersAreRaceFree) {
  // Exercised under TSan via the `concurrency` label: stripes must make
  // record/record and record/snapshot safe with no global lock.
  constexpr int kThreads = 8;
  constexpr int kRecords = 2'000;
  LatencyReservoir reservoir(/*capacity=*/256, /*stripes=*/4);
  std::atomic<bool> stop_snapshots{false};
  std::thread snapshotter([&] {
    while (!stop_snapshots.load()) {
      const LatencyReservoir::Snapshot snap = reservoir.snapshot();
      EXPECT_GE(snap.max_ms, 0.0);
    }
  });
  std::vector<std::thread> recorders;
  recorders.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    recorders.emplace_back([&, t] {
      for (int i = 0; i < kRecords; ++i) {
        reservoir.record(static_cast<double>(i % 17) + 0.5,
                         static_cast<std::size_t>(t));
      }
    });
  }
  for (auto& thread : recorders) thread.join();
  stop_snapshots = true;
  snapshotter.join();
  EXPECT_EQ(reservoir.snapshot().samples,
            static_cast<std::size_t>(kThreads) * kRecords);
}

TEST(ShardPoolTest, RoutesDeterministicallyAndRunsEveryJob) {
  ShardPool::Options options;
  options.shards = 4;
  options.threads = 4;
  options.pin_cpus = false;
  ShardPool pool(options);
  ASSERT_EQ(pool.shard_count(), 4u);
  // Same route hash, same shard, every time.
  for (std::uint64_t h : {0ull, 1ull, 7ull, 1'000'003ull}) {
    EXPECT_EQ(pool.shard_of(h), pool.shard_of(h));
    EXPECT_LT(pool.shard_of(h), 4u);
  }
  std::atomic<int> ran{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_EQ(pool.submit(static_cast<std::uint64_t>(i),
                          [&ran] { ran.fetch_add(1); }),
              ShardPool::Submit::kOk);
  }
  pool.drain();
  EXPECT_EQ(ran.load(), 100);
  pool.stop();
  EXPECT_EQ(pool.submit(0, [] {}), ShardPool::Submit::kStopped);
}

TEST(ShardPoolTest, PerShardCapacityRejectsWithFullNotBlocking) {
  ShardPool::Options options;
  options.shards = 1;
  options.threads = 1;
  options.queue_capacity = 1;
  options.pin_cpus = false;
  ShardPool pool(options);

  std::mutex gate;
  gate.lock();  // the single worker blocks on its first job
  ASSERT_EQ(pool.submit(0,
                        [&gate] {
                          gate.lock();
                          gate.unlock();
                        }),
            ShardPool::Submit::kOk);
  // Wait for the worker to pick the blocker up, then fill the queue.
  while (pool.totals().active == 0) std::this_thread::yield();
  ASSERT_EQ(pool.submit(0, [] {}), ShardPool::Submit::kOk);
  // Queue full: immediate kFull, no blocking. submit_admitted bypasses it.
  EXPECT_EQ(pool.submit(0, [] {}), ShardPool::Submit::kFull);
  std::atomic<bool> admitted_ran{false};
  EXPECT_EQ(pool.submit_admitted(0, [&] { admitted_ran = true; }),
            ShardPool::Submit::kOk);

  gate.unlock();
  pool.drain();
  EXPECT_TRUE(admitted_ran.load());
  pool.stop();
}

}  // namespace
}  // namespace sap
