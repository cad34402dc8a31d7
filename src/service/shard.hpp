// Sharded solver workers for sapd: N independent bounded admission queues,
// each drained by its own worker threads, with best-effort CPU affinity so
// a shard's workers stay on their cores (cache-warm solver state, no
// cross-socket queue bouncing). The server routes by canonical instance
// digest, so identical instances always land on the same shard — which also
// makes shard-local coalescing effective and keeps one hot instance from
// bouncing between queues.
//
// Admission is per shard and bounded (`queue_capacity` jobs admitted but
// not yet started); submit() returns kFull instead of buffering unboundedly
// — the caller turns that into a typed OVERLOADED rejection. Work that was
// already admitted and must not be dropped (e.g. a coalesced waiter being
// re-dispatched after its owner's computation degraded) uses
// submit_admitted(), which bypasses the capacity check but still respects
// shutdown.
//
// drain() blocks until every queue is empty and every worker idle; jobs
// submitted *during* the drain by running jobs (re-dispatch) extend it.
// stop() then joins the workers. Jobs must not throw.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace sap::service {

class ShardPool {
 public:
  struct Options {
    std::size_t shards = 1;
    /// Worker threads total, divided across shards (each shard gets at
    /// least one). 0 = hardware_concurrency.
    std::size_t threads = 0;
    /// Jobs admitted but not yet started, per shard.
    std::size_t queue_capacity = 64;
    /// Pin each shard's workers to distinct CPUs (Linux; best effort —
    /// failures are ignored). Only applied when shards > 1.
    bool pin_cpus = true;
  };

  enum class Submit { kOk, kFull, kStopped };

  /// A job stays `active` until its closure returns, including after it
  /// has sent its reply; only drain() and stop() promise zero.
  struct ShardGauges {
    std::size_t queue_depth = 0;  ///< admitted, not yet started
    std::size_t active = 0;       ///< started, closure not yet returned
  };

  explicit ShardPool(const Options& options);
  ~ShardPool();  ///< drains and joins

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] std::size_t shard_count() const noexcept {
    return shards_.size();
  }

  /// Shard index a route hash maps to (stable for the pool's lifetime).
  [[nodiscard]] std::size_t shard_of(std::uint64_t route_hash) const noexcept {
    return static_cast<std::size_t>(route_hash % shards_.size());
  }

  /// Enqueues `job` on the shard `route_hash` maps to, subject to that
  /// shard's capacity.
  [[nodiscard]] Submit submit(std::uint64_t route_hash,
                              std::function<void()> job);

  /// Capacity-exempt enqueue for work that was already admitted once and
  /// must run (coalesced-waiter re-dispatch). Still refuses after stop().
  [[nodiscard]] Submit submit_admitted(std::uint64_t route_hash,
                                       std::function<void()> job);

  /// Blocks until all queues are empty and all workers idle.
  void drain();

  /// Runs every queued job, then joins the workers. Idempotent.
  void stop();

  [[nodiscard]] std::vector<ShardGauges> gauges() const;
  [[nodiscard]] ShardGauges totals() const;

 private:
  struct Shard {
    mutable std::mutex mutex;
    std::condition_variable work_ready;
    std::condition_variable idle;
    std::deque<std::function<void()>> queue;
    std::size_t active = 0;
    std::vector<std::thread> workers;
  };

  Submit enqueue(std::uint64_t route_hash, std::function<void()> job,
                 bool enforce_capacity);
  void worker_loop(Shard& shard);

  const std::size_t queue_capacity_;
  std::atomic<bool> stopping_{false};
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace sap::service
