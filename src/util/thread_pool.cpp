#include "src/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

namespace sap {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads - 1);
  for (std::size_t i = 1; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (stopping_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  // Shared with helper tasks, which may still be queued (and then find no
  // index left) after the caller has returned.
  struct Sweep {
    std::atomic<std::size_t> next{0};
    std::mutex mutex;
    std::condition_variable finished;
    std::size_t done = 0;
    std::exception_ptr error;
  };
  const auto sweep = std::make_shared<Sweep>();

  auto drain = [sweep, count, &body] {
    for (;;) {
      const std::size_t i = sweep->next.fetch_add(1);
      if (i >= count) return;
      std::exception_ptr error;
      try {
        body(i);
      } catch (...) {
        error = std::current_exception();
      }
      std::lock_guard lock(sweep->mutex);
      if (error && !sweep->error) sweep->error = error;
      if (++sweep->done == count) sweep->finished.notify_all();
    }
  };

  const std::size_t helpers = std::min(workers_.size(), count - 1);
  {
    std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < helpers; ++i) tasks_.push(drain);
  }
  work_ready_.notify_all();
  drain();  // calling thread participates
  std::unique_lock lock(sweep->mutex);
  sweep->finished.wait(lock, [&] { return sweep->done == count; });
  if (sweep->error) std::rethrow_exception(sweep->error);
}

}  // namespace sap
