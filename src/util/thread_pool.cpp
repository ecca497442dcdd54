#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <memory>

namespace rave::util {

ThreadPool::ThreadPool(unsigned num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (unsigned i = 0; i < num_threads; ++i) workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool(std::max(2u, std::thread::hardware_concurrency()) - 1);
  return pool;
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mu_);
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::parallel_for(size_t count, const std::function<void(size_t)>& fn) {
  if (count == 0) return;
  if (count == 1) {
    fn(0);
    return;
  }
  // Shared control block: helper tasks may be scheduled after the caller
  // has already drained every index (and returned), so the state they
  // touch must outlive this stack frame.
  struct Control {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto ctl = std::make_shared<Control>();
  const auto* fn_ptr = &fn;  // only dereferenced for indices < count

  const size_t helpers = std::min(count - 1, static_cast<size_t>(workers_.size()));
  for (size_t h = 0; h < helpers; ++h) {
    submit([ctl, count, fn_ptr] {
      for (;;) {
        const size_t i = ctl->next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) return;
        (*fn_ptr)(i);
        if (ctl->done.fetch_add(1, std::memory_order_acq_rel) + 1 == count) {
          std::lock_guard lock(ctl->mu);
          ctl->cv.notify_all();
        }
      }
    });
  }
  // The caller drains the same chunk queue instead of blocking: a pool
  // worker calling parallel_for still makes progress even when every
  // other worker is busy (or itself blocked in a nested call).
  for (;;) {
    const size_t i = ctl->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= count) break;
    fn(i);
    ctl->done.fetch_add(1, std::memory_order_acq_rel);
  }
  std::unique_lock lock(ctl->mu);
  ctl->cv.wait(lock, [&] { return ctl->done.load(std::memory_order_acquire) == count; });
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_ && queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

}  // namespace rave::util
