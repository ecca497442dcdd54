// Fixed-size worker pool shared by the rendering substrate: the rasterizer
// shades vertex chunks, the ray-caster casts scanline rows, and the
// compositor merges row bands — all bit-deterministic because work items
// never share an output slot. parallel_for fans an index range out to the
// workers *and* to the calling thread: the caller drains the same chunk
// queue, so it is safe to call from a pool worker (nested use makes
// progress even when every other worker is busy or blocked in its own
// parallel_for). All parallelism is explicit (tasks are submitted, futures
// joined) in the message-passing spirit of the substrate.
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace rave::util {

class ThreadPool {
 public:
  explicit ThreadPool(unsigned num_threads = std::thread::hardware_concurrency());
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void submit(std::function<void()> task);

  template <typename F>
  auto submit_future(F&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task = std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    auto future = task->get_future();
    submit([task] { (*task)(); });
    return future;
  }

  // Run fn(i) for i in [0, count) across the pool and the calling thread,
  // returning once every index has completed. Reentrant: may be called
  // from inside a pool task (the caller helps drain its own range rather
  // than parking a worker slot).
  void parallel_for(size_t count, const std::function<void(size_t)>& fn);

  [[nodiscard]] unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  // The process-wide pool every render service uses by default, built on
  // first use with hardware_concurrency() - 1 workers (at least one): the
  // thread calling parallel_for drains the same queue, so a frame runs on
  // every core. One pool per process keeps an in-process grid of services
  // from oversubscribing the host.
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace rave::util
