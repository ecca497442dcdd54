#include "obs/profiler.hpp"

#include <algorithm>
#include <chrono>

namespace rave::obs {

Profiler& Profiler::global() {
  static Profiler* profiler = new Profiler();  // never destroyed
  return *profiler;
}

Profiler::ThreadStack& Profiler::thread_stack() {
  thread_local std::shared_ptr<ThreadStack> stack = [] {
    auto s = std::make_shared<ThreadStack>();
    global().register_thread(s);
    return s;
  }();
  // Unregister on thread exit, before `stack` itself is destroyed (reverse
  // construction order). An in-flight tick() holding a snapshot reference
  // keeps the object alive past unregistration; the global profiler is
  // never destroyed, so this is safe at any shutdown stage.
  thread_local struct Unregistrar {
    ThreadStack* raw = nullptr;
    ~Unregistrar() {
      if (raw != nullptr) global().unregister_thread(raw);
    }
  } unregistrar{stack.get()};
  return *stack;
}

void Profiler::register_thread(const std::shared_ptr<ThreadStack>& stack) {
  std::lock_guard lock(mu_);
  threads_.push_back(stack);
}

void Profiler::unregister_thread(const ThreadStack* stack) {
  std::lock_guard lock(mu_);
  threads_.erase(std::remove_if(threads_.begin(), threads_.end(),
                                [&](const std::shared_ptr<ThreadStack>& s) {
                                  return s.get() == stack;
                                }),
                 threads_.end());
}

bool Profiler::push_frame(const std::string& name) {
  Profiler& p = global();
  if (!p.enabled()) return false;
  ThreadStack& stack = thread_stack();
  std::lock_guard lock(stack.mu);
  stack.frames.push_back(name);
  return true;
}

void Profiler::pop_frame() {
  ThreadStack& stack = thread_stack();
  std::lock_guard lock(stack.mu);
  if (!stack.frames.empty()) stack.frames.pop_back();
}

size_t Profiler::tick() {
  if (!enabled()) return 0;
  // Snapshot the thread list, then sample each stack under its own lock:
  // a sampled thread blocks for the duration of one string join, never for
  // the whole sweep.
  std::vector<std::shared_ptr<ThreadStack>> threads;
  {
    std::lock_guard lock(mu_);
    threads = threads_;
  }
  size_t sampled = 0;
  std::vector<std::string> stacks;
  for (const auto& thread : threads) {
    std::string joined;
    {
      std::lock_guard lock(thread->mu);
      if (thread->frames.empty()) continue;
      for (const std::string& frame : thread->frames) {
        if (!joined.empty()) joined += ';';
        joined += frame;
      }
    }
    stacks.push_back(std::move(joined));
    ++sampled;
  }
  std::lock_guard lock(mu_);
  for (std::string& stack : stacks) {
    ++counts_[std::move(stack)];
    ++total_;
  }
  return sampled;
}

void Profiler::start(double interval_seconds) {
  if (sampling_.exchange(true)) return;
  timer_ = std::thread([this, interval_seconds] {
    while (sampling_.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::duration<double>(interval_seconds));
      tick();
    }
  });
}

void Profiler::stop() {
  if (!sampling_.exchange(false)) return;
  if (timer_.joinable()) timer_.join();
}

void Profiler::reset() {
  std::lock_guard lock(mu_);
  counts_.clear();
  total_ = 0;
}

uint64_t Profiler::total_samples() const {
  std::lock_guard lock(mu_);
  return total_;
}

std::string Profiler::collapsed() const {
  std::lock_guard lock(mu_);
  std::string out;
  for (const auto& [stack, count] : counts_) {
    out += stack;
    out += ' ';
    out += std::to_string(count);
    out += '\n';
  }
  return out;
}

std::vector<Profiler::Hot> Profiler::hottest(size_t n) const {
  std::map<std::string, uint64_t> leaves;
  {
    std::lock_guard lock(mu_);
    for (const auto& [stack, count] : counts_) {
      const size_t sep = stack.rfind(';');
      leaves[sep == std::string::npos ? stack : stack.substr(sep + 1)] += count;
    }
  }
  std::vector<Hot> hot;
  for (const auto& [frame, samples] : leaves) hot.push_back({frame, samples});
  std::stable_sort(hot.begin(), hot.end(), [](const Hot& a, const Hot& b) {
    if (a.samples != b.samples) return a.samples > b.samples;
    return a.frame < b.frame;
  });
  if (hot.size() > n) hot.resize(n);
  return hot;
}

}  // namespace rave::obs
