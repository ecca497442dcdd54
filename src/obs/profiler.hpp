// Sampling profiler over the span annotations. Every ScopedSpan entry and
// exit maintains a per-thread annotation stack (shade → bin → raster …)
// whether or not tracing is recording; the profiler samples those stacks —
// one sample per running thread per tick() — and aggregates them by
// collapsed stack ("frame;raster;shade"), the format flame-graph tooling
// consumes directly.
//
// Determinism: tick() is a pure function of the stacks at the instant it
// runs. Production attaches a timer thread (start/stop); tests under
// SimClock call tick() at chosen virtual instants, so identical runs
// produce identical collapsed output. Disabled (the default), the only
// cost per span is one relaxed atomic load — inside the same <2%
// BM_ObsOverhead budget as tracing. Enable with
// Profiler::global().set_enabled(true) and sample with start().
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace rave::obs {

class Profiler {
 public:
  static Profiler& global();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Take one sample of every registered thread whose annotation stack is
  // non-empty. Deterministic given the stacks; tests drive this directly.
  // Returns the number of stacks sampled.
  size_t tick();

  // Production sampling: a timer thread calling tick() every
  // `interval_seconds` of wall time until stop(). Idempotent.
  void start(double interval_seconds = 0.01);
  void stop();

  // Drop all accumulated samples (not the enabled state).
  void reset();

  [[nodiscard]] uint64_t total_samples() const;

  // Collapsed-stack flame-graph export: one "a;b;c <count>" line per
  // distinct stack, sorted by stack string — pipe into flamegraph.pl.
  [[nodiscard]] std::string collapsed() const;

  // Hottest leaf frames (samples aggregated by innermost annotation),
  // descending; ties break alphabetically. The rave_top one-liner.
  struct Hot {
    std::string frame;
    uint64_t samples = 0;
  };
  [[nodiscard]] std::vector<Hot> hottest(size_t n) const;

  // --- span-site hooks (ScopedSpan ctor/dtor) -------------------------------
  // Push returns whether a frame was actually pushed, so the matching pop
  // runs even if the profiler is disabled mid-span.
  static bool push_frame(const std::string& name);
  static void pop_frame();

 private:
  struct ThreadStack {
    std::mutex mu;
    std::vector<std::string> frames;
  };

  static ThreadStack& thread_stack();

  std::atomic<bool> enabled_{false};
  std::atomic<bool> sampling_{false};
  std::thread timer_;

  mutable std::mutex mu_;  // guards threads_ and counts_
  std::vector<std::shared_ptr<ThreadStack>> threads_;
  std::map<std::string, uint64_t> counts_;  // collapsed stack -> samples
  uint64_t total_ = 0;

  void register_thread(const std::shared_ptr<ThreadStack>& stack);
  void unregister_thread(const ThreadStack* stack);
};

}  // namespace rave::obs
