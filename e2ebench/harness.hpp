// Shared pieces of the end-to-end frame benchmark: the trial record every
// workload fills, the per-layer stopwatch, the fabric decorator that lets
// the main thread wait on one connection without consuming its traffic, and
// the reference renders the correctness checks compare against.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <type_traits>
#include <vector>

#include "compress/tile_cache.hpp"
#include "core/fabric.hpp"
#include "render/framebuffer.hpp"
#include "scene/camera.hpp"
#include "scene/tree.hpp"

namespace e2e {

using namespace rave;

// Monotonic seconds.
inline double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Process user+system CPU seconds (all threads).
double process_cpu_s();
// Peak resident set of the process, MB.
double peak_rss_mb();

// What one trial (fresh set-up, then the workload's fixed frame sequence)
// measured. Counters are deltas over the measured frames only.
struct TrialResult {
  bool setup_ok = false;
  std::string error;     // first failure, for the log
  double setup_s = 0;
  int attempted = 0;     // frames attempted
  int failed = 0;        // timeouts, sheds, integrity or reference mismatches
  std::vector<double> frame_ms;  // delivered frames only
  // Per delivered frame, from its input to the next frame's input, checks
  // excluded: wall seconds, and process CPU seconds.
  std::vector<double> cycle_s, cycle_cpu_s;
  uint64_t wire_bytes = 0;
  // Traced trials only: summed layer times (ms) and per-trial counters.
  std::map<std::string, double> layer_ms;
  std::map<std::string, double> counters;
};

// Per-layer stopwatch. Off in untraced trials, where time() just calls
// through; on, it sums the wall time of each call under the layer's name.
class Layers {
 public:
  explicit Layers(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }

  template <typename F>
  auto time(const std::string& name, F&& f) {
    if (!on_) return f();
    const double t0 = now_s();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      add(name, now_s() - t0);
    } else {
      auto result = f();
      add(name, now_s() - t0);
      return result;
    }
  }

  void add(const std::string& name, double seconds) {
    std::lock_guard lock(mu_);
    ms_[name] += seconds * 1e3;
  }
  std::map<std::string, double> take() {
    std::lock_guard lock(mu_);
    return std::move(ms_);
  }

 private:
  bool on_;
  std::mutex mu_;  // the relay and assistant threads add their own layers
  std::map<std::string, double> ms_;
};

// Channel decorator: wait_readable() blocks until a message is available
// without handing it to anyone, so a thread can sleep until the service it
// drives has work; the service's next receive gets the stashed message.
// Also counts received messages of one type.
class WatchedChannel final : public net::Channel {
 public:
  WatchedChannel(net::ChannelPtr inner, uint16_t counted_type)
      : inner_(std::move(inner)), counted_type_(counted_type) {}

  util::Status send(net::Message message) override { return inner_->send(std::move(message)); }
  util::Result<net::Message> receive_result(double timeout_seconds) override;
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  [[nodiscard]] net::ChannelStats stats() const override { return inner_->stats(); }

  bool wait_readable(double timeout_seconds);
  [[nodiscard]] uint64_t counted() const { return counted_.load(); }

 private:
  net::ChannelPtr inner_;
  uint16_t counted_type_;
  std::mutex mu_;
  std::deque<net::Message> stash_;
  std::atomic<uint64_t> counted_{0};
};

// TcpFabric that counts completed accepts per listener, and whose chosen
// listeners and dials hand out WatchedChannels.
//
// The services' accept callbacks run on the reactor thread and append to
// vectors that pump() iterates without a lock (NOTES.md, "Defects"), so
// set-up waits with await_accepts() until a connection is accepted before
// it pumps the accepting service again. That works around the race: the
// benchmark no longer crashes on it, and no result of it shows the race.
class WatchFabric final : public core::Fabric {
 public:
  void watch_listener(const std::string& name, uint16_t counted_type);
  void watch_dial(const std::string& access_point, uint16_t counted_type);

  util::Result<std::string> listen(const std::string& name, AcceptFn on_accept) override;
  void unlisten(const std::string& name) override { tcp_.unlisten(name); }
  util::Result<net::ChannelPtr> dial(const std::string& access_point) override;

  // Until `count` connections have been accepted on `name` in all.
  bool await_accepts(const std::string& name, size_t count, double timeout_seconds);

  // Watched channels accepted on `name` / dialed to `access_point` so far.
  std::vector<std::shared_ptr<WatchedChannel>> accepted(const std::string& name);
  std::shared_ptr<WatchedChannel> dialed(const std::string& access_point);

 private:
  core::TcpFabric tcp_;
  std::mutex mu_;
  std::condition_variable accepted_cv_;
  std::map<std::string, size_t> accept_counts_;
  std::map<std::string, uint16_t> watched_listeners_;
  std::map<std::string, uint16_t> watched_dials_;
  std::map<std::string, std::vector<std::shared_ptr<WatchedChannel>>> accepted_;
  std::map<std::string, std::shared_ptr<WatchedChannel>> dialed_;
};

// Reference render of `tree` for `camera`, the way RenderService renders a
// whole frame locally: one culled render list, raster, then raycast.
// With `layers` on, each stage is timed under its render.* name.
render::FrameBuffer reference_render(const scene::SceneTree& tree, const scene::Camera& camera,
                               int width, int height, Layers* layers = nullptr);

// `image` as a subscriber of `quality` assembles it: every stream tile
// encoded and decoded by the class's codec.
render::Image through_codec(const render::Image& image, compress::QualityClass quality,
                            int tile_size);

// Seeded generator shared by the workloads (splitmix64).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t next();
  // Uniform in [lo, hi).
  double uniform(double lo, double hi);

 private:
  uint64_t state_;
};

}  // namespace e2e
