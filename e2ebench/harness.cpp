#include "harness.hpp"

#include <sys/resource.h>

#include <optional>

#include "compress/codec.hpp"
#include "render/raycast.hpp"
#include "render/rasterizer.hpp"
#include "render/render_list.hpp"

namespace e2e {

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

util::Result<net::Message> WatchedChannel::receive_result(double timeout_seconds) {
  {
    std::lock_guard lock(mu_);
    if (!stash_.empty()) {
      net::Message msg = std::move(stash_.front());
      stash_.pop_front();
      if (msg.type == counted_type_) counted_.fetch_add(1);
      return msg;
    }
  }
  auto result = inner_->receive_result(timeout_seconds);
  if (result.ok() && result.value().type == counted_type_) counted_.fetch_add(1);
  return result;
}

bool WatchedChannel::wait_readable(double timeout_seconds) {
  {
    std::lock_guard lock(mu_);
    if (!stash_.empty()) return true;
  }
  auto result = inner_->receive_result(timeout_seconds);
  if (!result.ok()) return false;
  std::lock_guard lock(mu_);
  stash_.push_back(std::move(result).take());
  return true;
}

void WatchFabric::watch_listener(const std::string& name, uint16_t counted_type) {
  std::lock_guard lock(mu_);
  watched_listeners_[name] = counted_type;
}

void WatchFabric::watch_dial(const std::string& access_point, uint16_t counted_type) {
  std::lock_guard lock(mu_);
  watched_dials_[access_point] = counted_type;
}

util::Result<std::string> WatchFabric::listen(const std::string& name, AcceptFn on_accept) {
  std::optional<uint16_t> watched_type;
  {
    std::lock_guard lock(mu_);
    if (auto it = watched_listeners_.find(name); it != watched_listeners_.end())
      watched_type = it->second;
  }
  return tcp_.listen(name, [this, name, watched_type, on_accept](net::ChannelPtr channel) {
    std::shared_ptr<WatchedChannel> watched;
    if (watched_type) {
      watched = std::make_shared<WatchedChannel>(std::move(channel), *watched_type);
      channel = watched;
    }
    on_accept(std::move(channel));
    std::lock_guard lock(mu_);
    if (watched) accepted_[name].push_back(watched);
    ++accept_counts_[name];
    accepted_cv_.notify_all();
  });
}

bool WatchFabric::await_accepts(const std::string& name, size_t count, double timeout_seconds) {
  std::unique_lock lock(mu_);
  return accepted_cv_.wait_for(lock, std::chrono::duration<double>(timeout_seconds),
                               [&] { return accept_counts_[name] >= count; });
}

util::Result<net::ChannelPtr> WatchFabric::dial(const std::string& access_point) {
  auto channel = tcp_.dial(access_point);
  if (!channel.ok()) return channel;
  std::lock_guard lock(mu_);
  auto it = watched_dials_.find(access_point);
  if (it == watched_dials_.end()) return channel;
  auto watched = std::make_shared<WatchedChannel>(std::move(channel).take(), it->second);
  dialed_[access_point] = watched;
  return net::ChannelPtr(watched);
}

std::vector<std::shared_ptr<WatchedChannel>> WatchFabric::accepted(const std::string& name) {
  std::lock_guard lock(mu_);
  return accepted_[name];
}

std::shared_ptr<WatchedChannel> WatchFabric::dialed(const std::string& access_point) {
  std::lock_guard lock(mu_);
  auto it = dialed_.find(access_point);
  return it == dialed_.end() ? nullptr : it->second;
}

render::FrameBuffer reference_render(const scene::SceneTree& tree, const scene::Camera& camera,
                               int width, int height, Layers* layers) {
  Layers off(false);
  Layers& l = layers != nullptr ? *layers : off;
  render::RenderOptions opts;
  opts.region = render::Tile{0, 0, width, height};
  render::Rasterizer raster(width, height);
  raster.clear(opts);
  render::RenderListOptions list_opts;
  list_opts.frustum_cull = opts.frustum_cull;
  const float aspect = static_cast<float>(width) / static_cast<float>(height);
  const render::RenderList list = l.time("render.list_ms", [&] {
    return render::build_render_list(tree, camera, aspect, list_opts);
  });
  l.time("render.raster_ms", [&] { raster.draw_list(list, camera, opts); });
  render::RaycastOptions ray_opts;
  ray_opts.region = opts.region;
  l.time("render.raycast_ms",
         [&] { (void)render::raycast_list(raster.framebuffer(), list, camera, ray_opts); });
  return std::move(raster.framebuffer());
}

render::Image through_codec(const render::Image& image, compress::QualityClass quality,
                            int tile_size) {
  const auto codec = compress::make_codec(compress::codec_for_quality(quality));
  render::Image out(image.width, image.height);
  for (const render::Tile& tile : render::tile_grid(image.width, image.height, tile_size)) {
    auto decoded = codec->decode(codec->encode(image.extract(tile), nullptr), nullptr);
    if (!decoded.ok()) return {};
    out.insert(tile, decoded.value());
  }
  return out;
}

uint64_t Rng::next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double Rng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

}  // namespace e2e
