#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <thread>

#include "compress/codec.hpp"
#include "core/data_service.hpp"
#include "core/frame_stream.hpp"
#include "core/protocol.hpp"
#include "core/render_service.hpp"
#include "core/thin_client.hpp"
#include "mesh/fields.hpp"
#include "mesh/generators.hpp"
#include "net/buffer.hpp"
#include "net/fanout.hpp"
#include "render/compositor.hpp"
#include "scene/serialize.hpp"
#include "sim/machine.hpp"

namespace e2e {
namespace {

using compress::QualityClass;
using Counters = std::map<std::string, double>;

// One period of ServiceConfig::target_fps (15 fps). The services run on a
// virtual clock that advances by this much per frame, so load reports,
// rebalance rounds and every other clock-driven decision land on the same
// frames in every run. Clients keep a real clock for their timeouts.
constexpr double kFramePeriod = 1.0 / 15.0;
constexpr double kTimeout = 10.0;  // any single wait; a frame that exceeds it fails
constexpr int kTileSize = 64;      // FrameStreamOptions::tile_size default
constexpr int kCheckEvery = 8;     // untraced trials check every 8th frame and the last
const std::string kSession = "bench";

sim::MachineProfile client_profile(QualityClass quality) {
  sim::MachineProfile profile =
      quality == QualityClass::Pda ? sim::zaurus_pda() : sim::xeon_desktop();
  // The profile's modelled 2004 unpack rate would make next_stream_frame
  // sleep 0.16 s per 400x400 frame on a real clock; time the code instead.
  profile.pixel_unpack_rate = 0;
  return profile;
}

// A stream subscriber: a ThinClient straight on the render service, or a
// bare receiver on a relay's downstream side (a ThinClient there would
// forward its own subscribe requests upstream through the relay).
struct Subscriber {
  QualityClass quality = QualityClass::Workstation;
  std::unique_ptr<core::ThinClient> client;
  std::unique_ptr<core::FrameStreamReceiver> relayed;

  [[nodiscard]] const core::FrameStreamReceiver* receiver() const {
    return client ? client->stream_receiver() : relayed.get();
  }
};

// Counts one service pump as the service's own time when it handled
// messages, else as `idle_layer` (empty: not recorded).
size_t pump_as(Layers& layers, const std::string& busy_layer, const std::string& idle_layer,
               const std::function<size_t()>& pump) {
  if (!layers.on()) return pump();
  const double t0 = now_s();
  const size_t handled = pump();
  const std::string& layer = handled > 0 ? busy_layer : idle_layer;
  if (!layer.empty()) layers.add(layer, now_s() - t0);
  return handled;
}

scene::Camera orbit_step(scene::Camera camera, Rng& rng) {
  // Yaw only ever increases and a trial's total stays under a full turn,
  // so no viewpoint repeats; the small pitch wobble keeps rows changing.
  camera.orbit(static_cast<float>(rng.uniform(0.015, 0.03)),
               static_cast<float>(rng.uniform(-0.004, 0.004)));
  return camera;
}

// --- the common trial loop -----------------------------------------------------

class Trial {
 public:
  Trial(const TrialConfig& config, int width, int height)
      : config_(config), layers_(config.traced), width_(width), height_(height) {}
  virtual ~Trial() = default;
  Trial(const Trial&) = delete;
  Trial& operator=(const Trial&) = delete;

  TrialResult run();

 protected:
  // Deploys services and clients through the first keyframe everywhere.
  virtual bool setup(std::string& error) = 0;
  // Frame i from its input up to and including the publish.
  virtual bool drive(int i, std::string& error) = 0;
  // Between frames, inside the loop time but outside the frame.
  virtual bool settle(std::string& /*error*/) { return true; }
  // Per-frame invariants beyond the pixels and sheds.
  virtual bool check_frame(std::string& /*error*/) { return true; }
  // After the last frame.
  virtual bool check_end(std::string& /*error*/) { return true; }
  // The assistant's tile, when frames are composited from one.
  [[nodiscard]] virtual std::optional<render::Tile> assist_tile() const { return std::nullopt; }
  virtual void add_counters(Counters& /*c*/) {}

  // Data service + render service over TCP, session imported, the render
  // service bootstrapped. `before_join` runs between the two listens and
  // the render service's subscribe.
  bool deploy(const scene::SceneTree& scene, std::string& error,
              const std::function<bool(std::string&)>& before_join = {});
  bool pump_until(const std::function<bool()>& done, std::string& error, const char* what);
  // After a dial: waits until `listener` accepted it, so no pump of the
  // accepting service overlaps its accept callback.
  bool await_accept(const std::string& listener, std::string& error);
  bool receive_all(std::string& error);
  bool publish(const scene::Camera& camera, std::string& error);
  // One pump of each main-thread service, as at the start of every frame.
  void pump_services();
  // Frame i's camera; i = -1 is the set-up keyframe.
  [[nodiscard]] const scene::Camera& camera(int i) const { return cams_[static_cast<size_t>(i + 1)]; }
  void add_direct(QualityClass quality);
  bool subscribe_all(size_t expected_subscribers, std::string& error);

  const TrialConfig config_;
  core::DataService::Options data_options_;
  util::SimClock svc_clock_;
  util::RealClock wall_;
  Layers layers_;
  WatchFabric fabric_;
  std::string data_ap_;
  std::unique_ptr<core::DataService> data_;
  std::unique_ptr<core::RenderService> render_;
  std::vector<Subscriber> subscribers_;
  std::vector<render::Image> received_;
  std::vector<scene::Camera> cams_;  // the set-up keyframe's, then one per frame
  const int width_, height_;

 private:
  Counters counters();
  render::Image reference(int i);
  bool matches(const render::Image& reference) const;
  bool no_sheds(std::string& error) const;

  std::vector<uint64_t> prev_hashes_;
  std::map<std::string, size_t> dials_;
};

bool Trial::deploy(const scene::SceneTree& scene, std::string& error,
                   const std::function<bool(std::string&)>& before_join) {
  data_ = std::make_unique<core::DataService>(svc_clock_, data_options_);
  auto created = data_->create_session(kSession, scene);  // the model import
  if (!created.ok()) return error = created.error(), false;
  auto data_ap = fabric_.listen("data", [this](net::ChannelPtr ch) { data_->accept(std::move(ch)); });
  if (!data_ap.ok()) return error = data_ap.error(), false;
  data_ap_ = data_ap.value();
  render_ = std::make_unique<core::RenderService>(svc_clock_, fabric_);
  auto client_ap = render_->listen_clients("render/clients");
  if (!client_ap.ok()) return error = client_ap.error(), false;
  if (before_join && !before_join(error)) return false;
  auto joined = render_->connect_session(data_ap_, kSession);
  if (!joined.ok()) return error = joined.error(), false;
  return await_accept("data", error) &&
         pump_until([&] { return render_->bootstrapped(kSession); }, error, "bootstrap");
}

bool Trial::await_accept(const std::string& listener, std::string& error) {
  if (fabric_.await_accepts(listener, ++dials_[listener], kTimeout)) return true;
  return error = listener + " accept timed out", false;
}

bool Trial::pump_until(const std::function<bool()>& done, std::string& error, const char* what) {
  const double deadline = now_s() + kTimeout;
  while (!done()) {
    if (now_s() > deadline) return error = std::string(what) + " timed out", false;
    pump_as(layers_, "core.render_service.pump_ms", "net.hop_wait_ms",
            [&] { return render_->pump(); });
    pump_as(layers_, "core.data_service.pump_ms", "net.hop_wait_ms", [&] { return data_->pump(); });
  }
  return true;
}

void Trial::add_direct(QualityClass quality) {
  Subscriber s;
  s.quality = quality;
  s.client = std::make_unique<core::ThinClient>(wall_, fabric_, client_profile(quality));
  subscribers_.push_back(std::move(s));
}

// Sends every direct client's stream subscription and waits until the
// publisher holds `expected_subscribers` channels.
bool Trial::subscribe_all(size_t expected_subscribers, std::string& error) {
  for (Subscriber& s : subscribers_) {
    if (!s.client) continue;
    const util::Status sub = s.client->subscribe_stream(s.quality);
    if (!sub.ok()) return error = sub.error(), false;
  }
  return pump_until(
      [&] {
        const core::FrameStreamPublisher* p = render_->stream_publisher(kSession);
        return p != nullptr && p->subscriber_count() == expected_subscribers;
      },
      error, "stream subscribe");
}

bool Trial::publish(const scene::Camera& camera, std::string& error) {
  auto report = layers_.time("core.render_service.publish_ms", [&] {
    return render_->publish_stream_frame(kSession, camera, width_, height_);
  });
  if (!report.ok()) return error = report.error(), false;
  return true;
}

void Trial::pump_services() {
  pump_as(layers_, "core.render_service.pump_ms", "core.render_service.pump_ms",
          [&] { return render_->pump(); });
  pump_as(layers_, "core.data_service.pump_ms", "core.data_service.pump_ms",
          [&] { return data_->pump(); });
}

bool Trial::no_sheds(std::string& error) const {
  for (const auto& q : render_->client_queues())
    if (q.stats.messages_shed > 0) return error = "shed on " + q.peer, false;
  return true;
}

bool Trial::receive_all(std::string& error) {
  received_.clear();
  for (Subscriber& s : subscribers_) {
    auto got = layers_.time("core.stream_receiver.next_frame_ms", [&] {
      return s.client ? s.client->next_stream_frame(kTimeout)
                      : s.relayed->next_frame(wall_, kTimeout);
    });
    if (!got.ok()) return error = got.error(), false;
    received_.push_back(std::move(got).take());
  }
  return true;
}

Counters Trial::counters() {
  Counters c;
  const core::RenderService::Stats& rs = render_->stats();
  c["volume_rays"] = static_cast<double>(rs.volume_rays);
  c["bricks_skipped"] = static_cast<double>(rs.bricks_skipped);
  c["remote_tiles_used"] = static_cast<double>(rs.remote_tiles_used);
  c["stale_tiles_used"] = static_cast<double>(rs.stale_tiles_used);
  c["locally_covered_tiles"] = static_cast<double>(rs.locally_covered_tiles);
  c["updates_applied"] = static_cast<double>(rs.updates_applied);
  if (const core::FrameStreamPublisher* p = render_->stream_publisher(kSession)) {
    c["tiles_ref"] = static_cast<double>(p->stats().tiles_ref);
    c["tiles_data"] = static_cast<double>(p->stats().tiles_data);
    c["memo_hits"] = static_cast<double>(p->memo().stats().hits);
    c["memo_misses"] = static_cast<double>(p->memo().stats().misses);
  }
  for (const Subscriber& s : subscribers_) {
    if (const core::FrameStreamReceiver* r = s.receiver()) {
      c["bytes_received"] += static_cast<double>(r->stats().bytes_received);
      c["miss_requests"] += static_cast<double>(r->stats().miss_requests);
    }
  }
  for (const auto& q : render_->client_queues()) {
    c["queue_wait_s"] += q.stats.queue_wait_seconds;
    c["queue_peak_depth"] = std::max(c["queue_peak_depth"], static_cast<double>(q.stats.queue_peak_depth));
    c["messages_shed"] += static_cast<double>(q.stats.messages_shed);
  }
  c["updates_committed"] = static_cast<double>(data_->stats().updates_committed);
  c["rebalances"] = static_cast<double>(data_->stats().rebalances);
  c["buffer_copies"] = static_cast<double>(net::Buffer::copy_count());
  c["buffer_copied_bytes"] = static_cast<double>(net::Buffer::copied_bytes());
  add_counters(c);
  return c;
}

// Per-frame layer counts from two counter snapshots `frames` frames apart.
Counters derive(Counters a, Counters b, int frames) {
  const double n = std::max(frames, 1);
  const auto d = [&](const char* key) { return b[key] - a[key]; };
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  Counters m;
  m["core.stream.ref_ratio"] = ratio(d("tiles_ref"), d("tiles_ref") + d("tiles_data"));
  m["core.stream.data_tiles_per_frame"] = d("tiles_data") / n;
  m["compress.encode_memo.hit_ratio"] = ratio(d("memo_hits"), d("memo_hits") + d("memo_misses"));
  m["core.stream_receiver.miss_requests_per_frame"] = d("miss_requests") / n;
  m["core.relay_cache.served_ratio"] =
      ratio(d("relay_cache_served"), d("relay_cache_served") + d("relay_cache_forwarded"));
  m["net.relay.forwarded_bytes_per_frame"] = d("relay_forwarded_bytes") / n;
  m["net.buffer.copies_per_frame"] = d("buffer_copies") / n;
  m["net.buffer.copied_bytes_per_frame"] = d("buffer_copied_bytes") / n;
  m["net.queue_wait_ms_per_frame"] = d("queue_wait_s") * 1e3 / n;
  m["net.queue_peak_depth"] = b["queue_peak_depth"];
  m["net.messages_shed"] = d("messages_shed");
  m["render.rays_per_frame"] = d("volume_rays") / n;
  m["render.bricks_skipped_per_frame"] = d("bricks_skipped") / n;
  m["core.assist.remote_tiles_used_per_frame"] = d("remote_tiles_used") / n;
  m["core.assist.stale_tiles_used"] = d("stale_tiles_used");
  m["core.assist.locally_covered_tiles"] = d("locally_covered_tiles");
  m["core.data_service.updates_committed_per_frame"] = d("updates_committed") / n;
  m["scene.updates_applied_per_frame"] = d("updates_applied") / n;
  m["core.data_service.rebalances"] = d("rebalances");
  return m;
}

// The frame as the replica renders it. Traced trials replay every frame
// stage by stage (render.*), hash its tiles and push the tiles that
// changed since the last replay through each subscribed class's codec
// (compress.*); the image doubles as the reference for the check.
render::Image Trial::reference(int i) {
  Layers untimed(false);
  Layers& l = config_.traced ? layers_ : untimed;
  const scene::Camera cam = camera(i);
  render::FrameBuffer fb = reference_render(*render_->replica(kSession), cam, width_, height_, &l);
  if (const auto tile = assist_tile()) {
    const render::FrameBuffer part = fb.extract(*tile);
    l.time("render.composite_ms", [&] { fb.insert(*tile, part); });
  }
  render::Image image = fb.to_image();
  if (!config_.traced) return image;
  const auto grid = render::tile_grid(width_, height_, kTileSize);
  const std::vector<uint64_t> hashes =
      l.time("render.tile_hash_ms", [&] { return render::hash_tiles(image, grid); });
  std::vector<QualityClass> classes;
  for (const Subscriber& s : subscribers_)
    if (std::find(classes.begin(), classes.end(), s.quality) == classes.end())
      classes.push_back(s.quality);
  for (QualityClass q : classes) {
    const auto codec = compress::make_codec(compress::codec_for_quality(q));
    for (size_t t = 0; t < grid.size(); ++t) {
      if (prev_hashes_.size() == hashes.size() && prev_hashes_[t] == hashes[t]) continue;
      const render::Image tile = image.extract(grid[t]);
      const auto encoded = l.time("compress.encode_ms", [&] { return codec->encode(tile, nullptr); });
      l.time("compress.decode_ms", [&] { (void)codec->decode(encoded, nullptr); });
    }
  }
  prev_hashes_ = hashes;
  return image;
}

// Each subscriber's frame equals the reference after its class's codec.
bool Trial::matches(const render::Image& reference) const {
  std::optional<render::Image> pda;
  for (size_t i = 0; i < received_.size(); ++i) {
    if (subscribers_[i].quality == QualityClass::Pda) {
      if (!pda) pda = through_codec(reference, QualityClass::Pda, kTileSize);
      if (received_[i].rgb != pda->rgb) return false;
    } else if (received_[i].rgb != reference.rgb) {
      return false;
    }
  }
  return true;
}

TrialResult Trial::run() {
  TrialResult r;
  std::string error;
  const double s0 = now_s();
  r.setup_ok = setup(error);
  r.setup_s = now_s() - s0;
  if (!r.setup_ok) {
    r.error = "setup: " + error;
    r.attempted = r.failed = config_.frames;
    return r;
  }
  if (config_.frames == 0) return r;  // a deployment alone, timed for setup_s
  if (config_.traced) (void)reference(-1);  // seeds the changed-tile replay
  const Counters c0 = counters();
  (void)layers_.take();  // set-up traffic belongs to no frame

  int driven = 0;
  for (int i = 0; i < config_.frames; ++i) {
    ++driven;
    const double f0 = now_s(), cpu0 = process_cpu_s();
    const bool delivered = drive(i, error) && receive_all(error);
    const double frame_ms = (now_s() - f0) * 1e3;
    if (!delivered) {
      r.error = "frame " + std::to_string(i) + ": " + error;
      break;  // the pipeline state is unknown; the rest of the trial fails
    }
    // Checks and replays run outside the measured time.
    const double p0 = now_s(), pcpu0 = process_cpu_s();
    bool good = no_sheds(error) && check_frame(error);
    if (good && (config_.traced || i % kCheckEvery == 0 || i + 1 == config_.frames)) {
      good = matches(reference(i));
      if (!good) error = "differs from the reference render";
    }
    const double paused = now_s() - p0, paused_cpu = process_cpu_s() - pcpu0;
    if (good) {
      r.frame_ms.push_back(frame_ms);
    } else if (r.error.empty()) {
      r.error = "frame " + std::to_string(i) + ": " + error;
    }
    svc_clock_.advance(kFramePeriod);
    if (!settle(error)) {
      r.error = "after frame " + std::to_string(i) + ": " + error;
      break;
    }
    if (good) {
      r.cycle_s.push_back(now_s() - f0 - paused);
      r.cycle_cpu_s.push_back(process_cpu_s() - cpu0 - paused_cpu);
    }
  }
  r.attempted = config_.frames;
  r.failed = config_.frames - static_cast<int>(r.frame_ms.size());
  if (r.failed == 0 && !check_end(error)) {
    r.error = "end: " + error;
    r.failed = 1;
    r.frame_ms.pop_back();
  }
  const Counters c1 = counters();
  r.wire_bytes = static_cast<uint64_t>(c1.at("bytes_received") - c0.at("bytes_received"));
  r.layer_ms = layers_.take();
  r.counters = derive(c0, c1, driven);
  return r;
}

// --- scenes ----------------------------------------------------------------------

// Scenes are generated once per process (the benchmark's input); each
// trial's model import copies one into the data service.
scene::SceneTree mesh_scene(const char* name, scene::MeshData mesh) {
  scene::SceneTree t;
  t.add_child(scene::kRootNode, name, std::move(mesh));
  return t;
}

const scene::SceneTree& hand_scene(bool tiny) {
  if (tiny) {
    static const scene::SceneTree small = mesh_scene("hand", mesh::make_skeletal_hand(40'000));
    return small;
  }
  static const scene::SceneTree full = mesh_scene("hand", mesh::make_skeletal_hand());
  return full;
}

const scene::SceneTree& elle_scene(bool tiny) {
  if (tiny) {
    static const scene::SceneTree small = mesh_scene("elle", mesh::make_elle(8'000));
    return small;
  }
  static const scene::SceneTree full = mesh_scene("elle", mesh::make_elle());
  return full;
}

scene::SceneTree make_volume_scene(uint32_t voxels, size_t ship_triangles) {
  scene::Aabb bounds;
  bounds.extend({-1.2f, -1.3f, -0.8f});
  bounds.extend({1.2f, 1.3f, 0.8f});
  scene::VoxelGridData volume = mesh::rasterize_field(mesh::body_field(), bounds, voxels, voxels, voxels);
  volume.iso_low = 0.25f;
  volume.opacity_scale = 3.5f;
  volume.color_low = {0.25f, 0.25f, 0.85f};
  volume.color_high = {1.0f, 0.95f, 0.85f};
  scene::SceneTree t;
  t.add_child(scene::kRootNode, "scan", std::move(volume));
  scene::MeshData ship = mesh::make_galleon(ship_triangles);
  const scene::Aabb ship_box = ship.bounds();
  const float scale = 1.6f / std::max(ship_box.extent().length(), 1e-3f);
  t.add_child(scene::kRootNode, "ship", std::move(ship),
              util::Mat4::translate({1.9f, -0.6f, 0.0f}) * util::Mat4::scale({scale, scale, scale}) *
                  util::Mat4::translate(ship_box.center() * -1.0f));
  return t;
}

const scene::SceneTree& volume_scene(bool tiny) {
  if (tiny) {
    static const scene::SceneTree small = make_volume_scene(24, 1'000);
    return small;
  }
  static const scene::SceneTree full = make_volume_scene(64, 5'500);
  return full;
}

std::vector<scene::Camera> orbit_cameras(scene::Camera start, int frames, uint64_t seed) {
  Rng rng(seed);
  std::vector<scene::Camera> cams{start};
  for (int i = 0; i < frames; ++i) cams.push_back(orbit_step(cams.back(), rng));
  return cams;
}

// --- hand_collab -------------------------------------------------------------------
// The paper's hand session: four stream subscribers on one render service,
// each owning an avatar; before every frame one seeded client moves its
// avatar, so each frame carries one update through commit, reflect and
// apply. The camera is fixed, so only the tiles the avatar crosses change.

class HandCollab final : public Trial {
 public:
  explicit HandCollab(const TrialConfig& config) : Trial(config, 400, 400) {
    view_ = scene::Camera::framing(hand_scene(config.tiny).world_bounds());
    cams_.assign(static_cast<size_t>(config.frames) + 1, view_);
    // Each collaborator looks at the hand from a fixed home viewpoint
    // between the camera and the hand, so their avatar cone is in view.
    // Before each frame one collaborator nudges their view off home and
    // back again on their next move, as a user dragging the view does.
    // The seed shuffles who moves when and where to, over a fixed set of
    // moves, so every seed changes about the same number of tiles.
    const std::pair<double, double> homes[] = {{-0.18, -0.1}, {0.18, -0.1}, {-0.18, 0.1}, {0.18, 0.1}};
    const std::pair<double, double> nudges[] = {{0.05, 0}, {-0.05, 0}, {0, 0.04}, {0, -0.04}};
    for (const auto& home : homes) start_poses_.push_back(pose(home));
    Rng rng(config.seed);
    const auto shuffle = [&rng](auto& v) {
      for (size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[rng.next() % i]);
    };
    std::vector<int> order(static_cast<size_t>(config.frames));
    for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i % 4);
    shuffle(order);
    std::vector<std::vector<int>> outward(4);
    for (auto& v : outward) {
      for (int j = 0; j < config.frames; ++j) v.push_back(j % 4);
      shuffle(v);
    }
    std::vector<int> moved(4, 0);
    for (const int who : order) {
      const int n = moved[static_cast<size_t>(who)]++;
      auto [yaw, pitch] = homes[who];
      if (n % 2 == 0) {
        const auto& [dy, dp] = nudges[outward[static_cast<size_t>(who)][static_cast<size_t>(n / 2)]];
        yaw += dy;
        pitch += dp;
      }
      moves_.emplace_back(who, pose({yaw, pitch}));
    }
  }

 private:
  [[nodiscard]] scene::Camera pose(std::pair<double, double> view) const {
    scene::Camera c = view_;
    c.dolly(0.45f * (view_.target - view_.eye).length());
    c.orbit(static_cast<float>(view.first), static_cast<float>(view.second));
    return c;
  }

  bool setup(std::string& error) override {
    if (!deploy(hand_scene(config_.tiny), error)) return false;
    const QualityClass classes[] = {QualityClass::Workstation, QualityClass::Workstation,
                                    QualityClass::Pda, QualityClass::Pda};
    for (int k = 0; k < 4; ++k) {
      add_direct(classes[k]);
      core::ThinClient& client = *subscribers_.back().client;
      const util::Status connected = client.connect(render_->client_access_point(), kSession);
      if (!connected.ok()) return error = connected.error(), false;
      if (!await_accept("render/clients", error)) return false;
      auto avatar = client.create_avatar(
          "user" + std::to_string(k), kTimeout,
          [&] {
            (void)render_->pump();
            (void)data_->pump();
          },
          start_poses_[k]);
      if (!avatar.ok()) return error = avatar.error(), false;
      avatars_.push_back(avatar.value());
    }
    if (!subscribe_all(4, error)) return false;
    return publish(camera(-1), error) && receive_all(error);
  }

  bool drive(int i, std::string& error) override {
    const auto& [who, where] = moves_[static_cast<size_t>(i)];
    const uint64_t committed = data_->committed_updates(kSession) + 1;
    const uint64_t applied = render_->stats().updates_applied + 1;
    const util::Status moved = layers_.time("core.thin_client.move_avatar_ms", [&] {
      return subscribers_[static_cast<size_t>(who)].client->move_avatar(avatars_[static_cast<size_t>(who)], where);
    });
    if (!moved.ok()) return error = moved.error(), false;
    return pump_until([&] { return data_->committed_updates(kSession) >= committed; }, error,
                      "update commit") &&
           pump_until([&] { return render_->stats().updates_applied >= applied; }, error,
                      "update apply") &&
           publish(view_, error);
  }

  // Every replica converged on the data service's tree.
  bool check_end(std::string& error) override {
    if (scene::serialize_tree(*render_->replica(kSession)) !=
        scene::serialize_tree(*data_->session_tree(kSession)))
      return error = "replica tree differs from the data service's", false;
    return true;
  }

  scene::Camera view_;
  std::vector<scene::Camera> start_poses_;
  std::vector<std::pair<int, scene::Camera>> moves_;
  std::vector<scene::NodeId> avatars_;
};

// --- elle_orbit -------------------------------------------------------------------
// Delivery-bound: Elle close up fills a 640x480 view and the camera orbits,
// so every covered tile changes each frame and refs and the encode memo
// are bypassed. Two PDA clients sit on the render service; two Workstation
// receivers sit behind one relay with a relay tile cache, on its own
// thread as if on its own host.

class ElleOrbit final : public Trial {
 public:
  explicit ElleOrbit(const TrialConfig& config) : Trial(config, 640, 480) {
    scene::Camera start = scene::Camera::framing(elle_scene(config.tiny).world_bounds());
    start.dolly(0.8f * (start.target - start.eye).length());
    cams_ = orbit_cameras(start, config.frames, config.seed);
  }

  ~ElleOrbit() override {
    stop_ = true;
    if (relay_thread_.joinable()) relay_thread_.join();
  }
  ElleOrbit(const ElleOrbit&) = delete;
  ElleOrbit& operator=(const ElleOrbit&) = delete;

 private:
  bool setup(std::string& error) override {
    if (!deploy(elle_scene(config_.tiny), error)) return false;
    // The relay host: upstream connection to the render service, its own
    // listener for downstream receivers, pumped on its own thread.
    auto upstream = fabric_.dial(render_->client_access_point());
    if (!upstream.ok()) return error = upstream.error(), false;
    if (!await_accept("render/clients", error)) return false;
    upstream_ = std::make_shared<WatchedChannel>(std::move(upstream).take(), 0);
    relay_ = std::make_unique<net::FanoutRelay>(upstream_);
    relay_->set_host("edge");
    relay_cache_.attach(*relay_);
    auto relay_ap = fabric_.listen("relay", [this](net::ChannelPtr ch) {
      relay_->hub().subscribe(std::move(ch));
    });
    if (!relay_ap.ok()) return error = relay_ap.error(), false;
    relay_thread_ = std::thread([this] {
      while (!stop_) {
        (void)upstream_->wait_readable(0.002);
        std::lock_guard lock(relay_mu_);
        (void)pump_as(layers_, "net.relay.pump_ms", "", [&] { return relay_->pump(); });
      }
    });

    for (int k = 0; k < 2; ++k) {
      auto ch = fabric_.dial(relay_ap.value());
      if (!ch.ok()) return error = ch.error(), false;
      Subscriber s;
      s.quality = QualityClass::Workstation;
      s.relayed = std::make_unique<core::FrameStreamReceiver>(std::move(ch).take(), s.quality);
      subscribers_.push_back(std::move(s));
    }
    if (!fabric_.await_accepts("relay", 2, kTimeout)) return error = "relay accept timed out", false;
    const util::Status sub =
        upstream_->send(core::encode(core::StreamSubscribeMsg{kSession, QualityClass::Workstation}));
    if (!sub.ok()) return error = sub.error(), false;

    for (int k = 0; k < 2; ++k) {
      add_direct(QualityClass::Pda);
      const util::Status connected =
          subscribers_.back().client->connect(render_->client_access_point(), kSession);
      if (!connected.ok()) return error = connected.error(), false;
      if (!await_accept("render/clients", error)) return false;
    }
    if (!subscribe_all(3, error)) return false;
    return publish(camera(-1), error) && receive_all(error);
  }

  bool drive(int i, std::string& error) override {
    pump_services();
    return publish(camera(i), error);
  }

  void add_counters(Counters& c) override {
    std::lock_guard lock(relay_mu_);
    c["relay_forwarded_bytes"] = static_cast<double>(relay_->stats().forwarded_down_bytes);
    c["relay_cache_served"] = static_cast<double>(relay_cache_.stats().served);
    c["relay_cache_forwarded"] = static_cast<double>(relay_cache_.stats().forwarded);
  }

  std::shared_ptr<WatchedChannel> upstream_;
  std::mutex relay_mu_;  // the relay and its cache belong to the relay thread
  std::unique_ptr<net::FanoutRelay> relay_;
  core::RelayTileCache relay_cache_;
  std::atomic<bool> stop_{false};
  std::thread relay_thread_;
};

// --- volume_assist ----------------------------------------------------------------
// The paper's framebuffer distribution (§3.2.5): a mesh plus a voxel grid,
// a main render service in tile mode and one assistant render service on
// its own thread. RenderService composites the latest assistant result it
// holds, so a frame rendered straight after dispatch would show the
// previous camera's tile. Each frame therefore primes with
// render_distributed (dispatching this camera's tile), waits until the
// main service has taken in exactly that fresh result, then publishes —
// and before the next frame drains the result the publish dispatched, so
// one frame is in flight and every frame composites one fresh tile.

class VolumeAssist final : public Trial {
 public:
  explicit VolumeAssist(const TrialConfig& config) : Trial(config, 400, 400) {
    // Automatic rebalancing moves scene nodes between the two services,
    // and a tile-mode service then renders only its new subset into its
    // tile: from the first rebalance round on, frames miss nodes (see
    // NOTES.md, "Defects"). This workload measures framebuffer
    // distribution, so it turns rebalancing off.
    data_options_.auto_rebalance = false;
    cams_ = orbit_cameras(scene::Camera::framing(volume_scene(config.tiny).world_bounds()),
                          config.frames, config.seed);
  }

  ~VolumeAssist() override {
    stop_ = true;
    if (assistant_thread_.joinable()) assistant_thread_.join();
  }
  VolumeAssist(const VolumeAssist&) = delete;
  VolumeAssist& operator=(const VolumeAssist&) = delete;

 private:
  bool setup(std::string& error) override {
    const auto join_assistant = [this](std::string& err) {
      fabric_.watch_listener("assist/peer", core::kMsgTileAssign);
      assistant_ = std::make_unique<core::RenderService>(svc_clock_, fabric_);
      auto peer_ap = assistant_->listen_peer("assist/peer");
      if (!peer_ap.ok()) return err = peer_ap.error(), false;
      auto joined = assistant_->connect_session(data_ap_, kSession);
      if (!joined.ok()) return err = joined.error(), false;
      return await_accept("data", err);
    };
    if (!deploy(volume_scene(config_.tiny), error, join_assistant)) return false;
    const double deadline = now_s() + kTimeout;
    while (!assistant_->bootstrapped(kSession)) {
      if (now_s() > deadline) return error = "assistant bootstrap timed out", false;
      (void)data_->pump();
      (void)assistant_->pump();
    }
    const std::string& peer_ap = assistant_->peer_access_point();
    fabric_.watch_dial(peer_ap, core::kMsgTileResult);
    const util::Status assisted = render_->enable_tile_assist(kSession, {peer_ap});
    if (!assisted.ok()) return error = assisted.error(), false;
    if (!await_accept("assist/peer", error)) return false;
    remote_ = fabric_.dialed(peer_ap);
    if (!remote_) return error = "assistant connection not watched", false;
    // From here on the assistant is pumped only by its own thread.
    assistant_thread_ = std::thread([this, peer = fabric_.accepted("assist/peer").front()] {
      while (!stop_) {
        (void)peer->wait_readable(0.002);
        (void)pump_as(layers_, "core.assist.peer_pump_ms", "", [&] { return assistant_->pump(); });
      }
    });

    add_direct(QualityClass::Workstation);
    const util::Status connected =
        subscribers_.back().client->connect(render_->client_access_point(), kSession);
    if (!connected.ok()) return error = connected.error(), false;
    if (!await_accept("render/clients", error)) return false;
    if (!subscribe_all(1, error)) return false;
    return frame(camera(-1), error) && receive_all(error) && drain(error);
  }

  // Until the main service has received `results` tile results in all.
  bool await_results(uint64_t results, Layers& l, std::string& error) {
    const double deadline = now_s() + kTimeout;
    while (remote_->counted() < results) {
      if (now_s() > deadline) return error = "assistant tile timed out", false;
      l.time("core.assist.wait_ms", [&] { (void)remote_->wait_readable(0.002); });
      pump_as(l, "core.render_service.pump_ms", "core.assist.wait_ms",
              [&] { return render_->pump(); });
    }
    return true;
  }

  // Prime, wait for the fresh tile, publish.
  bool frame(const scene::Camera& cam, std::string& error) {
    auto primed = layers_.time("core.render_service.render_distributed_ms", [&] {
      return render_->render_distributed(kSession, cam, width_, height_);
    });
    if (!primed.ok()) return error = primed.error(), false;
    ++dispatched_;
    if (!await_results(dispatched_, layers_, error) || !publish(cam, error)) return false;
    ++dispatched_;
    return true;
  }

  // The publish's own dispatch, taken in outside the frame.
  bool drain(std::string& error) {
    Layers untimed(false);
    return await_results(dispatched_, untimed, error);
  }

  bool drive(int i, std::string& error) override {
    pump_services();
    return frame(camera(i), error);
  }

  bool settle(std::string& error) override { return drain(error); }

  [[nodiscard]] std::optional<render::Tile> assist_tile() const override {
    return render::split_tiles(width_, height_, 2)[1];
  }

  bool check_frame(std::string& error) override {
    const uint64_t stale = render_->stats().stale_tiles_used;
    if (stale == stale_seen_) return true;
    stale_seen_ = stale;
    return error = "stale assistant tile composited", false;
  }

  std::unique_ptr<core::RenderService> assistant_;  // pumped by assistant_thread_ once it runs
  std::shared_ptr<WatchedChannel> remote_;          // main's connection to the assistant
  uint64_t dispatched_ = 0;
  uint64_t stale_seen_ = 0;
  std::atomic<bool> stop_{false};
  std::thread assistant_thread_;
};

template <typename T>
TrialResult run_one(const TrialConfig& config) {
  T trial(config);
  return trial.run();
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"hand_collab", 60, 4, run_one<HandCollab>},
      {"elle_orbit", 160, 6, run_one<ElleOrbit>},
      {"volume_assist", 30, 24, run_one<VolumeAssist>},
  };
  return all;
}

const std::vector<std::string>& blocking_layers() {
  static const std::vector<std::string> names = {
      "core.thin_client.move_avatar_ms",     "core.data_service.pump_ms",
      "core.render_service.pump_ms",         "net.hop_wait_ms",
      "core.render_service.render_distributed_ms", "core.assist.wait_ms",
      "core.render_service.publish_ms",      "core.stream_receiver.next_frame_ms",
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = [] {
    std::vector<std::pair<std::string, std::string>> m;
    for (const std::string& name : blocking_layers()) m.emplace_back(name, "ms");
    for (const char* name :
         {"net.relay.pump_ms", "core.assist.peer_pump_ms", "render.list_ms", "render.raster_ms",
          "render.raycast_ms", "render.composite_ms", "render.tile_hash_ms", "compress.encode_ms",
          "compress.decode_ms", "unattributed_ms", "traced.frame_ms.mean", "traced.frame_ms.p50",
          "frame_ms.p50", "net.queue_wait_ms_per_frame"})
      m.emplace_back(name, "ms");
    for (const char* name : {"core.stream.ref_ratio", "compress.encode_memo.hit_ratio",
                             "core.relay_cache.served_ratio", "trace_overhead_frac", "failed_frac"})
      m.emplace_back(name, "1");
    for (const char* name : {"net.relay.forwarded_bytes_per_frame", "net.buffer.copied_bytes_per_frame"})
      m.emplace_back(name, "bytes");
    for (const char* name :
         {"core.stream.data_tiles_per_frame", "core.stream_receiver.miss_requests_per_frame",
          "net.buffer.copies_per_frame", "net.queue_peak_depth", "net.messages_shed",
          "render.rays_per_frame", "render.bricks_skipped_per_frame",
          "core.assist.remote_tiles_used_per_frame", "core.assist.stale_tiles_used",
          "core.assist.locally_covered_tiles", "core.data_service.updates_committed_per_frame",
          "scene.updates_applied_per_frame", "core.data_service.rebalances"})
      m.emplace_back(name, "count");
    return m;
  }();
  return metrics;
}

}  // namespace e2e
