#include "core/render_service.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/frustum.hpp"
#include "render/render_list.hpp"
#include "scene/serialize.hpp"
#include "util/log.hpp"

namespace rave::core {

using scene::Camera;
using scene::NodeId;
using scene::SceneUpdate;
using util::make_error;
using util::Result;
using util::Status;

RenderService::RenderService(util::Clock& clock, Fabric& fabric, Options options)
    : clock_(&clock), fabric_(&fabric), options_(std::move(options)) {}

Result<std::string> RenderService::listen_clients(const std::string& name) {
  auto access = fabric_->listen(
      name, [this](net::ChannelPtr channel) { client_inbox_.push(std::move(channel)); });
  if (!access.ok()) return access;
  client_access_point_ = access.value();
  return access;
}

Result<std::string> RenderService::listen_peer(const std::string& name) {
  if (options_.active_client_only)
    return make_error("render: active render clients do not expose peer endpoints");
  auto access = fabric_->listen(
      name, [this](net::ChannelPtr channel) { peer_inbox_.push(std::move(channel)); });
  if (!access.ok()) return access;
  peer_access_point_ = access.value();
  return access;
}

Result<uint64_t> RenderService::connect_session(const std::string& data_access_point,
                                                const std::string& session) {
  if (replicas_.count(session) != 0) return make_error("render: already joined " + session);
  auto channel = fabric_->dial_retry(data_access_point, options_.retry, *clock_);
  if (!channel.ok()) return make_error(channel.error());

  SubscribeRequest request;
  request.session = session;
  request.kind =
      options_.active_client_only ? SubscriberKind::ActiveClient : SubscriberKind::RenderService;
  request.host = options_.profile.name;
  request.access_point = peer_access_point_;
  request.capacity = capacity();
  const Status sent = channel.value()->send(encode(request));
  if (!sent.ok()) return make_error(sent.error());

  Replica replica;
  replica.name = session;
  replica.data_channel = std::move(channel).take();
  replica.tracker = LoadTracker(options_.thresholds);
  replicas_.emplace(session, std::move(replica));
  return uint64_t{0};  // subscriber id arrives with the ack on the next pump
}

std::vector<std::string> RenderService::session_names() const {
  std::vector<std::string> names;
  for (const auto& [name, replica] : replicas_) names.push_back(name);
  return names;
}

const scene::SceneTree* RenderService::replica(const std::string& session) const {
  const Replica* r = find_replica(session);
  return r == nullptr || !r->ready ? nullptr : &r->tree;
}

bool RenderService::bootstrapped(const std::string& session) const {
  const Replica* r = find_replica(session);
  return r != nullptr && r->ready;
}

size_t RenderService::pump() {
  // Spans recorded while this service drives the rasterizer/codec carry
  // its host label.
  obs::Tracer::set_current_host(options_.profile.name);
  for (net::ChannelPtr& channel : client_inbox_.take())
    clients_.push_back(std::make_unique<Client>(std::move(channel)));
  for (net::ChannelPtr& channel : peer_inbox_.take()) peer_channels_.push_back(std::move(channel));
  size_t handled = 0;
  for (auto& [name, replica] : replicas_) handled += pump_replica(replica);
  handled += pump_clients();
  handled += pump_peers();
  flush_delayed();
  if (delayed_gauge_ == nullptr)
    delayed_gauge_ = &obs::MetricsRegistry::global().gauge(
        "rave_render_delayed_sends", {{"host", options_.profile.name}});
  delayed_gauge_->set(static_cast<double>(delayed_.size()));
  return handled;
}

void RenderService::apply_update(Replica& replica, const SceneUpdate& update) {
  const Status applied = update.apply(replica.tree);
  if (!applied.ok()) {
    // Subset holders legitimately receive updates for ancestors they hold
    // but payloads they don't; only genuinely unknown nodes are ignored.
    util::log_debug("render") << "update skipped: " << applied.error();
    return;
  }
  ++stats_.updates_applied;
  ++replica.generation;
  // Avatar acknowledgements for thin clients waiting on an AddNode echo.
  if (update.kind == scene::UpdateKind::AddNode &&
      std::holds_alternative<scene::AvatarData>(update.new_node.payload)) {
    for (auto& client : clients_) {
      auto it = std::find(client->pending_avatars.begin(), client->pending_avatars.end(),
                          update.new_node.name);
      if (it != client->pending_avatars.end()) {
        (void)client->channel->send(encode(AvatarAckMsg{update.new_node.name, update.node}));
        client->pending_avatars.erase(it);
      }
    }
  }
}

size_t RenderService::pump_replica(Replica& replica) {
  size_t handled = 0;
  for (;;) {
    auto msg = replica.data_channel->try_receive();
    if (!msg.has_value()) break;
    ++handled;
    switch (msg->type) {
      case kMsgSubscribeAck: {
        auto ack = decode_subscribe_ack(*msg);
        if (ack.ok()) replica.subscriber_id = ack.value().client_id;
        break;
      }
      case kMsgSnapshot: {
        auto snapshot = decode_snapshot(*msg);
        if (!snapshot.ok()) break;
        auto tree = scene::deserialize_tree(snapshot.value().tree_bytes);
        if (!tree.ok()) {
          obs::log_event(util::LogLevel::Error, "render", "bad_snapshot", tree.error());
          break;
        }
        if (snapshot.value().merge && replica.ready) {
          // Merge nodes into the existing replica (migration delta).
          scene::SceneTree incoming = std::move(tree).take();
          for (NodeId id : incoming.ids_depth_first()) {
            if (id == scene::kRootNode) continue;
            const scene::SceneNode* node = incoming.find(id);
            if (replica.tree.contains(id)) {
              (void)replica.tree.set_payload(id, node->payload);
              (void)replica.tree.set_transform(id, node->transform);
            } else if (replica.tree.contains(node->parent)) {
              scene::SceneNode copy = *node;
              copy.children.clear();
              (void)replica.tree.add_node(node->parent, std::move(copy));
            }
          }
        } else {
          replica.tree = std::move(tree).take();
        }
        replica.ready = true;
        ++replica.generation;
        break;
      }
      case kMsgUpdate: {
        auto update = decode_update(*msg);
        if (update.ok()) apply_update(replica, update.value().update);
        break;
      }
      case kMsgInterestSet: {
        auto interest = decode_interest_set(*msg);
        if (!interest.ok()) break;
        replica.whole_tree = interest.value().whole_tree;
        replica.interest = interest.value().nodes;
        ++replica.generation;
        break;
      }
      case kMsgAssistGrant: {
        auto grant = decode_assist_grant(*msg);
        if (!grant.ok()) break;
        (void)setup_remotes(replica, grant.value().access_points, /*tile_mode=*/true);
        break;
      }
      case kMsgRefusal: {
        auto refusal = decode_refusal(*msg);
        if (refusal.ok())
          obs::log_event(util::LogLevel::Warn, "render", "data_refused", refusal.value().reason);
        break;
      }
      default:
        break;
    }
  }
  return handled;
}

size_t RenderService::pump_clients() {
  size_t handled = 0;
  // Bind a client to a session and ack, or refuse; nullptr when refused.
  const auto join = [this](Client& client, const std::string& session) -> Replica* {
    Replica* replica = find_replica(session);
    if (replica == nullptr) {
      (void)client.channel->send(encode(RefusalMsg{"render service has no session " + session}));
      return nullptr;
    }
    client.session = session;
    (void)client.channel->send(encode(SubscribeAck{replica->subscriber_id, session, 0}));
    return replica;
  };
  for (auto& client : clients_) {
    for (;;) {
      auto msg = client->channel->try_receive();
      if (!msg.has_value()) break;
      ++handled;
      switch (msg->type) {
        case kMsgSubscribe: {
          auto request = decode_subscribe(*msg);
          if (request.ok()) (void)join(*client, request.value().session);
          break;
        }
        case kMsgFrameRequest: {
          auto request = decode_frame_request(*msg);
          if (request.ok()) serve_frame(*client, request.value(), trace_of(*msg));
          break;
        }
        case kMsgStreamSubscribe: {
          auto request = decode_stream_subscribe(*msg);
          if (!request.ok()) break;
          if (Replica* replica = join(*client, request.value().session)) {
            publisher(*replica).subscribe(client->channel, request.value().quality);
            client->pulled.reset();
          }
          break;
        }
        case kMsgTileMiss: {
          // The receiver's tile store lacked a referenced hash — answer
          // with the full tile from what this client last got (its last
          // pull, else the stream) so the assembled frame stays
          // byte-identical to full delivery.
          auto miss = decode_tile_miss(*msg);
          if (!miss.ok()) break;
          Replica* replica = find_replica(client->session);
          if (replica == nullptr || !replica->stream) break;
          if (auto reply = replica->stream->make_miss_reply(miss.value(), client->pulled))
            (void)client->channel->send(*std::move(reply));
          break;
        }
        case kMsgClientUpdate: {
          auto update = decode_client_update(*msg);
          if (!update.ok()) break;
          Replica* replica = find_replica(client->session);
          if (replica == nullptr) break;
          // Track avatar additions so the allocated id can be acked back.
          if (update.value().update.kind == scene::UpdateKind::AddNode &&
              std::holds_alternative<scene::AvatarData>(update.value().update.new_node.payload))
            client->pending_avatars.push_back(update.value().update.new_node.name);
          (void)replica->data_channel->send(
              encode(UpdateMsg{client->session, update.value().update}));
          break;
        }
        default:
          break;
      }
    }
  }
  clients_.erase(std::remove_if(clients_.begin(), clients_.end(),
                                [](const std::unique_ptr<Client>& c) {
                                  return !c->channel->is_open();
                                }),
                 clients_.end());
  return handled;
}

size_t RenderService::pump_peers() {
  size_t handled = 0;
  // Requests from peers: render our replica for their camera/tile.
  for (auto& channel : peer_channels_) {
    for (;;) {
      auto msg = channel->try_receive();
      if (!msg.has_value()) break;
      ++handled;
      if (msg->type != kMsgTileAssign) continue;
      auto assign = decode_tile_assign(*msg);
      if (!assign.ok()) continue;
      Replica* replica = find_replica(assign.value().session);
      if (replica == nullptr || !replica->ready) continue;
      // Adopt the requester's context so this host's raster spans land in
      // the same frame timeline.
      obs::ScopedSpan span("peer_tile", options_.profile.name, trace_of(*msg));
      render::FrameBuffer full = render_local(*replica, assign.value().camera,
                                              assign.value().frame_width,
                                              assign.value().frame_height, assign.value().tile);
      ++stats_.peer_tiles_rendered;
      TileResultMsg result;
      result.tile = assign.value().tile;
      result.generation = assign.value().generation;
      result.framebuffer = full.extract(assign.value().tile).serialize();
      net::Message wire = encode(result);
      stamp_trace(wire);
      if (assist_stall_seconds_ > 0) {
        delayed_.push_back({channel, std::move(wire), clock_->now() + assist_stall_seconds_});
      } else {
        (void)channel->send(std::move(wire));
      }
    }
  }
  // Results from peers we recruited: hold the latest one that answers a
  // recorded dispatch.
  for (auto& [name, replica] : replicas_) {
    for (RemoteTile& remote : replica.remotes) {
      if (!remote.channel) continue;
      for (;;) {
        auto msg = remote.channel->try_receive();
        if (!msg.has_value()) break;
        ++handled;
        take_result(remote, *msg);
      }
    }
    prune_dead_remotes(replica);
  }
  peer_channels_.erase(std::remove_if(peer_channels_.begin(), peer_channels_.end(),
                                      [](const net::ChannelPtr& c) { return !c->is_open(); }),
                       peer_channels_.end());
  return handled;
}

void RenderService::flush_delayed() {
  while (!delayed_.empty() && delayed_.front().ready_at <= clock_->now()) {
    (void)delayed_.front().channel->send(std::move(delayed_.front().message));
    delayed_.pop_front();
  }
}

render::FrameBuffer RenderService::render_local(Replica& replica, const Camera& camera,
                                                int width, int height,
                                                const render::Tile& region) {
  render::RenderOptions opts;
  opts.region = region;
  opts.pool = options_.pool;
  render::Rasterizer raster(width, height);
  // One frustum-culling pass in front of both backends: walk the replica
  // once, test node world bounds, and hand each backend its pre-culled
  // list. Subset holders keep their interest roots for raster geometry
  // (ancestors in the replica carry transforms but no payloads); volumes
  // composite from the whole replica either way, since their blend order
  // is view-dependent, not ownership-dependent.
  render::RenderListOptions list_opts;
  list_opts.frustum_cull = opts.frustum_cull;
  if (!replica.whole_tree) list_opts.roots = replica.interest;
  const float aspect = static_cast<float>(width) / static_cast<float>(height);
  const render::RenderList list =
      render::build_render_list(replica.tree, camera, aspect, list_opts);
  // Raster items through the replica's layer cache: a fixed view with a
  // changed suffix (a moved avatar) restores the prefix's planes and draws
  // only the suffix; the stats still count the full list.
  const bool hit = replica.layers.draw(raster, list, camera, opts);
  if (layer_hits_ == nullptr) {
    auto& reg = obs::MetricsRegistry::global();
    layer_hits_ = &reg.counter("rave_render_layer_total",
                               {{"host", options_.profile.name}, {"outcome", "hit"}});
    layer_misses_ = &reg.counter("rave_render_layer_total",
                                 {{"host", options_.profile.name}, {"outcome", "miss"}});
  }
  if (hit) {
    ++stats_.layer_hits;
    layer_hits_->inc();
  } else {
    ++stats_.layer_misses;
    layer_misses_->inc();
  }

  render::RaycastOptions ray_opts;
  ray_opts.region = region;
  ray_opts.pool = options_.pool;
  std::vector<render::RenderStats> per_volume;
  const render::RenderStats vstats =
      render::raycast_list(raster.framebuffer(), list, camera, ray_opts, &per_volume);
  std::vector<std::pair<scene::NodeId, uint64_t>> node_rays;
  node_rays.reserve(per_volume.size());
  for (size_t i = 0; i < per_volume.size(); ++i)
    node_rays.emplace_back(list.volumes[i].node, per_volume[i].rays_cast);

  const uint64_t tris = raster.stats().triangles_submitted;
  const uint64_t pixels = region.width > 0
                              ? region.pixel_count()
                              : static_cast<uint64_t>(width) * static_cast<uint64_t>(height);
  account_frame(replica, tris, pixels, vstats, std::move(node_rays));
  return std::move(raster.framebuffer());
}

void RenderService::account_frame(Replica& replica, uint64_t triangles, uint64_t pixels,
                                  const render::RenderStats& volume,
                                  std::vector<std::pair<scene::NodeId, uint64_t>> node_rays) {
  const double volume_seconds =
      sim::volume_march_seconds(options_.profile, volume.rays_cast, volume.volume_samples);
  // The modelled cost on the service's 2004 machine profile (the software
  // rasterizer is not that hardware); simulated timing also spends it.
  const double frame_seconds =
      sim::offscreen_sequential_seconds(options_.profile, triangles, pixels) + volume_seconds;
  if (options_.simulate_timing) clock_->sleep_for(frame_seconds);
  last_frame_seconds_ = frame_seconds;
  ++stats_.frames_rendered;
  stats_.volume_rays += volume.rays_cast;
  stats_.bricks_skipped += volume.bricks_skipped;
  if (frame_latency_ == nullptr)
    frame_latency_ = &obs::MetricsRegistry::global().histogram(
        "rave_frame_seconds", {{"host", options_.profile.name}});
  frame_latency_->observe(frame_seconds);
  if (volume.rays_cast > 0) {
    if (volume_latency_ == nullptr)
      volume_latency_ = &obs::MetricsRegistry::global().histogram(
          "rave_volume_seconds", {{"host", options_.profile.name}});
    volume_latency_->observe(volume_seconds);
  }
  replica.tracker.record_frame(frame_seconds, clock_->now());
  if (clock_->now() - replica.last_report >= options_.load_report_interval) {
    replica.last_report = clock_->now();
    LoadReportMsg report;
    report.session = replica.name;
    report.fps = replica.tracker.fps();
    report.frame_seconds = frame_seconds;
    report.assigned_triangles = triangles;
    report.volume_rays = volume.rays_cast;
    report.volume_seconds = volume_seconds;
    report.node_rays = std::move(node_rays);
    (void)replica.data_channel->send(encode(report));
  }
}

Result<render::FrameBuffer> RenderService::render_console(const std::string& session,
                                                          const Camera& camera, int width,
                                                          int height) {
  Replica* replica = find_replica(session);
  if (replica == nullptr || !replica->ready)
    return make_error("render: session not bootstrapped: " + session);
  return render_local(*replica, camera, width, height, render::Tile{0, 0, width, height});
}

namespace {

// Bit-for-bit equality: -0 and +0 are different camera inputs.
template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace

bool RenderService::same_view(const TileView& a, const TileView& b) {
  return same_bits(a.camera.eye, b.camera.eye) && same_bits(a.camera.target, b.camera.target) &&
         same_bits(a.camera.up, b.camera.up) && same_bits(a.camera.fov_y_deg, b.camera.fov_y_deg) &&
         same_bits(a.camera.znear, b.camera.znear) && same_bits(a.camera.zfar, b.camera.zfar) &&
         a.width == b.width && a.height == b.height && a.tile == b.tile &&
         a.generation == b.generation;
}

void RenderService::dispatch(Replica& replica, RemoteTile& remote, const TileView& view) {
  if (!remote.channel || remote.in_flight.size() >= kMaxInFlight) return;
  TileAssignMsg assign;
  assign.session = replica.name;
  assign.camera = view.camera;
  assign.frame_width = view.width;
  assign.frame_height = view.height;
  assign.tile = view.tile;
  assign.generation = ++replica.dispatch_sequence;
  net::Message wire = encode(assign);
  stamp_trace(wire);
  const Status sent = remote.channel->send(std::move(wire));
  if (!sent.ok()) {
    obs::log_event(util::LogLevel::Warn, "render", "tile_dispatch_failed",
                   remote.access_point + ": " + sent.error());
    return;  // pruned on the next frame; local render covers the tile
  }
  remote.in_flight.push_back({assign.generation, view, clock_->now()});
}

void RenderService::take_result(RemoteTile& remote, const net::Message& msg) {
  if (msg.type != kMsgTileResult) return;
  auto result = decode_tile_result(msg);
  if (!result.ok()) return;
  const auto answered =
      std::find_if(remote.in_flight.begin(), remote.in_flight.end(),
                   [&](const Dispatch& d) { return d.sequence == result.value().generation; });
  if (answered == remote.in_flight.end() || !(answered->view.tile == result.value().tile))
    return;
  auto buffer = render::FrameBuffer::deserialize(result.value().framebuffer);
  if (!buffer.ok() || buffer.value().width() != answered->view.tile.width ||
      buffer.value().height() != answered->view.tile.height)
    return;
  remote.held = true;
  remote.held_view = answered->view;
  remote.buffer = std::move(buffer).take();
  // One channel keeps order: earlier dispatches will not be answered.
  remote.in_flight.erase(remote.in_flight.begin(), answered + 1);
}

bool RenderService::await_view(RemoteTile& remote, const TileView& view,
                               std::chrono::steady_clock::time_point deadline) {
  const auto fresh = [&] { return remote.held && same_view(remote.held_view, view); };
  const auto dispatched = [&] {
    return std::any_of(remote.in_flight.begin(), remote.in_flight.end(),
                       [&](const Dispatch& d) { return same_view(d.view, view); });
  };
  while (!fresh() && dispatched()) {
    const double left =
        std::chrono::duration<double>(deadline - std::chrono::steady_clock::now()).count();
    if (left <= 0) break;
    auto msg = remote.channel->receive_result(left);
    if (!msg.ok()) break;
    take_result(remote, msg.value());
  }
  return fresh();
}

Result<render::FrameBuffer> RenderService::render_distributed(const std::string& session,
                                                              const Camera& camera, int width,
                                                              int height) {
  Replica* replica = find_replica(session);
  if (replica == nullptr || !replica->ready)
    return make_error("render: session not bootstrapped: " + session);

  // Failure detection before dispatch: drop assistants whose channel died
  // or whose oldest dispatch timed out. The tile split below is recomputed
  // over the survivors, so a dead assistant's tile is implicitly
  // re-dispatched (or rendered locally when nobody is left) — the frame
  // always completes, at degraded rate (§3.2.7 graceful degradation).
  prune_dead_remotes(*replica);

  const render::Tile full{0, 0, width, height};
  if (replica->remotes.empty() || width <= 0 || height <= 0)
    return render_local(*replica, camera, width, height, full);

  // One view per remote, dispatched for this camera and generation.
  const std::vector<render::Tile> tiles =
      replica->tile_mode
          ? render::split_tiles(width, height, static_cast<int>(replica->remotes.size()) + 1)
          : std::vector<render::Tile>{full};
  std::vector<TileView> views;
  views.reserve(replica->remotes.size());
  for (size_t i = 0; i < replica->remotes.size(); ++i) {
    views.push_back({camera, width, height, tiles[std::min(i + 1, tiles.size() - 1)],
                     replica->generation});
    dispatch(*replica, replica->remotes[i], views.back());
  }

  if (!replica->tile_mode) {
    // Subset compositing: a peer's subset cannot be re-rendered here, so
    // its latest frame is merged whatever view it was rendered for.
    render::FrameBuffer frame = render_local(*replica, camera, width, height, full);
    obs::ScopedSpan composite_span("composite", options_.profile.name);
    for (size_t i = 0; i < replica->remotes.size(); ++i) {
      const RemoteTile& remote = replica->remotes[i];
      if (!remote.held) {
        ++stats_.locally_covered_tiles;
        continue;
      }
      (void)render::depth_composite(frame, remote.buffer, options_.pool);
      ++stats_.remote_tiles_used;
      if (!same_view(remote.held_view, views[i])) ++stats_.stale_tiles_used;
    }
    return frame;
  }

  // Tile mode: render only the local tile, then give each assistant until
  // one frame period at the target rate has passed since the frame began,
  // or as long as the local tile took if that ends later. An assistant
  // that keeps up with the target rate makes every frame however busy the
  // host's cores are, so which tiles are covered here follows from the
  // frames asked for, not from timing noise; a lost one costs one period.
  const auto started = std::chrono::steady_clock::now();
  render::FrameBuffer frame = render_local(*replica, camera, width, height, tiles[0]);
  double frame_seconds = last_frame_seconds_;
  const auto rendered = std::chrono::steady_clock::now();
  const auto period = std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(options_.target_fps > 0 ? 1.0 / options_.target_fps : 0.0));
  const auto deadline = std::max(started + period, rendered + (rendered - started));
  std::vector<const RemoteTile*> fresh;
  for (size_t i = 0; i < replica->remotes.size(); ++i) {
    RemoteTile& remote = replica->remotes[i];
    const render::Tile& tile = views[i].tile;
    if (await_view(remote, views[i], deadline)) {
      fresh.push_back(&remote);
      continue;
    }
    // No result for this view in time: never present another view's tile.
    const render::FrameBuffer covered = render_local(*replica, camera, width, height, tile);
    frame_seconds += last_frame_seconds_;
    frame.insert(tile, covered.extract(tile));
    ++stats_.locally_covered_tiles;
  }
  last_frame_seconds_ = frame_seconds;
  obs::ScopedSpan composite_span("composite", options_.profile.name);
  for (const RemoteTile* remote : fresh) {
    frame.insert(remote->held_view.tile, remote->buffer);
    ++stats_.remote_tiles_used;
  }
  return frame;
}

Status RenderService::setup_remotes(Replica& replica,
                                    const std::vector<std::string>& access_points,
                                    bool tile_mode) {
  replica.remotes.clear();
  replica.tile_mode = tile_mode;
  for (const std::string& ap : access_points) {
    if (ap.empty() || ap == peer_access_point_) continue;
    auto channel = fabric_->dial_retry(ap, options_.retry, *clock_);
    if (!channel.ok()) {
      obs::log_event(util::LogLevel::Warn, "render", "assistant_unreachable",
                     ap + ": " + channel.error());
      continue;
    }
    RemoteTile remote;
    remote.access_point = ap;
    remote.channel = std::move(channel).take();
    replica.remotes.push_back(std::move(remote));
  }
  if (replica.remotes.empty() && !access_points.empty())
    return make_error("render: no assistants reachable");
  return {};
}

void RenderService::prune_dead_remotes(Replica& replica) {
  const double now = clock_->now();
  auto dead = [&](const RemoteTile& remote) {
    if (!remote.channel || !remote.channel->is_open()) return true;
    return options_.tile_timeout > 0 && !remote.in_flight.empty() &&
           now - remote.in_flight.front().sent_at > options_.tile_timeout;
  };
  auto it = std::remove_if(
      replica.remotes.begin(), replica.remotes.end(), [&](const RemoteTile& remote) {
        if (!dead(remote)) return false;
        ++stats_.peer_failures;
        if (!remote.in_flight.empty()) {
          ++stats_.tiles_redispatched;
          obs::log_event(util::LogLevel::Warn, "render", "tile_redispatched",
                         "tile of " + remote.access_point + " re-covered for " + replica.name);
        }
        // A lost assistant is a failure-detector event: record it and
        // snapshot the flight-recorder ring for post-mortem reading.
        obs::FlightRecorder::global().record_failure(
            "render", "assistant " + remote.access_point + " lost for " + replica.name,
            clock_->now());
        obs::log_event(util::LogLevel::Warn, "render", "assistant_lost",
                       "assistant " + remote.access_point + " lost for " + replica.name +
                           "; re-dispatching its tile");
        return true;
      });
  replica.remotes.erase(it, replica.remotes.end());
}

Status RenderService::enable_tile_assist(const std::string& session,
                                         const std::vector<std::string>& assistants) {
  Replica* replica = find_replica(session);
  if (replica == nullptr) return make_error("render: no session " + session);
  return setup_remotes(*replica, assistants, /*tile_mode=*/true);
}

Status RenderService::enable_subset_compositing(const std::string& session,
                                                const std::vector<std::string>& peers) {
  Replica* replica = find_replica(session);
  if (replica == nullptr) return make_error("render: no session " + session);
  return setup_remotes(*replica, peers, /*tile_mode=*/false);
}

Status RenderService::request_tile_assist(const std::string& session, int tiles_wanted) {
  Replica* replica = find_replica(session);
  if (replica == nullptr) return make_error("render: no session " + session);
  AssistRequestMsg request;
  request.session = session;
  request.tiles_wanted = tiles_wanted;
  return replica->data_channel->send(encode(request));
}

Result<FrameStreamPublisher::FrameReport> RenderService::publish_stream_frame(
    const std::string& session, const scene::Camera& camera, int width, int height) {
  Replica* replica = find_replica(session);
  if (replica == nullptr) return make_error("render: no session " + session);
  if (!replica->stream || replica->stream->subscriber_count() == 0)
    return FrameStreamPublisher::FrameReport{};  // nobody listening: skip the render
  auto frame = render_distributed(session, camera, width, height);
  if (!frame.ok()) return make_error(frame.error());
  // The publisher roots the frame's delivery trace; make sure its root
  // span carries this service's name rather than the "publisher" fallback.
  obs::Tracer::set_current_host(options_.profile.name);
  return replica->stream->publish_frame(frame.value().to_image());
}

const FrameStreamPublisher* RenderService::stream_publisher(const std::string& session) const {
  const Replica* replica = find_replica(session);
  return replica == nullptr ? nullptr : replica->stream.get();
}

RenderService::StreamTotals RenderService::stream_totals() const {
  StreamTotals totals;
  for (const auto& [name, replica] : replicas_) {
    if (!replica.stream) continue;
    const FrameStreamPublisher::Stats& s = replica.stream->stats();
    const compress::EncodeMemo::Stats& m = replica.stream->memo().stats();
    totals.tiles_ref += s.tiles_ref;
    totals.tiles_data += s.tiles_data;
    totals.miss_replies += s.miss_replies;
    totals.encode_hits += m.hits;
    totals.encode_misses += m.misses;
    totals.encode_bytes_saved += m.bytes_saved;
    totals.subscribers += replica.stream->subscriber_count();
  }
  return totals;
}

std::vector<RenderService::PeerQueue> RenderService::client_queues() const {
  std::vector<PeerQueue> queues;
  queues.reserve(clients_.size());
  for (size_t i = 0; i < clients_.size(); ++i) {
    const Client& client = *clients_[i];
    std::string peer = "client" + std::to_string(i);
    if (!client.session.empty()) peer += ":" + client.session;
    queues.push_back({std::move(peer), client.channel->stats()});
  }
  return queues;
}

Status RenderService::submit_update(const std::string& session, SceneUpdate update) {
  Replica* replica = find_replica(session);
  if (replica == nullptr) return make_error("render: no session " + session);
  return replica->data_channel->send(encode(UpdateMsg{session, std::move(update)}));
}

void RenderService::serve_frame(Client& client, const FrameRequest& request,
                                obs::TraceContext trace) {
  // Adopt the context the frame request carried: everything below (raster
  // spans, peer tile spans on assisting hosts, the reply's stream
  // messages) stitches into the requesting client's frame timeline.
  obs::ScopedSpan span("serve_frame", options_.profile.name, trace);
  Replica* replica = find_replica(client.session);
  if (replica == nullptr || !replica->ready) {
    (void)client.channel->send(encode(RefusalMsg{"session not ready"}));
    return;
  }
  auto frame = render_distributed(client.session, request.camera, request.width, request.height);
  if (!frame.ok()) {
    (void)client.channel->send(encode(RefusalMsg{frame.error()}));
    return;
  }
  (void)publisher(*replica).answer_pull(frame.value().to_image(), request, last_frame_seconds_,
                                        *client.channel, client.pulled);
}

FrameStreamPublisher& RenderService::publisher(Replica& replica) {
  if (!replica.stream)
    replica.stream = std::make_unique<FrameStreamPublisher>(options_.stream, options_.pool);
  return *replica.stream;
}

RenderCapacity RenderService::capacity() const {
  return RenderCapacity::from_profile(options_.profile);
}

void RenderService::register_soap(services::ServiceContainer& container) {
  using services::SoapList;
  using services::SoapStruct;
  using services::SoapValue;

  container.register_method(
      "render", "queryCapacity", [this](const SoapList&) -> Result<SoapValue> {
        const RenderCapacity cap = capacity();
        SoapStruct out;
        out["host"] = cap.host;
        out["polygonsPerSec"] = cap.polygons_per_sec;
        out["pointsPerSec"] = cap.points_per_sec;
        out["voxelsPerSec"] = cap.voxels_per_sec;
        out["textureMemBytes"] = static_cast<int64_t>(cap.texture_mem_bytes);
        out["hwVolumeRendering"] = cap.hw_volume_rendering;
        return SoapValue{std::move(out)};
      });

  container.register_method(
      "render", "listInstances", [this](const SoapList&) -> Result<SoapValue> {
        SoapList out;
        for (const std::string& name : session_names()) out.push_back(name);
        return SoapValue{std::move(out)};
      });

  container.register_method(
      "render", "clientAccessPoint", [this](const SoapList&) -> Result<SoapValue> {
        return SoapValue{client_access_point_};
      });

  container.register_method(
      "render", "connectThinClient", [this](const SoapList& args) -> Result<SoapValue> {
        // Returns the binary endpoint the thin client should dial for the
        // requested session.
        if (args.empty()) return make_error("connectThinClient: need session");
        if (find_replica(args[0].as_string()) == nullptr)
          return make_error("connectThinClient: no session " + args[0].as_string());
        return SoapValue{client_access_point_};
      });

  container.register_method(
      "render", "requestTileAssist", [this](const SoapList& args) -> Result<SoapValue> {
        if (args.size() < 2) return make_error("requestTileAssist: need session and count");
        const Status st = request_tile_assist(args[0].as_string(),
                                              static_cast<int>(args[1].as_int(1)));
        if (!st.ok()) return make_error(st.error());
        return SoapValue{true};
      });

  container.register_method(
      "render", "createInstance", [this](const SoapList& args) -> Result<SoapValue> {
        if (args.size() < 2)
          return make_error("createInstance: need data access point and session");
        auto joined = connect_session(args[0].as_string(), args[1].as_string());
        if (!joined.ok()) return make_error(joined.error());
        return SoapValue{args[1].as_string()};
      });
}

Status RenderService::advertise(services::UddiRegistry& registry,
                                const std::string& access_point) {
  if (options_.active_client_only)
    return make_error("render: active render clients are not advertised");
  const std::string tmodel = registry.register_tmodel(services::render_service_descriptor());
  const std::string business = registry.register_business(options_.profile.name);
  advertised_bindings_.clear();
  for (const std::string& session : session_names()) {
    auto service_key = registry.register_service(business, "render:" + session);
    if (!service_key.ok()) return make_error(service_key.error());
    auto bound =
        registry.register_binding(service_key.value(), access_point, tmodel, session, clock_->now());
    if (!bound.ok()) return make_error(bound.error());
    advertised_bindings_.push_back(bound.value());
  }
  // A render service with no sessions yet is still discoverable (it can be
  // recruited and bootstrapped from a data service).
  if (session_names().empty()) {
    auto service_key = registry.register_service(business, "render:idle");
    if (!service_key.ok()) return make_error(service_key.error());
    auto bound =
        registry.register_binding(service_key.value(), access_point, tmodel, "", clock_->now());
    if (!bound.ok()) return make_error(bound.error());
    advertised_bindings_.push_back(bound.value());
  }
  return {};
}

Status RenderService::renew_advertisements(services::UddiRegistry& registry) {
  Status first_error;
  for (const std::string& key : advertised_bindings_) {
    const Status renewed = registry.heartbeat(key, clock_->now());
    if (!renewed.ok() && first_error.ok()) first_error = renewed;
  }
  return first_error;
}

RenderService::Replica* RenderService::find_replica(const std::string& session) {
  auto it = replicas_.find(session);
  return it == replicas_.end() ? nullptr : &it->second;
}

const RenderService::Replica* RenderService::find_replica(const std::string& session) const {
  auto it = replicas_.find(session);
  return it == replicas_.end() ? nullptr : &it->second;
}

}  // namespace rave::core
