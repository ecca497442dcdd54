// The RAVE render service (paper §3.1.2). Holds replicas (full or subset)
// of data-service sessions, renders off-screen for thin clients, renders
// to the local console for active users, assists peers with framebuffer
// tiles, and reports load for migration. One service supports many
// sessions and many simultaneous clients, sharing a single scene copy per
// session.
//
// Distribution mechanics: a peer render request (TileAssign) always means
// "render *your replica* of this session for this camera, restricted to
// this tile". With tile distribution every peer holds the whole tree and
// tiles are disjoint; with dataset distribution every peer holds its
// subset and tiles cover the full frame — the results depth-composite
// into the final image either way (§3.2.5).
#pragma once

#include <chrono>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "core/fabric.hpp"
#include "core/frame_stream.hpp"
#include "core/protocol.hpp"
#include "core/service_config.hpp"
#include "render/compositor.hpp"
#include "render/layer_cache.hpp"
#include "render/rasterizer.hpp"
#include "render/raycast.hpp"
#include "scene/tree.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"
#include "sim/perf_model.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

namespace rave::core {

class RenderService {
 public:
  // Shared fabric knobs (target_fps, thresholds, retry, tile_timeout)
  // live in ServiceConfig; only render-service-specific ones are
  // added here. `retry` governs every fabric dial this service
  // makes; `tile_timeout` > 0 abandons unresponsive assistants so their
  // tiles are re-dispatched.
  struct Options : ServiceConfig {
    sim::MachineProfile profile = sim::centrino_laptop();
    // Advance the clock by modelled render times (heterogeneous-testbed
    // benches); rasterization still runs for real either way.
    bool simulate_timing = false;
    double load_report_interval = 0.1;  // seconds between LoadReports
    // Stand-alone active render client: renders and collaborates but has
    // no service interface to advertise (paper §3.1.2).
    bool active_client_only = false;
    // Frame delivery (tile grid, memo/store capacities) for pulls and
    // StreamSubscribe clients alike.
    FrameStreamOptions stream;
    // Worker pool for vertex shading, ray casting, compositing and stream
    // tile encoding: the process-wide shared pool by default, null = serial.
    // Output is byte-identical either way.
    util::ThreadPool* pool = &util::ThreadPool::shared();
  };

  struct Stats {
    uint64_t frames_rendered = 0;
    uint64_t peer_tiles_rendered = 0;
    uint64_t remote_tiles_used = 0;
    // Peer results composited for a view other than the frame's: only the
    // best-effort subset merge can count one; tile mode never presents one.
    uint64_t stale_tiles_used = 0;
    // Assistant tiles rendered here because no result for the frame's view
    // arrived within the wait (bootstrap, stalled or lost assistant).
    uint64_t locally_covered_tiles = 0;
    uint64_t updates_applied = 0;
    uint64_t peer_failures = 0;       // assistants lost (closed or timed out)
    uint64_t tiles_redispatched = 0;  // in-flight tiles re-covered after a loss
    // Volume marcher totals across frames — the dashboard's raw material
    // next to the rave_volume_seconds histogram.
    uint64_t volume_rays = 0;
    uint64_t bricks_skipped = 0;  // macro-cell skip jumps taken
    // Renders that restored a replica's cached prefix layer vs renders
    // that drew the whole list (render/layer_cache.hpp); also exported as
    // rave_render_layer_total{host,outcome}.
    uint64_t layer_hits = 0;
    uint64_t layer_misses = 0;
  };

  RenderService(util::Clock& clock, Fabric& fabric) : RenderService(clock, fabric, Options()) {}
  RenderService(util::Clock& clock, Fabric& fabric, Options options);

  // --- endpoints ------------------------------------------------------------
  // Expose the thin-client endpoint / the render-peer endpoint on the
  // fabric. Names must be fabric-unique (e.g. "laptop/clients").
  util::Result<std::string> listen_clients(const std::string& name);
  util::Result<std::string> listen_peer(const std::string& name);
  [[nodiscard]] const std::string& client_access_point() const { return client_access_point_; }
  [[nodiscard]] const std::string& peer_access_point() const { return peer_access_point_; }

  // --- sessions ---------------------------------------------------------------
  // Dial the data service and subscribe (bootstrap: ack + snapshot arrive
  // on the first pumps).
  util::Result<uint64_t> connect_session(const std::string& data_access_point,
                                         const std::string& session);
  [[nodiscard]] std::vector<std::string> session_names() const;
  [[nodiscard]] const scene::SceneTree* replica(const std::string& session) const;
  [[nodiscard]] bool bootstrapped(const std::string& session) const;

  // --- processing -------------------------------------------------------------
  size_t pump();

  // --- rendering ---------------------------------------------------------------
  // Console rendering for a local user (active render client, immersive
  // display): full scene, on-screen semantics.
  util::Result<render::FrameBuffer> render_console(const std::string& session,
                                                   const scene::Camera& camera, int width,
                                                   int height);

  // Distributed rendering. Every call dispatches this view to each peer.
  // Tile mode renders only the first tile here and composites a peer tile
  // only if it was rendered for this exact view (camera, size, tile, scene
  // generation): it waits for it until one period at target_fps has
  // passed since the frame began (or as long as the local tile took, if
  // longer), then renders the tile locally instead, so no stale tile is
  // presented.
  // Subset compositing depth-merges the latest peer frames best effort
  // ("local and remote simply rendering best effort", §5.5).
  util::Result<render::FrameBuffer> render_distributed(const std::string& session,
                                                       const scene::Camera& camera, int width,
                                                       int height);

  // Configure framebuffer (tile) distribution: split client frames into
  // `assistant_access_points.size() + 1` tiles, first rendered locally.
  util::Status enable_tile_assist(const std::string& session,
                                  const std::vector<std::string>& assistant_access_points);
  // Configure dataset distribution compositing: peers render their scene
  // subsets full-frame and results are depth-merged.
  util::Status enable_subset_compositing(const std::string& session,
                                         const std::vector<std::string>& peer_access_points);

  // Ask the data service for assistants and enable tile mode with them.
  util::Status request_tile_assist(const std::string& session, int tiles_wanted);

  // --- cached frame streaming --------------------------------------------------
  // Render one distributed frame and publish it to every stream
  // subscriber of the session (tile refs for unchanged content, memoized
  // encodes per quality class). Clients join by sending StreamSubscribe
  // on the client endpoint; their cache misses (TileMiss) are answered on
  // the same channel during pump(). No-op report when nobody subscribed.
  util::Result<FrameStreamPublisher::FrameReport> publish_stream_frame(
      const std::string& session, const scene::Camera& camera, int width, int height);
  // The session's publisher (it also answers pulls), nullptr before the
  // first pull or stream subscriber.
  [[nodiscard]] const FrameStreamPublisher* stream_publisher(const std::string& session) const;

  // Fan-out cache totals across every session's publisher (status/rave_top).
  struct StreamTotals {
    uint64_t tiles_ref = 0;
    uint64_t tiles_data = 0;
    uint64_t encode_hits = 0;
    uint64_t encode_misses = 0;
    uint64_t encode_bytes_saved = 0;
    uint64_t miss_replies = 0;
    uint64_t subscribers = 0;
  };
  [[nodiscard]] StreamTotals stream_totals() const;

  // Per-connected-client channel stats (peak write-queue depth, cumulative
  // queue wait under the reactor transport) for the status report: one
  // stalled subscriber is named here instead of smeared across the
  // process-wide rave_net_write_queue_* gauges.
  struct PeerQueue {
    std::string peer;  // "client<N>[:session]"
    net::ChannelStats stats;
  };
  [[nodiscard]] std::vector<PeerQueue> client_queues() const;

  // Artificially delay outgoing peer tile results (reproduces fig. 5's
  // stalled remote service).
  void set_assist_stall(double seconds) { assist_stall_seconds_ = seconds; }

  // Local scene edits from a console user: routed through the data
  // service like any other client change.
  util::Status submit_update(const std::string& session, scene::SceneUpdate update);

  // --- introspection -------------------------------------------------------------
  [[nodiscard]] RenderCapacity capacity() const;
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] double last_frame_seconds() const { return last_frame_seconds_; }
  [[nodiscard]] const Options& options() const { return options_; }

  // Observability views for the status endpoint: frame-latency histogram
  // (null until the first frame) and pending delayed sends.
  [[nodiscard]] const obs::Histogram* frame_latency() const { return frame_latency_; }
  [[nodiscard]] const obs::Histogram* volume_latency() const { return volume_latency_; }
  [[nodiscard]] size_t delayed_queue_depth() const { return delayed_.size(); }

  // SOAP endpoint "render": queryCapacity, listInstances, createInstance,
  // clientAccessPoint.
  void register_soap(services::ServiceContainer& container);
  // `access_point` is this host's SOAP endpoint — what UDDI advertised in
  // the paper's deployment (an Axis service URL); the binary endpoints are
  // exchanged during subscription.
  util::Status advertise(services::UddiRegistry& registry, const std::string& access_point);

  // Renew this service's registry advertisements (lease heartbeats for
  // every binding created by advertise()). Call at least once per
  // lease_seconds; no-op before the first advertise.
  util::Status renew_advertisements(services::UddiRegistry& registry);

 private:
  // What a peer result was rendered for; equal views give equal pixels.
  struct TileView {
    scene::Camera camera;  // compared bit for bit
    int width = 0, height = 0;
    render::Tile tile;
    uint64_t generation = 0;  // the replica's scene generation at dispatch
  };

  // One TileAssign sent and not yet answered. Its sequence travels as the
  // message's `generation` and comes back in the TileResult.
  struct Dispatch {
    uint64_t sequence = 0;
    TileView view;
    double sent_at = 0.0;
  };

  struct RemoteTile {
    std::string access_point;
    net::ChannelPtr channel;
    // Unanswered dispatches, oldest first; at most kMaxInFlight, so a slow
    // assistant gets no more work (and costs no more memory) until it
    // answers. Its oldest entry past tile_timeout abandons the assistant.
    std::deque<Dispatch> in_flight;
    // The latest accepted result and the view it was rendered for.
    bool held = false;
    TileView held_view;
    render::FrameBuffer buffer;
  };
  static constexpr size_t kMaxInFlight = 8;
  static bool same_view(const TileView& a, const TileView& b);

  struct Replica {
    std::string name;
    net::ChannelPtr data_channel;
    uint64_t subscriber_id = 0;
    scene::SceneTree tree;
    bool ready = false;  // snapshot received
    bool whole_tree = true;
    std::vector<scene::NodeId> interest;
    LoadTracker tracker;
    double last_report = -1e18;
    uint64_t generation = 1;  // bumped on every applied update
    uint64_t dispatch_sequence = 0;  // last TileAssign sent for this replica
    // Distribution state.
    bool tile_mode = false;    // disjoint tiles vs full-frame subset merge
    std::vector<RemoteTile> remotes;
    // Frame delivery (stream fan-out and pulls), created on first use.
    std::unique_ptr<FrameStreamPublisher> stream;
    // Planes after the unchanged render-list prefix; every render_local
    // (frames, pulls, publishes, peer tiles) goes through it.
    render::LayerCache layers;
  };

  struct Client {
    net::ChannelPtr channel;
    std::string session;
    // This client's last pull: the next pull's refs and this client's
    // misses resolve against it (reset when it joins a stream).
    FrameStreamPublisher::FramePtr pulled;
    std::vector<std::string> pending_avatars;

    explicit Client(net::ChannelPtr ch) : channel(std::move(ch)) {}
  };

  struct DelayedSend {
    net::ChannelPtr channel;
    net::Message message;
    double ready_at = 0;
  };

  size_t pump_replica(Replica& replica);
  size_t pump_clients();
  size_t pump_peers();
  void flush_delayed();
  void apply_update(Replica& replica, const scene::SceneUpdate& update);
  render::FrameBuffer render_local(Replica& replica, const scene::Camera& camera, int width,
                                   int height, const render::Tile& region);
  void account_frame(Replica& replica, uint64_t triangles, uint64_t pixels,
                     const render::RenderStats& volume,
                     std::vector<std::pair<scene::NodeId, uint64_t>> node_rays);
  void serve_frame(Client& client, const FrameRequest& request, obs::TraceContext trace);
  FrameStreamPublisher& publisher(Replica& replica);
  Replica* find_replica(const std::string& session);
  [[nodiscard]] const Replica* find_replica(const std::string& session) const;
  util::Status setup_remotes(Replica& replica, const std::vector<std::string>& access_points,
                             bool tile_mode);
  // Send `view` to the remote and record the dispatch, unless the record
  // is full; a failed send records nothing.
  void dispatch(Replica& replica, RemoteTile& remote, const TileView& view);
  // Accept `msg` only if it answers a recorded dispatch with that
  // dispatch's tile; the accepted result becomes the held one.
  void take_result(RemoteTile& remote, const net::Message& msg);
  // Wait on the remote's channel until `deadline` for a result rendered
  // for `view`, if one was dispatched; true when such a result is held.
  bool await_view(RemoteTile& remote, const TileView& view,
                  std::chrono::steady_clock::time_point deadline);
  // Drop assistants whose channel closed or whose oldest dispatch timed out;
  // their tiles fall back to survivors/local on the next dispatch.
  void prune_dead_remotes(Replica& replica);

  util::Clock* clock_;
  Fabric* fabric_;
  Options options_;
  std::map<std::string, Replica> replicas_;
  AcceptInbox client_inbox_;  // accepted, joins clients_ at the next pump
  AcceptInbox peer_inbox_;    // accepted, joins peer_channels_ at the next pump
  std::vector<std::unique_ptr<Client>> clients_;
  std::vector<net::ChannelPtr> peer_channels_;
  std::deque<DelayedSend> delayed_;
  std::string client_access_point_;
  std::string peer_access_point_;
  std::vector<std::string> advertised_bindings_;  // lease keys to renew
  Stats stats_;
  obs::Histogram* frame_latency_ = nullptr;  // registry-owned, keyed by host
  obs::Histogram* volume_latency_ = nullptr;  // rave_volume_seconds, keyed by host
  obs::Counter* layer_hits_ = nullptr;        // rave_render_layer_total, keyed by host
  obs::Counter* layer_misses_ = nullptr;
  obs::Gauge* delayed_gauge_ = nullptr;
  double last_frame_seconds_ = 0;
  double assist_stall_seconds_ = 0;
};

}  // namespace rave::core
