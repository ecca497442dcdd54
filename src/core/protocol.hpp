// RAVE binary data-plane protocol. SOAP handles discovery and
// subscription setup; everything below travels as framed binary messages
// over net::Channel ("we then back off from SOAP and use direct socket
// communication to send binary information" — §4.3).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "compress/tile_cache.hpp"
#include "core/capacity.hpp"
#include "net/channel.hpp"
#include "obs/trace.hpp"
#include "render/framebuffer.hpp"
#include "scene/camera.hpp"
#include "scene/update.hpp"
#include "util/result.hpp"

namespace rave::core {

// Message type codes (0x00xx is reserved for SOAP).
enum MsgType : uint16_t {
  kMsgSubscribe = 0x0100,      // subscriber → data: join a session
  kMsgSubscribeAck = 0x0101,   // data → subscriber: client id + snapshot follows
  kMsgSnapshot = 0x0102,       // data → subscriber: serialized scene (subset)
  kMsgUpdate = 0x0103,         // both directions: committed/prospective update
  kMsgInterestSet = 0x0104,    // data → render service: assigned node subset
  kMsgRefusal = 0x0105,        // data → subscriber: request refused, with reason
  kMsgLoadReport = 0x0106,     // render service → data: smoothed fps etc.
  kMsgFrameRequest = 0x0110,   // thin client → render service: one stream frame back
  kMsgClientUpdate = 0x0112,   // thin client → render service (forwarded to data)
  kMsgAvatarAck = 0x0113,      // render service → thin client: avatar node id
  kMsgTileAssign = 0x0120,     // render service → assisting render service
  kMsgTileResult = 0x0121,     // assisting service → requesting service
  kMsgAssistRequest = 0x0122,  // render service → data: need tile help
  kMsgAssistGrant = 0x0123,    // data → render service: assistant access points
  // Cached frame streaming, the one frame delivery protocol. A stream frame
  // is FrameBegin, then one TileRef or TileData per tile, then FrameEnd;
  // TileMiss is the receiver's cache-miss fallback, answered with a
  // TileData. A subscriber gets a frame per publish, a FrameRequest one.
  kMsgStreamSubscribe = 0x0130,  // client → render service: join the cached stream
  kMsgFrameBegin = 0x0131,       // publisher → subscribers: frame header
  kMsgTileRef = 0x0132,          // publisher → subscribers: unchanged tile, by hash
  kMsgTileData = 0x0133,         // publisher → subscribers: encoded tile + hash
  kMsgFrameEnd = 0x0134,         // publisher → subscribers: frame trailer + hash
  kMsgTileMiss = 0x0135,         // subscriber → publisher/relay: full-tile fallback
};

enum class SubscriberKind : uint8_t { RenderService = 0, ActiveClient = 1 };

struct SubscribeRequest {
  std::string session;
  SubscriberKind kind = SubscriberKind::RenderService;
  std::string host;          // fabric name for direct peer connections
  std::string access_point;  // where this subscriber accepts peer traffic ("" = none)
  RenderCapacity capacity;   // zeroed for non-rendering subscribers
};

struct SubscribeAck {
  uint64_t client_id = 0;
  std::string session;
  uint64_t last_sequence = 0;
};

struct SnapshotMsg {
  std::string session;
  uint64_t sequence = 0;  // updates after this sequence apply on top
  bool merge = false;     // false: replace replica; true: merge nodes in
  std::vector<uint8_t> tree_bytes;
};

struct UpdateMsg {
  std::string session;
  scene::SceneUpdate update;
};

struct InterestSetMsg {
  std::string session;
  // Node ids this render service must hold and render; empty = whole tree.
  std::vector<scene::NodeId> nodes;
  bool whole_tree = true;
};

struct RefusalMsg {
  std::string reason;  // the paper's "explanatory error message"
};

struct LoadReportMsg {
  std::string session;
  double fps = 0;
  double frame_seconds = 0;
  uint64_t assigned_triangles = 0;
  // Volume marcher measurements for the rays/s cost model: total rays
  // cast and wall seconds spent marching last frame (their ratio is the
  // service's measured rays_per_sec), plus per-volume-node ray counts so
  // the data service can price individual nodes.
  uint64_t volume_rays = 0;
  double volume_seconds = 0;
  std::vector<std::pair<scene::NodeId, uint64_t>> node_rays;
};

// A pull: the render service answers with one stream frame (FrameBegin,
// TileRef/TileData per tile, FrameEnd) on the requesting channel, with
// frame_id = request_id so a late reply to an earlier request is dropped.
struct FrameRequest {
  scene::Camera camera;
  int width = 200, height = 200;
  compress::QualityClass quality = compress::QualityClass::Workstation;
  uint32_t request_id = 0;
};

struct ClientUpdateMsg {
  scene::SceneUpdate update;
};

// Render service → thin client: the data service allocated `node` for the
// avatar the client asked to add (matched by name).
struct AvatarAckMsg {
  std::string name;
  scene::NodeId node = scene::kInvalidNode;
};

struct TileAssignMsg {
  std::string session;
  scene::Camera camera;
  render::Tile tile;
  int frame_width = 0, frame_height = 0;
  // The requester's dispatch sequence, echoed in the TileResult; the
  // requester maps it back to the view (camera, size, tile, scene
  // generation) it asked for.
  uint64_t generation = 0;
};

struct TileResultMsg {
  render::Tile tile;
  uint64_t generation = 0;
  std::vector<uint8_t> framebuffer;  // render::FrameBuffer::serialize()
};

struct AssistRequestMsg {
  std::string session;
  int tiles_wanted = 1;
};

struct AssistGrantMsg {
  std::vector<std::string> access_points;  // assisting services' peer endpoints
};

// --- cached frame stream (fan-out tier) -------------------------------------

struct StreamSubscribeMsg {
  std::string session;
  compress::QualityClass quality = compress::QualityClass::Workstation;
};

struct FrameBeginMsg {
  uint32_t frame_id = 0;  // per-stream sequence number
  int width = 0, height = 0;
  uint16_t tile_size = 64;   // square grid cell; receivers rebuild the grid
  uint16_t tile_count = 0;
  compress::QualityClass quality = compress::QualityClass::Workstation;
  // Publisher clock (obs tracer seconds) at publish: receivers compute the
  // frame's age at completion — the staleness a drop-oldest shed schedule
  // actually cost the subscriber (rave_stream_frame_age_seconds).
  double publish_time = 0;
  // Trailing field only a pull reply carries: the service's render time
  // for the requester's frame stats. Absent on subscribed streams, which
  // keeps their wire bytes unchanged.
  std::optional<double> render_seconds;
};

// The ~16-byte message an unchanged tile ships as: 14 payload bytes
// (frame, index, content hash) instead of the tile's pixels.
struct TileRefMsg {
  uint32_t frame_id = 0;
  uint16_t tile_index = 0;
  uint64_t hash = 0;
};

struct TileDataMsg {
  uint32_t frame_id = 0;
  uint16_t tile_index = 0;
  render::Tile tile;          // placement rect (miss replies may arrive
                              // outside the frame that referenced them)
  uint64_t hash = 0;          // content hash of the decoded pixels
  std::vector<uint8_t> encoded;  // compress::EncodedImage::serialize()
};

struct FrameEndMsg {
  uint32_t frame_id = 0;
  uint16_t tile_count = 0;
  uint64_t frame_hash = 0;  // render::hash_image of the source frame
};

struct TileMissMsg {
  uint64_t hash = 0;
  uint32_t frame_id = 0;
  uint16_t tile_index = 0;
  compress::QualityClass quality = compress::QualityClass::Workstation;
};

// Encoders return ready-to-send messages; decoders validate the type code.
net::Message encode(const SubscribeRequest& m);
net::Message encode(const SubscribeAck& m);
net::Message encode(const SnapshotMsg& m);
net::Message encode(const UpdateMsg& m);
net::Message encode(const InterestSetMsg& m);
net::Message encode(const RefusalMsg& m);
net::Message encode(const LoadReportMsg& m);
net::Message encode(const FrameRequest& m);
net::Message encode(const ClientUpdateMsg& m);
net::Message encode(const AvatarAckMsg& m);
net::Message encode(const TileAssignMsg& m);
net::Message encode(const TileResultMsg& m);
net::Message encode(const AssistRequestMsg& m);
net::Message encode(const AssistGrantMsg& m);
net::Message encode(const StreamSubscribeMsg& m);
net::Message encode(const FrameBeginMsg& m);
net::Message encode(const TileRefMsg& m);
net::Message encode(const TileDataMsg& m);
// Zero-copy TileData encode: byte-identical on the wire to
// encode(TileDataMsg), but the serialized tile travels as the message's
// shared tail (refcounted across subscribers, scatter-gathered by the
// transports) instead of being copied into the payload vector.
net::Message encode_tile_data(uint32_t frame_id, uint16_t tile_index, const render::Tile& tile,
                              uint64_t hash, net::Buffer encoded);
net::Message encode(const FrameEndMsg& m);
net::Message encode(const TileMissMsg& m);

util::Result<SubscribeRequest> decode_subscribe(const net::Message& msg);
util::Result<SubscribeAck> decode_subscribe_ack(const net::Message& msg);
util::Result<SnapshotMsg> decode_snapshot(const net::Message& msg);
util::Result<UpdateMsg> decode_update(const net::Message& msg);
util::Result<InterestSetMsg> decode_interest_set(const net::Message& msg);
util::Result<RefusalMsg> decode_refusal(const net::Message& msg);
util::Result<LoadReportMsg> decode_load_report(const net::Message& msg);
util::Result<FrameRequest> decode_frame_request(const net::Message& msg);
util::Result<ClientUpdateMsg> decode_client_update(const net::Message& msg);
util::Result<AvatarAckMsg> decode_avatar_ack(const net::Message& msg);
util::Result<TileAssignMsg> decode_tile_assign(const net::Message& msg);
util::Result<TileResultMsg> decode_tile_result(const net::Message& msg);
util::Result<AssistRequestMsg> decode_assist_request(const net::Message& msg);
util::Result<AssistGrantMsg> decode_assist_grant(const net::Message& msg);
util::Result<StreamSubscribeMsg> decode_stream_subscribe(const net::Message& msg);
util::Result<FrameBeginMsg> decode_frame_begin(const net::Message& msg);
util::Result<TileRefMsg> decode_tile_ref(const net::Message& msg);
// TileData is read in place, without copying the encoded tile: `encoded`
// views into msg.payload, so the view lives only as long as `msg`.
struct TileDataView {
  uint32_t frame_id = 0;
  uint16_t tile_index = 0;
  render::Tile tile;
  uint64_t hash = 0;
  std::span<const uint8_t> encoded;
};
util::Result<TileDataView> view_tile_data(const net::Message& msg);
util::Result<FrameEndMsg> decode_frame_end(const net::Message& msg);
util::Result<TileMissMsg> decode_tile_miss(const net::Message& msg);

// Trace propagation. stamp_trace() copies the sending thread's current
// trace context onto the message (no-op when tracing is off or no trace is
// in flight); trace_of() reads the context a received message carried, for
// the receiver to parent its spans under. Both are free on untraced paths.
void stamp_trace(net::Message& msg);
obs::TraceContext trace_of(const net::Message& msg);

}  // namespace rave::core
