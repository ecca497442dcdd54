#include "core/protocol.hpp"

#include "obs/hlc.hpp"
#include "scene/serialize.hpp"

namespace rave::core {

using util::ByteReader;
using util::ByteWriter;
using util::make_error;
using util::Result;

namespace {
net::Message finish(uint16_t type, ByteWriter& w) { return {type, w.take()}; }

Result<ByteReader> open(const net::Message& msg, uint16_t expected) {
  if (msg.type != expected) return make_error("protocol: unexpected message type");
  return ByteReader(msg.payload);
}

void write_tile(ByteWriter& w, const render::Tile& t) {
  w.i32(t.x);
  w.i32(t.y);
  w.i32(t.width);
  w.i32(t.height);
}

// Quality codes index per-class state (publisher streams), so an unknown
// code fails the decode.
bool known_quality(compress::QualityClass quality) {
  return static_cast<size_t>(quality) < compress::kQualityClassCount;
}

render::Tile read_tile(ByteReader& r) {
  render::Tile t;
  t.x = r.i32();
  t.y = r.i32();
  t.width = r.i32();
  t.height = r.i32();
  return t;
}
}  // namespace

net::Message encode(const SubscribeRequest& m) {
  ByteWriter w;
  w.str(m.session);
  w.u8(static_cast<uint8_t>(m.kind));
  w.str(m.host);
  w.str(m.access_point);
  write_capacity(w, m.capacity);
  return finish(kMsgSubscribe, w);
}

Result<SubscribeRequest> decode_subscribe(const net::Message& msg) {
  auto reader = open(msg, kMsgSubscribe);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  SubscribeRequest out;
  out.session = r.str();
  out.kind = static_cast<SubscriberKind>(r.u8());
  out.host = r.str();
  out.access_point = r.str();
  out.capacity = read_capacity(r);
  if (!r.ok()) return make_error("protocol: truncated subscribe");
  return out;
}

net::Message encode(const SubscribeAck& m) {
  ByteWriter w;
  w.u64(m.client_id);
  w.str(m.session);
  w.u64(m.last_sequence);
  return finish(kMsgSubscribeAck, w);
}

Result<SubscribeAck> decode_subscribe_ack(const net::Message& msg) {
  auto reader = open(msg, kMsgSubscribeAck);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  SubscribeAck out;
  out.client_id = r.u64();
  out.session = r.str();
  out.last_sequence = r.u64();
  if (!r.ok()) return make_error("protocol: truncated subscribe ack");
  return out;
}

net::Message encode(const SnapshotMsg& m) {
  ByteWriter w;
  w.str(m.session);
  w.u64(m.sequence);
  w.boolean(m.merge);
  w.bytes(m.tree_bytes);
  return finish(kMsgSnapshot, w);
}

Result<SnapshotMsg> decode_snapshot(const net::Message& msg) {
  auto reader = open(msg, kMsgSnapshot);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  SnapshotMsg out;
  out.session = r.str();
  out.sequence = r.u64();
  out.merge = r.boolean();
  out.tree_bytes = r.bytes();
  if (!r.ok()) return make_error("protocol: truncated snapshot");
  return out;
}

net::Message encode(const UpdateMsg& m) {
  ByteWriter w;
  w.str(m.session);
  scene::write_update(w, m.update);
  return finish(kMsgUpdate, w);
}

Result<UpdateMsg> decode_update(const net::Message& msg) {
  auto reader = open(msg, kMsgUpdate);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  UpdateMsg out;
  out.session = r.str();
  auto update = scene::read_update(r);
  if (!update.ok()) return make_error(update.error());
  out.update = std::move(update).take();
  return out;
}

net::Message encode(const InterestSetMsg& m) {
  ByteWriter w;
  w.str(m.session);
  w.boolean(m.whole_tree);
  w.u32(static_cast<uint32_t>(m.nodes.size()));
  for (scene::NodeId id : m.nodes) w.u64(id);
  return finish(kMsgInterestSet, w);
}

Result<InterestSetMsg> decode_interest_set(const net::Message& msg) {
  auto reader = open(msg, kMsgInterestSet);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  InterestSetMsg out;
  out.session = r.str();
  out.whole_tree = r.boolean();
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) out.nodes.push_back(r.u64());
  if (!r.ok()) return make_error("protocol: truncated interest set");
  return out;
}

net::Message encode(const RefusalMsg& m) {
  ByteWriter w;
  w.str(m.reason);
  return finish(kMsgRefusal, w);
}

Result<RefusalMsg> decode_refusal(const net::Message& msg) {
  auto reader = open(msg, kMsgRefusal);
  if (!reader.ok()) return make_error(reader.error());
  RefusalMsg out;
  out.reason = reader.value().str();
  return out;
}

net::Message encode(const LoadReportMsg& m) {
  ByteWriter w;
  w.str(m.session);
  w.f64(m.fps);
  w.f64(m.frame_seconds);
  w.u64(m.assigned_triangles);
  w.u64(m.volume_rays);
  w.f64(m.volume_seconds);
  w.u32(static_cast<uint32_t>(m.node_rays.size()));
  for (const auto& [node, rays] : m.node_rays) {
    w.u64(node);
    w.u64(rays);
  }
  return finish(kMsgLoadReport, w);
}

Result<LoadReportMsg> decode_load_report(const net::Message& msg) {
  auto reader = open(msg, kMsgLoadReport);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  LoadReportMsg out;
  out.session = r.str();
  out.fps = r.f64();
  out.frame_seconds = r.f64();
  out.assigned_triangles = r.u64();
  out.volume_rays = r.u64();
  out.volume_seconds = r.f64();
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) {
    const scene::NodeId node = r.u64();
    const uint64_t rays = r.u64();
    out.node_rays.emplace_back(node, rays);
  }
  if (!r.ok()) return make_error("protocol: truncated load report");
  return out;
}

net::Message encode(const FrameRequest& m) {
  ByteWriter w;
  scene::write_camera(w, m.camera);
  w.i32(m.width);
  w.i32(m.height);
  w.u8(static_cast<uint8_t>(m.quality));
  w.u32(m.request_id);
  return finish(kMsgFrameRequest, w);
}

Result<FrameRequest> decode_frame_request(const net::Message& msg) {
  auto reader = open(msg, kMsgFrameRequest);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  FrameRequest out;
  out.camera = scene::read_camera(r);
  out.width = r.i32();
  out.height = r.i32();
  out.quality = static_cast<compress::QualityClass>(r.u8());
  out.request_id = r.u32();
  if (!r.ok() || !known_quality(out.quality))
    return make_error("protocol: truncated frame request or unknown quality class");
  return out;
}

net::Message encode(const ClientUpdateMsg& m) {
  ByteWriter w;
  scene::write_update(w, m.update);
  return finish(kMsgClientUpdate, w);
}

Result<ClientUpdateMsg> decode_client_update(const net::Message& msg) {
  auto reader = open(msg, kMsgClientUpdate);
  if (!reader.ok()) return make_error(reader.error());
  auto update = scene::read_update(reader.value());
  if (!update.ok()) return make_error(update.error());
  return ClientUpdateMsg{std::move(update).take()};
}

net::Message encode(const AvatarAckMsg& m) {
  ByteWriter w;
  w.str(m.name);
  w.u64(m.node);
  return finish(kMsgAvatarAck, w);
}

Result<AvatarAckMsg> decode_avatar_ack(const net::Message& msg) {
  auto reader = open(msg, kMsgAvatarAck);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  AvatarAckMsg out;
  out.name = r.str();
  out.node = r.u64();
  if (!r.ok()) return make_error("protocol: truncated avatar ack");
  return out;
}

net::Message encode(const TileAssignMsg& m) {
  ByteWriter w;
  w.str(m.session);
  scene::write_camera(w, m.camera);
  write_tile(w, m.tile);
  w.i32(m.frame_width);
  w.i32(m.frame_height);
  w.u64(m.generation);
  return finish(kMsgTileAssign, w);
}

Result<TileAssignMsg> decode_tile_assign(const net::Message& msg) {
  auto reader = open(msg, kMsgTileAssign);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  TileAssignMsg out;
  out.session = r.str();
  out.camera = scene::read_camera(r);
  out.tile = read_tile(r);
  out.frame_width = r.i32();
  out.frame_height = r.i32();
  out.generation = r.u64();
  if (!r.ok()) return make_error("protocol: truncated tile assign");
  return out;
}

net::Message encode(const TileResultMsg& m) {
  ByteWriter w;
  write_tile(w, m.tile);
  w.u64(m.generation);
  w.bytes(m.framebuffer);
  return finish(kMsgTileResult, w);
}

Result<TileResultMsg> decode_tile_result(const net::Message& msg) {
  auto reader = open(msg, kMsgTileResult);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  TileResultMsg out;
  out.tile = read_tile(r);
  out.generation = r.u64();
  out.framebuffer = r.bytes();
  if (!r.ok()) return make_error("protocol: truncated tile result");
  return out;
}

net::Message encode(const AssistRequestMsg& m) {
  ByteWriter w;
  w.str(m.session);
  w.i32(m.tiles_wanted);
  return finish(kMsgAssistRequest, w);
}

Result<AssistRequestMsg> decode_assist_request(const net::Message& msg) {
  auto reader = open(msg, kMsgAssistRequest);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  AssistRequestMsg out;
  out.session = r.str();
  out.tiles_wanted = r.i32();
  if (!r.ok()) return make_error("protocol: truncated assist request");
  return out;
}

net::Message encode(const AssistGrantMsg& m) {
  ByteWriter w;
  w.u32(static_cast<uint32_t>(m.access_points.size()));
  for (const std::string& ap : m.access_points) w.str(ap);
  return finish(kMsgAssistGrant, w);
}

Result<AssistGrantMsg> decode_assist_grant(const net::Message& msg) {
  auto reader = open(msg, kMsgAssistGrant);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  AssistGrantMsg out;
  const uint32_t n = r.u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) out.access_points.push_back(r.str());
  if (!r.ok()) return make_error("protocol: truncated assist grant");
  return out;
}

net::Message encode(const StreamSubscribeMsg& m) {
  ByteWriter w;
  w.str(m.session);
  w.u8(static_cast<uint8_t>(m.quality));
  return finish(kMsgStreamSubscribe, w);
}

Result<StreamSubscribeMsg> decode_stream_subscribe(const net::Message& msg) {
  auto reader = open(msg, kMsgStreamSubscribe);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  StreamSubscribeMsg out;
  out.session = r.str();
  out.quality = static_cast<compress::QualityClass>(r.u8());
  if (!r.ok() || !known_quality(out.quality))
    return make_error("protocol: truncated stream subscribe or unknown quality class");
  return out;
}

net::Message encode(const FrameBeginMsg& m) {
  ByteWriter w;
  w.u32(m.frame_id);
  w.i32(m.width);
  w.i32(m.height);
  w.u16(m.tile_size);
  w.u16(m.tile_count);
  w.u8(static_cast<uint8_t>(m.quality));
  w.f64(m.publish_time);
  if (m.render_seconds) w.f64(*m.render_seconds);
  return finish(kMsgFrameBegin, w);
}

Result<FrameBeginMsg> decode_frame_begin(const net::Message& msg) {
  auto reader = open(msg, kMsgFrameBegin);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  FrameBeginMsg out;
  out.frame_id = r.u32();
  out.width = r.i32();
  out.height = r.i32();
  out.tile_size = r.u16();
  out.tile_count = r.u16();
  out.quality = static_cast<compress::QualityClass>(r.u8());
  out.publish_time = r.f64();
  if (r.remaining() >= sizeof(double)) out.render_seconds = r.f64();
  if (!r.ok() || !known_quality(out.quality))
    return make_error("protocol: truncated frame begin or unknown quality class");
  return out;
}

net::Message encode(const TileRefMsg& m) {
  ByteWriter w;
  w.u32(m.frame_id);
  w.u16(m.tile_index);
  w.u64(m.hash);
  return finish(kMsgTileRef, w);
}

Result<TileRefMsg> decode_tile_ref(const net::Message& msg) {
  auto reader = open(msg, kMsgTileRef);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  TileRefMsg out;
  out.frame_id = r.u32();
  out.tile_index = r.u16();
  out.hash = r.u64();
  if (!r.ok()) return make_error("protocol: truncated tile ref");
  return out;
}

net::Message encode(const TileDataMsg& m) {
  ByteWriter w;
  w.u32(m.frame_id);
  w.u16(m.tile_index);
  write_tile(w, m.tile);
  w.u64(m.hash);
  w.bytes(m.encoded);
  return finish(kMsgTileData, w);
}

net::Message encode_tile_data(uint32_t frame_id, uint16_t tile_index, const render::Tile& tile,
                              uint64_t hash, net::Buffer encoded) {
  ByteWriter w;
  w.u32(frame_id);
  w.u16(tile_index);
  write_tile(w, tile);
  w.u64(hash);
  w.u32(static_cast<uint32_t>(encoded.size()));  // bytes() length prefix
  return {kMsgTileData, w.take(), std::move(encoded)};
}

Result<TileDataView> view_tile_data(const net::Message& msg) {
  auto reader = open(msg, kMsgTileData);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  TileDataView out;
  out.frame_id = r.u32();
  out.tile_index = r.u16();
  out.tile = read_tile(r);
  out.hash = r.u64();
  out.encoded = r.view();
  if (!r.ok()) return make_error("protocol: truncated tile data");
  return out;
}

net::Message encode(const FrameEndMsg& m) {
  ByteWriter w;
  w.u32(m.frame_id);
  w.u16(m.tile_count);
  w.u64(m.frame_hash);
  return finish(kMsgFrameEnd, w);
}

Result<FrameEndMsg> decode_frame_end(const net::Message& msg) {
  auto reader = open(msg, kMsgFrameEnd);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  FrameEndMsg out;
  out.frame_id = r.u32();
  out.tile_count = r.u16();
  out.frame_hash = r.u64();
  if (!r.ok()) return make_error("protocol: truncated frame end");
  return out;
}

net::Message encode(const TileMissMsg& m) {
  ByteWriter w;
  w.u64(m.hash);
  w.u32(m.frame_id);
  w.u16(m.tile_index);
  w.u8(static_cast<uint8_t>(m.quality));
  return finish(kMsgTileMiss, w);
}

Result<TileMissMsg> decode_tile_miss(const net::Message& msg) {
  auto reader = open(msg, kMsgTileMiss);
  if (!reader.ok()) return make_error(reader.error());
  ByteReader& r = reader.value();
  TileMissMsg out;
  out.hash = r.u64();
  out.frame_id = r.u32();
  out.tile_index = r.u16();
  out.quality = static_cast<compress::QualityClass>(r.u8());
  if (!r.ok() || !known_quality(out.quality))
    return make_error("protocol: truncated tile miss or unknown quality class");
  return out;
}

void stamp_trace(net::Message& msg) {
  // The HLC stamp rides the same call sites as the trace context (frame
  // publishes, client requests): both are no-ops unless their plane is
  // enabled, keeping the disabled wire format byte-identical.
  obs::stamp_hlc(msg);
  const obs::TraceContext ctx = obs::Tracer::current();
  if (!ctx.valid()) return;
  msg.trace_id = ctx.trace_id;
  msg.span_id = ctx.span_id;
}

obs::TraceContext trace_of(const net::Message& msg) { return {msg.trace_id, msg.span_id}; }

}  // namespace rave::core
