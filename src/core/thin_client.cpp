#include "core/thin_client.hpp"

#include <algorithm>

#include "obs/trace.hpp"

namespace rave::core {

using scene::Camera;
using scene::NodeId;
using util::make_error;
using util::Result;
using util::Status;

ThinClient::ThinClient(util::Clock& clock, Fabric& fabric, sim::MachineProfile profile)
    : clock_(&clock), fabric_(&fabric), profile_(std::move(profile)) {}

Status ThinClient::connect(const std::string& render_access_point, const std::string& session) {
  auto channel = fabric_->dial(render_access_point);
  if (!channel.ok()) return make_error(channel.error());
  // A new connection starts clean: the old one closes, and its receiver
  // (bound to that channel, holding that service's tiles) goes with it.
  disconnect();
  receiver_.reset();
  streaming_ = false;
  channel_ = std::move(channel).take();
  SubscribeRequest request;
  request.session = session;
  request.kind = SubscriberKind::ActiveClient;
  request.host = profile_.name;
  const Status sent = channel_->send(encode(request));
  if (!sent.ok()) return sent;
  session_ = session;
  connected_ = true;
  return {};
}

Status ThinClient::subscribe_stream(compress::QualityClass quality,
                                    FrameStreamOptions options) {
  if (!connected_) return make_error("thin client: not connected");
  receiver_ = std::make_unique<FrameStreamReceiver>(channel_, quality, options);
  streaming_ = true;
  return channel_->send(encode(StreamSubscribeMsg{session_, quality}));
}

double ThinClient::present(const render::Image& frame) {
  // The device's unpack/blit cost (paper §5.1 "other overheads": the
  // PDA's 0.047 s), for pulled and pushed frames alike. Modelled work: it
  // advances a virtual clock (Table 2) and is never slept on a real one.
  const uint64_t pixels =
      static_cast<uint64_t>(frame.width) * static_cast<uint64_t>(frame.height);
  const double unpack = profile_.pixel_unpack_rate > 0
                            ? static_cast<double>(pixels) / profile_.pixel_unpack_rate
                            : 0.0;
  clock_->charge(unpack);
  return unpack;
}

Result<render::Image> ThinClient::next_stream_frame(double timeout_seconds,
                                                    const std::function<void()>& pump) {
  if (!connected_) return make_error("thin client: not connected");
  if (!streaming_) return make_error("thin client: subscribe_stream first");
  auto frame = receiver_->next_frame(*clock_, timeout_seconds, pump);
  if (frame.ok()) present(frame.value());
  return frame;
}

Result<render::Image> ThinClient::request_frame(const Camera& camera, int width, int height,
                                                double timeout_seconds,
                                                const std::function<void()>& pump) {
  if (!connected_) return make_error("thin client: not connected");
  if (streaming_)
    return make_error(
        "thin client: request_frame after subscribe_stream — this connection carries "
        "pushed stream frames; read them with next_stream_frame");
  // A store holds tiles decoded in one class: a new class starts empty,
  // so its first refs miss and come back as full tiles in that class.
  if (!receiver_ || receiver_->quality() != quality_)
    receiver_ = std::make_unique<FrameStreamReceiver>(channel_, quality_);
  const FrameRequest request{camera, width, height, quality_, next_request_id_++};
  const double t0 = clock_->now();
  // The per-frame trace starts here: the root span covers the whole
  // request round-trip, and its context rides the FrameRequest so every
  // service that touches this frame parents its spans under it.
  obs::ScopedSpan frame_span = obs::ScopedSpan::root("frame", profile_.name);
  net::Message wire = encode(request);
  stamp_trace(wire);
  const Status sent = channel_->send(wire);
  if (!sent.ok()) return make_error(sent.error());

  const double deadline = t0 + timeout_seconds;
  const uint64_t bytes_before = receiver_->stats().bytes_received;
  for (;;) {
    auto frame = receiver_->next_frame(*clock_, deadline - clock_->now(), pump);
    if (!frame.ok()) return frame;
    const FrameBeginMsg& header = receiver_->last_header();
    if (header.frame_id != request.request_id) continue;  // late reply to an earlier pull

    const double received_at = clock_->now();
    stats_.client_seconds = present(frame.value());
    stats_.render_seconds = header.render_seconds.value_or(0.0);
    stats_.image_bytes = receiver_->stats().bytes_received - bytes_before;
    stats_.codec = compress::codec_for_quality(quality_);
    stats_.total_latency = clock_->now() - t0;
    stats_.receipt_seconds = std::max(0.0, received_at - t0 - stats_.render_seconds);
    return frame;
  }
}

Result<NodeId> ThinClient::create_avatar(const std::string& user_name, double timeout_seconds,
                                         const std::function<void()>& pump,
                                         const scene::Camera& initial_view) {
  if (!connected_) return make_error("thin client: not connected");
  scene::AvatarData avatar;
  avatar.user_name = user_name;
  scene::SceneNode node;
  node.id = scene::kInvalidNode;  // allocated by the data service
  node.name = "avatar:" + user_name + "@" + profile_.name;
  node.transform = initial_view.avatar_transform();
  node.payload = std::move(avatar);
  ClientUpdateMsg update{scene::SceneUpdate::add_node(scene::kRootNode, std::move(node))};
  const std::string wanted = update.update.new_node.name;
  const Status sent = channel_->send(encode(update));
  if (!sent.ok()) return make_error(sent.error());

  const double deadline = clock_->now() + timeout_seconds;
  while (clock_->now() < deadline) {
    if (pump) pump();
    auto msg = channel_->receive(pump ? 0.005 : timeout_seconds);
    if (!msg.has_value()) continue;
    if (msg->type != kMsgAvatarAck) continue;
    auto ack = decode_avatar_ack(*msg);
    if (ack.ok() && ack.value().name == wanted) return ack.value().node;
  }
  return make_error("thin client: avatar creation timed out");
}

Status ThinClient::move_avatar(NodeId avatar, const Camera& camera) {
  return send_update(scene::SceneUpdate::set_transform(avatar, camera.avatar_transform()));
}

Status ThinClient::send_update(scene::SceneUpdate update) {
  if (!connected_) return make_error("thin client: not connected");
  return channel_->send(encode(ClientUpdateMsg{std::move(update)}));
}

void ThinClient::disconnect() {
  if (channel_) channel_->close();
  connected_ = false;
}

}  // namespace rave::core
