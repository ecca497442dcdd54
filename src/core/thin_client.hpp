// The RAVE thin client (paper §3.1.3): a device with no or very modest
// local rendering resources (the Sharp Zaurus PDA of §5.1). It connects
// to a render service, manipulates the camera and the shared data, and
// receives rendered frames — all data processing happens remotely, the
// client only unpacks and presents pixels. Frames arrive in the one
// delivery protocol, the tiled frame stream (core/frame_stream.hpp): a
// pull (request_frame) is answered with one stream frame, a subscription
// (subscribe_stream) with one per publish. Pull timing is broken down
// exactly as Table 2 reports it: total latency = render + image receipt +
// other (client) overheads.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "core/fabric.hpp"
#include "core/frame_stream.hpp"
#include "core/protocol.hpp"
#include "scene/camera.hpp"
#include "sim/machine.hpp"
#include "util/clock.hpp"

namespace rave::core {

class ThinClient {
 public:
  struct FrameStats {
    double total_latency = 0;    // request sent → image presented
    double render_seconds = 0;   // reported by the render service
    double receipt_seconds = 0;  // transfer time of the encoded image
    double client_seconds = 0;   // unpack + blit on this device
    uint64_t image_bytes = 0;    // stream wire bytes received for the pull
    compress::CodecKind codec = compress::CodecKind::Raw;  // the pulled class's codec
  };

  ThinClient(util::Clock& clock, Fabric& fabric,
             sim::MachineProfile profile = sim::zaurus_pda());

  // Dial a render service's client endpoint and bind to `session`. A
  // connected client drops its previous connection first.
  util::Status connect(const std::string& render_access_point, const std::string& session);
  [[nodiscard]] bool connected() const { return connected_; }

  // Blocking frame fetch (the PDA's frame loop): the render service
  // answers with one stream frame in the set_quality class, so a repeated
  // view ships as tile refs. The render service must be pumped
  // concurrently (threaded) or between calls (test harness) — pass `pump`
  // to drive it inline. An error after subscribe_stream: that connection
  // carries pushed frames, and a pull would consume them.
  util::Result<render::Image> request_frame(const scene::Camera& camera, int width, int height,
                                            double timeout_seconds = 5.0,
                                            const std::function<void()>& pump = {});

  [[nodiscard]] const FrameStats& last_stats() const { return stats_; }

  // Quality class of pulled frames: Workstation (lossless RLE) by default,
  // Pda (RGB565), or Raw 24 bpp as the paper's PDA measurements (§5.1).
  void set_quality(compress::QualityClass quality) { quality_ = quality; }

  // --- cached frame streaming --------------------------------------------------
  // Switch to stream mode: the render service pushes a frame per publish
  // as tile refs/data for this quality class. From then on this
  // connection only reads pushed frames (next_stream_frame); request_frame
  // fails.
  util::Status subscribe_stream(compress::QualityClass quality,
                                FrameStreamOptions options = {});
  // Assemble the next pushed frame (tile-store misses are recovered via
  // full-tile fallback transparently). Requires subscribe_stream first.
  util::Result<render::Image> next_stream_frame(double timeout_seconds = 5.0,
                                                const std::function<void()>& pump = {});
  // The receiver assembling this connection's frames (pulled or pushed):
  // nullptr until the first pull or subscribe_stream; exposes cache
  // hit/miss stats.
  [[nodiscard]] const FrameStreamReceiver* stream_receiver() const { return receiver_.get(); }

  // Scene interaction: create this user's avatar (returns its node id once
  // the data service echoes the committed update), move it, edit objects.
  // The avatar spawns at `initial_view`'s eye, pointing along its view.
  util::Result<scene::NodeId> create_avatar(const std::string& user_name,
                                            double timeout_seconds = 5.0,
                                            const std::function<void()>& pump = {},
                                            const scene::Camera& initial_view = {});
  util::Status move_avatar(scene::NodeId avatar, const scene::Camera& camera);
  util::Status send_update(scene::SceneUpdate update);

  void disconnect();

 private:
  util::Clock* clock_;
  Fabric* fabric_;
  sim::MachineProfile profile_;
  net::ChannelPtr channel_;
  std::string session_;
  bool connected_ = false;
  std::unique_ptr<FrameStreamReceiver> receiver_;
  bool streaming_ = false;  // subscribe_stream called
  compress::QualityClass quality_ = compress::QualityClass::Workstation;
  uint32_t next_request_id_ = 1;
  FrameStats stats_;

  // Charge the device's modelled unpack/blit of `frame` to the clock
  // (Clock::charge: a virtual clock advances, a real one is not slept);
  // returns the seconds charged, which FrameStats::client_seconds reports.
  double present(const render::Image& frame);
};

}  // namespace rave::core
