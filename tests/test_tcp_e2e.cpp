// End-to-end over real TCP sockets: data service, render service and thin
// client in threads on loopback — the §4.3 socket data plane without any
// simulation. Kept small so CI stays fast.
//
// Service objects are single-threaded: once the pump thread starts, only
// it calls into the services. The render service bootstraps on this
// thread before that, and the commit count crosses back through an
// atomic the pump thread writes — the test_tcp_accept layout, so the
// suite runs clean under -DRAVE_SANITIZE=thread (`ctest -L tsan`).
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/render_service.hpp"
#include "core/thin_client.hpp"
#include "mesh/primitives.hpp"
#include "obs/trace.hpp"

namespace rave::core {
namespace {

TEST(TcpEndToEnd, BootstrapFrameAndEdit) {
  util::RealClock clock;
  TcpFabric fabric;

  DataService data(clock);
  scene::SceneTree tree;
  const scene::NodeId ball =
      tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 16, 12));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  auto data_ap = fabric.listen("data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); });
  ASSERT_TRUE(data_ap.ok()) << data_ap.error();

  RenderService render(clock, fabric);
  auto client_ap = render.listen_clients("clients");
  ASSERT_TRUE(client_ap.ok());
  ASSERT_EQ(client_ap.value().rfind("tcp:", 0), 0u);

  ASSERT_TRUE(render.connect_session(data_ap.value(), "demo").ok());
  for (int i = 0; i < 10000 && !render.bootstrapped("demo"); ++i) {
    if (data.pump() + render.pump() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(render.bootstrapped("demo"));

  std::atomic<bool> running{true};
  std::atomic<uint64_t> committed{0};
  std::thread pump_thread([&] {
    while (running.load()) {
      const size_t handled = data.pump() + render.pump();
      committed.store(data.committed_updates("demo"));
      if (handled == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  ThinClient client(clock, fabric);
  ASSERT_TRUE(client.connect(client_ap.value(), "demo").ok());
  scene::Camera cam;
  cam.eye = {0, 0, 3};
  auto frame = client.request_frame(cam, 64, 64, 5.0);
  ASSERT_TRUE(frame.ok()) << frame.error();
  EXPECT_EQ(frame.value().width, 64);
  EXPECT_LT(frame.value().pixel(32, 32)[2], 250);  // something rendered

  // A collaborative edit over the same sockets commits at the data service.
  ASSERT_TRUE(
      client.send_update(scene::SceneUpdate::set_transform(ball, util::Mat4::rotate_y(0.4f)))
          .ok());
  for (int i = 0; i < 4000 && committed.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  running = false;
  pump_thread.join();
  EXPECT_EQ(data.committed_updates("demo"), 1u);
}

// The trace context crosses a real socket: the client's root span and the
// render service's serving spans — recorded on different threads — land
// in one trace, stitched into a single frame timeline.
TEST(TcpEndToEnd, TracePropagatesAcrossSockets) {
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(true);

  util::RealClock clock;
  TcpFabric fabric;

  DataService data(clock);
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 16, 12));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  auto data_ap = fabric.listen("data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); });
  ASSERT_TRUE(data_ap.ok()) << data_ap.error();

  RenderService render(clock, fabric);
  auto client_ap = render.listen_clients("clients");
  ASSERT_TRUE(client_ap.ok());

  ASSERT_TRUE(render.connect_session(data_ap.value(), "demo").ok());
  for (int i = 0; i < 10000 && !render.bootstrapped("demo"); ++i) {
    if (data.pump() + render.pump() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(render.bootstrapped("demo"));

  std::atomic<bool> running{true};
  std::thread service_thread([&] {
    while (running.load()) {
      if (data.pump() + render.pump() == 0)
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  ThinClient client(clock, fabric);
  ASSERT_TRUE(client.connect(client_ap.value(), "demo").ok());
  scene::Camera cam;
  cam.eye = {0, 0, 3};
  auto frame = client.request_frame(cam, 64, 64, 5.0);
  ASSERT_TRUE(frame.ok()) << frame.error();

  running = false;
  service_thread.join();
  obs::Tracer::global().set_enabled(false);

  const auto spans = obs::Tracer::global().spans();
  const auto ids = obs::trace_ids(spans);
  ASSERT_EQ(ids.size(), 1u) << "client and service spans must share one trace";

  std::set<std::string> names;
  for (const auto& span : spans) {
    EXPECT_EQ(span.trace_id, ids[0]);
    names.insert(span.name);
  }
  // Both sides of the socket contributed: the client's root + decode, the
  // service's serving pipeline with the rasterizer stages inside it.
  for (const char* expected : {"frame", "decode", "serve_frame", "shade", "raster"})
    EXPECT_TRUE(names.count(expected) != 0) << "missing span: " << expected;

  const std::string timeline = obs::stitch_trace(spans, ids[0]);
  EXPECT_NE(timeline.find("frame"), std::string::npos);
  EXPECT_NE(timeline.find("serve_frame"), std::string::npos);
}

}  // namespace
}  // namespace rave::core
