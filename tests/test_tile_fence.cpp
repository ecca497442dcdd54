// Tile mode over real sockets with the assistant pumped on its own thread,
// the layout of a deployed render service and its helper. Every frame the
// requester dispatches the new camera's tile, renders its own tile, waits
// at most that long for the assistant's tile for *this* view and renders
// the tile itself otherwise: each frame must equal the monolithic render
// without any priming, and the assistant's tiles must actually be used.
// Run under -DRAVE_SANITIZE=thread (`ctest -L tsan`) to check that the
// requester's wait on the channel and the assistant's pump share nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/render_service.hpp"
#include "mesh/primitives.hpp"

namespace rave::core {
namespace {

TEST(TileFence, MovingCameraFramesMatchMonolithicWithAssistantOnItsOwnThread) {
  util::RealClock clock;
  TcpFabric fabric;

  DataService::Options data_options;
  data_options.auto_rebalance = false;
  DataService data(clock, data_options);
  scene::SceneTree tree;
  for (int i = 0; i < 3; ++i) {
    scene::MeshData ball = mesh::make_uv_sphere(0.45f, 48, 36);
    ball.base_color = {0.3f * static_cast<float>(i), 0.6f, 0.9f - 0.3f * static_cast<float>(i)};
    tree.add_child(scene::kRootNode, "ball" + std::to_string(i), std::move(ball),
                   util::Mat4::translate({0.6f * static_cast<float>(i - 1), 0, 0}));
  }
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  auto data_ap = fabric.listen("data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); });
  ASSERT_TRUE(data_ap.ok()) << data_ap.error();

  RenderService main(clock, fabric);
  RenderService assistant(clock, fabric);
  auto peer_ap = assistant.listen_peer("assist");
  ASSERT_TRUE(peer_ap.ok()) << peer_ap.error();

  // Bootstrap both replicas on this thread before the assistant's thread
  // starts; from then on only that thread touches `assistant`, and `data`
  // is no longer pumped (nothing in the scene changes).
  ASSERT_TRUE(main.connect_session(data_ap.value(), "demo").ok());
  ASSERT_TRUE(assistant.connect_session(data_ap.value(), "demo").ok());
  for (int i = 0; i < 10000 && !(main.bootstrapped("demo") && assistant.bootstrapped("demo"));
       ++i) {
    if (data.pump() + main.pump() + assistant.pump() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(main.bootstrapped("demo"));
  ASSERT_TRUE(assistant.bootstrapped("demo"));
  ASSERT_TRUE(main.enable_tile_assist("demo", {peer_ap.value()}).ok());

  std::atomic<bool> running{true};
  std::thread assistant_thread([&] {
    while (running.load()) {
      if (assistant.pump() == 0) std::this_thread::yield();
    }
  });

  constexpr int kFrames = 20;
  constexpr int kSize = 160;
  for (int i = 0; i < kFrames; ++i) {
    scene::Camera cam;
    const float angle = 0.15f * static_cast<float>(i);
    cam.eye = {2.6f * std::sin(angle), 0.4f, 2.6f * std::cos(angle)};
    (void)main.pump();
    auto frame = main.render_distributed("demo", cam, kSize, kSize);
    ASSERT_TRUE(frame.ok()) << frame.error();
    auto reference = main.render_console("demo", cam, kSize, kSize);
    ASSERT_TRUE(reference.ok()) << reference.error();
    EXPECT_EQ(frame.value().color(), reference.value().color()) << "frame " << i;
  }

  running = false;
  assistant_thread.join();
  const RenderService::Stats& stats = main.stats();
  EXPECT_GT(stats.remote_tiles_used, 0u);
  EXPECT_EQ(stats.remote_tiles_used + stats.locally_covered_tiles,
            static_cast<uint64_t>(kFrames));
  EXPECT_EQ(stats.stale_tiles_used, 0u);
}

}  // namespace
}  // namespace rave::core
