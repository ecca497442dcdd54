// Tile mode over real sockets with the assistant pumped on its own thread,
// the layout of a deployed render service and its helper. Every frame the
// requester dispatches the new camera's tile, renders its own tile, and
// waits for the assistant's tile for *this* view until one period at the
// target rate has passed (or as long as its own tile took, if longer),
// rendering the tile itself otherwise: each frame must equal the
// monolithic render without any priming, and the assistant's tiles must
// actually be used.
// Run under -DRAVE_SANITIZE=thread (`ctest -L tsan`) to check that the
// requester's wait on the channel and the assistant's pump share nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <thread>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/render_service.hpp"
#include "mesh/primitives.hpp"

namespace rave::core {
namespace {

class TileFence : public testing::Test {
 protected:
  // Bootstraps a main service (with `main_options`) and an assistant whose
  // results leave `assist_stall` seconds after it rendered them, then
  // starts the assistant's own thread.
  void start(RenderService::Options main_options = {}, double assist_stall = 0) {
    DataService::Options data_options;
    data_options.auto_rebalance = false;
    data_ = std::make_unique<DataService>(clock_, data_options);
    scene::SceneTree tree;
    for (int i = 0; i < 3; ++i) {
      scene::MeshData ball = mesh::make_uv_sphere(0.45f, 48, 36);
      ball.base_color = {0.3f * static_cast<float>(i), 0.6f, 0.9f - 0.3f * static_cast<float>(i)};
      tree.add_child(scene::kRootNode, "ball" + std::to_string(i), std::move(ball),
                     util::Mat4::translate({0.6f * static_cast<float>(i - 1), 0, 0}));
    }
    ASSERT_TRUE(data_->create_session("demo", std::move(tree)).ok());
    auto data_ap =
        fabric_.listen("data", [this](net::ChannelPtr ch) { data_->accept(std::move(ch)); });
    ASSERT_TRUE(data_ap.ok()) << data_ap.error();

    main_ = std::make_unique<RenderService>(clock_, fabric_, main_options);
    assistant_ = std::make_unique<RenderService>(clock_, fabric_);
    auto peer_ap = assistant_->listen_peer("assist");
    ASSERT_TRUE(peer_ap.ok()) << peer_ap.error();

    // Bootstrap both replicas on this thread before the assistant's thread
    // starts; from then on only that thread touches the assistant, and the
    // data service is no longer pumped (nothing in the scene changes).
    ASSERT_TRUE(main_->connect_session(data_ap.value(), "demo").ok());
    ASSERT_TRUE(assistant_->connect_session(data_ap.value(), "demo").ok());
    for (int i = 0;
         i < 10000 && !(main_->bootstrapped("demo") && assistant_->bootstrapped("demo")); ++i) {
      if (data_->pump() + main_->pump() + assistant_->pump() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(main_->bootstrapped("demo"));
    ASSERT_TRUE(assistant_->bootstrapped("demo"));
    ASSERT_TRUE(main_->enable_tile_assist("demo", {peer_ap.value()}).ok());
    assistant_->set_assist_stall(assist_stall);

    assistant_thread_ = std::thread([this] {
      while (running_.load()) {
        if (assistant_->pump() == 0) std::this_thread::yield();
      }
    });
  }

  void TearDown() override {
    running_ = false;
    if (assistant_thread_.joinable()) assistant_thread_.join();
  }

  // Renders `frames` orbiting frames through the assistant, each checked
  // against the monolithic render.
  void render_frames(int frames) {
    constexpr int kSize = 160;
    for (int i = 0; i < frames; ++i) {
      scene::Camera cam;
      const float angle = 0.15f * static_cast<float>(i);
      cam.eye = {2.6f * std::sin(angle), 0.4f, 2.6f * std::cos(angle)};
      (void)main_->pump();
      auto frame = main_->render_distributed("demo", cam, kSize, kSize);
      ASSERT_TRUE(frame.ok()) << frame.error();
      auto reference = main_->render_console("demo", cam, kSize, kSize);
      ASSERT_TRUE(reference.ok()) << reference.error();
      EXPECT_EQ(frame.value().color(), reference.value().color()) << "frame " << i;
    }
  }

  util::RealClock clock_;
  TcpFabric fabric_;
  std::unique_ptr<DataService> data_;
  std::unique_ptr<RenderService> main_;
  std::unique_ptr<RenderService> assistant_;
  std::atomic<bool> running_{true};
  std::thread assistant_thread_;
};

TEST_F(TileFence, MovingCameraFramesMatchMonolithicWithAssistantOnItsOwnThread) {
  ASSERT_NO_FATAL_FAILURE(start());
  constexpr int kFrames = 20;
  ASSERT_NO_FATAL_FAILURE(render_frames(kFrames));
  TearDown();
  const RenderService::Stats& stats = main_->stats();
  EXPECT_GT(stats.remote_tiles_used, 0u);
  EXPECT_EQ(stats.remote_tiles_used + stats.locally_covered_tiles,
            static_cast<uint64_t>(kFrames));
  EXPECT_EQ(stats.stale_tiles_used, 0u);
}

// An assistant much slower than the requester's own tile, but well inside
// one period at the target rate: its results leave 30 ms after it rendered
// them. Every frame must still show the assistant's tile, because a frame
// waits for its assistants up to one period and not merely as long as its
// own tile took; whether a tile is covered locally then does not depend on
// how busy the host's cores happen to be.
TEST_F(TileFence, AssistantSlowerThanTheLocalTileMakesEveryFrameWithinThePeriod) {
  RenderService::Options main_options;
  main_options.target_fps = 2;  // a 500 ms period
  ASSERT_NO_FATAL_FAILURE(start(main_options, /*assist_stall=*/0.03));
  constexpr int kFrames = 5;
  ASSERT_NO_FATAL_FAILURE(render_frames(kFrames));
  TearDown();
  const RenderService::Stats& stats = main_->stats();
  EXPECT_EQ(stats.remote_tiles_used, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(stats.locally_covered_tiles, 0u);
  EXPECT_EQ(stats.stale_tiles_used, 0u);
}

}  // namespace
}  // namespace rave::core
