// Determinism of pooled rendering: with a pool the renderer must produce
// byte-identical color *and* depth planes to the serial path for every
// thread count, every payload kind, and partial regions — that
// bit-exactness is what makes the paper's distributed tile/subset
// compositing testable. Since vertex shading is the only pooled raster
// stage, these also pin the render services' default: every service
// shares util::ThreadPool::shared(), and two services rendering on two
// threads through it still equal the serial render. These tests carry the
// `tsan` ctest label so a -DRAVE_SANITIZE=thread build can run them
// instrumented.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/grid.hpp"
#include "mesh/fields.hpp"
#include "mesh/primitives.hpp"
#include "render/compositor.hpp"
#include "render/rasterizer.hpp"
#include "render/raycast.hpp"
#include "render/render_list.hpp"
#include "scene/camera.hpp"
#include "sim/perf_model.hpp"
#include "util/thread_pool.hpp"

namespace rave::render {
namespace {

using mesh::make_box;
using mesh::make_uv_sphere;
using scene::Camera;
using scene::SceneTree;
using util::ThreadPool;
using util::Vec3;

// Mesh + point-cloud + avatar payloads, overlapping in depth so the
// z-pass order actually matters.
SceneTree payload_scene() {
  SceneTree tree;
  scene::MeshData ball = make_uv_sphere(0.9f, 24, 16);
  ball.base_color = {0.8f, 0.2f, 0.2f};
  tree.add_child(scene::kRootNode, "ball", std::move(ball),
                 util::Mat4::translate({-0.4f, 0.0f, 0.0f}));

  scene::MeshData slab = make_box({1.2f, 0.8f, 0.05f}, 1);
  slab.base_color = {0.2f, 0.4f, 0.9f};
  tree.add_child(scene::kRootNode, "slab", std::move(slab),
                 util::Mat4::translate({0.3f, 0.1f, -0.5f}));

  scene::PointCloudData cloud;
  cloud.point_size = 5.0f;
  for (int i = 0; i < 200; ++i) {
    const float t = static_cast<float>(i) * 0.031f;
    cloud.positions.push_back({1.2f * std::sin(t * 7.0f), 1.2f * std::cos(t * 5.0f),
                               0.8f * std::sin(t * 3.0f)});
    cloud.colors.push_back({0.5f + 0.5f * std::sin(t), 0.7f, 0.5f + 0.5f * std::cos(t)});
  }
  tree.add_child(scene::kRootNode, "cloud", std::move(cloud));

  scene::AvatarData avatar;
  avatar.user_name = "collab@host";
  avatar.size = 0.6f;
  tree.add_child(scene::kRootNode, "avatar", avatar,
                 util::Mat4::translate({0.2f, -0.6f, 0.7f}));
  return tree;
}

Camera front_camera() {
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  return cam;
}

void expect_identical(const FrameBuffer& a, const FrameBuffer& b, const std::string& what) {
  EXPECT_EQ(a.color(), b.color()) << what << ": color plane differs";
  EXPECT_EQ(a.depth(), b.depth()) << what << ": depth plane differs";
}

TEST(ParallelRaster, PoolRendersByteIdenticalToSerial) {
  const SceneTree tree = payload_scene();
  const Camera cam = front_camera();
  RenderStats serial_stats;
  const FrameBuffer serial = render_tree(tree, cam, 200, 150, {}, &serial_stats);
  EXPECT_GT(serial_stats.triangles_rasterized, 0u);
  EXPECT_GT(serial_stats.pixels_shaded, 0u);

  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    RenderOptions opts;
    opts.pool = &pool;
    RenderStats stats;
    const FrameBuffer parallel = render_tree(tree, cam, 200, 150, opts, &stats);
    expect_identical(serial, parallel, std::to_string(threads) + " threads");
    // Pooled shading changes no count.
    EXPECT_EQ(stats.triangles_submitted, serial_stats.triangles_submitted);
    EXPECT_EQ(stats.triangles_rasterized, serial_stats.triangles_rasterized);
    EXPECT_EQ(stats.pixels_shaded, serial_stats.pixels_shaded);
    EXPECT_EQ(stats.points_submitted, serial_stats.points_submitted);
  }
}

TEST(ParallelRaster, PartialRegionMatchesSerialAndFullFrame) {
  const SceneTree tree = payload_scene();
  const Camera cam = front_camera();
  // Deliberately not aligned to the 64-px stream tile grid.
  const Tile region{17, 9, 111, 93};
  RenderOptions serial_opts;
  serial_opts.region = region;
  Rasterizer serial(160, 120);
  serial.clear(serial_opts);
  serial.draw_list(build_render_list(tree, cam, 160.0f / 120.0f), cam, serial_opts);

  ThreadPool pool(4);
  RenderOptions pool_opts = serial_opts;
  pool_opts.pool = &pool;
  Rasterizer parallel(160, 120);
  parallel.clear(pool_opts);
  parallel.draw_list(build_render_list(tree, cam, 160.0f / 120.0f), cam, pool_opts);
  expect_identical(serial.framebuffer(), parallel.framebuffer(), "partial region");

  // Inside the region both must match the full-frame render bit-exactly
  // (tile alignment, paper §3.1.2).
  const FrameBuffer full = render_tree(tree, cam, 160, 120);
  const FrameBuffer cut = full.extract(region);
  const FrameBuffer cut_parallel = parallel.framebuffer().extract(region);
  expect_identical(cut, cut_parallel, "region vs full frame");
}

TEST(ParallelRaster, DepthCompositeWithPoolMatchesSerial) {
  const SceneTree tree = payload_scene();
  const Camera cam = front_camera();
  const FrameBuffer a = render_tree(tree, cam, 96, 96);
  Camera other = cam;
  other.eye = {0.3f, 0.1f, 3.8f};
  const FrameBuffer b = render_tree(tree, other, 96, 96);

  FrameBuffer serial = a;
  ASSERT_TRUE(depth_composite(serial, b).ok());
  ThreadPool pool(4);
  FrameBuffer parallel = a;
  ASSERT_TRUE(depth_composite(parallel, b, &pool).ok());
  expect_identical(serial, parallel, "depth composite");
}

TEST(RenderStats, MergeAccumulatesEveryField) {
  RenderStats a;
  a.triangles_submitted = 10;
  a.triangles_rasterized = 7;
  a.pixels_shaded = 1000;
  a.points_submitted = 3;
  a.nodes_culled = 2;
  RenderStats b;
  b.triangles_submitted = 5;
  b.triangles_rasterized = 4;
  b.pixels_shaded = 500;
  b.points_submitted = 8;
  b.nodes_culled = 1;
  a += b;
  EXPECT_EQ(a.triangles_submitted, 15u);
  EXPECT_EQ(a.triangles_rasterized, 11u);
  EXPECT_EQ(a.pixels_shaded, 1500u);
  EXPECT_EQ(a.points_submitted, 11u);
  EXPECT_EQ(a.nodes_culled, 3u);
  // Merging an empty stats object is the identity.
  RenderStats before = a;
  a += RenderStats{};
  EXPECT_EQ(a.pixels_shaded, before.pixels_shaded);
  EXPECT_EQ(a.triangles_submitted, before.triangles_submitted);
}

}  // namespace
}  // namespace rave::render

namespace rave::core {
namespace {

using scene::Camera;
using scene::SceneTree;
using util::ThreadPool;

TEST(SharedPool, DefaultRenderOptionsCarryTheSharedPool) {
  ThreadPool& shared = ThreadPool::shared();
  EXPECT_EQ(&shared, &ThreadPool::shared());  // one pool per process
  EXPECT_EQ(RenderService::Options{}.pool, &shared);
  // The caller of parallel_for is the last core.
  EXPECT_EQ(shared.size(), std::max(2u, std::thread::hardware_concurrency()) - 1);
}

// A mesh in front of a volume, as in a volume-assist session: both render
// backends run on the pool.
SceneTree mesh_and_volume_scene() {
  SceneTree tree;
  scene::Aabb bounds;
  bounds.extend({-1, -1, -1});
  bounds.extend({1, 1, 1});
  scene::VoxelGridData volume =
      mesh::rasterize_field(mesh::ball_field({0.2f, 0, 0}, 0.9f), bounds, 24, 24, 24);
  volume.iso_low = 0.05f;
  volume.opacity_scale = 3.0f;
  tree.add_child(scene::kRootNode, "scan", std::move(volume));
  scene::MeshData ship = mesh::make_uv_sphere(0.4f, 48, 32);
  ship.base_color = {0.9f, 0.6f, 0.2f};
  tree.add_child(scene::kRootNode, "ship", std::move(ship),
                 util::Mat4::translate({0.5f, -0.3f, 0.9f}));
  return tree;
}

// Two render services, each pumped by its own thread as the main service
// and its assistant are in a volume-assist session, render through the one
// shared pool at once. Every frame must equal the serial render_tree +
// raycast_list in color and depth, and the service must count and charge
// the serial render's stats.
TEST(SharedPool, TwoServicesOnTwoThreadsRenderLikeSerial) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  ASSERT_TRUE(data.create_session("demo", mesh_and_volume_scene()).ok());
  RenderService& main = grid.add_render_service("main");
  RenderService& assistant = grid.add_render_service("assistant");
  ASSERT_TRUE(grid.join("main", "datahost", "demo").ok());
  ASSERT_TRUE(grid.join("assistant", "datahost", "demo").ok());
  ASSERT_EQ(main.options().pool, &ThreadPool::shared());
  ASSERT_EQ(assistant.options().pool, &ThreadPool::shared());

  // From here on each service is touched only by its own thread.
  constexpr int kFrames = 6;
  constexpr int kWidth = 96, kHeight = 72;
  const auto drive = [&](RenderService& svc, float phase, std::vector<std::string>& failures) {
    const SceneTree& replica = *svc.replica("demo");
    const sim::MachineProfile& profile = svc.options().profile;
    for (int i = 0; i < kFrames; ++i) {
      Camera cam;
      const float angle = phase + 0.3f * static_cast<float>(i);
      cam.eye = {3.2f * std::sin(angle), 0.5f, 3.2f * std::cos(angle)};
      const uint64_t rays_before = svc.stats().volume_rays;
      const uint64_t skips_before = svc.stats().bricks_skipped;
      auto got = svc.render_console("demo", cam, kWidth, kHeight);
      const std::string what = "frame " + std::to_string(i) + " phase " + std::to_string(phase);
      if (!got.ok()) {
        failures.push_back(what + ": " + got.error());
        continue;
      }

      render::RenderOptions opts;
      opts.region = render::Tile{0, 0, kWidth, kHeight};
      render::RenderStats raster;
      render::FrameBuffer want = render::render_tree(replica, cam, kWidth, kHeight, opts, &raster);
      render::RaycastOptions ray_opts;
      ray_opts.region = opts.region;
      const render::RenderList list = render::build_render_list(
          replica, cam, static_cast<float>(kWidth) / static_cast<float>(kHeight));
      const render::RenderStats volume = render::raycast_list(want, list, cam, ray_opts);

      if (raster.triangles_rasterized == 0 || volume.rays_cast == 0)
        failures.push_back(what + ": a backend drew nothing");
      if (got.value().color() != want.color()) failures.push_back(what + ": color differs");
      if (got.value().depth() != want.depth()) failures.push_back(what + ": depth differs");
      if (svc.stats().volume_rays - rays_before != volume.rays_cast ||
          svc.stats().bricks_skipped - skips_before != volume.bricks_skipped)
        failures.push_back(what + ": volume stats differ");
      const double charged =
          sim::offscreen_sequential_seconds(profile, raster.triangles_submitted,
                                            static_cast<uint64_t>(kWidth) * kHeight) +
          sim::volume_march_seconds(profile, volume.rays_cast, volume.volume_samples);
      if (svc.last_frame_seconds() != charged) failures.push_back(what + ": charge differs");
    }
  };
  std::vector<std::string> main_failures, assistant_failures;
  std::thread main_thread([&] { drive(main, 0.0f, main_failures); });
  std::thread assistant_thread([&] { drive(assistant, 1.3f, assistant_failures); });
  main_thread.join();
  assistant_thread.join();
  for (const std::string& f : main_failures) ADD_FAILURE() << "main " << f;
  for (const std::string& f : assistant_failures) ADD_FAILURE() << "assistant " << f;
  EXPECT_EQ(main.stats().frames_rendered, static_cast<uint64_t>(kFrames));
  EXPECT_EQ(assistant.stats().frames_rendered, static_cast<uint64_t>(kFrames));
}

}  // namespace
}  // namespace rave::core
