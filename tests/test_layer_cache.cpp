// Layer reuse (render/layer_cache.hpp) is byte-identical to a full render.
// Seeded random edit sequences — avatar moves, payload swaps on prefix
// meshes, insertions, removals and reparents in the middle of the render
// list, a root transform edited through find_mutable, camera, size and
// region changes — are rendered through one LayerCache and compared after
// every step with render_tree: color and depth planes byte for byte, and
// the stats a full draw reports, which is what load accounting charges.
// Runs across SIMD levels x {serial, pool of 1, pool of 4}; the `tsan`
// label puts it in the ThreadSanitizer and forced-scalar lanes.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "core/grid.hpp"
#include "mesh/primitives.hpp"
#include "render/layer_cache.hpp"
#include "render/rasterizer.hpp"
#include "render/render_list.hpp"
#include "scene/camera.hpp"
#include "sim/perf_model.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace rave::render {
namespace {

using scene::Camera;
using scene::kRootNode;
using scene::NodeId;
using scene::SceneTree;
using util::Mat4;
using util::SimdLevel;
using util::Vec3;

struct LevelGuard {
  SimdLevel saved = util::active_simd_level();
  ~LevelGuard() { util::set_simd_level(saved); }
};

scene::MeshData colored(scene::MeshData mesh, const Vec3& color) {
  mesh.base_color = color;
  return mesh;
}

scene::AvatarData avatar(const std::string& user) {
  scene::AvatarData a;
  a.user_name = user;
  a.size = 0.5f;
  return a;
}

// A big mesh first (the "hand"), a group with a box and a point cloud in
// the middle of the list, then the collaborators' avatars at the end.
struct Scene {
  SceneTree tree;
  NodeId big = 0, middle = 0, box = 0, cloud = 0, other_group = 0;
  std::vector<NodeId> avatars;
  std::vector<NodeId> added;  // inserted by the edits, removable again
};

Scene make_scene() {
  Scene s;
  s.big = s.tree.add_child(kRootNode, "big", colored(mesh::make_uv_sphere(0.9f, 40, 30), {0.8f, 0.6f, 0.5f}));
  s.middle = s.tree.add_child(kRootNode, "middle", std::monostate{}, Mat4::translate({0.2f, 0.1f, 0.3f}));
  s.box = s.tree.add_child(s.middle, "box", colored(mesh::make_box({0.4f, 0.3f, 0.2f}, 2), {0.2f, 0.5f, 0.9f}));
  scene::PointCloudData cloud;
  cloud.point_size = 3.0f;
  for (int i = 0; i < 150; ++i) {
    const float t = static_cast<float>(i) * 0.05f;
    cloud.positions.push_back({std::sin(t * 3.0f), std::cos(t * 2.0f), 0.5f * std::sin(t)});
  }
  s.cloud = s.tree.add_child(s.middle, "cloud", std::move(cloud));
  s.other_group = s.tree.add_child(kRootNode, "other", std::monostate{}, Mat4::translate({-0.3f, 0, 0}));
  for (int i = 0; i < 3; ++i)
    s.avatars.push_back(s.tree.add_child(kRootNode, "avatar" + std::to_string(i),
                                         avatar("user" + std::to_string(i)),
                                         Mat4::translate({-0.6f + 0.6f * static_cast<float>(i), 0.5f, 1.2f})));
  return s;
}

Camera front_camera() {
  Camera cam;
  cam.eye = {0, 0, 4};
  return cam;
}

Mat4 random_pose(std::mt19937& rng) {
  std::uniform_real_distribution<float> u(-0.8f, 0.8f);
  return Mat4::translate({u(rng), u(rng), 1.0f + 0.5f * u(rng)}) * Mat4::rotate_y(u(rng));
}

// One seeded edit; returns its name for failure messages.
std::string edit(Scene& s, std::mt19937& rng, Camera& cam, int& width, int& height, Tile& region) {
  std::uniform_int_distribution<int> pick(0, 11);
  std::uniform_real_distribution<float> u(-1.0f, 1.0f);
  switch (pick(rng)) {
    case 0:
    case 1:
    case 2:
    case 3: {  // the collaborative case: one avatar moves
      const NodeId who = s.avatars[static_cast<size_t>(rng() % s.avatars.size())];
      (void)s.tree.set_transform(who, random_pose(rng));
      return "avatar move";
    }
    case 4:
      return "no edit";
    case 5: {  // a prefix mesh gets a new payload
      const float k = 0.2f + 0.3f * std::abs(u(rng));
      (void)s.tree.set_payload(s.box, colored(mesh::make_box({k, 0.3f, 0.2f}, 2), {0.9f, 0.4f, k}));
      return "set_payload on a prefix mesh";
    }
    case 6: {  // insert in the middle of the list
      const NodeId id = s.tree.add_child(s.middle, "inserted",
                                         colored(mesh::make_uv_sphere(0.2f, 8, 6), {0.3f, 0.9f, 0.3f}),
                                         Mat4::translate({u(rng), u(rng), 0.5f}));
      s.added.push_back(id);
      return "add in the middle";
    }
    case 7: {  // remove from the middle of the list
      if (s.added.empty()) return "no edit";
      const size_t i = static_cast<size_t>(rng() % s.added.size());
      (void)s.tree.remove_node(s.added[i]);
      s.added.erase(s.added.begin() + static_cast<std::ptrdiff_t>(i));
      return "remove from the middle";
    }
    case 8: {  // reparent between the two groups
      const NodeId target = s.tree.find(s.cloud)->parent == s.middle ? s.other_group : s.middle;
      (void)s.tree.reparent(s.cloud, target);
      return "reparent";
    }
    case 9: {  // the root transform, edited in place through find_mutable
      s.tree.find_mutable(kRootNode)->transform = Mat4::rotate_y(0.2f * u(rng));
      return "root transform via find_mutable";
    }
    case 10: {
      cam.orbit(0.1f * u(rng), 0.05f * u(rng));
      return "camera";
    }
    default: {
      if (rng() % 2 == 0) {
        width = width == 96 ? 80 : 96;
        height = height == 72 ? 64 : 72;
        region = Tile{};
        return "size";
      }
      region = region.width == 0 ? Tile{16, 8, 48, 40} : Tile{};
      return "region";
    }
  }
}

void expect_same_stats(const RenderStats& got, const RenderStats& want, const std::string& what) {
  EXPECT_EQ(got.triangles_submitted, want.triangles_submitted) << what;
  EXPECT_EQ(got.triangles_rasterized, want.triangles_rasterized) << what;
  EXPECT_EQ(got.pixels_shaded, want.pixels_shaded) << what;
  EXPECT_EQ(got.points_submitted, want.points_submitted) << what;
  EXPECT_EQ(got.nodes_culled, want.nodes_culled) << what;
}

struct Lane {
  SimdLevel level;
  int threads;  // 0 = serial
};

class LayerReuse : public ::testing::TestWithParam<Lane> {};

TEST_P(LayerReuse, RandomEditsMatchFullRender) {
  const Lane lane = GetParam();
  LevelGuard guard;
  util::set_simd_level(lane.level);
  if (util::active_simd_level() != lane.level) GTEST_SKIP() << "SIMD level not on this host";
  std::unique_ptr<util::ThreadPool> pool;
  if (lane.threads > 0) pool = std::make_unique<util::ThreadPool>(lane.threads);

  uint64_t hits = 0, misses = 0;
  for (const uint32_t seed : {1u, 2u, 3u}) {
    std::mt19937 rng(seed);
    Scene s = make_scene();
    LayerCache cache;
    Camera cam = front_camera();
    int width = 96, height = 72;
    Tile region{};
    for (int step = 0; step < 60; ++step) {
      const std::string what = "seed " + std::to_string(seed) + " step " + std::to_string(step) +
                               " after " + edit(s, rng, cam, width, height, region);
      RenderOptions opts;
      opts.region = region;
      opts.pool = pool.get();
      RenderStats want_stats;
      const FrameBuffer want = render_tree(s.tree, cam, width, height, opts, &want_stats);

      Rasterizer raster(width, height);
      const float aspect = static_cast<float>(width) / static_cast<float>(height);
      const RenderList list = build_render_list(s.tree, cam, aspect);
      if (cache.draw(raster, list, cam, opts)) {
        ++hits;
      } else {
        ++misses;
      }
      ASSERT_EQ(raster.framebuffer().color(), want.color()) << what << ": color plane differs";
      ASSERT_EQ(raster.framebuffer().depth(), want.depth()) << what << ": depth plane differs";
      expect_same_stats(raster.stats(), want_stats, what);
    }
  }
  // Both paths ran: the sequence is not all misses (nothing cached) nor
  // all hits (nothing checked against a changed prefix).
  EXPECT_GT(hits, 20u);
  EXPECT_GT(misses, 20u);
}

TEST(LayerReuseCache, FixedViewRedrawsOnlyTheChangedSuffix) {
  Scene s = make_scene();
  LayerCache cache;
  Camera cam = front_camera();
  const auto draw = [&](Rasterizer& raster) {
    return cache.draw(raster, build_render_list(s.tree, cam, 96.0f / 72.0f), cam, {});
  };
  obs::Counter& submitted =
      obs::MetricsRegistry::global().counter("rave_raster_triangles_submitted_total");
  const uint64_t cone = scene::make_avatar_mesh(avatar("user0")).triangle_count();
  RenderStats full;
  Rasterizer first(96, 72), moved(96, 72), second(96, 72), third(96, 72), fourth(96, 72);
  EXPECT_FALSE(draw(first));  // nothing cached yet; snapshots for this view
  // Another view: a miss that takes no snapshot, so the next miss under
  // this view diffs against a previous render of the same view.
  cam.eye = {0.4f, 0.2f, 3.9f};
  EXPECT_FALSE(draw(moved));
  (void)s.tree.set_transform(s.avatars[2], Mat4::translate({-0.1f, 0.3f, 1.1f}));
  // Same view: snapshots the prefix before avatar 2, backed up over the
  // cheap avatars 0 and 1 to end after the point cloud.
  EXPECT_FALSE(draw(second));
  (void)s.tree.set_transform(s.avatars[2], Mat4::translate({0.1f, 0.2f, 1.0f}));
  uint64_t before = submitted.value();
  EXPECT_TRUE(draw(third));
  // Only the avatars' cones reached the rasterizer; the stats still count
  // the whole list.
  EXPECT_EQ(submitted.value() - before, 3 * cone);
  (void)render_tree(s.tree, cam, 96, 72, {}, &full);
  EXPECT_EQ(third.stats().triangles_submitted, full.triangles_submitted);
  // Avatar 0 sits before the split the snapshot was taken at, and its
  // move still hits.
  (void)s.tree.set_transform(s.avatars[0], Mat4::translate({-0.5f, 0.4f, 1.1f}));
  before = submitted.value();
  EXPECT_TRUE(draw(fourth));
  EXPECT_EQ(submitted.value() - before, 3 * cone);
  const FrameBuffer want = render_tree(s.tree, cam, 96, 72, {}, &full);
  EXPECT_EQ(fourth.framebuffer().color(), want.color());
  EXPECT_EQ(fourth.framebuffer().depth(), want.depth());
  EXPECT_EQ(fourth.stats().triangles_submitted, full.triangles_submitted);
}

// A replica's first render has no previous render to diff against, so it
// snapshots its whole list, backed up over the cheap trailing items: the
// first edit under the same view then redraws only those, where a cache
// that waited for a second render to diff would re-raster everything once.
// A later miss under another view takes no snapshot (an orbiting camera
// never copies planes), so the first layer stays for the first view.
TEST(LayerReuseCache, FirstRenderSnapshotsSoTheFirstEditHits) {
  Scene s = make_scene();
  LayerCache cache;
  const Camera cam = front_camera();
  const auto draw = [&](Rasterizer& raster, const Camera& c) {
    return cache.draw(raster, build_render_list(s.tree, c, 96.0f / 72.0f), c, {});
  };
  const auto expect_full = [&](const Rasterizer& raster, const Camera& c, const std::string& what) {
    RenderStats full;
    const FrameBuffer want = render_tree(s.tree, c, 96, 72, {}, &full);
    EXPECT_EQ(raster.framebuffer().color(), want.color()) << what;
    EXPECT_EQ(raster.framebuffer().depth(), want.depth()) << what;
    expect_same_stats(raster.stats(), full, what);
  };
  obs::Counter& submitted =
      obs::MetricsRegistry::global().counter("rave_raster_triangles_submitted_total");
  const uint64_t cone = scene::make_avatar_mesh(avatar("user0")).triangle_count();

  Rasterizer first(96, 72);
  EXPECT_FALSE(draw(first, cam));
  expect_full(first, cam, "first render");

  // The layer ends after avatar 0 (avatars 1 and 2 are within 1/32 of the
  // list's work), so moving avatar 2 redraws only avatars 1 and 2.
  (void)s.tree.set_transform(s.avatars[2], Mat4::translate({0.4f, 0.6f, 1.0f}));
  Rasterizer edited(96, 72);
  uint64_t before = submitted.value();
  EXPECT_TRUE(draw(edited, cam));
  EXPECT_EQ(submitted.value() - before, 2 * cone);
  expect_full(edited, cam, "first edit");

  Camera moved = cam;
  moved.eye = {0.4f, 0.2f, 3.9f};
  Rasterizer orbit(96, 72);
  EXPECT_FALSE(draw(orbit, moved));
  expect_full(orbit, moved, "moved camera");

  (void)s.tree.set_transform(s.avatars[1], Mat4::translate({0.1f, 0.6f, 1.0f}));
  Rasterizer back(96, 72);
  before = submitted.value();
  EXPECT_TRUE(draw(back, cam));
  EXPECT_EQ(submitted.value() - before, 2 * cone);
  expect_full(back, cam, "first view again");
}

std::vector<Lane> lanes() {
  std::vector<Lane> out;
  for (const SimdLevel level : {SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon})
    for (const int threads : {0, 1, 4}) out.push_back({level, threads});
  return out;
}

INSTANTIATE_TEST_SUITE_P(SimdByPool, LayerReuse, ::testing::ValuesIn(lanes()),
                         [](const ::testing::TestParamInfo<Lane>& info) {
                           return std::string(util::simd_level_name(info.param.level)) +
                                  (info.param.threads == 0
                                       ? std::string("_serial")
                                       : "_pool" + std::to_string(info.param.threads));
                         });

}  // namespace
}  // namespace rave::render

namespace rave::core {
namespace {

using scene::Camera;
using scene::kRootNode;
using scene::NodeId;
using scene::SceneTree;
using util::Mat4;

// Through the render service: a replica whose avatars move under a fixed
// camera hits its layer, every frame equals render_tree of the replica,
// and the frame is charged the triangles of the whole list.
TEST(LayerReuseService, AvatarMovesHitAndChargeFullFrames) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  SceneTree tree;
  tree.add_child(kRootNode, "big", mesh::make_uv_sphere(0.9f, 40, 30));
  std::vector<NodeId> avatars;
  for (int i = 0; i < 2; ++i)
    avatars.push_back(tree.add_child(kRootNode, "avatar" + std::to_string(i),
                                     render::avatar("u" + std::to_string(i)),
                                     Mat4::translate({-0.5f + static_cast<float>(i), 0.4f, 1.2f})));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  RenderService& render = grid.add_render_service("laptop");
  ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());

  obs::Counter& hit_counter = obs::MetricsRegistry::global().counter(
      "rave_render_layer_total", {{"host", render.options().profile.name}, {"outcome", "hit"}});
  const uint64_t hits_before = hit_counter.value();
  const Camera cam = render::front_camera();
  std::mt19937 rng(11);
  for (int frame = 0; frame < 12; ++frame) {
    if (frame > 0) {
      ASSERT_TRUE(render
                      .submit_update("demo", scene::SceneUpdate::set_transform(
                                                 avatars[static_cast<size_t>(frame % 2)],
                                                 render::random_pose(rng)))
                      .ok());
      grid.pump_until_idle();
    }
    auto got = render.render_console("demo", cam, 80, 60);
    ASSERT_TRUE(got.ok()) << got.error();
    render::RenderOptions opts;
    opts.region = render::Tile{0, 0, 80, 60};
    render::RenderStats full;
    const render::FrameBuffer want = render::render_tree(*render.replica("demo"), cam, 80, 60, opts, &full);
    ASSERT_EQ(got.value().color(), want.color()) << "frame " << frame;
    ASSERT_EQ(got.value().depth(), want.depth()) << "frame " << frame;
    const sim::MachineProfile& profile = render.options().profile;
    EXPECT_DOUBLE_EQ(render.last_frame_seconds(),
                     sim::offscreen_sequential_seconds(profile, full.triangles_submitted, 80 * 60) +
                         sim::volume_march_seconds(profile, 0, 0))
        << "frame " << frame;
  }
  // Frame 0 has no previous render and snapshots its whole list, backed up
  // over both avatars to the big mesh alone, so every later move of either
  // avatar hits.
  EXPECT_EQ(render.stats().layer_hits, 11u);
  EXPECT_EQ(render.stats().layer_hits + render.stats().layer_misses, 12u);
  EXPECT_EQ(hit_counter.value() - hits_before, render.stats().layer_hits);
}

}  // namespace
}  // namespace rave::core
