// Property suite for the fast volume path (DESIGN.md "Fast volume path"):
// the macro-cell–skipping, SIMD-packet ray marcher must be byte-identical
// to the brute-force scalar march across {serial, pooled} × {scalar, every
// supported SIMD level} × {brick-skipped, brute} × {culled, unculled}, the
// depth plane must record thin volumes so later geometry composites behind
// them, and the measured rays/s cost model must survive the wire and show
// up in migration explains. Carries the `raycast` and `tsan` ctest labels
// so sanitizer builds exercise the pooled marcher.
#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "core/migration.hpp"
#include "core/protocol.hpp"
#include "mesh/fields.hpp"
#include "mesh/primitives.hpp"
#include "render/rasterizer.hpp"
#include "render/raycast.hpp"
#include "render/render_list.hpp"
#include "scene/bricks.hpp"
#include "scene/camera.hpp"
#include "scene/update.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace rave {
namespace {

using render::FrameBuffer;
using render::Rasterizer;
using render::RaycastOptions;
using render::RenderStats;
using scene::Camera;
using scene::SceneTree;
using scene::VoxelGridData;
using util::SimdLevel;
using util::Vec3;

// --- fixtures ---------------------------------------------------------------

Camera front_camera() {
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  return cam;
}

VoxelGridData ball_grid(uint32_t n, const Vec3& center = {0.2f, 0, 0}, float radius = 0.9f) {
  scene::Aabb bounds;
  bounds.extend({-1, -1, -1});
  bounds.extend({1, 1, 1});
  VoxelGridData grid = mesh::rasterize_field(mesh::ball_field(center, radius), bounds, n, n, n);
  grid.iso_low = 0.05f;
  grid.opacity_scale = 3.0f;
  return grid;
}

// Mostly-empty volume: a small off-centre ball in a 32^3 grid, so whole
// bricks are transparent — the empty-space-skipping headline case.
VoxelGridData sparse_grid() { return ball_grid(32, {0.55f, 0.55f, 0.55f}, 0.35f); }

VoxelGridData empty_grid(uint32_t n) {
  VoxelGridData grid;
  grid.nx = grid.ny = grid.nz = n;
  grid.origin = {-1, -1, -1};
  const float s = 2.0f / static_cast<float>(n - 1);
  grid.spacing = {s, s, s};
  grid.values.assign(grid.voxel_count(), 0.0f);
  grid.iso_low = 0.05f;
  grid.opacity_scale = 3.0f;
  return grid;
}

// Hot voxels sitting exactly on 8^3 brick boundaries: the support-expanded
// min/max must keep the bricks on *both* sides of the seam opaque.
VoxelGridData brick_boundary_grid() {
  VoxelGridData grid = empty_grid(32);
  grid.at(7, 7, 7) = 1.0f;
  grid.at(8, 8, 8) = 1.0f;
  grid.at(16, 7, 16) = 1.0f;
  grid.at(31, 31, 31) = 1.0f;  // grid corner = brick corner
  grid.at(0, 16, 0) = 1.0f;
  return grid;
}

VoxelGridData random_grid(uint32_t n, uint32_t seed) {
  VoxelGridData grid = empty_grid(n);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dense(0.0f, 1.0f);
  for (float& v : grid.values) {
    const float u = dense(rng);
    // ~70% of voxels below iso_low, the rest spread up to full density.
    v = u < 0.7f ? u * 0.05f : (u - 0.7f) * 3.0f;
  }
  return grid;
}

std::pair<FrameBuffer, RenderStats> render_volume(const VoxelGridData& grid,
                                                  const RaycastOptions& options,
                                                  const Camera& cam = front_camera()) {
  FrameBuffer fb(96, 72);
  fb.clear({0, 0, 0});
  RenderStats st = render::raycast_volume(fb, grid, util::Mat4::identity(), cam, options);
  return {std::move(fb), st};
}

void expect_identical(const FrameBuffer& a, const FrameBuffer& b, const std::string& what) {
  EXPECT_EQ(a.color(), b.color()) << what << ": color plane differs";
  EXPECT_EQ(a.depth(), b.depth()) << what << ": depth plane differs";
}

std::vector<SimdLevel> supported_levels() {
  const SimdLevel before = util::active_simd_level();
  std::vector<SimdLevel> out{SimdLevel::Scalar};
  for (const SimdLevel l : {SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon}) {
    util::set_simd_level(l);
    if (util::active_simd_level() == l) out.push_back(l);
  }
  util::set_simd_level(before);
  return out;
}

struct LevelGuard {
  SimdLevel saved = util::active_simd_level();
  ~LevelGuard() { util::set_simd_level(saved); }
};

// --- brick skipping ---------------------------------------------------------

TEST(RaycastSkip, BruteVsSkipByteIdentical) {
  struct Case {
    std::string name;
    VoxelGridData grid;
  };
  const std::vector<Case> cases = {
      {"sparse", sparse_grid()},
      {"dense-ball", ball_grid(24)},
      {"ragged-20", ball_grid(20, {-0.3f, 0.4f, 0.1f}, 0.5f)},  // not a multiple of 8
      {"brick-boundary", brick_boundary_grid()},
      {"random", random_grid(32, 1234)},
      {"tiny-5", ball_grid(5)},  // smaller than one brick
  };
  for (const Case& c : cases) {
    RaycastOptions brute;
    brute.empty_skip = false;
    RaycastOptions skip;
    skip.empty_skip = true;
    const auto [fb_brute, st_brute] = render_volume(c.grid, brute);
    const auto [fb_skip, st_skip] = render_volume(c.grid, skip);
    expect_identical(fb_brute, fb_skip, c.name);
    // Skipping may only remove transparent samples, never shaded ones.
    EXPECT_EQ(st_brute.volume_samples, st_skip.volume_samples) << c.name;
    EXPECT_EQ(st_brute.rays_cast, st_skip.rays_cast) << c.name;
    EXPECT_EQ(st_brute.bricks_skipped, 0u) << c.name;
  }
}

TEST(RaycastSkip, SparseVolumeActuallySkips) {
  RaycastOptions skip;
  skip.empty_skip = true;
  const auto [fb, st] = render_volume(sparse_grid(), skip);
  EXPECT_GT(st.rays_cast, 0u);
  EXPECT_GT(st.bricks_skipped, 0u);
  EXPECT_GT(st.volume_samples, 0u);  // the ball still shades
}

TEST(RaycastSkip, MacroCellsCachedAndInvalidated) {
  VoxelGridData grid = empty_grid(16);
  const auto cells = grid.macro_cells();
  ASSERT_NE(cells, nullptr);
  EXPECT_EQ(cells.get(), grid.macro_cells().get());  // cached, not rebuilt
  for (float m : cells->max_v) EXPECT_LT(m, 0.05f);

  // Direct mutation + explicit invalidation rebuilds with the new bounds.
  grid.at(0, 0, 0) = 1.0f;
  grid.invalidate_macro_cells();
  const auto rebuilt = grid.macro_cells();
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(rebuilt.get(), cells.get());
  EXPECT_GT(rebuilt->max_v[0], 0.9f);
}

TEST(RaycastSkip, SetPayloadDropsStaleMacroCells) {
  SceneTree tree;
  const scene::NodeId vol = tree.add_child(scene::kRootNode, "volume", empty_grid(16));
  const auto* before = std::get_if<VoxelGridData>(&tree.find(vol)->payload);
  ASSERT_NE(before, nullptr);
  const auto stale = before->macro_cells();
  for (float m : stale->max_v) EXPECT_LT(m, 0.05f);

  // The scene/update path replaces the payload wholesale; the replacement
  // carries no cache, so the next render sees the hot voxel.
  VoxelGridData hot = empty_grid(16);
  hot.at(8, 8, 8) = 1.0f;
  ASSERT_TRUE(scene::SceneUpdate::set_payload(vol, hot).apply(tree).ok());
  const auto* after = std::get_if<VoxelGridData>(&tree.find(vol)->payload);
  ASSERT_NE(after, nullptr);
  const auto fresh = after->macro_cells();
  EXPECT_NE(fresh.get(), stale.get());
  float max_seen = 0;
  for (float m : fresh->max_v) max_seen = std::max(max_seen, m);
  EXPECT_GT(max_seen, 0.9f);
}

// --- SIMD packets × thread pool ---------------------------------------------

TEST(RaycastSimd, ScalarVsSimdSerialPooledByteIdentical) {
  const std::vector<VoxelGridData> grids = {ball_grid(24), sparse_grid(), random_grid(20, 77)};
  const auto levels = supported_levels();
  util::ThreadPool pool(4);
  LevelGuard guard;
  for (size_t gi = 0; gi < grids.size(); ++gi) {
    // Reference: scalar, serial, brute march.
    util::set_simd_level(SimdLevel::Scalar);
    RaycastOptions ref_opts;
    ref_opts.empty_skip = false;
    const auto [reference, ref_stats] = render_volume(grids[gi], ref_opts);
    ASSERT_GT(ref_stats.rays_cast, 0u);
    for (const SimdLevel level : levels) {
      util::set_simd_level(level);
      for (const bool pooled : {false, true}) {
        for (const bool skip : {false, true}) {
          RaycastOptions opts;
          opts.empty_skip = skip;
          opts.pool = pooled ? &pool : nullptr;
          const auto [fb, st] = render_volume(grids[gi], opts);
          const std::string what = "grid " + std::to_string(gi) + " level " +
                                   std::string(util::simd_level_name(level)) +
                                   (pooled ? " pooled" : " serial") +
                                   (skip ? " skip" : " brute");
          expect_identical(reference, fb, what);
          // Shaded-sample and ray counts are part of the contract: they
          // feed the rays/s cost model, so they must not drift with the
          // packet width or the thread count.
          EXPECT_EQ(st.volume_samples, ref_stats.volume_samples) << what;
          EXPECT_EQ(st.rays_cast, ref_stats.rays_cast) << what;
        }
      }
    }
  }
}

// --- frustum-culled render lists --------------------------------------------

SceneTree mixed_scene() {
  SceneTree tree;
  scene::MeshData ball = mesh::make_uv_sphere(0.7f, 20, 12);
  ball.base_color = {0.8f, 0.2f, 0.2f};
  tree.add_child(scene::kRootNode, "ball", std::move(ball),
                 util::Mat4::translate({-0.6f, 0.0f, 0.0f}));
  scene::MeshData slab = mesh::make_box({1.0f, 0.7f, 0.05f}, 1);
  slab.base_color = {0.2f, 0.4f, 0.9f};
  tree.add_child(scene::kRootNode, "slab", std::move(slab),
                 util::Mat4::translate({0.4f, 0.1f, -0.6f}));
  scene::PointCloudData cloud;
  cloud.point_size = 3.0f;
  for (int i = 0; i < 120; ++i) {
    const float t = static_cast<float>(i) * 0.051f;
    cloud.positions.push_back(
        {1.4f * std::sin(t * 7.0f), 1.4f * std::cos(t * 5.0f), 0.9f * std::sin(t * 3.0f)});
  }
  tree.add_child(scene::kRootNode, "cloud", std::move(cloud));
  tree.add_child(scene::kRootNode, "volume", ball_grid(16, {0.0f, 0.3f, 0.2f}, 0.6f),
                 util::Mat4::translate({1.1f, -0.2f, 0.3f}));
  // A far-flung satellite pair that most cameras cull.
  scene::MeshData moon = mesh::make_uv_sphere(0.4f, 12, 8);
  tree.add_child(scene::kRootNode, "moon", std::move(moon),
                 util::Mat4::translate({9.0f, 7.0f, -6.0f}));
  tree.add_child(scene::kRootNode, "far-volume", ball_grid(12), util::Mat4::translate({-8, 6, 5}));
  return tree;
}

void render_via_list(Rasterizer& raster, const SceneTree& tree, const Camera& cam, bool cull,
                     RenderStats* volume_stats = nullptr) {
  const float aspect = static_cast<float>(raster.framebuffer().width()) /
                       static_cast<float>(raster.framebuffer().height());
  render::RenderListOptions lo;
  lo.frustum_cull = cull;
  const render::RenderList list = render::build_render_list(tree, cam, aspect, lo);
  raster.clear();
  raster.draw_list(list, cam, {});
  const RenderStats vs = render::raycast_list(raster.framebuffer(), list, cam, {});
  if (volume_stats != nullptr) *volume_stats = vs;
}

TEST(RenderListCull, CulledMatchesUnculledForRandomCameras) {
  const SceneTree tree = mixed_scene();
  std::mt19937 rng(99);
  std::uniform_real_distribution<float> angle(0.0f, 6.28318f);
  std::uniform_real_distribution<float> dist(3.0f, 7.0f);
  std::uniform_real_distribution<float> jitter(-0.5f, 0.5f);
  bool culled_something = false;
  for (int trial = 0; trial < 8; ++trial) {
    Camera cam;
    const float yaw = angle(rng);
    const float pitch = jitter(rng);
    const float r = dist(rng);
    cam.eye = {r * std::sin(yaw), r * pitch, r * std::cos(yaw)};
    cam.target = {jitter(rng), jitter(rng), jitter(rng)};
    Rasterizer culled(128, 96), unculled(128, 96);
    render_via_list(culled, tree, cam, /*cull=*/true);
    render_via_list(unculled, tree, cam, /*cull=*/false);
    expect_identical(culled.framebuffer(), unculled.framebuffer(),
                     "trial " + std::to_string(trial));
    if (culled.stats().nodes_culled > 0) culled_something = true;
  }
  EXPECT_TRUE(culled_something) << "no camera culled anything; the property is vacuous";
}

TEST(RenderListCull, OutOfFrustumVolumeCastsNoRays) {
  SceneTree tree;
  tree.add_child(scene::kRootNode, "behind", ball_grid(16),
                 util::Mat4::translate({0, 0, 50}));  // behind the eye at z=4
  const Camera cam = front_camera();
  const render::RenderList list = render::build_render_list(tree, cam, 4.0f / 3.0f, {});
  EXPECT_TRUE(list.volumes.empty());
  EXPECT_EQ(list.nodes_culled, 1u);

  FrameBuffer fb(64, 48);
  fb.clear({0, 0, 0});
  const RenderStats st = render::raycast_list(fb, list, cam, {});
  EXPECT_EQ(st.rays_cast, 0u);
}

// --- depth semantics ---------------------------------------------------------

TEST(RaycastDepth, ThinVolumeOccludesGeometryDrawnAfter) {
  // A thin, unsaturated volume (never reaches the opacity cutoff) must
  // still write depth once its accumulated alpha is visible, so geometry
  // rasterized afterwards composites *behind* it instead of punching
  // through.
  VoxelGridData thin = ball_grid(16);
  thin.opacity_scale = 0.4f;  // visible but far below the 0.97 cutoff
  const Camera cam = front_camera();

  Rasterizer raster(96, 72);
  raster.clear();
  const RenderStats st =
      render::raycast_volume(raster.framebuffer(), thin, util::Mat4::identity(), cam, {});
  ASSERT_GT(st.volume_samples, 0u);
  const int cx = 48, cy = 36;
  ASSERT_LT(raster.framebuffer().depth_at(cx, cy), 1.0f)
      << "thin volume wrote no depth at the centre";
  const std::vector<uint8_t> before = raster.framebuffer().color();

  // A frame-filling slab well behind the ball (z=-5 vs the ball around the
  // origin).
  scene::MeshData slab = mesh::make_box({12.0f, 12.0f, 0.05f}, 1);
  slab.base_color = {0.0f, 1.0f, 0.0f};
  raster.draw_mesh(slab, util::Mat4::translate({0, 0, -5}), cam, {});

  const std::vector<uint8_t>& after = raster.framebuffer().color();
  const size_t centre = (static_cast<size_t>(cy) * 96 + cx) * 3;
  EXPECT_EQ(before[centre], after[centre]) << "slab punched through the thin volume";
  EXPECT_EQ(before[centre + 1], after[centre + 1]);
  EXPECT_EQ(before[centre + 2], after[centre + 2]);
  // Control: away from the volume (left edge, mid-height) the slab did
  // rasterize.
  const size_t edge = (static_cast<size_t>(cy) * 96 + 4) * 3;
  EXPECT_NE(before[edge + 1], after[edge + 1]) << "slab rendered nowhere — vacuous test";
}

// --- rays/s cost model --------------------------------------------------------

TEST(CostModel, WorkUnitsPreferMeasuredRayWork) {
  core::NodeCost cost;
  cost.node = 7;
  cost.voxels = 1'000'000;
  EXPECT_DOUBLE_EQ(cost.work_units(), 0.01 * 1e6);  // static fallback
  cost.measured_rays = 40'000;
  cost.ray_work = 90'000.0;
  EXPECT_DOUBLE_EQ(cost.work_units(), 90'000.0);  // measured model wins
}

TEST(CostModel, MigrationExplainShowsRaysPerSecModel) {
  core::ServiceLoadView view;
  view.subscriber_id = 3;
  view.capacity.polygons_per_sec = 1e6;
  view.capacity.rays_per_sec = 1e5;  // the measured marcher rate
  core::NodeCost vol;
  vol.node = 42;
  vol.voxels = 500'000;
  vol.measured_rays = 30'000;
  vol.ray_work = static_cast<double>(vol.measured_rays) *
                 (view.capacity.polygons_per_sec / view.capacity.rays_per_sec);
  view.assigned.push_back(vol);

  core::MigrationExplain explain;
  core::plan_migration({view}, {.target_fps = 15.0}, &explain);
  const std::string summary = explain.summary();
  EXPECT_NE(summary.find("(rays/s model)"), std::string::npos) << summary;
  EXPECT_NE(summary.find("volume node 42"), std::string::npos) << summary;
  EXPECT_NE(summary.find("30000 rays"), std::string::npos) << summary;
}

TEST(CostModel, LoadReportCarriesRayMeasurements) {
  core::LoadReportMsg m;
  m.session = "demo";
  m.fps = 24.5;
  m.frame_seconds = 0.041;
  m.assigned_triangles = 1234;
  m.volume_rays = 56789;
  m.volume_seconds = 0.0123;
  m.node_rays = {{7, 1000}, {42, 55789}};

  const auto decoded = core::decode_load_report(core::encode(m));
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().session, m.session);
  EXPECT_DOUBLE_EQ(decoded.value().fps, m.fps);
  EXPECT_EQ(decoded.value().assigned_triangles, m.assigned_triangles);
  EXPECT_EQ(decoded.value().volume_rays, m.volume_rays);
  EXPECT_DOUBLE_EQ(decoded.value().volume_seconds, m.volume_seconds);
  EXPECT_EQ(decoded.value().node_rays, m.node_rays);
}

}  // namespace
}  // namespace rave
