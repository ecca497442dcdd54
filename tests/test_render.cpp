// Rasterizer, compositor and ray-caster tests — the distributed-rendering
// substrate. Determinism and tile alignment are what make the paper's
// tile/subset compositing correct, so they are tested bit-exactly.
#include <gtest/gtest.h>

#include "mesh/primitives.hpp"
#include "render/compositor.hpp"
#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "render/raycast.hpp"
#include "render/render_list.hpp"
#include "scene/camera.hpp"

namespace rave::render {
namespace {

using mesh::make_box;
using mesh::make_uv_sphere;
using scene::Camera;
using scene::SceneTree;
using util::Vec3;

SceneTree sphere_scene(const Vec3& color = {0.8f, 0.2f, 0.2f}) {
  SceneTree tree;
  scene::MeshData ball = make_uv_sphere(1.0f, 24, 16);
  ball.base_color = color;
  tree.add_child(scene::kRootNode, "ball", std::move(ball));
  return tree;
}

Camera front_camera() {
  Camera cam;
  cam.eye = {0, 0, 4};
  cam.target = {0, 0, 0};
  return cam;
}

TEST(Framebuffer, ClearSetsColorAndDepth) {
  FrameBuffer fb(8, 8);
  fb.set_pixel(3, 3, 10, 20, 30);
  fb.set_depth(3, 3, 0.5f);
  fb.clear({1.0f, 0.0f, 0.0f});
  EXPECT_EQ(fb.pixel(3, 3)[0], 255);
  EXPECT_EQ(fb.pixel(3, 3)[1], 0);
  EXPECT_FLOAT_EQ(fb.depth_at(3, 3), 1.0f);
}

TEST(Framebuffer, ExtractInsertRoundTrip) {
  FrameBuffer fb(16, 16);
  fb.clear({0, 0, 0});
  fb.set_pixel(5, 6, 100, 110, 120);
  fb.set_depth(5, 6, 0.25f);
  const Tile tile{4, 4, 8, 8};
  const FrameBuffer sub = fb.extract(tile);
  EXPECT_EQ(sub.pixel(1, 2)[0], 100);
  EXPECT_FLOAT_EQ(sub.depth_at(1, 2), 0.25f);

  FrameBuffer other(16, 16);
  other.clear({0, 0, 0});
  other.insert(tile, sub);
  EXPECT_EQ(other.pixel(5, 6)[2], 120);
  EXPECT_FLOAT_EQ(other.depth_at(5, 6), 0.25f);
}

TEST(Framebuffer, SerializeRoundTrip) {
  FrameBuffer fb(7, 5);
  fb.clear({0.2f, 0.4f, 0.6f});
  fb.set_depth(3, 2, 0.125f);
  auto back = FrameBuffer::deserialize(fb.serialize());
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().width(), 7);
  EXPECT_EQ(back.value().color(), fb.color());
  EXPECT_EQ(back.value().depth(), fb.depth());
}

TEST(Framebuffer, DeserializeRejectsGarbage) {
  std::vector<uint8_t> garbage{1, 2, 3};
  EXPECT_FALSE(FrameBuffer::deserialize(garbage).ok());
}

TEST(Tiles, SplitCoversFrameExactly) {
  for (int count : {1, 2, 3, 4, 5, 7, 8, 16}) {
    const auto tiles = split_tiles(640, 480, count);
    ASSERT_EQ(static_cast<int>(tiles.size()), count) << count;
    uint64_t area = 0;
    for (const Tile& t : tiles) {
      EXPECT_GE(t.x, 0);
      EXPECT_GE(t.y, 0);
      EXPECT_LE(t.right(), 640);
      EXPECT_LE(t.bottom(), 480);
      area += t.pixel_count();
    }
    EXPECT_EQ(area, 640ull * 480ull) << count;  // no gaps, no overlap by area
  }
}

TEST(Tiles, WeightedSplitProportionalRows) {
  const auto tiles = split_tiles_weighted(100, 100, {3.0, 1.0});
  ASSERT_EQ(tiles.size(), 2u);
  EXPECT_EQ(tiles[0].height, 75);
  EXPECT_EQ(tiles[1].height, 25);
  EXPECT_EQ(tiles[1].y, 75);
}

TEST(Rasterizer, DrawsSphereInCenter) {
  const SceneTree tree = sphere_scene();
  RenderStats stats;
  const FrameBuffer fb = render_tree(tree, front_camera(), 64, 64, {}, &stats);
  EXPECT_GT(stats.triangles_rasterized, 100u);
  EXPECT_GT(stats.pixels_shaded, 100u);
  // Center pixel is the lit sphere, corner is background.
  EXPECT_LT(fb.depth_at(32, 32), 1.0f);
  EXPECT_FLOAT_EQ(fb.depth_at(1, 1), 1.0f);
  EXPECT_GT(fb.pixel(32, 32)[0], fb.pixel(1, 1)[0]);
}

TEST(Rasterizer, DepthTestOrdersSurfaces) {
  SceneTree tree;
  scene::MeshData near_quad = make_box({0.5f, 0.5f, 0.01f}, 1);
  near_quad.base_color = {1, 0, 0};
  tree.add_child(scene::kRootNode, "near", std::move(near_quad),
                 util::Mat4::translate({0, 0, 1.0f}));
  scene::MeshData far_quad = make_box({1.5f, 1.5f, 0.01f}, 1);
  far_quad.base_color = {0, 0, 1};
  tree.add_child(scene::kRootNode, "far", std::move(far_quad),
                 util::Mat4::translate({0, 0, -1.0f}));
  const FrameBuffer fb = render_tree(tree, front_camera(), 64, 64);
  // Center: red (near) wins regardless of draw order; edge: blue far quad.
  EXPECT_GT(fb.pixel(32, 32)[0], fb.pixel(32, 32)[2]);
  EXPECT_GT(fb.pixel(8, 32)[2], fb.pixel(8, 32)[0]);
}

TEST(Rasterizer, DeterministicAcrossRuns) {
  const SceneTree tree = sphere_scene();
  const FrameBuffer a = render_tree(tree, front_camera(), 96, 96);
  const FrameBuffer b = render_tree(tree, front_camera(), 96, 96);
  EXPECT_EQ(a.color(), b.color());
  EXPECT_EQ(a.depth(), b.depth());
}

TEST(Rasterizer, TilesMatchFullFrameExactly) {
  // The paper's tile distribution relies on tiles from different services
  // aligning exactly ("the framebuffer aligns exactly", §3.1.2).
  const SceneTree tree = sphere_scene();
  const Camera cam = front_camera();
  const FrameBuffer full = render_tree(tree, cam, 80, 60);

  FrameBuffer assembled(80, 60);
  for (const Tile& tile : split_tiles(80, 60, 4)) {
    RenderOptions opts;
    opts.region = tile;
    Rasterizer raster(80, 60);
    raster.clear(opts);
    raster.draw_list(build_render_list(tree, cam, 80.0f / 60.0f), cam, opts);
    assembled.insert(tile, raster.framebuffer().extract(tile));
  }
  EXPECT_EQ(assembled.color(), full.color());
  EXPECT_EQ(assembled.depth(), full.depth());
}

TEST(Rasterizer, NearPlaneClippingKeepsPartialTriangles) {
  // A mesh straddling the near plane must not vanish or crash.
  SceneTree tree;
  scene::MeshData slab = make_box({0.2f, 0.2f, 6.0f}, 1);
  tree.add_child(scene::kRootNode, "slab", std::move(slab));
  Camera cam;
  cam.eye = {0, 0, 2};  // inside the slab extent
  cam.target = {0, 0, -10};
  RenderStats stats;
  const FrameBuffer fb = render_tree(tree, cam, 48, 48, {}, &stats);
  EXPECT_GT(stats.triangles_rasterized, 0u);
  EXPECT_LT(fb.depth_at(24, 24), 1.0f);
}

TEST(Rasterizer, PointSplatsRender) {
  SceneTree tree;
  scene::PointCloudData cloud;
  cloud.positions = {{0, 0, 0}};
  cloud.base_color = {0, 1, 0};
  cloud.point_size = 5.0f;
  tree.add_child(scene::kRootNode, "pts", std::move(cloud));
  const FrameBuffer fb = render_tree(tree, front_camera(), 64, 64);
  EXPECT_GT(fb.pixel(32, 32)[1], 128);
  EXPECT_LT(fb.depth_at(32, 32), 1.0f);
}

TEST(Compositor, DepthCompositeTakesNearest) {
  FrameBuffer a(4, 4), b(4, 4);
  a.clear({0, 0, 0});
  b.clear({0, 0, 0});
  a.set_pixel(1, 1, 255, 0, 0);
  a.set_depth(1, 1, 0.5f);
  b.set_pixel(1, 1, 0, 255, 0);
  b.set_depth(1, 1, 0.3f);  // nearer
  ASSERT_TRUE(depth_composite(a, b).ok());
  EXPECT_EQ(a.pixel(1, 1)[1], 255);
  EXPECT_FLOAT_EQ(a.depth_at(1, 1), 0.3f);
  // size mismatch refused
  FrameBuffer small(2, 2);
  EXPECT_FALSE(depth_composite(a, small).ok());
}

TEST(Compositor, SubsetCompositingEqualsMonolithicRender) {
  // Dataset distribution (§3.2.5): two services each render half the scene
  // full-frame; depth compositing must reproduce the single-service image.
  SceneTree full;
  scene::MeshData left = make_uv_sphere(0.7f, 20, 14);
  left.base_color = {1, 0, 0};
  scene::MeshData right = make_uv_sphere(0.7f, 20, 14);
  right.base_color = {0, 0, 1};
  full.add_child(scene::kRootNode, "left", left, util::Mat4::translate({-0.5f, 0, 0.3f}));
  full.add_child(scene::kRootNode, "right", right, util::Mat4::translate({0.5f, 0, -0.3f}));

  SceneTree only_left;
  only_left.bump_next_id(10);
  only_left.add_child(scene::kRootNode, "left", left, util::Mat4::translate({-0.5f, 0, 0.3f}));
  SceneTree only_right;
  only_right.bump_next_id(20);
  only_right.add_child(scene::kRootNode, "right", right, util::Mat4::translate({0.5f, 0, -0.3f}));

  const Camera cam = front_camera();
  const FrameBuffer reference = render_tree(full, cam, 72, 72);
  FrameBuffer composite = render_tree(only_left, cam, 72, 72);
  const FrameBuffer other = render_tree(only_right, cam, 72, 72);
  ASSERT_TRUE(depth_composite(composite, other).ok());
  EXPECT_EQ(composite.color(), reference.color());
}

TEST(Compositor, AssembleTilesChecksSizes) {
  FrameBuffer target(8, 8);
  std::vector<TileResult> tiles;
  tiles.push_back({Tile{0, 0, 4, 4}, FrameBuffer(4, 4)});
  EXPECT_TRUE(assemble_tiles(target, tiles).ok());
  tiles.push_back({Tile{4, 0, 4, 4}, FrameBuffer(2, 2)});
  EXPECT_FALSE(assemble_tiles(target, tiles).ok());
}

TEST(Compositor, OrderedBlendBackToFront) {
  Image base(1, 1);
  base.set_pixel(0, 0, 0, 0, 0);
  BlendLayer far_layer{Image(1, 1), {1.0f}, 10.0f};
  far_layer.color.set_pixel(0, 0, 200, 0, 0);
  BlendLayer near_layer{Image(1, 1), {0.5f}, 5.0f};
  near_layer.color.set_pixel(0, 0, 0, 200, 0);
  ASSERT_TRUE(blend_ordered(base, {near_layer, far_layer}).ok());
  // Far (red) first, then half-transparent green over it.
  EXPECT_EQ(base.rgb[0], 100);
  EXPECT_EQ(base.rgb[1], 100);
}

TEST(Raycast, VolumeVisibleAndOccludedByGeometry) {
  scene::VoxelGridData grid;
  grid.nx = grid.ny = grid.nz = 16;
  grid.origin = {-1, -1, -1};
  grid.spacing = {0.125f, 0.125f, 0.125f};
  grid.values.assign(grid.voxel_count(), 1.0f);
  grid.iso_low = 0.1f;
  grid.opacity_scale = 4.0f;

  SceneTree tree;
  tree.add_child(scene::kRootNode, "vol", grid);
  FrameBuffer fb(48, 48);
  fb.clear({0, 0, 0});
  raycast_list(fb, build_render_list(tree, front_camera(), 1.0f), front_camera());
  EXPECT_GT(static_cast<int>(fb.pixel(24, 24)[0]) + fb.pixel(24, 24)[1] + fb.pixel(24, 24)[2],
            60);

  // Opaque geometry in front hides the volume.
  SceneTree with_wall = tree;
  scene::MeshData wall = make_box({2.0f, 2.0f, 0.01f}, 1);
  wall.base_color = {0, 0, 0};
  with_wall.add_child(scene::kRootNode, "wall", std::move(wall),
                      util::Mat4::translate({0, 0, 2.0f}));
  FrameBuffer occluded = render_tree(with_wall, front_camera(), 48, 48);
  const auto before = occluded.pixel(24, 24)[0];
  raycast_list(occluded, build_render_list(with_wall, front_camera(), 1.0f), front_camera());
  EXPECT_EQ(occluded.pixel(24, 24)[0], before);  // wall unchanged
}

TEST(Ppm, WriteReadRoundTrip) {
  Image img(3, 2);
  img.set_pixel(0, 0, 1, 2, 3);
  img.set_pixel(2, 1, 250, 251, 252);
  const std::string path = testing::TempDir() + "/rave_test.ppm";
  ASSERT_TRUE(write_ppm(img, path).ok());
  auto back = read_ppm(path);
  ASSERT_TRUE(back.ok()) << back.error();
  EXPECT_EQ(back.value().rgb, img.rgb);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rave::render
