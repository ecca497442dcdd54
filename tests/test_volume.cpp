// Volume sub-block distribution tests (paper §6 / Visapult-style): block
// decomposition with seam-continuous sampling, scene-node explosion, and
// composited block rendering matching the monolithic volume.
#include <gtest/gtest.h>

#include "mesh/fields.hpp"
#include "render/raycast.hpp"
#include "render/rasterizer.hpp"
#include "render/render_list.hpp"
#include "scene/volume.hpp"

namespace rave::scene {
namespace {

VoxelGridData test_grid(uint32_t n = 16) {
  Aabb bounds;
  bounds.extend({-1, -1, -1});
  bounds.extend({1, 1, 1});
  VoxelGridData grid = mesh::rasterize_field(mesh::ball_field({0.2f, 0, 0}, 0.9f), bounds, n, n,
                                             n);
  grid.iso_low = 0.05f;
  grid.opacity_scale = 3.0f;
  return grid;
}

TEST(VolumeSplit, BlockCountAndCoverage) {
  const VoxelGridData grid = test_grid(16);
  const auto blocks = split_voxel_grid(grid, 2, 2, 2);
  ASSERT_EQ(blocks.size(), 8u);
  // Union of block bounds covers the grid bounds.
  Aabb covered;
  size_t total_voxels = 0;
  for (const auto& b : blocks) {
    covered.extend(b.bounds());
    total_voxels += b.voxel_count();
  }
  EXPECT_NEAR(covered.lo.x, grid.bounds().lo.x, 1e-5f);
  EXPECT_NEAR(covered.hi.z, grid.bounds().hi.z, 1e-5f);
  // Overlap means at least as many voxels as the original.
  EXPECT_GE(total_voxels, grid.voxel_count());
}

TEST(VolumeSplit, SamplingContinuousAcrossSeams) {
  const VoxelGridData grid = test_grid(16);
  const auto blocks = split_voxel_grid(grid, 2, 1, 1);
  ASSERT_EQ(blocks.size(), 2u);
  // Probe points near the seam: for any point inside a block's interior
  // sampling window, the block agrees with the monolithic grid.
  for (float x = -0.4f; x <= 0.4f; x += 0.05f) {
    const Vec3 p{x, 0.1f, -0.05f};
    const float reference = grid.sample(p);
    for (const auto& b : blocks) {
      const Aabb inner{b.bounds().lo + b.spacing, b.bounds().hi - b.spacing};
      if (!inner.contains(p)) continue;
      EXPECT_NEAR(b.sample(p), reference, 1e-4f) << "x=" << x;
    }
  }
}

TEST(VolumeSplit, DegenerateRequestsClamp) {
  const VoxelGridData grid = test_grid(4);
  const auto blocks = split_voxel_grid(grid, 64, 64, 64);  // far more than voxels
  EXPECT_GE(blocks.size(), 1u);
  for (const auto& b : blocks) {
    EXPECT_GE(b.nx, 2u);  // still sampleable
    EXPECT_GE(b.ny, 2u);
  }
  EXPECT_TRUE(split_voxel_grid(VoxelGridData{}, 2, 2, 2).empty());
}

TEST(VolumeExplode, NodeBecomesGroupOfBlocks) {
  SceneTree tree;
  const NodeId vol = tree.add_child(kRootNode, "volume", test_grid(12),
                                    util::Mat4::translate({5, 0, 0}));
  auto blocks = explode_volume_node(tree, vol, 2, 2, 1);
  ASSERT_TRUE(blocks.ok()) << blocks.error();
  EXPECT_EQ(blocks.value().size(), 4u);
  EXPECT_EQ(tree.find(vol)->kind(), NodeKind::Group);
  for (NodeId id : blocks.value()) {
    EXPECT_EQ(tree.find(id)->parent, vol);
    EXPECT_EQ(tree.find(id)->kind(), NodeKind::VoxelGrid);
  }
  // Blocks are now independent distribution units.
  EXPECT_EQ(tree.payload_node_ids().size(), 4u);
  // The parent transform still applies (blocks moved with the group).
  const Aabb world = tree.world_bounds();
  EXPECT_GT(world.lo.x, 3.0f);

  EXPECT_FALSE(explode_volume_node(tree, vol, 2, 2, 2).ok());  // no longer a volume
  EXPECT_FALSE(explode_volume_node(tree, 777, 2, 2, 2).ok());
}

TEST(VolumeRender, BlockCompositeMatchesMonolithic) {
  // Ray-casting the blocks independently into one framebuffer approximates
  // the monolithic volume (small seam differences from overlap sampling).
  SceneTree mono;
  mono.add_child(kRootNode, "volume", test_grid(16));
  SceneTree split;
  const NodeId vol = split.add_child(kRootNode, "volume", test_grid(16));
  ASSERT_TRUE(explode_volume_node(split, vol, 2, 1, 1).ok());

  Camera cam;
  cam.eye = {0, 0, 4};
  render::FrameBuffer a(64, 64), b(64, 64);
  a.clear({0, 0, 0});
  b.clear({0, 0, 0});
  render::raycast_list(a, render::build_render_list(mono, cam, 1.0f), cam);
  render::raycast_list(b, render::build_render_list(split, cam, 1.0f), cam);

  // Compare mean intensity: within a few percent.
  auto mean = [](const render::FrameBuffer& fb) {
    double sum = 0;
    for (uint8_t v : fb.color()) sum += v;
    return sum / static_cast<double>(fb.color().size());
  };
  const double mono_mean = mean(a);
  const double split_mean = mean(b);
  EXPECT_GT(mono_mean, 5.0);  // something rendered
  EXPECT_NEAR(split_mean, mono_mean, mono_mean * 0.25);
}

TEST(VolumeOrdering, ViewDistanceOrdersBlocks) {
  const VoxelGridData grid = test_grid(16);
  const auto blocks = split_voxel_grid(grid, 2, 1, 1);
  ASSERT_EQ(blocks.size(), 2u);
  const Vec3 eye{5, 0, 0};  // looking from +x: the +x block is nearer
  const float d0 = block_view_distance(blocks[0], util::Mat4::identity(), eye);
  const float d1 = block_view_distance(blocks[1], util::Mat4::identity(), eye);
  EXPECT_GT(d0, d1);  // block 0 is the -x half
}

}  // namespace
}  // namespace rave::scene
