// Scene-tree tests: structure, transforms, subsets, metrics, cameras.
#include <gtest/gtest.h>

#include "scene/camera.hpp"
#include "scene/node.hpp"
#include "scene/serialize.hpp"
#include "scene/tree.hpp"

namespace rave::scene {
namespace {

MeshData small_triangle() {
  MeshData mesh;
  mesh.positions = {{0, 0, 0}, {1, 0, 0}, {0, 1, 0}};
  mesh.indices = {0, 1, 2};
  mesh.compute_normals();
  return mesh;
}

TEST(SceneTree, StartsWithRoot) {
  SceneTree tree;
  EXPECT_EQ(tree.node_count(), 1u);
  EXPECT_TRUE(tree.contains(kRootNode));
  EXPECT_EQ(tree.root().name, "root");
}

TEST(SceneTree, AddFindRemove) {
  SceneTree tree;
  const NodeId group = tree.add_child(kRootNode, "group");
  const NodeId mesh = tree.add_child(group, "mesh", small_triangle());
  ASSERT_NE(mesh, kInvalidNode);
  EXPECT_EQ(tree.node_count(), 3u);
  EXPECT_EQ(tree.find(mesh)->parent, group);
  EXPECT_EQ(tree.find_by_name("mesh"), mesh);

  ASSERT_TRUE(tree.remove_node(group).ok());
  EXPECT_FALSE(tree.contains(group));
  EXPECT_FALSE(tree.contains(mesh));  // subtree removed
  EXPECT_EQ(tree.node_count(), 1u);
}

TEST(SceneTree, RefusesStructuralMistakes) {
  SceneTree tree;
  const NodeId a = tree.add_child(kRootNode, "a");
  const NodeId b = tree.add_child(a, "b");
  EXPECT_FALSE(tree.remove_node(kRootNode).ok());
  EXPECT_FALSE(tree.remove_node(9999).ok());
  EXPECT_FALSE(tree.reparent(a, b).ok());  // cycle
  EXPECT_FALSE(tree.reparent(kRootNode, a).ok());
  SceneNode dup;
  dup.id = a;
  EXPECT_FALSE(tree.add_node(kRootNode, dup).ok());  // duplicate id
}

TEST(SceneTree, ReparentMovesSubtree) {
  SceneTree tree;
  const NodeId a = tree.add_child(kRootNode, "a");
  const NodeId b = tree.add_child(kRootNode, "b");
  const NodeId child = tree.add_child(a, "child");
  ASSERT_TRUE(tree.reparent(child, b).ok());
  EXPECT_EQ(tree.find(child)->parent, b);
  EXPECT_EQ(tree.find(a)->children.size(), 0u);
  EXPECT_EQ(tree.find(b)->children.size(), 1u);
}

TEST(SceneTree, WorldTransformComposesAncestors) {
  SceneTree tree;
  const NodeId a = tree.add_child(kRootNode, "a", std::monostate{},
                                  util::Mat4::translate({1, 0, 0}));
  const NodeId b = tree.add_child(a, "b", std::monostate{}, util::Mat4::translate({0, 2, 0}));
  const util::Vec3 p = tree.world_transform(b).transform_point({0, 0, 0});
  EXPECT_EQ(p, (util::Vec3{1, 2, 0}));
}

TEST(SceneTree, TraverseVisitsDepthFirstWithWorldTransforms) {
  SceneTree tree;
  const NodeId a = tree.add_child(kRootNode, "a", std::monostate{},
                                  util::Mat4::translate({5, 0, 0}));
  tree.add_child(a, "leaf", small_triangle());
  std::vector<std::string> order;
  util::Vec3 leaf_pos;
  tree.traverse([&](const SceneNode& node, const util::Mat4& world) {
    order.push_back(node.name);
    if (node.name == "leaf") leaf_pos = world.transform_point({0, 0, 0});
  });
  EXPECT_EQ(order, (std::vector<std::string>{"root", "a", "leaf"}));
  EXPECT_EQ(leaf_pos, (util::Vec3{5, 0, 0}));
}

TEST(SceneTree, SubsetKeepsAncestorChainStripped) {
  SceneTree tree;
  const NodeId group = tree.add_child(kRootNode, "group", small_triangle());  // has payload!
  const NodeId keep = tree.add_child(group, "keep", small_triangle());
  tree.add_child(kRootNode, "drop", small_triangle());

  const SceneTree subset = tree.subset({keep});
  EXPECT_TRUE(subset.contains(keep));
  EXPECT_TRUE(subset.contains(group));  // ancestor retained for orientation
  EXPECT_EQ(subset.find_by_name("drop"), kInvalidNode);
  // The ancestor's payload is stripped to a bare group (paper §3.2.5).
  EXPECT_EQ(subset.find(group)->kind(), NodeKind::Group);
  EXPECT_EQ(subset.find(keep)->kind(), NodeKind::Mesh);
  // Ids and transforms preserved.
  EXPECT_EQ(subset.find(keep)->id, keep);
}

TEST(SceneTree, SubsetIncludesWholeSubtrees) {
  SceneTree tree;
  const NodeId group = tree.add_child(kRootNode, "group");
  const NodeId inner = tree.add_child(group, "inner", small_triangle());
  const SceneTree subset = tree.subset({group});
  EXPECT_TRUE(subset.contains(inner));
  EXPECT_EQ(subset.find(inner)->kind(), NodeKind::Mesh);
}

TEST(SceneTree, MetricsAggregate) {
  SceneTree tree;
  tree.add_child(kRootNode, "m1", small_triangle());
  tree.add_child(kRootNode, "m2", small_triangle());
  PointCloudData cloud;
  cloud.positions.resize(10);
  tree.add_child(kRootNode, "pts", std::move(cloud));
  const NodeMetrics total = tree.total_metrics();
  EXPECT_EQ(total.triangles, 2u);
  EXPECT_EQ(total.points, 10u);
}

TEST(SceneTree, PayloadNodeIdsSkipGroups) {
  SceneTree tree;
  const NodeId group = tree.add_child(kRootNode, "group");
  const NodeId mesh = tree.add_child(group, "mesh", small_triangle());
  const auto ids = tree.payload_node_ids();
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(ids[0], mesh);
}

TEST(SceneTree, WorldBoundsTransformsGeometry) {
  SceneTree tree;
  tree.add_child(kRootNode, "m", small_triangle(), util::Mat4::translate({10, 0, 0}));
  const Aabb bounds = tree.world_bounds();
  EXPECT_NEAR(bounds.lo.x, 10.0f, 1e-5f);
  EXPECT_NEAR(bounds.hi.x, 11.0f, 1e-5f);
}

TEST(SceneStamp, EveryMutatorRenewsTheTouchedNode) {
  SceneTree tree;
  const NodeId group = tree.add_child(kRootNode, "group");
  const NodeId mesh = tree.add_child(group, "mesh", small_triangle());
  const uint64_t root0 = tree.root().stamp;
  const uint64_t group0 = tree.find(group)->stamp;
  uint64_t last = tree.find(mesh)->stamp;
  EXPECT_NE(root0, 0u);
  EXPECT_NE(group0, last);
  const auto renewed = [&] {
    const uint64_t now = tree.find(mesh)->stamp;
    const bool fresh = now != last && now != root0 && now != group0;
    last = now;
    return fresh;
  };
  ASSERT_TRUE(tree.set_transform(mesh, Mat4::translate({1, 0, 0})).ok());
  EXPECT_TRUE(renewed());
  ASSERT_TRUE(tree.set_payload(mesh, small_triangle()).ok());
  EXPECT_TRUE(renewed());
  ASSERT_TRUE(tree.set_name(mesh, "renamed").ok());
  EXPECT_TRUE(renewed());
  ASSERT_NE(tree.find_mutable(mesh), nullptr);
  EXPECT_TRUE(renewed());
  EXPECT_EQ(tree.find(group)->stamp, group0);  // only the touched node
  EXPECT_EQ(tree.root().stamp, root0);

  // A copy is the same content at the same stamps; a deserialized tree is
  // new nodes, so new stamps — stamps are never on the wire.
  const SceneTree copy = tree;
  EXPECT_EQ(copy.find(mesh)->stamp, last);
  auto decoded = deserialize_tree(serialize_tree(tree));
  ASSERT_TRUE(decoded.ok());
  EXPECT_NE(decoded.value().find(mesh)->stamp, last);
  EXPECT_EQ(serialize_tree(decoded.value()), serialize_tree(tree));
}

TEST(SceneStamp, LocalBoundsFollowEditsThroughFindMutable) {
  SceneTree tree;
  const NodeId mesh = tree.add_child(kRootNode, "mesh", small_triangle());
  EXPECT_EQ(tree.find(mesh)->local_bounds().hi, (Vec3{1, 1, 0}));
  EXPECT_EQ(tree.find(mesh)->local_bounds().hi, (Vec3{1, 1, 0}));  // memoized
  std::get<MeshData>(tree.find_mutable(mesh)->payload).positions[1] = {3, 0, 2};
  EXPECT_EQ(tree.find(mesh)->local_bounds().hi, (Vec3{3, 1, 2}));
  ASSERT_TRUE(tree.set_payload(mesh, small_triangle()).ok());
  EXPECT_EQ(tree.find(mesh)->local_bounds().hi, (Vec3{1, 1, 0}));
  EXPECT_EQ(tree.world_bounds().hi, (Vec3{1, 1, 0}));
}

TEST(VoxelGrid, TrilinearSampleInterpolates) {
  VoxelGridData grid;
  grid.nx = grid.ny = grid.nz = 2;
  grid.values = {0, 1, 0, 1, 0, 1, 0, 1};  // varies along x only
  const float mid = grid.sample({1.0f, 1.0f, 1.0f});
  EXPECT_NEAR(mid, 0.5f, 1e-5f);
  EXPECT_NEAR(grid.sample({0.5f, 1.0f, 1.0f}), 0.0f, 1e-5f);
  EXPECT_NEAR(grid.sample({1.5f, 1.0f, 1.0f}), 1.0f, 1e-5f);
}

TEST(Avatar, MeshPointsAlongMinusZ) {
  AvatarData avatar;
  avatar.size = 1.0f;
  const MeshData mesh = make_avatar_mesh(avatar);
  EXPECT_GT(mesh.triangle_count(), 8u);
  // Apex at origin; body extends to +Z (base behind apex since the cone
  // points along -Z through the transform).
  const Aabb bounds = mesh.bounds();
  EXPECT_NEAR(bounds.lo.z, 0.0f, 1e-5f);
  EXPECT_GT(bounds.hi.z, 0.5f);
}

TEST(Camera, OrbitKeepsDistance) {
  Camera cam;
  cam.eye = {0, 0, 5};
  cam.target = {0, 0, 0};
  const float before = (cam.eye - cam.target).length();
  cam.orbit(0.5f, 0.3f);
  EXPECT_NEAR((cam.eye - cam.target).length(), before, 1e-4f);
  EXPECT_NE(cam.eye, (util::Vec3{0, 0, 5}));
}

TEST(Camera, FramingContainsBox) {
  Aabb box;
  box.extend({-2, -1, -3});
  box.extend({4, 5, 1});
  const Camera cam = Camera::framing(box);
  // The whole box is in front of the camera.
  const util::Mat4 view = cam.view();
  for (int i = 0; i < 8; ++i) {
    const util::Vec3 corner{(i & 1) ? box.hi.x : box.lo.x, (i & 2) ? box.hi.y : box.lo.y,
                            (i & 4) ? box.hi.z : box.lo.z};
    EXPECT_LT(view.transform_point(corner).z, 0.0f);
  }
}

TEST(Camera, AvatarTransformPlacesConeAtEye) {
  Camera cam;
  cam.eye = {3, 1, 4};
  cam.target = {0, 0, 0};
  const util::Mat4 m = cam.avatar_transform();
  EXPECT_EQ(m.transform_point({0, 0, 0}), cam.eye);
  // -Z of the avatar frame points towards the target.
  const util::Vec3 dir = m.transform_dir({0, 0, -1});
  const util::Vec3 expected = util::normalize(cam.target - cam.eye);
  EXPECT_NEAR(dir.x, expected.x, 1e-4f);
  EXPECT_NEAR(dir.y, expected.y, 1e-4f);
  EXPECT_NEAR(dir.z, expected.z, 1e-4f);
}

}  // namespace
}  // namespace rave::scene
