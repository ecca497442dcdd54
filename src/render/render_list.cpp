#include "render/render_list.hpp"

#include <variant>

namespace rave::render {

namespace {

// Only payload nodes with valid bounds are tested; an invalid box (empty
// mesh) is never culled, so the backend sees exactly the nodes the
// unculled walk would draw.
bool culled(const scene::SceneNode& node, const util::Mat4& world, const Frustum& frustum) {
  const scene::Aabb bounds = node.local_bounds().transformed(world);
  return bounds.valid() && !frustum.intersects(bounds);
}

}  // namespace

RenderList build_render_list(const scene::SceneTree& tree, const scene::Camera& camera,
                             float aspect, const RenderListOptions& options) {
  RenderList list;
  const Frustum frustum = Frustum::from_camera(camera, aspect);
  // When the whole scene sits inside the frustum every per-node test would
  // pass; classify once and skip them all (the common camera-framed case).
  const bool cull =
      options.frustum_cull &&
      frustum.classify(tree.world_bounds()) != Frustum::Containment::Inside;

  const auto visit_raster = [&](const scene::SceneNode& node, const util::Mat4& world) {
    const bool rasterizable = std::holds_alternative<scene::MeshData>(node.payload) ||
                              std::holds_alternative<scene::PointCloudData>(node.payload) ||
                              std::holds_alternative<scene::AvatarData>(node.payload);
    if (!rasterizable) return;
    ++list.nodes_visited;
    if (cull && culled(node, world, frustum)) {
      ++list.nodes_culled;
      return;
    }
    list.raster.push_back({&node, world});
  };
  const auto visit_volume = [&](const scene::SceneNode& node, const util::Mat4& world) {
    const auto* grid = std::get_if<scene::VoxelGridData>(&node.payload);
    if (grid == nullptr) return;
    ++list.nodes_visited;
    if (cull && culled(node, world, frustum)) {
      ++list.nodes_culled;
      return;
    }
    list.volumes.push_back({grid, world, node.id});
  };

  if (options.roots.empty()) {
    tree.traverse([&](const scene::SceneNode& node, const util::Mat4& world) {
      visit_raster(node, world);
      visit_volume(node, world);
    });
    return list;
  }

  for (scene::NodeId root : options.roots)
    if (tree.contains(root)) tree.traverse(visit_raster, root);
  tree.traverse(visit_volume);
  return list;
}

}  // namespace rave::render
