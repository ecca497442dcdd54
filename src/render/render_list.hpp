// Frustum-culling render-list extraction — the single scene-graph walk in
// front of every backend. One pass per frame tests each payload node's
// world-space bounds against the view frustum and emits per-backend lists:
// rasterizable items (meshes, point clouds, avatars) in depth-first order,
// and volume blocks for the ray-caster. Backends then render from the list instead of re-walking the
// tree, so every distribution unit — full frames, tiles, migrated subsets,
// fan-out publishes — shrinks to visible work. Culling never changes
// pixels, only skips work: an out-of-frustum node cannot touch any pixel
// (rasterized triangles clip away; volume rays either miss the box between
// znear and zfar or fail the depth test), which the `ctest -L raycast`
// property suite enforces byte-exactly.
#pragma once

#include <vector>

#include "render/frustum.hpp"
#include "scene/camera.hpp"
#include "scene/node.hpp"
#include "scene/tree.hpp"

namespace rave::render {

struct RenderList {
  // One rasterizable payload node (mesh / point cloud / avatar). Items keep
  // the tree's interleaved depth-first order, so z-ties resolve the same
  // way on every backend and every cull setting (submission order).
  struct RasterItem {
    const scene::SceneNode* node = nullptr;
    util::Mat4 world;
  };
  // One volume block for the ray-caster, in depth-first order.
  struct VolumeItem {
    const scene::VoxelGridData* grid = nullptr;
    util::Mat4 world;
    scene::NodeId node = scene::kInvalidNode;
  };

  std::vector<RasterItem> raster;
  std::vector<VolumeItem> volumes;
  uint64_t nodes_visited = 0;  // payload nodes tested
  uint64_t nodes_culled = 0;   // payload nodes skipped by the frustum

  [[nodiscard]] size_t item_count() const { return raster.size() + volumes.size(); }
  [[nodiscard]] bool empty() const { return raster.empty() && volumes.empty(); }
};

struct RenderListOptions {
  bool frustum_cull = true;
  // Extract rasterizable items only from these subtrees (a subset holder's
  // interest roots). Empty = the whole tree. Volume blocks always come from
  // the whole tree: every holder blends them (RenderService's subset
  // semantics).
  std::vector<scene::NodeId> roots;
};

// Walk the tree once and build the per-backend lists. Pointers into the
// tree stay valid until the next tree mutation — build per frame.
RenderList build_render_list(const scene::SceneTree& tree, const scene::Camera& camera,
                             float aspect, const RenderListOptions& options = {});

}  // namespace rave::render
