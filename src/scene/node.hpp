// Scene-tree nodes. The RAVE data service stores "data in the form of a
// scene tree; nodes of the tree may contain various types of data, such as
// voxels, point clouds or polygons" (paper §3.1.1). Avatars representing
// collaborating users (§3.2.4) are ordinary nodes so they replicate to all
// render services through the normal update path.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "util/vec.hpp"

namespace rave::scene {

struct MacroCells;  // scene/bricks.hpp

using util::Aabb;
using util::Mat4;
using util::Vec3;

using NodeId = uint64_t;
constexpr NodeId kInvalidNode = 0;
constexpr NodeId kRootNode = 1;

enum class NodeKind : uint8_t { Group = 0, Mesh = 1, PointCloud = 2, VoxelGrid = 3, Avatar = 4 };

const char* node_kind_name(NodeKind kind);

// Indexed triangle mesh. Normals/colors are optional (empty) and, when
// present, parallel to positions.
struct MeshData {
  std::vector<Vec3> positions;
  std::vector<Vec3> normals;
  std::vector<Vec3> colors;
  std::vector<uint32_t> indices;
  Vec3 base_color{0.8f, 0.8f, 0.8f};

  [[nodiscard]] size_t triangle_count() const { return indices.size() / 3; }
  [[nodiscard]] Aabb bounds() const;

  // Face-averaged vertex normals; used by loaders and generators that only
  // produce positions.
  void compute_normals();
};

struct PointCloudData {
  std::vector<Vec3> positions;
  std::vector<Vec3> colors;  // optional
  Vec3 base_color{0.8f, 0.8f, 0.8f};
  float point_size = 1.0f;

  [[nodiscard]] Aabb bounds() const;
};

// Regular scalar grid with a two-point linear transfer function, enough for
// the volume-rendering extension (paper §6: "extend ... to include voxel
// and point based methods").
struct VoxelGridData {
  uint32_t nx = 0, ny = 0, nz = 0;
  Vec3 origin{0, 0, 0};
  Vec3 spacing{1, 1, 1};
  std::vector<float> values;  // nx*ny*nz, x fastest

  // Transfer function: density below `iso_low` is transparent; colors ramp
  // from color_low to color_high as density rises to iso_high.
  float iso_low = 0.1f;
  float iso_high = 1.0f;
  Vec3 color_low{0.2f, 0.2f, 0.8f};
  Vec3 color_high{1.0f, 1.0f, 1.0f};
  float opacity_scale = 1.0f;

  [[nodiscard]] size_t voxel_count() const {
    return static_cast<size_t>(nx) * ny * nz;
  }
  [[nodiscard]] float at(uint32_t x, uint32_t y, uint32_t z) const {
    return values[(static_cast<size_t>(z) * ny + y) * nx + x];
  }
  float& at(uint32_t x, uint32_t y, uint32_t z) {
    return values[(static_cast<size_t>(z) * ny + y) * nx + x];
  }
  [[nodiscard]] Aabb bounds() const;
  // Trilinear sample at a point in grid-local (world) coordinates.
  [[nodiscard]] float sample(const Vec3& p) const;

  // Cached min/max macro-cells for empty-space skipping (scene/bricks.hpp),
  // built lazily on first use. The scene/update path invalidates for free:
  // SetPayload replaces the payload wholesale and a freshly built or decoded
  // grid carries an empty cache. Direct mutation through at() must call
  // invalidate_macro_cells(). Lazy builds are not synchronized — callers
  // that fan rays out across threads build the cache once up front
  // (raycast_volume does) rather than racing on first use.
  [[nodiscard]] std::shared_ptr<const MacroCells> macro_cells() const;
  void invalidate_macro_cells() { macro_cells_cache_.reset(); }

 private:
  mutable std::shared_ptr<const MacroCells> macro_cells_cache_;
};

// Marker payload for a collaborating user; rendered as a view-direction
// cone labelled with the user/host name (paper Fig. 3).
struct AvatarData {
  std::string user_name;
  Vec3 color{1.0f, 0.3f, 0.2f};
  float size = 0.5f;
};

using NodePayload =
    std::variant<std::monostate, MeshData, PointCloudData, VoxelGridData, AvatarData>;

// Per-node resource demands. Workload distribution selects node sets by
// these metrics so migration moves fine-grained amounts of work
// (paper §3.2.7: "how much data are contained in a given set of nodes").
struct NodeMetrics {
  uint64_t triangles = 0;
  uint64_t points = 0;
  uint64_t voxels = 0;
  uint64_t texture_bytes = 0;
  uint64_t geometry_bytes = 0;

  NodeMetrics& operator+=(const NodeMetrics& o) {
    triangles += o.triangles;
    points += o.points;
    voxels += o.voxels;
    texture_bytes += o.texture_bytes;
    geometry_bytes += o.geometry_bytes;
    return *this;
  }
  friend NodeMetrics operator+(NodeMetrics a, const NodeMetrics& b) { return a += b; }
  [[nodiscard]] bool empty() const {
    return triangles == 0 && points == 0 && voxels == 0 && texture_bytes == 0;
  }
};

// A fresh node stamp: unique across the process, never 0.
uint64_t next_node_stamp();

struct SceneNode {
  NodeId id = kInvalidNode;
  std::string name;
  NodeId parent = kInvalidNode;
  std::vector<NodeId> children;
  Mat4 transform = Mat4::identity();
  NodePayload payload;
  // Content version, unique across the process. Every SceneTree mutator
  // renews it for the node it touches, and so does find_mutable, because
  // callers mutate through the pointer it returns: mutate right after the
  // call, before the next read. Render-side caches key on (id, stamp)
  // (render/layer_cache.hpp); 0 = not in a tree. Not serialized.
  uint64_t stamp = 0;

  [[nodiscard]] NodeKind kind() const;
  [[nodiscard]] NodeMetrics metrics() const;
  // Payload bounds, pre-transform. Memoized per stamp (a hand-sized mesh
  // is a pass over every vertex); a node with stamp 0 recomputes.
  [[nodiscard]] Aabb local_bounds() const;

  [[nodiscard]] bool is_avatar() const {
    return std::holds_alternative<AvatarData>(payload);
  }

 private:
  // local_bounds' memo. Concurrent const readers stay race-free: one
  // claims the cell (kFilling) and publishes the box with its stamp, the
  // others compute their own. A copied node starts with an empty memo.
  struct BoundsMemo {
    static constexpr uint64_t kFilling = ~uint64_t{0};
    std::atomic<uint64_t> stamp{0};
    Aabb box;
    BoundsMemo() = default;
    BoundsMemo(const BoundsMemo& /*other*/) {}
    BoundsMemo& operator=(const BoundsMemo& /*other*/) {
      stamp.store(0, std::memory_order_relaxed);
      return *this;
    }
  };
  mutable BoundsMemo bounds_memo_;
};

// The avatar's visible geometry: a cone pointing along -Z (the camera view
// direction), generated on demand by render clients.
MeshData make_avatar_mesh(const AvatarData& avatar);

}  // namespace rave::scene
