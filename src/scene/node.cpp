#include "scene/node.hpp"

#include <atomic>
#include <cmath>

namespace rave::scene {

const char* node_kind_name(NodeKind kind) {
  switch (kind) {
    case NodeKind::Group: return "group";
    case NodeKind::Mesh: return "mesh";
    case NodeKind::PointCloud: return "points";
    case NodeKind::VoxelGrid: return "voxels";
    case NodeKind::Avatar: return "avatar";
  }
  return "?";
}

Aabb MeshData::bounds() const {
  Aabb box;
  for (const Vec3& p : positions) box.extend(p);
  return box;
}

void MeshData::compute_normals() {
  normals.assign(positions.size(), Vec3{0, 0, 0});
  for (size_t i = 0; i + 2 < indices.size(); i += 3) {
    const Vec3& a = positions[indices[i]];
    const Vec3& b = positions[indices[i + 1]];
    const Vec3& c = positions[indices[i + 2]];
    const Vec3 n = util::cross(b - a, c - a);  // area-weighted
    normals[indices[i]] += n;
    normals[indices[i + 1]] += n;
    normals[indices[i + 2]] += n;
  }
  for (Vec3& n : normals) n = util::normalize(n);
}

Aabb PointCloudData::bounds() const {
  Aabb box;
  for (const Vec3& p : positions) box.extend(p);
  return box;
}

Aabb VoxelGridData::bounds() const {
  Aabb box;
  box.extend(origin);
  box.extend(origin + Vec3{spacing.x * static_cast<float>(nx), spacing.y * static_cast<float>(ny),
                           spacing.z * static_cast<float>(nz)});
  return box;
}

float VoxelGridData::sample(const Vec3& p) const {
  if (nx == 0 || ny == 0 || nz == 0) return 0.0f;
  // Map to cell coordinates with samples at cell centers.
  const float fx = (p.x - origin.x) / spacing.x - 0.5f;
  const float fy = (p.y - origin.y) / spacing.y - 0.5f;
  const float fz = (p.z - origin.z) / spacing.z - 0.5f;
  const auto clampi = [](int v, int hi) { return v < 0 ? 0 : (v > hi ? hi : v); };
  const int x0 = clampi(static_cast<int>(std::floor(fx)), static_cast<int>(nx) - 1);
  const int y0 = clampi(static_cast<int>(std::floor(fy)), static_cast<int>(ny) - 1);
  const int z0 = clampi(static_cast<int>(std::floor(fz)), static_cast<int>(nz) - 1);
  const int x1 = clampi(x0 + 1, static_cast<int>(nx) - 1);
  const int y1 = clampi(y0 + 1, static_cast<int>(ny) - 1);
  const int z1 = clampi(z0 + 1, static_cast<int>(nz) - 1);
  const auto frac = [](float f) {
    const float t = f - std::floor(f);
    return t < 0 ? 0.0f : (t > 1 ? 1.0f : t);
  };
  const float tx = frac(fx), ty = frac(fy), tz = frac(fz);
  const auto v = [&](int x, int y, int z) {
    return at(static_cast<uint32_t>(x), static_cast<uint32_t>(y), static_cast<uint32_t>(z));
  };
  const float c00 = v(x0, y0, z0) * (1 - tx) + v(x1, y0, z0) * tx;
  const float c10 = v(x0, y1, z0) * (1 - tx) + v(x1, y1, z0) * tx;
  const float c01 = v(x0, y0, z1) * (1 - tx) + v(x1, y0, z1) * tx;
  const float c11 = v(x0, y1, z1) * (1 - tx) + v(x1, y1, z1) * tx;
  const float c0 = c00 * (1 - ty) + c10 * ty;
  const float c1 = c01 * (1 - ty) + c11 * ty;
  return c0 * (1 - tz) + c1 * tz;
}

NodeKind SceneNode::kind() const {
  if (std::holds_alternative<MeshData>(payload)) return NodeKind::Mesh;
  if (std::holds_alternative<PointCloudData>(payload)) return NodeKind::PointCloud;
  if (std::holds_alternative<VoxelGridData>(payload)) return NodeKind::VoxelGrid;
  if (std::holds_alternative<AvatarData>(payload)) return NodeKind::Avatar;
  return NodeKind::Group;
}

NodeMetrics SceneNode::metrics() const {
  NodeMetrics m;
  if (const auto* mesh = std::get_if<MeshData>(&payload)) {
    m.triangles = mesh->triangle_count();
    m.geometry_bytes = mesh->positions.size() * sizeof(Vec3) + mesh->normals.size() * sizeof(Vec3) +
                       mesh->colors.size() * sizeof(Vec3) + mesh->indices.size() * sizeof(uint32_t);
  } else if (const auto* pts = std::get_if<PointCloudData>(&payload)) {
    m.points = pts->positions.size();
    m.geometry_bytes =
        pts->positions.size() * sizeof(Vec3) + pts->colors.size() * sizeof(Vec3);
  } else if (const auto* vox = std::get_if<VoxelGridData>(&payload)) {
    m.voxels = vox->voxel_count();
    m.geometry_bytes = vox->values.size() * sizeof(float);
    // Hardware volume rendering stages the grid as a 3D texture.
    m.texture_bytes = vox->values.size() * sizeof(float);
  } else if (std::holds_alternative<AvatarData>(payload)) {
    m.triangles = 64;  // generated cone + base disc
    m.geometry_bytes = 64 * 3 * sizeof(Vec3);
  }
  return m;
}

uint64_t next_node_stamp() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

namespace {

Aabb payload_bounds(const NodePayload& payload) {
  if (const auto* mesh = std::get_if<MeshData>(&payload)) return mesh->bounds();
  if (const auto* pts = std::get_if<PointCloudData>(&payload)) return pts->bounds();
  if (const auto* vox = std::get_if<VoxelGridData>(&payload)) return vox->bounds();
  if (const auto* av = std::get_if<AvatarData>(&payload)) {
    Aabb box;
    box.extend(Vec3{-av->size, -av->size, -av->size});
    box.extend(Vec3{av->size, av->size, av->size});
    return box;
  }
  return {};
}

}  // namespace

Aabb SceneNode::local_bounds() const {
  if (stamp == 0) return payload_bounds(payload);
  uint64_t memo = bounds_memo_.stamp.load(std::memory_order_acquire);
  if (memo == stamp) return bounds_memo_.box;
  const Aabb box = payload_bounds(payload);
  if (memo != BoundsMemo::kFilling &&
      bounds_memo_.stamp.compare_exchange_strong(memo, BoundsMemo::kFilling,
                                                 std::memory_order_acquire)) {
    bounds_memo_.box = box;
    bounds_memo_.stamp.store(stamp, std::memory_order_release);
  }
  return box;
}

MeshData make_avatar_mesh(const AvatarData& avatar) {
  // Cone apex at origin pointing along -Z, base behind the apex — matching
  // the paper's "cone pointing in the direction of the user's view".
  MeshData mesh;
  mesh.base_color = avatar.color;
  const int segments = 16;
  const float radius = avatar.size * 0.4f;
  const float length = avatar.size;
  mesh.positions.push_back({0, 0, 0});  // apex
  for (int i = 0; i < segments; ++i) {
    const float a = 2.0f * util::kPi * static_cast<float>(i) / segments;
    mesh.positions.push_back({radius * std::cos(a), radius * std::sin(a), length});
  }
  mesh.positions.push_back({0, 0, length});  // base center
  for (int i = 0; i < segments; ++i) {
    const uint32_t b0 = 1 + static_cast<uint32_t>(i);
    const uint32_t b1 = 1 + static_cast<uint32_t>((i + 1) % segments);
    // Side
    mesh.indices.insert(mesh.indices.end(), {0u, b1, b0});
    // Base disc
    mesh.indices.insert(mesh.indices.end(),
                        {static_cast<uint32_t>(segments) + 1u, b0, b1});
  }
  mesh.compute_normals();
  return mesh;
}

}  // namespace rave::scene
