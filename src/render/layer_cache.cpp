#include "render/layer_cache.hpp"

#include <cstring>
#include <variant>

namespace rave::render {

namespace {

// Float fields compare by bits: -0 and +0 (or two NaNs) are different
// inputs to the rasterizer, so they are different keys.
template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

// A hit redraws at most this fraction (1/kRedrawShare) of the work in the
// prefix it restores, beyond the changed suffix itself.
constexpr uint64_t kRedrawShare = 32;

// Raster work of one item: triangles, or points for a point cloud.
uint64_t item_work(const RenderList::RasterItem& item) {
  const scene::NodePayload& payload = item.node->payload;
  if (const auto* mesh = std::get_if<scene::MeshData>(&payload)) return mesh->triangle_count();
  if (const auto* pts = std::get_if<scene::PointCloudData>(&payload)) return pts->positions.size();
  if (const auto* av = std::get_if<scene::AvatarData>(&payload))
    return scene::make_avatar_mesh(*av).triangle_count();
  return 0;
}

// Where a miss whose first `split` items are unchanged takes its snapshot:
// at the split, backed up over the cheap items just before it (together at
// most 1/kRedrawShare of the prefix's work). Under a fixed view those are
// the avatars: each hit redraws them, so a later move of any of them hits
// too, where a layer ending at the split would miss and re-raster the whole
// list once for every avatar that moves before the layer's end.
size_t snapshot_point(const RenderList& list, size_t split) {
  uint64_t prefix = 0;
  for (size_t i = 0; i < split; ++i) prefix += item_work(list.raster[i]);
  size_t point = split;
  uint64_t redrawn = 0;
  while (point > 0) {
    const uint64_t work = item_work(list.raster[point - 1]);
    if (redrawn + work > prefix / kRedrawShare) break;
    redrawn += work;
    --point;
  }
  return point;
}

}  // namespace

bool LayerCache::same(const View& a, const View& b) {
  return same_bits(a.camera.eye, b.camera.eye) && same_bits(a.camera.target, b.camera.target) &&
         same_bits(a.camera.up, b.camera.up) && same_bits(a.camera.fov_y_deg, b.camera.fov_y_deg) &&
         same_bits(a.camera.znear, b.camera.znear) && same_bits(a.camera.zfar, b.camera.zfar) &&
         a.width == b.width && a.height == b.height && a.region == b.region;
}

size_t LayerCache::common_prefix(const std::vector<Item>& a, const std::vector<Item>& b) {
  size_t n = 0;
  while (n < a.size() && n < b.size() && a[n].id == b[n].id && a[n].stamp == b[n].stamp &&
         same_bits(a[n].world, b[n].world))
    ++n;
  return n;
}

bool LayerCache::draw(Rasterizer& raster, const RenderList& list, const Camera& camera,
                      const RenderOptions& options) {
  const View view{camera, raster.framebuffer().width(), raster.framebuffer().height(),
                  options.region};
  std::vector<Item> items;
  items.reserve(list.raster.size());
  for (const RenderList::RasterItem& item : list.raster)
    items.push_back({item.node->id, item.node->stamp, item.world});

  const bool hit = !layer_items_.empty() && same(view, layer_view_) &&
                   common_prefix(items, layer_items_) == layer_items_.size();
  size_t first = 0;
  if (hit) {
    raster = layer_;
    first = layer_items_.size();
  } else {
    raster.reset_stats();
    raster.clear(options);
    // The first render has nothing to diff against: snapshot the whole
    // list, backed off over its cheap trailing items, so the first edit
    // under the same view hits. Later misses snapshot only under an
    // unchanged view, so an orbiting camera never copies planes.
    size_t split = 0;
    if (last_items_.empty())
      split = snapshot_point(list, list.raster.size());
    else if (same(view, last_view_))
      split = snapshot_point(list, common_prefix(items, last_items_));
    if (split > 0) {
      raster.draw_items(list, 0, split, camera, options);
      layer_ = raster;
      layer_view_ = view;
      layer_items_.assign(items.begin(), items.begin() + static_cast<std::ptrdiff_t>(split));
      first = split;
    }
  }
  raster.draw_list(list, camera, options, first);
  last_view_ = view;
  last_items_ = std::move(items);
  return hit;
}

}  // namespace rave::render
