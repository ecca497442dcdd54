#include "render/layer_cache.hpp"

#include <cstring>

namespace rave::render {

namespace {

// Float fields compare by bits: -0 and +0 (or two NaNs) are different
// inputs to the rasterizer, so they are different keys.
template <typename T>
bool same_bits(const T& a, const T& b) {
  return std::memcmp(&a, &b, sizeof(T)) == 0;
}

}  // namespace

bool LayerCache::same(const View& a, const View& b) {
  return same_bits(a.camera.eye, b.camera.eye) && same_bits(a.camera.target, b.camera.target) &&
         same_bits(a.camera.up, b.camera.up) && same_bits(a.camera.fov_y_deg, b.camera.fov_y_deg) &&
         same_bits(a.camera.znear, b.camera.znear) && same_bits(a.camera.zfar, b.camera.zfar) &&
         a.width == b.width && a.height == b.height && a.region == b.region &&
         same_bits(a.background, b.background) && same_bits(a.light_dir, b.light_dir) &&
         same_bits(a.ambient, b.ambient) && a.backface_cull == b.backface_cull;
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
  const View view{camera,          raster.framebuffer().width(), raster.framebuffer().height(),
                  options.region,  options.background,           options.light_dir,
                  options.ambient, options.backface_cull};
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
    const size_t split = same(view, last_view_) ? common_prefix(items, last_items_) : 0;
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
