// Coherent-frame layer reuse. A collaborative session is mostly a fixed
// view in which a few small items change: an avatar moves, the rest of
// the render list — in the paper's hand session a 0.83 M-triangle mesh —
// stays put. The cache keeps the color and depth planes as they stand
// after drawing the longest prefix of the render list that has not
// changed, and the next frame restores them and rasterizes only the
// suffix. The z-buffer after the prefix *is* the cache, so the frame is
// byte-identical to a full draw by construction: same planes, same
// remaining items in the same order (DESIGN.md "Layer reuse").
//
// Key: the camera, the frame size and RenderOptions::region (bit for bit;
// shading is fixed, rasterizer.cpp), plus each prefix item's
// (node id, node stamp, world matrix) in list order. Stamps are renewed
// by every SceneTree mutator (scene/node.hpp), so an edited payload, a
// moved node or an inserted/removed item ends the prefix there.
//
// Snapshot policy: a miss renders the full list and snapshots only when
// the view (camera, size, region) equals the previous render's,
// at the first item that differs from the previous render's list, backed
// up over the cheap items just before it (at most 1/32 of the prefix's
// triangles and points), so that a later edit of one of those still hits.
// The first render, which has no previous one, snapshots at the end of its
// list, backed up the same way. A camera that moves every frame therefore
// pays for one copy, on its first frame; a prefix of length 0 is a full
// render.
#pragma once

#include <cstdint>
#include <vector>

#include "render/rasterizer.hpp"
#include "render/render_list.hpp"

namespace rave::render {

class LayerCache {
 public:
  // Render `list`'s raster items into `raster`, freshly constructed at the
  // frame's size: clear the region and draw the list, or — on a hit —
  // copy the cached prefix layer over the whole raster and draw only the
  // suffix. Afterwards stats() counts the whole list as a full draw would
  // (cached prefix plus suffix), so load accounting never sees the cache.
  // Returns true on a hit.
  bool draw(Rasterizer& raster, const RenderList& list, const Camera& camera,
            const RenderOptions& options);

 private:
  struct Item {
    scene::NodeId id = scene::kInvalidNode;
    uint64_t stamp = 0;
    Mat4 world;
  };
  // Everything but the list that decides the pixels.
  struct View {
    Camera camera;
    int width = 0, height = 0;
    Tile region;
  };
  static bool same(const View& a, const View& b);
  static size_t common_prefix(const std::vector<Item>& a, const std::vector<Item>& b);

  // The previous render: where the next miss takes its snapshot (none
  // before the first render, whose list is empty).
  View last_view_;
  std::vector<Item> last_items_;
  // The layer: planes and stats after clear + layer_items_ (empty = none).
  View layer_view_;
  std::vector<Item> layer_items_;
  Rasterizer layer_{0, 0};
};

}  // namespace rave::render
