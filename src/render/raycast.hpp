// Volume ray-caster for VoxelGrid nodes — the voxel rendering path the
// paper lists as an extension (§6). Front-to-back alpha compositing along
// view rays; writes color into the framebuffer and depth once a ray's
// accumulated opacity crosses a small threshold, so volumes composite
// correctly against rasterized geometry and against volume sub-blocks
// rendered by other services ("Subset blocks of the volume can be blended
// ... by considering their relative distance from the view in the order of
// blending").
//
// The marcher is a two-level DDA with position-anchored stepping: sample k
// of a ray sits at t0 + k*step, a function of the ray and the absolute
// sample index alone, never of accumulated additions. Bricks of 8^3 voxels
// carry cached min/max bounds (scene/bricks.hpp); a brick whose
// support-expanded max is below the transfer function's iso_low is skipped
// whole — provably without touching any sample the brute-force march would
// shade — and rays retire early at the opacity cutoff. Sample evaluation
// runs 4/8-wide (SSE2/AVX2/NEON, picked by util::active_simd_level) with a
// scalar twin performing the identical float op sequence, so output is
// byte-identical across {scalar, SIMD} × {serial, pooled} × {brute,
// brick-skipped} — see DESIGN.md "Fast volume path" and tests/test_raycast.
#pragma once

#include "render/framebuffer.hpp"
#include "render/rasterizer.hpp"
#include "scene/camera.hpp"
#include "scene/node.hpp"
#include "scene/tree.hpp"
#include "util/thread_pool.hpp"

namespace rave::render {

struct RenderList;  // render/render_list.hpp

// Rays take one sample per voxel edge, stop once accumulated opacity
// reaches 0.97, and write depth where it first reaches 0.05 (raycast.cpp).
struct RaycastOptions {
  // Macro-cell empty-space skipping. False = the brute-force march (every
  // sample evaluated) — the byte-identical twin the property tests and the
  // BENCH_raycast baseline compare against.
  bool empty_skip = true;
  Tile region{};
  // Parallelise over scanline rows on this pool (rays are independent, so
  // the result is bit-identical to the serial path). Null = serial.
  util::ThreadPool* pool = nullptr;
};

// Cast the grid under `model` into `fb` (which must already hold the
// rasterized opaque scene so depth occlusion works both ways). Returns the
// per-call marcher stats (rays cast, samples shaded, bricks skipped).
RenderStats raycast_volume(FrameBuffer& fb, const scene::VoxelGridData& grid,
                           const util::Mat4& model, const scene::Camera& camera,
                           const RaycastOptions& options = {});

// Ray-cast the volume blocks of a culled render list (render_list.hpp) in
// list order. When `per_volume` is non-null it is filled with one stats
// entry per list volume (aligned with list.volumes) — the per-node ray
// counts feed the rays/s cost model in core/capacity.
RenderStats raycast_list(FrameBuffer& fb, const RenderList& list, const scene::Camera& camera,
                         const RaycastOptions& options = {},
                         std::vector<RenderStats>* per_volume = nullptr);

}  // namespace rave::render
