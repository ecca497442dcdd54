// Stereo pair rendering for immersive displays — the Immersadesk R2 and
// active-stereo Workwall the paper drives (§3.1.2, §5.3), and e-Demand's
// autostereo targets (§2). Renders left/right eye views with a symmetric
// eye offset; output pairs feed page-flipped or side-by-side displays.
#pragma once

#include "render/rasterizer.hpp"
#include "render/raycast.hpp"

namespace rave::render {

struct StereoOptions {
  // Interocular distance in world units.
  float eye_separation = 0.065f;
  RenderOptions base{};
};

struct StereoPair {
  FrameBuffer left;
  FrameBuffer right;
};

// Cameras for each eye: offset along the view-plane right axis, converged
// on the shared target (toe-in model, standard for the 2004 hardware).
scene::Camera left_eye(const scene::Camera& center, float eye_separation);
scene::Camera right_eye(const scene::Camera& center, float eye_separation);

StereoPair render_stereo(const scene::SceneTree& tree, const scene::Camera& camera, int width,
                         int height, const StereoOptions& options = {});

// Side-by-side packing for single-framebuffer transports (each eye
// half-width), the format a thin client can ship like any mono frame.
Image pack_side_by_side(const StereoPair& pair);

// Red/cyan anaglyph composite for preview on ordinary displays.
Image anaglyph(const StereoPair& pair);

}  // namespace rave::render
