#include "render/stereo.hpp"

#include "render/render_list.hpp"

namespace rave::render {

using scene::Camera;
using util::Vec3;

namespace {
Camera offset_eye(const Camera& center, float offset) {
  Camera eye = center;
  const Vec3 view = center.view_dir();
  Vec3 right = util::cross(view, center.up);
  if (right.length_sq() < 1e-12f) right = Vec3{1, 0, 0};
  right = util::normalize(right);
  eye.eye = center.eye + right * offset;
  // Toe-in: both eyes keep the shared target.
  return eye;
}
}  // namespace

Camera left_eye(const Camera& center, float eye_separation) {
  return offset_eye(center, -eye_separation * 0.5f);
}

Camera right_eye(const Camera& center, float eye_separation) {
  return offset_eye(center, eye_separation * 0.5f);
}

StereoPair render_stereo(const scene::SceneTree& tree, const Camera& camera, int width,
                         int height, const StereoOptions& options) {
  const float aspect = static_cast<float>(width) / static_cast<float>(height);
  RenderListOptions list_options;
  list_options.frustum_cull = options.base.frustum_cull;
  // The ray-caster shares the rasterizer's pool (rows are independent, so
  // the parallel result is identical to the serial one).
  RaycastOptions ray_opts;
  ray_opts.region = options.base.region;
  ray_opts.pool = options.base.pool;
  // One culled list per eye feeds both backends.
  const auto render_eye = [&](const Camera& eye) {
    const RenderList list = build_render_list(tree, eye, aspect, list_options);
    Rasterizer raster(width, height);
    raster.clear(options.base);
    raster.draw_list(list, eye, options.base);
    raycast_list(raster.framebuffer(), list, eye, ray_opts);
    return std::move(raster.framebuffer());
  };
  StereoPair pair;
  pair.left = render_eye(left_eye(camera, options.eye_separation));
  pair.right = render_eye(right_eye(camera, options.eye_separation));
  return pair;
}

Image pack_side_by_side(const StereoPair& pair) {
  const Image left = pair.left.to_image();
  const Image right = pair.right.to_image();
  Image out(left.width * 2, left.height);
  for (int y = 0; y < left.height; ++y) {
    for (int x = 0; x < left.width; ++x) {
      const uint8_t* l = left.pixel(x, y);
      out.set_pixel(x, y, l[0], l[1], l[2]);
      if (y < right.height && x < right.width) {
        const uint8_t* r = right.pixel(x, y);
        out.set_pixel(left.width + x, y, r[0], r[1], r[2]);
      }
    }
  }
  return out;
}

Image anaglyph(const StereoPair& pair) {
  const Image left = pair.left.to_image();
  const Image right = pair.right.to_image();
  Image out(left.width, left.height);
  for (int y = 0; y < left.height; ++y) {
    for (int x = 0; x < left.width; ++x) {
      // Luminance-red from the left eye, green/blue from the right.
      const uint8_t* l = left.pixel(x, y);
      const uint8_t lum =
          static_cast<uint8_t>(0.299f * l[0] + 0.587f * l[1] + 0.114f * l[2]);
      const uint8_t* r = (y < right.height && x < right.width) ? right.pixel(x, y) : l;
      out.set_pixel(x, y, lum, r[1], r[2]);
    }
  }
  return out;
}

}  // namespace rave::render
