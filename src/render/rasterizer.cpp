#include "render/rasterizer.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/render_list.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#elif defined(__aarch64__)
#include <arm_neon.h>
#endif

namespace rave::render {

namespace {

// Vertex-shading work is chunked at this granularity on the pool.
constexpr size_t kVertexChunk = 4096;

// The fixed shading model: background colour, light direction (towards
// the light, world space) and the ambient floor of the Lambert term.
// Back faces are always culled.
constexpr Vec3 kBackground{0.08f, 0.08f, 0.12f};
constexpr Vec3 kLightDir{0.35f, 0.55f, 0.85f};
constexpr float kAmbient = 0.35f;

uint8_t to_byte(float v) { return static_cast<uint8_t>(std::clamp(v, 0.0f, 1.0f) * 255.0f + 0.5f); }

Tile clamp_region(const Tile& region, int width, int height) {
  Tile t = region;
  if (t.width <= 0 || t.height <= 0) t = Tile{0, 0, width, height};
  const int x0 = std::max(0, t.x);
  const int y0 = std::max(0, t.y);
  const int x1 = std::min(width, t.right());
  const int y1 = std::min(height, t.bottom());
  return Tile{x0, y0, std::max(0, x1 - x0), std::max(0, y1 - y0)};
}

struct ShadedVertex {
  util::Vec4 clip;   // clip-space position
  Vec3 color;
  float sx, sy, sz;  // screen-space position (perspective-divided)
};

// Perspective divide + viewport transform. Computed once per shaded
// vertex (and once per clip-generated vertex) instead of once per
// triangle reference: vertices are shared ~6 ways in typical meshes, so
// this removes most of the per-triangle divides. The arithmetic sequence
// is unchanged, so every consumer sees bit-identical screen coordinates.
// Vertices behind the eye (w near 0) produce inf/nan here, but the
// near-plane clip discards them before any triangle reads these fields.
inline void project_vertex(ShadedVertex& v, float fw, float fh) {
  const float inv_w = 1.0f / v.clip.w;
  v.sx = (v.clip.x * inv_w * 0.5f + 0.5f) * fw;
  v.sy = (0.5f - v.clip.y * inv_w * 0.5f) * fh;  // y down
  v.sz = v.clip.z * inv_w * 0.5f + 0.5f;         // [0,1]
}

// Screen-space triangle after perspective divide, with the edge functions
// e_i(px,py) = ea[i]*px + eb[i]*py + ec[i] precomputed once. e_i >= 0 for
// all three edges means inside. The raster kernels evaluate the edges
// directly at every pixel center — e_i = ea[i]*(x+0.5) + row base, where
// the row base eb[i]*(y+0.5) + ec[i] is computed once per row — so the
// value at a pixel is a function of the triangle and the absolute pixel
// position alone. Any window (full frame or a region tile) and any lane
// width (scalar or 4/8-wide SIMD) performs the exact same float
// operations per pixel and is therefore bit-identical.
struct ScreenTriangle {
  float ea[3], eb[3], ec[3];
  float z[3];
  Vec3 color[3];
  float inv_area;
  int x0, y0, x1, y1;  // inclusive pixel bbox, clamped to the framebuffer
};

// Point splat after projection; color is pre-quantized (it is constant
// across the splat, so per-pixel conversion would repeat the same work).
struct ScreenSplat {
  int x, y, radius;
  float depth;
  uint8_t r, g, b;
};

int floor_to_int(float v) {
  return static_cast<int>(std::floor(std::clamp(v, -1e9f, 1e9f)));
}
int ceil_to_int(float v) {
  return static_cast<int>(std::ceil(std::clamp(v, -1e9f, 1e9f)));
}

// Build the screen triangle. Returns false for backfacing/degenerate
// triangles (CCW convention, matching the previous signed-area test); the
// bbox may still be empty when the triangle lies outside the framebuffer.
bool setup_triangle(const ShadedVertex& a, const ShadedVertex& b, const ShadedVertex& c, int w,
                    int h, ScreenTriangle& out) {
  const float ax = a.sx, ay = a.sy, az = a.sz;
  const float bx = b.sx, by = b.sy, bz = b.sz;
  const float cx = c.sx, cy = c.sy, cz = c.sz;

  const float area = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax);
  if (area <= 0.0f) return false;  // backface or degenerate
  out.inv_area = 1.0f / area;

  // Edge i opposes vertex i: e0 spans b->c, e1 c->a, e2 a->b.
  const auto edge = [](float ux, float uy, float vx, float vy, float& A, float& B, float& C) {
    A = uy - vy;
    B = vx - ux;
    C = (vy - uy) * ux - (vx - ux) * uy;
  };
  edge(bx, by, cx, cy, out.ea[0], out.eb[0], out.ec[0]);
  edge(cx, cy, ax, ay, out.ea[1], out.eb[1], out.ec[1]);
  edge(ax, ay, bx, by, out.ea[2], out.eb[2], out.ec[2]);

  out.z[0] = az;
  out.z[1] = bz;
  out.z[2] = cz;
  out.color[0] = a.color;
  out.color[1] = b.color;
  out.color[2] = c.color;

  out.x0 = std::max(0, floor_to_int(std::min({ax, bx, cx})));
  out.x1 = std::min(w - 1, ceil_to_int(std::max({ax, bx, cx})));
  out.y0 = std::max(0, floor_to_int(std::min({ay, by, cy})));
  out.y1 = std::min(h - 1, ceil_to_int(std::max({ay, by, cy})));
  return true;
}

// The canonical per-pixel arithmetic. Every kernel — scalar, SSE2, AVX2,
// NEON, and the vector kernels' ragged tails — performs exactly this
// operation sequence per pixel (mul/add grouping included), which is what
// makes their outputs byte-identical. Compiled with -ffp-contract=off so
// no path silently fuses a*b+c (see top-level CMakeLists).
inline void raster_pixel(FrameBuffer& fb, RenderStats& stats, const ScreenTriangle& t,
                         int x, int y, float b0, float b1, float b2) {
  const float px = static_cast<float>(x) + 0.5f;
  const float e0 = t.ea[0] * px + b0;
  const float e1 = t.ea[1] * px + b1;
  const float e2 = t.ea[2] * px + b2;
  if (e0 >= 0.0f && e1 >= 0.0f && e2 >= 0.0f) {
    const float w0 = e0 * t.inv_area;
    const float w1 = e1 * t.inv_area;
    const float w2 = e2 * t.inv_area;
    const float z = w0 * t.z[0] + w1 * t.z[1] + w2 * t.z[2];
    if (z >= 0.0f && z < fb.depth_at(x, y)) {
      fb.set_depth(x, y, z);
      const Vec3 color = t.color[0] * w0 + t.color[1] * w1 + t.color[2] * w2;
      fb.set_pixel(x, y, to_byte(color.x), to_byte(color.y), to_byte(color.z));
      ++stats.pixels_shaded;
    }
  }
}

// Row base values: eb[i]*(y+0.5) + ec[i], computed identically (scalar)
// by every kernel.
inline void row_bases(const ScreenTriangle& t, int y, float& b0, float& b1, float& b2) {
  const float py = static_cast<float>(y) + 0.5f;
  b0 = t.eb[0] * py + t.ec[0];
  b1 = t.eb[1] * py + t.ec[1];
  b2 = t.eb[2] * py + t.ec[2];
}

void raster_window_scalar(FrameBuffer& fb, RenderStats& stats, const ScreenTriangle& t,
                          int wx0, int wy0, int wx1, int wy1) {
  for (int y = wy0; y <= wy1; ++y) {
    float b0, b1, b2;
    row_bases(t, y, b0, b1, b2);
    for (int x = wx0; x <= wx1; ++x) raster_pixel(fb, stats, t, x, y, b0, b1, b2);
  }
}

#if defined(__x86_64__)

// The vector kernels step whole lane groups even across the bbox edge
// `wx1`: pixels right of the bbox are strictly outside the triangle's
// convex hull (x1 is ceil'd in setup), so the coverage mask kills those
// lanes and nothing is stored for them — identical output to the scalar
// walk, one iteration per ragged row instead of a per-pixel tail. Groups
// may not cross `wlast` (the last column of the region being drawn):
// beyond it pixels can be inside the triangle but belong to another tile,
// so the remainder falls back to the scalar pixel walk.
void raster_window_sse2(FrameBuffer& fb, RenderStats& stats, const ScreenTriangle& t,
                        int wx0, int wy0, int wx1, int wy1, int wlast) {
  const __m128 ea0 = _mm_set1_ps(t.ea[0]), ea1 = _mm_set1_ps(t.ea[1]),
               ea2 = _mm_set1_ps(t.ea[2]);
  const __m128 inv_area = _mm_set1_ps(t.inv_area);
  const __m128 tz0 = _mm_set1_ps(t.z[0]), tz1 = _mm_set1_ps(t.z[1]),
               tz2 = _mm_set1_ps(t.z[2]);
  const __m128 zero = _mm_setzero_ps();
  const __m128 one = _mm_set1_ps(1.0f);
  const __m128 half = _mm_set1_ps(0.5f);
  const __m128 k255 = _mm_set1_ps(255.0f);
  // Lanes with px >= wx1 + 1 are beyond the bbox: masked off, because the
  // scalar twin never evaluates them (exact: wx1 + 1 fits a float).
  const __m128 xlimit = _mm_set1_ps(static_cast<float>(wx1) + 1.0f);
  for (int y = wy0; y <= wy1; ++y) {
    float b0, b1, b2;
    row_bases(t, y, b0, b1, b2);
    const __m128 b0v = _mm_set1_ps(b0), b1v = _mm_set1_ps(b1), b2v = _mm_set1_ps(b2);
    float* drow = fb.depth_row(y);
    int x = wx0;
    for (; x <= wx1 && x + 3 <= wlast; x += 4) {
      const __m128 px =
          _mm_add_ps(_mm_cvtepi32_ps(_mm_setr_epi32(x, x + 1, x + 2, x + 3)), half);
      const __m128 e0 = _mm_add_ps(_mm_mul_ps(ea0, px), b0v);
      const __m128 e1 = _mm_add_ps(_mm_mul_ps(ea1, px), b1v);
      const __m128 e2 = _mm_add_ps(_mm_mul_ps(ea2, px), b2v);
      __m128 mask = _mm_and_ps(_mm_and_ps(_mm_cmpge_ps(e0, zero), _mm_cmpge_ps(e1, zero)),
                               _mm_and_ps(_mm_cmpge_ps(e2, zero), _mm_cmplt_ps(px, xlimit)));
      if (_mm_movemask_ps(mask) == 0) continue;
      const __m128 w0 = _mm_mul_ps(e0, inv_area);
      const __m128 w1 = _mm_mul_ps(e1, inv_area);
      const __m128 w2 = _mm_mul_ps(e2, inv_area);
      const __m128 z = _mm_add_ps(_mm_add_ps(_mm_mul_ps(w0, tz0), _mm_mul_ps(w1, tz1)),
                                  _mm_mul_ps(w2, tz2));
      const __m128 depth = _mm_loadu_ps(drow + x);
      mask = _mm_and_ps(mask, _mm_and_ps(_mm_cmpge_ps(z, zero), _mm_cmplt_ps(z, depth)));
      const int mm = _mm_movemask_ps(mask);
      if (mm == 0) continue;
      _mm_storeu_ps(drow + x, _mm_or_ps(_mm_and_ps(mask, z), _mm_andnot_ps(mask, depth)));
      const auto channel = [&](float c0, float c1, float c2) {
        __m128 v = _mm_add_ps(_mm_add_ps(_mm_mul_ps(_mm_set1_ps(c0), w0),
                                         _mm_mul_ps(_mm_set1_ps(c1), w1)),
                              _mm_mul_ps(_mm_set1_ps(c2), w2));
        v = _mm_min_ps(_mm_max_ps(v, zero), one);
        return _mm_cvttps_epi32(_mm_add_ps(_mm_mul_ps(v, k255), half));
      };
      alignas(16) int32_t cr[4], cg[4], cb[4];
      _mm_store_si128(reinterpret_cast<__m128i*>(cr),
                      channel(t.color[0].x, t.color[1].x, t.color[2].x));
      _mm_store_si128(reinterpret_cast<__m128i*>(cg),
                      channel(t.color[0].y, t.color[1].y, t.color[2].y));
      _mm_store_si128(reinterpret_cast<__m128i*>(cb),
                      channel(t.color[0].z, t.color[1].z, t.color[2].z));
      for (int k = 0; k < 4; ++k)
        if (mm & (1 << k))
          fb.set_pixel(x + k, y, static_cast<uint8_t>(cr[k]), static_cast<uint8_t>(cg[k]),
                       static_cast<uint8_t>(cb[k]));
      stats.pixels_shaded += static_cast<uint64_t>(__builtin_popcount(static_cast<unsigned>(mm)));
    }
    for (; x <= wx1; ++x) raster_pixel(fb, stats, t, x, y, b0, b1, b2);
  }
}

// Hoisted out of raster_window_avx2 because GCC lambdas do not inherit the
// enclosing function's target attribute.
__attribute__((target("avx2"), always_inline)) static inline __m256i avx2_channel(
    float c0, float c1, float c2, __m256 w0, __m256 w1, __m256 w2, __m256 zero,
    __m256 one, __m256 half, __m256 k255) {
  __m256 v = _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(_mm256_set1_ps(c0), w0),
                                         _mm256_mul_ps(_mm256_set1_ps(c1), w1)),
                           _mm256_mul_ps(_mm256_set1_ps(c2), w2));
  v = _mm256_min_ps(_mm256_max_ps(v, zero), one);
  return _mm256_cvttps_epi32(_mm256_add_ps(_mm256_mul_ps(v, k255), half));
}

__attribute__((target("avx2"))) void raster_window_avx2(FrameBuffer& fb, RenderStats& stats,
                                                        const ScreenTriangle& t, int wx0,
                                                        int wy0, int wx1, int wy1,
                                                        int wlast) {
  const __m256 ea0 = _mm256_set1_ps(t.ea[0]), ea1 = _mm256_set1_ps(t.ea[1]),
               ea2 = _mm256_set1_ps(t.ea[2]);
  const __m256 inv_area = _mm256_set1_ps(t.inv_area);
  const __m256 tz0 = _mm256_set1_ps(t.z[0]), tz1 = _mm256_set1_ps(t.z[1]),
               tz2 = _mm256_set1_ps(t.z[2]);
  const __m256 zero = _mm256_setzero_ps();
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 k255 = _mm256_set1_ps(255.0f);
  const __m256 xlimit = _mm256_set1_ps(static_cast<float>(wx1) + 1.0f);
  const __m256i lane = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
  for (int y = wy0; y <= wy1; ++y) {
    float b0, b1, b2;
    row_bases(t, y, b0, b1, b2);
    const __m256 b0v = _mm256_set1_ps(b0), b1v = _mm256_set1_ps(b1),
                 b2v = _mm256_set1_ps(b2);
    float* drow = fb.depth_row(y);
    int x = wx0;
    for (; x <= wx1 && x + 7 <= wlast; x += 8) {
      const __m256 px = _mm256_add_ps(
          _mm256_cvtepi32_ps(_mm256_add_epi32(_mm256_set1_epi32(x), lane)), half);
      const __m256 e0 = _mm256_add_ps(_mm256_mul_ps(ea0, px), b0v);
      const __m256 e1 = _mm256_add_ps(_mm256_mul_ps(ea1, px), b1v);
      const __m256 e2 = _mm256_add_ps(_mm256_mul_ps(ea2, px), b2v);
      __m256 mask = _mm256_and_ps(
          _mm256_and_ps(_mm256_cmp_ps(e0, zero, _CMP_GE_OQ),
                        _mm256_cmp_ps(e1, zero, _CMP_GE_OQ)),
          _mm256_and_ps(_mm256_cmp_ps(e2, zero, _CMP_GE_OQ),
                        _mm256_cmp_ps(px, xlimit, _CMP_LT_OQ)));
      if (_mm256_movemask_ps(mask) == 0) continue;
      const __m256 w0 = _mm256_mul_ps(e0, inv_area);
      const __m256 w1 = _mm256_mul_ps(e1, inv_area);
      const __m256 w2 = _mm256_mul_ps(e2, inv_area);
      const __m256 z =
          _mm256_add_ps(_mm256_add_ps(_mm256_mul_ps(w0, tz0), _mm256_mul_ps(w1, tz1)),
                        _mm256_mul_ps(w2, tz2));
      const __m256 depth = _mm256_loadu_ps(drow + x);
      mask = _mm256_and_ps(mask, _mm256_and_ps(_mm256_cmp_ps(z, zero, _CMP_GE_OQ),
                                               _mm256_cmp_ps(z, depth, _CMP_LT_OQ)));
      const int mm = _mm256_movemask_ps(mask);
      if (mm == 0) continue;
      _mm256_storeu_ps(drow + x, _mm256_blendv_ps(depth, z, mask));
      alignas(32) int32_t cr[8], cg[8], cb[8];
      _mm256_store_si256(reinterpret_cast<__m256i*>(cr),
                         avx2_channel(t.color[0].x, t.color[1].x, t.color[2].x, w0, w1,
                                      w2, zero, one, half, k255));
      _mm256_store_si256(reinterpret_cast<__m256i*>(cg),
                         avx2_channel(t.color[0].y, t.color[1].y, t.color[2].y, w0, w1,
                                      w2, zero, one, half, k255));
      _mm256_store_si256(reinterpret_cast<__m256i*>(cb),
                         avx2_channel(t.color[0].z, t.color[1].z, t.color[2].z, w0, w1,
                                      w2, zero, one, half, k255));
      for (int k = 0; k < 8; ++k)
        if (mm & (1 << k))
          fb.set_pixel(x + k, y, static_cast<uint8_t>(cr[k]), static_cast<uint8_t>(cg[k]),
                       static_cast<uint8_t>(cb[k]));
      stats.pixels_shaded += static_cast<uint64_t>(__builtin_popcount(static_cast<unsigned>(mm)));
    }
    for (; x <= wx1; ++x) raster_pixel(fb, stats, t, x, y, b0, b1, b2);
  }
}

#elif defined(__aarch64__)

void raster_window_neon(FrameBuffer& fb, RenderStats& stats, const ScreenTriangle& t,
                        int wx0, int wy0, int wx1, int wy1, int wlast) {
  const float32x4_t ea0 = vdupq_n_f32(t.ea[0]), ea1 = vdupq_n_f32(t.ea[1]),
                    ea2 = vdupq_n_f32(t.ea[2]);
  const float32x4_t inv_area = vdupq_n_f32(t.inv_area);
  const float32x4_t tz0 = vdupq_n_f32(t.z[0]), tz1 = vdupq_n_f32(t.z[1]),
                    tz2 = vdupq_n_f32(t.z[2]);
  const float32x4_t zero = vdupq_n_f32(0.0f);
  const float32x4_t one = vdupq_n_f32(1.0f);
  const float32x4_t half = vdupq_n_f32(0.5f);
  const float32x4_t k255 = vdupq_n_f32(255.0f);
  const float32x4_t xlimit = vdupq_n_f32(static_cast<float>(wx1) + 1.0f);
  const int32x4_t lane = {0, 1, 2, 3};
  for (int y = wy0; y <= wy1; ++y) {
    float b0, b1, b2;
    row_bases(t, y, b0, b1, b2);
    const float32x4_t b0v = vdupq_n_f32(b0), b1v = vdupq_n_f32(b1), b2v = vdupq_n_f32(b2);
    float* drow = fb.depth_row(y);
    int x = wx0;
    for (; x <= wx1 && x + 3 <= wlast; x += 4) {
      // vmulq + vaddq, never vfmaq: matches the unfused scalar twin.
      const float32x4_t px =
          vaddq_f32(vcvtq_f32_s32(vaddq_s32(vdupq_n_s32(x), lane)), half);
      const float32x4_t e0 = vaddq_f32(vmulq_f32(ea0, px), b0v);
      const float32x4_t e1 = vaddq_f32(vmulq_f32(ea1, px), b1v);
      const float32x4_t e2 = vaddq_f32(vmulq_f32(ea2, px), b2v);
      uint32x4_t mask = vandq_u32(vandq_u32(vcgeq_f32(e0, zero), vcgeq_f32(e1, zero)),
                                  vandq_u32(vcgeq_f32(e2, zero), vcltq_f32(px, xlimit)));
      if (vmaxvq_u32(mask) == 0) continue;
      const float32x4_t w0 = vmulq_f32(e0, inv_area);
      const float32x4_t w1 = vmulq_f32(e1, inv_area);
      const float32x4_t w2 = vmulq_f32(e2, inv_area);
      const float32x4_t z =
          vaddq_f32(vaddq_f32(vmulq_f32(w0, tz0), vmulq_f32(w1, tz1)), vmulq_f32(w2, tz2));
      const float32x4_t depth = vld1q_f32(drow + x);
      mask = vandq_u32(mask, vandq_u32(vcgeq_f32(z, zero), vcltq_f32(z, depth)));
      if (vmaxvq_u32(mask) == 0) continue;
      vst1q_f32(drow + x, vbslq_f32(mask, z, depth));
      const auto channel = [&](float c0, float c1, float c2) {
        float32x4_t v = vaddq_f32(vaddq_f32(vmulq_f32(vdupq_n_f32(c0), w0),
                                            vmulq_f32(vdupq_n_f32(c1), w1)),
                                  vmulq_f32(vdupq_n_f32(c2), w2));
        v = vminq_f32(vmaxq_f32(v, zero), one);
        return vcvtq_s32_f32(vaddq_f32(vmulq_f32(v, k255), half));  // truncates
      };
      alignas(16) int32_t cr[4], cg[4], cb[4];
      alignas(16) uint32_t mbits[4];
      vst1q_s32(cr, channel(t.color[0].x, t.color[1].x, t.color[2].x));
      vst1q_s32(cg, channel(t.color[0].y, t.color[1].y, t.color[2].y));
      vst1q_s32(cb, channel(t.color[0].z, t.color[1].z, t.color[2].z));
      vst1q_u32(mbits, mask);
      for (int k = 0; k < 4; ++k)
        if (mbits[k] != 0) {
          fb.set_pixel(x + k, y, static_cast<uint8_t>(cr[k]), static_cast<uint8_t>(cg[k]),
                       static_cast<uint8_t>(cb[k]));
          ++stats.pixels_shaded;
        }
    }
    for (; x <= wx1; ++x) raster_pixel(fb, stats, t, x, y, b0, b1, b2);
  }
}

#endif

// Rasterize the triangle into the window `win` (already intersected with
// the triangle bbox by the caller), dispatching to the widest kernel the
// active SIMD level allows. All kernels are byte-identical (see
// raster_pixel above), so the level only changes speed, never output.
void raster_triangle_window(FrameBuffer& fb, RenderStats& stats, const ScreenTriangle& t,
                            const Tile& win) {
  const int wx0 = std::max(t.x0, win.x);
  const int wlast = win.right() - 1;  // last column of the region
  const int wx1 = std::min(t.x1, wlast);
  const int wy0 = std::max(t.y0, win.y);
  const int wy1 = std::min(t.y1, win.bottom() - 1);
  if (wx0 > wx1 || wy0 > wy1) return;
  switch (util::active_simd_level()) {
#if defined(__x86_64__)
    case util::SimdLevel::Avx2:
      raster_window_avx2(fb, stats, t, wx0, wy0, wx1, wy1, wlast);
      return;
    case util::SimdLevel::Sse2:
      raster_window_sse2(fb, stats, t, wx0, wy0, wx1, wy1, wlast);
      return;
#elif defined(__aarch64__)
    case util::SimdLevel::Neon:
      raster_window_neon(fb, stats, t, wx0, wy0, wx1, wy1, wlast);
      return;
#endif
    default:
      raster_window_scalar(fb, stats, t, wx0, wy0, wx1, wy1);
      return;
  }
}

void raster_splat_window(FrameBuffer& fb, RenderStats& stats, const ScreenSplat& s,
                         const Tile& win) {
  const int x0 = std::max(s.x - s.radius, win.x);
  const int x1 = std::min(s.x + s.radius, win.right() - 1);
  const int y0 = std::max(s.y - s.radius, win.y);
  const int y1 = std::min(s.y + s.radius, win.bottom() - 1);
  for (int y = y0; y <= y1; ++y) {
    for (int x = x0; x <= x1; ++x) {
      if (s.depth >= fb.depth_at(x, y)) continue;
      fb.set_depth(x, y, s.depth);
      fb.set_pixel(x, y, s.r, s.g, s.b);
      ++stats.pixels_shaded;
    }
  }
}

// Per-draw deltas into the global registry (counters are process-wide and
// monotonic; RenderStats stays the per-rasterizer view).
void account_draw(const RenderStats& before, const RenderStats& after) {
  auto& reg = obs::MetricsRegistry::global();
  static obs::Counter& submitted = reg.counter("rave_raster_triangles_submitted_total");
  static obs::Counter& rasterized = reg.counter("rave_raster_triangles_rasterized_total");
  static obs::Counter& clipped = reg.counter("rave_raster_triangles_clipped_total");
  static obs::Counter& pixels = reg.counter("rave_raster_pixels_shaded_total");
  const uint64_t d_submitted = after.triangles_submitted - before.triangles_submitted;
  const uint64_t d_rasterized = after.triangles_rasterized - before.triangles_rasterized;
  submitted.inc(d_submitted);
  rasterized.inc(d_rasterized);
  if (d_submitted > d_rasterized) clipped.inc(d_submitted - d_rasterized);
  pixels.inc(after.pixels_shaded - before.pixels_shaded);
}

}  // namespace

Rasterizer::Rasterizer(int width, int height) : fb_(width, height) {}

void Rasterizer::clear(const RenderOptions& options) {
  const Tile region = clamp_region(options.region, fb_.width(), fb_.height());
  if (region.width == fb_.width() && region.height == fb_.height()) {
    fb_.clear(kBackground);
    return;
  }
  const uint8_t r = to_byte(kBackground.x);
  const uint8_t g = to_byte(kBackground.y);
  const uint8_t b = to_byte(kBackground.z);
  for (int y = region.y; y < region.bottom(); ++y) {
    fb_.fill_color_row(region.x, y, region.width, r, g, b);
    fb_.fill_depth_row(region.x, y, region.width, 1.0f);
  }
}

void Rasterizer::draw_mesh(const scene::MeshData& mesh, const Mat4& model, const Camera& camera,
                           const RenderOptions& options) {
  if (mesh.indices.empty()) return;
  const Tile region = clamp_region(options.region, fb_.width(), fb_.height());
  if (region.width == 0 || region.height == 0) return;

  const float aspect = static_cast<float>(fb_.width()) / static_cast<float>(fb_.height());
  const Mat4 mvp = camera.projection(aspect) * camera.view() * model;
  const Vec3 light = util::normalize(kLightDir);
  // Normal matrix: rotation part of the model matrix (uniform scale
  // assumed; normals are re-normalized after transform).
  const bool has_normals = mesh.normals.size() == mesh.positions.size();
  const bool has_colors = mesh.colors.size() == mesh.positions.size();

  // Shade all vertices once. Vertices are independent and each chunk
  // writes disjoint slots, so pooled shading is bit-identical to serial.
  std::vector<ShadedVertex> shaded(mesh.positions.size());
  const float fb_w = static_cast<float>(fb_.width());
  const float fb_h = static_cast<float>(fb_.height());
  const auto shade_range = [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      shaded[i].clip = mvp * util::Vec4(mesh.positions[i], 1.0f);
      const Vec3 albedo = has_colors ? mesh.colors[i] : mesh.base_color;
      float lambert = 1.0f;
      if (has_normals) {
        const Vec3 n = util::normalize(model.transform_dir(mesh.normals[i]));
        lambert = kAmbient + (1.0f - kAmbient) * std::max(0.0f, util::dot(n, light));
      }
      shaded[i].color = albedo * lambert;
      project_vertex(shaded[i], fb_w, fb_h);
    }
  };
  {
    obs::ScopedSpan shade_span("shade", obs::Tracer::current_host());
    if (options.pool != nullptr && shaded.size() > kVertexChunk) {
      const size_t chunks = (shaded.size() + kVertexChunk - 1) / kVertexChunk;
      options.pool->parallel_for(chunks, [&](size_t c) {
        shade_range(c * kVertexChunk, std::min(shaded.size(), (c + 1) * kVertexChunk));
      });
    } else {
      shade_range(0, shaded.size());
    }
  }

  const RenderStats before_draw = stats_;
  stats_.triangles_submitted += mesh.triangle_count();
  const float near_w = 1e-4f;

  // Clip, set up and raster each triangle in submission order, straight
  // into the region (DESIGN.md "Pooled rendering and determinism" says why
  // this stage is serial). `rasterized` counts area-passing triangles.
  uint64_t rasterized = 0;
  const auto submit = [&](const ShadedVertex& a, const ShadedVertex& b, const ShadedVertex& c) {
    ScreenTriangle tri;
    if (!setup_triangle(a, b, c, fb_.width(), fb_.height(), tri)) return;
    ++rasterized;
    if (tri.x0 <= tri.x1 && tri.y0 <= tri.y1) raster_triangle_window(fb_, stats_, tri, region);
  };
  {
    obs::ScopedSpan raster_span("raster", obs::Tracer::current_host());
    for (size_t t = 0; t + 2 < mesh.indices.size(); t += 3) {
      const ShadedVertex* v[3] = {&shaded[mesh.indices[t]], &shaded[mesh.indices[t + 1]],
                                  &shaded[mesh.indices[t + 2]]};
      // Near-plane clip (w <= 0 or z < -w). Clip the triangle against
      // z + w > 0 producing up to 2 triangles.
      float d[3];
      int inside = 0;
      for (int i = 0; i < 3; ++i) {
        d[i] = v[i]->clip.z + v[i]->clip.w;
        if (d[i] > near_w) ++inside;
      }
      if (inside == 0) continue;

      if (inside == 3) {
        // Fast path: no clipping, no vertex copies.
        submit(*v[0], *v[1], *v[2]);
        continue;
      }

      // Sutherland–Hodgman against the near plane.
      ShadedVertex clipped[4];
      int count = 0;
      for (int i = 0; i < 3; ++i) {
        const ShadedVertex& cur = *v[i];
        const ShadedVertex& nxt = *v[(i + 1) % 3];
        const float dc = d[i];
        const float dn = d[(i + 1) % 3];
        if (dc > near_w) clipped[count++] = cur;
        if ((dc > near_w) != (dn > near_w)) {
          const float s = (near_w - dc) / (dn - dc);
          ShadedVertex mid;
          mid.clip = util::lerp(cur.clip, nxt.clip, s);
          mid.color = util::lerp(cur.color, nxt.color, s);
          project_vertex(mid, fb_w, fb_h);
          clipped[count++] = mid;
        }
      }
      if (count < 3) continue;

      for (int i = 1; i + 1 < count; ++i) {
        // Backface culling happens in setup_triangle via signed area.
        submit(clipped[0], clipped[i], clipped[i + 1]);
      }
    }
  }
  stats_.triangles_rasterized += rasterized;
  account_draw(before_draw, stats_);
}

void Rasterizer::draw_points(const scene::PointCloudData& points, const Mat4& model,
                             const Camera& camera, const RenderOptions& options) {
  const Tile region = clamp_region(options.region, fb_.width(), fb_.height());
  if (region.width == 0 || region.height == 0) return;
  const float aspect = static_cast<float>(fb_.width()) / static_cast<float>(fb_.height());
  const Mat4 mvp = camera.projection(aspect) * camera.view() * model;
  const bool has_colors = points.colors.size() == points.positions.size();
  const int radius = std::max(0, static_cast<int>(points.point_size / 2.0f));

  stats_.points_submitted += points.positions.size();
  for (size_t i = 0; i < points.positions.size(); ++i) {
    const util::Vec4 clip = mvp * util::Vec4(points.positions[i], 1.0f);
    if (clip.w <= 1e-4f || clip.z < -clip.w) continue;
    const float inv_w = 1.0f / clip.w;
    ScreenSplat s;
    s.x = static_cast<int>((clip.x * inv_w * 0.5f + 0.5f) * fb_.width());
    s.y = static_cast<int>((0.5f - clip.y * inv_w * 0.5f) * fb_.height());
    s.depth = clip.z * inv_w * 0.5f + 0.5f;
    s.radius = radius;
    const Vec3 color = has_colors ? points.colors[i] : points.base_color;
    s.r = to_byte(color.x);
    s.g = to_byte(color.y);
    s.b = to_byte(color.z);
    raster_splat_window(fb_, stats_, s, region);
  }
}

void Rasterizer::draw_list(const RenderList& list, const Camera& camera,
                           const RenderOptions& options, size_t first) {
  stats_.nodes_culled += list.nodes_culled;
  draw_items(list, first, list.raster.size(), camera, options);
}

void Rasterizer::draw_items(const RenderList& list, size_t first, size_t last,
                            const Camera& camera, const RenderOptions& options) {
  last = std::min(last, list.raster.size());
  for (size_t i = first; i < last; ++i) {
    const RenderList::RasterItem& item = list.raster[i];
    if (const auto* mesh = std::get_if<scene::MeshData>(&item.node->payload)) {
      draw_mesh(*mesh, item.world, camera, options);
    } else if (const auto* pts = std::get_if<scene::PointCloudData>(&item.node->payload)) {
      draw_points(*pts, item.world, camera, options);
    } else if (const auto* av = std::get_if<scene::AvatarData>(&item.node->payload)) {
      draw_mesh(scene::make_avatar_mesh(*av), item.world, camera, options);
    }
  }
}

FrameBuffer render_tree(const scene::SceneTree& tree, const Camera& camera, int width, int height,
                        const RenderOptions& options, RenderStats* stats) {
  Rasterizer raster(width, height);
  raster.clear(options);
  RenderListOptions list_options;
  list_options.frustum_cull = options.frustum_cull;
  const float aspect = static_cast<float>(width) / static_cast<float>(height);
  raster.draw_list(build_render_list(tree, camera, aspect, list_options), camera, options);
  if (stats != nullptr) *stats = raster.stats();
  return std::move(raster.framebuffer());
}

}  // namespace rave::render
