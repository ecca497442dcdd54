#include "util/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "util/log.hpp"

#if defined(__x86_64__)
#define RAVE_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define RAVE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace rave::util {

const char* simd_level_name(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Sse2: return "sse2";
    case SimdLevel::Avx2: return "avx2";
    case SimdLevel::Neon: return "neon";
  }
  return "?";
}

bool parse_simd_level(const char* name, SimdLevel& out) {
  if (name == nullptr) return false;
  for (const SimdLevel l :
       {SimdLevel::Scalar, SimdLevel::Sse2, SimdLevel::Avx2, SimdLevel::Neon}) {
    if (std::strcmp(name, simd_level_name(l)) == 0) {
      out = l;
      return true;
    }
  }
  return false;
}

SimdLevel max_simd_level() {
#if defined(RAVE_SIMD_X86)
  static const SimdLevel level =
      __builtin_cpu_supports("avx2") ? SimdLevel::Avx2 : SimdLevel::Sse2;
  return level;
#elif defined(RAVE_SIMD_NEON)
  return SimdLevel::Neon;
#else
  return SimdLevel::Scalar;
#endif
}

namespace {

// An unsupported request degrades to Scalar (never an illegal instruction);
// an x86 request above the CPU's capability clamps to the capability.
SimdLevel clamp_to_hardware(SimdLevel req) {
  const SimdLevel hw = max_simd_level();
  switch (req) {
    case SimdLevel::Scalar: return SimdLevel::Scalar;
    case SimdLevel::Sse2:
    case SimdLevel::Avx2:
      if (hw != SimdLevel::Sse2 && hw != SimdLevel::Avx2) return SimdLevel::Scalar;
      return static_cast<uint8_t>(req) <= static_cast<uint8_t>(hw) ? req : hw;
    case SimdLevel::Neon:
      return hw == SimdLevel::Neon ? SimdLevel::Neon : SimdLevel::Scalar;
  }
  return SimdLevel::Scalar;
}

std::atomic<uint8_t>& active_level_storage() {
  static std::atomic<uint8_t> level = [] {
    SimdLevel l = max_simd_level();
    if (const char* env = std::getenv("RAVE_SIMD")) {
      SimdLevel parsed;
      if (parse_simd_level(env, parsed)) {
        l = clamp_to_hardware(parsed);
      } else {
        log_warn("simd") << "RAVE_SIMD='" << env
                         << "' not recognized (scalar|sse2|avx2|neon); using "
                         << simd_level_name(l);
      }
    }
    return static_cast<uint8_t>(l);
  }();
  return level;
}

}  // namespace

SimdLevel active_simd_level() {
  return static_cast<SimdLevel>(
      active_level_storage().load(std::memory_order_relaxed));
}

void set_simd_level(SimdLevel level) {
  active_level_storage().store(static_cast<uint8_t>(clamp_to_hardware(level)),
                               std::memory_order_relaxed);
}

namespace simd {
namespace {

// ---- scalar twins ---------------------------------------------------------

size_t mismatch_scalar(const uint8_t* a, const uint8_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i)
    if (a[i] != b[i]) return i;
  return n;
}

void byte_sub_scalar(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<uint8_t>(a[i] - b[i]);
}

void byte_add_scalar(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n) {
  for (size_t i = 0; i < n; ++i) dst[i] = static_cast<uint8_t>(a[i] + b[i]);
}

void fill_rgb_scalar(uint8_t* dst, size_t pixels, uint8_t r, uint8_t g, uint8_t b) {
  for (size_t i = 0; i < pixels; ++i) {
    dst[0] = r;
    dst[1] = g;
    dst[2] = b;
    dst += 3;
  }
}

void pack_rgb565_scalar(const uint8_t* rgb, uint16_t* out, size_t pixels) {
  for (size_t i = 0; i < pixels; ++i) {
    const uint16_t r = rgb[i * 3] >> 3;
    const uint16_t g = rgb[i * 3 + 1] >> 2;
    const uint16_t b = rgb[i * 3 + 2] >> 3;
    out[i] = static_cast<uint16_t>((r << 11) | (g << 5) | b);
  }
}

void depth_select_row_scalar(float* dd, const float* sd, uint8_t* dc,
                             const uint8_t* sc, int i, int width) {
  for (; i < width; ++i) {
    if (sd[i] < dd[i]) {
      dd[i] = sd[i];
      dc[i * 3] = sc[i * 3];
      dc[i * 3 + 1] = sc[i * 3 + 1];
      dc[i * 3 + 2] = sc[i * 3 + 2];
    }
  }
}

// The RGB fill pattern has period 3, which never divides the register
// width, so vector chunk j starts at phase (chunk_bytes * j) % 3. Staging
// the pattern into 3 * chunk_bytes bytes gives one pre-rotated register per
// phase; the store loop cycles through them.
void stage_rgb_pattern(uint8_t* pat, size_t bytes, uint8_t r, uint8_t g, uint8_t b) {
  for (size_t k = 0; k < bytes; k += 3) {  // bytes is a multiple of 3
    pat[k] = r;
    pat[k + 1] = g;
    pat[k + 2] = b;
  }
}

#if defined(RAVE_SIMD_X86)

// ---- SSE2 (x86-64 baseline) ----------------------------------------------

size_t mismatch_sse2(const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    const int neq = _mm_movemask_epi8(_mm_cmpeq_epi8(va, vb)) ^ 0xFFFF;
    if (neq != 0) return i + static_cast<size_t>(__builtin_ctz(static_cast<unsigned>(neq)));
  }
  return i + mismatch_scalar(a + i, b + i, n - i);
}

void byte_sub_sse2(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_sub_epi8(va, vb));
  }
  byte_sub_scalar(dst + i, a + i, b + i, n - i);
}

void byte_add_sse2(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va = _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb = _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm_add_epi8(va, vb));
  }
  byte_add_scalar(dst + i, a + i, b + i, n - i);
}

void fill_rgb_sse2(uint8_t* dst, size_t pixels, uint8_t r, uint8_t g, uint8_t b) {
  const size_t total = pixels * 3;
  // Staging the 48-byte rotated pattern costs more than it saves unless
  // the fill is well past the compiler-vectorized scalar body's reach.
  // RLE runs cap at 255 px (765 B), so codec decodes always take the
  // scalar path; the vector path serves frame/row clears.
  if (total < 2048) {
    fill_rgb_scalar(dst, pixels, r, g, b);
    return;
  }
  alignas(16) uint8_t pat[48];
  stage_rgb_pattern(pat, sizeof(pat), r, g, b);
  const __m128i v[3] = {
      _mm_load_si128(reinterpret_cast<const __m128i*>(pat)),
      _mm_load_si128(reinterpret_cast<const __m128i*>(pat + 16)),
      _mm_load_si128(reinterpret_cast<const __m128i*>(pat + 32)),
  };
  size_t off = 0, phase = 0;
  for (; off + 16 <= total; off += 16) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + off), v[phase]);
    phase = phase == 2 ? 0 : phase + 1;
  }
  const uint8_t comp[3] = {r, g, b};
  for (; off < total; ++off) dst[off] = comp[off % 3];
}

void fill_f32_sse2(float* dst, size_t count, float value) {
  const __m128 v = _mm_set1_ps(value);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) _mm_storeu_ps(dst + i, v);
  for (; i < count; ++i) dst[i] = value;
}

// 16-byte color-select masks for a 4-pixel depth mask: lane bit -> 3 bytes
// of 0xFF (bytes 12..15 stay 0, so the partial overrun write preserves dst).
struct ColorMaskLut {
  alignas(16) uint8_t m[16][16];
  ColorMaskLut() {
    std::memset(m, 0, sizeof(m));
    for (int bits = 0; bits < 16; ++bits)
      for (int lane = 0; lane < 4; ++lane)
        if (bits & (1 << lane))
          for (int k = 0; k < 3; ++k) m[bits][lane * 3 + k] = 0xFF;
  }
};
const ColorMaskLut kColorMask;

void depth_select_row_sse2(float* dd, const float* sd, uint8_t* dc,
                           const uint8_t* sc, int width) {
  int i = 0;
  // Color blends store 16 bytes but only the first 12 carry pixels, so the
  // vector loop stops while the overrun still lands inside this row.
  for (; i + 6 <= width; i += 4) {
    const __m128 s = _mm_loadu_ps(sd + i);
    const __m128 d = _mm_loadu_ps(dd + i);
    const __m128 m = _mm_cmplt_ps(s, d);
    _mm_storeu_ps(dd + i, _mm_or_ps(_mm_and_ps(m, s), _mm_andnot_ps(m, d)));
    const int bits = _mm_movemask_ps(m);
    if (bits != 0) {
      const __m128i cm =
          _mm_load_si128(reinterpret_cast<const __m128i*>(kColorMask.m[bits]));
      const __m128i cs =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(sc + i * 3));
      const __m128i cd =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(dc + i * 3));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(dc + i * 3),
                       _mm_or_si128(_mm_and_si128(cm, cs), _mm_andnot_si128(cm, cd)));
    }
  }
  depth_select_row_scalar(dd, sd, dc, sc, i, width);
}

// ---- AVX2 (runtime-detected; target attribute keeps the rest of the TU
// compiled for the baseline) ------------------------------------------------

__attribute__((target("avx2"))) size_t mismatch_avx2(const uint8_t* a,
                                                     const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    const uint32_t neq =
        ~static_cast<uint32_t>(_mm256_movemask_epi8(_mm256_cmpeq_epi8(va, vb)));
    if (neq != 0) return i + static_cast<size_t>(__builtin_ctz(neq));
  }
  return i + mismatch_sse2(a + i, b + i, n - i);
}

__attribute__((target("avx2"))) void byte_sub_avx2(uint8_t* dst, const uint8_t* a,
                                                   const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_sub_epi8(va, vb));
  }
  byte_sub_scalar(dst + i, a + i, b + i, n - i);
}

__attribute__((target("avx2"))) void byte_add_avx2(uint8_t* dst, const uint8_t* a,
                                                   const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + i));
    const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), _mm256_add_epi8(va, vb));
  }
  byte_add_scalar(dst + i, a + i, b + i, n - i);
}

__attribute__((target("avx2"))) void fill_rgb_avx2(uint8_t* dst, size_t pixels,
                                                   uint8_t r, uint8_t g, uint8_t b) {
  const size_t total = pixels * 3;
  if (total < 2048) {  // see fill_rgb_sse2: staging cost dominates short runs
    fill_rgb_scalar(dst, pixels, r, g, b);
    return;
  }
  alignas(32) uint8_t pat[96];
  stage_rgb_pattern(pat, sizeof(pat), r, g, b);
  const __m256i v[3] = {
      _mm256_load_si256(reinterpret_cast<const __m256i*>(pat)),
      _mm256_load_si256(reinterpret_cast<const __m256i*>(pat + 32)),
      _mm256_load_si256(reinterpret_cast<const __m256i*>(pat + 64)),
  };
  size_t off = 0, phase = 0;
  for (; off + 32 <= total; off += 32) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + off), v[phase]);
    phase = phase == 2 ? 0 : phase + 1;
  }
  const uint8_t comp[3] = {r, g, b};
  for (; off < total; ++off) dst[off] = comp[off % 3];
}

__attribute__((target("avx2"))) void fill_f32_avx2(float* dst, size_t count,
                                                   float value) {
  const __m256 v = _mm256_set1_ps(value);
  size_t i = 0;
  for (; i + 8 <= count; i += 8) _mm256_storeu_ps(dst + i, v);
  for (; i < count; ++i) dst[i] = value;
}

__attribute__((target("avx2"))) void pack_rgb565_avx2(const uint8_t* rgb,
                                                      uint16_t* out, size_t pixels) {
  size_t i = 0;
  if (pixels >= 16) {
    // Per-channel gather masks: output lane p of channel c takes byte
    // 3p + c of the 48-byte group, from whichever 16-byte chunk holds it.
    alignas(16) int8_t gather[3][3][16];
    for (int c = 0; c < 3; ++c)
      for (int chunk = 0; chunk < 3; ++chunk)
        for (int p = 0; p < 16; ++p) {
          const int src = 3 * p + c - 16 * chunk;
          gather[c][chunk][p] = (src >= 0 && src < 16) ? static_cast<int8_t>(src)
                                                       : static_cast<int8_t>(-1);
        }
    __m128i gm[3][3];
    for (int c = 0; c < 3; ++c)
      for (int chunk = 0; chunk < 3; ++chunk)
        gm[c][chunk] = _mm_load_si128(reinterpret_cast<const __m128i*>(gather[c][chunk]));
    const __m128i zero = _mm_setzero_si128();
    for (; i + 16 <= pixels; i += 16) {
      const __m128i v0 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rgb + i * 3));
      const __m128i v1 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rgb + i * 3 + 16));
      const __m128i v2 =
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(rgb + i * 3 + 32));
      __m128i ch[3];
      for (int c = 0; c < 3; ++c)
        ch[c] = _mm_or_si128(_mm_or_si128(_mm_shuffle_epi8(v0, gm[c][0]),
                                          _mm_shuffle_epi8(v1, gm[c][1])),
                             _mm_shuffle_epi8(v2, gm[c][2]));
      for (int half = 0; half < 2; ++half) {
        const auto widen = [&](const __m128i& v) {
          return half == 0 ? _mm_unpacklo_epi8(v, zero) : _mm_unpackhi_epi8(v, zero);
        };
        const __m128i r16 = widen(ch[0]);
        const __m128i g16 = widen(ch[1]);
        const __m128i b16 = widen(ch[2]);
        // (r>>3)<<11 == (r&0xF8)<<8, (g>>2)<<5 == (g&0xFC)<<3 on u16 lanes.
        const __m128i code = _mm_or_si128(
            _mm_or_si128(_mm_slli_epi16(_mm_and_si128(r16, _mm_set1_epi16(0xF8)), 8),
                         _mm_slli_epi16(_mm_and_si128(g16, _mm_set1_epi16(0xFC)), 3)),
            _mm_srli_epi16(b16, 3));
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i + half * 8), code);
      }
    }
  }
  pack_rgb565_scalar(rgb + i * 3, out + i, pixels - i);
}

__attribute__((target("avx2"))) void depth_select_row_avx2(float* dd, const float* sd,
                                                           uint8_t* dc,
                                                           const uint8_t* sc,
                                                           int width) {
  int i = 0;
  // Colors are blended as two 16-byte halves (12 payload bytes each); the
  // second half's overrun must stay inside the row: i*3 + 28 <= width*3.
  for (; i + 10 <= width; i += 8) {
    const __m256 s = _mm256_loadu_ps(sd + i);
    const __m256 d = _mm256_loadu_ps(dd + i);
    const __m256 m = _mm256_cmp_ps(s, d, _CMP_LT_OQ);
    _mm256_storeu_ps(dd + i, _mm256_blendv_ps(d, s, m));
    const int bits = _mm256_movemask_ps(m);
    for (int half = 0; half < 2; ++half) {
      const int quad = (bits >> (half * 4)) & 0xF;
      if (quad == 0) continue;
      uint8_t* cd = dc + (i + half * 4) * 3;
      const uint8_t* cs = sc + (i + half * 4) * 3;
      const __m128i cm =
          _mm_load_si128(reinterpret_cast<const __m128i*>(kColorMask.m[quad]));
      const __m128i vs = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cs));
      const __m128i vd = _mm_loadu_si128(reinterpret_cast<const __m128i*>(cd));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(cd), _mm_blendv_epi8(vd, vs, cm));
    }
  }
  depth_select_row_scalar(dd, sd, dc, sc, i, width);
}

#elif defined(RAVE_SIMD_NEON)

// ---- NEON (aarch64 baseline) ----------------------------------------------

size_t mismatch_neon(const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const uint8x16_t eq = vceqq_u8(vld1q_u8(a + i), vld1q_u8(b + i));
    // Narrow the byte mask to 4 bits per byte packed in a u64.
    const uint64_t mask = vget_lane_u64(
        vreinterpret_u64_u8(vshrn_n_u16(vreinterpretq_u16_u8(eq), 4)), 0);
    if (mask != ~0ull)
      return i + static_cast<size_t>(__builtin_ctzll(~mask) >> 2);
  }
  return i + mismatch_scalar(a + i, b + i, n - i);
}

void byte_sub_neon(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16)
    vst1q_u8(dst + i, vsubq_u8(vld1q_u8(a + i), vld1q_u8(b + i)));
  byte_sub_scalar(dst + i, a + i, b + i, n - i);
}

void byte_add_neon(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n) {
  size_t i = 0;
  for (; i + 16 <= n; i += 16)
    vst1q_u8(dst + i, vaddq_u8(vld1q_u8(a + i), vld1q_u8(b + i)));
  byte_add_scalar(dst + i, a + i, b + i, n - i);
}

void fill_rgb_neon(uint8_t* dst, size_t pixels, uint8_t r, uint8_t g, uint8_t b) {
  const size_t total = pixels * 3;
  if (total < 2048) {  // see fill_rgb_sse2: staging cost dominates short runs
    fill_rgb_scalar(dst, pixels, r, g, b);
    return;
  }
  alignas(16) uint8_t pat[48];
  stage_rgb_pattern(pat, sizeof(pat), r, g, b);
  const uint8x16_t v[3] = {vld1q_u8(pat), vld1q_u8(pat + 16), vld1q_u8(pat + 32)};
  size_t off = 0, phase = 0;
  for (; off + 16 <= total; off += 16) {
    vst1q_u8(dst + off, v[phase]);
    phase = phase == 2 ? 0 : phase + 1;
  }
  const uint8_t comp[3] = {r, g, b};
  for (; off < total; ++off) dst[off] = comp[off % 3];
}

void fill_f32_neon(float* dst, size_t count, float value) {
  const float32x4_t v = vdupq_n_f32(value);
  size_t i = 0;
  for (; i + 4 <= count; i += 4) vst1q_f32(dst + i, v);
  for (; i < count; ++i) dst[i] = value;
}

void pack_rgb565_neon(const uint8_t* rgb, uint16_t* out, size_t pixels) {
  size_t i = 0;
  for (; i + 16 <= pixels; i += 16) {
    const uint8x16x3_t px = vld3q_u8(rgb + i * 3);
    for (int half = 0; half < 2; ++half) {
      const auto widen = [&](const uint8x16_t& v) {
        return half == 0 ? vmovl_u8(vget_low_u8(v)) : vmovl_u8(vget_high_u8(v));
      };
      const uint16x8_t r16 = widen(px.val[0]);
      const uint16x8_t g16 = widen(px.val[1]);
      const uint16x8_t b16 = widen(px.val[2]);
      const uint16x8_t code = vorrq_u16(
          vorrq_u16(vshlq_n_u16(vandq_u16(r16, vdupq_n_u16(0xF8)), 8),
                    vshlq_n_u16(vandq_u16(g16, vdupq_n_u16(0xFC)), 3)),
          vshrq_n_u16(b16, 3));
      vst1q_u16(out + i + static_cast<size_t>(half) * 8, code);
    }
  }
  pack_rgb565_scalar(rgb + i * 3, out + i, pixels - i);
}

void depth_select_row_neon(float* dd, const float* sd, uint8_t* dc,
                           const uint8_t* sc, int width) {
  // Expand a 4-lane depth mask to 12 color-mask bytes (lanes 12..15 = 0xFF
  // beyond lane 3 would clobber, so the table maps them to lane-out = 0).
  static const uint8_t expand_idx[16] = {0, 0, 0, 4, 4, 4, 8,  8,
                                         8, 12, 12, 12, 16, 16, 16, 16};
  const uint8x16_t idx = vld1q_u8(expand_idx);
  int i = 0;
  for (; i + 6 <= width; i += 4) {
    const float32x4_t s = vld1q_f32(sd + i);
    const float32x4_t d = vld1q_f32(dd + i);
    const uint32x4_t m = vcltq_f32(s, d);
    vst1q_f32(dd + i, vbslq_f32(m, s, d));
    const uint8x16_t m8 = vreinterpretq_u8_u32(m);
    const uint8x16_t cm = vqtbl1q_u8(m8, idx);  // out-of-range index -> 0
    const uint8x16_t cs = vld1q_u8(sc + i * 3);
    const uint8x16_t cd = vld1q_u8(dc + i * 3);
    vst1q_u8(dc + i * 3, vbslq_u8(cm, cs, cd));
  }
  depth_select_row_scalar(dd, sd, dc, sc, i, width);
}

#endif  // RAVE_SIMD_NEON

}  // namespace

size_t mismatch(const uint8_t* a, const uint8_t* b, size_t n, SimdLevel level) {
  switch (level) {
#if defined(RAVE_SIMD_X86)
    case SimdLevel::Avx2: return mismatch_avx2(a, b, n);
    case SimdLevel::Sse2: return mismatch_sse2(a, b, n);
#elif defined(RAVE_SIMD_NEON)
    case SimdLevel::Neon: return mismatch_neon(a, b, n);
#endif
    default: return mismatch_scalar(a, b, n);
  }
}

void byte_sub(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n,
              SimdLevel level) {
  switch (level) {
#if defined(RAVE_SIMD_X86)
    case SimdLevel::Avx2: byte_sub_avx2(dst, a, b, n); return;
    case SimdLevel::Sse2: byte_sub_sse2(dst, a, b, n); return;
#elif defined(RAVE_SIMD_NEON)
    case SimdLevel::Neon: byte_sub_neon(dst, a, b, n); return;
#endif
    default: byte_sub_scalar(dst, a, b, n); return;
  }
}

void byte_add(uint8_t* dst, const uint8_t* a, const uint8_t* b, size_t n,
              SimdLevel level) {
  switch (level) {
#if defined(RAVE_SIMD_X86)
    case SimdLevel::Avx2: byte_add_avx2(dst, a, b, n); return;
    case SimdLevel::Sse2: byte_add_sse2(dst, a, b, n); return;
#elif defined(RAVE_SIMD_NEON)
    case SimdLevel::Neon: byte_add_neon(dst, a, b, n); return;
#endif
    default: byte_add_scalar(dst, a, b, n); return;
  }
}

void fill_rgb(uint8_t* dst, size_t pixels, uint8_t r, uint8_t g, uint8_t b,
              SimdLevel level) {
  switch (level) {
#if defined(RAVE_SIMD_X86)
    case SimdLevel::Avx2: fill_rgb_avx2(dst, pixels, r, g, b); return;
    case SimdLevel::Sse2: fill_rgb_sse2(dst, pixels, r, g, b); return;
#elif defined(RAVE_SIMD_NEON)
    case SimdLevel::Neon: fill_rgb_neon(dst, pixels, r, g, b); return;
#endif
    default: fill_rgb_scalar(dst, pixels, r, g, b); return;
  }
}

void fill_f32(float* dst, size_t count, float value, SimdLevel level) {
  switch (level) {
#if defined(RAVE_SIMD_X86)
    case SimdLevel::Avx2: fill_f32_avx2(dst, count, value); return;
    case SimdLevel::Sse2: fill_f32_sse2(dst, count, value); return;
#elif defined(RAVE_SIMD_NEON)
    case SimdLevel::Neon: fill_f32_neon(dst, count, value); return;
#endif
    default:
      for (size_t i = 0; i < count; ++i) dst[i] = value;
      return;
  }
}

void pack_rgb565(const uint8_t* rgb, uint16_t* out, size_t pixels,
                 SimdLevel level) {
  switch (level) {
#if defined(RAVE_SIMD_X86)
    case SimdLevel::Avx2: pack_rgb565_avx2(rgb, out, pixels); return;
    case SimdLevel::Sse2: break;  // no SSE2-only deinterleave; scalar pack
#elif defined(RAVE_SIMD_NEON)
    case SimdLevel::Neon: pack_rgb565_neon(rgb, out, pixels); return;
#endif
    default: break;
  }
  pack_rgb565_scalar(rgb, out, pixels);
}

void depth_select_row(float* dst_depth, const float* src_depth, uint8_t* dst_rgb,
                      const uint8_t* src_rgb, int width, SimdLevel level) {
  switch (level) {
#if defined(RAVE_SIMD_X86)
    case SimdLevel::Avx2:
      depth_select_row_avx2(dst_depth, src_depth, dst_rgb, src_rgb, width);
      return;
    case SimdLevel::Sse2:
      depth_select_row_sse2(dst_depth, src_depth, dst_rgb, src_rgb, width);
      return;
#elif defined(RAVE_SIMD_NEON)
    case SimdLevel::Neon:
      depth_select_row_neon(dst_depth, src_depth, dst_rgb, src_rgb, width);
      return;
#endif
    default:
      depth_select_row_scalar(dst_depth, src_depth, dst_rgb, src_rgb, 0, width);
      return;
  }
}

}  // namespace simd
}  // namespace rave::util
