#include "compress/codec.hpp"

#include <algorithm>
#include <cstring>

#include "util/serial.hpp"
#include "util/simd.hpp"

namespace rave::compress {

using util::make_error;
using util::Result;
using util::SimdLevel;
using util::Status;

const char* codec_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::Raw: return "raw";
    case CodecKind::Rle: return "rle";
    case CodecKind::Delta: return "delta";
    case CodecKind::Quantize: return "quantize565";
  }
  return "?";
}

std::vector<uint8_t> EncodedImage::serialize() const {
  util::ByteWriter w;
  w.u8(static_cast<uint8_t>(codec));
  w.u8(keyframe ? 1 : 0);
  w.u16(static_cast<uint16_t>(width));
  w.u16(static_cast<uint16_t>(height));
  w.bytes(data);
  return w.take();
}

Result<EncodedView> EncodedImage::read(std::span<const uint8_t> bytes) {
  util::ByteReader r(bytes);
  EncodedView out;
  out.codec = static_cast<CodecKind>(r.u8());
  out.keyframe = r.u8() != 0;
  out.width = r.u16();
  out.height = r.u16();
  out.data = r.view();
  if (!r.ok()) return make_error("encoded image: truncated");
  return out;
}

Result<EncodedImage> EncodedImage::deserialize(std::span<const uint8_t> bytes) {
  const auto view = read(bytes);
  if (!view.ok()) return make_error(view.error());
  const EncodedView& v = view.value();
  return EncodedImage{v.codec, v.width, v.height, v.keyframe, {v.data.begin(), v.data.end()}};
}

Result<Image> ImageCodec::decode(const EncodedImage& encoded, const Image* previous) const {
  Image img(encoded.width, encoded.height);
  const Status decoded = decode_into(encoded.view(), previous, img);
  if (!decoded.ok()) return make_error(decoded.error());
  return img;
}

namespace {
// --- RLE over RGB triples --------------------------------------------------
// Stream of runs: [count:u8][r][g][b], count in 1..255.
//
// Run scanning is a vectorized self-overlapping compare: the pixels
// i..i+k are all equal iff every byte j in [i*3, (i+k)*3) satisfies
// rgb[j] == rgb[j+3], so the run length is the first mismatch of the
// stream against itself shifted by one pixel — an integer kernel, so every
// SIMD level emits the identical encoding.
std::vector<uint8_t> rle_encode(const std::vector<uint8_t>& rgb) {
  const SimdLevel level = util::active_simd_level();
  std::vector<uint8_t> out;
  const size_t pixels = rgb.size() / 3;
  out.reserve(16 + pixels / 4);  // grows only for run-poor images
  size_t i = 0;
  while (i < pixels) {
    const uint8_t* p = rgb.data() + i * 3;
    const size_t cap = std::min<size_t>(255, pixels - i);  // run limit
    size_t run = 1;
    if (cap > 1) run = util::simd::mismatch(p, p + 3, (cap - 1) * 3, level) / 3 + 1;
    out.push_back(static_cast<uint8_t>(run));
    out.push_back(p[0]);
    out.push_back(p[1]);
    out.push_back(p[2]);
    i += run;
  }
  return out;
}

// Decodes into the caller's pre-sized `rgb` (no per-pixel push_back
// triple); each run is a pattern fill of the SIMD layer.
Status rle_decode(std::span<const uint8_t> data, std::span<uint8_t> rgb) {
  const SimdLevel level = util::active_simd_level();
  uint8_t* dst = rgb.data();
  const uint8_t* const end = rgb.data() + rgb.size();
  size_t i = 0;
  while (i + 4 <= data.size() && dst < end) {
    const size_t run = data[i];
    if (run == 0) return make_error("rle: zero run");
    const size_t fill = std::min(run, static_cast<size_t>(end - dst) / 3);
    util::simd::fill_rgb(dst, fill, data[i + 1], data[i + 2], data[i + 3], level);
    dst += fill * 3;
    i += 4;
  }
  if (dst != end) return make_error("rle: truncated stream");
  return {};
}

class RawCodec final : public ImageCodec {
 public:
  [[nodiscard]] CodecKind kind() const override { return CodecKind::Raw; }

  EncodedImage encode(const Image& image, const Image*) const override {
    EncodedImage out;
    out.codec = CodecKind::Raw;
    out.width = image.width;
    out.height = image.height;
    out.data = image.rgb;
    return out;
  }

  Status decode_into(const EncodedView& encoded, const Image*, Image& out) const override {
    if (encoded.data.size() != out.rgb.size()) return make_error("raw: size mismatch");
    std::copy(encoded.data.begin(), encoded.data.end(), out.rgb.begin());
    return {};
  }
};

class RleCodec final : public ImageCodec {
 public:
  [[nodiscard]] CodecKind kind() const override { return CodecKind::Rle; }

  EncodedImage encode(const Image& image, const Image*) const override {
    EncodedImage out;
    out.codec = CodecKind::Rle;
    out.width = image.width;
    out.height = image.height;
    out.data = rle_encode(image.rgb);
    return out;
  }

  Status decode_into(const EncodedView& encoded, const Image*, Image& out) const override {
    return rle_decode(encoded.data, out.rgb);
  }
};

class DeltaCodec final : public ImageCodec {
 public:
  [[nodiscard]] CodecKind kind() const override { return CodecKind::Delta; }

  EncodedImage encode(const Image& image, const Image* previous) const override {
    EncodedImage out;
    out.codec = CodecKind::Delta;
    out.width = image.width;
    out.height = image.height;
    if (previous == nullptr || previous->width != image.width ||
        previous->height != image.height) {
      out.keyframe = true;
      out.data = rle_encode(image.rgb);
      return out;
    }
    out.keyframe = false;
    std::vector<uint8_t> diff(image.rgb.size());
    // Mod-256 byte difference; integer, so bit-exact at every SIMD level.
    util::simd::byte_sub(diff.data(), image.rgb.data(), previous->rgb.data(),
                         diff.size(), util::active_simd_level());
    out.data = rle_encode(diff);
    return out;
  }

  Status decode_into(const EncodedView& encoded, const Image* previous,
                     Image& out) const override {
    if (encoded.keyframe) return rle_decode(encoded.data, out.rgb);
    if (previous == nullptr || previous->width != encoded.width ||
        previous->height != encoded.height)
      return make_error("delta: missing previous frame");
    std::vector<uint8_t> diff(out.rgb.size());
    const Status payload = rle_decode(encoded.data, diff);
    if (!payload.ok()) return payload;
    util::simd::byte_add(out.rgb.data(), previous->rgb.data(), diff.data(),
                         out.rgb.size(), util::active_simd_level());
    return {};
  }
};

// RGB565 quantization, then RLE on the 2-byte codes (as triples would
// misalign, runs are encoded as [count:u8][lo][hi]).
class QuantizeCodec final : public ImageCodec {
 public:
  [[nodiscard]] CodecKind kind() const override { return CodecKind::Quantize; }

  EncodedImage encode(const Image& image, const Image*) const override {
    EncodedImage out;
    out.codec = CodecKind::Quantize;
    out.width = image.width;
    out.height = image.height;
    const SimdLevel level = util::active_simd_level();
    const size_t pixels = image.rgb.size() / 3;
    std::vector<uint16_t> packed(pixels);
    util::simd::pack_rgb565(image.rgb.data(), packed.data(), pixels, level);
    // Run scan: same self-overlapping byte compare as the RLE codec, with
    // a 2-byte element (consecutive codes equal iff every byte matches its
    // neighbour one element over).
    const uint8_t* bytes = reinterpret_cast<const uint8_t*>(packed.data());
    out.data.reserve(16 + pixels / 4);
    size_t i = 0;
    while (i < pixels) {
      const size_t cap = std::min<size_t>(255, pixels - i);
      size_t run = 1;
      if (cap > 1)
        run = util::simd::mismatch(bytes + i * 2, bytes + i * 2 + 2, (cap - 1) * 2,
                                   level) / 2 + 1;
      out.data.push_back(static_cast<uint8_t>(run));
      out.data.push_back(static_cast<uint8_t>(packed[i] & 0xFF));
      out.data.push_back(static_cast<uint8_t>(packed[i] >> 8));
      i += run;
    }
    return out;
  }

  Status decode_into(const EncodedView& encoded, const Image*, Image& out) const override {
    const SimdLevel level = util::active_simd_level();
    const size_t pixels = out.rgb.size() / 3;
    // Pre-sized output, each run unpacked once and pattern-filled.
    size_t px = 0, i = 0;
    while (i + 3 <= encoded.data.size() && px < pixels) {
      const size_t run = encoded.data[i];
      if (run == 0) return make_error("quantize: zero run");
      const uint16_t code = static_cast<uint16_t>(encoded.data[i + 1] |
                                                  (encoded.data[i + 2] << 8));
      const uint8_t r = static_cast<uint8_t>(((code >> 11) & 0x1F) << 3);
      const uint8_t g = static_cast<uint8_t>(((code >> 5) & 0x3F) << 2);
      const uint8_t b = static_cast<uint8_t>((code & 0x1F) << 3);
      const size_t fill = std::min(run, pixels - px);
      util::simd::fill_rgb(out.rgb.data() + px * 3, fill, r, g, b, level);
      px += fill;
      i += 3;
    }
    if (px != pixels) return make_error("quantize: truncated stream");
    return {};
  }
};
}  // namespace

const ImageCodec* make_codec(CodecKind kind) {
  static const RawCodec raw;
  static const RleCodec rle;
  static const DeltaCodec delta;
  static const QuantizeCodec quantize;
  switch (kind) {
    case CodecKind::Raw: return &raw;
    case CodecKind::Rle: return &rle;
    case CodecKind::Delta: return &delta;
    case CodecKind::Quantize: return &quantize;
  }
  return &raw;
}

}  // namespace rave::compress
