#include "compress/codec.hpp"

#include <algorithm>
#include <cstring>

#include "util/hash.hpp"
#include "util/serial.hpp"
#include "util/simd.hpp"

namespace rave::compress {

using util::make_error;
using util::Result;
using util::SimdLevel;

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

uint64_t EncodedImage::content_hash() const {
  // Fold exactly the bytes serialize() emits, in wire order: u8 codec,
  // u8 keyframe, u16 width, u16 height, u32 length prefix, payload.
  uint64_t h = util::kFnvOffsetBasis;
  const uint8_t header[2] = {static_cast<uint8_t>(codec), keyframe ? uint8_t{1} : uint8_t{0}};
  h = util::fnv1a(h, header, 2);
  const uint8_t dims[4] = {
      static_cast<uint8_t>(static_cast<uint16_t>(width) & 0xFF),
      static_cast<uint8_t>(static_cast<uint16_t>(width) >> 8),
      static_cast<uint8_t>(static_cast<uint16_t>(height) & 0xFF),
      static_cast<uint8_t>(static_cast<uint16_t>(height) >> 8),
  };
  h = util::fnv1a(h, dims, 4);
  h = util::fnv1a_u32(h, static_cast<uint32_t>(data.size()));
  return util::fnv1a(h, data.data(), data.size());
}

namespace {
// serialize()'s layout read in place: every field but the payload goes
// into `header`; the payload comes back as a view into `bytes`.
Result<std::span<const uint8_t>> read_serialized(std::span<const uint8_t> bytes,
                                                 EncodedImage& header) {
  util::ByteReader r(bytes);
  header.codec = static_cast<CodecKind>(r.u8());
  header.keyframe = r.u8() != 0;
  header.width = r.u16();
  header.height = r.u16();
  const std::span<const uint8_t> data = r.view();
  if (!r.ok()) return make_error("encoded image: truncated");
  return data;
}
}  // namespace

Result<EncodedImage> EncodedImage::deserialize(std::span<const uint8_t> bytes) {
  EncodedImage out;
  const auto data = read_serialized(bytes, out);
  if (!data.ok()) return make_error(data.error());
  out.data.assign(data.value().begin(), data.value().end());
  return out;
}

Result<CodecKind> EncodedImage::peek_codec(std::span<const uint8_t> bytes) {
  EncodedImage header;
  const auto data = read_serialized(bytes, header);
  if (!data.ok()) return make_error(data.error());
  return header.codec;
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

util::Result<std::vector<uint8_t>> rle_decode(const std::vector<uint8_t>& data, size_t pixels) {
  const SimdLevel level = util::active_simd_level();
  // Pre-sized output written through a pointer (no per-pixel push_back
  // triple); each run is a pattern fill of the SIMD layer.
  std::vector<uint8_t> rgb(pixels * 3);
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
  return rgb;
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

  Result<Image> decode(const EncodedImage& encoded, const Image*) const override {
    Image img(encoded.width, encoded.height);
    if (encoded.data.size() != img.rgb.size()) return make_error("raw: size mismatch");
    img.rgb = encoded.data;
    return img;
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

  Result<Image> decode(const EncodedImage& encoded, const Image*) const override {
    Image img(encoded.width, encoded.height);
    auto rgb = rle_decode(encoded.data, static_cast<size_t>(encoded.width) * encoded.height);
    if (!rgb.ok()) return make_error(rgb.error());
    img.rgb = std::move(rgb).take();
    return img;
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

  Result<Image> decode(const EncodedImage& encoded, const Image* previous) const override {
    Image img(encoded.width, encoded.height);
    auto payload = rle_decode(encoded.data, static_cast<size_t>(encoded.width) * encoded.height);
    if (!payload.ok()) return make_error(payload.error());
    if (encoded.keyframe) {
      img.rgb = std::move(payload).take();
      return img;
    }
    if (previous == nullptr || previous->width != encoded.width ||
        previous->height != encoded.height)
      return make_error("delta: missing previous frame");
    const std::vector<uint8_t> diff = std::move(payload).take();
    util::simd::byte_add(img.rgb.data(), previous->rgb.data(), diff.data(),
                         img.rgb.size(), util::active_simd_level());
    return img;
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

  Result<Image> decode(const EncodedImage& encoded, const Image*) const override {
    const SimdLevel level = util::active_simd_level();
    Image img(encoded.width, encoded.height);
    const size_t pixels = static_cast<size_t>(encoded.width) * encoded.height;
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
      util::simd::fill_rgb(img.rgb.data() + px * 3, fill, r, g, b, level);
      px += fill;
      i += 3;
    }
    if (px != pixels) return make_error("quantize: truncated stream");
    return img;
  }
};
}  // namespace

std::unique_ptr<ImageCodec> make_codec(CodecKind kind) {
  switch (kind) {
    case CodecKind::Raw: return std::make_unique<RawCodec>();
    case CodecKind::Rle: return std::make_unique<RleCodec>();
    case CodecKind::Delta: return std::make_unique<DeltaCodec>();
    case CodecKind::Quantize: return std::make_unique<QuantizeCodec>();
  }
  return std::make_unique<RawCodec>();
}

}  // namespace rave::compress
