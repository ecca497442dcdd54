// Frame-image compression — the paper's §6 future-work item, built as an
// extension: "Image compression methods are presently being investigated;
// these are required for the render work distribution and for transmission
// to thin clients." Codecs trade fidelity for bytes; the adaptive selector
// (adaptive.hpp) picks per frame against measured bandwidth, addressing
// the wireless "low and highly variable" bandwidth requirement.
#pragma once

#include <memory>
#include <string>

#include "render/framebuffer.hpp"
#include "util/result.hpp"

namespace rave::compress {

using render::Image;

enum class CodecKind : uint8_t {
  Raw = 0,       // 3 B/pixel, lossless
  Rle = 1,       // run-length on RGB triples, lossless
  Delta = 2,     // frame difference + RLE, lossless, needs previous frame
  Quantize = 3,  // RGB565 + RLE, lossy (2 B/pixel bound)
};

const char* codec_name(CodecKind kind);

struct EncodedImage {
  CodecKind codec = CodecKind::Raw;
  int width = 0, height = 0;
  bool keyframe = true;  // false = delta against the previous frame
  std::vector<uint8_t> data;

  // Exact wire size: serialize() writes a 6-byte fixed header (codec,
  // keyframe, width, height) plus a 4-byte length prefix before the
  // payload. AdaptiveEncoder feeds its bandwidth/transfer-time predictions
  // from this number, so it must equal serialize().size() exactly
  // (asserted by a test) without allocating the serialized buffer.
  [[nodiscard]] uint64_t byte_size() const { return data.size() + 10; }

  // Stable content address: FNV-1a 64 over exactly the bytes serialize()
  // would emit (header fields in wire order, then payload), without
  // allocating them. Because every codec is byte-identical across SIMD
  // levels (PR 3 invariant, pinned by test_compress), the hash is too —
  // so a memoized encode computed on an AVX2 host addresses the same
  // content as its scalar twin.
  [[nodiscard]] uint64_t content_hash() const;

  [[nodiscard]] std::vector<uint8_t> serialize() const;
  static util::Result<EncodedImage> deserialize(std::span<const uint8_t> bytes);
  // The codec of a serialize()d image, read in place without copying the
  // payload; fails on exactly what deserialize() rejects.
  static util::Result<CodecKind> peek_codec(std::span<const uint8_t> bytes);
};

class ImageCodec {
 public:
  virtual ~ImageCodec() = default;
  [[nodiscard]] virtual CodecKind kind() const = 0;

  // `previous` is the last frame the *receiver* decoded (nullptr for the
  // first frame); codecs that cannot use it emit a keyframe.
  virtual EncodedImage encode(const Image& image, const Image* previous) const = 0;
  virtual util::Result<Image> decode(const EncodedImage& encoded,
                                     const Image* previous) const = 0;
};

std::unique_ptr<ImageCodec> make_codec(CodecKind kind);

}  // namespace rave::compress
