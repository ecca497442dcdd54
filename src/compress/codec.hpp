// Frame-image compression — the paper's §6 future-work item, built as an
// extension: "Image compression methods are presently being investigated;
// these are required for the render work distribution and for transmission
// to thin clients." Codecs trade fidelity for bytes; the adaptive selector
// (adaptive.hpp) picks per frame against measured bandwidth, addressing
// the wireless "low and highly variable" bandwidth requirement.
#pragma once

#include <span>
#include <string>
#include <vector>

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

// An encoded image read in place: the header fields, and the payload as a
// view into bytes someone else owns (an EncodedImage's `data`, or a
// serialize()d tile inside a stream message).
struct EncodedView {
  CodecKind codec = CodecKind::Raw;
  int width = 0, height = 0;
  bool keyframe = true;
  std::span<const uint8_t> data;
};

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

  [[nodiscard]] EncodedView view() const { return {codec, width, height, keyframe, data}; }

  // Every codec is byte-identical across SIMD levels, so
  // serialize() is too: the same tile serializes to the same wire bytes on
  // an AVX2 host and its scalar twin (pinned by test_compress).
  [[nodiscard]] std::vector<uint8_t> serialize() const;
  static util::Result<EncodedImage> deserialize(std::span<const uint8_t> bytes);
  // A serialize()d image read in place, without copying the payload; fails
  // on exactly what deserialize() rejects.
  static util::Result<EncodedView> read(std::span<const uint8_t> bytes);
};

// Codecs are stateless: make_codec hands out one shared instance per kind,
// safe to use from any number of threads at once.
class ImageCodec {
 public:
  virtual ~ImageCodec() = default;
  [[nodiscard]] virtual CodecKind kind() const = 0;

  // `previous` is the last frame the *receiver* decoded (nullptr for the
  // first frame); codecs that cannot use it emit a keyframe.
  virtual EncodedImage encode(const Image& image, const Image* previous) const = 0;

  // Decode into `out`, which the caller has already sized to the encoded
  // width x height: a pool worker decoding a stream tile writes into
  // storage the receiving thread allocated.
  virtual util::Status decode_into(const EncodedView& encoded, const Image* previous,
                                   Image& out) const = 0;
  [[nodiscard]] util::Result<Image> decode(const EncodedImage& encoded,
                                           const Image* previous) const;
};

// The shared codec of `kind`; nothing is allocated per call.
const ImageCodec* make_codec(CodecKind kind);

}  // namespace rave::compress
