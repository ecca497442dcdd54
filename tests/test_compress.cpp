// Image-codec tests: lossless round trips, delta coding against previous
// frames, quantization bounds, and adaptive selection under bandwidth
// pressure (the paper's §5.1/§6 compression requirement).
#include <gtest/gtest.h>

#include "compress/adaptive.hpp"
#include "compress/codec.hpp"
#include "util/simd.hpp"

namespace rave::compress {
namespace {

Image gradient_image(int w, int h, int seed = 0) {
  Image img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.set_pixel(x, y, static_cast<uint8_t>((x * 3 + seed) & 0xFF),
                    static_cast<uint8_t>((y * 5 + seed) & 0xFF),
                    static_cast<uint8_t>((x + y + seed) & 0xFF));
  return img;
}

Image flat_image(int w, int h, uint8_t value) {
  Image img(w, h);
  std::fill(img.rgb.begin(), img.rgb.end(), value);
  return img;
}

class LosslessCodecTest : public testing::TestWithParam<CodecKind> {};

TEST_P(LosslessCodecTest, RoundTripExact) {
  const Image original = gradient_image(37, 23);
  auto codec = make_codec(GetParam());
  const EncodedImage encoded = codec->encode(original, nullptr);
  auto decoded = codec->decode(encoded, nullptr);
  ASSERT_TRUE(decoded.ok()) << decoded.error();
  EXPECT_EQ(decoded.value().rgb, original.rgb);
}

INSTANTIATE_TEST_SUITE_P(Kinds, LosslessCodecTest,
                         testing::Values(CodecKind::Raw, CodecKind::Rle, CodecKind::Delta),
                         [](const auto& info) { return codec_name(info.param); });

TEST(Rle, CompressesFlatImagesHard) {
  const Image flat = flat_image(100, 100, 42);
  const EncodedImage encoded = make_codec(CodecKind::Rle)->encode(flat, nullptr);
  EXPECT_LT(encoded.data.size(), flat.rgb.size() / 50);
}

TEST(Rle, WorstCaseBounded) {
  // Adversarial: every pixel different → 4 bytes per pixel (33% expansion).
  Image noisy(16, 16);
  for (size_t i = 0; i < noisy.rgb.size(); ++i) noisy.rgb[i] = static_cast<uint8_t>(i * 97 + 13);
  const EncodedImage encoded = make_codec(CodecKind::Rle)->encode(noisy, nullptr);
  EXPECT_LE(encoded.data.size(), noisy.rgb.size() * 4 / 3 + 16);
}

TEST(Delta, SmallChangesEncodeTiny) {
  const Image frame0 = gradient_image(64, 64);
  Image frame1 = frame0;
  frame1.set_pixel(10, 10, 255, 255, 255);  // one pixel moved
  auto codec = make_codec(CodecKind::Delta);
  const EncodedImage key = codec->encode(frame0, nullptr);
  const EncodedImage delta = codec->encode(frame1, &frame0);
  EXPECT_TRUE(key.keyframe);
  EXPECT_FALSE(delta.keyframe);
  EXPECT_LT(delta.data.size(), key.data.size() / 10);
  auto decoded = codec->decode(delta, &frame0);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rgb, frame1.rgb);
}

TEST(Delta, MissingPreviousFrameFails) {
  const Image frame0 = gradient_image(8, 8);
  const Image frame1 = gradient_image(8, 8, 3);
  auto codec = make_codec(CodecKind::Delta);
  const EncodedImage delta = codec->encode(frame1, &frame0);
  EXPECT_FALSE(codec->decode(delta, nullptr).ok());
}

TEST(Quantize, LossyButClose) {
  const Image original = gradient_image(32, 32);
  auto codec = make_codec(CodecKind::Quantize);
  const EncodedImage encoded = codec->encode(original, nullptr);
  auto decoded = codec->decode(encoded, nullptr);
  ASSERT_TRUE(decoded.ok());
  // RGB565: max channel error 8 (5-bit) / 4 (6-bit).
  for (size_t i = 0; i < original.rgb.size(); ++i) {
    EXPECT_LE(std::abs(static_cast<int>(original.rgb[i]) -
                       static_cast<int>(decoded.value().rgb[i])),
              8)
        << i;
  }
}

TEST(EncodedImage, SerializeRoundTrip) {
  EncodedImage encoded;
  encoded.codec = CodecKind::Delta;
  encoded.keyframe = false;
  encoded.width = 320;
  encoded.height = 240;
  encoded.data = {9, 8, 7};
  auto back = EncodedImage::deserialize(encoded.serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().codec, CodecKind::Delta);
  EXPECT_FALSE(back.value().keyframe);
  EXPECT_EQ(back.value().width, 320);
  EXPECT_EQ(back.value().data, encoded.data);
}

TEST(Adaptive, GenerousBandwidthStaysLossless) {
  AdaptiveConfig config;
  config.target_fps = 5.0;
  config.initial_bandwidth_Bps = 100e6;
  AdaptiveEncoder encoder(config);
  AdaptiveDecoder decoder;
  const Image frame = gradient_image(64, 64);
  const EncodedImage encoded = encoder.encode(frame);
  auto decoded = decoder.decode(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().rgb, frame.rgb);  // lossless under headroom
}

TEST(Adaptive, TightBandwidthDegradesToLossy) {
  AdaptiveConfig config;
  config.target_fps = 10.0;
  config.initial_bandwidth_Bps = 20'000;  // only quantize+RLE can fit
  AdaptiveEncoder encoder(config);
  // Banded gradient: lossless RLE shrinks it somewhat, quantization merges
  // neighbouring bands into long runs.
  Image banded(64, 64);
  for (int y = 0; y < 64; ++y)
    for (int x = 0; x < 64; ++x)
      banded.set_pixel(x, y, static_cast<uint8_t>((x / 4) * 16),
                       static_cast<uint8_t>((y / 8) * 30), 60);
  const EncodedImage encoded = encoder.encode(banded);
  EXPECT_EQ(encoded.codec, CodecKind::Quantize);
  EXPECT_LT(encoded.byte_size(), banded.byte_size() / 2);
}

TEST(Adaptive, NothingFitsFallsBackToSmallest) {
  AdaptiveConfig config;
  config.target_fps = 10.0;
  config.initial_bandwidth_Bps = 100;  // nothing fits 10 bytes/frame
  AdaptiveEncoder encoder(config);
  Image noisy(16, 16);
  for (size_t i = 0; i < noisy.rgb.size(); ++i) noisy.rgb[i] = static_cast<uint8_t>(i * 31);
  AdaptiveDecoder decoder;
  const EncodedImage encoded = encoder.encode(noisy);
  // Pure noise compresses nowhere: the fallback is the smallest candidate
  // and the stream stays decodable.
  EXPECT_TRUE(decoder.decode(encoded).ok());
}

TEST(Adaptive, TracksBandwidthWithEwma) {
  AdaptiveConfig config;
  config.initial_bandwidth_Bps = 1e6;
  config.ewma_alpha = 0.5;
  AdaptiveEncoder encoder(config);
  encoder.observe_transfer(100'000, 1.0);  // 100 KB/s observed
  EXPECT_NEAR(encoder.bandwidth_estimate_Bps(), 550e3, 1e3);
  encoder.observe_transfer(100'000, 1.0);
  EXPECT_LT(encoder.bandwidth_estimate_Bps(), 400e3);
}

TEST(Adaptive, FrameSequenceStreamsDeltas) {
  // A mostly-static interactive sequence should settle into cheap deltas.
  AdaptiveConfig config;
  config.target_fps = 5.0;
  config.initial_bandwidth_Bps = 580e3;  // the paper's wireless reality
  AdaptiveEncoder encoder(config);
  AdaptiveDecoder decoder;
  Image frame = flat_image(200, 200, 30);
  uint64_t total_bytes = 0;
  for (int i = 0; i < 5; ++i) {
    frame.set_pixel(50 + i, 50, 255, 0, 0);  // small motion
    const EncodedImage encoded = encoder.encode(frame);
    total_bytes += encoded.byte_size();
    auto decoded = decoder.decode(encoded);
    ASSERT_TRUE(decoded.ok()) << decoded.error();
    EXPECT_EQ(decoded.value().rgb, frame.rgb);
  }
  // Raw would be 5 * 120 KB = 600 KB; adaptive should be far smaller.
  EXPECT_LT(total_bytes, 100'000u);
}

TEST(ContentHash, StableAcrossSimdLevelsAndEqualsSerializedBytes) {
  // The fan-out tier's memo shares one serialized tile per (content, class)
  // and relays cache those bytes verbatim, so serialize() must be a pure
  // function of the pixels: the same wire bytes whatever SIMD level encoded
  // them (levels the host lacks clamp to scalar — still the same bytes).
  const util::SimdLevel before = util::active_simd_level();
  const Image original = gradient_image(64, 48, 7);
  const std::vector<CodecKind> kinds = {CodecKind::Raw, CodecKind::Rle, CodecKind::Quantize};
  std::vector<std::vector<uint8_t>> reference;
  for (const util::SimdLevel level :
       {util::SimdLevel::Scalar, util::SimdLevel::Sse2, util::SimdLevel::Avx2,
        util::SimdLevel::Neon}) {
    util::set_simd_level(level);
    for (size_t k = 0; k < kinds.size(); ++k) {
      const std::vector<uint8_t> wire = make_codec(kinds[k])->encode(original, nullptr).serialize();
      if (reference.size() <= k) reference.push_back(wire);
      EXPECT_EQ(wire, reference[k]) << codec_name(kinds[k]) << " at level "
                                    << static_cast<int>(level);
    }
  }
  util::set_simd_level(before);
  // And distinct codecs serialize distinct content.
  EXPECT_NE(reference[0], reference[1]);
  EXPECT_NE(reference[1], reference[2]);
}

}  // namespace
}  // namespace rave::compress
