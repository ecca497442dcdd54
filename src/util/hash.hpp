// Content hashing. Two hashes, both pure integer arithmetic over bytes in
// a fixed (little-endian) order, so a hash is identical across SIMD
// levels, thread counts and hosts by construction — the property the
// content-addressed tile cache's determinism argument rests on
// (DESIGN.md "Content-addressed tiles"):
//
// - Xxh64 streams pixel content (tiles, whole frames) at memory speed:
//   four independent 64-bit lanes over 32-byte stripes.
// - FNV-1a 64 folds small fixed-width keys, where a byte walk costs
//   nothing.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace rave::util {

inline constexpr uint64_t kFnvOffsetBasis = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

// Fold a 64-bit integer in little-endian byte order, so the hash does not
// depend on host endianness.
[[nodiscard]] inline uint64_t fnv1a_u64(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= static_cast<uint8_t>(v >> (8 * i));
    h *= kFnvPrime;
  }
  return h;
}

// Streaming XXH64 (the reference algorithm, bit for bit): any split of a
// byte run into update() calls digests like one update over the whole
// run. Bytes that do not fill a 32-byte stripe wait in a tail buffer.
class Xxh64 {
 public:
  explicit Xxh64(uint64_t seed = 0)
      : seed_(seed), lanes_{seed + kP1 + kP2, seed + kP2, seed, seed - kP1} {}

  void update(const uint8_t* data, size_t n) {
    total_ += n;
    if (buffered_ + n < kStripe) {
      if (n > 0) std::memcpy(buf_ + buffered_, data, n);
      buffered_ += n;
      return;
    }
    // The lanes live in locals while striping: `data` may alias *this as
    // far as the compiler knows, which would pin the lanes to memory.
    uint64_t v[4] = {lanes_[0], lanes_[1], lanes_[2], lanes_[3]};
    if (buffered_ > 0) {
      const size_t fill = kStripe - buffered_;
      std::memcpy(buf_ + buffered_, data, fill);
      stripe(v, buf_);
      data += fill;
      n -= fill;
    }
    for (; n >= kStripe; data += kStripe, n -= kStripe) stripe(v, data);
    std::memcpy(lanes_, v, sizeof(v));
    if (n > 0) std::memcpy(buf_, data, n);
    buffered_ = n;
  }

  [[nodiscard]] uint64_t digest() const {
    uint64_t h;
    if (total_ >= kStripe) {
      h = std::rotl(lanes_[0], 1) + std::rotl(lanes_[1], 7) + std::rotl(lanes_[2], 12) +
          std::rotl(lanes_[3], 18);
      for (const uint64_t lane : lanes_) h = (h ^ round(0, lane)) * kP1 + kP4;
    } else {
      h = seed_ + kP5;
    }
    h += total_;
    const uint8_t* p = buf_;
    const uint8_t* const end = buf_ + buffered_;
    for (; p + 8 <= end; p += 8) h = std::rotl(h ^ round(0, load64(p)), 27) * kP1 + kP4;
    if (p + 4 <= end) {
      h = std::rotl(h ^ (load32(p) * kP1), 23) * kP2 + kP3;
      p += 4;
    }
    for (; p < end; ++p) h = std::rotl(h ^ (*p * kP5), 11) * kP1;
    h ^= h >> 33;
    h *= kP2;
    h ^= h >> 29;
    h *= kP3;
    h ^= h >> 32;
    return h;
  }

 private:
  static constexpr uint64_t kP1 = 0x9E3779B185EBCA87ull;
  static constexpr uint64_t kP2 = 0xC2B2AE3D27D4EB4Full;
  static constexpr uint64_t kP3 = 0x165667B19E3779F9ull;
  static constexpr uint64_t kP4 = 0x85EBCA77C2B2AE63ull;
  static constexpr uint64_t kP5 = 0x27D4EB2F165667C5ull;
  static constexpr size_t kStripe = 32;

  static uint64_t round(uint64_t acc, uint64_t input) {
    return std::rotl(acc + input * kP2, 31) * kP1;
  }
  static uint64_t load64(const uint8_t* p) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap64(v);
    return v;
  }
  static uint64_t load32(const uint8_t* p) {
    uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    if constexpr (std::endian::native == std::endian::big) v = __builtin_bswap32(v);
    return v;
  }
  static void stripe(uint64_t (&v)[4], const uint8_t* p) {
    v[0] = round(v[0], load64(p));
    v[1] = round(v[1], load64(p + 8));
    v[2] = round(v[2], load64(p + 16));
    v[3] = round(v[3], load64(p + 24));
  }

  uint64_t seed_;
  uint64_t lanes_[4];
  uint64_t total_ = 0;
  uint8_t buf_[kStripe] = {};
  size_t buffered_ = 0;
};

}  // namespace rave::util
