// Content-addressed tile caching for the frame fan-out tier. Two pieces:
//
//  - EncodeMemo (publisher side): memoizes encoded tiles by
//    (tile content hash, codec, quality class), so a tile rendered once is
//    encoded once per distinct quality class and shared by every
//    subscriber of that class — the Rendering-as-a-Service cost model
//    (arXiv:1505.06543) where cost scales with distinct qualities, not
//    subscriber count.
//  - TileStore (subscriber side): decoded tiles keyed by content hash, so
//    an unchanged tile arriving as a 16-byte reference resolves to the
//    exact pixels a full delivery would have produced. A miss falls back
//    to a full-tile request, keeping assembled frames byte-identical.
//
// Both are bounded LRU caches; eviction only costs bytes (a re-encode or
// a miss round-trip), never correctness, because entries are addressed by
// content, not position — a stale entry cannot exist by construction.
#pragma once

#include <list>
#include <memory>
#include <unordered_map>

#include "compress/codec.hpp"
#include "net/buffer.hpp"

namespace rave::compress {

// Subscriber device classes with distinct encode pipelines (paper §5.1:
// PDAs on shared wireless vs workstations on switched ethernet). The
// class picks the codec every member shares; tile encodes never use the
// Delta codec because cached tiles must decode without a previous frame.
enum class QualityClass : uint8_t {
  Workstation = 0,  // lossless RLE
  Pda = 1,          // RGB565 quantization (2 B/pixel bound on wireless)
  Raw = 2,          // uncompressed 24 bpp, as the paper's PDA timings (§5.1)
};
inline constexpr size_t kQualityClassCount = 3;

const char* quality_name(QualityClass quality);
CodecKind codec_for_quality(QualityClass quality);

// Publisher-side encode memoization. Thread-compatible (callers
// serialize), like the rest of the publisher frame path.
class EncodeMemo {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    // Encoded bytes that did NOT have to be produced again because the
    // memo already held them (the per-class "shared encode" savings).
    uint64_t bytes_saved = 0;
  };

  explicit EncodeMemo(size_t capacity = 4096);

  // Return the encoded form of `tile_pixels` (whose content hash is
  // `tile_hash`) for `quality`, encoding only on a memo miss. The result
  // is shared — callers must not mutate it.
  std::shared_ptr<const EncodedImage> encode(uint64_t tile_hash, QualityClass quality,
                                             const render::Image& tile_pixels);

  // Memo-only lookup (miss-request serving): nullptr when not resident.
  [[nodiscard]] std::shared_ptr<const EncodedImage> lookup(uint64_t tile_hash,
                                                           QualityClass quality);

  // Like encode(), but returns the tile's *serialized* wire form as a
  // shared Buffer, built once per memo entry and refcounted thereafter.
  // This is the zero-copy fan-out path: the publisher hands the Buffer to
  // net::Message as its tail, every subscriber's copy of the message
  // shares it, and the socket transports scatter-gather it straight to
  // the kernel — the encoded bytes are never copied after this call.
  net::Buffer encode_serialized(uint64_t tile_hash, QualityClass quality,
                                const render::Image& tile_pixels);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] size_t size() const { return entries_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }

 private:
  struct Key {
    uint64_t hash = 0;
    uint8_t codec = 0;
    uint8_t quality = 0;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      return static_cast<size_t>(k.hash ^ (uint64_t{k.codec} << 56) ^ (uint64_t{k.quality} << 48));
    }
  };
  struct Entry {
    Key key;
    std::shared_ptr<const EncodedImage> encoded;
    net::Buffer serialized;  // lazily built by encode_serialized()
  };

  void touch(std::list<Entry>::iterator it);

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> entries_;
  Stats stats_;
};

// Subscriber-side store of decoded tiles by content hash.
class TileStore {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t inserts = 0;
  };

  explicit TileStore(size_t capacity = 1024);

  void insert(uint64_t hash, render::Image tile);
  // nullptr on miss; a hit refreshes the entry's LRU position. The
  // pointer is invalidated by the next insert().
  [[nodiscard]] const render::Image* lookup(uint64_t hash);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    uint64_t hash = 0;
    render::Image tile;
  };

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> entries_;
  Stats stats_;
};

}  // namespace rave::compress
