// Content-addressed tile caching for the frame fan-out tier. Two pieces:
//
//  - EncodeMemo (publisher side): memoizes serialized encoded tiles by
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
#include <span>
#include <unordered_map>
#include <vector>

#include "compress/codec.hpp"
#include "net/buffer.hpp"
#include "util/thread_pool.hpp"

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

  // Return the serialized encoded form (EncodedImage::serialize()) of
  // `tile_pixels`, whose content hash is `tile_hash`, for `quality`,
  // encoding only on a memo miss. An entry holds only these wire bytes, as
  // a shared Buffer refcounted thereafter. This is the zero-copy fan-out
  // path: the publisher hands the Buffer to net::Message as its tail,
  // every subscriber's copy of the message shares it, and the socket
  // transports scatter-gather it straight to the kernel — the encoded
  // bytes are never copied after this call.
  net::Buffer encode_serialized(uint64_t tile_hash, QualityClass quality,
                                const render::Image& tile_pixels);

  // Whether (tile_hash, quality) is resident; touches neither the LRU
  // order nor the stats.
  [[nodiscard]] bool contains(uint64_t tile_hash, QualityClass quality) const;

  // One data tile of a frame: its content hash and pixels.
  struct Tile {
    uint64_t hash = 0;
    const render::Image* pixels = nullptr;
  };

  // encode_serialized() for each of a frame's data tiles, in order. With
  // a `pool`, the encodes that serial walk would miss on — the first
  // occurrence of each hash the memo does not hold — run first, on the
  // pool, and the results are then adopted in tile order: the same hits,
  // misses, evictions and bytes_saved, and (encoding being a pure function
  // of the pixels) the same bytes. nullptr walks serially.
  std::vector<net::Buffer> encode_serialized(std::span<const Tile> tiles, QualityClass quality,
                                             util::ThreadPool* pool);

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
    net::Buffer serialized;
  };

  static Key key_of(uint64_t tile_hash, QualityClass quality);
  static net::Buffer encode_tile(QualityClass quality, const render::Image& tile_pixels);
  void touch(std::list<Entry>::iterator it);
  // The bytes for (tile_hash, quality), accounted as a hit or a miss. A
  // miss adopts `ready` (encoded off the memo) or, when null, encodes
  // `tile_pixels` here.
  const net::Buffer& find_or_encode(uint64_t tile_hash, QualityClass quality,
                                    const render::Image& tile_pixels, const net::Buffer* ready);

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
