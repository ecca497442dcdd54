#include "compress/tile_cache.hpp"

#include "obs/metrics.hpp"

namespace rave::compress {

namespace {

// Per-class memo traffic, visible in every scrape (and through it in
// rave-top): hit rate is the headline number for the fan-out tier.
void account_memo(QualityClass quality, bool hit, uint64_t bytes_saved) {
  auto& reg = obs::MetricsRegistry::global();
  const obs::Labels labels = {{"class", quality_name(quality)},
                              {"result", hit ? "hit" : "miss"}};
  reg.counter("rave_fanout_encode_total", labels).inc();
  if (bytes_saved > 0)
    reg.counter("rave_fanout_encode_bytes_saved_total", {{"class", quality_name(quality)}})
        .inc(bytes_saved);
}

}  // namespace

const char* quality_name(QualityClass quality) {
  switch (quality) {
    case QualityClass::Workstation: return "workstation";
    case QualityClass::Pda: return "pda";
    case QualityClass::Raw: return "raw";
  }
  return "?";
}

CodecKind codec_for_quality(QualityClass quality) {
  switch (quality) {
    case QualityClass::Workstation: return CodecKind::Rle;
    case QualityClass::Pda: return CodecKind::Quantize;
    case QualityClass::Raw: return CodecKind::Raw;
  }
  return CodecKind::Rle;
}

EncodeMemo::EncodeMemo(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void EncodeMemo::touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

std::shared_ptr<const EncodedImage> EncodeMemo::encode(uint64_t tile_hash, QualityClass quality,
                                                       const render::Image& tile_pixels) {
  const CodecKind codec = codec_for_quality(quality);
  const Key key{tile_hash, static_cast<uint8_t>(codec), static_cast<uint8_t>(quality)};
  if (auto found = entries_.find(key); found != entries_.end()) {
    touch(found->second);
    ++stats_.hits;
    stats_.bytes_saved += found->second->encoded->byte_size();
    account_memo(quality, true, found->second->encoded->byte_size());
    return found->second->encoded;
  }
  auto encoded = std::make_shared<EncodedImage>(
      make_codec(codec)->encode(tile_pixels, /*previous=*/nullptr));
  ++stats_.misses;
  account_memo(quality, false, 0);
  lru_.push_front(Entry{key, encoded});
  entries_[key] = lru_.begin();
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return encoded;
}

std::shared_ptr<const EncodedImage> EncodeMemo::lookup(uint64_t tile_hash,
                                                       QualityClass quality) {
  const Key key{tile_hash, static_cast<uint8_t>(codec_for_quality(quality)),
                static_cast<uint8_t>(quality)};
  auto found = entries_.find(key);
  if (found == entries_.end()) return nullptr;
  touch(found->second);
  return found->second->encoded;
}

net::Buffer EncodeMemo::encode_serialized(uint64_t tile_hash, QualityClass quality,
                                          const render::Image& tile_pixels) {
  // Run the memoized encode first (accounts the hit/miss), then serialize
  // into the entry's shared Buffer — at most once per entry lifetime.
  (void)encode(tile_hash, quality, tile_pixels);
  const Key key{tile_hash, static_cast<uint8_t>(codec_for_quality(quality)),
                static_cast<uint8_t>(quality)};
  Entry& entry = *entries_.find(key)->second;
  if (entry.serialized.empty()) entry.serialized = net::Buffer::take(entry.encoded->serialize());
  return entry.serialized;
}

TileStore::TileStore(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

void TileStore::insert(uint64_t hash, render::Image tile) {
  if (auto found = entries_.find(hash); found != entries_.end()) {
    // Same content hash, same bytes: just refresh recency.
    lru_.splice(lru_.begin(), lru_, found->second);
    return;
  }
  lru_.push_front(Entry{hash, std::move(tile)});
  entries_[hash] = lru_.begin();
  ++stats_.inserts;
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().hash);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

const render::Image* TileStore::lookup(uint64_t hash) {
  auto found = entries_.find(hash);
  if (found == entries_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, found->second);
  ++stats_.hits;
  return &found->second->tile;
}

}  // namespace rave::compress
