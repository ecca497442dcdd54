#include "compress/tile_cache.hpp"

#include <array>
#include <atomic>

#include "obs/metrics.hpp"

namespace rave::compress {

namespace {

// Per-class memo traffic, visible in every scrape (and through it in
// rave-top): hit rate is the headline number for the fan-out tier. The
// registry resolves a counter through its label map, so each handle is
// looked up once and kept (a frame accounts ~100 tiles).
enum MemoCounter : size_t { kMiss, kHit, kBytesSaved, kMemoCounters };

obs::Counter& memo_counter(QualityClass quality, MemoCounter which) {
  static std::array<std::array<std::atomic<obs::Counter*>, kMemoCounters>, kQualityClassCount>
      handles{};
  std::atomic<obs::Counter*>& slot = handles[static_cast<size_t>(quality)][which];
  obs::Counter* counter = slot.load(std::memory_order_acquire);
  if (counter == nullptr) {
    auto& reg = obs::MetricsRegistry::global();
    counter = which == kBytesSaved
                  ? &reg.counter("rave_fanout_encode_bytes_saved_total",
                                 {{"class", quality_name(quality)}})
                  : &reg.counter("rave_fanout_encode_total",
                                 {{"class", quality_name(quality)},
                                  {"result", which == kHit ? "hit" : "miss"}});
    slot.store(counter, std::memory_order_release);
  }
  return *counter;
}

void account_memo(QualityClass quality, bool hit, uint64_t bytes_saved) {
  memo_counter(quality, hit ? kHit : kMiss).inc();
  if (bytes_saved > 0) memo_counter(quality, kBytesSaved).inc(bytes_saved);
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

EncodeMemo::Key EncodeMemo::key_of(uint64_t tile_hash, QualityClass quality) {
  return {tile_hash, static_cast<uint8_t>(codec_for_quality(quality)),
          static_cast<uint8_t>(quality)};
}

net::Buffer EncodeMemo::encode_tile(QualityClass quality, const render::Image& tile_pixels) {
  return net::Buffer::take(
      make_codec(codec_for_quality(quality))->encode(tile_pixels, /*previous=*/nullptr).serialize());
}

void EncodeMemo::touch(std::list<Entry>::iterator it) {
  lru_.splice(lru_.begin(), lru_, it);
}

bool EncodeMemo::contains(uint64_t tile_hash, QualityClass quality) const {
  return entries_.contains(key_of(tile_hash, quality));
}

const net::Buffer& EncodeMemo::find_or_encode(uint64_t tile_hash, QualityClass quality,
                                              const render::Image& tile_pixels,
                                              const net::Buffer* ready) {
  const Key key = key_of(tile_hash, quality);
  if (auto found = entries_.find(key); found != entries_.end()) {
    touch(found->second);
    const uint64_t saved = found->second->serialized.size();
    ++stats_.hits;
    stats_.bytes_saved += saved;
    account_memo(quality, true, saved);
    return found->second->serialized;
  }
  ++stats_.misses;
  account_memo(quality, false, 0);
  lru_.push_front(Entry{key, ready != nullptr ? *ready : encode_tile(quality, tile_pixels)});
  entries_[key] = lru_.begin();
  // The new entry sits at the front; capacity >= 1 keeps it resident.
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return lru_.front().serialized;
}

net::Buffer EncodeMemo::encode_serialized(uint64_t tile_hash, QualityClass quality,
                                          const render::Image& tile_pixels) {
  return find_or_encode(tile_hash, quality, tile_pixels, nullptr);
}

std::vector<net::Buffer> EncodeMemo::encode_serialized(std::span<const Tile> tiles,
                                                       QualityClass quality,
                                                       util::ThreadPool* pool) {
  std::vector<net::Buffer> out;
  out.reserve(tiles.size());
  if (pool == nullptr) {
    // The serial walk, which the pooled path below must reproduce.
    for (const Tile& tile : tiles)
      out.push_back(encode_serialized(tile.hash, quality, *tile.pixels));
    return out;
  }
  // The serial walk misses on the first occurrence of each hash the memo
  // does not hold now. A hash it does hold can still miss later in the
  // walk, when the frame's own misses evict it first (a memo smaller than
  // a frame); find_or_encode then encodes that one inline.
  std::vector<size_t> fresh;                    // tile index per job
  std::unordered_map<uint64_t, size_t> job_of;  // content hash -> job
  for (size_t i = 0; i < tiles.size(); ++i)
    if (!contains(tiles[i].hash, quality) && job_of.emplace(tiles[i].hash, fresh.size()).second)
      fresh.push_back(i);
  std::vector<net::Buffer> ready(fresh.size());
  pool->parallel_for(fresh.size(),
                     [&](size_t j) { ready[j] = encode_tile(quality, *tiles[fresh[j]].pixels); });
  for (const Tile& tile : tiles) {
    const auto job = job_of.find(tile.hash);
    out.push_back(find_or_encode(tile.hash, quality, *tile.pixels,
                                 job == job_of.end() ? nullptr : &ready[job->second]));
  }
  return out;
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
