#include "core/frame_stream.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "render/framebuffer.hpp"
#include "util/hash.hpp"

namespace rave::core {

using compress::QualityClass;
using render::Image;
using util::make_error;
using util::Result;

namespace {

void account_tiles(uint64_t refs, uint64_t datas, uint64_t ref_bytes, uint64_t data_bytes) {
  auto& reg = obs::MetricsRegistry::global();
  if (refs > 0) {
    reg.counter("rave_fanout_tiles_total", {{"result", "ref"}}).inc(refs);
    reg.counter("rave_fanout_bytes_total", {{"kind", "ref"}}).inc(ref_bytes);
  }
  if (datas > 0) {
    reg.counter("rave_fanout_tiles_total", {{"result", "data"}}).inc(datas);
    reg.counter("rave_fanout_bytes_total", {{"kind", "data"}}).inc(data_bytes);
  }
}

// Per-hop delivery latency, labelled by the subscriber's quality class.
// hop="publish" is the publisher's encode+publish wall time, "assemble"
// the receiver's FrameBegin→completion span, "deliver" the end-to-end
// frame age (publisher stamp → receiver completion).
obs::Histogram& delivery_histogram(QualityClass quality, const char* hop) {
  return obs::MetricsRegistry::global().histogram(
      "rave_stream_delivery_seconds",
      {{"class", compress::quality_name(quality)}, {"hop", hop}});
}

// Host label for receiver-side spans when the embedding service set one
// (render_service pumps set the thread host); standalone receivers fall
// back to "subscriber".
const std::string& receiver_host() {
  static const std::string kFallback = "subscriber";
  const std::string& host = obs::Tracer::current_host();
  return host.empty() ? kFallback : host;
}

std::string format_seconds(double seconds) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6fs", seconds);
  return buf;
}

FrameStreamPublisher::FramePtr tile_frame(const Image& frame, int tile_size) {
  auto tiled = std::make_shared<FrameStreamPublisher::TiledFrame>();
  tiled->width = frame.width;
  tiled->height = frame.height;
  tiled->tiles = render::tile_grid(frame.width, frame.height, tile_size);
  tiled->hashes = render::hash_tiles(frame, tiled->tiles);
  tiled->pixels.reserve(tiled->tiles.size());
  for (const render::Tile& t : tiled->tiles) tiled->pixels.push_back(frame.extract(t));
  tiled->frame_hash = render::hash_image(frame);
  return tiled;
}

}  // namespace

FrameStreamPublisher::FrameStreamPublisher(FrameStreamOptions options, util::ThreadPool* pool)
    : options_(options), pool_(pool), memo_(options.encode_memo_capacity) {}

net::FanoutHub::SubscriberId FrameStreamPublisher::subscribe(net::ChannelPtr channel,
                                                             QualityClass quality) {
  Stream& s = stream(quality);
  const auto id = s.hub.subscribe(std::move(channel));
  // Newcomers must not resolve references against tiles they never saw:
  // the next frame of this class ships everything as data.
  s.last.reset();
  return id;
}

void FrameStreamPublisher::unsubscribe(QualityClass quality, net::FanoutHub::SubscriberId id) {
  stream(quality).hub.unsubscribe(id);
}

net::FanoutHub& FrameStreamPublisher::hub(QualityClass quality) {
  return stream(quality).hub;
}

size_t FrameStreamPublisher::subscriber_count() const {
  size_t total = 0;
  for (const Stream& s : streams_) total += s.hub.subscriber_count();
  return total;
}

void FrameStreamPublisher::ship(const FramePtr& frame, FrameBeginMsg begin, FramePtr& last,
                                const std::function<void(std::span<const net::Message>)>& send,
                                FrameReport& report) {
  const double start = obs::Tracer::global().now();
  const TiledFrame& f = *frame;
  const TiledFrame* prev = last.get();
  const bool keyframe = prev == nullptr || prev->width != f.width || prev->height != f.height;
  const size_t count = f.tiles.size();

  begin.width = f.width;
  begin.height = f.height;
  begin.tile_size = static_cast<uint16_t>(options_.tile_size);
  begin.tile_count = static_cast<uint16_t>(count);
  begin.publish_time = start;

  // Refs are decided here; the changed tiles go to the memo as one batch,
  // whose misses encode on the pool.
  std::vector<bool> ref(count);
  std::vector<compress::EncodeMemo::Tile> changed;
  for (size_t i = 0; i < count; ++i) {
    ref[i] = !keyframe && f.hashes[i] == prev->hashes[i];
    if (!ref[i]) changed.push_back({f.hashes[i], &f.pixels[i]});
  }
  std::vector<net::Buffer> encoded = memo_.encode_serialized(changed, begin.quality, pool_);

  std::vector<net::Message> messages;
  messages.reserve(count + 2);
  messages.push_back(encode(begin));
  size_t next_encoded = 0;
  for (size_t i = 0; i < count; ++i) {
    const auto index = static_cast<uint16_t>(i);
    // A changed tile's serialized form rides as a shared Buffer tail: one
    // encode + serialize per (content, class), a refcount bump per
    // subscriber, and a scatter-gather write at the socket — never
    // another copy.
    messages.push_back(ref[i] ? encode(TileRefMsg{begin.frame_id, index, f.hashes[i]})
                              : encode_tile_data(begin.frame_id, index, f.tiles[i], f.hashes[i],
                                                 std::move(encoded[next_encoded++])));
    (ref[i] ? report.tiles_ref : report.tiles_data) += 1;
    (ref[i] ? report.ref_bytes : report.data_bytes) += messages.back().wire_size();
  }
  report.tiles_total += count;
  messages.push_back(
      encode(FrameEndMsg{begin.frame_id, static_cast<uint16_t>(count), f.frame_hash}));
  for (net::Message& msg : messages) stamp_trace(msg);
  send(messages);
  delivery_histogram(begin.quality, "publish").observe(obs::Tracer::global().now() - start);
  last = frame;
}

void FrameStreamPublisher::account(const FrameReport& report) {
  if (report.classes_published > 0) ++stats_.frames;
  stats_.tiles_ref += report.tiles_ref;
  stats_.tiles_data += report.tiles_data;
  stats_.ref_bytes += report.ref_bytes;
  stats_.data_bytes += report.data_bytes;
  account_tiles(report.tiles_ref, report.tiles_data, report.ref_bytes, report.data_bytes);
}

FrameStreamPublisher::FrameReport FrameStreamPublisher::publish_frame(const Image& frame) {
  FrameReport report;
  report.frame_id = next_frame_id_++;
  // Root the frame's delivery trace. The root span becomes the thread's
  // current context, so ship() stamps it on every stream message — relay
  // hops, reactor queue-wait, and subscriber decode and assemble spans all
  // stitch under this one timeline.
  obs::ScopedSpan frame_span = obs::ScopedSpan::root(
      "publish_frame",
      obs::Tracer::current_host().empty() ? "publisher" : obs::Tracer::current_host());
  if (frame_span.active()) report.trace_id = frame_span.context().trace_id;
  last_published_ = tile_frame(frame, options_.tile_size);

  for (size_t q = 0; q < streams_.size(); ++q) {
    Stream& s = streams_[q];
    if (s.hub.subscriber_count() == 0) continue;
    ++report.classes_published;
    FrameBeginMsg begin;
    begin.frame_id = report.frame_id;
    begin.quality = static_cast<QualityClass>(q);
    ship(last_published_, begin, s.last,
         [&s](std::span<const net::Message> frame) { s.hub.publish(frame); }, report);
  }
  account(report);
  return report;
}

FrameStreamPublisher::FrameReport FrameStreamPublisher::answer_pull(
    const Image& frame, const FrameRequest& request, double render_seconds,
    net::Channel& channel, FramePtr& last) {
  FrameReport report;
  report.frame_id = request.request_id;
  report.classes_published = 1;
  FrameBeginMsg begin;
  begin.frame_id = request.request_id;
  begin.quality = request.quality;
  begin.render_seconds = render_seconds;
  ship(tile_frame(frame, options_.tile_size), begin, last,
       [&channel](std::span<const net::Message> reply) { (void)channel.send_batch(reply); },
       report);
  account(report);
  return report;
}

std::optional<net::Message> FrameStreamPublisher::make_miss_reply(const TileMissMsg& miss,
                                                                  const FramePtr& pulled) {
  const FramePtr& source = pulled ? pulled : last_published_;
  // The fast path: the index the receiver saw still addresses the same
  // content. Otherwise search — content moved or the miss is stale.
  size_t index = 0;
  if (source) {
    const std::vector<uint64_t>& hashes = source->hashes;
    index = miss.tile_index < hashes.size() && hashes[miss.tile_index] == miss.hash
                ? miss.tile_index
                : static_cast<size_t>(std::find(hashes.begin(), hashes.end(), miss.hash) -
                                      hashes.begin());
  }
  if (!source || index >= source->hashes.size()) {
    ++stats_.miss_unresolved;
    return std::nullopt;  // content changed since; next frame supersedes it
  }
  net::Buffer encoded = memo_.encode_serialized(miss.hash, miss.quality, source->pixels[index]);
  ++stats_.miss_replies;
  obs::MetricsRegistry::global().counter("rave_fanout_miss_replies_total").inc();
  return encode_tile_data(miss.frame_id, miss.tile_index, source->tiles[index], miss.hash,
                          std::move(encoded));
}

size_t FrameStreamPublisher::pump() {
  size_t handled = 0;
  for (Stream& s : streams_) {
    handled += s.hub.drain_incoming(
        [this, &s](net::FanoutHub::SubscriberId id, const net::Message& msg) {
          if (msg.type != kMsgTileMiss) return;
          const auto miss = decode_tile_miss(msg);
          if (!miss.ok()) return;
          if (auto reply = make_miss_reply(miss.value()))
            (void)s.hub.send_to(id, *std::move(reply));
        });
    s.hub.prune_closed();
  }
  return handled;
}

FrameStreamReceiver::FrameStreamReceiver(net::ChannelPtr channel, QualityClass quality,
                                         FrameStreamOptions options)
    : channel_(std::move(channel)),
      quality_(quality),
      options_(options),
      store_(options.tile_store_capacity) {}

bool FrameStreamReceiver::fits(uint16_t index, const Image& tile) const {
  if (index >= assembly_.grid.size()) return false;
  const render::Tile& slot = assembly_.grid[index];
  return tile.width == slot.width && tile.height == slot.height;
}

void FrameStreamReceiver::place(uint16_t index, const Image& tile) {
  // Image::insert clips silently, so a tile of another shape would leave
  // part of the slot unpainted (or another tile's pixels in it), and Pda
  // frames have no frame hash to catch that.
  if (!fits(index, tile) || assembly_.filled[index]) return;
  assembly_.image.insert(assembly_.grid[index], tile);
  assembly_.filled[index] = true;
  ++assembly_.filled_count;
}

void FrameStreamReceiver::request_tile(uint64_t hash, uint16_t index) {
  auto [lo, hi] = assembly_.pending.equal_range(hash);
  for (auto it = lo; it != hi; ++it)
    if (it->second == index) return;  // already asked
  assembly_.pending.insert({hash, index});
  (void)channel_->send(encode(TileMissMsg{hash, assembly_.begin.frame_id, index, quality_}));
  ++stats_.miss_requests;
}

void FrameStreamReceiver::handle_batch(const std::vector<net::Message>& batch) {
  // Stage on this thread: read each TileData's header in place, check its
  // codec and allocate its image here. Pool workers then only decode (and
  // for a lossless class hash) into that storage; what they allocated
  // would land in per-thread malloc arenas the process keeps.
  const compress::CodecKind codec = compress::codec_for_quality(quality_);
  const bool lossless = codec != compress::CodecKind::Quantize;
  obs::Tracer& tracer = obs::Tracer::global();
  std::vector<DecodedTile> tiles(batch.size());
  std::vector<size_t> work;
  for (size_t i = 0; i < batch.size(); ++i) {
    if (batch[i].type != kMsgTileData) continue;
    const auto data = view_tile_data(batch[i]);
    if (!data.ok()) continue;
    const auto encoded = compress::EncodedImage::read(data.value().encoded);
    // Every sender encodes a class's tiles with that class's codec; a tile
    // in another codec is not this stream's content, and storing it would
    // let later refs to its hash resolve to it.
    if (!encoded.ok() || encoded.value().codec != codec) continue;
    DecodedTile& tile = tiles[i];
    tile.ready = true;
    tile.traced = tracer.enabled() && batch[i].traced();
    tile.encoded = encoded.value();
    tile.claimed_hash = data.value().hash;
    tile.image = Image(tile.encoded.width, tile.encoded.height);
    work.push_back(i);
  }
  const auto decode = [&](size_t k) {
    DecodedTile& tile = tiles[work[k]];
    if (tile.traced) tile.start = tracer.now();
    tile.decoded = compress::make_codec(codec)->decode_into(tile.encoded, nullptr, tile.image);
    // A lossless class decodes the source pixels exactly, so the tile
    // must hash to what the message claims.
    tile.verified = tile.decoded.ok() &&
                    (!lossless || render::hash_image(tile.image) == tile.claimed_hash);
    if (tile.traced) tile.end = tracer.now();
  };
  util::ThreadPool::shared().parallel_for(work.size(), decode);
  for (size_t i = 0; i < batch.size(); ++i)
    handle(batch[i], tiles[i].ready ? &tiles[i] : nullptr);
}

void FrameStreamReceiver::handle(const net::Message& msg, DecodedTile* tile) {
  switch (msg.type) {
    case kMsgFrameBegin: {
      const auto begin = decode_frame_begin(msg);
      if (!begin.ok()) return;
      stats_.bytes_received += msg.wire_size();
      if (assembly_.active && !complete()) ++stats_.frames_abandoned;
      assembly_ = Assembly{};
      assembly_.begin = begin.value();
      assembly_.image = Image(begin.value().width, begin.value().height);
      assembly_.grid = render::tile_grid(begin.value().width, begin.value().height,
                                         begin.value().tile_size);
      if (assembly_.grid.size() != begin.value().tile_count) return;  // malformed
      assembly_.filled.assign(assembly_.grid.size(), false);
      assembly_.active = true;
      assembly_.trace = trace_of(msg);
      assembly_.begin_received_at = obs::Tracer::global().now();
      return;
    }
    case kMsgTileRef: {
      const auto ref = decode_tile_ref(msg);
      if (!ref.ok()) return;
      stats_.bytes_received += msg.wire_size();
      if (!assembly_.active || ref.value().frame_id != assembly_.begin.frame_id) return;
      const Image* tile = store_.lookup(ref.value().hash);
      if (tile != nullptr && fits(ref.value().tile_index, *tile)) {
        place(ref.value().tile_index, *tile);
        ++stats_.refs_resolved;
      } else {
        // Full-tile fallback (the store lacks the content, or holds a tile
        // of another shape under its hash): ask upstream; any relay holding
        // the content answers before the publisher has to.
        request_tile(ref.value().hash, ref.value().tile_index);
      }
      return;
    }
    case kMsgTileData: {
      const auto data = view_tile_data(msg);
      if (!data.ok()) return;
      stats_.bytes_received += msg.wire_size();
      if (tile == nullptr) return;  // wrong codec or a truncated header
      if (tile->traced) {
        // The decode ran on a pool worker; its span is recorded here,
        // because the host label is this thread's. It is parented under
        // the context the message carried — the publisher's root directly,
        // or the last relay hop it crossed.
        obs::Tracer& tracer = obs::Tracer::global();
        obs::SpanRecord span;
        span.trace_id = msg.trace_id;
        span.parent_span_id = msg.span_id;
        span.span_id = tracer.next_span_id();
        span.name = "decode";
        span.host = receiver_host();
        span.start = tile->start;
        span.end = tile->end;
        tracer.record(std::move(span));
      }
      if (!tile->decoded.ok()) return;
      // A lossless tile that does not hash to its claim (forged or
      // corrupted) is dropped before it fills a slot or enters the store,
      // where it would answer every later ref to that hash; its open slot
      // asks upstream for the genuine content, as an unresolved ref does.
      if (!tile->verified) {
        const uint16_t index = data.value().tile_index;
        if (assembly_.active && data.value().frame_id == assembly_.begin.frame_id &&
            index < assembly_.filled.size() && !assembly_.filled[index])
          request_tile(data.value().hash, index);
        return;
      }
      ++stats_.data_tiles;
      if (assembly_.active) {
        if (data.value().frame_id == assembly_.begin.frame_id)
          place(data.value().tile_index, tile->image);
        // A miss reply (from the publisher or any relay cache) resolves
        // every pending slot with this content, wherever it sits.
        auto [lo, hi] = assembly_.pending.equal_range(data.value().hash);
        for (auto it = lo; it != hi; ++it) place(it->second, tile->image);
        assembly_.pending.erase(lo, hi);
      }
      store_.insert(data.value().hash, std::move(tile->image));
      return;
    }
    case kMsgFrameEnd: {
      const auto end = decode_frame_end(msg);
      if (!end.ok()) return;
      stats_.bytes_received += msg.wire_size();
      if (!assembly_.active || end.value().frame_id != assembly_.begin.frame_id) return;
      assembly_.end = end.value();
      assembly_.have_end = true;
      return;
    }
    case kMsgRefusal: {
      const auto refusal = decode_refusal(msg);
      refusal_ = refusal.ok() ? refusal.value().reason : "refused";
      return;
    }
    default:
      return;  // interleaved non-stream traffic (acks etc.)
  }
}

void FrameStreamReceiver::observe_completion() {
  obs::Tracer& tracer = obs::Tracer::global();
  const double now = tracer.now();
  const double assemble_seconds =
      now > assembly_.begin_received_at ? now - assembly_.begin_received_at : 0;
  // The assemble span covers FrameBegin arrival → completion, parented
  // under whatever hop delivered the header (publisher root or last
  // relay). Recorded before the critical path below so late-frame
  // post-mortems include it.
  if (tracer.enabled() && assembly_.trace.valid()) {
    obs::SpanRecord span;
    span.trace_id = assembly_.trace.trace_id;
    span.parent_span_id = assembly_.trace.span_id;
    span.span_id = tracer.next_span_id();
    span.name = "assemble";
    span.host = receiver_host();
    span.start = assembly_.begin_received_at;
    span.end = now;
    tracer.record(std::move(span));
  }
  delivery_histogram(quality_, "assemble").observe(assemble_seconds);
  // Frame age: how stale this frame already was the moment the subscriber
  // could first show it. Under a drop-oldest shed schedule this is the
  // staleness the shed actually cost — the age of the next frame that got
  // through, not of the ones that didn't.
  double age = 0;
  if (assembly_.begin.publish_time > 0) {
    age = now - assembly_.begin.publish_time;
    if (age < 0) age = 0;
    last_frame_age_ = age;
    obs::MetricsRegistry::global()
        .gauge("rave_stream_frame_age_seconds",
               {{"class", compress::quality_name(quality_)}})
        .set(age);
    delivery_histogram(quality_, "deliver").observe(age);
  }
  if (options_.frame_deadline_seconds > 0 && age > options_.frame_deadline_seconds) {
    ++stats_.frames_late;
    // Late-frame post-mortem: freeze the per-hop breakdown while the
    // trace's spans are still in the collector.
    std::string text = "late frame " + std::to_string(assembly_.begin.frame_id) +
                       " class " + compress::quality_name(quality_) + ": age " +
                       format_seconds(age) + " > deadline " +
                       format_seconds(options_.frame_deadline_seconds);
    if (assembly_.trace.valid()) {
      text += "\n";
      text += obs::format_critical_path(
          obs::critical_path(tracer.spans(), assembly_.trace.trace_id));
    }
    obs::FlightRecorder::global().record_failure("stream", text, now);
  }
}

Result<Image> FrameStreamReceiver::next_frame(util::Clock& clock, double timeout_seconds,
                                              const std::function<void()>& pump) {
  const double deadline = clock.now() + timeout_seconds;
  for (;;) {
    if (pump) pump();
    if (auto msg = channel_->receive(pump ? 0.005 : timeout_seconds)) {
      // Drain what the channel holds and take it as one batch.
      std::vector<net::Message> batch;
      batch.push_back(*std::move(msg));
      while (auto more = channel_->try_receive()) batch.push_back(*std::move(more));
      handle_batch(batch);
    }
    if (complete()) {
      // Lossless classes can prove byte-identity against the source frame
      // the trailer hashed; lossy classes converge on the decoded pixels
      // (identical across cached and uncached delivery by construction).
      if (compress::codec_for_quality(quality_) != compress::CodecKind::Quantize &&
          render::hash_image(assembly_.image) != assembly_.end.frame_hash) {
        assembly_ = Assembly{};
        return make_error("frame stream: assembled frame failed integrity check");
      }
      observe_completion();
      ++stats_.frames_completed;
      last_header_ = assembly_.begin;
      Image out = std::move(assembly_.image);
      assembly_ = Assembly{};
      return out;
    }
    if (refusal_) return make_error(*std::exchange(refusal_, std::nullopt));
    if (!channel_->is_open()) return make_error("frame stream: channel closed");
    if (clock.now() >= deadline) return make_error("frame stream: timed out");
  }
}

RelayTileCache::RelayTileCache(size_t capacity) : capacity_(capacity == 0 ? 1 : capacity) {}

namespace {
// One cache line per (content, codec): the same source tile encodes
// differently per quality class, and a reply must match the requester's.
uint64_t cache_key(uint64_t hash, compress::CodecKind codec) {
  return util::fnv1a_u64(util::fnv1a_u64(util::kFnvOffsetBasis, hash),
                         static_cast<uint64_t>(codec));
}
}  // namespace

void RelayTileCache::remember(const net::Message& msg) {
  if (msg.type != kMsgTileData) return;
  // Runs before every forward: read the hash and codec in place, copying
  // the message only when it becomes a cache entry.
  const auto data = view_tile_data(msg);
  if (!data.ok()) return;
  const auto encoded = compress::EncodedImage::read(data.value().encoded);
  if (!encoded.ok()) return;
  const uint64_t key = cache_key(data.value().hash, encoded.value().codec);
  if (auto found = entries_.find(key); found != entries_.end()) {
    lru_.splice(lru_.begin(), lru_, found->second);
    return;
  }
  lru_.push_front(Entry{key, msg});
  entries_[key] = lru_.begin();
  ++stats_.cached;
  while (entries_.size() > capacity_) {
    entries_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

std::optional<net::Message> RelayTileCache::serve(const net::Message& msg) {
  if (msg.type != kMsgTileMiss) return std::nullopt;
  const auto miss = decode_tile_miss(msg);
  if (!miss.ok()) return std::nullopt;
  const uint64_t key =
      cache_key(miss.value().hash, compress::codec_for_quality(miss.value().quality));
  const auto found = entries_.find(key);
  auto& reg = obs::MetricsRegistry::global();
  if (found == entries_.end()) {
    ++stats_.forwarded;
    reg.counter("rave_fanout_relay_total", {{"result", "forward"}}).inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, found->second);
  ++stats_.served;
  reg.counter("rave_fanout_relay_total", {{"result", "hit"}}).inc();
  return found->second->message;
}

void RelayTileCache::attach(net::FanoutRelay& relay) {
  relay.set_downstream_tap([this](const net::Message& msg) { remember(msg); });
  relay.set_request_handler(
      [this](const net::Message& msg) { return serve(msg); });
}

}  // namespace rave::core
