// Cached frame streaming — the one frame delivery protocol, and the
// fan-out tier that makes delivery cost proportional to *change* and
// *distinct quality classes* instead of subscriber count (the
// cache-between-source-and-viewer topology of arXiv:1801.09504).
//
// A FrameStreamPublisher splits each composited frame into a fixed tile
// grid, content-hashes every tile (render::hash_tile), and ships it to a
// class's hub (every subscriber, one frame per publish) or to one pulling
// client (one frame per FrameRequest): a tile whose hash matches what that
// destination last received ships as a 14-byte TileRef; a changed tile is
// encoded once per class through the EncodeMemo and ships as TileData.
// Receivers (FrameStreamReceiver) resolve refs from a TileStore of
// decoded tiles; a store miss falls back to a TileMiss round-trip answered
// with the full tile, so assembled frames are byte-identical to full
// delivery no matter what the caches held. RelayTileCache teaches a
// net::FanoutRelay to answer those misses from the data it already
// forwarded, so recovery traffic stays off the render host.
#pragma once

#include <array>
#include <functional>
#include <list>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "compress/tile_cache.hpp"
#include "core/protocol.hpp"
#include "net/fanout.hpp"
#include "obs/trace.hpp"
#include "render/compositor.hpp"
#include "util/clock.hpp"
#include "util/thread_pool.hpp"

namespace rave::core {

struct FrameStreamOptions {
  int tile_size = 64;                 // square content-hash grid cell, px
  size_t encode_memo_capacity = 4096;  // encoded tiles kept per publisher
  size_t tile_store_capacity = 1024;   // decoded tiles kept per subscriber
  // Frame-age SLO hook: > 0 means a frame completing older than this
  // (receiver clock now − publisher's stamped publish time) records a
  // flight-recorder post-mortem carrying the trace's per-hop critical
  // path. 0 disables.
  double frame_deadline_seconds = 0;
};

class FrameStreamPublisher {
 public:
  struct FrameReport {
    uint32_t frame_id = 0;
    size_t tiles_total = 0;   // per destination shipped to, summed
    size_t tiles_ref = 0;     // shipped as references
    size_t tiles_data = 0;    // shipped with pixels
    uint64_t ref_bytes = 0;   // wire bytes of the reference messages
    uint64_t data_bytes = 0;  // wire bytes of the data messages
    size_t classes_published = 0;
    uint64_t trace_id = 0;  // the frame's trace (0 when tracing is off)
  };

  struct Stats {
    uint64_t frames = 0;
    uint64_t tiles_ref = 0;
    uint64_t tiles_data = 0;
    uint64_t ref_bytes = 0;
    uint64_t data_bytes = 0;
    uint64_t miss_replies = 0;        // full-tile fallbacks served
    uint64_t miss_unresolved = 0;     // hash no longer present (stale miss)
  };

  // A frame cut into the tile grid, hashed and split into tile pixels
  // once: what ships, then what misses against it are answered from.
  // Every destination it shipped to shares it as its `last` frame, the
  // one its TileRefs resolve against (null forces a keyframe).
  struct TiledFrame {
    int width = 0, height = 0;
    std::vector<render::Tile> tiles;
    std::vector<uint64_t> hashes;       // render::hash_tile per tile
    std::vector<render::Image> pixels;  // per tile
    uint64_t frame_hash = 0;            // render::hash_image of the frame
  };
  using FramePtr = std::shared_ptr<const TiledFrame>;

  // `pool` encodes each frame's changed tiles in parallel (the render
  // service passes its own); nullptr encodes them serially. The wire bytes
  // are the same either way.
  explicit FrameStreamPublisher(FrameStreamOptions options = {},
                                util::ThreadPool* pool = nullptr);

  // Subscribe a downstream channel (a client, or a relay's upstream end)
  // to the given class's stream. Forces the next frame of that class to
  // ship every tile as data, so the newcomer starts from a keyframe.
  net::FanoutHub::SubscriberId subscribe(net::ChannelPtr channel,
                                         compress::QualityClass quality);
  void unsubscribe(compress::QualityClass quality, net::FanoutHub::SubscriberId id);
  [[nodiscard]] net::FanoutHub& hub(compress::QualityClass quality);
  [[nodiscard]] size_t subscriber_count() const;

  // Publish one composited frame to every class that has subscribers.
  // Tile hashes are computed once; encoding happens at most once per
  // (changed tile, class) thanks to the memo.
  FrameReport publish_frame(const render::Image& frame);

  // Answer one pull with a single stream frame on `channel`: frame_id is
  // the request id, the FrameBegin carries `render_seconds`, and refs
  // resolve against `last`, that client's previous pull.
  FrameReport answer_pull(const render::Image& frame, const FrameRequest& request,
                          double render_seconds, net::Channel& channel, FramePtr& last);

  // Serve pending TileMiss requests arriving on the hubs' reverse path
  // and drop closed subscribers. Returns messages handled.
  size_t pump();

  // Build the TileData reply for a miss from `source` (what the asking
  // receiver last got: a client's last pull, or by default the last
  // published frame), or nullopt if the hash is not in it (the content
  // changed since — the receiver picks the new content up next frame).
  std::optional<net::Message> make_miss_reply(const TileMissMsg& miss,
                                              const FramePtr& source = nullptr);
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const compress::EncodeMemo& memo() const { return memo_; }
  [[nodiscard]] const FrameStreamOptions& options() const { return options_; }

 private:
  struct Stream {
    net::FanoutHub hub;
    FramePtr last;
  };

  Stream& stream(compress::QualityClass quality) {
    return streams_[static_cast<size_t>(quality)];
  }

  // The one tile loop: FrameBegin, then per tile a TileRef when `last`
  // holds the same content at the same place, else the memo-encoded
  // TileData, then FrameEnd — stamped with the calling thread's trace
  // context (the frame's root span for a publish, the request's serve span
  // for a pull) and handed to `send` as one batch. `last` becomes `frame`.
  void ship(const FramePtr& frame, FrameBeginMsg begin, FramePtr& last,
            const std::function<void(std::span<const net::Message>)>& send,
            FrameReport& report);
  void account(const FrameReport& report);

  FrameStreamOptions options_;
  util::ThreadPool* pool_;
  std::array<Stream, compress::kQualityClassCount> streams_;
  compress::EncodeMemo memo_;
  uint32_t next_frame_id_ = 1;
  FramePtr last_published_;
  Stats stats_;
};

class FrameStreamReceiver {
 public:
  struct Stats {
    uint64_t frames_completed = 0;
    uint64_t frames_abandoned = 0;  // superseded before completing
    uint64_t refs_resolved = 0;     // tile refs satisfied from the store
    uint64_t data_tiles = 0;
    uint64_t miss_requests = 0;     // store misses escalated upstream
    uint64_t bytes_received = 0;    // wire bytes of stream messages
    uint64_t frames_late = 0;       // completed past frame_deadline_seconds
  };

  FrameStreamReceiver(net::ChannelPtr channel, compress::QualityClass quality,
                      FrameStreamOptions options = {});

  // Pump the channel until one complete frame assembles (miss fallbacks
  // included), a Refusal arrives (its reason is the error) or the deadline
  // passes. `pump` drives the in-process grid between receives.
  util::Result<render::Image> next_frame(util::Clock& clock, double timeout_seconds,
                                         const std::function<void()>& pump = {});

  [[nodiscard]] const Stats& stats() const { return stats_; }
  // FrameBegin of the most recent completed frame.
  [[nodiscard]] const FrameBeginMsg& last_header() const { return last_header_; }
  [[nodiscard]] const compress::TileStore& store() const { return store_; }
  [[nodiscard]] compress::QualityClass quality() const { return quality_; }
  // Publish→deliver age of the most recent completed frame (seconds);
  // -1 until a frame with a stamped publish time completes. The canary's
  // steady-state staleness probe reads this.
  [[nodiscard]] double last_frame_age() const { return last_frame_age_; }
  // Whether the stream channel is still up. The canary keeps its standing
  // subscription across probe timeouts as long as the wire is open (the
  // publisher still holds this channel, so the next publish lands in its
  // queue); a closed channel forces a fresh subscribe.
  [[nodiscard]] bool channel_open() const { return channel_ != nullptr && channel_->is_open(); }

 private:
  struct Assembly {
    bool active = false;
    FrameBeginMsg begin;
    render::Image image;
    std::vector<render::Tile> grid;
    std::vector<bool> filled;
    size_t filled_count = 0;
    bool have_end = false;
    FrameEndMsg end;
    // Tile-store misses awaiting a TileData reply, keyed by content hash.
    std::unordered_multimap<uint64_t, uint16_t> pending;
    // Delivery observability: the trace the FrameBegin carried and when it
    // arrived — the assemble span's parent and start time.
    obs::TraceContext trace;
    double begin_received_at = 0;
  };

  // A TileData decoded ahead of handle(): every TileData of a drained batch
  // decodes on the shared pool into an image the receiving thread
  // allocated; handle() then applies the batch in arrival order.
  struct DecodedTile {
    bool ready = false;  // in this stream's codec, with a readable header
    bool traced = false;  // record a decode span for it
    compress::EncodedView encoded;  // a view into the message
    uint64_t claimed_hash = 0;      // the content hash the message carries
    render::Image image;            // allocated by the receiving thread
    util::Status decoded;           // the codec's verdict
    // Decoded, and for a lossless class hashing to the claim (a lossy
    // class's pixels cannot be checked against the source's hash).
    bool verified = false;
    double start = 0, end = 0;  // the decode span's times
  };

  // Decode the batch's TileData on the pool, then handle() each message.
  void handle_batch(const std::vector<net::Message>& batch);
  void handle(const net::Message& msg, DecodedTile* tile);
  // Frame-age gauge, delivery histograms, the assemble span, and the
  // late-frame post-mortem — runs once per completed frame.
  void observe_completion();
  // Whether `tile` has the shape of grid slot `index`; place() skips a
  // tile that does not, and a stored tile that does not is a store miss.
  [[nodiscard]] bool fits(uint16_t index, const render::Image& tile) const;
  void place(uint16_t index, const render::Image& tile);
  // Ask upstream for slot `index`'s content (TileMiss); the reply, from
  // any relay cache or the publisher, fills every slot pending on `hash`.
  void request_tile(uint64_t hash, uint16_t index);
  [[nodiscard]] bool complete() const {
    return assembly_.active && assembly_.have_end &&
           assembly_.filled_count == assembly_.grid.size();
  }

  net::ChannelPtr channel_;
  compress::QualityClass quality_;
  FrameStreamOptions options_;
  compress::TileStore store_;
  Assembly assembly_;
  std::optional<std::string> refusal_;  // a Refusal arrived: next_frame's error
  FrameBeginMsg last_header_;
  Stats stats_;
  double last_frame_age_ = -1;
};

// Relay-side content cache: remembers the TileData messages a relay
// forwarded downstream and answers TileMiss requests for them locally, so
// a subscriber's cold cache (or a dead sibling relay) costs one relay hop
// instead of a publisher round-trip. Attach wires the relay's downstream
// tap and request handler to this cache.
class RelayTileCache {
 public:
  struct Stats {
    uint64_t cached = 0;
    uint64_t served = 0;     // misses answered from this cache
    uint64_t forwarded = 0;  // misses passed upstream
  };

  explicit RelayTileCache(size_t capacity = 4096);

  void attach(net::FanoutRelay& relay);

  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] size_t size() const { return entries_.size(); }

 private:
  void remember(const net::Message& msg);
  std::optional<net::Message> serve(const net::Message& msg);

  struct Entry {
    uint64_t key = 0;      // cache_key(tile hash, codec)
    net::Message message;  // the TileData message, replayable verbatim
  };

  size_t capacity_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<uint64_t, std::list<Entry>::iterator> entries_;
  Stats stats_;
};

}  // namespace rave::core
