// Observability subsystem tests: metrics registry semantics (including
// the concurrent-scrape property the sharded counters promise), trace
// stitching determinism under virtual time, the flight recorder ring, and
// the extended status endpoint round-trip.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <set>
#include <thread>

#include "core/frame_stream.hpp"
#include "core/grid.hpp"
#include "mesh/primitives.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"

namespace rave::obs {
namespace {

// --- metrics -----------------------------------------------------------------

TEST(Metrics, CounterGaugeHistogramBasics) {
  Counter counter;
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);

  Gauge gauge;
  gauge.set(3.5);
  gauge.add(0.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);

  Histogram histogram({0.01, 0.1, 1.0});
  histogram.observe(0.005);  // bucket le=0.01
  histogram.observe(0.05);   // bucket le=0.1
  histogram.observe(0.05);
  histogram.observe(5.0);  // +inf bucket
  EXPECT_EQ(histogram.count(), 4u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.005 + 0.05 + 0.05 + 5.0);
  EXPECT_EQ(histogram.bucket_counts(), (std::vector<uint64_t>{1, 2, 0, 1}));
  // Rank 2 of 4 sits halfway through the le=0.1 bucket (one observation
  // below it): interpolated 0.01 + (2-1)/2 * (0.1-0.01) = 0.055.
  EXPECT_DOUBLE_EQ(histogram.quantile(0.5), 0.055);
  // The +inf bucket reports the largest finite bound, exactly as before.
  EXPECT_DOUBLE_EQ(histogram.quantile(1.0), 1.0);
}

TEST(Metrics, QuantileInterpolatesWithinBucket) {
  Histogram histogram({1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) histogram.observe(1.5);  // all in le=2 bucket
  // Every rank falls in (1.0, 2.0]: the estimate must move smoothly with q
  // instead of reporting the bucket edge for all of them.
  const double p10 = histogram.quantile(0.10);
  const double p50 = histogram.quantile(0.50);
  const double p90 = histogram.quantile(0.90);
  EXPECT_GT(p10, 1.0);
  EXPECT_LT(p90, 2.0 + 1e-9);
  EXPECT_LT(p10, p50);
  EXPECT_LT(p50, p90);
  // First bucket interpolates from a lower edge of 0.
  Histogram first({10.0});
  first.observe(3.0);
  first.observe(3.0);
  EXPECT_GT(first.quantile(0.5), 0.0);
  EXPECT_LE(first.quantile(0.5), 10.0);
}

// Satellite property: a steady-state scrape loop must not grow memory —
// the scratch buffer and sample vector reach a high-water mark and then
// every further scrape reuses the same capacity.
TEST(Metrics, RepeatedScrapeIntoDoesNotGrowAllocations) {
  MetricsRegistry registry;
  registry.counter("rave_a_total", {{"k", "1"}}).inc(5);
  registry.gauge("rave_b_depth").set(2.5);
  registry.histogram("rave_c_seconds", {}, {0.1, 1.0}).observe(0.05);

  std::string scratch;
  registry.scrape_into(scratch);
  const std::string first = scratch;
  const size_t capacity = scratch.capacity();
  std::vector<MetricSample> samples;
  registry.samples_into(samples);
  const size_t vector_capacity = samples.capacity();

  for (int i = 0; i < 200; ++i) {
    registry.counter("rave_a_total", {{"k", "1"}}).inc();  // values move
    registry.scrape_into(scratch);
    EXPECT_EQ(scratch.capacity(), capacity) << "scrape buffer regrew at round " << i;
    registry.samples_into(samples);  // refills in place, no clear() needed
    EXPECT_EQ(samples.capacity(), vector_capacity) << "sample vector regrew at round " << i;
  }
  // Same registry state renders the same bytes through either entry point.
  registry.counter("rave_a_total", {{"k", "1"}}).inc(0);
  registry.scrape_into(scratch);
  EXPECT_EQ(scratch.substr(0, scratch.find("rave_a_total{")),
            first.substr(0, first.find("rave_a_total{")));
  EXPECT_EQ(registry.scrape(), scratch);
}

TEST(Metrics, RegistryReturnsStableRefsAndScrapes) {
  MetricsRegistry registry;
  Counter& a = registry.counter("rave_test_total", {{"kind", "x"}});
  Counter& b = registry.counter("rave_test_total", {{"kind", "x"}});
  EXPECT_EQ(&a, &b);  // same name+labels → same instrument
  Counter& c = registry.counter("rave_test_total", {{"kind", "y"}});
  EXPECT_NE(&a, &c);
  a.inc(7);
  c.inc(2);
  registry.gauge("rave_queue_depth").set(3);
  registry.histogram("rave_lat_seconds", {}, {0.1, 1.0}).observe(0.05);

  const std::string text = registry.scrape();
  EXPECT_NE(text.find("# TYPE rave_test_total counter"), std::string::npos) << text;
  EXPECT_NE(text.find("rave_test_total{kind=\"x\"} 7"), std::string::npos) << text;
  EXPECT_NE(text.find("rave_test_total{kind=\"y\"} 2"), std::string::npos) << text;
  EXPECT_NE(text.find("rave_queue_depth 3"), std::string::npos) << text;
  EXPECT_NE(text.find("rave_lat_seconds_bucket{le=\"0.1\"} 1"), std::string::npos) << text;
  EXPECT_NE(text.find("rave_lat_seconds_count 1"), std::string::npos) << text;
  // Scrape is deterministic: same registry state, same bytes.
  EXPECT_EQ(text, registry.scrape());
}

// Property: concurrent writers lose no counts, even while a reader is
// scraping the registry mid-storm (run under -DRAVE_SANITIZE=thread).
TEST(Metrics, ConcurrentWritersLoseNoCounts) {
  MetricsRegistry registry;
  Counter& counter = registry.counter("rave_storm_total");
  Histogram& histogram = registry.histogram("rave_storm_seconds", {}, {0.5});
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;

  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    while (!stop.load()) (void)registry.scrape();
  });
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter.inc();
        histogram.observe(t % 2 == 0 ? 0.1 : 1.0);
      }
    });
  for (auto& w : writers) w.join();
  stop.store(true);
  scraper.join();

  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(histogram.count(), static_cast<uint64_t>(kThreads) * kPerThread);
  const auto buckets = histogram.bucket_counts();
  EXPECT_EQ(buckets[0] + buckets[1], static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST(Metrics, LogEventCountsAndRecords) {
  Counter& events = MetricsRegistry::global().counter(
      "rave_events_total", {{"component", "obstest"}, {"event", "boom"}});
  const uint64_t before = events.value();
  FlightRecorder::global().clear();
  log_event(util::LogLevel::Warn, "obstest", "boom", "something popped");
  EXPECT_EQ(events.value(), before + 1);
  // Warn-level events land in the flight ring as notes.
  EXPECT_NE(FlightRecorder::global().dump().find("something popped"), std::string::npos);
}

// --- tracing -----------------------------------------------------------------

TEST(Trace, SpansInactiveWhenDisabled) {
  Tracer::global().reset();
  Tracer::global().set_enabled(false);
  ScopedSpan root = ScopedSpan::root("frame", "host");
  EXPECT_FALSE(root.active());
  ScopedSpan child("shade", "host");
  EXPECT_FALSE(child.active());
  EXPECT_TRUE(Tracer::global().spans().empty());
}

TEST(Trace, ThreadLocalContextParentsNestedSpans) {
  Tracer::global().reset();
  Tracer::global().set_enabled(true);
  {
    ScopedSpan root = ScopedSpan::root("frame", "client");
    ASSERT_TRUE(root.active());
    {
      ScopedSpan shade("shade", "svc");
      ASSERT_TRUE(shade.active());
      EXPECT_EQ(shade.context().trace_id, root.context().trace_id);
    }
    {
      ScopedSpan raster("raster", "svc");
      ASSERT_TRUE(raster.active());
    }
  }
  Tracer::global().set_enabled(false);

  const auto spans = Tracer::global().spans();
  ASSERT_EQ(spans.size(), 3u);
  uint64_t root_span = 0;
  for (const auto& s : spans)
    if (s.name == "frame") root_span = s.span_id;
  ASSERT_NE(root_span, 0u);
  for (const auto& s : spans)
    if (s.name != "frame") {
      EXPECT_EQ(s.parent_span_id, root_span) << s.name;
    }
}

TEST(Trace, StitchIsByteStableUnderVirtualTime) {
  const auto run = [] {
    util::SimClock clock;
    set_clock(&clock);
    Tracer::global().reset();
    Tracer::global().set_enabled(true);
    {
      ScopedSpan root = ScopedSpan::root("frame", "client");
      clock.advance(0.001);
      {
        ScopedSpan shade("shade", "svc");
        clock.advance(0.002);
      }
      {
        ScopedSpan raster("raster", "svc");
        clock.advance(0.003);
      }
    }
    Tracer::global().set_enabled(false);
    set_clock(nullptr);
    const auto spans = Tracer::global().spans();
    const auto ids = trace_ids(spans);
    return ids.size() == 1 ? stitch_trace(spans, ids[0]) : std::string{};
  };
  const std::string first = run();
  const std::string second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // reset clock + reset ids → identical bytes
  EXPECT_NE(first.find("frame"), std::string::npos) << first;
  EXPECT_NE(first.find("shade"), std::string::npos) << first;
  EXPECT_NE(first.find("raster"), std::string::npos) << first;
}

// --- flight recorder ----------------------------------------------------------

TEST(Trace, CriticalPathChargesSelfTimeAndNamesDominantHop) {
  // A three-hop delivery, hand-built: publisher (10ms wall) wraps a relay
  // hop (7ms) which wraps the subscriber decode (2ms). Self time is
  // duration minus children, so the relay — not the longest span — is the
  // dominant hop.
  const auto make = [](uint64_t span, uint64_t parent, const char* name, const char* host,
                       double start, double end) {
    SpanRecord record;
    record.trace_id = 1;
    record.span_id = span;
    record.parent_span_id = parent;
    record.name = name;
    record.host = host;
    record.start = start;
    record.end = end;
    return record;
  };
  const std::vector<SpanRecord> spans = {
      make(10, 0, "publish_frame", "xeon", 0.0, 0.010),
      make(11, 10, "relay", "edge", 0.002, 0.009),
      make(12, 11, "decode", "pda", 0.004, 0.006),
  };

  const CriticalPath path = critical_path(spans, 1);
  EXPECT_EQ(path.dominant, "relay@edge");
  EXPECT_DOUBLE_EQ(path.total_seconds, 0.010);
  ASSERT_EQ(path.hops.size(), 3u);
  EXPECT_DOUBLE_EQ(path.hops[0].self_seconds, 0.005);  // relay: 7 − 2
  EXPECT_DOUBLE_EQ(path.hops[1].self_seconds, 0.003);  // publisher: 10 − 7
  EXPECT_DOUBLE_EQ(path.hops[2].self_seconds, 0.002);  // decode leaf

  EXPECT_EQ(format_critical_path(path),
            "critical path trace 1 · total 0.010000s · dominant relay@edge\n"
            "   0.005000s  relay @edge (1 span(s))\n"
            "   0.003000s  publish_frame @xeon (1 span(s))\n"
            "   0.002000s  decode @pda (1 span(s))\n");

  // An unknown trace yields an empty-but-printable path.
  const CriticalPath empty = critical_path(spans, 99);
  EXPECT_TRUE(empty.dominant.empty());
  EXPECT_NE(format_critical_path(empty).find("(none)"), std::string::npos);
}

// --- profiler ----------------------------------------------------------------

TEST(Profiler, InjectedTicksSampleSpanStacksDeterministically) {
  Profiler& profiler = Profiler::global();
  profiler.reset();
  profiler.set_enabled(true);
  // Tracing stays OFF: the profiler rides the span annotations alone, so
  // production code needs no second set of instrument sites.
  Tracer::global().set_enabled(false);

  for (int rep = 0; rep < 2; ++rep) {
    ScopedSpan pump("pump", "svc");
    EXPECT_FALSE(pump.active());  // no trace in flight…
    EXPECT_EQ(profiler.tick(), 1u);  // …but the stack is live
    {
      ScopedSpan raster("raster", "svc");
      EXPECT_EQ(profiler.tick(), 1u);
    }
  }
  profiler.set_enabled(false);

  EXPECT_EQ(profiler.total_samples(), 4u);
  // Collapsed-stack export, sorted: ready for flamegraph.pl as-is.
  EXPECT_EQ(profiler.collapsed(), "pump 2\npump;raster 2\n");
  // Leaf attribution with a deterministic tie-break (samples desc, then
  // frame name): both leaves carry two samples each.
  const auto hot = profiler.hottest(2);
  ASSERT_EQ(hot.size(), 2u);
  EXPECT_EQ(hot[0].frame, "pump");
  EXPECT_EQ(hot[0].samples, 2u);
  EXPECT_EQ(hot[1].frame, "raster");
  EXPECT_EQ(hot[1].samples, 2u);

  profiler.reset();
  EXPECT_EQ(profiler.total_samples(), 0u);
  EXPECT_TRUE(profiler.collapsed().empty());
}

TEST(Profiler, TimerThreadSamplesWorkerStacks) {
  Profiler& profiler = Profiler::global();
  profiler.reset();
  profiler.set_enabled(true);

  std::atomic<bool> done{false};
  std::thread worker([&] {
    while (!done.load(std::memory_order_relaxed)) {
      ScopedSpan span("worker_loop", "svc");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });

  // Production mode: a timer thread samples every registered thread's
  // stack. Poll until at least one sample lands (bounded wait).
  profiler.start(/*interval_seconds=*/0.0005);
  for (int i = 0; i < 2000 && profiler.total_samples() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  profiler.stop();
  done.store(true, std::memory_order_relaxed);
  worker.join();
  profiler.set_enabled(false);

  EXPECT_GT(profiler.total_samples(), 0u);
  EXPECT_NE(profiler.collapsed().find("worker_loop"), std::string::npos)
      << profiler.collapsed();
  profiler.reset();
}

// --- shed-induced staleness ---------------------------------------------------

// Frame-granular drop-oldest: buffers published stream messages per frame
// and releases them on command — the shed schedule a bounded reactor
// write queue produces under backpressure, made deterministic for virtual
// time. Forwarded messages keep their trace stamps, like any transport.
class FrameDropChannel final : public net::Channel {
 public:
  explicit FrameDropChannel(net::ChannelPtr inner) : inner_(std::move(inner)) {}

  util::Status send(net::Message message) override {
    if (message.type == core::kMsgFrameBegin || frames_.empty()) frames_.emplace_back();
    frames_.back().push_back(std::move(message));
    return {};
  }

  // Drop every buffered frame older than the newest (drop-oldest shed).
  size_t shed_older() {
    const size_t dropped = frames_.size() > 1 ? frames_.size() - 1 : 0;
    frames_.erase(frames_.begin(), frames_.begin() + static_cast<long>(dropped));
    return dropped;
  }

  // Release up to `n` queued messages of the oldest surviving frame.
  void forward(size_t n) {
    while (n-- > 0 && !frames_.empty()) {
      (void)inner_->send(std::move(frames_.front().front()));
      frames_.front().pop_front();
      if (frames_.front().empty()) frames_.erase(frames_.begin());
    }
  }
  void forward_all() {
    while (!frames_.empty()) forward(1);
  }

  [[nodiscard]] util::Result<net::Message> receive_result(double timeout_seconds) override {
    return inner_->receive_result(timeout_seconds);
  }
  void close() override { inner_->close(); }
  [[nodiscard]] bool is_open() const override { return inner_->is_open(); }
  [[nodiscard]] net::ChannelStats stats() const override { return inner_->stats(); }

 private:
  net::ChannelPtr inner_;
  std::deque<std::deque<net::Message>> frames_;
};

render::Image stream_image(int w, int h, int seed) {
  render::Image img(w, h);
  for (int y = 0; y < h; ++y)
    for (int x = 0; x < w; ++x)
      img.set_pixel(x, y, static_cast<uint8_t>((x * 7 + seed * 13) & 0xFF),
                    static_cast<uint8_t>((y * 11 + seed) & 0xFF),
                    static_cast<uint8_t>((x + y * 3 + seed * 5) & 0xFF));
  return img;
}

TEST(StreamStaleness, DropOldestShedYieldsByteStableAgeAndCriticalPath) {
  struct Run {
    double age = 0;
    uint64_t late = 0;
    std::string path;
    std::string postmortem;
  };
  const auto run = [] {
    util::SimClock clock;
    set_clock(&clock);
    Tracer::global().reset();
    Tracer::global().set_enabled(true);
    FlightRecorder::global().clear();

    core::FrameStreamOptions options;
    options.tile_size = 32;
    options.frame_deadline_seconds = 0.0625;
    core::FrameStreamPublisher publisher(options);
    auto [srv, cli] = net::make_channel_pair();
    auto shed = std::make_shared<FrameDropChannel>(srv);
    publisher.subscribe(shed, compress::QualityClass::Workstation);
    core::FrameStreamReceiver receiver(cli, compress::QualityClass::Workstation, options);

    // Frame 1 (t = 0) never leaves the stalled queue; frame 2 supersedes
    // it an eighth of a second later and then sits in transit. All the
    // advances are exact binary fractions, so the measured age is too.
    (void)publisher.publish_frame(stream_image(64, 32, 1));
    clock.advance(0.125);
    const auto report = publisher.publish_frame(stream_image(64, 32, 2));
    clock.advance(0.0625);
    EXPECT_EQ(shed->shed_older(), 1u);  // drop-oldest: frame 1 is gone

    int step = 0;
    const auto pump = [&] {
      if (step == 0) shed->forward(1);  // FrameBegin lands at t = 0.1875
      if (step == 1) {
        clock.advance(0.03125);  // the rest straggles in 31.25ms later
        shed->forward_all();
      }
      ++step;
    };
    auto frame = receiver.next_frame(clock, 1.0, pump);
    EXPECT_TRUE(frame.ok());

    Run out;
    out.age = MetricsRegistry::global()
                  .gauge("rave_stream_frame_age_seconds", {{"class", "workstation"}})
                  .value();
    out.late = receiver.stats().frames_late;
    out.path =
        format_critical_path(critical_path(Tracer::global().spans(), report.trace_id));
    out.postmortem = FlightRecorder::global().last_dump();
    Tracer::global().set_enabled(false);
    set_clock(nullptr);
    return out;
  };

  const Run first = run();
  const Run second = run();
  // Completion at 0.21875 minus publish at 0.125: the gauge attributes
  // exactly the shed-induced staleness, byte-for-byte across runs.
  EXPECT_EQ(first.age, 0.09375);
  EXPECT_EQ(second.age, first.age);
  EXPECT_EQ(first.path, second.path);
  // The straggling tiles dominate: all of the frame's self time sits in
  // the subscriber's assemble hop.
  EXPECT_NE(first.path.find("dominant assemble@subscriber"), std::string::npos) << first.path;
  // 0.09375s age > 0.0625s deadline → the late-frame post-mortem fired
  // and carries the per-hop breakdown.
  EXPECT_EQ(first.late, 1u);
  EXPECT_NE(first.postmortem.find("late frame 2 class workstation"), std::string::npos)
      << first.postmortem;
  EXPECT_NE(first.postmortem.find("critical path trace"), std::string::npos)
      << first.postmortem;
}

TEST(Flight, RingEvictsOldestAndCountsTotal) {
  FlightRecorder recorder;
  recorder.set_capacity(3);
  for (int i = 0; i < 5; ++i)
    recorder.record_note("test", "event " + std::to_string(i), static_cast<double>(i));
  EXPECT_EQ(recorder.event_count(), 3u);
  EXPECT_EQ(recorder.total_recorded(), 5u);
  const std::string dump = recorder.dump();
  EXPECT_EQ(dump.find("event 0"), std::string::npos);  // evicted
  EXPECT_EQ(dump.find("event 1"), std::string::npos);
  EXPECT_NE(dump.find("event 4"), std::string::npos);
}

TEST(Flight, FailureAutoCapturesPostmortem) {
  FlightRecorder recorder;
  EXPECT_TRUE(recorder.last_dump().empty());
  recorder.record_decision("data", "plan: move 3 nodes", 1.0);
  recorder.record_failure("render", "assistant pda lost", 2.0);
  const std::string dump = recorder.last_dump();
  // The snapshot taken at failure time already holds the decision context.
  EXPECT_NE(dump.find("post-mortem (failure: render: assistant pda lost)"), std::string::npos)
      << dump;
  EXPECT_NE(dump.find("DECIDE"), std::string::npos) << dump;
  EXPECT_NE(dump.find("plan: move 3 nodes"), std::string::npos) << dump;
  EXPECT_NE(dump.find("FAIL"), std::string::npos) << dump;

  recorder.clear();
  EXPECT_EQ(recorder.event_count(), 0u);
  EXPECT_TRUE(recorder.last_dump().empty());
}

TEST(Flight, ParseCapacityClampsAndFallsBack) {
  // RAVE_FLIGHT_EVENTS: bounds-clamped to [16, 65536]; anything that is
  // not a clean positive number falls back.
  EXPECT_EQ(parse_flight_capacity("1024", 512), 1024u);
  EXPECT_EQ(parse_flight_capacity(nullptr, 512), 512u);
  EXPECT_EQ(parse_flight_capacity("", 512), 512u);
  EXPECT_EQ(parse_flight_capacity("abc", 512), 512u);
  EXPECT_EQ(parse_flight_capacity("64junk", 512), 512u);
  EXPECT_EQ(parse_flight_capacity("-5", 512), 16u);  // clean parse, clamped
  EXPECT_EQ(parse_flight_capacity("8", 512), 16u);           // clamp up
  EXPECT_EQ(parse_flight_capacity("100000000", 512), 65536u);  // clamp down
}

TEST(Metrics, ScrapeEmitsHelpCommentsForKnownFamilies) {
  MetricsRegistry registry;
  registry.counter("rave_soap_calls_total", {{"host", "a"}}).inc(3);
  registry.counter("rave_soap_calls_total", {{"host", "b"}}).inc(1);
  registry.counter("rave_made_up_total").inc();

  const std::string text = registry.scrape();
  const size_t help = text.find("# HELP rave_soap_calls_total ");
  const size_t type = text.find("# TYPE rave_soap_calls_total counter");
  ASSERT_NE(help, std::string::npos) << text;
  ASSERT_NE(type, std::string::npos) << text;
  EXPECT_LT(help, type);  // Prometheus order: HELP, TYPE, samples
  // One HELP per family, not per labeled series.
  EXPECT_EQ(text.find("# HELP rave_soap_calls_total ", help + 1), std::string::npos);
  // Unknown families scrape fine, just without a HELP comment.
  EXPECT_EQ(text.find("# HELP rave_made_up_total"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE rave_made_up_total counter"), std::string::npos) << text;
}

TEST(Trace, CriticalPathOfUntracedFrameIsEmptyButPrintable) {
  // Tracing disabled → no spans at all. The analysis degrades to an
  // explicit "(none)", never a crash or a bogus hop.
  const CriticalPath path = critical_path({}, 0);
  EXPECT_TRUE(path.hops.empty());
  EXPECT_TRUE(path.dominant.empty());
  EXPECT_DOUBLE_EQ(path.total_seconds, 0.0);
  EXPECT_NE(format_critical_path(path).find("(none)"), std::string::npos);
}

TEST(Trace, CriticalPathChargesOrphanSpansFullDuration) {
  // A partially traced frame: the relay's span made it into the collector
  // but its publisher parent did not (sampled out, or the host died before
  // flushing). The orphan has no parent to absorb child time, so its full
  // duration counts as self time — the breakdown stays truthful about
  // what was observed instead of silently dropping the hop.
  const auto make = [](uint64_t span, uint64_t parent, const char* name, const char* host,
                       double start, double end) {
    SpanRecord record;
    record.trace_id = 5;
    record.span_id = span;
    record.parent_span_id = parent;
    record.name = name;
    record.host = host;
    record.start = start;
    record.end = end;
    return record;
  };
  const std::vector<SpanRecord> spans = {
      make(21, 99, "relay", "edge", 0.010, 0.018),  // parent 99 never recorded
      make(22, 21, "decode", "pda", 0.012, 0.015),
  };
  const CriticalPath path = critical_path(spans, 5);
  ASSERT_EQ(path.hops.size(), 2u);
  EXPECT_EQ(path.dominant, "relay@edge");
  EXPECT_DOUBLE_EQ(path.hops[0].self_seconds, 0.005);  // 8ms minus the decode child
  EXPECT_DOUBLE_EQ(path.hops[1].self_seconds, 0.003);  // orphan-rooted subtree intact
  EXPECT_DOUBLE_EQ(path.total_seconds, 0.008);         // last end − first start
}

}  // namespace
}  // namespace rave::obs

namespace rave::core {
namespace {

// --- status endpoint round-trip -----------------------------------------------

TEST(ObsStatus, ExtendedFamiliesRoundTripThroughSoap) {
  util::SimClock clock;
  RaveGrid grid(clock);
  DataService& data = grid.add_data_service("datahost");
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 16, 12));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  grid.add_render_service("laptop");
  ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());

  ThinClient client(clock, grid.fabric());
  ASSERT_TRUE(
      client.connect(grid.render_service("laptop")->client_access_point(), "demo").ok());
  scene::Camera cam;
  cam.eye = {0, 0, 3};
  const auto pump = [&grid] { grid.pump_all(); };
  auto frame = client.request_frame(cam, 48, 48, 5.0, pump);
  ASSERT_TRUE(frame.ok()) << frame.error();

  const auto statuses = grid.collect_status();
  const HostStatus* render_host = nullptr;
  for (const HostStatus& status : statuses)
    if (status.has_render_service) render_host = &status;
  ASSERT_NE(render_host, nullptr);
  ASSERT_EQ(render_host->renders.size(), 1u);
  const RenderStatus& render = render_host->renders[0];
  EXPECT_GE(render.frames_rendered, 1u);
  // The new families survived the SOAP round-trip: a pulled frame is a
  // stream frame, so it must have shipped data tiles through the encode
  // memo and populated the latency histogram.
  EXPECT_GT(render.fanout_tiles_data, 0u);
  EXPECT_GT(render.fanout_encode_misses, 0u);
  EXPECT_EQ(render.fanout_subscribers, 0u);  // a pull is not a subscription
  EXPECT_GT(render.frame_p50_seconds, 0.0);
  EXPECT_GE(render.frame_p99_seconds, render.frame_p50_seconds);

  const std::string dashboard = format_dashboard(statuses);
  EXPECT_NE(dashboard.find("fanout cache:"), std::string::npos) << dashboard;
  EXPECT_EQ(dashboard.find("codec:"), std::string::npos) << dashboard;
  EXPECT_NE(dashboard.find("p50/p99"), std::string::npos) << dashboard;
}

TEST(ObsStatus, MetricsMethodServesScrape) {
  util::SimClock clock;
  RaveGrid grid(clock);
  grid.add_render_service("laptop");
  // Each test runs in its own process: seed the process-wide registry so
  // the scrape has something to expose.
  obs::MetricsRegistry::global().counter("rave_scrape_probe_total").inc();
  auto proxy = grid.soap_proxy("laptop", "status");
  ASSERT_TRUE(proxy.ok()) << proxy.error();
  grid.container("laptop")->start();
  auto scraped = proxy.value().call("snapshot", {}, 2.0);
  // One pull serves every plane: no per-plane method answers.
  for (const char* retired : {"metrics", "flight", "health"})
    EXPECT_FALSE(proxy.value().call(retired, {}, 2.0).ok()) << retired;
  grid.container("laptop")->stop();
  ASSERT_TRUE(scraped.ok()) << scraped.error();
  const auto snapshot = parse_status_snapshot(scraped.value());
  ASSERT_TRUE(snapshot.ok()) << snapshot.error();
  // The scrape includes families registered by earlier activity in this
  // process (the registry is process-wide); at minimum it is well-formed.
  EXPECT_NE(snapshot.value().metrics.find("# TYPE"), std::string::npos);
  // No canary watches the host: its verdict is Unknown, under its name.
  EXPECT_EQ(snapshot.value().health.host, "laptop");
  EXPECT_EQ(snapshot.value().health.state, obs::HealthState::Unknown);
}

TEST(ObsStatus, DashboardShowsFailureChurn) {
  HostStatus host;
  host.host = "datahost";
  host.has_data_service = true;
  host.lease_expiries = 2;
  host.recoveries = 1;
  RenderStatus render;
  render.host = "laptop";
  render.frames_rendered = 10;
  render.peer_failures = 1;
  render.tiles_redispatched = 3;
  render.delayed_queue_depth = 4;
  render.fanout_tiles_ref = 3;
  render.fanout_tiles_data = 1;
  render.fanout_encode_hits = 1;
  render.fanout_encode_misses = 1;
  render.fanout_bytes_saved = 600;
  HostStatus render_entry;
  render_entry.host = "laptop";
  render_entry.has_render_service = true;
  render_entry.renders.push_back(render);

  const std::string text = format_dashboard({host, render_entry});
  EXPECT_NE(text.find("2 lease expiries"), std::string::npos) << text;
  EXPECT_NE(text.find("1 recovery round(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("1 peer failure(s), 3 tile(s) re-dispatched"), std::string::npos) << text;
  EXPECT_NE(text.find("delayed sends queued: 4"), std::string::npos) << text;
  EXPECT_NE(text.find("3/4 tiles as refs (75% hit), encode memo 1/2 hits (600 bytes saved)"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace rave::core
