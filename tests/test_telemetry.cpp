// Telemetry-plane tests: time-series store semantics, the central
// collector's determinism and gap behaviour, the SLO engine's state
// machine and anomaly detector, trend advisories changing migration
// plans, and the full-grid wiring (scrape over the fabric, advisor into
// plan_migration, rave-top dashboard, JSONL export). Everything runs
// under SimClock so two identically-seeded runs must produce identical
// bytes.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "core/grid.hpp"
#include "core/migration.hpp"
#include "core/status.hpp"
#include "mesh/primitives.hpp"
#include "obs/collector.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "scene/camera.hpp"
#include "scene/tree.hpp"

namespace {
// CI's telemetry lane sets RAVE_TELEMETRY_DIR and uploads whatever the
// tests drop there when a run fails.
void write_artifact(const std::string& name, const std::string& content) {
  const char* dir = std::getenv("RAVE_TELEMETRY_DIR");
  if (dir == nullptr || *dir == '\0') return;
  std::ofstream out(std::string(dir) + "/" + name, std::ios::binary);
  out << content;
}
}  // namespace

namespace rave::obs {
namespace {
// A collector pull that carries only a metrics exposition.
HostSnapshot metrics_only(std::string exposition) {
  HostSnapshot snapshot;
  snapshot.metrics = std::move(exposition);
  return snapshot;
}

// --- time-series store -------------------------------------------------------

TEST(Timeseries, ParsePrometheusKeepsLabelsAndSkipsComments) {
  const std::string text =
      "# TYPE rave_x_total counter\n"
      "rave_x_total{kind=\"a\"} 7\n"
      "rave_depth 2.5\n"
      "rave_lat_seconds_bucket{le=\"0.1\"} 3\n"
      "rave_lat_seconds_bucket{le=\"+Inf\"} 4\n";
  const auto samples = parse_prometheus(text);
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples[0].name, "rave_x_total");
  EXPECT_EQ(samples[0].labels, "{kind=\"a\"}");
  EXPECT_DOUBLE_EQ(samples[0].value, 7);
  EXPECT_EQ(samples[1].name, "rave_depth");
  EXPECT_EQ(samples[1].labels, "");
  EXPECT_EQ(samples[3].labels, "{le=\"+Inf\"}");

  const auto pairs = parse_labels("{a=\"x\",le=\"0.1\"}");
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[1].first, "le");
  EXPECT_EQ(pairs[1].second, "0.1");
}

TEST(Timeseries, RingKeepsNewestPointsOldestFirst) {
  TimeSeriesStore store(4);
  const SeriesKey key{"h", "m", ""};
  for (int i = 0; i < 6; ++i) store.append(key, i, i * 10.0);
  const auto points = store.points(key);
  ASSERT_EQ(points.size(), 4u);
  EXPECT_DOUBLE_EQ(points.front().t, 2);  // 0 and 1 overwritten
  EXPECT_DOUBLE_EQ(points.back().t, 5);
  EXPECT_DOUBLE_EQ(points.back().value, 50);
  const auto tail = store.recent_values(key, 2);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_DOUBLE_EQ(tail[0], 40);
  EXPECT_DOUBLE_EQ(tail[1], 50);
}

TEST(Timeseries, RollupWindowsAndRates) {
  TimeSeriesStore store;
  const SeriesKey key{"h", "rave_frames_total", ""};
  // Counter climbing 12/s, one stale point outside the window.
  store.append(key, 0.0, 0);
  for (int i = 1; i <= 10; ++i) store.append(key, i, i * 12.0);
  const Rollup roll = store.rollup(key, 5.0, 10.0);
  EXPECT_EQ(roll.count, 5u);  // t in (5, 10]
  EXPECT_DOUBLE_EQ(roll.min, 72);
  EXPECT_DOUBLE_EQ(roll.max, 120);
  EXPECT_DOUBLE_EQ(roll.last, 120);
  EXPECT_DOUBLE_EQ(roll.rate, 12.0);
  EXPECT_GT(roll.ewma, 72);
  EXPECT_LE(roll.ewma, 120);
  // Empty window → zero rollup.
  EXPECT_EQ(store.rollup(key, 5.0, 100.0).count, 0u);
}

TEST(Timeseries, WindowedQuantileInterpolatesAcrossBuckets) {
  TimeSeriesStore store;
  const std::string host = "h";
  // Cumulative buckets at t=0 (all zero) and t=4: 80 obs ≤ 0.1, 20 more
  // ≤ 1.0, none beyond.
  store.append({host, "lat_bucket", "{le=\"0.1\"}"}, 0, 0);
  store.append({host, "lat_bucket", "{le=\"1\"}"}, 0, 0);
  store.append({host, "lat_bucket", "{le=\"+Inf\"}"}, 0, 0);
  store.append({host, "lat_bucket", "{le=\"0.1\"}"}, 4, 80);
  store.append({host, "lat_bucket", "{le=\"1\"}"}, 4, 100);
  store.append({host, "lat_bucket", "{le=\"+Inf\"}"}, 4, 100);

  const double p50 = store.windowed_quantile(host, "lat", "", 0.5, 10.0, 5.0);
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, 0.1);  // rank 50 of 100 interpolates inside the first bucket
  const double p90 = store.windowed_quantile(host, "lat", "", 0.9, 10.0, 5.0);
  EXPECT_GT(p90, 0.1);  // rank 91 lands in the (0.1, 1] bucket
  EXPECT_LE(p90, 1.0);
  EXPECT_LT(p50, p90);
  // No increase inside the window → no data → 0.
  EXPECT_DOUBLE_EQ(store.windowed_quantile(host, "lat", "", 0.5, 0.5, 50.0), 0.0);
}

TEST(Timeseries, JsonlExportIsDeterministic) {
  const auto build = [] {
    TimeSeriesStore store;
    store.append({"b", "m2", ""}, 1.5, 2.25);
    store.append({"a", "m1", "{k=\"v\"}"}, 1.0, 42);
    store.append({"a", "m1", "{k=\"v\"}"}, 2.0, 43);
    return store.export_jsonl();
  };
  const std::string first = build();
  EXPECT_EQ(first, build());
  // Map-ordered: host "a" precedes "b" regardless of insertion order.
  EXPECT_LT(first.find("\"host\":\"a\""), first.find("\"host\":\"b\""));
  EXPECT_NE(first.find("{\"t\":1,\"host\":\"a\",\"name\":\"m1\",\"labels\":{\"k\":\"v\"},"
                       "\"value\":42}"),
            std::string::npos)
      << first;
}

TEST(Timeseries, SparklineScalesToOwnRange) {
  EXPECT_EQ(sparkline({}), "");
  const std::string line = sparkline({0, 1, 2, 3});
  EXPECT_NE(line.find("▁"), std::string::npos);
  EXPECT_NE(line.find("█"), std::string::npos);
  // Flat series render mid-level, not bottom.
  EXPECT_EQ(sparkline({5, 5}), "▄▄");
}

// --- collector ---------------------------------------------------------------

TEST(Collector, DeterministicAcrossIdenticalRuns) {
  const auto run = [] {
    util::SimClock clock;
    Collector::Options options;
    options.interval = 0.5;
    options.ring_capacity = 64;
    Collector collector(clock, options);
    int alpha_calls = 0;
    collector.add_target({"alpha", [&alpha_calls]() -> util::Result<HostSnapshot> {
                            ++alpha_calls;
                            char buf[96];
                            std::snprintf(buf, sizeof(buf),
                                          "rave_ticks_total %d\nrave_depth %d\n",
                                          alpha_calls * 3, alpha_calls % 4);
                            return metrics_only(buf);
                          }});
    int beta_calls = 0;
    collector.add_target({"beta", [&beta_calls]() -> util::Result<HostSnapshot> {
                            ++beta_calls;
                            if (beta_calls % 3 == 0)
                              return util::make_error("synthetic outage");
                            return metrics_only("rave_ticks_total " +
                                                std::to_string(beta_calls) + "\n");
                          }});
    for (int i = 0; i < 24; ++i) {
      clock.advance(0.25);
      collector.tick();
    }
    return collector.export_jsonl();
  };
  const std::string first = run();
  const std::string second = run();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);
  // Both hosts contributed, including beta's gap series.
  EXPECT_NE(first.find("\"host\":\"alpha\""), std::string::npos);
  EXPECT_NE(first.find("\"host\":\"beta\""), std::string::npos);
  EXPECT_NE(first.find("rave_collector_gaps_total"), std::string::npos);
}

TEST(Collector, GapNeverStallsHealthyTargets) {
  util::SimClock clock;
  Collector collector(clock);
  collector.add_target(
      {"dead", []() -> util::Result<HostSnapshot> { return util::make_error("down"); }});
  collector.add_target(
      {"live", []() -> util::Result<HostSnapshot> { return metrics_only("rave_up 1\n"); }});
  for (int i = 0; i < 5; ++i) {
    clock.advance(1.0);
    collector.tick();
  }
  const auto health = collector.health();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_EQ(health[0].host, "dead");
  EXPECT_GE(health[0].gaps, 5u);
  EXPECT_EQ(health[0].scrapes, 0u);
  EXPECT_EQ(health[0].last_error, "down");
  EXPECT_GE(health[1].scrapes, 5u);
  EXPECT_EQ(health[1].gaps, 0u);
  // The gap became history the dashboard can trend on.
  EXPECT_TRUE(collector.store().contains({"dead", "rave_collector_gaps_total", ""}));
  EXPECT_TRUE(collector.store().contains({"live", "rave_up", ""}));
}

TEST(Collector, ReRegisteringTargetKeepsHistory) {
  util::SimClock clock;
  Collector collector(clock);
  collector.add_target(
      {"h", []() -> util::Result<HostSnapshot> { return metrics_only("rave_v 1\n"); }});
  clock.advance(1.0);
  collector.tick();
  collector.add_target(
      {"h", []() -> util::Result<HostSnapshot> { return metrics_only("rave_v 2\n"); }});
  clock.advance(1.0);
  collector.tick();
  EXPECT_EQ(collector.target_count(), 1u);
  EXPECT_EQ(collector.store().points({"h", "rave_v", ""}).size(), 2u);
}

// --- SLO engine --------------------------------------------------------------

TEST(Slo, GaugeObjectiveBurnsThenViolatesThenRecovers) {
  TimeSeriesStore store;
  SloEngine engine;
  SloSpec spec;
  spec.name = "fps_floor";
  spec.metric = "rave_fps";
  spec.kind = SloSpec::Kind::GaugeAtLeast;
  spec.threshold = 10.0;
  spec.window = 3.0;
  spec.burn_seconds = 2.0;
  engine.add(spec);
  const SeriesKey key{"hostA", "rave_fps", ""};

  // Healthy.
  for (double t = 1; t <= 4; t += 1) store.append(key, t, 15);
  auto status = engine.evaluate(store, 4);
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].state, SloStatus::State::Ok);
  EXPECT_EQ(status[0].host, "hostA");

  // Degraded: first evaluation inside the violation is Burning…
  for (double t = 5; t <= 8; t += 1) store.append(key, t, 4);
  status = engine.evaluate(store, 8);
  EXPECT_EQ(status[0].state, SloStatus::State::Burning);
  // …and once it sustains past burn_seconds, Violated.
  for (double t = 9; t <= 11; t += 1) {
    store.append(key, t, 4);
    status = engine.evaluate(store, t);
  }
  EXPECT_EQ(status[0].state, SloStatus::State::Violated);
  EXPECT_GE(status[0].violating_for, spec.burn_seconds);
  const std::vector<Advisory> advisories = engine.advisories("hostA");
  ASSERT_EQ(advisories.size(), 1u);
  EXPECT_EQ(advisories[0].source, Advisory::Source::Slo);
  EXPECT_EQ(advisories[0].severity, Advisory::Severity::Critical);
  EXPECT_NE(advisories[0].reason.find("fps_floor"), std::string::npos);

  // Recovery.
  for (double t = 12; t <= 16; t += 1) {
    store.append(key, t, 18);
    status = engine.evaluate(store, t);
  }
  EXPECT_EQ(status[0].state, SloStatus::State::Ok);
  EXPECT_TRUE(engine.advisories("hostA").empty());
}

TEST(Slo, RateObjectivesUseWindowedCounterRate) {
  TimeSeriesStore store;
  SloEngine engine;
  SloSpec fps;
  fps.name = "fps";
  fps.metric = "rave_frames_total";
  fps.kind = SloSpec::Kind::RateAtLeast;
  fps.threshold = 10.0;
  fps.window = 4.0;
  engine.add(fps);
  SloSpec churn;
  churn.name = "redispatch";
  churn.metric = "rave_redispatch_total";
  churn.kind = SloSpec::Kind::RateAtMost;
  churn.threshold = 1e-9;
  churn.window = 4.0;
  engine.add(churn);
  const SeriesKey frames{"h", "rave_frames_total", ""};
  const SeriesKey redispatch{"h", "rave_redispatch_total", ""};

  // 15 frames/s, zero re-dispatches: both objectives Ok.
  for (double t = 1; t <= 6; t += 1) {
    store.append(frames, t, t * 15);
    store.append(redispatch, t, 0);
  }
  auto status = engine.evaluate(store, 6);
  ASSERT_EQ(status.size(), 2u);
  EXPECT_EQ(status[0].state, SloStatus::State::Ok);
  EXPECT_EQ(status[1].state, SloStatus::State::Ok);

  // Frame rate collapses to 2/s and re-dispatches start: both burn.
  for (double t = 7; t <= 12; t += 1) {
    store.append(frames, t, 90 + (t - 6) * 2);
    store.append(redispatch, t, (t - 6) * 3);
    status = engine.evaluate(store, t);
  }
  EXPECT_NE(status[0].state, SloStatus::State::Ok);
  EXPECT_NE(status[1].state, SloStatus::State::Ok);
}

TEST(Slo, StepChangeFlagsAnomalyIndependentOfThreshold) {
  TimeSeriesStore store;
  SloEngine engine;
  SloSpec spec;
  spec.name = "frame_mean";
  spec.metric = "rave_frame_mean";
  spec.kind = SloSpec::Kind::GaugeAtLeast;
  spec.threshold = 0.0;  // never violates: anomaly only
  spec.window = 3.0;
  spec.anomaly_factor = 0.5;
  engine.add(spec);
  const SeriesKey key{"h", "rave_frame_mean", ""};

  bool flagged = false;
  bool advisory_at_flag = false;
  double value = 10;
  for (double t = 1; t <= 20; t += 1) {
    if (t >= 12) value = 30;  // step change: 10 → 30
    store.append(key, t, value);
    const auto& status = engine.evaluate(store, t);
    ASSERT_EQ(status.size(), 1u);
    EXPECT_EQ(status[0].state, SloStatus::State::Ok);  // threshold never trips
    if (t < 12) {
      EXPECT_FALSE(status[0].anomaly) << "false positive at t=" << t;
    }
    if (status[0].anomaly && !flagged) {
      flagged = true;
      const std::vector<Advisory> advisories = engine.advisories("h");
      advisory_at_flag = advisories.size() == 1 &&
                         advisories[0].source == Advisory::Source::Anomaly &&
                         advisories[0].severity == Advisory::Severity::Warning;
    }
  }
  EXPECT_TRUE(flagged);
  EXPECT_TRUE(advisory_at_flag);
  // Once the new level is established the step is history, not an anomaly.
  EXPECT_TRUE(engine.advisories("h").empty());
}

TEST(Slo, SharedRegistrySeriesEvaluateOncePerRealHost) {
  // The in-process grid shares one MetricsRegistry, so every scrape
  // carries every host's per-host families. A series whose host label
  // disagrees with its scrape tag must be skipped, not double-counted.
  TimeSeriesStore store;
  SloEngine engine;
  SloSpec spec;
  spec.name = "fps_floor";
  spec.metric = "rave_fps";
  spec.kind = SloSpec::Kind::GaugeAtLeast;
  spec.threshold = 10.0;
  spec.window = 5.0;
  engine.add(spec);
  for (double t = 1; t <= 3; t += 1) {
    // Both scrape targets see both hosts' labelled series.
    store.append({"a", "rave_fps", "{host=\"a\"}"}, t, 20);
    store.append({"a", "rave_fps", "{host=\"b\"}"}, t, 5);
    store.append({"b", "rave_fps", "{host=\"a\"}"}, t, 20);
    store.append({"b", "rave_fps", "{host=\"b\"}"}, t, 5);
  }
  const auto& status = engine.evaluate(store, 3);
  ASSERT_EQ(status.size(), 2u);  // one unit per real host, not four
  EXPECT_EQ(status[0].host, "a");
  EXPECT_EQ(status[0].state, SloStatus::State::Ok);
  EXPECT_EQ(status[1].host, "b");
  EXPECT_NE(status[1].state, SloStatus::State::Ok);
}

TEST(Slo, ProcessWideFamilyIsJudgedOnceAtGridScope) {
  // rave_stream_delivery_seconds carries no host label: in-process, every
  // host's pull (the data host's and both render hosts') carries the same
  // process-wide histogram. A burning delivery class is one grid-scope
  // status, and no host gets an advisory for it.
  TimeSeriesStore store;
  SloEngine engine;
  for (const SloSpec& spec : default_render_slos())
    if (spec.name == "delivery_latency_workstation") engine.add(spec);
  ASSERT_EQ(engine.specs().size(), 1u);
  const std::string sel = "class=\"workstation\",hop=\"deliver\"";
  for (double t = 1; t <= 8; t += 1) {
    // Every delivery takes 0.2 s, far over the 66 ms budget.
    const double n = t * 15;
    for (const char* host : {"datahost", "laptop", "xeon"}) {
      store.append({host, "rave_stream_delivery_seconds_bucket", "{" + sel + ",le=\"0.1\"}"}, t,
                   0);
      store.append({host, "rave_stream_delivery_seconds_bucket", "{" + sel + ",le=\"0.25\"}"},
                   t, n);
      store.append({host, "rave_stream_delivery_seconds_bucket", "{" + sel + ",le=\"+Inf\"}"},
                   t, n);
      store.append({host, "rave_stream_delivery_seconds_count", "{" + sel + "}"}, t, n);
    }
    engine.evaluate(store, t);
  }
  const std::vector<SloStatus>& status = engine.current();
  ASSERT_EQ(status.size(), 1u);
  EXPECT_EQ(status[0].host, "");
  EXPECT_EQ(status[0].state, SloStatus::State::Violated);
  EXPECT_NE(engine.format_current().find("delivery_latency_workstation grid: VIOLATED"),
            std::string::npos)
      << engine.format_current();
  for (const char* host : {"datahost", "laptop", "xeon", ""})
    EXPECT_TRUE(engine.advisories(host).empty()) << host;
}

}  // namespace
}  // namespace rave::obs

namespace rave::core {
namespace {

// --- trend advisories in migration planning ----------------------------------

NodeCost node(scene::NodeId id, uint64_t triangles) {
  NodeCost cost;
  cost.node = id;
  cost.triangles = triangles;
  return cost;
}

// The acceptance property: a sustained SLO burn changes a plan that the
// instantaneous EWMA flags alone would leave empty.
TEST(TrendMigration, BurnOnlyServiceShedsWhereEwmaWouldNot) {
  ServiceLoadView burning;
  burning.subscriber_id = 1;
  burning.capacity.polygons_per_sec = 150'000;  // budget 10k at 15 fps
  burning.fps = 20;
  burning.assigned = {node(1, 4000), node(2, 3000), node(3, 1000)};  // within budget
  ServiceLoadView helper;
  helper.subscriber_id = 2;
  helper.capacity.polygons_per_sec = 300'000;

  // Instantaneous flags alone: nothing is overloaded, the plan is empty.
  EXPECT_TRUE(plan_migration({burning, helper}).empty());

  // The telemetry plane disagrees: the same inputs plus a burn → shed.
  burning.advisories = {{obs::Advisory::Source::Slo, obs::Advisory::Severity::Critical,
                         "frame_p99 host=one: BURNING value=0.08 bound=0.066"}};
  MigrationExplain explain;
  const auto actions = plan_migration({burning, helper}, {}, &explain);
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].kind, MigrationAction::Kind::MoveNodes);
  EXPECT_EQ(actions[0].from, 1u);
  EXPECT_EQ(actions[0].to, 2u);
  // Budget says no deficit, so the burn sheds the fixed 25% slice:
  // smallest-first covers 2000 work units with nodes 3 (1000) + 2 (3000).
  EXPECT_EQ(actions[0].nodes.size(), 2u);

  bool marked = false;
  for (const std::string& line : explain.inputs)
    if (line.find("slo-burn") != std::string::npos &&
        line.find("[frame_p99") != std::string::npos)
      marked = true;
  EXPECT_TRUE(marked) << "explain inputs missing the advisory marker";
}

TEST(TrendMigration, AnomalousReceiverIsRejectedWithReason) {
  ServiceLoadView overloaded;
  overloaded.subscriber_id = 1;
  overloaded.capacity.polygons_per_sec = 15'000;  // budget 1000
  overloaded.overloaded = true;
  overloaded.assigned = {node(1, 800), node(2, 700), node(3, 600)};
  ServiceLoadView steady;
  steady.subscriber_id = 2;
  steady.capacity.polygons_per_sec = 75'000;
  ServiceLoadView anomalous;
  anomalous.subscriber_id = 3;
  anomalous.capacity.polygons_per_sec = 300'000;  // most headroom

  // Baseline: headroom order sends the work to the anomalous candidate.
  const auto baseline = plan_migration({overloaded, steady, anomalous});
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(baseline[0].to, 3u);

  anomalous.advisories = {{obs::Advisory::Source::Anomaly, obs::Advisory::Severity::Warning,
                           "frame_mean host=three: ANOMALY"}};
  MigrationExplain explain;
  const auto actions = plan_migration({overloaded, steady, anomalous}, {}, &explain);
  ASSERT_FALSE(actions.empty());
  for (const MigrationAction& action : actions)
    if (action.kind == MigrationAction::Kind::MoveNodes) {
      EXPECT_EQ(action.to, 2u);
    }
  bool rejected = false;
  for (const auto& rejection : explain.rejected)
    if (rejection.candidate == 3 &&
        rejection.reason.find("trend advisory disqualifies receiver") != std::string::npos)
      rejected = true;
  EXPECT_TRUE(rejected);
}

TEST(TrendMigration, BurningSurvivorTakesOrphansOnlyAsLastResort) {
  ServiceLoadView dead;
  dead.subscriber_id = 1;
  dead.failed = true;
  dead.assigned = {node(1, 500), node(2, 400)};
  ServiceLoadView healthy;
  healthy.subscriber_id = 2;
  healthy.capacity.polygons_per_sec = 75'000;
  ServiceLoadView burning;
  burning.subscriber_id = 3;
  burning.capacity.polygons_per_sec = 300'000;
  burning.advisories = {{obs::Advisory::Source::Slo, obs::Advisory::Severity::Critical, ""}};

  MigrationExplain explain;
  const auto actions = plan_migration({dead, healthy, burning}, {}, &explain);
  ASSERT_FALSE(actions.empty());
  for (const MigrationAction& action : actions)
    if (action.kind == MigrationAction::Kind::MoveNodes) {
      EXPECT_EQ(action.to, 2u);
    }
  bool rejected = false;
  for (const auto& rejection : explain.rejected)
    if (rejection.candidate == 3 &&
        rejection.reason.find("survivor") != std::string::npos)
      rejected = true;
  EXPECT_TRUE(rejected);

  // With nobody healthy left, the burning survivor still takes the load —
  // a degraded frame rate beats a hole in the scene.
  const auto last_resort = plan_migration({dead, burning});
  ASSERT_FALSE(last_resort.empty());
  EXPECT_EQ(last_resort[0].to, 3u);
}

TEST(TrendMigration, UnderloadFillSkipsFlaggedService) {
  ServiceLoadView idle;
  idle.subscriber_id = 1;
  idle.capacity.polygons_per_sec = 150'000;
  idle.underloaded = true;
  ServiceLoadView loaded;
  loaded.subscriber_id = 2;
  loaded.capacity.polygons_per_sec = 150'000;
  loaded.assigned = {node(1, 2000), node(2, 2000), node(3, 2000)};

  // Baseline: the idle service pulls work from the loaded one.
  const auto baseline = plan_migration({idle, loaded});
  ASSERT_FALSE(baseline.empty());
  EXPECT_EQ(baseline[0].kind, MigrationAction::Kind::MoveNodes);
  EXPECT_EQ(baseline[0].to, 1u);

  idle.advisories = {{obs::Advisory::Source::Slo, obs::Advisory::Severity::Critical, ""}};
  MigrationExplain explain;
  const auto actions = plan_migration({idle, loaded}, {}, &explain);
  EXPECT_TRUE(actions.empty());  // no fill into a burning service
  bool rejected = false;
  for (const auto& rejection : explain.rejected)
    if (rejection.candidate == 1 &&
        rejection.reason.find("blocks underload fill") != std::string::npos)
      rejected = true;
  EXPECT_TRUE(rejected);
}

// --- full-grid wiring --------------------------------------------------------

struct GridRunResult {
  std::string jsonl;
  std::string slo;
  std::string dashboard;
};

// One deterministic grid run under virtual time: data host + render host,
// telemetry at 1 Hz, a thin client driving frames for ~4 virtual seconds.
GridRunResult run_telemetry_grid() {
  obs::MetricsRegistry::global().reset_values();
  obs::FlightRecorder::global().clear();
  obs::Tracer::global().reset();
  util::SimClock clock;
  obs::set_clock(&clock);

  GridRunResult result;
  {
    RaveGrid grid(clock, net::ethernet_100mbit());
    DataService& data = grid.add_data_service("datahost");
    scene::SceneTree tree;
    tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 24, 18));
    EXPECT_TRUE(data.create_session("demo", std::move(tree)).ok());
    RenderService::Options options;
    options.profile = sim::centrino_laptop();
    options.simulate_timing = true;
    grid.add_render_service("laptop", options);
    EXPECT_TRUE(grid.join("laptop", "datahost", "demo").ok());
    EXPECT_TRUE(data.distribute("demo").ok());

    obs::Collector::Options collect;
    collect.interval = 1.0;
    grid.enable_telemetry(collect, obs::default_render_slos(/*target_fps=*/5.0));

    ThinClient client(clock, grid.fabric());
    EXPECT_TRUE(
        client.connect(grid.render_service("laptop")->client_access_point(), "demo").ok());
    scene::Camera cam;
    cam.eye = {0, 0, 3};
    const auto pump = [&grid] { grid.pump_all(); };
    const double start = clock.now();
    while (clock.now() - start < 4.0) {
      cam.orbit(0.1f, 0.0f);
      auto frame = client.request_frame(cam, 64, 48, 10.0, pump);
      EXPECT_TRUE(frame.ok()) << frame.error();
      grid.pump_all();
    }
    result.jsonl = grid.collector()->export_jsonl();
    result.slo = grid.slo_engine()->format_current();
    result.dashboard = grid.telemetry_dashboard();
  }
  obs::set_clock(nullptr);
  return result;
}

TEST(TelemetryGrid, CollectorStoreAndSloAreDeterministicUnderSimClock) {
  // Warmup primes every lazily-registered metric family so both measured
  // runs start from an identical registry shape.
  (void)run_telemetry_grid();
  const GridRunResult first = run_telemetry_grid();
  const GridRunResult second = run_telemetry_grid();

  write_artifact("grid_run.jsonl", first.jsonl);
  write_artifact("grid_run_repeat.jsonl", second.jsonl);
  write_artifact("grid_final_scrape.txt", obs::MetricsRegistry::global().scrape());
  write_artifact("grid_dashboard.txt", first.dashboard);

  ASSERT_FALSE(first.jsonl.empty());
  EXPECT_EQ(first.jsonl, second.jsonl);
  EXPECT_EQ(first.slo, second.slo);
  EXPECT_EQ(first.dashboard, second.dashboard);
  // The collector tagged the render host and picked up its frame family.
  EXPECT_NE(first.jsonl.find("\"host\":\"laptop\""), std::string::npos);
  EXPECT_NE(first.jsonl.find("rave_frame_seconds_bucket"), std::string::npos);
  // The dashboard shows sparklines and objectives.
  EXPECT_NE(first.dashboard.find("frame ms"), std::string::npos) << first.dashboard;
  EXPECT_NE(first.dashboard.find("-- objectives"), std::string::npos) << first.dashboard;
}

TEST(TelemetryGrid, DeadHostLeavesGapWithoutStallingOthers) {
  obs::MetricsRegistry::global().reset_values();
  obs::FlightRecorder::global().clear();
  util::SimClock clock;
  obs::set_clock(&clock);
  {
    RaveGrid grid(clock, net::ethernet_100mbit());
    grid.add_data_service("datahost");
    grid.add_render_service("laptop");
    grid.add_render_service("xeon");
    obs::Collector::Options collect;
    collect.interval = 1.0;
    grid.enable_telemetry(collect);

    for (int i = 0; i < 8; ++i) {
      clock.advance(0.5);
      grid.pump_all();
    }
    uint64_t laptop_scrapes = 0;
    uint64_t xeon_scrapes = 0;
    for (const auto& h : grid.collector()->health()) {
      if (h.host == "laptop") laptop_scrapes = h.scrapes;
      if (h.host == "xeon") xeon_scrapes = h.scrapes;
    }
    EXPECT_GT(laptop_scrapes, 0u);

    // Kill the laptop's SOAP listener: scrapes of it must fail from now
    // on, while the other targets keep collecting.
    grid.fabric().unlisten("laptop/soap");
    for (int i = 0; i < 12; ++i) {
      clock.advance(0.5);
      grid.pump_all();
    }
    for (const auto& h : grid.collector()->health()) {
      if (h.host == "laptop") {
        EXPECT_EQ(h.scrapes, laptop_scrapes);  // no successes after the kill
        EXPECT_GE(h.gaps, 3u);
        EXPECT_FALSE(h.last_error.empty());
      }
      if (h.host == "xeon") {
        EXPECT_GT(h.scrapes, xeon_scrapes);
      }
    }
    // The gap is visible as history and as a structured event, and the
    // target is still subscribed (a recovered host would resume).
    EXPECT_TRUE(
        grid.collector()->store().contains({"laptop", "rave_collector_gaps_total", ""}));
    EXPECT_NE(obs::FlightRecorder::global().dump().find("scrape_gap"), std::string::npos);
    EXPECT_EQ(grid.collector()->target_count(), 3u);
  }
  obs::set_clock(nullptr);
}

// One pull per host per tick: with both planes on, a due tick dials each
// host once and dispatches one status call on its container — the metrics,
// the flight export and the canary verdict ride one snapshot.
TEST(TelemetryGrid, BothPlanesPullOneSnapshotPerHostPerTick) {
  obs::MetricsRegistry::global().reset_values();
  obs::FlightRecorder::global().clear();
  util::SimClock clock;
  obs::set_clock(&clock);
  {
    RaveGrid grid(clock, net::ethernet_100mbit());
    grid.add_data_service("datahost");
    grid.add_render_service("laptop");
    grid.add_render_service("xeon");
    grid.enable_telemetry();
    grid.enable_health_plane();
    const std::vector<std::string> hosts = {"datahost", "laptop", "xeon"};
    grid.pump_all();  // every target is due at once: the first tick

    obs::Counter& dials = obs::MetricsRegistry::global().counter("rave_fabric_dials_total");
    const uint64_t dials_before = dials.value();
    std::vector<uint64_t> calls_before;
    for (const std::string& host : hosts)
      calls_before.push_back(grid.container(host)->stats().calls_served);
    obs::FlightRecorder::global().record_note("test", "recorded before the tick", clock.now());
    clock.advance(grid.collector()->options().interval);
    grid.pump_all();  // exactly one due tick

    EXPECT_EQ(dials.value() - dials_before, hosts.size());
    for (size_t i = 0; i < hosts.size(); ++i)
      EXPECT_EQ(grid.container(hosts[i])->stats().calls_served - calls_before[i], 1u)
          << hosts[i];
    for (const auto& h : grid.collector()->health()) EXPECT_EQ(h.scrapes, 2u) << h.host;
    // The one pull fed both planes: metric history and the timeline.
    EXPECT_TRUE(grid.collector()->store().contains({"laptop", "rave_fabric_dials_total", ""}));
    EXPECT_NE(grid.timeline_text().find("recorded before the tick"), std::string::npos);
  }
  obs::set_clock(nullptr);
}

TEST(TelemetryGrid, AdvisorTriggersRebalanceAndExplainsThroughStatus) {
  obs::MetricsRegistry::global().reset_values();
  obs::FlightRecorder::global().clear();
  util::SimClock clock;
  obs::set_clock(&clock);
  {
    RaveGrid grid(clock, net::ethernet_100mbit());
    DataService& data = grid.add_data_service("datahost");
    scene::SceneTree tree;
    tree.add_child(scene::kRootNode, "a", mesh::make_uv_sphere(0.5f, 24, 18));
    tree.add_child(scene::kRootNode, "b", mesh::make_uv_sphere(0.4f, 20, 16));
    tree.add_child(scene::kRootNode, "c", mesh::make_uv_sphere(0.3f, 16, 12));
    ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
    // Equal profiles so distribution gives BOTH hosts payload nodes: the
    // burning host must hold work for the shed to be observable.
    RenderService::Options options;
    options.profile = sim::centrino_laptop();
    grid.add_render_service("laptop", options);
    grid.add_render_service("helper", options);
    ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());
    ASSERT_TRUE(grid.join("helper", "datahost", "demo").ok());
    ASSERT_TRUE(data.distribute("demo").ok());
    grid.enable_telemetry();
    grid.pump_until_idle();

    // Synthetic telemetry judgement (overrides the SLO-engine advisor
    // enable_telemetry wired in): the laptop's frame p99 is burning.
    // No load report has tripped any EWMA flag, so without the advisor
    // this pump round would plan nothing.
    data.set_advisor([](const std::string& host) {
      std::vector<obs::Advisory> advisories;
      if (host == "laptop")
        advisories.push_back({obs::Advisory::Source::Slo, obs::Advisory::Severity::Critical,
                              "frame_p99 host=laptop: BURNING value=0.08 bound=0.066"});
      return advisories;
    });
    const uint64_t before = data.stats().rebalances;
    clock.advance(1.0);
    grid.pump_all();
    EXPECT_GT(data.stats().rebalances, before);

    const std::string summary = data.last_plan_summary("demo");
    ASSERT_FALSE(summary.empty());
    EXPECT_NE(summary.find("slo-burn"), std::string::npos) << summary;
    EXPECT_NE(summary.find("frame_p99 host=laptop"), std::string::npos) << summary;
    // The same decision is in the flight ring…
    EXPECT_NE(obs::FlightRecorder::global().dump().find("slo-burn"), std::string::npos);
    // …and one status call away: the host status carries the explain and
    // both dashboards render it.
    const auto statuses = grid.collect_status();
    const HostStatus* datahost = nullptr;
    for (const HostStatus& status : statuses)
      if (status.has_data_service) datahost = &status;
    ASSERT_NE(datahost, nullptr);
    EXPECT_NE(datahost->last_migration.find("slo-burn"), std::string::npos);
    EXPECT_NE(format_dashboard(statuses).find("last migration plan:"), std::string::npos);
    EXPECT_NE(grid.telemetry_dashboard().find("-- last migration (datahost)"),
              std::string::npos);
  }
  obs::set_clock(nullptr);
}

// The delivery-observability dashboard lines are data-gated: they render
// only when the scraped series exist. Drive the real pipeline — registry
// families → scrape → collector ingest → format_telemetry_dashboard — so
// the series keys the dashboard looks up are exactly what ingest stores.
TEST(TelemetryDashboard, RendersRelayNetqAndVolumeLines) {
  obs::MetricsRegistry::global().reset_values();
  auto& reg = obs::MetricsRegistry::global();
  util::SimClock clock;
  obs::Collector::Options options;
  options.interval = 1.0;
  obs::Collector collector(clock, options);
  collector.add_target(
      {"edge", [&]() -> util::Result<obs::HostSnapshot> {
        obs::HostSnapshot snapshot;
        snapshot.metrics = reg.scrape();
        return snapshot;
      }});

  // First scrape: the relay cache totals, a standing write-queue depth,
  // and one queue-wait / volume-march observation each.
  reg.counter("rave_fanout_relay_total", {{"result", "hit"}}).inc(30);
  reg.counter("rave_fanout_relay_total", {{"result", "forward"}}).inc(10);
  reg.gauge("rave_net_write_queue_depth").set(3);
  reg.histogram("rave_net_queue_wait_seconds").observe(0.004);
  auto& volume = reg.histogram("rave_volume_seconds", {{"host", "edge"}});
  volume.observe(0.02);
  clock.advance(1.0);
  collector.tick();
  // Second scrape: the deltas the mean/quantile windows need.
  reg.histogram("rave_net_queue_wait_seconds").observe(0.008);
  volume.observe(0.02);
  volume.observe(0.04);
  clock.advance(1.0);
  collector.tick();

  HostStatus host;
  host.host = "edge";
  host.has_render_service = true;
  RenderStatus render;
  render.host = "edge";
  render.bricks_skipped = 77;
  host.renders.push_back(render);

  obs::SloEngine slo;
  const std::string text = format_telemetry_dashboard({host}, collector, slo, clock.now());
  EXPECT_NE(text.find("relay    30/40 misses served locally (75% hit)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("netq     depth 3"), std::string::npos) << text;
  EXPECT_NE(text.find("wait p99(5s)"), std::string::npos) << text;
  // Two frames marched 0.06s between scrapes: a 30.0 ms mean march cost.
  EXPECT_NE(text.find("volume"), std::string::npos) << text;
  EXPECT_NE(text.find("last 30.0 ms"), std::string::npos) << text;
  EXPECT_NE(text.find("bricks-skipped 77"), std::string::npos) << text;
}

}  // namespace
}  // namespace rave::core
