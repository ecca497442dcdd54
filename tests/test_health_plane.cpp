// Grid health plane tests: hybrid logical clock semantics, the flight
// export/decode round trip, the collector's cross-host timeline (causal
// merge order, dedup, gap semantics, byte stability under SimClock), the
// blackbox canary state machine against a real grid stream, and the
// canary verdict's round trip through the status "snapshot" SOAP method.
// Everything runs under virtual time.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/grid.hpp"
#include "core/status.hpp"
#include "mesh/primitives.hpp"
#include "obs/canary.hpp"
#include "obs/collector.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hlc.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"

namespace rave::obs {
namespace {

// --- hybrid logical clock ----------------------------------------------------

TEST(Hlc, TickIsValidAtTimeZeroAndStrictlyMonotone) {
  util::SimClock clock;
  Hlc hlc;
  hlc.set_clock(&clock);
  const HlcStamp first = hlc.tick();
  // Even at SimClock t=0 an issued stamp must be distinguishable from the
  // zero (unstamped) value.
  EXPECT_TRUE(first.valid());
  EXPECT_GE(first.logical, 1u);

  HlcStamp prev = first;
  for (int i = 0; i < 5; ++i) {
    const HlcStamp next = hlc.tick();
    EXPECT_TRUE(prev < next) << "tick " << i;
    prev = next;
  }
  // Wall stood still, so logical carried the ordering.
  EXPECT_EQ(prev.wall, first.wall);

  clock.advance(0.5);
  const HlcStamp advanced = hlc.tick();
  EXPECT_GT(advanced.wall, prev.wall);
  EXPECT_EQ(advanced.logical, 1u);  // fresh wall reading resets the tie-breaker
  hlc.set_clock(nullptr);
}

TEST(Hlc, ObserveOrdersReceiveAfterRemoteSend) {
  util::SimClock clock_a;
  util::SimClock clock_b;
  clock_a.advance(10.0);  // A's wall clock runs well ahead of B's
  Hlc a;
  Hlc b;
  a.set_clock(&clock_a);
  b.set_clock(&clock_b);

  const HlcStamp sent = a.tick();
  const HlcStamp received = b.observe(sent);
  // Receive is causally after the send even though B's physical clock is
  // behind: the merged wall never runs backwards past the remote stamp.
  EXPECT_TRUE(sent < received);
  EXPECT_GE(received.wall, sent.wall);
  // And B's subsequent local events stay after the receive.
  EXPECT_TRUE(received < b.tick());
  a.set_clock(nullptr);
  b.set_clock(nullptr);
}

// --- flight export round trip ------------------------------------------------

TEST(Timeline, ExportDecodeRoundTripPreservesMultilineText) {
  FlightRecorder recorder;
  FlightEvent decision;
  decision.kind = FlightEvent::Kind::Decision;
  decision.time = 1.25;
  decision.component = "data";
  decision.text = "recovery for demo\n  input: service 2 failed\n  chosen: move 3 -> 1";
  decision.hlc = {1'250'000, 3};
  recorder.record(decision);
  FlightEvent note;
  note.kind = FlightEvent::Kind::Note;
  note.time = 2.0;
  note.component = "render";
  note.text = "backslash \\ and trailing";
  note.trace_id = 42;
  recorder.record(note);

  const std::vector<FlightEvent> decoded = decode_flight_events(recorder.export_events());
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].kind, FlightEvent::Kind::Decision);
  EXPECT_DOUBLE_EQ(decoded[0].time, 1.25);
  EXPECT_EQ(decoded[0].component, "data");
  EXPECT_EQ(decoded[0].text, decision.text);
  EXPECT_EQ(decoded[0].hlc.wall, 1'250'000u);
  EXPECT_EQ(decoded[0].hlc.logical, 3u);
  EXPECT_EQ(decoded[1].text, note.text);
  EXPECT_EQ(decoded[1].trace_id, 42u);
  EXPECT_FALSE(decoded[1].hlc.valid());  // unstamped events stay unstamped
}

TEST(Timeline, DecodeSkipsMalformedLines) {
  const auto decoded = decode_flight_events("garbage line\n3 0 1 0.5 0 note ok\n9 x\n");
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].component, "note");
  EXPECT_EQ(decoded[0].text, "ok");
}

// --- collector timeline ------------------------------------------------------

// A snapshot carrying only a flight export of `events`.
HostSnapshot snapshot_of(const std::vector<FlightEvent>& events) {
  FlightRecorder recorder;
  for (const FlightEvent& e : events) recorder.record(e);
  HostSnapshot snapshot;
  snapshot.flight = recorder.export_events();
  return snapshot;
}

FlightEvent stamped_note(uint64_t wall, uint32_t logical, const std::string& text,
                         double time = 0) {
  FlightEvent event;
  event.kind = FlightEvent::Kind::Note;
  event.time = time;
  event.component = "test";
  event.text = text;
  event.hlc = {wall, logical};
  return event;
}

TEST(Timeline, MergedOrdersByHlcAcrossHostsAndDedupsSharedRings) {
  util::SimClock clock;
  Collector collector(clock);
  // Host B's wall clock reads *later* recorder times, but its HLC stamps
  // are causally earlier: the merge must follow the stamps.
  const FlightEvent shared = stamped_note(5, 1, "shared", 9.0);
  collector.add_target({"a", [&]() -> util::Result<HostSnapshot> {
    return snapshot_of({stamped_note(20, 1, "a-late", 1.0), shared});
  }});
  collector.add_target({"b", [&]() -> util::Result<HostSnapshot> {
    return snapshot_of({stamped_note(10, 2, "b-early", 8.0), shared});
  }});
  EXPECT_EQ(collector.poll_now(), 2u);

  const std::vector<TimelineEvent> merged = collector.merged();
  ASSERT_EQ(merged.size(), 3u);  // the shared event appears exactly once
  EXPECT_EQ(merged[0].event.text, "shared");
  EXPECT_EQ(merged[0].host, "a");  // dedup keeps the first supplying host
  EXPECT_EQ(merged[1].event.text, "b-early");
  EXPECT_EQ(merged[2].event.text, "a-late");

  const std::string text = format_timeline(merged);
  EXPECT_NE(text.find("b-early"), std::string::npos) << text;
  EXPECT_LT(text.find("b-early"), text.find("a-late")) << text;
}

TEST(Timeline, FailedPullIsAGapThatKeepsPreviousEvents) {
  util::SimClock clock;
  Collector::Options options;
  options.interval = 1.0;
  Collector collector(clock, options);
  bool dead = false;
  collector.add_target({"flaky", [&]() -> util::Result<HostSnapshot> {
    if (dead) return util::make_error("host unreachable");
    return snapshot_of({stamped_note(1, 1, "before the crash")});
  }});

  clock.advance(1.0);
  EXPECT_EQ(collector.tick(), 1u);
  ASSERT_EQ(collector.merged().size(), 1u);

  dead = true;
  const uint64_t gaps_before =
      MetricsRegistry::global().counter("rave_collector_gaps_total", {{"host", "flaky"}}).value();
  clock.advance(1.0);
  EXPECT_EQ(collector.tick(), 1u);
  clock.advance(1.0);
  EXPECT_EQ(collector.tick(), 1u);

  const auto health = collector.health();
  ASSERT_EQ(health.size(), 1u);
  EXPECT_EQ(health[0].scrapes, 1u);
  EXPECT_EQ(health[0].gaps, 2u);
  EXPECT_NE(health[0].last_error.find("unreachable"), std::string::npos);
  EXPECT_EQ(
      MetricsRegistry::global().counter("rave_collector_gaps_total", {{"host", "flaky"}}).value(),
      gaps_before + 2);
  // The last successful pull's events survive the gap — a dead host's
  // history stays in the merged timeline.
  ASSERT_EQ(collector.merged().size(), 1u);
  EXPECT_EQ(collector.merged()[0].event.text, "before the crash");
  EXPECT_EQ(collector.target_count(), 1u);  // still subscribed; recovery resumes
}

}  // namespace
}  // namespace rave::obs

namespace rave::core {
namespace {

// --- canary + status snapshot over a real grid --------------------------------

TEST(HealthPlane, CanaryStateMachineAndHealthSoapRoundTrip) {
  obs::MetricsRegistry::global().reset_values();
  obs::FlightRecorder::global().clear();
  util::SimClock clock;
  obs::set_clock(&clock);
  {
    RaveGrid grid(clock, net::ethernet_100mbit());
    DataService& data = grid.add_data_service("datahost");
    scene::SceneTree tree;
    tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 20, 15));
    ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
    grid.add_render_service("laptop");
    ASSERT_TRUE(grid.join("laptop", "datahost", "demo").ok());
    ASSERT_TRUE(data.distribute("demo").ok());

    obs::Canary::Options options;
    options.frame_timeout = 0.25;
    options.unhealthy_after = 2;
    options.qualities = {compress::QualityClass::Workstation};
    grid.enable_health_plane(options);
    grid.watch_streams("demo");
    ASSERT_EQ(grid.canary()->probe_count(), 1u);

    // Before any probe completes, the host's verdict — and the one its
    // status snapshot reports — is Unknown.
    EXPECT_EQ(grid.canary()->verdict("laptop").state, obs::HealthState::Unknown);

    const auto pump = [&grid] { grid.pump_all(); };
    scene::Camera cam;
    cam.eye = {0, 0, 3};
    // First round subscribes the probe (no frame published yet: strike 1).
    (void)grid.canary()->probe_all(pump);
    EXPECT_EQ(grid.canary()->verdict("laptop").frames_failed, 1u);
    // Publish through the real stream path, then probe: Healthy.
    (void)grid.render_service("laptop")->publish_stream_frame("demo", cam, 96, 72);
    grid.pump_all();
    (void)grid.canary()->probe_all(pump);
    obs::HealthVerdict verdict = grid.canary()->verdict("laptop");
    EXPECT_EQ(verdict.state, obs::HealthState::Healthy);
    EXPECT_GE(verdict.frames_ok, 1u);
    EXPECT_GE(verdict.join_seconds, 0.0);
    EXPECT_GE(verdict.last_frame_age, 0.0);

    // The host's status snapshot serves the same verdict over SOAP.
    services::SoapCall call;
    call.service = "status";
    call.method = "snapshot";
    call.call_id = 1;
    const services::SoapResponse response = grid.container("laptop")->dispatch(call);
    ASSERT_FALSE(response.is_fault) << response.fault_message;
    const auto parsed = parse_status_snapshot(response.result);
    ASSERT_TRUE(parsed.ok()) << parsed.error();
    EXPECT_EQ(parsed.value().health.host, "laptop");
    EXPECT_EQ(parsed.value().health.state, obs::HealthState::Healthy);
    EXPECT_EQ(parsed.value().health.frames_ok, verdict.frames_ok);
    EXPECT_EQ(parsed.value().health.frames_failed, verdict.frames_failed);

    // The stream goes quiet: two consecutive probe timeouts escalate to
    // Unhealthy, and the dashboard shows it.
    (void)grid.canary()->probe_all(pump);
    (void)grid.canary()->probe_all(pump);
    verdict = grid.canary()->verdict("laptop");
    EXPECT_EQ(verdict.state, obs::HealthState::Unhealthy);
    EXPECT_NE(verdict.reason.find("consecutive probe failures"), std::string::npos)
        << verdict.reason;
    EXPECT_NE(grid.status_dashboard().find("unhealthy"), std::string::npos);

    // Recovery: the standing subscription survived the misses, so one
    // fresh frame flips the verdict straight back to Healthy.
    (void)grid.render_service("laptop")->publish_stream_frame("demo", cam, 96, 72);
    grid.pump_all();
    (void)grid.canary()->probe_all(pump);
    EXPECT_EQ(grid.canary()->verdict("laptop").state, obs::HealthState::Healthy);
  }
  obs::set_clock(nullptr);
}

// --- the acceptance scenario: cross-host kill, byte-stable merged timeline ----

// One full failure story under virtual time: two render services share a
// session, one goes silent, its lease expires and the planner re-homes
// its nodes; the collector pulls both hosts' rings (the silent host's pull
// gaps out) and merges the causal order.
std::string run_kill_timeline() {
  obs::MetricsRegistry::global().reset_values();
  obs::FlightRecorder::global().clear();
  obs::Hlc::global().reset();
  obs::Hlc::global().set_enabled(true);
  util::SimClock clock;
  obs::set_clock(&clock);
  std::string text;
  {
    InProcFabric fabric(clock);
    DataService::Options options;
    options.auto_rebalance = false;
    options.lease_seconds = 1.0;
    DataService data(clock, options);
    const std::string ap =
        fabric.listen("datahost/data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); })
            .value();
    scene::SceneTree tree;
    for (int i = 0; i < 4; ++i) {
      scene::MeshData mesh = mesh::make_uv_sphere(0.6f, 16, 12);
      mesh.base_color = {1, 1, 1};
      tree.add_child(scene::kRootNode, "part" + std::to_string(i), std::move(mesh));
    }
    EXPECT_TRUE(data.create_session("demo", std::move(tree)).ok());

    const auto make_render = [&](const std::string& host) {
      RenderService::Options render_options;
      render_options.profile = sim::centrino_laptop();
      render_options.profile.name = host;
      return std::make_unique<RenderService>(clock, fabric, render_options);
    };
    auto live = make_render("live");
    auto hung = make_render("hung");
    (void)live->listen_clients("live/clients");
    (void)hung->listen_clients("hung/clients");
    EXPECT_TRUE(live->connect_session(ap, "demo").ok());
    EXPECT_TRUE(hung->connect_session(ap, "demo").ok());
    const auto pump_both = [&] {
      for (int i = 0; i < 50; ++i)
        if (data.pump() + live->pump() + hung->pump() == 0) break;
    };
    pump_both();
    EXPECT_TRUE(data.distribute("demo").ok());
    pump_both();

    obs::Collector collector(clock);
    bool hung_dead = false;
    const auto ring = []() -> util::Result<obs::HostSnapshot> {
      obs::HostSnapshot snapshot;
      snapshot.flight = obs::FlightRecorder::global().export_events();
      return snapshot;
    };
    collector.add_target({"datahost", ring});
    collector.add_target({"hung", [&]() -> util::Result<obs::HostSnapshot> {
      if (hung_dead) return util::make_error("host unreachable");
      return ring();
    }});
    (void)collector.poll_now();

    // The hung service goes silent past its lease, mid-session; only the
    // live host keeps talking.
    hung_dead = true;
    scene::Camera cam;
    cam.eye = {0, 0, 5};
    clock.advance(1.5);
    (void)live->render_console("demo", cam, 32, 32);  // emits a LoadReport
    (void)live->pump();
    (void)data.pump();
    EXPECT_EQ(data.stats().lease_expiries, 1u);
    EXPECT_FALSE(data.last_failure_plan("demo").empty());

    (void)collector.poll_now();
    text = format_timeline(collector.merged());
  }
  obs::set_clock(nullptr);
  obs::Hlc::global().set_enabled(false);
  obs::Hlc::global().reset();
  return text;
}

TEST(HealthPlane, KillMidSessionTimelineIsCausallyOrderedAndByteStable) {
  const std::string first = run_kill_timeline();
  const std::string second = run_kill_timeline();
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);  // SimClock + HLC → identical merged bytes

  // Causal story reads in order: the lease expiry, then the re-dispatch
  // decision that re-homed the dead service's nodes.
  const size_t expiry = first.find("lease expired");
  const size_t decide = first.find("recovery for demo");
  const size_t chosen = first.find("chosen: move");
  ASSERT_NE(expiry, std::string::npos) << first;
  ASSERT_NE(decide, std::string::npos) << first;
  ASSERT_NE(chosen, std::string::npos) << first;
  EXPECT_LT(expiry, decide) << first;
  EXPECT_LT(decide, chosen) << first;
  // Events merged under HLC stamps show the causal column, not dashes.
  EXPECT_NE(first.find("|"), std::string::npos) << first;
}

}  // namespace
}  // namespace rave::core
