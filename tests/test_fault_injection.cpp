// Fault-tolerance tests (paper §3.2.7: the environment must recover
// rendering capacity automatically when conditions on a remote service
// change). Everything runs under virtual time — no wall-clock sleeps —
// so retry schedules and lease expiries are asserted exactly.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/failure_detector.hpp"
#include "core/migration.hpp"
#include "core/render_service.hpp"
#include "mesh/primitives.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/fault.hpp"

namespace rave::core {
namespace {

using scene::Camera;
using scene::kRootNode;
using scene::SceneTree;

scene::MeshData colored_sphere(const util::Vec3& color, int detail = 16) {
  scene::MeshData mesh = mesh::make_uv_sphere(0.6f, detail, detail * 3 / 4);
  mesh.base_color = color;
  return mesh;
}

// --- RetryPolicy / dial_retry ----------------------------------------------

TEST(RetryPolicy, ScheduleIsPureFunctionOfAttemptIndex) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = 0.05;
  policy.multiplier = 2.0;
  policy.max_backoff = 0.15;
  const auto schedule = policy.schedule();
  ASSERT_EQ(schedule.size(), 3u);  // retries, not attempts
  EXPECT_DOUBLE_EQ(schedule[0], 0.05);
  EXPECT_DOUBLE_EQ(schedule[1], 0.1);
  EXPECT_DOUBLE_EQ(schedule[2], 0.15);  // clamped by max_backoff
  EXPECT_DOUBLE_EQ(policy.total_backoff(), schedule[0] + schedule[1] + schedule[2]);
  EXPECT_TRUE(RetryPolicy{.max_attempts = 1}.schedule().empty());
}

TEST(RetryPolicy, DialRetryFollowsScheduleUnderVirtualTime) {
  util::SimClock clock;
  InProcFabric fabric(clock);
  RetryPolicy policy;
  policy.max_attempts = 4;
  policy.initial_backoff = 0.05;
  policy.multiplier = 2.0;
  policy.max_backoff = 0.15;

  const double start = clock.now();
  auto channel = fabric.dial_retry("inproc:nobody/home", policy, clock);
  ASSERT_FALSE(channel.ok());
  // The virtual clock advanced by exactly the backoff schedule: the
  // policy is deterministic (no jitter) so tests can assert it exactly.
  EXPECT_DOUBLE_EQ(clock.now() - start, policy.total_backoff());
  EXPECT_NE(channel.error().find("failed after 4 attempts"), std::string::npos);
  EXPECT_NE(channel.error().find("no listener"), std::string::npos);
}

TEST(RetryPolicy, DialRetrySucceedsAfterListenerAppears) {
  // The listener comes up between attempts — modelled by an accept hook
  // that counts down dial failures (single-threaded, deterministic).
  util::SimClock clock;
  InProcFabric fabric(clock);
  std::vector<net::ChannelPtr> accepted;  // keep server ends alive
  auto listen =
      fabric.listen("svc", [&](net::ChannelPtr ch) { accepted.push_back(std::move(ch)); });
  ASSERT_TRUE(listen.ok());
  RetryPolicy policy;
  policy.max_attempts = 3;
  auto channel = fabric.dial_retry(listen.value(), policy, clock);
  ASSERT_TRUE(channel.ok());
  EXPECT_TRUE(channel.value()->is_open());
}

// --- FailureDetector ---------------------------------------------------------

TEST(FailureDetector, ExpiryReportedExactlyOnce) {
  FailureDetector detector(/*lease_seconds=*/2.0);
  detector.watch("render-a", 0.0);
  detector.watch("render-b", 0.0);
  EXPECT_EQ(detector.watched_count(), 2u);
  ASSERT_TRUE(detector.heartbeat("render-a", 1.5).ok());

  const auto expired = detector.expired(2.5);  // b silent for 2.5 > 2
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], "render-b");
  EXPECT_TRUE(detector.expired(2.5).empty());  // reported exactly once
  EXPECT_FALSE(detector.watching("render-b"));
  EXPECT_TRUE(detector.watching("render-a"));

  // A heartbeat from the pruned peer is an explanatory error, not a
  // silent resurrection.
  const auto late = detector.heartbeat("render-b", 3.0);
  ASSERT_FALSE(late.ok());
  EXPECT_NE(late.error().find("render-b"), std::string::npos);

  detector.forget("render-a");  // graceful departure: no expiry reported
  EXPECT_TRUE(detector.expired(100.0).empty());
}

// --- fault-injected channels --------------------------------------------------

TEST(FaultChannel, KillSwitchClosesBothDirections) {
  auto [client, server] = net::make_channel_pair();
  auto ks = std::make_shared<sim::KillSwitch>();
  net::ChannelPtr faulty = sim::wrap_faulty(client, ks);
  ASSERT_TRUE(faulty->send(net::Message{1, {1, 2, 3}}).ok());
  ASSERT_TRUE(server->try_receive().has_value());

  ks->kill();
  EXPECT_FALSE(faulty->is_open());
  EXPECT_FALSE(server->is_open());  // the peer observes the crash too
  const auto refused = faulty->send(net::Message{1, {}});
  ASSERT_FALSE(refused.ok());
  EXPECT_NE(refused.error().find("dead"), std::string::npos);
}

TEST(FaultChannel, PlanDropsAndByteBudget) {
  auto [client, server] = net::make_channel_pair();
  sim::FaultPlan plan;
  plan.drop_every_n = 2;  // every second message is lost in transit
  net::ChannelPtr lossy = sim::wrap_faulty(client, nullptr, plan);
  for (int i = 0; i < 6; ++i) ASSERT_TRUE(lossy->send(net::Message{1, {0}}).ok());
  int delivered = 0;
  while (server->try_receive().has_value()) ++delivered;
  EXPECT_EQ(delivered, 3);

  auto [c2, s2] = net::make_channel_pair();
  sim::FaultPlan budget;
  budget.fail_after_bytes = 7;  // exactly one 7-byte frame, then the link dies
  net::ChannelPtr dying = sim::wrap_faulty(c2, nullptr, budget);
  ASSERT_TRUE(dying->send(net::Message{1, {9}}).ok());
  EXPECT_FALSE(dying->is_open());
  EXPECT_FALSE(dying->send(net::Message{1, {9}}).ok());
}

TEST(FaultChannel, ReceiveResultExplainsTimeoutVsClosed) {
  auto [client, server] = net::make_channel_pair();
  const auto timed_out = client->receive_result(0.0);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_NE(timed_out.error().find("timed out"), std::string::npos);
  server->close();
  const auto closed = client->receive_result(0.0);
  ASSERT_FALSE(closed.ok());
  EXPECT_NE(closed.error().find("closed by peer"), std::string::npos);
}

// --- migration planning with the ServiceFailed input ---------------------------

ServiceLoadView make_view(uint64_t id, double polys_per_sec,
                          std::vector<NodeCost> assigned, bool failed = false) {
  ServiceLoadView view;
  view.subscriber_id = id;
  view.capacity.polygons_per_sec = polys_per_sec;
  view.assigned = std::move(assigned);
  view.failed = failed;
  return view;
}

TEST(MigrationPlan, FailedServiceReassignedToSurvivors) {
  // Service 2 died holding three nodes; 1 and 3 survive with headroom.
  const std::vector<NodeCost> stranded = {
      {10, 9000, 0, 0, 0}, {11, 5000, 0, 0, 0}, {12, 1000, 0, 0, 0}};
  auto plan = plan_migration({make_view(1, 15e4, {}),
                              make_view(2, 15e4, stranded, /*failed=*/true),
                              make_view(3, 15e4, {})},
                             {.target_fps = 15.0});
  std::set<scene::NodeId> reassigned;
  for (const auto& action : plan) {
    ASSERT_EQ(action.kind, MigrationAction::Kind::MoveNodes);
    EXPECT_EQ(action.from, 2u);
    EXPECT_TRUE(action.to == 1u || action.to == 3u);
    for (const auto& n : action.nodes) reassigned.insert(n.node);
  }
  EXPECT_EQ(reassigned, (std::set<scene::NodeId>{10, 11, 12}));
}

TEST(MigrationPlan, FailedServiceWithNoSurvivorsRequestsRecruitment) {
  const std::vector<NodeCost> stranded = {{10, 9000, 0, 0, 0}};
  auto plan = plan_migration({make_view(2, 15e4, stranded, /*failed=*/true)},
                             {.target_fps = 15.0});
  ASSERT_EQ(plan.size(), 1u);
  EXPECT_EQ(plan[0].kind, MigrationAction::Kind::RecruitNeeded);
  EXPECT_EQ(plan[0].from, 2u);
  ASSERT_EQ(plan[0].nodes.size(), 1u);  // the stranded set rides along
  EXPECT_EQ(plan[0].nodes[0].node, 10u);
}

// --- registry leases ----------------------------------------------------------

TEST(RegistryLease, SilentAdvertisementExpiresRenewedOneSurvives) {
  util::SimClock clock;
  InProcFabric fabric(clock);
  services::UddiRegistry registry;
  registry.set_default_lease(5.0);

  RenderService::Options quiet_opts;
  quiet_opts.profile.name = "quiet";
  RenderService quiet(clock, fabric, quiet_opts);
  RenderService::Options chatty_opts;
  chatty_opts.profile.name = "chatty";
  RenderService chatty(clock, fabric, chatty_opts);
  ASSERT_TRUE(quiet.advertise(registry, "inproc:quiet/soap").ok());
  ASSERT_TRUE(chatty.advertise(registry, "inproc:chatty/soap").ok());

  const std::string tmodel = registry.register_tmodel(services::render_service_descriptor());
  ASSERT_EQ(registry.access_points(tmodel).size(), 2u);

  // Only chatty heartbeats; quiet goes silent.
  clock.advance(4.0);
  ASSERT_TRUE(chatty.renew_advertisements(registry).ok());
  clock.advance(3.0);  // quiet silent for 7 s > 5 s lease; chatty for 3 s
  const auto pruned = registry.prune_expired(clock.now());
  ASSERT_EQ(pruned.size(), 1u);
  EXPECT_EQ(pruned[0].access_point, "inproc:quiet/soap");
  ASSERT_EQ(registry.access_points(tmodel).size(), 1u);
  EXPECT_EQ(registry.access_points(tmodel)[0].access_point, "inproc:chatty/soap");

  // Renewing the pruned advertisement is an explanatory error telling the
  // service to re-register.
  const auto stale = quiet.renew_advertisements(registry);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.error().find("re-register"), std::string::npos);
  // Re-advertising brings it back with a fresh lease.
  ASSERT_TRUE(quiet.advertise(registry, "inproc:quiet/soap").ok());
  EXPECT_EQ(registry.access_points(tmodel).size(), 2u);
  EXPECT_TRUE(registry.prune_expired(clock.now()).empty());
}

// --- end-to-end service failure ------------------------------------------------

class FaultFixture : public testing::Test {
 protected:
  FaultFixture() : fabric_(clock_), data_(clock_, data_options()) {
    obs::FlightRecorder::global().clear();  // isolate per-test dumps
    data_ap_ = fabric_
                   .listen("datahost/data",
                           [this](net::ChannelPtr ch) { data_.accept(std::move(ch)); })
                   .value();
  }

  static DataService::Options data_options() {
    DataService::Options options;
    options.auto_rebalance = false;
    return options;
  }

  RenderService& add_render(const std::string& host, RenderService::Options options = {}) {
    options.profile = sim::centrino_laptop();
    options.profile.name = host;
    options.profile.tri_rate = 10e6;
    auto service = std::make_unique<RenderService>(clock_, fabric_, options);
    (void)service->listen_clients(host + "/clients");
    (void)service->listen_peer(host + "/peer");
    renders_.push_back(std::move(service));
    return *renders_.back();
  }

  // Route a named listener's future inbound connections through `ks` so a
  // single kill() severs them all — what a process crash looks like.
  void arm_kill(const std::string& listener, const sim::KillSwitchPtr& ks) {
    fabric_.set_fault(listener, [ks](net::ChannelPtr ch) {
      return sim::wrap_faulty(std::move(ch), ks);
    });
  }
  void disarm(const std::string& listener) { fabric_.set_fault(listener, nullptr); }

  void pump_all(int rounds = 80) {
    for (int i = 0; i < rounds; ++i) {
      size_t handled = data_.pump();
      for (auto& r : renders_) handled += r->pump();
      if (handled == 0) return;
    }
  }

  util::SimClock clock_;
  InProcFabric fabric_;
  DataService data_;
  std::string data_ap_;
  std::vector<std::unique_ptr<RenderService>> renders_;
};

// The acceptance scenario: three subscribed render services share a
// distributed session; one is killed mid-frame. The frame still
// completes via re-dispatch, byte-identical to the pre-distribution
// reference, and the data service emits a migration plan reassigning
// exactly the dead service's node set.
TEST_F(FaultFixture, KilledServiceMidFrameRedispatchesAndFrameCompletes) {
  SceneTree tree;
  for (int i = 0; i < 6; ++i) {
    const float x = -2.0f + 0.8f * static_cast<float>(i);
    tree.add_child(kRootNode, "part" + std::to_string(i),
                   colored_sphere({0.2f + 0.1f * static_cast<float>(i), 0.5f, 0.9f}),
                   util::Mat4::translate({x, 0, 0}));
  }
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());

  RenderService& main = add_render("main");
  RenderService& victim = add_render("victim");
  RenderService& helper = add_render("helper");

  // Everything the victim dials goes through one kill switch: its data
  // subscription and (below) the tile channel main opens to it.
  auto ks = std::make_shared<sim::KillSwitch>();
  arm_kill("datahost/data", ks);
  ASSERT_TRUE(victim.connect_session(data_ap_, "demo").ok());
  disarm("datahost/data");
  ASSERT_TRUE(main.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(helper.connect_session(data_ap_, "demo").ok());
  pump_all();
  ASSERT_TRUE(main.bootstrapped("demo"));

  // Reference frame from the still-whole-tree replica: the recovered
  // composite must reproduce it byte-for-byte.
  Camera cam;
  cam.eye = {0, 0, 5};
  auto reference = main.render_console("demo", cam, 96, 96);
  ASSERT_TRUE(reference.ok());

  ASSERT_TRUE(data_.distribute("demo").ok());
  pump_all();

  uint64_t victim_id = 0;
  std::set<scene::NodeId> victim_nodes;
  for (const auto& view : data_.subscribers("demo")) {
    if (view.host != "victim") continue;
    victim_id = view.id;
    victim_nodes.insert(view.interest.begin(), view.interest.end());
  }
  ASSERT_NE(victim_id, 0u);
  ASSERT_FALSE(victim_nodes.empty()) << "distribution left the victim idle";

  arm_kill("victim/peer", ks);
  ASSERT_TRUE(main.enable_subset_compositing(
                      "demo", {victim.peer_access_point(), helper.peer_access_point()})
                  .ok());
  // Healthy composite first: peer subsets merge back into the reference.
  (void)main.render_distributed("demo", cam, 96, 96);
  pump_all();
  auto healthy = main.render_distributed("demo", cam, 96, 96);
  ASSERT_TRUE(healthy.ok());
  EXPECT_EQ(healthy.value().color(), reference.value().color());

  // Mid-frame crash: requests for the next frame are already in flight
  // when every one of the victim's channels drops.
  (void)main.render_distributed("demo", cam, 96, 96);
  ks->kill();
  pump_all();

  // The data service re-dispatched the dead service's nodes: the failure
  // plan moves exactly the victim's set, only to survivors.
  const auto plan = data_.last_failure_plan("demo");
  ASSERT_FALSE(plan.empty());
  std::set<scene::NodeId> reassigned;
  for (const auto& action : plan) {
    EXPECT_EQ(action.kind, MigrationAction::Kind::MoveNodes);
    EXPECT_EQ(action.from, victim_id);
    EXPECT_NE(action.to, victim_id);
    for (const auto& n : action.nodes) reassigned.insert(n.node);
  }
  EXPECT_EQ(reassigned, victim_nodes);
  EXPECT_EQ(data_.subscribers("demo").size(), 2u);  // victim dropped

  // The survivors now cover the whole scene between them, so the next
  // composite completes the frame byte-identically to the reference.
  pump_all();
  (void)main.render_distributed("demo", cam, 96, 96);
  pump_all();
  auto recovered = main.render_distributed("demo", cam, 96, 96);
  ASSERT_TRUE(recovered.ok());
  EXPECT_EQ(recovered.value().color(), reference.value().color());
  EXPECT_GE(main.stats().peer_failures, 1u);

  // The kill left a post-mortem in the flight recorder: the failure event,
  // the capacity snapshot the planner saw, and the re-dispatch it chose.
  const std::string dump = obs::FlightRecorder::global().last_dump();
  EXPECT_NE(dump.find("FAIL"), std::string::npos) << dump;
  EXPECT_NE(dump.find("channel closed"), std::string::npos) << dump;
  EXPECT_NE(dump.find("DECIDE"), std::string::npos) << dump;
  EXPECT_NE(dump.find("recovery for demo"), std::string::npos) << dump;
  EXPECT_NE(dump.find("input: service"), std::string::npos) << dump;
  EXPECT_NE(dump.find("chosen: move"), std::string::npos) << dump;
  EXPECT_EQ(data_.stats().recoveries, 1u);
}

TEST_F(FaultFixture, SilentSubscriberLeaseExpiresAndNodesReassigned) {
  // A hung service: its channel stays open but it stops sending. Data-
  // plane lease expiry declares it failed and re-dispatches its nodes.
  SceneTree tree;
  for (int i = 0; i < 4; ++i)
    tree.add_child(kRootNode, "part" + std::to_string(i), colored_sphere({1, 1, 1}, 20));
  DataService::Options options;
  options.auto_rebalance = false;
  options.lease_seconds = 1.0;
  DataService data(clock_, options);
  const std::string ap =
      fabric_.listen("leasehost/data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); })
          .value();
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());

  RenderService& live = add_render("live");
  RenderService& hung = add_render("hung");
  ASSERT_TRUE(live.connect_session(ap, "demo").ok());
  ASSERT_TRUE(hung.connect_session(ap, "demo").ok());
  for (int i = 0; i < 50; ++i) {
    size_t handled = data.pump() + live.pump() + hung.pump();
    if (handled == 0) break;
  }
  ASSERT_TRUE(data.distribute("demo").ok());
  for (int i = 0; i < 50; ++i) {
    size_t handled = data.pump() + live.pump() + hung.pump();
    if (handled == 0) break;
  }

  uint64_t hung_id = 0;
  std::set<scene::NodeId> hung_nodes;
  for (const auto& view : data.subscribers("demo")) {
    if (view.host != "hung") continue;
    hung_id = view.id;
    hung_nodes.insert(view.interest.begin(), view.interest.end());
  }
  ASSERT_FALSE(hung_nodes.empty());

  // `live` keeps talking (load reports from rendering); `hung` says
  // nothing for longer than the lease. Note: only `hung`'s pump is
  // withheld — its channel remains open the whole time.
  Camera cam;
  cam.eye = {0, 0, 5};
  clock_.advance(1.5);
  (void)live.render_console("demo", cam, 32, 32);  // emits a LoadReport
  (void)live.pump();
  (void)data.pump();

  const auto plan = data.last_failure_plan("demo");
  ASSERT_FALSE(plan.empty());
  std::set<scene::NodeId> reassigned;
  for (const auto& action : plan) {
    EXPECT_EQ(action.kind, MigrationAction::Kind::MoveNodes);
    EXPECT_EQ(action.from, hung_id);
    for (const auto& n : action.nodes) reassigned.insert(n.node);
  }
  EXPECT_EQ(reassigned, hung_nodes);
  const auto views = data.subscribers("demo");
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].host, "live");

  // Lease expiry is a failure-detector event: counted, and dumped with
  // the migration decision that re-homed the hung service's nodes.
  EXPECT_EQ(data.stats().lease_expiries, 1u);
  const std::string dump = obs::FlightRecorder::global().last_dump();
  EXPECT_NE(dump.find("lease expired"), std::string::npos) << dump;
  EXPECT_NE(dump.find("DECIDE"), std::string::npos) << dump;
  EXPECT_NE(dump.find("input: service"), std::string::npos) << dump;
  EXPECT_NE(dump.find("chosen: move"), std::string::npos) << dump;
}

TEST_F(FaultFixture, CanaryVerdictEvictsBeforeLeaseExpiry) {
  // The health plane's fast path: an Unhealthy canary verdict condemns a
  // subscriber, so eviction and re-dispatch fire on the next detector
  // round — long before the lease would lapse on its own.
  SceneTree tree;
  for (int i = 0; i < 4; ++i)
    tree.add_child(kRootNode, "part" + std::to_string(i), colored_sphere({1, 1, 1}, 20));
  DataService::Options options;
  options.auto_rebalance = false;
  options.lease_seconds = 10.0;  // generous lease: eviction must beat it
  DataService data(clock_, options);
  const std::string ap =
      fabric_.listen("leasehost/data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); })
          .value();
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());

  RenderService& live = add_render("live");
  RenderService& hung = add_render("hung");
  ASSERT_TRUE(live.connect_session(ap, "demo").ok());
  ASSERT_TRUE(hung.connect_session(ap, "demo").ok());
  for (int i = 0; i < 50; ++i) {
    size_t handled = data.pump() + live.pump() + hung.pump();
    if (handled == 0) break;
  }
  ASSERT_TRUE(data.distribute("demo").ok());
  for (int i = 0; i < 50; ++i) {
    size_t handled = data.pump() + live.pump() + hung.pump();
    if (handled == 0) break;
  }

  uint64_t hung_id = 0;
  std::set<scene::NodeId> hung_nodes;
  for (const auto& view : data.subscribers("demo")) {
    if (view.host != "hung") continue;
    hung_id = view.id;
    hung_nodes.insert(view.interest.begin(), view.interest.end());
  }
  ASSERT_FALSE(hung_nodes.empty());

  // The blackbox canary declares `hung` Unhealthy (stand-in for two
  // consecutive failed stream probes); everyone else looks fine.
  data.set_advisor([](const std::string& host) {
    obs::HealthVerdict verdict;
    verdict.host = host;
    if (host == "hung") {
      verdict.state = obs::HealthState::Unhealthy;
      verdict.reason = "2 consecutive probe failures, last: frame stream: timed out";
    } else {
      verdict.state = obs::HealthState::Healthy;
    }
    std::vector<obs::Advisory> advisories;
    if (auto canary = obs::advisory_of(verdict)) advisories.push_back(std::move(*canary));
    return advisories;
  });

  Camera cam;
  cam.eye = {0, 0, 5};
  clock_.advance(0.5);  // a twentieth of the lease
  (void)live.render_console("demo", cam, 32, 32);  // emits a LoadReport
  (void)live.pump();
  (void)data.pump();

  // Evicted by verdict, not by lease: the lease counter never moved.
  EXPECT_EQ(data.stats().canary_evictions, 1u);
  EXPECT_EQ(data.stats().lease_expiries, 0u);

  const auto plan = data.last_failure_plan("demo");
  ASSERT_FALSE(plan.empty());
  std::set<scene::NodeId> reassigned;
  for (const auto& action : plan) {
    EXPECT_EQ(action.kind, MigrationAction::Kind::MoveNodes);
    EXPECT_EQ(action.from, hung_id);
    for (const auto& n : action.nodes) reassigned.insert(n.node);
  }
  EXPECT_EQ(reassigned, hung_nodes);
  const auto views = data.subscribers("demo");
  ASSERT_EQ(views.size(), 1u);
  EXPECT_EQ(views[0].host, "live");

  const std::string dump = obs::FlightRecorder::global().last_dump();
  EXPECT_NE(dump.find("evicted by canary verdict"), std::string::npos) << dump;
  EXPECT_NE(dump.find("chosen: move"), std::string::npos) << dump;
}

TEST_F(FaultFixture, TileTimeoutAbandonsStalledAssistant) {
  SceneTree tree;
  tree.add_child(kRootNode, "ball", colored_sphere({0.9f, 0.6f, 0.1f}, 24));
  ASSERT_TRUE(data_.create_session("demo", std::move(tree)).ok());

  RenderService::Options impatient;
  impatient.tile_timeout = 1.0;
  RenderService& main = add_render("main", impatient);
  RenderService& helper = add_render("helper");
  ASSERT_TRUE(main.connect_session(data_ap_, "demo").ok());
  ASSERT_TRUE(helper.connect_session(data_ap_, "demo").ok());
  pump_all();
  ASSERT_TRUE(main.enable_tile_assist("demo", {helper.peer_access_point()}).ok());
  helper.set_assist_stall(30.0);  // effectively hung, channel stays open

  Camera cam;
  cam.eye = {0, 0, 3};
  auto reference = main.render_console("demo", cam, 64, 64);
  ASSERT_TRUE(reference.ok());

  (void)main.render_distributed("demo", cam, 64, 64);  // dispatch, awaiting
  pump_all();
  clock_.advance(2.0);  // past tile_timeout, well before the stalled reply
  auto frame = main.render_distributed("demo", cam, 64, 64);
  ASSERT_TRUE(frame.ok());
  // The assistant was abandoned and its tile re-dispatched to the local
  // renderer: the frame is complete and byte-identical.
  EXPECT_EQ(frame.value().color(), reference.value().color());
  EXPECT_EQ(main.stats().peer_failures, 1u);
  EXPECT_EQ(main.stats().tiles_redispatched, 1u);
}

// --- fabric race regression (run under -DRAVE_SANITIZE=thread, label tsan) -----

TEST(FabricRace, UnlistenWaitsForInFlightDials) {
  // Regression: unlisten() used to erase the listener while a concurrent
  // dial could still be invoking its AcceptFn — a use-after-free of
  // whatever the callback captured. unlisten must drain in-flight dials.
  util::SimClock clock;
  InProcFabric fabric(clock);
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> sink{0};

  std::vector<std::thread> dialers;
  dialers.reserve(4);
  for (int t = 0; t < 4; ++t)
    dialers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) (void)fabric.dial("inproc:svc");
    });

  for (int round = 0; round < 200; ++round) {
    // The callback owns heap state; destroying it while a dial still runs
    // the callback is exactly the race tsan flags.
    auto owned = std::make_shared<uint64_t>(static_cast<uint64_t>(round));
    auto listen = fabric.listen("svc", [owned, &sink](net::ChannelPtr channel) {
      sink.fetch_add(*owned, std::memory_order_relaxed);
      channel->close();
    });
    ASSERT_TRUE(listen.ok());
    fabric.unlisten("svc");
  }
  stop.store(true);
  for (auto& thread : dialers) thread.join();
  SUCCEED() << "accepted work total " << sink.load();
}

}  // namespace
}  // namespace rave::core
