// Workload distribution and migration planning tests — the paper's core
// contribution (§3.2.5, §3.2.7), tested as pure logic.
#include <gtest/gtest.h>

#include "core/capacity.hpp"
#include "core/distribution.hpp"
#include "core/migration.hpp"
#include "mesh/primitives.hpp"

namespace rave::core {
namespace {

RenderCapacity capacity_of(double polys_per_sec, uint64_t texture = 256ull << 20) {
  RenderCapacity cap;
  cap.polygons_per_sec = polys_per_sec;
  cap.texture_mem_bytes = texture;
  return cap;
}

NodeCost cost_of(scene::NodeId id, uint64_t triangles, uint64_t texture = 0) {
  NodeCost cost;
  cost.node = id;
  cost.triangles = triangles;
  cost.texture_bytes = texture;
  return cost;
}

TEST(LoadTracker, EwmaAndHysteresis) {
  LoadTracker tracker({.low_fps = 10, .high_fps = 30, .sustain_seconds = 1.0, .ewma_alpha = 1.0});
  tracker.record_frame(1.0 / 5.0, 0.0);  // 5 fps — below low
  EXPECT_FALSE(tracker.overloaded(0.5));  // not sustained yet
  tracker.record_frame(1.0 / 5.0, 1.2);
  EXPECT_TRUE(tracker.overloaded(1.2));
  // Recovery clears the overload band.
  tracker.record_frame(1.0 / 20.0, 1.3);
  EXPECT_FALSE(tracker.overloaded(3.0));
  // Sustained high fps → underloaded.
  tracker.record_frame(1.0 / 50.0, 2.0);
  tracker.record_frame(1.0 / 50.0, 3.5);
  EXPECT_TRUE(tracker.underloaded(3.5));
}

TEST(LoadTracker, SpikesAreSmoothedOut) {
  // "for a given amount of time, to smooth out spikes of usage" (§3.2.7)
  LoadTracker tracker({.low_fps = 10, .high_fps = 30, .sustain_seconds = 1.0, .ewma_alpha = 0.3});
  for (int i = 0; i < 20; ++i) tracker.record_frame(1.0 / 20.0, i * 0.05);
  // One bad frame must not flip the tracker to overloaded.
  tracker.record_frame(1.0 / 2.0, 1.0);
  EXPECT_GT(tracker.fps(), 10.0);
  EXPECT_FALSE(tracker.overloaded(2.5));
}

TEST(NodeCost, WorkUnitsWeightPayloads) {
  NodeCost tris = cost_of(1, 1000);
  NodeCost points;
  points.points = 1000;
  NodeCost voxels;
  voxels.voxels = 1000;
  EXPECT_GT(tris.work_units(), points.work_units());
  EXPECT_GT(points.work_units(), voxels.work_units());
}

TEST(PayloadCosts, ComputedFromTree) {
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "mesh", mesh::make_uv_sphere(1.0f, 16, 12));
  const auto costs = payload_costs(tree);
  ASSERT_EQ(costs.size(), 1u);
  EXPECT_EQ(costs[0].triangles, 2u * 16u * 11u);
}

TEST(Distribution, SingleServiceTakesAll) {
  const std::vector<NodeCost> nodes{cost_of(2, 1000), cost_of(3, 2000)};
  const std::vector<ServiceSlot> services{{1, capacity_of(1e6)}};
  const DistributionPlan plan = plan_distribution(nodes, services, 15.0);
  ASSERT_TRUE(plan.feasible) << plan.refusal_reason;
  ASSERT_EQ(plan.assignments.size(), 1u);
  EXPECT_EQ(plan.assignments[0].nodes.size(), 2u);
}

TEST(Distribution, SplitsAcrossServicesByCapacity) {
  // 6 nodes of 10k triangles; two services whose budgets hold 3 each at
  // 15 fps (450k polys/sec → 30k/frame).
  std::vector<NodeCost> nodes;
  for (int i = 0; i < 6; ++i) nodes.push_back(cost_of(10 + i, 10'000));
  const std::vector<ServiceSlot> services{{1, capacity_of(450'000)}, {2, capacity_of(450'000)}};
  const DistributionPlan plan = plan_distribution(nodes, services, 15.0);
  ASSERT_TRUE(plan.feasible) << plan.refusal_reason;
  ASSERT_EQ(plan.assignments.size(), 2u);
  EXPECT_EQ(plan.assignments[0].nodes.size(), 3u);
  EXPECT_EQ(plan.assignments[1].nodes.size(), 3u);
}

TEST(Distribution, StrongerServiceGetsMoreWork) {
  std::vector<NodeCost> nodes;
  for (int i = 0; i < 10; ++i) nodes.push_back(cost_of(10 + i, 10'000));
  const std::vector<ServiceSlot> services{{1, capacity_of(1.2e6)}, {2, capacity_of(0.4e6)}};
  const DistributionPlan plan = plan_distribution(nodes, services, 15.0);
  ASSERT_TRUE(plan.feasible);
  const auto* strong = plan.assignment_for(1);
  const auto* weak = plan.assignment_for(2);
  ASSERT_NE(strong, nullptr);
  ASSERT_NE(weak, nullptr);
  EXPECT_GT(strong->nodes.size(), weak->nodes.size());
}

TEST(Distribution, RefusesWithExplanatoryError) {
  // "if insufficient resources are available, the request is refused with
  // an explanatory error message" (§3.2.5).
  const std::vector<NodeCost> nodes{cost_of(2, 10'000'000)};
  const std::vector<ServiceSlot> services{{1, capacity_of(1e6)}};
  const DistributionPlan plan = plan_distribution(nodes, services, 15.0);
  EXPECT_FALSE(plan.feasible);
  EXPECT_NE(plan.refusal_reason.find("insufficient rendering capacity"), std::string::npos);
  EXPECT_NE(plan.refusal_reason.find("triangles"), std::string::npos);
  EXPECT_TRUE(plan.assignments.empty());
}

TEST(Distribution, NoServicesRefused) {
  const DistributionPlan plan = plan_distribution({cost_of(2, 10)}, {}, 15.0);
  EXPECT_FALSE(plan.feasible);
}

TEST(Distribution, TextureMemoryConstraintRespected) {
  // Both nodes fit the polygon budget of service 1 but not its texture
  // memory; the second node must land on service 2.
  const std::vector<NodeCost> nodes{cost_of(2, 1000, 100 << 20), cost_of(3, 1000, 100 << 20)};
  const std::vector<ServiceSlot> services{{1, capacity_of(1e9, 150ull << 20)},
                                          {2, capacity_of(1e9, 150ull << 20)}};
  const DistributionPlan plan = plan_distribution(nodes, services, 15.0);
  ASSERT_TRUE(plan.feasible) << plan.refusal_reason;
  EXPECT_EQ(plan.assignments.size(), 2u);
}

TEST(SelectNodesToMove, CoversDeficitWithoutOvershoot) {
  std::vector<NodeCost> assigned{cost_of(1, 100'000), cost_of(2, 5'000), cost_of(3, 4'000),
                                 cost_of(4, 3'000)};
  // Receiver has room for 10k; deficit is 8k. The 100k node must never be
  // chosen ("we do not want to add 100k polygons by mistake", §3.2.7).
  const auto moved = select_nodes_to_move(assigned, 8'000, 10'000);
  ASSERT_FALSE(moved.empty());
  double total = 0;
  for (const NodeCost& n : moved) {
    EXPECT_NE(n.node, 1u);
    total += n.work_units();
  }
  EXPECT_GE(total, 7'000.0);
  EXPECT_LE(total, 10'000.0);
}

TEST(SelectNodesToMove, EmptyWhenNothingFits) {
  std::vector<NodeCost> assigned{cost_of(1, 100'000)};
  EXPECT_TRUE(select_nodes_to_move(assigned, 8'000, 10'000).empty());
  EXPECT_TRUE(select_nodes_to_move({}, 8'000, 10'000).empty());
}

TEST(PlanTiles, WeightsByFillCapacity) {
  const std::vector<ServiceSlot> services{{1, capacity_of(3e6)}, {2, capacity_of(1e6)}};
  const auto tiles = plan_tiles(100, 100, services);
  ASSERT_EQ(tiles.size(), 2u);
  EXPECT_GT(tiles[0].pixel_count(), tiles[1].pixel_count());
}

ServiceLoadView make_view(uint64_t id, double capacity, std::vector<NodeCost> assigned,
                          bool over = false, bool under = false) {
  ServiceLoadView view;
  view.subscriber_id = id;
  view.capacity = capacity_of(capacity);
  view.assigned = std::move(assigned);
  view.overloaded = over;
  view.underloaded = under;
  return view;
}

TEST(Migration, OverloadedShedsToSpareService) {
  // Service 1 holds 60k of work but only fits 30k/frame; service 2 idles.
  std::vector<NodeCost> heavy;
  for (int i = 0; i < 6; ++i) heavy.push_back(cost_of(10 + i, 10'000));
  auto actions = plan_migration(
      {make_view(1, 450'000, heavy, /*over=*/true), make_view(2, 450'000, {})},
      {.target_fps = 15.0});
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].kind, MigrationAction::Kind::MoveNodes);
  EXPECT_EQ(actions[0].from, 1u);
  EXPECT_EQ(actions[0].to, 2u);
  double moved = 0;
  for (const NodeCost& n : actions[0].nodes) moved += n.work_units();
  EXPECT_GE(moved, 20'000.0);  // roughly the deficit
}

TEST(Migration, NoSpareCapacityTriggersRecruitment) {
  std::vector<NodeCost> heavy{cost_of(2, 50'000), cost_of(3, 50'000)};
  std::vector<NodeCost> also_full{cost_of(4, 28'000)};
  auto actions = plan_migration(
      {make_view(1, 450'000, heavy, /*over=*/true),
       make_view(2, 450'000, also_full, /*over=*/true)},
      {.target_fps = 15.0});
  const bool recruit = std::any_of(actions.begin(), actions.end(), [](const MigrationAction& a) {
    return a.kind == MigrationAction::Kind::RecruitNeeded;
  });
  EXPECT_TRUE(recruit);
}

TEST(Migration, UnderloadedPullsFromMostLoaded) {
  std::vector<NodeCost> busy;
  for (int i = 0; i < 8; ++i) busy.push_back(cost_of(10 + i, 3'000));
  auto actions = plan_migration(
      {make_view(1, 450'000, busy), make_view(2, 450'000, {}, false, /*under=*/true)},
      {.target_fps = 15.0});
  ASSERT_FALSE(actions.empty());
  EXPECT_EQ(actions[0].kind, MigrationAction::Kind::MoveNodes);
  EXPECT_EQ(actions[0].from, 1u);
  EXPECT_EQ(actions[0].to, 2u);
  EXPECT_LT(actions[0].nodes.size(), busy.size());  // balances, not steals all
}

TEST(Migration, UnderloadFillNeverMovesANodeThatWidensTheGap) {
  // Both services idle below their budgets; one holds the only node. Its
  // work (16730) exceeds half the gap, so moving it would only swap which
  // service holds it — and the next round would move it back. The idle
  // service is marked available instead, and the plan moves nothing.
  const std::vector<MigrationAction> actions = plan_migration(
      {make_view(1, 800'000, {}, false, /*under=*/true),
       make_view(2, 2'666'667, {cost_of(7, 16'730)}, false, /*under=*/true)},
      {.target_fps = 15.0});
  bool marked_idle = false;
  for (const MigrationAction& action : actions) {
    EXPECT_NE(action.kind, MigrationAction::Kind::MoveNodes) << "moved node(s) " << action.from
                                                             << " -> " << action.to;
    marked_idle = marked_idle || (action.kind == MigrationAction::Kind::MarkAvailable &&
                                  action.from == 1u);
  }
  EXPECT_TRUE(marked_idle);
}

TEST(Migration, IdleUnderloadedMarkedAvailable) {
  // "If no more nodes can be added, the service is marked as available to
  // support other overloaded services" (§3.2.7).
  auto actions = plan_migration(
      {make_view(1, 450'000, {cost_of(2, 100)}),
       make_view(2, 450'000, {cost_of(3, 100)}, false, /*under=*/true)},
      {.target_fps = 15.0});
  ASSERT_EQ(actions.size(), 1u);
  EXPECT_EQ(actions[0].kind, MigrationAction::Kind::MarkAvailable);
}

TEST(Migration, StableSystemPlansNothing) {
  auto actions = plan_migration(
      {make_view(1, 450'000, {cost_of(2, 10'000)}), make_view(2, 450'000, {cost_of(3, 9'000)})},
      {.target_fps = 15.0});
  EXPECT_TRUE(actions.empty());
}

TEST(Migration, MoveNeverOvershootsReceiverBudget) {
  // Receiver headroom is tiny; the mover must respect it even under a big
  // deficit.
  std::vector<NodeCost> heavy;
  for (int i = 0; i < 10; ++i) heavy.push_back(cost_of(10 + i, 20'000));
  std::vector<NodeCost> nearly_full{cost_of(30, 25'000)};
  auto actions = plan_migration(
      {make_view(1, 450'000, heavy, /*over=*/true), make_view(2, 450'000, nearly_full)},
      {.target_fps = 15.0});
  for (const MigrationAction& action : actions) {
    if (action.kind != MigrationAction::Kind::MoveNodes) continue;
    double moved = 0;
    for (const NodeCost& n : action.nodes) moved += n.work_units();
    EXPECT_LE(moved, (450'000.0 / 15.0 - 25'000.0) + 1.0);
  }
}

TEST(Capacity, SerializationRoundTrip) {
  RenderCapacity cap = RenderCapacity::from_profile(sim::xeon_desktop());
  util::ByteWriter w;
  write_capacity(w, cap);
  util::ByteReader r(w.data());
  const RenderCapacity back = read_capacity(r);
  EXPECT_EQ(back.host, cap.host);
  EXPECT_DOUBLE_EQ(back.polygons_per_sec, cap.polygons_per_sec);
  EXPECT_EQ(back.texture_mem_bytes, cap.texture_mem_bytes);
  EXPECT_EQ(back.hw_volume_rendering, cap.hw_volume_rendering);
}

}  // namespace
}  // namespace rave::core
