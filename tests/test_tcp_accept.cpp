// Accepts over TcpFabric arrive on the reactor's event-loop thread while
// the services pump on their own thread. Every accept site (render clients,
// render peers, data-service subscribers) must hand its channel over under
// a lock rather than append to a list the pump is iterating. Run under
// -DRAVE_SANITIZE=thread (`ctest -L tsan`) to check the hand-off; in a plain
// build the test still checks that every dialed channel joins and is served.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/protocol.hpp"
#include "core/render_service.hpp"
#include "core/thin_client.hpp"
#include "mesh/primitives.hpp"

namespace rave::core {
namespace {

TEST(TcpAccept, ChannelsDialedWhileServicesPumpJoinAndAreServed) {
  util::RealClock clock;
  TcpFabric fabric;

  DataService data(clock);
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ball", mesh::make_uv_sphere(0.5f, 8, 6));
  ASSERT_TRUE(data.create_session("demo", std::move(tree)).ok());
  auto data_ap = fabric.listen("data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); });
  ASSERT_TRUE(data_ap.ok()) << data_ap.error();

  RenderService render(clock, fabric);
  auto client_ap = render.listen_clients("clients");
  ASSERT_TRUE(client_ap.ok()) << client_ap.error();
  auto peer_ap = render.listen_peer("peers");
  ASSERT_TRUE(peer_ap.ok()) << peer_ap.error();

  // Bootstrap on this thread before the pump thread starts: connect_session
  // and bootstrapped() are pump-thread calls. The data service's accept
  // still lands on the event loop while this thread pumps.
  ASSERT_TRUE(render.connect_session(data_ap.value(), "demo").ok());
  for (int i = 0; i < 10000 && !render.bootstrapped("demo"); ++i) {
    if (data.pump() + render.pump() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(render.bootstrapped("demo"));

  // One thread pumps both services flat out, so every accept below lands
  // while a pump is walking the lists the channel joins.
  std::atomic<bool> running{true};
  std::thread pump_thread([&] {
    while (running.load()) {
      if (data.pump() + render.pump() == 0) std::this_thread::yield();
    }
  });

  // Data-service accept: a subscriber for an unknown session is refused,
  // which proves the channel joined the pending list and was pumped.
  auto subscriber = fabric.dial(data_ap.value());
  ASSERT_TRUE(subscriber.ok()) << subscriber.error();
  SubscribeRequest request;
  request.session = "nosuch";
  ASSERT_TRUE(subscriber.value()->send(encode(request)).ok());

  // Render-client accepts.
  constexpr int kClients = 4;
  std::vector<std::unique_ptr<ThinClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<ThinClient>(clock, fabric));
    ASSERT_TRUE(clients.back()->connect(client_ap.value(), "demo").ok());
  }
  // Render-peer accept.
  auto peer = fabric.dial(peer_ap.value());
  ASSERT_TRUE(peer.ok()) << peer.error();

  scene::Camera cam;
  cam.eye = {0, 0, 3};
  for (auto& client : clients) {
    auto frame = client->request_frame(cam, 32, 32, 10.0);
    ASSERT_TRUE(frame.ok()) << frame.error();
    EXPECT_EQ(frame.value().width, 32);
  }

  TileAssignMsg assign;
  assign.session = "demo";
  assign.camera = cam;
  assign.tile = {0, 0, 16, 16};
  assign.frame_width = 32;
  assign.frame_height = 32;
  assign.generation = 7;
  ASSERT_TRUE(peer.value()->send(encode(assign)).ok());
  auto reply = peer.value()->receive_result(10.0);
  ASSERT_TRUE(reply.ok()) << reply.error();
  auto result = decode_tile_result(reply.value());
  ASSERT_TRUE(result.ok()) << result.error();
  EXPECT_EQ(result.value().generation, 7u);
  EXPECT_EQ(result.value().tile.width, 16);

  auto refusal = subscriber.value()->receive_result(10.0);
  ASSERT_TRUE(refusal.ok()) << refusal.error();
  auto refused = decode_refusal(refusal.value());
  ASSERT_TRUE(refused.ok()) << refused.error();
  EXPECT_NE(refused.value().reason.find("no such session"), std::string::npos);

  running = false;
  pump_thread.join();
  peer.value()->close();
  subscriber.value()->close();
}

}  // namespace
}  // namespace rave::core
