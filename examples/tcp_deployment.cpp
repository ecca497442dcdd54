// Real-socket deployment: the same services that run in-process everywhere
// else here run over loopback TCP — data service, render service and thin
// client in separate threads, discovery metadata carried as real
// "tcp:127.0.0.1:<port>" access points. Demonstrates that the transport
// abstraction (paper §4.3's socket layer) is not simulation-only.
#include <atomic>
#include <cstdio>
#include <thread>

#include "core/data_service.hpp"
#include "core/fabric.hpp"
#include "core/render_service.hpp"
#include "core/thin_client.hpp"
#include "mesh/generators.hpp"
#include "render/framebuffer.hpp"

#include "example_util.hpp"

using namespace rave;

int main() {
  util::RealClock clock;
  core::TcpFabric fabric;

  // --- data service -----------------------------------------------------------
  core::DataService data(clock);
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "ship", mesh::make_galleon());
  if (!data.create_session("demo", std::move(tree)).ok()) return 1;
  auto data_ap = fabric.listen("data", [&](net::ChannelPtr ch) { data.accept(std::move(ch)); });
  if (!data_ap.ok()) {
    std::printf("listen failed: %s\n", data_ap.error().c_str());
    return 1;
  }
  std::printf("data service listening at %s\n", data_ap.value().c_str());

  // --- render service ----------------------------------------------------------
  core::RenderService render(clock, fabric);
  auto client_ap = render.listen_clients("render-clients");
  if (!client_ap.ok()) return 1;
  std::printf("render service client endpoint %s\n", client_ap.value().c_str());

  // Subscribe over TCP and pump both services here until the bootstrap
  // snapshot lands. Everything read from the services happens before the
  // pump threads start; after that only those threads touch them.
  if (!render.connect_session(data_ap.value(), "demo").ok()) return 1;
  for (int i = 0; i < 2000 && !render.bootstrapped("demo"); ++i) {
    if (data.pump() + render.pump() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (!render.bootstrapped("demo")) {
    std::printf("bootstrap over TCP failed\n");
    return 1;
  }
  const scene::SceneTree& replica = *render.replica("demo");
  std::printf("render service bootstrapped over TCP (%llu scene nodes)\n",
              static_cast<unsigned long long>(replica.node_count()));
  const scene::Camera cam = scene::Camera::framing(replica.world_bounds());
  const scene::NodeId ship = replica.find_by_name("ship");

  // --- thin client --------------------------------------------------------------
  core::ThinClient client(clock, fabric);
  if (!client.connect(client_ap.value(), "demo").ok()) return 1;

  std::atomic<bool> running{true};
  std::atomic<uint64_t> committed{0};  // written by data_thread only
  std::thread data_thread([&] {
    while (running.load()) {
      const size_t handled = data.pump();
      committed.store(data.committed_updates("demo"));
      if (handled == 0) std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });
  std::thread render_thread([&] {
    while (running.load()) {
      if (render.pump() == 0) std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  int frames_ok = 0;
  for (int i = 0; i < 3; ++i) {
    auto frame = client.request_frame(cam, 200, 200, 5.0);
    if (!frame.ok()) {
      std::printf("frame %d failed: %s\n", i, frame.error().c_str());
      break;
    }
    ++frames_ok;
    std::printf("frame %d: %llu bytes over TCP, %.1f ms round trip\n", i,
                static_cast<unsigned long long>(client.last_stats().image_bytes),
                client.last_stats().total_latency * 1000.0);
  }
  if (frames_ok > 0) {
    auto last = client.request_frame(cam, 200, 200, 5.0);
    if (last.ok()) (void)render::write_ppm(last.value(), examples::out_path("tcp_deployment.ppm"));
  }

  // A collaborative edit over the same sockets.
  (void)client.send_update(
      scene::SceneUpdate::set_transform(ship, util::Mat4::rotate_y(0.5f)));
  for (int i = 0; i < 500 && committed.load() == 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::printf("edit committed over TCP: %llu update(s) at the data service\n",
              static_cast<unsigned long long>(committed.load()));

  running = false;
  data_thread.join();
  render_thread.join();
  std::printf("%s\n", frames_ok == 3 ? "TCP deployment OK -> bench_output/tcp_deployment.ppm"
                                     : "TCP deployment incomplete");
  return frames_ok == 3 ? 0 : 1;
}
