// PDA thin client (paper §3.1.3 / §5.1): full discovery flow — find the
// render service through the UDDI registry, obtain its client endpoint via
// SOAP, then pull frames over a simulated 11 Mbit/s wireless link as
// tiled stream frames (RLE tiles, unchanged tiles as refs). Prints the
// per-frame latency breakdown Table 2 reports.
#include <cstdio>

#include "core/grid.hpp"
#include "render/framebuffer.hpp"
#include "mesh/generators.hpp"

#include "example_util.hpp"

using namespace rave;

int main() {
  util::SimClock clock;
  core::RaveGrid grid(clock, net::ethernet_100mbit());

  // Server side: data service + render service, advertised in UDDI.
  core::DataService& data = grid.add_data_service("datahost");
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "hand", mesh::make_skeletal_hand(40'000));
  if (!data.create_session("hand", std::move(tree)).ok()) return 1;
  core::RenderService::Options render_options;
  render_options.profile = sim::centrino_laptop();
  render_options.simulate_timing = true;
  grid.add_render_service("laptop", render_options);
  if (!grid.join("laptop", "datahost", "hand").ok()) return 1;
  grid.advertise_all();
  // The PDA reaches the laptop over shared wireless.
  grid.fabric().set_link("laptop/clients", net::wireless_11mbit());

  // 1. Discovery: scan the registry for render services (the UDDI scan).
  const auto tmodel = grid.registry().find_tmodel_by_name("RaveRenderService");
  if (!tmodel.has_value()) return 1;
  const auto bindings = grid.registry().access_points(tmodel->key);
  std::printf("UDDI scan: %zu render service instance(s) advertised\n", bindings.size());
  if (bindings.empty()) return 1;

  // 2. Control plane: SOAP call for the binary client endpoint,
  // dispatched on this thread (as RaveGrid::recruit does). A serving
  // thread would race the virtual clock: the simulated link's receive
  // burns its whole timeout in virtual time while the container has not
  // replied yet.
  services::SoapCall call;
  call.service = "render";
  call.method = "connectThinClient";
  call.call_id = 1;
  call.args = {services::SoapValue{"hand"}};
  const services::SoapResponse endpoint = grid.container("laptop")->dispatch(call);
  if (endpoint.is_fault) {
    std::printf("SOAP connect failed: %s\n", endpoint.fault_message.c_str());
    return 1;
  }

  // 3. Data plane: the PDA's interactive frame loop (camera orbit).
  core::ThinClient pda(clock, grid.fabric(), sim::zaurus_pda());
  if (!pda.connect(endpoint.result.as_string(), "hand").ok()) return 1;
  scene::Camera cam;
  cam.eye = {0, 0.3f, 2.6f};

  std::printf("\n%-6s %-10s %-12s %-12s %-12s %-10s %s\n", "frame", "fps", "latency(s)",
              "receipt(s)", "render(s)", "bytes", "codec");
  for (int i = 0; i < 8; ++i) {
    cam.orbit(0.12f, 0.02f);
    auto frame = pda.request_frame(cam, 200, 200, 30.0, [&grid] { grid.pump_all(); });
    if (!frame.ok()) {
      std::printf("frame failed: %s\n", frame.error().c_str());
      return 1;
    }
    const auto& s = pda.last_stats();
    std::printf("%-6d %-10.2f %-12.3f %-12.3f %-12.3f %-10llu %s\n", i,
                1.0 / s.total_latency, s.total_latency, s.receipt_seconds, s.render_seconds,
                static_cast<unsigned long long>(s.image_bytes),
                compress::codec_name(s.codec));
  }
  std::printf(
      "\nTiled delivery: the first frame ships every tile; later frames ship\n"
      "changed tiles RLE-coded and the rest as refs, so the wireless link\n"
      "sustains rates the paper's uncompressed stream (max 5 fps at 200x200)\n"
      "could not.\n");

  // Presentation: the Zaurus display is 640x480, so the received 200x200
  // frame is upscaled client-side for display (paper §5.1 notes the frames
  // are "small relative to the display").
  auto final_frame = pda.request_frame(cam, 200, 200, 30.0, [&grid] { grid.pump_all(); });
  if (final_frame.ok()) {
    const render::Image display = render::scale_bilinear(final_frame.value(), 640, 480);
    (void)render::write_ppm(final_frame.value(), examples::out_path("pda_wire_frame.ppm"));
    (void)render::write_ppm(display, examples::out_path("pda_display.ppm"));
    std::printf("\nwire frame (200x200) -> bench_output/pda_wire_frame.ppm; upscaled display "
                "(640x480) -> bench_output/pda_display.ppm\n");
  }
  return 0;
}
