// Figure 5 reproduction: "Tearing artifact from 2 tiles" — the frame is
// split between a local and a remote render service; the remote service is
// artificially stalled (exactly how the paper produced the figure) while a
// camera-visible object moves. The paper's service presented the stalled
// helper's last tile, which shows the scene *before* the move: the torn
// frame is built from that tile, written as a PPM and the seam quantified.
// This service fences tiles by view, so its own frame renders the missing
// tile locally and must equal the reference; the exit code checks both.
#include <cstdio>

#include "bench_util.hpp"
#include "core/grid.hpp"
#include "mesh/generators.hpp"
#include "render/framebuffer.hpp"

int main() {
  using namespace rave;
  bench::print_header("Figure 5: tearing across a 2-tile seam",
                      "Grimstead et al., SC2004, Figure 5 / §5.5");

  util::SimClock clock;
  core::RaveGrid grid(clock);
  core::DataService& data = grid.add_data_service("datahost");

  scene::SceneTree tree;
  const scene::NodeId ship =
      tree.add_child(scene::kRootNode, "galleon", mesh::make_galleon(5'500));
  if (!data.create_session("galleon", std::move(tree)).ok()) return 1;

  grid.add_render_service("main");
  grid.add_render_service("helper");
  if (!grid.join("main", "datahost", "galleon").ok()) return 1;
  if (!grid.join("helper", "datahost", "galleon").ok()) return 1;

  core::RenderService& main_svc = *grid.render_service("main");
  core::RenderService& helper = *grid.render_service("helper");
  if (!main_svc.enable_tile_assist("galleon", {helper.peer_access_point()}).ok()) return 1;

  scene::Camera cam;
  cam.eye = {0, 0.4f, 3.0f};

  // Warm-up: the first frame dispatches the helper's tile; once it is
  // delivered, the next frame for the same view composites it: seamless.
  (void)main_svc.render_distributed("galleon", cam, 320, 320);
  grid.pump_until_idle();
  auto clean = main_svc.render_distributed("galleon", cam, 320, 320);
  if (!clean.ok()) return 1;
  const uint64_t helper_tiles = main_svc.stats().remote_tiles_used;
  const std::string dir = bench::output_dir();
  (void)render::write_ppm(clean.value().to_image(), dir + "/fig5_clean.ppm");

  // Stall the helper and move the galleon: the helper's tile for the new
  // scene does not arrive, so the service renders that tile itself.
  helper.set_assist_stall(30.0);
  (void)data.session_tree("galleon");
  (void)main_svc.submit_update(
      "galleon", scene::SceneUpdate::set_transform(ship, util::Mat4::translate({0.6f, 0, 0})));
  grid.pump_until_idle();
  const uint64_t covered_before = main_svc.stats().locally_covered_tiles;
  auto fenced = main_svc.render_distributed("galleon", cam, 320, 320);
  if (!fenced.ok()) return 1;
  const uint64_t covered = main_svc.stats().locally_covered_tiles - covered_before;

  // The paper's torn frame: the same frame with the helper's last tile,
  // rendered before the move (the tile the clean frame composited).
  const render::Tile helper_tile = render::split_tiles(320, 320, 2)[1];
  render::FrameBuffer torn = fenced.value();
  torn.insert(helper_tile, clean.value().extract(helper_tile));
  (void)render::write_ppm(torn.to_image(), dir + "/fig5_torn.ppm");

  // Reference: what the frame *should* look like after the move.
  auto reference = main_svc.render_console("galleon", cam, 320, 320);
  if (!reference.ok()) return 1;
  (void)render::write_ppm(reference.value().to_image(), dir + "/fig5_reference.ppm");

  const render::Image expected = reference.value().to_image();
  const uint64_t torn_diff = torn.to_image().diff_pixels(expected);
  const uint64_t fenced_diff = fenced.value().to_image().diff_pixels(expected);
  std::printf("  clean frame      -> %s/fig5_clean.ppm (%llu helper tile composited)\n",
              dir.c_str(), static_cast<unsigned long long>(helper_tiles));
  std::printf("  torn frame       -> %s/fig5_torn.ppm (%llu pixels stale vs reference)\n",
              dir.c_str(), static_cast<unsigned long long>(torn_diff));
  std::printf("  reference frame  -> %s/fig5_reference.ppm\n", dir.c_str());
  std::printf("  fenced frame     : %llu pixels differ from reference (must be 0)\n",
              static_cast<unsigned long long>(fenced_diff));
  std::printf("  tiles covered    : %llu rendered locally for the fenced frame, "
              "%llu stale tiles presented\n",
              static_cast<unsigned long long>(covered),
              static_cast<unsigned long long>(main_svc.stats().stale_tiles_used));

  // Paper §5.5 latency model: galleon tile delay ~0.05 s, hand ~0.3 s.
  std::printf("\nTile-update latency model (render + tile transfer on 100 Mbit):\n");
  const net::LinkProfile ethernet = net::ethernet_100mbit();
  const sim::MachineProfile m = sim::centrino_laptop();
  const uint64_t tile_px = 320ull * 160ull;
  const double galleon_delay = sim::offscreen_sequential_seconds(m, 5'500, tile_px) +
                               ethernet.delivery_seconds(tile_px * 7);
  const double hand_delay = sim::offscreen_sequential_seconds(m, 830'000, tile_px) +
                            ethernet.delivery_seconds(tile_px * 7);
  std::printf("  galleon: paper ~0.05 s, model %.3f s\n", galleon_delay);
  std::printf("  hand   : paper ~0.3 s,  model %.3f s\n", hand_delay);
  return helper_tiles == 1 && torn_diff > 0 && fenced_diff == 0 && covered == 1 ? 0 : 1;
}
