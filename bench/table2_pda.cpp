// Table 2 reproduction: "Visualization Timings Using a PDA" — frames per
// second, total latency, image receipt, render time and other overheads
// for a Zaurus thin client pulling 200x200 uncompressed frames from a
// Centrino/GeForce2 420 Go render service over 11 Mbit/s wireless.
//
// Two independent reproductions:
//  1. the calibrated performance model (pure arithmetic);
//  2. the real pipeline — DataService → RenderService → ThinClient over a
//     simulated wireless link under virtual time, with the render service
//     advancing the clock by its modelled frame cost.
#include <cstdio>
#include <string>

#include "bench_util.hpp"
#include "core/grid.hpp"
#include "mesh/generators.hpp"
#include "sim/perf_model.hpp"

namespace {
struct PaperRow {
  const char* model;
  uint64_t triangles;
  double fps, latency, receipt, render, other;
};
constexpr PaperRow kPaper[] = {
    {"Skeletal Hand", 830'000, 2.9, 0.339, 0.201, 0.091, 0.047},
    {"Skeleton", 2'800'000, 1.6, 0.598, 0.194, 0.355, 0.049},
};
}  // namespace

int main() {
  using namespace rave;
  bench::print_header("Table 2: Visualization timings using a PDA",
                      "Grimstead et al., SC2004, Table 2");

  // --- reproduction 1: calibrated model -----------------------------------
  bench::Table model_table({"Model", "Metric", "Paper", "Model"});
  for (const PaperRow& row : kPaper) {
    const sim::ThinClientFrame frame = sim::thin_client_frame(
        sim::centrino_laptop(), sim::zaurus_pda(), net::wireless_11mbit(), row.triangles, 200,
        200);
    model_table.row({row.model, "frames per second", bench::fmt("%.1f", row.fps),
                     bench::fmt("%.1f", frame.fps())});
    model_table.row({"", "total latency (s)", bench::fmt("%.3f", row.latency),
                     bench::fmt("%.3f", frame.total_latency())});
    model_table.row({"", "image receipt (s)", bench::fmt("%.3f", row.receipt),
                     bench::fmt("%.3f", frame.transfer_seconds)});
    model_table.row({"", "render time (s)", bench::fmt("%.3f", row.render),
                     bench::fmt("%.3f", frame.render_seconds)});
    model_table.row({"", "other overheads (s)", bench::fmt("%.3f", row.other),
                     bench::fmt("%.3f", frame.client_seconds)});
  }
  model_table.print();

  // Paper §5.1's projection: 640x480 would drop to ~0.6 fps.
  const sim::ThinClientFrame vga = sim::thin_client_frame(
      sim::centrino_laptop(), sim::zaurus_pda(), net::wireless_11mbit(), 830'000, 640, 480);
  std::printf("\n640x480 projection: paper ~0.6 fps, model %.2f fps (transfer %.2f s)\n",
              vga.fps(), vga.transfer_seconds);

  // --- reproduction 2: the real pipeline under virtual time ----------------
  std::printf("\nEnd-to-end pipeline (real services, simulated wireless, virtual time):\n\n");
  bench::Table live_table({"Model", "fps", "latency (s)", "receipt (s)", "render (s)",
                           "client (s)", "image bytes"});
  for (const PaperRow& row : kPaper) {
    util::SimClock clock;
    core::RaveGrid grid(clock, net::ethernet_100mbit());
    core::DataService& data = grid.add_data_service("datahost");

    // Scaled-down geometry (1:100) renders fast; the timing model charges
    // the render service for the full paper-scale triangle count by
    // scaling its profile rate identically, so virtual-time results match
    // the full-size deployment.
    const size_t scale = 100;
    scene::SceneTree tree;
    tree.add_child(scene::kRootNode, row.model,
                   mesh::make_model(row.model, row.triangles / scale));

    core::RenderService::Options render_options;
    render_options.profile = sim::centrino_laptop();
    render_options.profile.tri_rate /= static_cast<double>(scale);
    render_options.profile.off_copy_rate /= 1.0;  // pixel counts unscaled
    render_options.simulate_timing = true;
    (void)data.create_session(row.model, std::move(tree));
    grid.add_render_service("laptop", render_options);
    if (!grid.join("laptop", "datahost", row.model).ok()) {
      std::printf("bootstrap failed for %s\n", row.model);
      continue;
    }
    // The PDA sits behind the wireless link.
    grid.fabric().set_link("laptop/clients", net::wireless_11mbit());

    // The paper's PDA kept no frame cache, so every frame shipped whole.
    // A fresh connection per frame reproduces that: the service holds no
    // previous frame of that client to reference. A standing connection
    // then shows what tile refs save on the same orbit.
    const std::string access = grid.render_service("laptop")->client_access_point();
    for (const bool standing : {false, true}) {
      core::ThinClient pda(clock, grid.fabric(), sim::zaurus_pda());
      pda.set_quality(compress::QualityClass::Raw);  // the paper measured raw 24bpp frames
      scene::Camera cam;
      cam.eye = {0, 0, 2.5f};
      double first = clock.now();
      int frames = 0;
      core::ThinClient::FrameStats last{};
      for (int i = 0; i < 5; ++i) {
        if ((i == 0 || !standing) && !pda.connect(access, row.model).ok()) {
          std::printf("PDA connect failed for %s\n", row.model);
          break;
        }
        scene::Camera moving = cam;
        moving.orbit(0.05f * static_cast<float>(i), 0.0f);
        auto frame = pda.request_frame(moving, 200, 200, 30.0, [&grid] { grid.pump_all(); });
        if (!frame.ok()) break;
        ++frames;
        last = pda.last_stats();
      }
      const double elapsed = clock.now() - first;
      if (frames > 0) {
        live_table.row({standing ? "  with tile refs" : row.model,
                        bench::fmt("%.1f", frames / elapsed),
                        bench::fmt("%.3f", last.total_latency),
                        bench::fmt("%.3f", last.receipt_seconds),
                        bench::fmt("%.3f", last.render_seconds),
                        bench::fmt("%.3f", last.client_seconds),
                        bench::fmt_u64(last.image_bytes)});
      }
    }
  }
  live_table.print();
  std::printf(
      "\nNote: live-pipeline frames are the Raw quality class (24bpp tiles)\n"
      "to match the paper; receipt time is wireless-transfer bound. Model rows\n"
      "ship every frame whole (a fresh connection per frame, as the paper's\n"
      "cacheless PDA); \"with tile refs\" rows keep one connection, so tiles\n"
      "unchanged since the previous frame ship as refs.\n");
  return 0;
}
