// rave-top — the live telemetry dashboard for a RAVE grid. Stands up a
// heterogeneous deployment under virtual time (data host + render hosts
// with different 2004 machine profiles), enables the telemetry plane (1 Hz
// central collector + SLO engine), drives thin-client frame loops, and
// renders the rave-top view each virtual second: per-host frame-time and
// fps sparklines, SLO burn states, collection health, the last migration
// plan's explain, and (with --trace) the frame-phase breakdown.
//
// Flags:
//   --watch        redraw in place with ANSI clear instead of scrolling
//   --jsonl PATH   export the collected time-series history as JSONL
//   --trace        enable frame tracing (phase breakdown in the dashboard)
//   --profile      sample the span stacks each tick; print the hottest
//                  functions under the dashboard
//   --flame PATH   write the profiler's collapsed stacks (flamegraph.pl
//                  input format) on exit; implies --profile
//   --timeline     print the merged causally-ordered grid timeline on exit
//   --once         suppress the per-second redraws; emit one snapshot at
//                  the end of the run
//   --json         machine-readable snapshot (effective config + metrics +
//                  SLO states + canary health) instead of the text
//                  dashboard; implies --once
//   --seconds N    virtual seconds to run (default 12)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "core/grid.hpp"
#include "mesh/generators.hpp"
#include "net/reactor.hpp"
#include "obs/event.hpp"
#include "obs/hlc.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

using namespace rave;

namespace {

void append_json_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_json_number(std::string& out, double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%g", v);
  out += buf;
}

// The effective process configuration: what the RAVE_* environment
// variables (or the defaults) resolved to.
void append_config(std::string& out) {
  const net::ReactorChannelOptions net = net::default_channel_options();
  out += "{\"log_level\":\"";
  out += util::log_level_name(util::log_level());
  out += "\",\"simd\":\"";
  out += util::simd_level_name(util::active_simd_level());
  out += "\",\"net_queue_limit\":";
  append_json_number(out, static_cast<double>(net.write_queue_limit));
  out += ",\"net_shed\":\"";
  out += net::shed_policy_name(net.shed_policy);
  out += "\",\"trace\":";
  out += obs::Tracer::global().enabled() ? "true" : "false";
  out += ",\"pool_workers\":";
  append_json_number(out, static_cast<double>(util::ThreadPool::shared().size()));
  out += "}";
}

// The --once --json snapshot: everything a monitoring pipeline wants from
// one shot — the effective configuration, the process-wide metric
// samples, the SLO engine's current states, and the canary verdicts.
std::string json_snapshot(core::RaveGrid& grid, double now) {
  std::string out = "{\"now\":";
  append_json_number(out, now);
  out += ",\"config\":";
  append_config(out);
  out += ",\"metrics\":[";
  bool first = true;
  for (const obs::MetricSample& s : obs::MetricsRegistry::global().samples()) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, s.name);
    out += "\",\"labels\":\"";
    append_json_escaped(out, s.labels);
    out += "\",\"value\":";
    append_json_number(out, s.value);
    out += "}";
  }
  out += "],\"slos\":[";
  first = true;
  if (const obs::SloEngine* slo = grid.slo_engine()) {
    for (const obs::SloStatus& s : slo->current()) {
      if (!first) out += ",";
      first = false;
      out += "{\"slo\":\"";
      append_json_escaped(out, s.slo);
      out += "\",\"host\":\"";
      append_json_escaped(out, s.host);
      out += "\",\"state\":\"";
      out += obs::to_string(s.state);
      out += "\",\"value\":";
      append_json_number(out, s.value);
      out += ",\"threshold\":";
      append_json_number(out, s.threshold);
      out += ",\"anomaly\":";
      out += s.anomaly ? "true" : "false";
      out += "}";
    }
  }
  out += "],\"canary\":[";
  first = true;
  if (obs::Canary* canary = grid.canary()) {
    for (const obs::HealthVerdict& v : canary->verdicts()) {
      if (!first) out += ",";
      first = false;
      out += "{\"host\":\"";
      append_json_escaped(out, v.host);
      out += "\",\"state\":\"";
      out += obs::to_string(v.state);
      out += "\",\"reason\":\"";
      append_json_escaped(out, v.reason);
      out += "\",\"frames_ok\":";
      append_json_number(out, static_cast<double>(v.frames_ok));
      out += ",\"frames_late\":";
      append_json_number(out, static_cast<double>(v.frames_late));
      out += ",\"frames_failed\":";
      append_json_number(out, static_cast<double>(v.frames_failed));
      out += ",\"join_seconds\":";
      append_json_number(out, v.join_seconds);
      out += ",\"last_frame_age\":";
      append_json_number(out, v.last_frame_age);
      out += "}";
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool watch = false;
  bool trace = false;
  bool profile = false;
  bool timeline = false;
  bool once = false;
  bool json = false;
  std::string jsonl_path;
  std::string flame_path;
  double seconds = 12.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--watch") == 0) watch = true;
    if (std::strcmp(argv[i], "--trace") == 0) trace = true;
    if (std::strcmp(argv[i], "--profile") == 0) profile = true;
    if (std::strcmp(argv[i], "--timeline") == 0) timeline = true;
    if (std::strcmp(argv[i], "--once") == 0) once = true;
    if (std::strcmp(argv[i], "--json") == 0) json = true;
    if (std::strcmp(argv[i], "--jsonl") == 0 && i + 1 < argc) jsonl_path = argv[++i];
    if (std::strcmp(argv[i], "--flame") == 0 && i + 1 < argc) flame_path = argv[++i];
    if (std::strcmp(argv[i], "--seconds") == 0 && i + 1 < argc)
      seconds = std::atof(argv[++i]);
  }
  if (!flame_path.empty()) profile = true;
  if (json) once = true;

  util::SimClock clock;
  obs::set_clock(&clock);  // byte-stable timestamps for traces/logs
  if (trace) obs::Tracer::global().set_enabled(true);
  // Production mode: a timer thread samples whichever span-annotated
  // frames are on each thread's stack. Rasterization runs for real even
  // under virtual time, so the samples land in genuine CPU work. (Tests
  // use the deterministic injected-tick mode instead.)
  if (profile) {
    obs::Profiler::global().set_enabled(true);
    obs::Profiler::global().start(/*interval_seconds=*/0.001);
  }
  core::RaveGrid grid(clock, net::ethernet_100mbit());

  // The paper's heterogeneous testbed in miniature: one data host, two
  // render hosts of very different strength.
  core::DataService& data = grid.add_data_service("datahost");
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "hand", mesh::make_skeletal_hand(60'000));
  if (!data.create_session("hand", std::move(tree)).ok()) return 1;

  core::RenderService::Options strong;
  strong.profile = sim::xeon_desktop();
  strong.simulate_timing = true;
  grid.add_render_service("xeon", strong);

  core::RenderService::Options weak;
  weak.profile = sim::centrino_laptop();
  weak.simulate_timing = true;
  grid.add_render_service("laptop", weak);

  if (!grid.join("xeon", "datahost", "hand").ok()) return 1;
  if (!grid.join("laptop", "datahost", "hand").ok()) return 1;
  (void)data.distribute("hand");
  grid.advertise_all();

  // Telemetry plane: 1 Hz central collection + the default render SLOs.
  obs::Collector::Options collect;
  collect.interval = 1.0;
  grid.enable_telemetry(collect, obs::default_render_slos(/*target_fps=*/10.0));

  // Health plane: blackbox canaries subscribing to the real frame stream
  // (one probe per quality class per render host). The 1 Hz collector's
  // snapshots already carry every flight recorder for the cross-host
  // timeline. HLC stamping on, so the merged timeline orders causally,
  // not by wall.
  obs::Hlc::global().set_enabled(true);
  obs::Canary::Options canary_options;
  canary_options.frame_timeout = 0.3;  // virtual seconds; keep misses cheap
  grid.enable_health_plane(canary_options);
  grid.watch_streams("hand");

  // Two thin clients, one per render host.
  core::ThinClient strong_client(clock, grid.fabric(), sim::xeon_desktop());
  core::ThinClient weak_client(clock, grid.fabric(), sim::zaurus_pda());
  const std::string strong_ep = grid.render_service("xeon")->client_access_point();
  const std::string weak_ep = grid.render_service("laptop")->client_access_point();
  if (!strong_client.connect(strong_ep, "hand").ok()) return 1;
  if (!weak_client.connect(weak_ep, "hand").ok()) return 1;

  scene::Camera cam;
  cam.eye = {0, 0.3f, 2.6f};
  const auto pump = [&grid] { grid.pump_all(); };

  double next_draw = 1.0;
  double next_probe = 0.5;
  const double start = clock.now();
  while (clock.now() - start < seconds) {
    cam.orbit(0.08f, 0.01f);
    (void)strong_client.request_frame(cam, 160, 120, 30.0, pump);
    (void)weak_client.request_frame(cam, 160, 120, 30.0, pump);
    grid.pump_all();
    if (clock.now() - start >= next_probe) {
      next_probe += 1.0;
      // Drive the stream the canaries watch, then run every probe once.
      (void)grid.render_service("xeon")->publish_stream_frame("hand", cam, 160, 120);
      (void)grid.render_service("laptop")->publish_stream_frame("hand", cam, 160, 120);
      grid.pump_all();
      (void)grid.canary()->probe_all(pump);
    }
    if (clock.now() - start >= next_draw) {
      next_draw += 1.0;
      if (once) continue;
      if (watch) std::printf("\x1b[2J\x1b[H");
      std::fputs(grid.telemetry_dashboard().c_str(), stdout);
      if (profile) {
        // The hottest span-annotated functions by sample count — the
        // one-glance "where is the CPU going" line.
        const auto hot = obs::Profiler::global().hottest(3);
        if (!hot.empty()) {
          std::printf("-- profiler (%llu samples)",
                      static_cast<unsigned long long>(obs::Profiler::global().total_samples()));
          for (const obs::Profiler::Hot& h : hot)
            std::printf("  %s %llu", h.frame.c_str(),
                        static_cast<unsigned long long>(h.samples));
          std::printf("\n");
        }
      }
      std::printf("\n");
    }
  }

  if (once) {
    if (json)
      std::fputs(json_snapshot(grid, clock.now()).c_str(), stdout);
    else
      std::fputs(grid.telemetry_dashboard().c_str(), stdout);
  }
  if (timeline) {
    // One last pull: the collector reads each ring before the SLO engine
    // evaluates that tick, so the final round's notes land only now.
    (void)grid.collector()->poll_now();
    std::printf("== grid timeline ==\n");
    std::fputs(grid.timeline_text().c_str(), stdout);
  }

  if (profile) obs::Profiler::global().stop();
  if (!flame_path.empty()) {
    std::ofstream out(flame_path, std::ios::binary);
    out << obs::Profiler::global().collapsed();
    std::printf("collapsed stacks -> %s (flamegraph.pl input)\n", flame_path.c_str());
  }

  if (!jsonl_path.empty()) {
    std::ofstream out(jsonl_path, std::ios::binary);
    out << grid.collector()->export_jsonl();
    std::printf("time-series history -> %s\n", jsonl_path.c_str());
  }
  return 0;
}
