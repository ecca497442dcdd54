// Micro-benchmarks (google-benchmark): throughput of the substrates the
// distributed pipeline is built on — rasterizer, compositor, codecs,
// serialization, SOAP round trips. These are host-performance numbers,
// not paper reproductions; they bound what the simulation layer abstracts.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "compress/codec.hpp"
#include "compress/tile_cache.hpp"
#include "core/frame_stream.hpp"
#include "mesh/generators.hpp"
#include "net/fanout.hpp"
#include "net/reactor.hpp"
#include "net/simlink.hpp"
#include "net/tcp.hpp"
#include "mesh/decimate.hpp"
#include "mesh/primitives.hpp"
#include "mesh/fields.hpp"
#include "mesh/marching_cubes.hpp"
#include "core/grid.hpp"
#include "obs/collector.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hlc.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "render/compositor.hpp"
#include "render/raycast.hpp"
#include "render/rasterizer.hpp"
#include "render/render_list.hpp"
#include "scene/serialize.hpp"
#include "services/soap.hpp"
#include "util/simd.hpp"

namespace {
using namespace rave;

// Benchmark arg 0 = scalar twin, 1 = widest level the host executes.
// Restores the native level when the benchmark scope ends so later
// benchmarks are unaffected by the forced-scalar runs.
struct SimdArg {
  explicit SimdArg(int64_t sel) {
    util::set_simd_level(sel == 0 ? util::SimdLevel::Scalar : util::max_simd_level());
  }
  ~SimdArg() { util::set_simd_level(util::max_simd_level()); }
  [[nodiscard]] std::string label() const {
    return util::simd_level_name(util::active_simd_level());
  }
};

const scene::SceneTree& elle_tree() {
  static const scene::SceneTree tree = [] {
    scene::SceneTree t;
    t.add_child(scene::kRootNode, "elle", mesh::make_elle(50'000));
    return t;
  }();
  return tree;
}

// Elle (50 k triangles) rendered to a size x size frame. Arg 1 is the
// pool's thread count (0 = serial): only vertex shading runs on the pool,
// triangle setup and raster are serial at every thread count.
void BM_RasterizeElle(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const SimdArg simd(state.range(2));
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(static_cast<unsigned>(threads));
  render::RenderOptions opts;
  opts.pool = pool.get();
  const scene::Camera cam = scene::Camera::framing(elle_tree().world_bounds());
  for (auto _ : state) {
    render::RenderStats stats;
    benchmark::DoNotOptimize(render::render_tree(elle_tree(), cam, size, size, opts, &stats));
  }
  state.SetItemsProcessed(state.iterations() * 50'000);
  state.SetLabel((threads > 0 ? std::to_string(threads) + " threads" : "serial") + " " +
                 simd.label());
}
BENCHMARK(BM_RasterizeElle)
    ->Args({200, 0, 1})
    ->Args({400, 0, 0})
    ->Args({400, 0, 1})
    ->Args({400, 2, 1})
    ->Args({400, 4, 1})
    ->Args({400, 8, 1});

// Deterministic pseudo-random depth planes: with both buffers cleared to
// 1.0 the `src < dst` branch was never taken and only the pass-through
// path was measured. Roughly half the pixels now exercise the copy path;
// dst is restored from a pristine copy each iteration so the mix stays
// constant instead of decaying to all-pass after the first merge.
void BM_DepthComposite(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  const SimdArg simd(state.range(2));
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(static_cast<unsigned>(threads));
  render::FrameBuffer pristine(size, size), src(size, size);
  uint32_t rng = 0x9e3779b9u;
  const auto next_unit = [&rng] {
    rng = rng * 1664525u + 1013904223u;
    return static_cast<float>(rng >> 8) * (1.0f / 16777216.0f);
  };
  for (float& d : pristine.depth()) d = next_unit();
  for (float& d : src.depth()) d = next_unit();
  for (uint8_t& c : src.color()) c = static_cast<uint8_t>(255.0f * next_unit());
  render::FrameBuffer dst = pristine;
  for (auto _ : state) {
    state.PauseTiming();
    dst = pristine;
    state.ResumeTiming();
    benchmark::DoNotOptimize(render::depth_composite(dst, src, pool.get()));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size) * size * 7);
  state.SetLabel((threads > 0 ? std::to_string(threads) + " threads" : "serial") + " " +
                 simd.label());
}
BENCHMARK(BM_DepthComposite)
    ->Args({200, 0, 1})
    ->Args({640, 0, 0})
    ->Args({640, 0, 1})
    ->Args({640, 4, 1});

void BM_CodecEncode(benchmark::State& state) {
  const auto kind = static_cast<compress::CodecKind>(state.range(0));
  const scene::Camera cam = scene::Camera::framing(elle_tree().world_bounds());
  const render::Image frame = render::render_tree(elle_tree(), cam, 200, 200).to_image();
  auto codec = compress::make_codec(kind);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec->encode(frame, nullptr));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(frame.byte_size()));
  state.SetLabel(compress::codec_name(kind));
}
BENCHMARK(BM_CodecEncode)
    ->Arg(static_cast<int>(compress::CodecKind::Rle))
    ->Arg(static_cast<int>(compress::CodecKind::Quantize));

// Per-codec encode/decode throughput with the SIMD level pinned: arg 0
// selects scalar (0) or the widest native level (1), arg 1 the direction
// (0 = encode, 1 = decode). The decode numbers are what the pre-sized
// pointer-walk rewrite (no per-pixel push_back triple) is measured by.
void codec_bench(benchmark::State& state, compress::CodecKind kind) {
  const SimdArg simd(state.range(0));
  const bool decode = state.range(1) != 0;
  const scene::Camera cam = scene::Camera::framing(elle_tree().world_bounds());
  const render::Image frame = render::render_tree(elle_tree(), cam, 200, 200).to_image();
  render::Image previous = frame;
  previous.rgb[777] ^= 0x40;  // delta sees a non-trivial diff
  const auto codec = compress::make_codec(kind);
  const compress::EncodedImage encoded = codec->encode(frame, &previous);
  for (auto _ : state) {
    if (decode)
      benchmark::DoNotOptimize(codec->decode(encoded, &previous));
    else
      benchmark::DoNotOptimize(codec->encode(frame, &previous));
  }
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(frame.byte_size()));
  state.SetLabel(std::string(decode ? "decode " : "encode ") + simd.label());
}
void BM_CodecRle(benchmark::State& state) { codec_bench(state, compress::CodecKind::Rle); }
void BM_CodecDelta(benchmark::State& state) {
  codec_bench(state, compress::CodecKind::Delta);
}
void BM_CodecQuantize(benchmark::State& state) {
  codec_bench(state, compress::CodecKind::Quantize);
}
BENCHMARK(BM_CodecRle)->Args({0, 0})->Args({1, 0})->Args({0, 1})->Args({1, 1});
BENCHMARK(BM_CodecDelta)->Args({0, 0})->Args({1, 0})->Args({0, 1})->Args({1, 1});
BENCHMARK(BM_CodecQuantize)->Args({0, 0})->Args({1, 0})->Args({0, 1})->Args({1, 1});

void BM_FrameClear(benchmark::State& state) {
  const int size = static_cast<int>(state.range(0));
  const SimdArg simd(state.range(1));
  render::FrameBuffer fb(size, size);
  for (auto _ : state) {
    fb.clear({0.08f, 0.08f, 0.12f});
    benchmark::DoNotOptimize(fb.color().data());
    benchmark::DoNotOptimize(fb.depth().data());
  }
  // 3 color bytes + 4 depth bytes per pixel.
  state.SetBytesProcessed(state.iterations() * static_cast<int64_t>(size) * size * 7);
  state.SetLabel(simd.label());
}
BENCHMARK(BM_FrameClear)->Args({640, 0})->Args({640, 1});

// The publisher's per-frame content hashing: every 64-px tile of a 640x480
// frame, then the whole-frame hash FrameEnd carries. The kernel is plain
// scalar code, so the SIMD level in the label only records the host.
void BM_HashTiles(benchmark::State& state) {
  const scene::Camera cam = scene::Camera::framing(elle_tree().world_bounds());
  const render::Image frame = render::render_tree(elle_tree(), cam, 640, 480).to_image();
  const std::vector<render::Tile> grid = render::tile_grid(frame.width, frame.height, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(render::hash_tiles(frame, grid));
    benchmark::DoNotOptimize(render::hash_image(frame));
  }
  state.SetBytesProcessed(state.iterations() * 2 * static_cast<int64_t>(frame.byte_size()));
  state.SetLabel(util::simd_level_name(util::active_simd_level()));
}
BENCHMARK(BM_HashTiles);

void BM_SceneSerialize(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(scene::serialize_tree(elle_tree()));
  }
}
BENCHMARK(BM_SceneSerialize);

void BM_Isosurface(benchmark::State& state) {
  const uint32_t n = static_cast<uint32_t>(state.range(0));
  scene::Aabb bounds;
  bounds.extend({-1.5f, -1.5f, -1.5f});
  bounds.extend({1.5f, 1.5f, 1.5f});
  const auto grid = mesh::rasterize_field(mesh::ball_field({0, 0, 0}, 1.2f), bounds, n, n, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::extract_isosurface(grid, {.iso_value = 0.5f}));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(grid.voxel_count()));
}
BENCHMARK(BM_Isosurface)->Arg(24)->Arg(48);

void BM_Decimate(benchmark::State& state) {
  const scene::MeshData dense = mesh::make_uv_sphere(1.0f, 96, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mesh::decimate_clustering(dense, {.grid_resolution = 24}));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(dense.triangle_count()));
}
BENCHMARK(BM_Decimate);

// The seed ray marcher, kept verbatim (modulo the enclosing function) as
// the measured pre-optimization baseline for BENCH_raycast.json: one
// grid.sample() per step, accumulated `t += step`, per-pixel eye
// transform, no empty-space skipping, no packets. The live marcher's
// "brute" arm is already restructured (anchored stepping, hoisted
// origin, wave evaluation), so comparing against it alone would
// understate the PR; this is the actual before.
void seed_raycast(render::FrameBuffer& fb, const scene::VoxelGridData& grid,
                  const util::Mat4& model, const scene::Camera& camera) {
  const float sampling_rate = 1.0f, opacity_cutoff = 0.97f;
  const auto to_byte = [](float v) {
    return static_cast<uint8_t>(std::clamp(v, 0.0f, 1.0f) * 255.0f + 0.5f);
  };
  const auto intersect_aabb = [](const util::Vec3& origin, const util::Vec3& dir,
                                 const scene::Aabb& box, float& t0, float& t1) {
    t0 = 0.0f;
    t1 = std::numeric_limits<float>::max();
    const float o[3] = {origin.x, origin.y, origin.z};
    const float d[3] = {dir.x, dir.y, dir.z};
    const float lo[3] = {box.lo.x, box.lo.y, box.lo.z};
    const float hi[3] = {box.hi.x, box.hi.y, box.hi.z};
    for (int i = 0; i < 3; ++i) {
      if (std::fabs(d[i]) < 1e-12f) {
        if (o[i] < lo[i] || o[i] > hi[i]) return false;
        continue;
      }
      float a = (lo[i] - o[i]) / d[i];
      float b = (hi[i] - o[i]) / d[i];
      if (a > b) std::swap(a, b);
      t0 = std::max(t0, a);
      t1 = std::min(t1, b);
    }
    return t0 <= t1;
  };
  const float aspect = static_cast<float>(fb.width()) / static_cast<float>(fb.height());
  const util::Mat4 view = camera.view();
  const util::Mat4 view_proj = camera.projection(aspect) * view;
  const util::Mat4 inv_model = model.inverse();
  const util::Mat4 inv_view = view.inverse();
  const util::Vec3 eye_world = inv_view.transform_point({0, 0, 0});
  const float tan_half_fov = std::tan(util::deg_to_rad(camera.fov_y_deg) * 0.5f);
  const scene::Aabb box = grid.bounds();
  const float min_spacing = std::min({grid.spacing.x, grid.spacing.y, grid.spacing.z});
  const float step = min_spacing / std::max(sampling_rate, 0.05f);
  const float opacity_per_step =
      std::min(1.0f, grid.opacity_scale * step / min_spacing * 0.25f);
  for (int py = 0; py < fb.height(); ++py) {
    for (int px = 0; px < fb.width(); ++px) {
      const float ndc_x = (2.0f * (static_cast<float>(px) + 0.5f) / fb.width() - 1.0f);
      const float ndc_y = (1.0f - 2.0f * (static_cast<float>(py) + 0.5f) / fb.height());
      const util::Vec3 dir_cam{ndc_x * tan_half_fov * aspect, ndc_y * tan_half_fov, -1.0f};
      const util::Vec3 dir_world = util::normalize(inv_view.transform_dir(dir_cam));
      const util::Vec3 origin = inv_model.transform_point(eye_world);
      const util::Vec3 dir = inv_model.transform_dir(dir_world);
      const float dir_len = dir.length();
      if (dir_len < 1e-12f) continue;
      const util::Vec3 ndir = dir / dir_len;
      float t0, t1;
      if (!intersect_aabb(origin, ndir, box, t0, t1)) continue;
      t0 = std::max(t0, camera.znear * dir_len);
      util::Vec3 acc_color{0, 0, 0};
      float acc_alpha = 0.0f;
      float first_hit_t = -1.0f;
      for (float t = t0; t <= t1; t += step) {
        const util::Vec3 p = origin + ndir * t;
        const float density = grid.sample(p);
        if (density < grid.iso_low) continue;
        const float u = std::clamp(
            (density - grid.iso_low) / std::max(grid.iso_high - grid.iso_low, 1e-6f), 0.0f,
            1.0f);
        const util::Vec3 sample_color = util::lerp(grid.color_low, grid.color_high, u);
        const float alpha = opacity_per_step * (0.3f + 0.7f * u);
        acc_color += sample_color * (alpha * (1.0f - acc_alpha));
        acc_alpha += alpha * (1.0f - acc_alpha);
        if (first_hit_t < 0.0f) first_hit_t = t;
        if (acc_alpha >= opacity_cutoff) break;
      }
      if (acc_alpha <= 0.003f) continue;
      const util::Vec3 hit_world = model.transform_point(origin + ndir * first_hit_t);
      const util::Vec4 clip = view_proj * util::Vec4(hit_world, 1.0f);
      if (clip.w <= 1e-6f) continue;
      const float depth = clip.z / clip.w * 0.5f + 0.5f;
      if (depth >= fb.depth_at(px, py)) continue;
      const uint8_t* back = fb.pixel(px, py);
      const util::Vec3 back_color{static_cast<float>(back[0]) / 255.0f,
                                  static_cast<float>(back[1]) / 255.0f,
                                  static_cast<float>(back[2]) / 255.0f};
      const util::Vec3 out = acc_color + back_color * (1.0f - acc_alpha);
      fb.set_pixel(px, py, to_byte(out.x), to_byte(out.y), to_byte(out.z));
      if (acc_alpha >= opacity_cutoff) fb.set_depth(px, py, depth);
    }
  }
}

scene::VoxelGridData raycast_bench_grid(bool dense) {
  scene::Aabb bounds;
  bounds.extend({-1, -1, -1});
  bounds.extend({1, 1, 1});
  auto grid = dense ? mesh::rasterize_field(mesh::ball_field({0, 0, 0}, 1.4f), bounds, 64, 64, 64)
                    : mesh::rasterize_field(mesh::ball_field({0.55f, 0.55f, 0.55f}, 0.3f), bounds,
                                            64, 64, 64);
  grid.iso_low = 0.05f;
  grid.opacity_scale = 3.0f;
  return grid;
}

void BM_RaycastSeed(benchmark::State& state) {
  const bool dense = state.range(0) != 0;
  const scene::VoxelGridData grid = raycast_bench_grid(dense);
  scene::Camera cam;
  cam.eye = {0, 0, 3};
  for (auto _ : state) {
    render::FrameBuffer fb(200, 200);
    fb.clear({0, 0, 0});
    seed_raycast(fb, grid, util::Mat4::identity(), cam);
    benchmark::DoNotOptimize(fb);
  }
  state.SetLabel(std::string(dense ? "dense" : "sparse") + " seed marcher");
}
BENCHMARK(BM_RaycastSeed)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// Fast volume path (DESIGN.md): arg 0 = scenario (0 sparse — a small ball
// in a mostly-empty 64³ grid, the empty-space-skipping headline; 1 dense —
// a grid-filling ball, the honest worst case where every brick is
// occupied), arg 1 = macro-cell skipping on/off, arg 2 = SIMD (0 scalar,
// 1 widest native), arg 3 = marcher threads (0 = serial). The brute scalar
// serial arm is the pre-optimization marcher; BENCH_raycast.json compares
// the others against it. Counters report measured marcher throughput —
// the same rays/s currency the migration cost model prices volume nodes in.
void BM_Raycast(benchmark::State& state) {
  const bool dense = state.range(0) != 0;
  const bool skip = state.range(1) != 0;
  const SimdArg simd(state.range(2));
  const int threads = static_cast<int>(state.range(3));
  scene::SceneTree tree;
  tree.add_child(scene::kRootNode, "vol", raycast_bench_grid(dense));
  scene::Camera cam;
  cam.eye = {0, 0, 3};
  std::unique_ptr<util::ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<util::ThreadPool>(static_cast<unsigned>(threads));
  render::RaycastOptions opts;
  opts.empty_skip = skip;
  opts.pool = pool.get();
  const render::RenderList list = render::build_render_list(tree, cam, 1.0f);
  render::RenderStats stats;
  for (auto _ : state) {
    render::FrameBuffer fb(200, 200);
    fb.clear({0, 0, 0});
    stats = render::raycast_list(fb, list, cam, opts);
    benchmark::DoNotOptimize(fb);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(stats.rays_cast));
  state.counters["rays_per_frame"] = benchmark::Counter(static_cast<double>(stats.rays_cast));
  state.counters["samples_per_frame"] =
      benchmark::Counter(static_cast<double>(stats.volume_samples));
  state.counters["bricks_skipped"] = benchmark::Counter(static_cast<double>(stats.bricks_skipped));
  state.SetLabel(std::string(dense ? "dense" : "sparse") + " " + (skip ? "skip" : "brute") + " " +
                 simd.label() + " " +
                 (threads > 0 ? std::to_string(threads) + " threads" : "serial"));
}
BENCHMARK(BM_Raycast)
    ->Args({0, 0, 0, 0})  // sparse baseline: brute scalar serial (pre-PR marcher)
    ->Args({0, 1, 0, 0})
    ->Args({0, 1, 1, 0})
    ->Args({0, 1, 1, 4})
    ->Args({1, 0, 0, 0})  // dense baseline
    ->Args({1, 1, 0, 0})
    ->Args({1, 1, 1, 0})
    ->Args({1, 1, 1, 4})
    ->Unit(benchmark::kMillisecond);

// Observability overhead: a full Elle 400² frame with tracing disabled
// (the production default — instruments reduce to relaxed atomic counter
// adds and one cold load per would-be span) vs force-enabled under a root
// span (every shade/raster stage recorded). The acceptance budget is
// <2% regression for the disabled arm vs the pre-observability build.
// Arg 0 = tracing off, 1 = tracing on, 2 = central collector pulling this
// process's status snapshot (registry scrape + flight-recorder export) at
// 1 Hz of virtual time while frames render at a ~60 fps virtual cadence
// (the telemetry plane's render-path cost).
// Frame-delivery arms: 3 = cached streaming (publisher → in-process
// workstation subscriber) with the delivery instruments compiled in but
// tracing off (the production default — the <2% budget applies here too),
// 4 = same with every frame rooted and per-hop spans recorded, 5 = the
// sampling profiler enabled at 1 kHz over an untraced render loop (span
// annotation push/pop plus timer sampling, tracing off).
// Health-plane arms: 6 = the mode-3 streaming delivery with the hybrid
// logical clock enabled (every publish stamps +12 wire bytes, the
// receiver merges), tracing off; 7 = an untraced render loop with a
// blackbox canary probing a miniature grid once per virtual second
// (stream publish + probe + verdict, the health plane's render-path
// cost — the mode-2 analogue).
void BM_ObsOverhead(benchmark::State& state) {
  const int mode = static_cast<int>(state.range(0));
  const bool traced = mode == 1 || mode == 4;
  obs::Tracer::global().reset();
  obs::Tracer::global().set_enabled(traced);
  const scene::Camera cam = scene::Camera::framing(elle_tree().world_bounds());
  if (mode == 3 || mode == 4 || mode == 6) {
    if (mode == 6) obs::Hlc::global().set_enabled(true);
    core::FrameStreamOptions options;
    options.tile_size = 32;
    core::FrameStreamPublisher publisher(options);
    auto [srv, cli] = net::make_channel_pair();
    publisher.subscribe(srv, compress::QualityClass::Workstation);
    core::FrameStreamReceiver receiver(cli, compress::QualityClass::Workstation, options);
    render::Image frame = render::render_tree(elle_tree(), cam, 200, 200).to_image();
    util::RealClock clock;
    int step = 0;
    for (auto _ : state) {
      // Touch one pixel per frame: a realistic mostly-cached delivery
      // (one changed tile encodes, the rest ship as refs).
      frame.set_pixel(step % 200, (step / 200) % 200, 255, 255, 255);
      ++step;
      (void)publisher.publish_frame(frame);
      auto got = receiver.next_frame(clock, 1.0);
      benchmark::DoNotOptimize(got);
      // Bound the span collector so the traced arm measures recording
      // cost, not capacity-eviction churn.
      if (traced && (step & 0x3F) == 0) obs::Tracer::global().reset();
    }
    if (mode == 6) {
      obs::Hlc::global().set_enabled(false);
      obs::Hlc::global().reset();
    }
  } else if (mode == 7) {
    util::SimClock clock;
    // A link profile so channels ride the virtual clock: probe timeouts
    // elapse in sim time instead of spinning on a frozen SimClock.
    core::RaveGrid grid(clock, net::ethernet_100mbit());
    core::DataService& data = grid.add_data_service("datahost");
    scene::SceneTree tree;
    tree.add_child(scene::kRootNode, "elle", mesh::make_elle(2'000));
    const scene::Camera grid_cam = scene::Camera::framing(tree.world_bounds());
    (void)data.create_session("bench", std::move(tree));
    core::RenderService::Options render_options;
    render_options.profile = sim::xeon_desktop();
    grid.add_render_service("render", render_options);
    (void)grid.join("render", "datahost", "bench");
    obs::Canary::Options canary_options;
    canary_options.frame_timeout = 0.25;
    canary_options.qualities = {compress::QualityClass::Workstation};
    grid.enable_health_plane(canary_options);
    grid.watch_streams("bench");
    const auto pump = [&grid] { grid.pump_all(); };
    double next_probe = clock.now() + 1.0;
    for (auto _ : state) {
      render::RenderStats stats;
      benchmark::DoNotOptimize(render::render_tree(elle_tree(), cam, 400, 400, {}, &stats));
      clock.advance(1.0 / 60.0);
      if (clock.now() >= next_probe) {
        next_probe += 1.0;
        (void)grid.render_service("render")->publish_stream_frame("bench", grid_cam, 160, 120);
        grid.pump_all();
        (void)grid.canary()->probe_all(pump);
      }
    }
  } else if (mode == 5) {
    obs::Profiler::global().reset();
    obs::Profiler::global().set_enabled(true);
    obs::Profiler::global().start(/*interval_seconds=*/0.001);
    for (auto _ : state) {
      render::RenderStats stats;
      benchmark::DoNotOptimize(render::render_tree(elle_tree(), cam, 400, 400, {}, &stats));
    }
    obs::Profiler::global().stop();
    obs::Profiler::global().set_enabled(false);
    obs::Profiler::global().reset();
  } else if (mode == 2) {
    util::SimClock clock;
    obs::Collector::Options options;
    options.interval = 1.0;
    obs::Collector collector(clock, options);
    collector.add_target({"bench", []() -> util::Result<obs::HostSnapshot> {
                            return obs::HostSnapshot{obs::MetricsRegistry::global().scrape(),
                                                     obs::FlightRecorder::global().export_events(),
                                                     {}};
                          }});
    for (auto _ : state) {
      render::RenderStats stats;
      benchmark::DoNotOptimize(render::render_tree(elle_tree(), cam, 400, 400, {}, &stats));
      clock.advance(1.0 / 60.0);
      collector.tick();
    }
  } else {
    for (auto _ : state) {
      render::RenderStats stats;
      if (traced) {
        obs::ScopedSpan frame_span = obs::ScopedSpan::root("frame", "bench");
        benchmark::DoNotOptimize(render::render_tree(elle_tree(), cam, 400, 400, {}, &stats));
      } else {
        benchmark::DoNotOptimize(render::render_tree(elle_tree(), cam, 400, 400, {}, &stats));
      }
    }
  }
  obs::Tracer::global().set_enabled(false);
  obs::Tracer::global().reset();
  state.SetItemsProcessed(state.iterations() * 50'000);
  switch (mode) {
    case 2: state.SetLabel("collector 1 Hz"); break;
    case 3: state.SetLabel("streaming tracing off"); break;
    case 4: state.SetLabel("streaming tracing on"); break;
    case 5: state.SetLabel("profiler 1 kHz"); break;
    case 6: state.SetLabel("streaming hlc on"); break;
    case 7: state.SetLabel("canary 1 Hz"); break;
    default: state.SetLabel(traced ? "tracing on" : "tracing off");
  }
}
BENCHMARK(BM_ObsOverhead)->Arg(0)->Arg(1)->Arg(2)->Arg(3)->Arg(4)->Arg(5)->Arg(6)->Arg(7);

// Frame fan-out: encoded bytes + encode CPU to deliver one frame to N
// subscribers (half workstation-class lossless, half PDA-class quantized).
// Arg 0 = subscriber count, arg 1 = 0 for the pre-caching path (one
// encode + one unicast payload per subscriber, the serve_frame model),
// 1 for the cached fan-out tier (content-addressed tile refs + per-class
// encode memoization through FrameStreamPublisher). Arg 2 = 0 static
// camera (frames repeat), 1 orbiting camera (every frame differs).
// BENCH_fanout.json is produced from these numbers with one command —
// see the "benchmark" field in that file.
void BM_Fanout(benchmark::State& state) {
  const int subscribers = static_cast<int>(state.range(0));
  const bool cached = state.range(1) != 0;
  const bool orbit = state.range(2) != 0;

  // Pre-render the camera path once: render cost is identical either way,
  // the bench measures the delivery tier.
  const int kOrbitFrames = orbit ? 8 : 1;
  std::vector<render::Image> frames;
  for (int i = 0; i < kOrbitFrames; ++i) {
    scene::Camera cam = scene::Camera::framing(elle_tree().world_bounds());
    const double angle = 2.0 * 3.14159265358979 * i / 16.0;
    const double radius = std::sqrt(cam.eye.x * cam.eye.x + cam.eye.z * cam.eye.z);
    cam.eye.x = static_cast<float>(radius * std::sin(angle));
    cam.eye.z = static_cast<float>(radius * std::cos(angle));
    frames.push_back(render::render_tree(elle_tree(), cam, 200, 200).to_image());
  }

  const auto quality_of = [](int i) {
    return i % 2 == 0 ? compress::QualityClass::Workstation : compress::QualityClass::Pda;
  };
  const int pda_subs = subscribers / 2;
  const int ws_subs = subscribers - pda_subs;
  uint64_t wire_bytes = 0, encodes = 0, frames_published = 0;
  uint64_t pda_bytes = 0, ws_bytes = 0;  // per-class unicast totals

  if (!cached) {
    // Pre-caching delivery: every subscriber gets its own encode of every
    // frame and its own unicast payload (what serve_frame does per pull).
    const std::array<const compress::ImageCodec*, 2> codecs = {
        compress::make_codec(compress::codec_for_quality(compress::QualityClass::Workstation)),
        compress::make_codec(compress::codec_for_quality(compress::QualityClass::Pda))};
    size_t frame_index = 0;
    for (auto _ : state) {
      const render::Image& frame = frames[frame_index++ % frames.size()];
      for (int i = 0; i < subscribers; ++i) {
        const compress::EncodedImage encoded =
            codecs[static_cast<size_t>(quality_of(i))]->encode(frame, nullptr);
        wire_bytes += encoded.byte_size();
        (quality_of(i) == compress::QualityClass::Pda ? pda_bytes : ws_bytes) +=
            encoded.byte_size();
        ++encodes;
      }
      ++frames_published;
    }
  } else {
    core::FrameStreamOptions options;
    options.tile_size = 64;
    core::FrameStreamPublisher publisher(options);
    std::vector<net::ChannelPtr> sinks;
    for (int i = 0; i < subscribers; ++i) {
      auto [server_end, client_end] = net::make_channel_pair();
      publisher.subscribe(std::move(server_end), quality_of(i));
      sinks.push_back(std::move(client_end));
    }
    size_t frame_index = 0;
    for (auto _ : state) {
      (void)publisher.publish_frame(frames[frame_index++ % frames.size()]);
      // Drain deliveries so queues stay bounded; this is part of the
      // delivery cost and stays inside the timed region.
      for (const net::ChannelPtr& sink : sinks)
        while (sink->try_receive().has_value()) {
        }
      ++frames_published;
    }
    ws_bytes = publisher.hub(compress::QualityClass::Workstation).unicast_bytes();
    pda_bytes = publisher.hub(compress::QualityClass::Pda).unicast_bytes();
    wire_bytes = ws_bytes + pda_bytes;
    encodes = publisher.memo().stats().misses;
  }

  if (frames_published > 0) {
    state.counters["wire_bytes_per_frame"] = benchmark::Counter(
        static_cast<double>(wire_bytes) / static_cast<double>(frames_published));
    state.counters["encodes_per_frame"] = benchmark::Counter(
        static_cast<double>(encodes) / static_cast<double>(frames_published));
    // Virtual last-mile cost under net/simlink's link model (the paper's
    // two networks): seconds to push one subscriber's share of a frame
    // down its class link — serialization delay on the shared 11 Mbit
    // wireless for PDAs, switched 100 Mbit ethernet for workstations.
    const net::LinkProfile wireless = net::wireless_11mbit();
    const net::LinkProfile ethernet = net::ethernet_100mbit();
    if (pda_subs > 0)
      state.counters["pda_wireless_s_per_frame"] = benchmark::Counter(
          wireless.delivery_seconds(pda_bytes / static_cast<uint64_t>(pda_subs) /
                                    frames_published));
    if (ws_subs > 0)
      state.counters["ws_ethernet_s_per_frame"] = benchmark::Counter(
          ethernet.delivery_seconds(ws_bytes / static_cast<uint64_t>(ws_subs) /
                                    frames_published));
  }
  state.SetLabel(std::string(cached ? "cached" : "uncached") + " " +
                 (orbit ? "orbit" : "static") + " n=" + std::to_string(subscribers));
}
BENCHMARK(BM_Fanout)
    ->Args({100, 0, 0})
    ->Args({100, 1, 0})
    ->Args({1000, 0, 0})
    ->Args({1000, 1, 0})
    ->Args({1000, 0, 1})
    ->Args({1000, 1, 1})
    ->Unit(benchmark::kMillisecond);

// One frame of the stream, end to end over the reactor's loopback: an
// orbiting 640x480 Elle frame published to one Workstation and one Pda
// subscriber, then received and assembled by both. The encode memo holds
// fewer tiles than the cycle of 24 frames, so every changed tile encodes
// as it would in a never-repeating orbit. Arg 0 = the publisher encodes
// serially (0) or on the shared pool (1); receivers always decode on the
// shared pool.
void BM_StreamFrame(benchmark::State& state) {
  const bool pooled = state.range(0) != 0;
  constexpr int kFrames = 24;
  std::vector<render::Image> frames;
  scene::Camera cam = scene::Camera::framing(elle_tree().world_bounds());
  cam.dolly(0.8f * (cam.target - cam.eye).length());
  for (int i = 0; i < kFrames; ++i) {
    cam.orbit(0.05f, 0.0f);
    frames.push_back(render::render_tree(elle_tree(), cam, 640, 480).to_image());
  }

  std::mutex accept_mu;
  std::condition_variable accept_cv;
  std::vector<net::ChannelPtr> accepted;
  auto listener = net::Reactor::global().listen(0, [&](net::ChannelPtr channel) {
    std::lock_guard lock(accept_mu);
    accepted.push_back(std::move(channel));
    accept_cv.notify_all();
  });
  if (!listener.ok()) {
    state.SkipWithError(listener.error().c_str());
    return;
  }
  const std::array<compress::QualityClass, 2> classes = {compress::QualityClass::Workstation,
                                                         compress::QualityClass::Pda};
  core::FrameStreamOptions options;
  options.encode_memo_capacity = 256;
  core::FrameStreamPublisher publisher(options, pooled ? &util::ThreadPool::shared() : nullptr);
  std::vector<std::unique_ptr<core::FrameStreamReceiver>> receivers;
  for (const compress::QualityClass quality : classes) {
    auto dialed = net::tcp_connect("127.0.0.1", listener.value()->port());
    if (!dialed.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    std::unique_lock lock(accept_mu);
    if (!accept_cv.wait_for(lock, std::chrono::seconds(5),
                            [&] { return accepted.size() == receivers.size() + 1; })) {
      state.SkipWithError("accept timed out");
      return;
    }
    publisher.subscribe(accepted.back(), quality);
    receivers.push_back(
        std::make_unique<core::FrameStreamReceiver>(std::move(dialed).take(), quality, options));
  }
  listener.value()->close();

  util::RealClock clock;
  size_t next = 0;
  for (auto _ : state) {
    (void)publisher.publish_frame(frames[next++ % frames.size()]);
    for (auto& receiver : receivers) {
      auto frame = receiver->next_frame(clock, 5.0);
      if (!frame.ok()) {
        state.SkipWithError(frame.error().c_str());
        return;
      }
      benchmark::DoNotOptimize(frame.value().rgb.data());
    }
  }
  const auto& memo = publisher.memo().stats();
  state.counters["encodes_per_frame"] = benchmark::Counter(
      static_cast<double>(memo.misses) / static_cast<double>(std::max<size_t>(next, 1)));
  state.counters["wire_bytes_per_frame"] = benchmark::Counter(
      static_cast<double>(publisher.stats().ref_bytes + publisher.stats().data_bytes) /
      static_cast<double>(std::max<size_t>(next, 1)));
  state.SetLabel(std::string(pooled ? "shared pool" : "serial") + " encode, " +
                 util::simd_level_name(util::active_simd_level()));
  for (const auto& channel : accepted) channel->close();
}
BENCHMARK(BM_StreamFrame)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_SoapCallRoundTrip(benchmark::State& state) {
  services::SoapCall call;
  call.service = "render";
  call.method = "queryCapacity";
  call.args = {services::SoapValue{"session"}, services::SoapValue{int64_t{42}}};
  for (auto _ : state) {
    const std::string xml = services::encode_call(call);
    benchmark::DoNotOptimize(services::decode_call(xml));
  }
}
BENCHMARK(BM_SoapCallRoundTrip);

// Real-TCP publish fan-out: one 64 KiB frame per iteration through a
// FanoutHub to N loopback subscribers, `slow` of which drain at only one
// frame per 20 ms (a wireless client that cannot keep up). Every channel
// runs on the epoll reactor with bounded write queues and drop-newest
// shed; the result is per-publish latency. Arg 0 = subscribers, arg 1 =
// slow.
void BM_Transport(benchmark::State& state) {
  const int subscribers = static_cast<int>(state.range(0));
  const int slow = static_cast<int>(state.range(1));
  // Latch bounded-queue shedding before the first channel exists. Soft
  // setenv: an explicit RAVE_NET_QUEUE/RAVE_NET_SHED in the environment
  // wins.
  ::setenv("RAVE_NET_QUEUE", "64", 0);
  ::setenv("RAVE_NET_SHED", "drop-newest", 0);

  std::mutex accept_mu;
  std::condition_variable accept_cv;
  std::vector<net::ChannelPtr> publishers;  // accepted (publisher-side) ends
  auto listener = net::Reactor::global().listen(0, [&](net::ChannelPtr channel) {
    std::lock_guard lock(accept_mu);
    publishers.push_back(std::move(channel));
    accept_cv.notify_all();
  });
  if (!listener.ok()) {
    state.SkipWithError(listener.error().c_str());
    return;
  }
  std::vector<net::ChannelPtr> readers;  // dialed (subscriber-side) ends
  for (int i = 0; i < subscribers; ++i) {
    auto dialed = net::tcp_connect("127.0.0.1", listener.value()->port());
    if (!dialed.ok()) {
      state.SkipWithError("connect failed");
      return;
    }
    readers.push_back(std::move(dialed).take());
  }
  {
    std::unique_lock lock(accept_mu);
    if (!accept_cv.wait_for(lock, std::chrono::seconds(5), [&] {
          return publishers.size() == static_cast<size_t>(subscribers);
        })) {
      state.SkipWithError("accept timed out");
      return;
    }
  }
  listener.value()->close();
  net::FanoutHub hub;
  for (const auto& channel : publishers) hub.subscribe(channel);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> frames_read{0};
  std::vector<std::thread> drains;
  drains.reserve(static_cast<size_t>(subscribers));
  for (int i = 0; i < subscribers; ++i) {
    const bool is_slow = i < slow;
    drains.emplace_back([channel = readers[static_cast<size_t>(i)], is_slow, &done,
                         &frames_read] {
      while (!done.load(std::memory_order_relaxed)) {
        auto msg = channel->receive_result(0.05);
        if (!msg.ok()) {
          if (!channel->is_open()) break;
          continue;  // timeout: poll the done flag again
        }
        frames_read.fetch_add(1, std::memory_order_relaxed);
        if (is_slow) std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    });
  }

  std::vector<double> publish_ms;
  publish_ms.reserve(1 << 16);
  const std::vector<uint8_t> block(64 * 1024, 0x5A);
  for (auto _ : state) {
    // A fresh Buffer per frame (distinct frames, as the frame stream
    // produces); subscribers share it by refcount, never by copy.
    net::Message frame(0x0133, {1, 2, 3, 4}, net::Buffer::take(std::vector<uint8_t>(block)));
    const auto t0 = std::chrono::steady_clock::now();
    hub.publish(frame);
    publish_ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
            .count());
  }

  done.store(true);
  for (const auto& channel : publishers) channel->close();
  for (std::thread& t : drains) t.join();

  std::sort(publish_ms.begin(), publish_ms.end());
  const size_t n = publish_ms.size();
  uint64_t sheds = 0;
  for (const auto& channel : publishers) sheds += channel->stats().messages_shed;
  state.counters["p50_ms"] = n ? publish_ms[n / 2] : 0.0;
  state.counters["p99_ms"] = n ? publish_ms[(n * 99) / 100 < n ? (n * 99) / 100 : n - 1] : 0.0;
  state.counters["shed_frac"] = static_cast<double>(sheds) /
                                (static_cast<double>(state.iterations()) * subscribers);
  state.counters["frames_read"] = static_cast<double>(frames_read.load());
}
BENCHMARK(BM_Transport)
    ->Args({16, 0})
    ->Args({8, 2})
    ->Args({16, 4})
    ->Args({32, 8})
    ->Args({64, 16})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
}  // namespace

BENCHMARK_MAIN();
