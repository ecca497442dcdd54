// Unit tests for the util substrate: math, results, serialization, clocks,
// thread pool.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>
#include <thread>

#include "util/clock.hpp"
#include "util/log.hpp"
#include "util/result.hpp"
#include "util/serial.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"
#include "util/vec.hpp"

namespace rave::util {
namespace {

TEST(Vec3, BasicArithmetic) {
  const Vec3 a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (Vec3{5, 7, 9}));
  EXPECT_EQ(b - a, (Vec3{3, 3, 3}));
  EXPECT_EQ(a * 2.0f, (Vec3{2, 4, 6}));
  EXPECT_FLOAT_EQ(dot(a, b), 32.0f);
}

TEST(Vec3, CrossProductIsOrthogonal) {
  const Vec3 a{1, 0, 0}, b{0, 1, 0};
  EXPECT_EQ(cross(a, b), (Vec3{0, 0, 1}));
  const Vec3 v1{1.5f, -2.0f, 0.3f}, v2{0.7f, 4.0f, -1.1f};
  const Vec3 c = cross(v1, v2);
  EXPECT_NEAR(dot(c, v1), 0.0f, 1e-5f);
  EXPECT_NEAR(dot(c, v2), 0.0f, 1e-5f);
}

TEST(Vec3, NormalizeHandlesZero) {
  EXPECT_EQ(normalize(Vec3{0, 0, 0}), (Vec3{0, 0, 0}));
  const Vec3 n = normalize(Vec3{3, 4, 0});
  EXPECT_NEAR(n.length(), 1.0f, 1e-6f);
}

TEST(Mat4, IdentityIsNeutral) {
  const Mat4 id = Mat4::identity();
  const Vec3 p{1.5f, -2.5f, 3.0f};
  EXPECT_EQ(id.transform_point(p), p);
  const Mat4 m = Mat4::translate({1, 2, 3}) * Mat4::scale({2, 2, 2});
  EXPECT_EQ((m * id).m, m.m);
  EXPECT_EQ((id * m).m, m.m);
}

TEST(Mat4, TranslateThenScaleComposition) {
  const Mat4 m = Mat4::translate({1, 0, 0}) * Mat4::scale({2, 2, 2});
  // Scale applies first (column-major composition).
  const Vec3 p = m.transform_point({1, 1, 1});
  EXPECT_EQ(p, (Vec3{3, 2, 2}));
}

TEST(Mat4, RotationPreservesLength) {
  const Mat4 r = Mat4::rotate_y(0.7f) * Mat4::rotate_x(-1.2f) * Mat4::rotate_z(2.1f);
  const Vec3 p{1, 2, 3};
  EXPECT_NEAR(r.transform_point(p).length(), p.length(), 1e-4f);
}

TEST(Mat4, InverseRoundTrip) {
  const Mat4 m = Mat4::translate({4, -2, 7}) * Mat4::rotate_y(0.3f) * Mat4::scale({2, 3, 0.5f});
  const Mat4 inv = m.inverse();
  const Vec3 p{1.2f, 3.4f, -0.6f};
  const Vec3 round = inv.transform_point(m.transform_point(p));
  EXPECT_NEAR(round.x, p.x, 1e-3f);
  EXPECT_NEAR(round.y, p.y, 1e-3f);
  EXPECT_NEAR(round.z, p.z, 1e-3f);
}

TEST(Mat4, LookAtMapsEyeToOrigin) {
  const Vec3 eye{5, 3, 8};
  const Mat4 view = Mat4::look_at(eye, {0, 0, 0}, {0, 1, 0});
  const Vec3 at_origin = view.transform_point(eye);
  EXPECT_NEAR(at_origin.length(), 0.0f, 1e-4f);
  // The target lies on the -Z axis in view space.
  const Vec3 target_view = view.transform_point({0, 0, 0});
  EXPECT_LT(target_view.z, 0.0f);
  EXPECT_NEAR(target_view.x, 0.0f, 1e-4f);
}

TEST(Mat4, PerspectiveMapsNearFarPlanes) {
  const Mat4 proj = Mat4::perspective(deg_to_rad(60.0f), 1.0f, 1.0f, 100.0f);
  const Vec4 near_point = proj * Vec4{0, 0, -1.0f, 1.0f};
  EXPECT_NEAR(near_point.z / near_point.w, -1.0f, 1e-4f);
  const Vec4 far_point = proj * Vec4{0, 0, -100.0f, 1.0f};
  EXPECT_NEAR(far_point.z / far_point.w, 1.0f, 1e-4f);
}

TEST(Aabb, ExtendAndContains) {
  Aabb box;
  EXPECT_FALSE(box.valid());
  box.extend({1, 1, 1});
  box.extend({-1, 2, 0});
  EXPECT_TRUE(box.valid());
  EXPECT_TRUE(box.contains({0, 1.5f, 0.5f}));
  EXPECT_FALSE(box.contains({0, 3, 0}));
  EXPECT_EQ(box.center(), (Vec3{0, 1.5f, 0.5f}));
}

TEST(Aabb, TransformedCoversRotatedCorners) {
  Aabb box;
  box.extend({-1, -1, -1});
  box.extend({1, 1, 1});
  const Aabb rotated = box.transformed(Mat4::rotate_z(kPi / 4.0f));
  EXPECT_NEAR(rotated.hi.x, std::sqrt(2.0f), 1e-4f);
  EXPECT_NEAR(rotated.lo.x, -std::sqrt(2.0f), 1e-4f);
}

TEST(Result, ValueAndError) {
  Result<int> good(42);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  Result<int> bad = make_error("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
  EXPECT_EQ(bad.value_or(7), 7);
}

TEST(Status, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  Status failed = make_error("broken");
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.error(), "broken");
}

TEST(Serial, ScalarRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0xCDEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i32(-12345);
  w.f32(3.25f);
  w.f64(-1.5e100);
  w.boolean(true);
  w.str("hello rave");
  ByteReader r(w.data());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i32(), -12345);
  EXPECT_FLOAT_EQ(r.f32(), 3.25f);
  EXPECT_DOUBLE_EQ(r.f64(), -1.5e100);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "hello rave");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serial, WireFormatIsLittleEndian) {
  ByteWriter w;
  w.u32(0x01020304);
  ASSERT_EQ(w.data().size(), 4u);
  EXPECT_EQ(w.data()[0], 0x04);
  EXPECT_EQ(w.data()[3], 0x01);
}

TEST(Serial, OverReadSetsErrorFlagNotUb) {
  ByteWriter w;
  w.u16(7);
  ByteReader r(w.data());
  (void)r.u32();
  EXPECT_FALSE(r.ok());
}

TEST(Serial, SpansRoundTrip) {
  std::vector<float> floats{1.0f, -2.5f, 3.75f};
  std::vector<uint32_t> ints{10, 20, 4000000000u};
  ByteWriter w;
  w.f32_span(floats);
  w.u32_span(ints);
  ByteReader r(w.data());
  EXPECT_EQ(r.f32_span(), floats);
  EXPECT_EQ(r.u32_span(), ints);
}

TEST(Base64, RoundTripAllLengths) {
  for (size_t len = 0; len < 32; ++len) {
    std::vector<uint8_t> data(len);
    std::iota(data.begin(), data.end(), static_cast<uint8_t>(len));
    const std::string text = base64_encode(data);
    auto back = base64_decode(text);
    ASSERT_TRUE(back.ok()) << back.error();
    EXPECT_EQ(back.value(), data) << "length " << len;
  }
}

TEST(Base64, KnownVector) {
  const std::string text = base64_encode(std::vector<uint8_t>{'M', 'a', 'n'});
  EXPECT_EQ(text, "TWFu");
  EXPECT_FALSE(base64_decode("not*valid!").ok());
}

TEST(SimClock, AdvanceAndAutoAdvanceWait) {
  SimClock clock(10.0);
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
  clock.advance(2.5);
  EXPECT_DOUBLE_EQ(clock.now(), 12.5);
  clock.wait_until(20.0);  // auto-advance: moves time itself
  EXPECT_DOUBLE_EQ(clock.now(), 20.0);
  clock.wait_until(5.0);  // never goes backwards
  EXPECT_DOUBLE_EQ(clock.now(), 20.0);
}

TEST(SimClock, BlockingWaitReleasedByAdvance) {
  SimClock clock;
  clock.set_auto_advance(false);
  std::thread waiter([&] { clock.wait_until(1.0); });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  clock.advance(2.0);
  waiter.join();
  EXPECT_GE(clock.now(), 1.0);
}

TEST(RealClock, MonotonicAndSleeps) {
  RealClock clock;
  const double t0 = clock.now();
  clock.sleep_for(0.01);
  EXPECT_GE(clock.now() - t0, 0.009);
}

TEST(ThreadPool, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> done;
  done.reserve(100);
  for (int i = 0; i < 100; ++i)
    done.push_back(pool.submit_future([&] { count.fetch_add(1); }));
  for (auto& f : done) f.get();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, ParallelForCoversRange) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, ParallelForFromPoolWorkersDoesNotDeadlock) {
  // Regression: render-service sessions run on the pool and call
  // parallel_for from worker threads. Before the caller helped drain its
  // own range this deadlocked once every worker was blocked waiting.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  std::vector<std::future<void>> done;
  for (int i = 0; i < 4; ++i) {
    done.push_back(pool.submit_future(
        [&] { pool.parallel_for(16, [&](size_t) { total.fetch_add(1); }); }));
  }
  for (auto& f : done) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(60)), std::future_status::ready)
        << "nested parallel_for deadlocked";
    f.get();
  }
  EXPECT_EQ(total.load(), 4 * 16);
}

TEST(ThreadPool, ParallelForNestedInsideParallelFor) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.parallel_for(4, [&](size_t) {
    pool.parallel_for(8, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4 * 8);
}

// --- environment parses (RAVE_LOG, RAVE_SIMD) ----------------------------------

TEST(EnvParse, LogLevelNamesRoundTripAndRejectsTheRest) {
  const struct {
    const char* text;
    bool ok;
    LogLevel level;
  } cases[] = {
      {"trace", true, LogLevel::Trace}, {"debug", true, LogLevel::Debug},
      {"info", true, LogLevel::Info},   {"warn", true, LogLevel::Warn},
      {"error", true, LogLevel::Error}, {"off", true, LogLevel::Off},
      {"verbose", false, {}},           {"WARN", false, {}},
      {"", false, {}},                  {"info ", false, {}},
      {nullptr, false, {}},
  };
  for (const auto& c : cases) {
    LogLevel level = LogLevel::Warn;
    EXPECT_EQ(parse_log_level(c.text, level), c.ok) << (c.text ? c.text : "(null)");
    if (c.ok) {
      EXPECT_EQ(level, c.level) << c.text;
      EXPECT_STREQ(log_level_name(level), c.text);
    } else {
      EXPECT_EQ(level, LogLevel::Warn);  // untouched on failure
    }
  }
}

TEST(EnvParse, SimdLevelNamesRoundTripAndRejectsTheRest) {
  const struct {
    const char* text;
    bool ok;
    SimdLevel level;
  } cases[] = {
      {"scalar", true, SimdLevel::Scalar}, {"sse2", true, SimdLevel::Sse2},
      {"avx2", true, SimdLevel::Avx2},     {"neon", true, SimdLevel::Neon},
      {"AVX2", false, {}},                 {"avx512", false, {}},
      {"", false, {}},                     {nullptr, false, {}},
  };
  for (const auto& c : cases) {
    SimdLevel level = SimdLevel::Scalar;
    EXPECT_EQ(parse_simd_level(c.text, level), c.ok) << (c.text ? c.text : "(null)");
    if (c.ok) {
      EXPECT_EQ(level, c.level) << c.text;
    }
  }
}

}  // namespace
}  // namespace rave::util
