// Time source abstraction. All RAVE components take a Clock& rather than
// calling a system clock, so the same code runs against wall time (live
// services, examples) or virtual time (deterministic tests and the
// benchmark harness that reproduces the paper's 2004 testbed timings in
// milliseconds of host time).
#pragma once

#include <condition_variable>
#include <mutex>

namespace rave::util {

// Times are seconds since an arbitrary epoch.
class Clock {
 public:
  virtual ~Clock() = default;

  [[nodiscard]] virtual double now() const = 0;

  // Block (real clock) or advance virtual time (sim clock) until `t`.
  virtual void wait_until(double t) = 0;

  void sleep_for(double seconds) { wait_until(now() + seconds); }

  // Charge modelled time: work the modelled 2004 device would spend that
  // this host does not perform (a thin client's pixel unpack). A virtual
  // clock waits it out like sleep_for; a real clock ignores it, since no
  // host time is spent.
  virtual void charge(double seconds) { sleep_for(seconds); }
};

// Monotonic wall-clock time.
class RealClock final : public Clock {
 public:
  RealClock();
  [[nodiscard]] double now() const override;
  void wait_until(double t) override;
  void charge(double /*seconds*/) override {}

 private:
  double epoch_ = 0.0;
};

// Virtual time under test control. wait_until() advances time directly,
// which makes single-threaded discrete-event simulations trivial; when
// multiple threads share a SimClock, advance() wakes blocked waiters.
class SimClock final : public Clock {
 public:
  explicit SimClock(double start = 0.0) : now_(start) {}

  [[nodiscard]] double now() const override {
    std::lock_guard lock(mu_);
    return now_;
  }

  // Advancing past a waiter's deadline releases it.
  void advance(double dt);
  void advance_to(double t);

  // In auto-advance mode (the default), wait_until() moves time forward
  // itself — pure discrete-event style. With auto-advance off, the call
  // blocks until another thread advances the clock past `t`.
  void set_auto_advance(bool enabled) {
    std::lock_guard lock(mu_);
    auto_advance_ = enabled;
  }

  void wait_until(double t) override;

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  double now_ = 0.0;
  bool auto_advance_ = true;
};

}  // namespace rave::util
