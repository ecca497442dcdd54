#include "obs/hlc.hpp"

#include <chrono>

#include "net/channel.hpp"
#include "util/clock.hpp"

namespace rave::obs {

Hlc& Hlc::global() {
  static Hlc* clock = new Hlc();  // never destroyed
  return *clock;
}

void Hlc::set_clock(const util::Clock* clock) {
  std::lock_guard lock(mu_);
  clock_ = clock;
}

uint64_t Hlc::physical_micros() const {
  if (clock_ != nullptr) return static_cast<uint64_t>(clock_->now() * 1e6 + 0.5);
  const auto now = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(now).count());
}

HlcStamp Hlc::tick() {
  std::lock_guard lock(mu_);
  const uint64_t phys = physical_micros();
  if (phys > state_.wall) {
    state_.wall = phys;
    state_.logical = 1;
  } else {
    ++state_.logical;
  }
  return state_;
}

HlcStamp Hlc::observe(HlcStamp remote) {
  if (!remote.valid()) return tick();
  std::lock_guard lock(mu_);
  const uint64_t phys = physical_micros();
  const uint64_t wall = std::max(std::max(state_.wall, remote.wall), phys);
  if (wall == state_.wall && wall == remote.wall) {
    state_.logical = std::max(state_.logical, remote.logical) + 1;
  } else if (wall == state_.wall) {
    ++state_.logical;
  } else if (wall == remote.wall) {
    state_.logical = remote.logical + 1;
  } else {
    state_.logical = 1;
  }
  state_.wall = wall;
  return state_;
}

HlcStamp Hlc::current() const {
  std::lock_guard lock(mu_);
  return state_;
}

void Hlc::reset() {
  std::lock_guard lock(mu_);
  state_ = HlcStamp{};
}

void stamp_hlc(net::Message& msg) {
  Hlc& clock = Hlc::global();
  if (!clock.enabled()) return;
  const HlcStamp stamp = clock.tick();
  msg.hlc_wall = stamp.wall;
  msg.hlc_logical = stamp.logical;
}

HlcStamp observe_hlc(const net::Message& msg) {
  const HlcStamp stamp{msg.hlc_wall, msg.hlc_logical};
  if (!stamp.valid()) return stamp;
  Hlc& clock = Hlc::global();
  if (clock.enabled()) (void)clock.observe(stamp);
  return stamp;
}

}  // namespace rave::obs
