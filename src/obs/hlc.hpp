// Hybrid logical clock (the health plane's causal timebase). Wall clocks
// on different grid hosts drift; a migration storm spans hosts, and the
// merged timeline must order "lease expired on A" before "re-dispatch on
// B" even when B's wall clock runs ahead. An HLC stamp is (wall, logical):
// wall tracks the local physical clock but never runs backwards past a
// remote stamp it has observed, and logical breaks ties among events that
// share a wall reading — so stamp order is consistent with message
// causality (send happens-before receive) across every host.
//
// Stamps ride net::Message behind an optional wire flag next to the
// 0x8000 trace flag; unstamped traffic stays byte-identical on both
// transport engines. The clock is off by default (the health-plane tools
// call set_enabled), and the disabled path is one relaxed atomic load per
// site.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

namespace rave::util {
class Clock;
}
namespace rave::net {
struct Message;
}

namespace rave::obs {

struct HlcStamp {
  uint64_t wall = 0;     // physical microseconds, monotone per clock
  uint32_t logical = 0;  // tie-breaker; >= 1 on every issued stamp
  [[nodiscard]] bool valid() const { return wall != 0 || logical != 0; }
};

inline bool operator<(const HlcStamp& a, const HlcStamp& b) {
  if (a.wall != b.wall) return a.wall < b.wall;
  return a.logical < b.logical;
}
inline bool operator==(const HlcStamp& a, const HlcStamp& b) {
  return a.wall == b.wall && a.logical == b.logical;
}

class Hlc {
 public:
  static Hlc& global();

  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // Physical time source; null falls back to the process steady clock.
  // obs::set_clock installs the SimClock here for byte-stable stamps.
  void set_clock(const util::Clock* clock);

  // Stamp a local event (including a send). wall = max(previous wall,
  // physical now); logical increments when wall stands still.
  HlcStamp tick();

  // Merge a remote stamp observed on a received message, then tick: the
  // returned stamp orders after both the local past and the sender.
  HlcStamp observe(HlcStamp remote);

  [[nodiscard]] HlcStamp current() const;

  void reset();

 private:
  [[nodiscard]] uint64_t physical_micros() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  const util::Clock* clock_ = nullptr;
  HlcStamp state_;
};

// Message stamping, mirroring core's stamp_trace/trace_of: a no-op unless
// the global clock is enabled, so unstamped wire traffic is byte-identical
// to the pre-HLC format.
void stamp_hlc(net::Message& msg);
// Merge the stamp a received message carried (if any) into the local
// clock; returns the message's stamp (invalid when unstamped).
HlcStamp observe_hlc(const net::Message& msg);

}  // namespace rave::obs
