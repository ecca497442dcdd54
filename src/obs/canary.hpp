// Blackbox canary probes — synthetic thin clients that watch a render
// service exactly the way a user would (Rendering-as-a-Service needs
// external health probes, arXiv:1505.06543). One probe per quality class
// subscribes to the *real* cached frame stream, so a canary verdict
// covers the whole delivery path: publish, fan-out, tile cache, decode,
// and the receiver's frame-hash integrity check. Probes measure
// join-to-first-frame and steady-state frame age into rave_canary_*
// metrics, and fold into a per-service Healthy/Degraded/Unhealthy state
// machine (obs/health.hpp) consumed by the failure detector (eviction
// before lease expiry) and the migration planner (health advisory).
//
// Lives in src/obs but compiles into rave_core: it drives core's
// ThinClient, which the rave_obs library sits below.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compress/tile_cache.hpp"
#include "core/fabric.hpp"
#include "core/frame_stream.hpp"
#include "obs/health.hpp"
#include "util/clock.hpp"

namespace rave::core {
class ThinClient;
}

namespace rave::obs {

class Canary {
 public:
  struct Options {
    double frame_timeout = 2.0;  // probe deadline, clock seconds
    int unhealthy_after = 2;     // consecutive failed probes => Unhealthy
    // One probe per listed class; default covers every class.
    std::vector<compress::QualityClass> qualities = {compress::QualityClass::Workstation,
                                                     compress::QualityClass::Pda};
  };

  // Two overloads — the brace default for a nested Options with member
  // initializers trips GCC (same workaround as Collector).
  Canary(util::Clock& clock, core::Fabric& fabric) : Canary(clock, fabric, Options()) {}
  Canary(util::Clock& clock, core::Fabric& fabric, Options options);
  ~Canary();

  // Start probing `host`'s render service: dial its client access point,
  // bind to `session`, subscribe one streaming probe per quality class.
  // A failed connect is the first strike, not an error — the probe
  // retries on the next probe_all.
  void watch(const std::string& host, const std::string& client_access_point,
             const std::string& session);
  void forget(const std::string& host);
  [[nodiscard]] size_t probe_count() const { return probes_.size(); }

  // Run every probe once: pull the next streamed frame, classify it
  // (ok / late / failed), update metrics and the per-host state machine.
  // `pump` drives the in-process grid between receives. Returns probes
  // attempted.
  size_t probe_all(const std::function<void()>& pump = {});

  // Current verdict for one host (Unknown if unwatched) — the worst
  // state across its quality-class probes, with counters summed.
  [[nodiscard]] HealthVerdict verdict(const std::string& host) const;
  // All watched hosts, insertion order.
  [[nodiscard]] std::vector<HealthVerdict> verdicts() const;

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct Probe {
    std::string host;
    std::string access_point;
    std::string session;
    compress::QualityClass quality = compress::QualityClass::Workstation;
    std::unique_ptr<core::ThinClient> client;
    bool subscribed = false;
    double watch_start = 0;     // when watch() armed this probe
    double join_seconds = -1;   // first-frame latency; -1 until measured
    double last_frame_age = -1;
    uint64_t frames_ok = 0;
    uint64_t frames_late = 0;
    uint64_t frames_failed = 0;
    int consecutive_failures = 0;
    HealthState state = HealthState::Unknown;
    std::string reason;
  };

  void probe_one(Probe& probe, const std::function<void()>& pump);
  void set_state(Probe& probe, HealthState state, const std::string& reason);

  util::Clock* clock_;
  core::Fabric* fabric_;
  Options options_;
  std::vector<Probe> probes_;  // insertion order: deterministic probing
};

}  // namespace rave::obs
