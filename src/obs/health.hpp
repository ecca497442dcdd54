// Health states for the canary-driven failure detector, and the advisory
// list the planner reads. Dependency-free (rave_util only) so the whole
// stack can speak it: the canary produces verdicts, the status "snapshot"
// SOAP method publishes them, the SLO engine and the canary both speak
// advisories, DataService consumes them for pre-lease eviction and
// rebalance triggers, and plan_migration takes them as input.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace rave::obs {

// Unknown  — no probe has completed yet (treated as healthy: absence of
//            evidence is not evidence of sickness).
// Healthy  — last probe delivered an on-time, integrity-checked frame.
// Degraded — frames arrive but late (older than the degraded-age bound);
//            a migration advisory, not an eviction trigger.
// Unhealthy— `unhealthy_after` consecutive probes failed (no frame, or a
//            frame that failed its hash check); the failure detector may
//            evict before the lease expires.
enum class HealthState : uint8_t { Unknown = 0, Healthy, Degraded, Unhealthy };

inline const char* to_string(HealthState state) {
  switch (state) {
    case HealthState::Unknown: return "unknown";
    case HealthState::Healthy: return "healthy";
    case HealthState::Degraded: return "degraded";
    case HealthState::Unhealthy: return "unhealthy";
  }
  return "?";
}

struct HealthVerdict {
  std::string host;
  HealthState state = HealthState::Unknown;
  std::string reason;  // human-readable cause of the current state
  uint64_t frames_ok = 0;
  uint64_t frames_late = 0;
  uint64_t frames_failed = 0;
  double join_seconds = -1;     // join-to-first-frame; -1 until measured
  double last_frame_age = -1;   // publish→deliver age of the last frame; -1 = none
};

// One reason a host should not take more work. Advisory, not
// authoritative: ServiceFailed always wins in the planner.
//   Slo     — an objective is burning (the SLO engine, always Critical).
//   Anomaly — a watched metric step-changed; Critical when its objective
//             is also burning, Warning otherwise.
//   Canary  — the blackbox verdict: Degraded is a Warning, Unhealthy is
//             Critical (the failure detector evicts before the lease).
// A Critical trend advisory (Slo or Anomaly) is overload pressure and
// triggers a rebalance round; every advisory disqualifies a receiver.
struct Advisory {
  enum class Source : uint8_t { Slo, Anomaly, Canary };
  enum class Severity : uint8_t { Warning, Critical };
  Source source = Source::Slo;
  Severity severity = Severity::Warning;
  std::string reason;  // verbatim from the producer, for explain text

  // An SLO burn: overload pressure that triggers a rebalance round.
  [[nodiscard]] bool burning() const {
    return source != Source::Canary && severity == Severity::Critical;
  }
  // An Unhealthy canary verdict: the service is evicted before its lease.
  [[nodiscard]] bool condemns() const {
    return source == Source::Canary && severity == Severity::Critical;
  }
};

// The planner's view of a canary verdict: nothing for Unknown or Healthy.
inline std::optional<Advisory> advisory_of(const HealthVerdict& verdict) {
  if (verdict.state < HealthState::Degraded) return std::nullopt;
  return Advisory{Advisory::Source::Canary,
                  verdict.state == HealthState::Unhealthy ? Advisory::Severity::Critical
                                                          : Advisory::Severity::Warning,
                  verdict.reason};
}

}  // namespace rave::obs
