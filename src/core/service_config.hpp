// ServiceConfig: the knobs shared by every RAVE service, collapsed from
// the per-class ad-hoc Options fields that had accreted on DataService
// and RenderService. Both services' Options structs now *inherit* this,
// so `options.target_fps = 30` keeps working everywhere while the
// fault-tolerance layer (retry policy, leases, tile timeouts) is
// configured in exactly one documented place.
//
// Every default is back-compat: leases and tile timeouts default to
// *disabled* (0), and the retry policy preserves the old single-attempt
// dial semantics unless a caller opts into retries.
#pragma once

#include "core/capacity.hpp"
#include "core/failure_detector.hpp"

namespace rave::core {

struct ServiceConfig {
  // --- workload ------------------------------------------------------------
  // Interactive frame-rate target; drives polygon budgets for
  // distribution and migration planning (§3.2.5), and one period is how
  // long a tile-mode frame waits for its assistants' tiles.
  double target_fps = 15.0;
  // Over/underload hysteresis for the smoothed fps tracker (§3.2.7).
  LoadThresholds thresholds{};

  // --- fault tolerance -------------------------------------------------------
  // Dial/request retry schedule. max_attempts=1 reproduces the historic
  // fail-fast behaviour; raise it to ride out transient link loss.
  RetryPolicy retry{.max_attempts = 1};
  // How often a service re-asserts liveness (registry heartbeats, load
  // reports used as data-plane heartbeats), seconds.
  double heartbeat_interval = 0.5;
  // Lease a peer holds before it is declared failed; 0 disables lease
  // expiry (back-compat: seed behaviour had no failure detection).
  double lease_seconds = 0.0;
  // How long a dispatched peer tile may stay unanswered before the
  // requester abandons that assistant and re-dispatches its tile;
  // 0 = wait forever.
  double tile_timeout = 0.0;
};

}  // namespace rave::core
