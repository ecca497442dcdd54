// ServiceConfig: the knobs shared by every RAVE service. DataService and
// RenderService Options both inherit it, so the fault-tolerance settings
// (dial retry, leases, tile timeouts) live in one place.
//
// Leases and tile timeouts default to disabled (0), and the retry policy
// dials once.
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
  // Schedule of the render service's fabric dials (to its data service
  // and its assistants). max_attempts=1 fails fast; raise it to ride out
  // transient link loss.
  RetryPolicy retry{.max_attempts = 1};
  // Data service only: a render service or client that sends nothing for
  // this long is declared failed and its nodes are re-dispatched; 0
  // disables lease expiry.
  double lease_seconds = 0.0;
  // How long a dispatched peer tile may stay unanswered before the
  // requester abandons that assistant and re-dispatches its tile;
  // 0 = wait forever.
  double tile_timeout = 0.0;
};

}  // namespace rave::core
