// Status interrogation (paper §4.3: SOAP is used "for initial service
// discovery (via UDDI), status interrogation and subsequent
// subscription"). Each host exposes a "status" SOAP endpoint aggregating
// its services' health; collect_grid_status walks the registry and builds
// the operator's dashboard — sessions, subscribers, loads, render stats —
// for a whole deployment.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/data_service.hpp"
#include "core/render_service.hpp"
#include "obs/health.hpp"
#include "services/container.hpp"

namespace rave::core {

struct SessionStatus {
  std::string name;
  uint64_t nodes = 0;
  uint64_t triangles = 0;
  uint64_t updates = 0;
  size_t subscribers = 0;
};

struct RenderStatus {
  std::string host;
  std::vector<std::string> sessions;
  uint64_t frames_rendered = 0;
  uint64_t peer_tiles_rendered = 0;
  uint64_t updates_applied = 0;
  double last_frame_seconds = 0;
  double polygons_per_sec = 0;
  // Observability families (PR 4): fault-tolerance churn, send-queue
  // backlog, and the frame-latency distribution.
  uint64_t peer_failures = 0;
  uint64_t tiles_redispatched = 0;
  uint64_t delayed_queue_depth = 0;
  double frame_p50_seconds = 0;
  double frame_p99_seconds = 0;
  // Fan-out cache families (PR 6): content-addressed tile delivery and
  // per-quality-class encode memoization across this host's publishers —
  // stream frames and pulls alike.
  uint64_t fanout_tiles_ref = 0;      // tiles shipped as references
  uint64_t fanout_tiles_data = 0;     // tiles shipped with pixels
  uint64_t fanout_encode_hits = 0;    // memoized encodes reused
  uint64_t fanout_encode_misses = 0;  // encodes actually performed
  uint64_t fanout_bytes_saved = 0;    // encoded bytes not re-produced
  uint64_t fanout_miss_replies = 0;   // full-tile fallbacks served
  uint64_t fanout_subscribers = 0;    // stream subscribers right now
  // Volume marcher cost (frame-delivery observability PR): totals plus the
  // rave_volume_seconds distribution, so the dashboard can say how much of
  // a slow frame was ray marching and how much work the macro-cell grid
  // skipped.
  uint64_t volume_rays = 0;
  uint64_t bricks_skipped = 0;
  double volume_p50_seconds = 0;
  double volume_p99_seconds = 0;
  // Per-peer write-queue attribution (reactor transport): which subscriber
  // is slow, by name, instead of a process-wide depth gauge.
  struct PeerQueueStatus {
    std::string peer;
    uint64_t peak_depth = 0;
    double wait_seconds = 0;  // cumulative enqueue→sendmsg wait
    uint64_t shed = 0;        // messages dropped by the queue's shed policy
  };
  std::vector<PeerQueueStatus> peer_queues;
};

struct HostStatus {
  std::string host;
  bool has_data_service = false;
  bool has_render_service = false;
  std::vector<SessionStatus> sessions;
  std::vector<RenderStatus> renders;  // zero or one entry per host
  uint64_t soap_calls_served = 0;
  uint64_t soap_faults = 0;
  // Data-plane failure detection (data service hosts only).
  uint64_t lease_expiries = 0;
  uint64_t recoveries = 0;
  uint64_t canary_evictions = 0;
  // Canary verdict for this host's render service (health plane); state
  // stays "unknown" when no canary watches the host.
  obs::HealthState health_state = obs::HealthState::Unknown;
  std::string health_reason;
  // The most recent migration plan's explain summary (inputs, rejections,
  // chosen actions) across this host's sessions — why the planner did
  // what it did, readable straight off the dashboard.
  std::string last_migration;
};

// Blackbox health source for one host, wired by the grid when the health
// plane is enabled; called at status time so late-created canaries work.
using HealthReportFn = std::function<obs::HealthVerdict()>;

// Register the "status" endpoint on a host's container, reporting on the
// given services (either may be null). Besides "report" this also exposes
// "metrics" (the process-wide registry as Prometheus text exposition),
// "flight" (the flight-recorder export the timeline collector pulls), and
// "health" (the canary verdict from `health`, unknown when unset).
void register_status_endpoint(services::ServiceContainer& container, const std::string& host,
                              DataService* data, RenderService* render,
                              HealthReportFn health = {});

// Decode a status endpoint reply.
util::Result<HostStatus> parse_host_status(const services::SoapValue& value);

// Decode a "health" method reply.
util::Result<obs::HealthVerdict> parse_health_report(const services::SoapValue& value);

// Render a fleet of host statuses as the operator dashboard text.
std::string format_dashboard(const std::vector<HostStatus>& hosts);

}  // namespace rave::core

// Live telemetry view (rave-top): declared in a separate header section to
// keep obs types out of the plain status structs above.
#include "obs/collector.hpp"
#include "obs/slo.hpp"
#include "obs/trace.hpp"

namespace rave::core {

// Render the telemetry-plane dashboard: per-host sparklines of frame time
// and fps from the collector's time-series history, the SLO engine's
// current state lines, collection health, each host's last-migration
// explain, and (when spans are supplied) a per-host frame-phase breakdown
// aggregated from the tracer's stitched spans. Pure function of its
// inputs — identical state renders identical text.
std::string format_telemetry_dashboard(const std::vector<HostStatus>& hosts,
                                       const obs::Collector& collector,
                                       const obs::SloEngine& slo, double now,
                                       const std::vector<obs::SpanRecord>& spans = {});

}  // namespace rave::core
