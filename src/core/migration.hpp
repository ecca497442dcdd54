// Workload migration planning (paper §3.2.7). Pure decision logic over
// reported loads, separated from the data service so it is directly
// testable: overloaded services shed their smallest nodes onto services
// with spare capacity; when no subscribed service has headroom the plan
// asks for recruitment via UDDI; sustained underload pulls work from the
// most loaded service.
#pragma once

#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/distribution.hpp"
#include "obs/health.hpp"

namespace rave::core {

struct ServiceLoadView {
  uint64_t subscriber_id = 0;
  RenderCapacity capacity;
  double fps = 0;
  bool overloaded = false;
  bool underloaded = false;
  // ServiceFailed: the service is gone (channel closed or lease expired).
  // Its whole assigned set is reassigned to survivors before any load
  // balancing; it neither donates nor receives in the other phases.
  bool failed = false;
  // Advisories from the telemetry plane (SLO burn sustained over a
  // rolling window, a windowed step-change anomaly) and the health plane
  // (a Degraded/Unhealthy canary verdict). Advisory, not authoritative: a
  // service with a Critical trend advisory (an SLO burn) sheds work even
  // when the instant EWMA flag is quiet, and no advised service is chosen
  // as a receiver — but ServiceFailed always wins. Eviction of Unhealthy
  // services happens in the failure detector (they arrive here as
  // failed=true); a canary advisory covers the sick-but-not-yet-evicted
  // window.
  std::vector<obs::Advisory> advisories;
  std::vector<NodeCost> assigned;

  [[nodiscard]] double assigned_work() const {
    double total = 0;
    for (const NodeCost& n : assigned) total += n.work_units();
    return total;
  }
};

struct MigrationAction {
  enum class Kind {
    MoveNodes,      // move `nodes` from `from` to `to`
    RecruitNeeded,  // no spare capacity: discover new services via UDDI
                    // (for a failed service, `nodes` lists the stranded set)
    MarkAvailable,  // underloaded service has no more work to take
  };
  Kind kind = Kind::MoveNodes;
  uint64_t from = 0;
  uint64_t to = 0;
  std::vector<NodeCost> nodes;
};

struct MigrationConfig {
  double target_fps = 15.0;
  // Fraction of a receiver's headroom migration may fill in one step —
  // the safety margin against overshooting.
  double headroom_fill_fraction = 0.8;
};

// Why the planner chose what it chose: the capacity inputs it saw and the
// alternatives it considered but rejected, for the flight recorder. Filled
// only when a non-null explain is passed — the planning hot path pays
// nothing otherwise.
struct MigrationExplain {
  struct Rejection {
    uint64_t candidate = 0;  // subscriber id of the passed-over alternative
    std::string reason;
  };
  std::vector<std::string> inputs;  // one line per service view at entry
  std::vector<Rejection> rejected;

  // Render inputs + rejections as indented text lines for a dump.
  [[nodiscard]] std::string summary() const;
};

// One planning round. Actions are ordered and non-conflicting: each source
// node set is disjoint.
std::vector<MigrationAction> plan_migration(std::vector<ServiceLoadView> services,
                                            const MigrationConfig& config = {},
                                            MigrationExplain* explain = nullptr);

}  // namespace rave::core
