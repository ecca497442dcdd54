// The RAVE data service (paper §3.1.1): the persistent, central
// distribution point for the data being visualized. It imports data from
// files or programs, manages multiple sessions, streams an audit trail to
// disk, reflects committed updates to every subscriber whose interest set
// covers them, interrogates render-service capacities, and orchestrates
// workload distribution, migration and UDDI recruitment (§3.2.5, §3.2.7).
//
// Update ordering: originators do NOT pre-apply their own changes; the
// data service assigns a global sequence and echoes every committed update
// to all interested subscribers, including the originator. All replicas
// therefore apply the same updates in the same order.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/capacity.hpp"
#include "core/distribution.hpp"
#include "core/fabric.hpp"
#include "core/failure_detector.hpp"
#include "core/migration.hpp"
#include "core/protocol.hpp"
#include "core/service_config.hpp"
#include "net/channel.hpp"
#include "obs/health.hpp"
#include "scene/audit.hpp"
#include "scene/tree.hpp"
#include "services/container.hpp"
#include "services/registry.hpp"
#include "util/clock.hpp"

namespace rave::core {

class DataService {
 public:
  // Shared fabric knobs (target_fps, thresholds, retry, lease_seconds…)
  // live in ServiceConfig; only data-service-specific ones are added here.
  // lease_seconds > 0 additionally arms data-plane failure detection: a
  // subscriber that sends nothing for a whole lease is declared failed and
  // its assigned nodes are re-dispatched to survivors.
  struct Options : ServiceConfig {
    std::string host_name = "datahost";
    // Re-run migration planning at most this often per session (seconds).
    double rebalance_interval = 0.5;
    // Automatically rebalance on over/underload reports.
    bool auto_rebalance = true;
  };

  explicit DataService(util::Clock& clock) : DataService(clock, Options()) {}
  DataService(util::Clock& clock, Options options);

  // --- sessions -----------------------------------------------------------
  util::Result<std::string> create_session(const std::string& name, scene::SceneTree initial);
  util::Result<std::string> create_session_from_obj(const std::string& name,
                                                    const std::string& obj_path);
  // Resume a recorded session (asynchronous collaboration, §3.1.1).
  util::Result<std::string> load_session(const std::string& name, const std::string& audit_path);
  util::Status save_session(const std::string& name, const std::string& audit_path) const;

  // --- access control -------------------------------------------------------
  // "Resources may need to have access permissions modified to permit new
  // users" (§3.2.2). An empty ACL (the default) leaves a session open;
  // otherwise only listed hosts may subscribe, and others are refused with
  // an explanatory message.
  util::Status restrict_session(const std::string& session,
                                std::vector<std::string> allowed_hosts);
  util::Status grant_access(const std::string& session, const std::string& host);
  util::Status revoke_access(const std::string& session, const std::string& host);
  [[nodiscard]] bool host_permitted(const std::string& session, const std::string& host) const;

  [[nodiscard]] std::vector<std::string> session_names() const;
  [[nodiscard]] const scene::SceneTree* session_tree(const std::string& name) const;
  [[nodiscard]] const scene::AuditTrail* session_audit(const std::string& name) const;
  [[nodiscard]] uint64_t committed_updates(const std::string& name) const;

  // --- transport ----------------------------------------------------------
  // New subscriber connection (wired by a Fabric listener). Safe from any
  // thread; the channel joins at the next pump().
  void accept(net::ChannelPtr channel);

  // Process pending messages on all channels; returns messages handled.
  size_t pump();

  // --- workload -----------------------------------------------------------
  // (Re)distribute a session's payload nodes across its render services.
  // On refusal (insufficient capacity) the error carries the explanation
  // and subscribers keep their previous interest sets.
  util::Status distribute(const std::string& session);

  // One migration planning+execution round; returns the actions taken.
  // Errors (unknown session) now carry an explanatory message instead of
  // silently returning an empty plan.
  util::Result<std::vector<MigrationAction>> rebalance(const std::string& session);

  // The recovery plan produced when this session's subscribers last
  // failed (channel closed or lease expired): the actions that reassigned
  // the dead services' node sets. Empty if no failure has occurred.
  [[nodiscard]] std::vector<MigrationAction> last_failure_plan(const std::string& session) const;

  // Recruitment callback: must try to bring new render services into
  // `session` (e.g. via UDDI discovery) and return how many joined.
  using RecruitFn = std::function<size_t(const std::string& session)>;
  void set_recruiter(RecruitFn recruiter) { recruiter_ = std::move(recruiter); }

  // Advisor: the telemetry and health planes' judgement of one render
  // host, consulted when building planner inputs so plan_migration sees
  // sustained SLO burns, step-change anomalies and canary verdicts next
  // to the instant EWMA flags. A Critical trend advisory (an SLO burn)
  // also *triggers* a rebalance round (at the usual rebalance_interval
  // cadence) even when no load report has tripped the EWMA thresholds
  // yet. A Critical canary advisory (an Unhealthy verdict) *condemns* the
  // service: it is evicted (and its nodes re-dispatched) on the next
  // failure-detector round, before its lease would expire.
  using AdvisorFn = std::function<std::vector<obs::Advisory>(const std::string& host)>;
  void set_advisor(AdvisorFn advisor) { advisor_ = std::move(advisor); }

  // The full explain summary (inputs, rejections, chosen actions) of the
  // most recent planning round for `session` — the same text the flight
  // recorder stored. Empty until a plan has run.
  [[nodiscard]] std::string last_plan_summary(const std::string& session) const;

  // --- SOAP surface ---------------------------------------------------------
  // Endpoint "data": createSession, listSessions, describeSession,
  // querySessionLoad.
  void register_soap(services::ServiceContainer& container);

  // Register this service + its sessions in a UDDI registry.
  util::Status advertise(services::UddiRegistry& registry, const std::string& access_point);

  // --- introspection --------------------------------------------------------
  struct SubscriberView {
    uint64_t id = 0;
    SubscriberKind kind = SubscriberKind::RenderService;
    std::string host;
    std::string access_point;
    RenderCapacity capacity;
    bool whole_tree = true;
    std::vector<scene::NodeId> interest;
    double fps = 0;
  };
  [[nodiscard]] std::vector<SubscriberView> subscribers(const std::string& session) const;

  struct Stats {
    uint64_t lease_expiries = 0;    // subscribers declared failed by silence
    uint64_t canary_evictions = 0;  // subscribers evicted by Unhealthy verdicts
    uint64_t recoveries = 0;        // failure-recovery planning rounds run
    uint64_t rebalances = 0;        // load-balancing planning rounds run
    uint64_t updates_committed = 0; // scene updates accepted across sessions
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  [[nodiscard]] const Options& options() const { return options_; }
  [[nodiscard]] util::Clock& clock() { return *clock_; }

 private:
  struct Subscriber {
    uint64_t id = 0;
    net::ChannelPtr channel;
    SubscriberKind kind = SubscriberKind::RenderService;
    std::string host;
    std::string access_point;
    RenderCapacity capacity;
    bool whole_tree = true;
    std::vector<scene::NodeId> interest;
    LoadTracker tracker;
    std::vector<scene::NodeId> own_avatars;
    // Last reported per-volume-node ray counts (kMsgLoadReport); feeds the
    // rays/s cost model when planner views are assembled.
    std::map<scene::NodeId, uint64_t> node_rays;
    bool alive = true;
    double last_seen = 0.0;  // lease renewal: any received message counts
  };

  struct Session {
    std::string name;
    scene::SceneTree tree;
    scene::AuditTrail trail;
    uint64_t sequence = 0;
    std::vector<Subscriber> subscribers;
    double last_rebalance = -1e9;
    // Empty = open to all; otherwise the permitted host names.
    std::vector<std::string> allowed_hosts;
    std::vector<MigrationAction> last_failure_plan;
    // Explain text + chosen actions of the most recent planning round.
    std::string last_plan_summary;
    // Lease table for this session's subscribers, synced from last_seen
    // every detector round; canary condemnations land here too.
    FailureDetector detector;
  };

  size_t pump_pending();
  size_t pump_session(Session& session);
  // Declare lease-expired subscribers dead, then re-dispatch every dead
  // render service's assigned nodes to survivors via plan_migration with
  // the ServiceFailed input. Runs inside pump_session.
  void recover_failed(Session& session);
  void handle_subscribe(net::ChannelPtr channel, const SubscribeRequest& request);
  void commit_update(Session& session, Subscriber* origin, scene::SceneUpdate update);
  void send_interest(Session& session, Subscriber& subscriber, bool include_snapshot);
  bool interest_covers(const Session& session, const Subscriber& subscriber,
                       scene::NodeId node) const;
  std::vector<MigrationAction> rebalance_locked(Session& session);
  void apply_actions(Session& session, const std::vector<MigrationAction>& actions);
  // The planner's input for one render-service subscriber: capacity, load
  // flags and advisories (alive only), and its priced assigned nodes.
  ServiceLoadView load_view(const Session& session, const Subscriber& sub, double now) const;
  // Attach the measured rays/s pricing to volume nodes in `costs`: the
  // node's reported ray demand converted into polygon-equivalent work
  // units (rays * polygons_per_sec / rays_per_sec), so the planner and the
  // SLO engine weigh volumes by what they actually cost this service.
  void price_volume_costs(const Subscriber& sub, std::vector<NodeCost>& costs) const;
  Session* find_session(const std::string& name);
  [[nodiscard]] const Session* find_session(const std::string& name) const;

  util::Clock* clock_;
  Options options_;
  std::map<std::string, Session> sessions_;
  AcceptInbox accepted_;                  // accepted, not yet pumped
  std::vector<net::ChannelPtr> pending_;  // connected, not yet subscribed
  uint64_t next_subscriber_id_ = 1;
  RecruitFn recruiter_;
  AdvisorFn advisor_;
  Stats stats_;
};

}  // namespace rave::core
