#include "core/data_service.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "mesh/obj_io.hpp"
#include "obs/event.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/hlc.hpp"
#include "obs/metrics.hpp"
#include "scene/serialize.hpp"
#include "util/log.hpp"

namespace rave::core {

using scene::NodeId;
using scene::SceneTree;
using scene::SceneUpdate;
using util::make_error;
using util::Result;
using util::Status;

namespace {
// One line per migration action for flight-recorder decisions.
std::string describe_action(const MigrationAction& action) {
  switch (action.kind) {
    case MigrationAction::Kind::MoveNodes:
      return "move " + std::to_string(action.nodes.size()) + " node(s) from service " +
             std::to_string(action.from) + " to " + std::to_string(action.to);
    case MigrationAction::Kind::RecruitNeeded:
      return "recruit via UDDI for service " + std::to_string(action.from) + " (" +
             std::to_string(action.nodes.size()) + " stranded node(s))";
    case MigrationAction::Kind::MarkAvailable:
      return "mark service " + std::to_string(action.from) + " available";
  }
  return "unknown action";
}
}  // namespace

DataService::DataService(util::Clock& clock, Options options)
    : clock_(&clock), options_(std::move(options)) {}

Result<std::string> DataService::create_session(const std::string& name, SceneTree initial) {
  if (sessions_.count(name) != 0) return make_error("data: session exists: " + name);
  Session session;
  session.name = name;
  session.tree = std::move(initial);
  session.trail.set_base(session.tree);
  sessions_.emplace(name, std::move(session));
  return name;
}

Result<std::string> DataService::create_session_from_obj(const std::string& name,
                                                         const std::string& obj_path) {
  auto mesh = mesh::load_obj(obj_path);
  if (!mesh.ok()) return make_error(mesh.error());
  SceneTree tree;
  tree.add_child(scene::kRootNode, name, std::move(mesh).take());
  return create_session(name, std::move(tree));
}

Result<std::string> DataService::load_session(const std::string& name,
                                              const std::string& audit_path) {
  auto trail = scene::AuditTrail::load(audit_path);
  if (!trail.ok()) return make_error(trail.error());
  scene::SessionPlayer player(trail.value());
  if (!player.valid()) return make_error("data: corrupt audit trail in " + audit_path);
  player.play_all();
  // The resumed session keeps the full history so later saves extend it.
  if (sessions_.count(name) != 0) return make_error("data: session exists: " + name);
  Session session;
  session.name = name;
  session.tree = std::move(player.tree());
  session.trail = std::move(trail).take();
  session.sequence = session.trail.size();
  sessions_.emplace(name, std::move(session));
  return name;
}

Status DataService::save_session(const std::string& name, const std::string& audit_path) const {
  const Session* session = find_session(name);
  if (session == nullptr) return make_error("data: no such session: " + name);
  return session->trail.save(audit_path);
}

Status DataService::restrict_session(const std::string& session_name,
                                     std::vector<std::string> allowed_hosts) {
  Session* session = find_session(session_name);
  if (session == nullptr) return make_error("data: no such session: " + session_name);
  session->allowed_hosts = std::move(allowed_hosts);
  return {};
}

Status DataService::grant_access(const std::string& session_name, const std::string& host) {
  Session* session = find_session(session_name);
  if (session == nullptr) return make_error("data: no such session: " + session_name);
  if (std::find(session->allowed_hosts.begin(), session->allowed_hosts.end(), host) ==
      session->allowed_hosts.end())
    session->allowed_hosts.push_back(host);
  return {};
}

Status DataService::revoke_access(const std::string& session_name, const std::string& host) {
  Session* session = find_session(session_name);
  if (session == nullptr) return make_error("data: no such session: " + session_name);
  session->allowed_hosts.erase(
      std::remove(session->allowed_hosts.begin(), session->allowed_hosts.end(), host),
      session->allowed_hosts.end());
  // Revocation also disconnects live subscribers from that host.
  for (Subscriber& sub : session->subscribers) {
    if (sub.host != host) continue;
    (void)sub.channel->send(encode(RefusalMsg{"access revoked for host '" + host + "'"}));
    sub.channel->close();
    sub.alive = false;
  }
  return {};
}

bool DataService::host_permitted(const std::string& session_name,
                                 const std::string& host) const {
  const Session* session = find_session(session_name);
  if (session == nullptr) return false;
  return session->allowed_hosts.empty() ||
         std::find(session->allowed_hosts.begin(), session->allowed_hosts.end(), host) !=
             session->allowed_hosts.end();
}

std::vector<std::string> DataService::session_names() const {
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& [name, session] : sessions_) names.push_back(name);
  return names;
}

const SceneTree* DataService::session_tree(const std::string& name) const {
  const Session* session = find_session(name);
  return session == nullptr ? nullptr : &session->tree;
}

const scene::AuditTrail* DataService::session_audit(const std::string& name) const {
  const Session* session = find_session(name);
  return session == nullptr ? nullptr : &session->trail;
}

uint64_t DataService::committed_updates(const std::string& name) const {
  const Session* session = find_session(name);
  return session == nullptr ? 0 : session->sequence;
}

void DataService::accept(net::ChannelPtr channel) { accepted_.push(std::move(channel)); }

size_t DataService::pump() {
  size_t handled = pump_pending();
  for (auto& [name, session] : sessions_) handled += pump_session(session);
  return handled;
}

size_t DataService::pump_pending() {
  for (net::ChannelPtr& channel : accepted_.take()) pending_.push_back(std::move(channel));
  size_t handled = 0;
  for (size_t i = 0; i < pending_.size();) {
    auto msg = pending_[i]->try_receive();
    if (!msg.has_value()) {
      if (!pending_[i]->is_open()) {
        pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
        continue;
      }
      ++i;
      continue;
    }
    ++handled;
    auto request = decode_subscribe(*msg);
    if (!request.ok()) {
      (void)pending_[i]->send(encode(RefusalMsg{request.error()}));
      ++i;
      continue;
    }
    net::ChannelPtr channel = pending_[i];
    pending_.erase(pending_.begin() + static_cast<ptrdiff_t>(i));
    handle_subscribe(std::move(channel), request.value());
  }
  return handled;
}

void DataService::handle_subscribe(net::ChannelPtr channel, const SubscribeRequest& request) {
  Session* session = find_session(request.session);
  if (session == nullptr) {
    (void)channel->send(encode(RefusalMsg{"no such session: " + request.session}));
    return;
  }
  if (!session->allowed_hosts.empty() &&
      std::find(session->allowed_hosts.begin(), session->allowed_hosts.end(), request.host) ==
          session->allowed_hosts.end()) {
    (void)channel->send(encode(RefusalMsg{
        "access denied: host '" + request.host + "' is not permitted on session '" +
        request.session + "' (ask the session owner to grant access)"}));
    return;
  }
  Subscriber sub;
  sub.id = next_subscriber_id_++;
  sub.channel = std::move(channel);
  sub.kind = request.kind;
  sub.host = request.host;
  sub.access_point = request.access_point;
  sub.capacity = request.capacity;
  sub.tracker = LoadTracker(options_.thresholds);
  sub.whole_tree = true;
  sub.last_seen = clock_->now();

  SubscribeAck ack;
  ack.client_id = sub.id;
  ack.session = session->name;
  ack.last_sequence = session->sequence;
  (void)sub.channel->send(encode(ack));

  SnapshotMsg snapshot;
  snapshot.session = session->name;
  snapshot.sequence = session->sequence;
  snapshot.tree_bytes = scene::serialize_tree(session->tree);
  (void)sub.channel->send(encode(snapshot));

  session->subscribers.push_back(std::move(sub));
  util::log_info("data") << "subscriber " << ack.client_id << " (" << request.host
                         << ") joined session " << session->name;
}

bool DataService::interest_covers(const Session& session, const Subscriber& subscriber,
                                  NodeId node) const {
  if (subscriber.whole_tree) return true;
  // A subscriber must see an update if the touched node lies inside any of
  // its interest subtrees, or on the ancestor chain of one (transforms of
  // ancestors move the subset in the world).
  for (NodeId root : subscriber.interest) {
    for (NodeId cursor = root; cursor != scene::kInvalidNode;) {
      if (cursor == node) return true;
      const scene::SceneNode* n = session.tree.find(cursor);
      if (n == nullptr) break;
      cursor = n->parent;
    }
  }
  // Inside a subtree?
  for (NodeId cursor = node; cursor != scene::kInvalidNode;) {
    if (std::find(subscriber.interest.begin(), subscriber.interest.end(), cursor) !=
        subscriber.interest.end())
      return true;
    const scene::SceneNode* n = session.tree.find(cursor);
    if (n == nullptr) break;
    cursor = n->parent;
  }
  return false;
}

void DataService::commit_update(Session& session, Subscriber* origin, SceneUpdate update) {
  // Allocate ids for new nodes centrally.
  if (update.kind == scene::UpdateKind::AddNode &&
      (update.node == scene::kInvalidNode || session.tree.contains(update.node))) {
    update.node = session.tree.allocate_id();
    update.new_node.id = update.node;
  }
  update.sequence = ++session.sequence;
  update.author = origin != nullptr ? origin->id : 0;
  update.timestamp = clock_->now();

  const Status applied = update.apply(session.tree);
  if (!applied.ok()) {
    --session.sequence;
    if (origin != nullptr)
      (void)origin->channel->send(encode(RefusalMsg{"update rejected: " + applied.error()}));
    return;
  }
  session.trail.append(update);
  ++stats_.updates_committed;
  static obs::Counter& committed =
      obs::MetricsRegistry::global().counter("rave_data_updates_committed_total", {});
  committed.inc();
  if (origin != nullptr && update.kind == scene::UpdateKind::AddNode &&
      std::holds_alternative<scene::AvatarData>(update.new_node.payload))
    origin->own_avatars.push_back(update.node);

  // When the session is distributed (interest sets in force), a freshly
  // added payload node must be owned by someone: assign it to the render
  // service with the most spare capacity.
  if (update.kind == scene::UpdateKind::AddNode &&
      !std::holds_alternative<std::monostate>(update.new_node.payload) &&
      !update.new_node.is_avatar()) {
    Subscriber* best = nullptr;
    double best_headroom = 0;
    bool any_distributed = false;
    for (Subscriber& sub : session.subscribers) {
      if (!sub.alive || sub.kind != SubscriberKind::RenderService || sub.whole_tree) continue;
      any_distributed = true;
      std::vector<NodeCost> costs;
      for (NodeId id : sub.interest)
        if (session.tree.contains(id)) costs.push_back(node_cost(session.tree, id));
      price_volume_costs(sub, costs);
      double assigned = 0;
      for (const NodeCost& cost : costs) assigned += cost.work_units();
      const double headroom = sub.capacity.polygon_budget(options_.target_fps) - assigned;
      if (best == nullptr || headroom > best_headroom) {
        best = &sub;
        best_headroom = headroom;
      }
    }
    if (any_distributed && best != nullptr) {
      best->interest.push_back(update.node);
      send_interest(session, *best, /*include_snapshot=*/false);
    }
  }

  const net::Message wire = encode(UpdateMsg{session.name, update});
  const NodeId touched = update.touched_node();
  for (Subscriber& sub : session.subscribers) {
    if (!sub.alive) continue;
    if (!interest_covers(session, sub, touched) &&
        !(origin != nullptr && sub.id == origin->id))
      continue;
    (void)sub.channel->send(wire);
  }
}

size_t DataService::pump_session(Session& session) {
  size_t handled = 0;
  bool overload_seen = false;
  for (Subscriber& sub : session.subscribers) {
    if (!sub.alive) continue;
    for (;;) {
      auto msg = sub.channel->try_receive();
      if (!msg.has_value()) {
        if (!sub.channel->is_open()) {
          sub.alive = false;
          // Failure-detector event: a render service dropping its data
          // channel is a crash from this side, worth a post-mortem.
          if (sub.kind == SubscriberKind::RenderService)
            obs::FlightRecorder::global().record_failure(
                "data",
                "subscriber " + std::to_string(sub.id) + " (" + sub.host +
                    ") channel closed on " + session.name,
                clock_->now());
        }
        break;
      }
      ++handled;
      sub.last_seen = clock_->now();  // any traffic renews the lease
      (void)obs::observe_hlc(*msg);   // merge the sender's causal stamp
      switch (msg->type) {
        case kMsgUpdate: {
          auto update = decode_update(*msg);
          if (update.ok()) commit_update(session, &sub, std::move(update).take().update);
          break;
        }
        case kMsgClientUpdate: {
          auto update = decode_client_update(*msg);
          if (update.ok()) commit_update(session, &sub, std::move(update).take().update);
          break;
        }
        case kMsgLoadReport: {
          auto report = decode_load_report(*msg);
          if (report.ok()) {
            const LoadReportMsg& lr = report.value();
            sub.tracker.record_frame(lr.frame_seconds, clock_->now());
            // Replace the profile's rays/s prior with the measured rate,
            // and remember which volume nodes drew how many rays.
            if (lr.volume_rays > 0 && lr.volume_seconds > 0)
              sub.capacity.rays_per_sec =
                  static_cast<double>(lr.volume_rays) / lr.volume_seconds;
            for (const auto& [node, rays] : lr.node_rays) sub.node_rays[node] = rays;
            if (sub.tracker.overloaded(clock_->now()) ||
                sub.tracker.underloaded(clock_->now()))
              overload_seen = true;
          }
          break;
        }
        case kMsgAssistRequest: {
          auto request = decode_assist_request(*msg);
          if (!request.ok()) break;
          // Forward to "the most appropriate render service that is
          // already connected to the scene" — strongest capacity first.
          std::vector<const Subscriber*> peers;
          for (const Subscriber& other : session.subscribers)
            if (other.alive && other.id != sub.id &&
                other.kind == SubscriberKind::RenderService && !other.access_point.empty())
              peers.push_back(&other);
          std::sort(peers.begin(), peers.end(), [](const Subscriber* a, const Subscriber* b) {
            return a->capacity.polygons_per_sec > b->capacity.polygons_per_sec;
          });
          AssistGrantMsg grant;
          for (const Subscriber* p : peers) {
            if (static_cast<int>(grant.access_points.size()) >= request.value().tiles_wanted)
              break;
            grant.access_points.push_back(p->access_point);
          }
          (void)sub.channel->send(encode(grant));
          break;
        }
        default: {
          char buf[32];
          std::snprintf(buf, sizeof(buf), "type 0x%04x", msg->type);
          obs::log_event(util::LogLevel::Warn, "data", "unhandled_message", buf);
          break;
        }
      }
    }
  }

  recover_failed(session);

  // Departed subscribers: retire their avatars, drop them.
  for (Subscriber& sub : session.subscribers) {
    if (sub.alive || sub.own_avatars.empty()) continue;
    for (NodeId avatar : sub.own_avatars)
      if (session.tree.contains(avatar))
        commit_update(session, nullptr, SceneUpdate::remove_node(avatar));
    sub.own_avatars.clear();
  }
  session.subscribers.erase(
      std::remove_if(session.subscribers.begin(), session.subscribers.end(),
                     [](const Subscriber& s) { return !s.alive; }),
      session.subscribers.end());

  bool pressure = overload_seen;
  if (!pressure && advisor_ && options_.auto_rebalance &&
      clock_->now() - session.last_rebalance >= options_.rebalance_interval) {
    // Telemetry-plane pressure: a sustained SLO burn triggers a planning
    // round even while every instant EWMA flag is still quiet. Checked at
    // the rebalance-interval cadence so the advisor is not hammered.
    for (const Subscriber& sub : session.subscribers) {
      if (!sub.alive || sub.kind != SubscriberKind::RenderService) continue;
      for (const obs::Advisory& advisory : advisor_(sub.host))
        pressure = pressure || advisory.burning();
      if (pressure) break;
    }
  }
  if (pressure && options_.auto_rebalance &&
      clock_->now() - session.last_rebalance >= options_.rebalance_interval) {
    session.last_rebalance = clock_->now();
    rebalance_locked(session);
  }
  return handled;
}

Status DataService::distribute(const std::string& session_name) {
  Session* session = find_session(session_name);
  if (session == nullptr) return make_error("data: no such session: " + session_name);

  std::vector<ServiceSlot> slots;
  for (const Subscriber& sub : session->subscribers)
    if (sub.alive && sub.kind == SubscriberKind::RenderService)
      slots.push_back({sub.id, sub.capacity});

  const DistributionPlan plan =
      plan_distribution(payload_costs(session->tree), slots, options_.target_fps);
  if (!plan.feasible) {
    obs::log_event(util::LogLevel::Warn, "data", "distribution_refused", plan.refusal_reason);
    return make_error(plan.refusal_reason);
  }

  for (Subscriber& sub : session->subscribers) {
    if (!sub.alive || sub.kind != SubscriberKind::RenderService) continue;
    const DistributionPlan::Assignment* assignment = plan.assignment_for(sub.id);
    sub.whole_tree = false;
    sub.interest = assignment != nullptr ? assignment->nodes : std::vector<NodeId>{};
    send_interest(*session, sub, /*include_snapshot=*/true);
  }
  return {};
}

void DataService::send_interest(Session& session, Subscriber& subscriber,
                                bool include_snapshot) {
  InterestSetMsg interest;
  interest.session = session.name;
  interest.whole_tree = subscriber.whole_tree;
  interest.nodes = subscriber.interest;
  (void)subscriber.channel->send(encode(interest));
  if (!include_snapshot) return;
  SnapshotMsg snapshot;
  snapshot.session = session.name;
  snapshot.sequence = session.sequence;
  snapshot.merge = false;
  const SceneTree subset =
      subscriber.whole_tree ? session.tree : session.tree.subset(subscriber.interest);
  snapshot.tree_bytes = scene::serialize_tree(subset);
  (void)subscriber.channel->send(encode(snapshot));
}

util::Result<std::vector<MigrationAction>> DataService::rebalance(
    const std::string& session_name) {
  Session* session = find_session(session_name);
  if (session == nullptr) return make_error("data: no such session: " + session_name);
  return rebalance_locked(*session);
}

std::vector<MigrationAction> DataService::last_failure_plan(
    const std::string& session_name) const {
  const Session* session = find_session(session_name);
  return session == nullptr ? std::vector<MigrationAction>{} : session->last_failure_plan;
}

std::string DataService::last_plan_summary(const std::string& session_name) const {
  const Session* session = find_session(session_name);
  return session == nullptr ? std::string{} : session->last_plan_summary;
}

void DataService::recover_failed(Session& session) {
  // Failure detection proper runs through the session's lease table: any
  // received message renewed last_seen, which the table consumes as a
  // heartbeat; a whole lease of silence means failed even while the
  // channel still reports open (hung service, half-dead link); and an
  // Unhealthy canary verdict condemns the subscriber so eviction fires
  // *before* the lease would lapse.
  {
    FailureDetector& detector = session.detector;
    detector.set_lease_seconds(options_.lease_seconds);
    const double now = clock_->now();
    for (Subscriber& sub : session.subscribers) {
      const std::string key = std::to_string(sub.id);
      if (!sub.alive) {
        detector.forget(key);  // channel-close failures are already handled
        continue;
      }
      if (detector.watching(key))
        (void)detector.heartbeat(key, sub.last_seen);
      else
        detector.watch(key, sub.last_seen);
      if (advisor_ && sub.kind == SubscriberKind::RenderService) {
        for (const obs::Advisory& advisory : advisor_(sub.host))
          if (advisory.condemns())
            detector.condemn(key, advisory.reason.empty() ? std::string("canary unhealthy")
                                                          : advisory.reason);
      }
    }
    for (const FailureDetector::Expiry& expiry : detector.collect_expired(now)) {
      Subscriber* failed = nullptr;
      for (Subscriber& sub : session.subscribers)
        if (std::to_string(sub.id) == expiry.key) failed = &sub;
      if (failed == nullptr || !failed->alive) continue;
      // Failure-detector event: recorded in the flight ring (with an
      // automatic post-mortem snapshot) as well as logged/counted.
      if (expiry.condemned) {
        ++stats_.canary_evictions;
        obs::FlightRecorder::global().record_failure(
            "data",
            "subscriber " + std::to_string(failed->id) + " (" + failed->host +
                ") evicted by canary verdict for " + session.name + ": " + expiry.reason,
            now);
        obs::log_event(util::LogLevel::Warn, "data", "canary_evicted",
                       "subscriber " + std::to_string(failed->id) + " (" + failed->host +
                           ") unhealthy; evicting before lease expiry: " + expiry.reason);
      } else {
        ++stats_.lease_expiries;
        obs::FlightRecorder::global().record_failure(
            "data",
            "subscriber " + std::to_string(failed->id) + " (" + failed->host +
                ") lease expired for " + session.name,
            now);
        obs::log_event(util::LogLevel::Warn, "data", "lease_expired",
                       "subscriber " + std::to_string(failed->id) + " (" + failed->host +
                           ") silent past " + std::to_string(options_.lease_seconds) +
                           "s; declaring failed");
      }
      failed->channel->close();
      failed->alive = false;
    }
  }

  // Re-dispatch: feed the planner every render service, dead ones carrying
  // the ServiceFailed flag plus their stranded node set.
  std::vector<ServiceLoadView> views;
  bool any_stranded = false;
  const double now = clock_->now();
  for (const Subscriber& sub : session.subscribers) {
    if (sub.kind != SubscriberKind::RenderService) continue;
    if (!sub.alive && (sub.whole_tree || sub.interest.empty())) continue;  // nothing stranded
    ServiceLoadView view = load_view(session, sub, now);
    any_stranded = any_stranded || (view.failed && !view.assigned.empty());
    views.push_back(std::move(view));
  }
  if (!any_stranded) return;

  MigrationConfig config;
  config.target_fps = options_.target_fps;
  MigrationExplain explain;
  std::vector<MigrationAction> plan = plan_migration(std::move(views), config, &explain);
  // Keep only the recovery part: load-balancing moves ride the regular
  // rebalance path, not the failure path.
  plan.erase(std::remove_if(plan.begin(), plan.end(),
                            [&](const MigrationAction& a) {
                              return a.kind == MigrationAction::Kind::MarkAvailable;
                            }),
             plan.end());
  apply_actions(session, plan);
  ++stats_.recoveries;
  // The full decision — capacity inputs the planner saw, the chosen
  // actions, and the alternatives it passed over — goes into the flight
  // ring, followed by a post-mortem snapshot so a dump taken later still
  // shows what drove this plan.
  std::string decision = "recovery for " + session.name + ":\n" + explain.summary();
  for (const MigrationAction& a : plan) decision += "  chosen: " + describe_action(a) + "\n";
  obs::FlightRecorder::global().record_decision("data", decision, now);
  obs::FlightRecorder::global().capture_postmortem("recovery for " + session.name);
  session.last_plan_summary = decision;
  session.last_failure_plan = std::move(plan);
  util::log_info("data") << "recovered session " << session.name << " with "
                         << session.last_failure_plan.size() << " re-dispatch action(s)";
}

ServiceLoadView DataService::load_view(const Session& session, const Subscriber& sub,
                                       double now) const {
  ServiceLoadView view;
  view.subscriber_id = sub.id;
  view.capacity = sub.capacity;
  view.fps = sub.tracker.fps();
  view.failed = !sub.alive;
  if (sub.alive) {
    view.overloaded = sub.tracker.overloaded(now);
    view.underloaded = sub.tracker.underloaded(now);
    if (advisor_) view.advisories = advisor_(sub.host);
  }
  if (sub.whole_tree) {
    view.assigned = payload_costs(session.tree);
  } else {
    for (NodeId id : sub.interest)
      if (session.tree.contains(id)) view.assigned.push_back(node_cost(session.tree, id));
  }
  price_volume_costs(sub, view.assigned);
  return view;
}

std::vector<MigrationAction> DataService::rebalance_locked(Session& session) {
  std::vector<ServiceLoadView> views;
  const double now = clock_->now();
  for (const Subscriber& sub : session.subscribers) {
    if (!sub.alive || sub.kind != SubscriberKind::RenderService) continue;
    views.push_back(load_view(session, sub, now));
  }

  MigrationConfig config;
  config.target_fps = options_.target_fps;
  MigrationExplain explain;
  std::vector<MigrationAction> actions = plan_migration(views, config, &explain);
  apply_actions(session, actions);
  ++stats_.rebalances;
  if (!actions.empty()) {
    std::string decision = "rebalance for " + session.name + ":\n" + explain.summary();
    for (const MigrationAction& a : actions) decision += "  chosen: " + describe_action(a) + "\n";
    obs::FlightRecorder::global().record_decision("data", decision, now);
    session.last_plan_summary = std::move(decision);
  }
  return actions;
}

void DataService::apply_actions(Session& session, const std::vector<MigrationAction>& actions) {
  bool recruit_needed = false;
  for (const MigrationAction& action : actions) {
    switch (action.kind) {
      case MigrationAction::Kind::MoveNodes: {
        Subscriber* from = nullptr;
        Subscriber* to = nullptr;
        for (Subscriber& sub : session.subscribers) {
          if (sub.id == action.from) from = &sub;
          if (sub.id == action.to) to = &sub;
        }
        if (from == nullptr || to == nullptr) break;
        std::unordered_set<NodeId> moved;
        for (const NodeCost& n : action.nodes) moved.insert(n.node);
        // A whole-tree holder becomes a subset holder when work leaves it.
        if (from->whole_tree) {
          from->whole_tree = false;
          from->interest = session.tree.payload_node_ids();
        }
        from->interest.erase(std::remove_if(from->interest.begin(), from->interest.end(),
                                            [&](NodeId id) { return moved.count(id) != 0; }),
                             from->interest.end());
        if (to->whole_tree) {
          to->whole_tree = false;
          to->interest = session.tree.payload_node_ids();
        }
        for (NodeId id : moved)
          if (std::find(to->interest.begin(), to->interest.end(), id) == to->interest.end())
            to->interest.push_back(id);
        send_interest(session, *from, /*include_snapshot=*/false);
        send_interest(session, *to, /*include_snapshot=*/true);
        util::log_info("data") << "migrated " << action.nodes.size() << " nodes from service "
                               << action.from << " to " << action.to;
        break;
      }
      case MigrationAction::Kind::RecruitNeeded:
        recruit_needed = true;
        break;
      case MigrationAction::Kind::MarkAvailable:
        // No state change needed: availability falls out of the headroom
        // computation on the next round.
        break;
    }
  }

  if (recruit_needed && recruiter_) {
    const size_t joined = recruiter_(session.name);
    util::log_info("data") << "recruited " << joined << " render services for session "
                           << session.name;
  }
}

void DataService::register_soap(services::ServiceContainer& container) {
  using services::SoapList;
  using services::SoapStruct;
  using services::SoapValue;

  container.register_method(
      "data", "listSessions", [this](const SoapList&) -> Result<SoapValue> {
        SoapList out;
        for (const std::string& name : session_names()) out.push_back(name);
        return SoapValue{std::move(out)};
      });

  container.register_method(
      "data", "describeSession", [this](const SoapList& args) -> Result<SoapValue> {
        if (args.empty()) return make_error("describeSession: missing session name");
        const Session* session = find_session(args[0].as_string());
        if (session == nullptr) return make_error("no such session: " + args[0].as_string());
        SoapStruct out;
        out["name"] = session->name;
        out["nodes"] = static_cast<int64_t>(session->tree.node_count());
        out["triangles"] = static_cast<int64_t>(session->tree.total_metrics().triangles);
        out["updates"] = static_cast<int64_t>(session->sequence);
        out["subscribers"] = static_cast<int64_t>(session->subscribers.size());
        return SoapValue{std::move(out)};
      });

  container.register_method(
      "data", "createSession", [this](const SoapList& args) -> Result<SoapValue> {
        if (args.size() < 2) return make_error("createSession: need name and data URL");
        const std::string name = args[0].as_string();
        const std::string url = args[1].as_string();
        // "file:" URLs import OBJ data; "empty:" creates a bare session.
        Result<std::string> created = url.rfind("file:", 0) == 0
                                          ? create_session_from_obj(name, url.substr(5))
                                          : create_session(name, scene::SceneTree{});
        if (!created.ok()) return make_error(created.error());
        return SoapValue{created.value()};
      });

  container.register_method(
      "data", "querySessionLoad", [this](const SoapList& args) -> Result<SoapValue> {
        if (args.empty()) return make_error("querySessionLoad: missing session name");
        SoapList out;
        for (const SubscriberView& view : subscribers(args[0].as_string())) {
          SoapStruct entry;
          entry["id"] = static_cast<int64_t>(view.id);
          entry["host"] = view.host;
          entry["fps"] = view.fps;
          entry["polygonsPerSec"] = view.capacity.polygons_per_sec;
          entry["wholeTree"] = view.whole_tree;
          entry["interestNodes"] = static_cast<int64_t>(view.interest.size());
          out.push_back(std::move(entry));
        }
        return SoapValue{std::move(out)};
      });
}

Status DataService::advertise(services::UddiRegistry& registry,
                              const std::string& access_point) {
  const std::string tmodel = registry.register_tmodel(services::data_service_descriptor());
  const std::string business = registry.register_business(options_.host_name);
  for (const std::string& name : session_names()) {
    auto service_key = registry.register_service(business, "data:" + name);
    if (!service_key.ok()) return make_error(service_key.error());
    auto bound =
        registry.register_binding(service_key.value(), access_point, tmodel, name, clock_->now());
    if (!bound.ok()) return make_error(bound.error());
  }
  return {};
}

std::vector<DataService::SubscriberView> DataService::subscribers(
    const std::string& session_name) const {
  std::vector<SubscriberView> out;
  const Session* session = find_session(session_name);
  if (session == nullptr) return out;
  for (const Subscriber& sub : session->subscribers) {
    SubscriberView view;
    view.id = sub.id;
    view.kind = sub.kind;
    view.host = sub.host;
    view.access_point = sub.access_point;
    view.capacity = sub.capacity;
    view.whole_tree = sub.whole_tree;
    view.interest = sub.interest;
    view.fps = sub.tracker.fps();
    out.push_back(std::move(view));
  }
  return out;
}

void DataService::price_volume_costs(const Subscriber& sub, std::vector<NodeCost>& costs) const {
  if (sub.capacity.rays_per_sec <= 0) return;
  // One ray costs as much as polys_per_ray polygons on this service, so
  // measured ray demand lands in the same work-unit currency the polygon
  // budget arithmetic already uses.
  const double polys_per_ray = sub.capacity.polygons_per_sec / sub.capacity.rays_per_sec;
  for (NodeCost& cost : costs) {
    if (cost.voxels == 0) continue;
    const auto it = sub.node_rays.find(cost.node);
    if (it == sub.node_rays.end() || it->second == 0) continue;
    cost.measured_rays = it->second;
    cost.ray_work = static_cast<double>(it->second) * polys_per_ray;
  }
}

DataService::Session* DataService::find_session(const std::string& name) {
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : &it->second;
}

const DataService::Session* DataService::find_session(const std::string& name) const {
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : &it->second;
}

}  // namespace rave::core
