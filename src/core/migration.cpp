#include "core/migration.hpp"

#include <algorithm>
#include <cstdio>

namespace rave::core {

namespace {
using obs::Advisory;

// A view's advisories, split the way explain text and rejections read
// them: trend (SLO burn, anomaly) and canary, each with its reasons
// joined by "; ".
struct Advice {
  bool burning = false;  // a Critical trend advisory: an SLO burn
  bool anomaly = false;
  bool trend = false;
  bool canary = false;
  std::string trend_note;
  std::string canary_note;
};

Advice advice_of(const ServiceLoadView& s) {
  Advice advice;
  for (const Advisory& a : s.advisories) {
    const bool canary = a.source == Advisory::Source::Canary;
    (canary ? advice.canary : advice.trend) = true;
    advice.burning = advice.burning || a.burning();
    advice.anomaly = advice.anomaly || a.source == Advisory::Source::Anomaly;
    std::string& note = canary ? advice.canary_note : advice.trend_note;
    if (!note.empty()) note += "; ";
    note += a.reason;
  }
  return advice;
}

// Why an advised service may not take more work ("" when nothing advises
// against it): "<trend|health> advisory <what>: <reasons>". Trend
// advisories take precedence over the canary's.
std::string advisory_rejection(const ServiceLoadView& s, const char* what) {
  const Advice advice = advice_of(s);
  if (advice.trend)
    return std::string("trend advisory ") + what + ": " +
           (advice.trend_note.empty() ? "slo burn/anomaly" : advice.trend_note);
  if (advice.canary)
    return std::string("health advisory ") + what + ": " +
           (advice.canary_note.empty() ? "canary degraded" : advice.canary_note);
  return "";
}

double headroom_of(const ServiceLoadView& s, const MigrationConfig& config) {
  return s.capacity.polygon_budget(config.target_fps) - s.assigned_work();
}

void explain_inputs(MigrationExplain* explain, const std::vector<ServiceLoadView>& services,
                    const MigrationConfig& config) {
  if (explain == nullptr) return;
  for (const ServiceLoadView& s : services) {
    const Advice advice = advice_of(s);
    char line[192];
    std::snprintf(line, sizeof(line),
                  "service %llu: budget=%.0f work=%.0f fps=%.2f nodes=%zu%s%s%s%s%s",
                  static_cast<unsigned long long>(s.subscriber_id),
                  s.capacity.polygon_budget(config.target_fps), s.assigned_work(), s.fps,
                  s.assigned.size(), s.failed ? " FAILED" : "",
                  s.overloaded ? " overloaded" : "", s.underloaded ? " underloaded" : "",
                  advice.burning ? " slo-burn" : "", advice.anomaly ? " anomaly" : "");
    std::string rendered = line;
    if (advice.canary) rendered += " health-degraded";
    if (!advice.trend_note.empty()) rendered += " [" + advice.trend_note + "]";
    if (!advice.canary_note.empty()) rendered += " [health: " + advice.canary_note + "]";
    explain->inputs.push_back(std::move(rendered));
    // Volume nodes priced by the measured rays/s model get their own
    // line, so a plan can be audited against what the marcher reported.
    for (const NodeCost& n : s.assigned) {
      if (n.ray_work <= 0) continue;
      char vline[192];
      std::snprintf(vline, sizeof(vline),
                    "service %llu volume node %llu: %llu rays @ %.0f rays/s -> work=%.0f "
                    "(rays/s model)",
                    static_cast<unsigned long long>(s.subscriber_id),
                    static_cast<unsigned long long>(n.node),
                    static_cast<unsigned long long>(n.measured_rays), s.capacity.rays_per_sec,
                    n.ray_work);
      explain->inputs.push_back(vline);
    }
  }
}

void reject(MigrationExplain* explain, uint64_t candidate, std::string reason) {
  if (explain == nullptr) return;
  explain->rejected.push_back({candidate, std::move(reason)});
}

void remove_nodes(ServiceLoadView& s, const std::vector<NodeCost>& moved) {
  s.assigned.erase(std::remove_if(s.assigned.begin(), s.assigned.end(),
                                  [&](const NodeCost& n) {
                                    return std::any_of(moved.begin(), moved.end(),
                                                       [&](const NodeCost& m) {
                                                         return m.node == n.node;
                                                       });
                                  }),
                   s.assigned.end());
}
}  // namespace

std::string MigrationExplain::summary() const {
  std::string out;
  for (const std::string& line : inputs) out += "  input: " + line + "\n";
  for (const Rejection& r : rejected)
    out += "  rejected service " + std::to_string(r.candidate) + ": " + r.reason + "\n";
  return out;
}

std::vector<MigrationAction> plan_migration(std::vector<ServiceLoadView> services,
                                            const MigrationConfig& config,
                                            MigrationExplain* explain) {
  std::vector<MigrationAction> actions;
  explain_inputs(explain, services, config);

  // --- failure reassignment -----------------------------------------------
  // A failed service's nodes must land somewhere even if that overloads
  // the survivors: a degraded frame rate beats a hole in the scene. The
  // overload phase below then sheds or recruits as usual.
  for (ServiceLoadView& dead : services) {
    if (!dead.failed || dead.assigned.empty()) continue;
    // Unadvised survivors first; an advised survivor only receives
    // orphans when nobody unadvised is left (a degraded frame rate still
    // beats a hole in the scene).
    std::vector<ServiceLoadView*> survivors;
    for (ServiceLoadView& candidate : services)
      if (!candidate.failed && candidate.subscriber_id != dead.subscriber_id &&
          candidate.advisories.empty())
        survivors.push_back(&candidate);
    if (survivors.empty()) {
      for (ServiceLoadView& candidate : services)
        if (!candidate.failed && candidate.subscriber_id != dead.subscriber_id)
          survivors.push_back(&candidate);
    } else {
      for (const ServiceLoadView& candidate : services) {
        if (candidate.failed || candidate.subscriber_id == dead.subscriber_id ||
            candidate.advisories.empty())
          continue;
        reject(explain, candidate.subscriber_id,
               advisory_rejection(candidate, "disqualifies survivor"));
      }
    }
    if (survivors.empty()) {
      MigrationAction recruit;
      recruit.kind = MigrationAction::Kind::RecruitNeeded;
      recruit.from = dead.subscriber_id;
      recruit.nodes = std::move(dead.assigned);  // the stranded set
      actions.push_back(std::move(recruit));
      dead.assigned.clear();
      continue;
    }
    // Largest node first onto the survivor with the most remaining
    // headroom — deterministic greedy balance (ties break by input order).
    std::vector<NodeCost> orphans = std::move(dead.assigned);
    dead.assigned.clear();
    std::stable_sort(orphans.begin(), orphans.end(), [](const NodeCost& a, const NodeCost& b) {
      return a.work_units() > b.work_units();
    });
    std::vector<MigrationAction> per_survivor(survivors.size());
    for (const NodeCost& node : orphans) {
      size_t best = 0;
      for (size_t i = 1; i < survivors.size(); ++i)
        if (headroom_of(*survivors[i], config) > headroom_of(*survivors[best], config)) best = i;
      survivors[best]->assigned.push_back(node);
      per_survivor[best].nodes.push_back(node);
    }
    for (size_t i = 0; i < survivors.size(); ++i) {
      if (per_survivor[i].nodes.empty()) {
        reject(explain, survivors[i]->subscriber_id,
               "survivor passed over for failure reassignment: less headroom than chosen "
               "receivers");
        continue;
      }
      per_survivor[i].kind = MigrationAction::Kind::MoveNodes;
      per_survivor[i].from = dead.subscriber_id;
      per_survivor[i].to = survivors[i]->subscriber_id;
      actions.push_back(std::move(per_survivor[i]));
    }
  }

  // --- overload relief ----------------------------------------------------
  for (ServiceLoadView& overloaded : services) {
    if (overloaded.failed) continue;
    // A sustained SLO burn is overload pressure even while the instant
    // EWMA flag is still quiet — the trend arrives before the average.
    if ((!overloaded.overloaded && !advice_of(overloaded).burning) ||
        overloaded.assigned.empty())
      continue;
    // How much work must leave for the service to meet its budget.
    double deficit = overloaded.assigned_work() -
                     overloaded.capacity.polygon_budget(config.target_fps);
    if (deficit <= 0) {
      // The fps (or the SLO trend) says overloaded even though the static
      // budget disagrees (e.g. interactive load from a console user, §6)
      // — shed a fixed slice of the assigned work.
      deficit = overloaded.assigned_work() * 0.25;
    }
    bool moved_any = false;
    // Receivers ordered by descending headroom.
    std::vector<ServiceLoadView*> receivers;
    for (ServiceLoadView& candidate : services) {
      if (candidate.subscriber_id == overloaded.subscriber_id || candidate.overloaded ||
          candidate.failed)
        continue;
      if (!candidate.advisories.empty()) {
        reject(explain, candidate.subscriber_id,
               advisory_rejection(candidate, "disqualifies receiver"));
        continue;
      }
      receivers.push_back(&candidate);
    }
    std::sort(receivers.begin(), receivers.end(),
              [&](const ServiceLoadView* a, const ServiceLoadView* b) {
                return headroom_of(*a, config) > headroom_of(*b, config);
              });
    for (ServiceLoadView* receiver : receivers) {
      if (deficit <= 0) break;
      const double headroom = headroom_of(*receiver, config) * config.headroom_fill_fraction;
      if (headroom <= 0) {
        reject(explain, receiver->subscriber_id, "no headroom for overload relief");
        continue;
      }
      std::vector<NodeCost> moved =
          select_nodes_to_move(overloaded.assigned, std::min(deficit, headroom), headroom);
      if (moved.empty()) {
        reject(explain, receiver->subscriber_id, "no movable node fits its headroom");
        continue;
      }
      double moved_work = 0;
      for (const NodeCost& n : moved) moved_work += n.work_units();
      MigrationAction action;
      action.kind = MigrationAction::Kind::MoveNodes;
      action.from = overloaded.subscriber_id;
      action.to = receiver->subscriber_id;
      action.nodes = moved;
      actions.push_back(action);
      remove_nodes(overloaded, moved);
      for (const NodeCost& n : moved) receiver->assigned.push_back(n);
      deficit -= moved_work;
      moved_any = true;
    }
    if (deficit > 0 && !moved_any) {
      // "If there is insufficient spare capacity, then the data server
      // uses UDDI to discover additional render services."
      MigrationAction recruit;
      recruit.kind = MigrationAction::Kind::RecruitNeeded;
      recruit.from = overloaded.subscriber_id;
      actions.push_back(recruit);
    }
  }

  // --- underload fill -------------------------------------------------------
  for (ServiceLoadView& underloaded : services) {
    if (underloaded.failed) continue;
    if (!underloaded.underloaded || underloaded.overloaded) continue;
    // Never pull extra work into an advised service.
    if (!underloaded.advisories.empty()) {
      reject(explain, underloaded.subscriber_id,
             advisory_rejection(underloaded, "blocks underload fill"));
      continue;
    }
    const double headroom = headroom_of(underloaded, config) * config.headroom_fill_fraction;
    if (headroom <= 0) continue;
    // Take from the most loaded other service.
    ServiceLoadView* donor = nullptr;
    double donor_work = 0;
    for (ServiceLoadView& candidate : services) {
      if (candidate.subscriber_id == underloaded.subscriber_id || candidate.failed) continue;
      const double work = candidate.assigned_work();
      if (work > donor_work) {
        donor = &candidate;
        donor_work = work;
      }
    }
    if (donor != nullptr && (donor->assigned.empty() || donor_work <= underloaded.assigned_work()))
      reject(explain, donor->subscriber_id, "not a useful donor for underload fill");
    if (donor == nullptr || donor->assigned.empty() ||
        donor_work <= underloaded.assigned_work()) {
      // "If no more nodes can be added, the service is marked as available
      // to support other overloaded services."
      MigrationAction mark;
      mark.kind = MigrationAction::Kind::MarkAvailable;
      mark.from = underloaded.subscriber_id;
      actions.push_back(mark);
      continue;
    }
    // Balance towards the mean, bounded by the receiver's headroom.
    const double gap = donor_work - underloaded.assigned_work();
    std::vector<NodeCost> moved =
        select_nodes_to_move(donor->assigned, std::min(gap / 2.0, headroom), headroom);
    if (moved.empty()) continue;
    double moved_work = 0;
    for (const NodeCost& n : moved) moved_work += n.work_units();
    if (moved_work >= gap) {
      // Moving this much would not narrow the gap, only swap the sides —
      // and the next round would move it back. Nothing useful fits.
      reject(explain, donor->subscriber_id, "underload fill would not narrow the work gap");
      MigrationAction mark;
      mark.kind = MigrationAction::Kind::MarkAvailable;
      mark.from = underloaded.subscriber_id;
      actions.push_back(mark);
      continue;
    }
    MigrationAction action;
    action.kind = MigrationAction::Kind::MoveNodes;
    action.from = donor->subscriber_id;
    action.to = underloaded.subscriber_id;
    action.nodes = moved;
    actions.push_back(action);
    remove_nodes(*donor, moved);
    for (const NodeCost& n : moved) underloaded.assigned.push_back(n);
  }

  return actions;
}

}  // namespace rave::core
