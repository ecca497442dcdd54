#include "obs/collector.hpp"

#include "obs/event.hpp"
#include "obs/metrics.hpp"

namespace rave::obs {

Collector::Collector(util::Clock& clock, Options options)
    : clock_(&clock), options_(options), store_(options.ring_capacity) {}

void Collector::add_target(ScrapeTarget target) {
  for (Target& existing : targets_) {
    if (existing.spec.host != target.host) continue;
    existing.spec = std::move(target);  // re-register keeps the history
    return;
  }
  Target entry;
  entry.health.host = target.host;
  entry.spec = std::move(target);
  entry.next_due = clock_->now();  // first tick scrapes immediately
  targets_.push_back(std::move(entry));
}

void Collector::scrape_target(Target& target, double now) {
  target.health.last_attempt = now;
  util::Result<HostSnapshot> snapshot = target.spec.scrape
                                            ? target.spec.scrape()
                                            : util::make_error("collector: no scrape fn");
  if (!snapshot.ok()) {
    // A gap, not a failure: count it, log it, keep the target subscribed.
    // The previous successful pull's events stay in the merge.
    ++target.health.gaps;
    target.health.last_error = snapshot.error();
    MetricsRegistry::global()
        .counter("rave_collector_gaps_total", {{"host", target.spec.host}})
        .inc();
    log_event(util::LogLevel::Warn, "collector", "scrape_gap",
              target.spec.host + ": " + snapshot.error());
    // The gap itself becomes history, so SLOs and dashboards can see
    // collection trouble as a trend.
    store_.append({target.spec.host, "rave_collector_gaps_total", ""}, now,
                  static_cast<double>(target.health.gaps));
    return;
  }
  ++target.health.scrapes;
  target.health.last_success = now;
  target.health.last_error.clear();
  store_.ingest(target.spec.host, parse_prometheus(snapshot.value().metrics), now);
  target.events = decode_flight_events(snapshot.value().flight);
}

size_t Collector::tick() {
  const double now = clock_->now();
  size_t attempted = 0;
  for (Target& target : targets_) {
    if (now < target.next_due) continue;
    scrape_target(target, now);
    // Schedule from the nominal due time so a late tick doesn't drift the
    // cadence (and virtual-time runs stay aligned to the interval grid).
    target.next_due += options_.interval;
    if (target.next_due <= now) target.next_due = now + options_.interval;
    ++attempted;
  }
  return attempted;
}

size_t Collector::poll_now() {
  const double now = clock_->now();
  for (Target& target : targets_) {
    scrape_target(target, now);
    target.next_due = now + options_.interval;
  }
  return targets_.size();
}

std::vector<TimelineEvent> Collector::merged() const {
  std::vector<TimelineEvent> events;
  for (const Target& target : targets_)
    for (const FlightEvent& event : target.events) events.push_back({target.spec.host, event});
  return merge_timeline(std::move(events));
}

std::vector<Collector::TargetHealth> Collector::health() const {
  std::vector<TargetHealth> out;
  out.reserve(targets_.size());
  for (const Target& target : targets_) out.push_back(target.health);
  return out;
}

}  // namespace rave::obs
