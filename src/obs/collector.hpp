// Central collector — the pull half of the telemetry and health planes. A
// grid-level component (hosted next to the data service) periodically
// pulls one status snapshot from every subscribed host (the status
// "snapshot" SOAP method): the host's Prometheus text exposition, its
// flight-recorder export and its canary verdict. The exposition is parsed
// and appended into a TimeSeriesStore tagged by host; the flight events
// are kept per host and merged into the causally ordered grid timeline.
// The verdict serves remote status interrogation; the grid's planner asks
// its canary in process. Transport is injected as a per-target pull
// function so the same collector runs over the in-process fabric, TCP, or
// a synthetic generator in tests; retry/backoff lives inside the wiring
// (the grid uses Fabric::dial_retry with its RetryPolicy).
//
// Failure semantics: a failed pull is a telemetry *gap*, never a service
// failure — the target stays subscribed, the gap is counted and logged
// (rave_collector_gaps_total), the host's previously pulled events stay
// in the merged timeline, and the next tick retries. Dead hosts must
// never stall collection of healthy ones, so targets are polled
// independently in deterministic (insertion) order.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/timeline.hpp"
#include "obs/timeseries.hpp"
#include "util/clock.hpp"
#include "util/result.hpp"

namespace rave::obs {

// Everything one host reports per collection tick.
struct HostSnapshot {
  std::string metrics;   // Prometheus text exposition
  std::string flight;    // FlightRecorder::export_events() text
  HealthVerdict health;  // the host's canary verdict (Unknown when unwatched)
};

struct ScrapeTarget {
  std::string host;
  // Fetch the host's current snapshot. Errors mean a gap for this tick
  // only.
  std::function<util::Result<HostSnapshot>()> scrape;
};

class Collector {
 public:
  struct Options {
    double interval = 1.0;      // seconds between polls of each target
    size_t ring_capacity = 512; // per-series history depth
  };

  // Two overloads instead of `Options options = {}`: a brace default for
  // a nested class with member initializers trips GCC inside the
  // enclosing class body.
  explicit Collector(util::Clock& clock) : Collector(clock, Options()) {}
  Collector(util::Clock& clock, Options options);

  void add_target(ScrapeTarget target);
  void remove_target(const std::string& host);
  [[nodiscard]] size_t target_count() const { return targets_.size(); }

  // Pull every target whose interval has elapsed; returns the number of
  // pull attempts made (successes and gaps both count).
  size_t tick();
  // Pull every target now, regardless of the interval.
  size_t poll_now();

  [[nodiscard]] const TimeSeriesStore& store() const { return store_; }
  [[nodiscard]] TimeSeriesStore& store() { return store_; }

  // The merged grid timeline over every target's last pulled flight
  // events (see merge_timeline).
  [[nodiscard]] std::vector<TimelineEvent> merged() const;

  // Per-target collection health: successes, gaps, and when each last
  // happened (-1 = never).
  struct TargetHealth {
    std::string host;
    uint64_t scrapes = 0;       // successful pulls
    uint64_t gaps = 0;          // failed pull attempts
    double last_success = -1;
    double last_attempt = -1;
    std::string last_error;     // empty unless the last attempt failed
  };
  [[nodiscard]] std::vector<TargetHealth> health() const;

  // Deterministic JSONL of the whole store (delegates to the store).
  [[nodiscard]] std::string export_jsonl() const { return store_.export_jsonl(); }

  [[nodiscard]] const Options& options() const { return options_; }

 private:
  struct Target {
    ScrapeTarget spec;
    TargetHealth health;
    std::vector<FlightEvent> events;  // latest successful pull
    double next_due = 0;              // poll when now >= next_due
  };

  void scrape_target(Target& target, double now);

  util::Clock* clock_;
  Options options_;
  TimeSeriesStore store_;
  std::vector<Target> targets_;  // insertion order: deterministic polling
};

}  // namespace rave::obs
