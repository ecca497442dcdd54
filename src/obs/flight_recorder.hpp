// Flight recorder — a fixed-size ring of recent spans and every
// migration/distribution decision (the capacity inputs the balancer saw,
// the plan it chose, the alternatives it rejected). On a failure event
// (lease expiry, killed assistant, closed subscriber) the ring is dumped
// into a post-mortem snapshot automatically, so a dead service produces a
// record of exactly what the balancer was looking at — no re-run needed.
#pragma once

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/hlc.hpp"

namespace rave::obs {

struct SpanRecord;

struct FlightEvent {
  enum class Kind : uint8_t { Span, Failure, Decision, Note };
  Kind kind = Kind::Note;
  double time = 0;
  std::string component;  // "data", "render", "fabric", ...
  std::string text;
  uint64_t trace_id = 0;  // spans only
  // Causal stamp (zero when the global Hlc is disabled): record() ticks
  // the clock per event so flight events interleave with message traffic
  // in cross-host merge order, not just by drifting wall time.
  HlcStamp hlc;
};

class FlightRecorder {
 public:
  static FlightRecorder& global();

  void set_capacity(size_t events);
  [[nodiscard]] size_t capacity() const;

  void record(FlightEvent event);
  void record_span(const SpanRecord& span);
  // Failure events auto-capture a post-mortem of the ring as of now;
  // callers that follow up with a recovery decision call
  // capture_postmortem() again so the snapshot includes the plan.
  void record_failure(const std::string& component, const std::string& text, double time);
  void record_decision(const std::string& component, const std::string& text, double time);
  void record_note(const std::string& component, const std::string& text, double time);

  // Render the ring, oldest first.
  [[nodiscard]] std::string dump() const;
  // Re-snapshot dump() into last_dump() under a reason header.
  void capture_postmortem(const std::string& reason);
  // The snapshot taken at the most recent failure/capture ("what did the
  // balancer see when X died"). Empty until a failure occurs.
  [[nodiscard]] std::string last_dump() const;

  [[nodiscard]] size_t event_count() const;
  [[nodiscard]] uint64_t total_recorded() const;  // including overwritten
  void clear();

  // Deterministic line-per-event text form served in the status
  // "snapshot" SOAP method; decode_flight_events (timeline.hpp) reverses it.
  [[nodiscard]] std::string export_events() const;

 private:
  [[nodiscard]] std::string dump_locked() const;

  mutable std::mutex mu_;
  std::deque<FlightEvent> ring_;
  size_t capacity_ = 512;
  uint64_t total_recorded_ = 0;
  std::string last_dump_;
};

}  // namespace rave::obs
