#include "obs/flight_recorder.hpp"

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "obs/trace.hpp"

namespace rave::obs {

size_t parse_flight_capacity(const char* text, size_t fallback) {
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0') return fallback;
  if (value < 16) return 16;
  if (value > 65536) return 65536;
  return static_cast<size_t>(value);
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder* recorder = [] {
    auto* r = new FlightRecorder();  // never destroyed
    r->set_capacity(parse_flight_capacity(std::getenv("RAVE_FLIGHT_EVENTS"), 512));
    return r;
  }();
  return *recorder;
}

void FlightRecorder::set_capacity(size_t events) {
  std::lock_guard lock(mu_);
  capacity_ = events;
  while (ring_.size() > capacity_) ring_.pop_front();
}

size_t FlightRecorder::capacity() const {
  std::lock_guard lock(mu_);
  return capacity_;
}

void FlightRecorder::record(FlightEvent event) {
  // Tick the HLC per event (when enabled) so two flight events on the
  // same host never share a stamp, and an event recorded after a message
  // receive orders after that message's sender.
  if (!event.hlc.valid() && Hlc::global().enabled()) event.hlc = Hlc::global().tick();
  std::lock_guard lock(mu_);
  if (ring_.size() >= capacity_) ring_.pop_front();
  ring_.push_back(std::move(event));
  ++total_recorded_;
}

void FlightRecorder::record_span(const SpanRecord& span) {
  char text[160];
  std::snprintf(text, sizeof(text), "%s @%s span=%llu parent=%llu %.6fs", span.name.c_str(),
                span.host.c_str(), static_cast<unsigned long long>(span.span_id),
                static_cast<unsigned long long>(span.parent_span_id), span.end - span.start);
  record({FlightEvent::Kind::Span, span.start, "trace", text, span.trace_id});
}

void FlightRecorder::record_failure(const std::string& component, const std::string& text,
                                    double time) {
  record({FlightEvent::Kind::Failure, time, component, text, 0});
  capture_postmortem("failure: " + component + ": " + text);
}

void FlightRecorder::record_decision(const std::string& component, const std::string& text,
                                     double time) {
  record({FlightEvent::Kind::Decision, time, component, text, 0});
}

void FlightRecorder::record_note(const std::string& component, const std::string& text,
                                 double time) {
  record({FlightEvent::Kind::Note, time, component, text, 0});
}

namespace {
const char* kind_name(FlightEvent::Kind kind) {
  switch (kind) {
    case FlightEvent::Kind::Span: return "span  ";
    case FlightEvent::Kind::Failure: return "FAIL  ";
    case FlightEvent::Kind::Decision: return "DECIDE";
    case FlightEvent::Kind::Note: return "note  ";
  }
  return "?     ";
}
}  // namespace

std::string FlightRecorder::dump_locked() const {
  std::ostringstream out;
  out << "RAVE flight recorder · " << ring_.size() << " event(s) (" << total_recorded_
      << " recorded, capacity " << capacity_ << ")\n";
  char stamp[32];
  for (const FlightEvent& event : ring_) {
    std::snprintf(stamp, sizeof(stamp), "[%12.6f] ", event.time);
    out << stamp << kind_name(event.kind) << " " << event.component;
    if (event.trace_id != 0) out << " trace=" << event.trace_id;
    out << ": " << event.text << "\n";
  }
  return out.str();
}

std::string FlightRecorder::dump() const {
  std::lock_guard lock(mu_);
  return dump_locked();
}

void FlightRecorder::capture_postmortem(const std::string& reason) {
  std::lock_guard lock(mu_);
  last_dump_ = "post-mortem (" + reason + ")\n" + dump_locked();
}

std::string FlightRecorder::last_dump() const {
  std::lock_guard lock(mu_);
  return last_dump_;
}

size_t FlightRecorder::event_count() const {
  std::lock_guard lock(mu_);
  return ring_.size();
}

uint64_t FlightRecorder::total_recorded() const {
  std::lock_guard lock(mu_);
  return total_recorded_;
}

void FlightRecorder::clear() {
  std::lock_guard lock(mu_);
  ring_.clear();
  total_recorded_ = 0;
  last_dump_.clear();
}

namespace {
// Decision texts are multi-line (planner explains); the export is
// line-per-event, so escape the separators.
void append_escaped(std::string& out, const std::string& text) {
  for (char c : text) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out += c;
    }
  }
}
}  // namespace

std::string FlightRecorder::export_events() const {
  std::lock_guard lock(mu_);
  std::string out;
  out.reserve(ring_.size() * 96);
  char head[96];
  for (const FlightEvent& event : ring_) {
    std::snprintf(head, sizeof(head), "%u %llu %u %.6f %llu %s ",
                  static_cast<unsigned>(event.kind),
                  static_cast<unsigned long long>(event.hlc.wall), event.hlc.logical, event.time,
                  static_cast<unsigned long long>(event.trace_id), event.component.c_str());
    out += head;
    append_escaped(out, event.text);
    out += '\n';
  }
  return out;
}

}  // namespace rave::obs
