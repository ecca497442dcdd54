#include "obs/timeline.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <tuple>

namespace rave::obs {

namespace {
void unescape_into(std::string& out, const char* begin, const char* end) {
  for (const char* p = begin; p < end; ++p) {
    if (*p == '\\' && p + 1 < end) {
      ++p;
      out += (*p == 'n') ? '\n' : *p;
    } else {
      out += *p;
    }
  }
}
}  // namespace

std::vector<FlightEvent> decode_flight_events(const std::string& text) {
  std::vector<FlightEvent> out;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const char* line = text.data() + pos;
    const char* line_end = text.data() + eol;
    pos = eol + 1;
    // kind hlc_wall hlc_logical time trace_id component escaped-text
    unsigned kind = 0;
    unsigned long long wall = 0;
    unsigned logical = 0;
    double time = 0;
    unsigned long long trace_id = 0;
    char component[64];
    int consumed = 0;
    const int fields = std::sscanf(line, "%u %llu %u %lf %llu %63s %n", &kind, &wall, &logical,
                                   &time, &trace_id, component, &consumed);
    if (fields < 6 || kind > 3) continue;  // malformed line: skip, don't fail
    FlightEvent event;
    event.kind = static_cast<FlightEvent::Kind>(kind);
    event.hlc = {wall, static_cast<uint32_t>(logical)};
    event.time = time;
    event.trace_id = trace_id;
    event.component = component;
    if (line + consumed <= line_end) unescape_into(event.text, line + consumed, line_end);
    out.push_back(std::move(event));
  }
  return out;
}

namespace {
// Full-field ordering key: HLC first (causal), then recorder time (the
// fallback when stamps are absent), then every remaining field so the
// sort — and therefore the rendered timeline — is byte-stable no matter
// what order targets were pulled in.
auto order_key(const TimelineEvent& e) {
  return std::make_tuple(e.event.hlc.wall, e.event.hlc.logical, e.event.time,
                         static_cast<unsigned>(e.event.kind), std::cref(e.event.component),
                         std::cref(e.event.text), e.event.trace_id, std::cref(e.host));
}
// Dedup key: everything but the host. In-process grids share one flight
// ring, so every host's pull returns the same events; the merge keeps
// the first supplying host for each.
auto dedup_key(const TimelineEvent& e) {
  return std::make_tuple(e.event.hlc.wall, e.event.hlc.logical, e.event.time,
                         static_cast<unsigned>(e.event.kind), std::cref(e.event.component),
                         std::cref(e.event.text), e.event.trace_id);
}
}  // namespace

std::vector<TimelineEvent> merge_timeline(std::vector<TimelineEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TimelineEvent& a, const TimelineEvent& b) {
                     return order_key(a) < order_key(b);
                   });
  events.erase(std::unique(events.begin(), events.end(),
                           [](const TimelineEvent& a, const TimelineEvent& b) {
                             return dedup_key(a) == dedup_key(b);
                           }),
               events.end());
  return events;
}

namespace {
const char* kind_label(FlightEvent::Kind kind) {
  switch (kind) {
    case FlightEvent::Kind::Span: return "span";
    case FlightEvent::Kind::Failure: return "FAIL";
    case FlightEvent::Kind::Decision: return "DECIDE";
    case FlightEvent::Kind::Note: return "note";
  }
  return "?";
}
}  // namespace

std::string format_timeline(const std::vector<TimelineEvent>& events) {
  std::string out = "RAVE grid timeline · " + std::to_string(events.size()) + " event(s)\n";
  char stamp[48];
  for (const TimelineEvent& e : events) {
    if (e.event.hlc.valid()) {
      std::snprintf(stamp, sizeof(stamp), "[%10.6f|%u] ",
                    static_cast<double>(e.event.hlc.wall) / 1e6, e.event.hlc.logical);
    } else {
      std::snprintf(stamp, sizeof(stamp), "[----------] t=%.6f ", e.event.time);
    }
    out += stamp;
    out += e.host + " " + e.event.component + " " + kind_label(e.event.kind) + ": ";
    // Indent continuation lines under their event so multi-line decision
    // texts read as one block.
    for (char c : e.event.text) {
      out += c;
      if (c == '\n') out += "    ";
    }
    out += '\n';
  }
  return out;
}

}  // namespace rave::obs
