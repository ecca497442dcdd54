// Grid timeline — the cross-host half of the flight recorder. Each host's
// ring explains one machine; a migration storm spans several, and the
// post-mortem question is causal ("lease expired on A, *then* B
// re-dispatched, *then* the relay on C miss-stormed"). The central
// Collector (collector.hpp) pulls every host's flight-recorder export in
// its status snapshot, decodes it here, and merges the events into one
// timeline ordered by HLC stamp — so the merged order is consistent with
// message causality even when host wall clocks disagree.
#pragma once

#include <string>
#include <vector>

#include "obs/flight_recorder.hpp"

namespace rave::obs {

// One merged event: a flight event plus the host whose ring supplied it.
struct TimelineEvent {
  std::string host;
  FlightEvent event;
};

// Reverse of FlightRecorder::export_events(): one event per line,
// `kind hlc_wall hlc_logical time trace_id component escaped-text`.
// Malformed lines are skipped (a truncated pull yields a shorter
// timeline, not a parse failure).
std::vector<FlightEvent> decode_flight_events(const std::string& text);

// Merge events pulled from several hosts into one timeline: deduplicated
// (two hosts sharing one process share one flight ring — identical events
// keep the first supplying host) and sorted causally — by HLC stamp when
// stamped, falling back to recorder time, with every remaining field as a
// deterministic tie-breaker so the merge is byte-stable.
std::vector<TimelineEvent> merge_timeline(std::vector<TimelineEvent> events);

// Render a merged timeline: header line, then one line per event —
// `[<wall-seconds>|<logical>] host component KIND: text` with multi-line
// texts indented under their event. Unstamped events print [----------]
// in the stamp column.
std::string format_timeline(const std::vector<TimelineEvent>& events);

}  // namespace rave::obs
