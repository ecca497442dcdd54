#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "obs/flight_recorder.hpp"
#include "obs/profiler.hpp"
#include "util/clock.hpp"
#include "util/log.hpp"

namespace rave::obs {

namespace {
thread_local TraceContext tls_current;
thread_local std::string tls_host;

double steady_seconds() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - epoch).count();
}
}  // namespace

bool parse_trace_switch(const char* text, bool& out) {
  if (text == nullptr) return false;
  if (std::strcmp(text, "1") == 0 || std::strcmp(text, "on") == 0) {
    out = true;
    return true;
  }
  if (std::strcmp(text, "0") == 0 || std::strcmp(text, "off") == 0) {
    out = false;
    return true;
  }
  return false;
}

Tracer& Tracer::global() {
  static Tracer* tracer = [] {
    auto* t = new Tracer();  // never destroyed
    bool on = false;
    const char* env = std::getenv("RAVE_TRACE");
    if (env != nullptr && !parse_trace_switch(env, on))
      util::log_warn("trace") << "RAVE_TRACE='" << env
                              << "' not recognized (1|on|0|off); tracing off";
    t->set_enabled(on);
    return t;
  }();
  return *tracer;
}

double Tracer::now() const { return clock_ != nullptr ? clock_->now() : steady_seconds(); }

TraceContext Tracer::begin_trace() { return {next_span_id(), 0}; }

void Tracer::record(SpanRecord span) {
  FlightRecorder::global().record_span(span);
  std::lock_guard lock(mu_);
  if (spans_.size() >= capacity_) {
    spans_.erase(spans_.begin());
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  std::lock_guard lock(mu_);
  return spans_;
}

void Tracer::reset() {
  std::lock_guard lock(mu_);
  spans_.clear();
  dropped_.store(0, std::memory_order_relaxed);
  next_id_.store(1, std::memory_order_relaxed);
}

TraceContext Tracer::current() { return tls_current; }
void Tracer::set_current(TraceContext context) { tls_current = context; }

const std::string& Tracer::current_host() { return tls_host; }
void Tracer::set_current_host(std::string host) { tls_host = std::move(host); }

ScopedSpan::ScopedSpan(std::string name, std::string host, TraceContext parent) {
  // The profiler samples annotation stacks independently of whether the
  // tracer is recording — a span site feeds it even on untraced frames.
  profiled_ = Profiler::push_frame(name);
  Tracer& tracer = Tracer::global();
  if (!tracer.enabled() || !parent.valid()) return;
  active_ = true;
  record_.trace_id = parent.trace_id;
  record_.parent_span_id = parent.span_id;
  record_.span_id = tracer.next_span_id();
  record_.name = std::move(name);
  record_.host = std::move(host);
  record_.start = tracer.now();
  previous_ = tls_current;
  tls_current = {record_.trace_id, record_.span_id};
}

ScopedSpan::~ScopedSpan() {
  if (profiled_) Profiler::pop_frame();
  if (!active_) return;
  record_.end = Tracer::global().now();
  tls_current = previous_;
  Tracer::global().record(std::move(record_));
}

ScopedSpan ScopedSpan::root(std::string name, std::string host) {
  Tracer& tracer = Tracer::global();
  const TraceContext parent = tracer.enabled() ? tracer.begin_trace() : TraceContext{};
  return {std::move(name), std::move(host), parent};
}

std::vector<uint64_t> trace_ids(const std::vector<SpanRecord>& spans) {
  std::vector<uint64_t> ids;
  for (const SpanRecord& span : spans) ids.push_back(span.trace_id);
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

CriticalPath critical_path(const std::vector<SpanRecord>& spans, uint64_t trace_id) {
  CriticalPath path;
  path.trace_id = trace_id;
  std::vector<const SpanRecord*> mine;
  for (const SpanRecord& span : spans)
    if (span.trace_id == trace_id) mine.push_back(&span);
  if (mine.empty()) return path;

  std::map<uint64_t, double> child_seconds;  // parent span id -> Σ child durations
  double first = mine.front()->start, last = mine.front()->end;
  for (const SpanRecord* span : mine) {
    child_seconds[span->parent_span_id] += span->end - span->start;
    first = std::min(first, span->start);
    last = std::max(last, span->end);
  }
  path.total_seconds = last - first;

  std::map<std::pair<std::string, std::string>, HopCost> hops;  // (name, host)
  for (const SpanRecord* span : mine) {
    double self = span->end - span->start;
    const auto children = child_seconds.find(span->span_id);
    if (children != child_seconds.end()) self -= children->second;
    if (self < 0) self = 0;  // overlapping children (pool fan-out) overcount
    HopCost& hop = hops[{span->name, span->host}];
    hop.name = span->name;
    hop.host = span->host;
    hop.self_seconds += self;
    ++hop.spans;
  }
  for (auto& [key, hop] : hops) path.hops.push_back(std::move(hop));
  std::stable_sort(path.hops.begin(), path.hops.end(), [](const HopCost& a, const HopCost& b) {
    if (a.self_seconds != b.self_seconds) return a.self_seconds > b.self_seconds;
    if (a.name != b.name) return a.name < b.name;
    return a.host < b.host;
  });
  path.dominant = path.hops.front().name + "@" + path.hops.front().host;
  return path;
}

std::string format_critical_path(const CriticalPath& path) {
  std::ostringstream out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6fs", path.total_seconds);
  out << "critical path trace " << path.trace_id << " · total " << buf << " · dominant "
      << (path.dominant.empty() ? "(none)" : path.dominant) << "\n";
  for (const HopCost& hop : path.hops) {
    std::snprintf(buf, sizeof(buf), "%9.6fs", hop.self_seconds);
    out << "  " << buf << "  " << hop.name << " @" << hop.host << " (" << hop.spans
        << " span(s))\n";
  }
  return out.str();
}

std::string stitch_trace(const std::vector<SpanRecord>& spans, uint64_t trace_id) {
  std::vector<const SpanRecord*> mine;
  for (const SpanRecord& span : spans)
    if (span.trace_id == trace_id) mine.push_back(&span);
  // Deterministic order: start time, then span id (allocation order breaks
  // exact ties from zero-duration virtual-time spans).
  std::stable_sort(mine.begin(), mine.end(), [](const SpanRecord* a, const SpanRecord* b) {
    if (a->start != b->start) return a->start < b->start;
    return a->span_id < b->span_id;
  });

  std::map<uint64_t, int> depth;  // span id -> indent level
  std::ostringstream out;
  out << "trace " << trace_id << " · " << mine.size() << " span(s)\n";
  char line[64];
  for (const SpanRecord* span : mine) {
    int d = 0;
    auto parent = depth.find(span->parent_span_id);
    if (parent != depth.end()) d = parent->second + 1;
    depth[span->span_id] = d;
    std::snprintf(line, sizeof(line), "[%12.6f +%9.6fs] ", span->start, span->end - span->start);
    out << line;
    for (int i = 0; i < d; ++i) out << "  ";
    out << span->name << " @" << span->host << "\n";
  }
  return out.str();
}

}  // namespace rave::obs
