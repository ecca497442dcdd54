#include "obs/canary.hpp"

#include <algorithm>
#include <cstdio>

#include "core/thin_client.hpp"
#include "obs/event.hpp"
#include "obs/metrics.hpp"
#include "sim/machine.hpp"

namespace rave::obs {

namespace {
// A steady-state frame older than this marks the probe Degraded.
constexpr double kDegradedAgeSeconds = 0.75;
}  // namespace

Canary::Canary(util::Clock& clock, core::Fabric& fabric, Options options)
    : clock_(&clock), fabric_(&fabric), options_(std::move(options)) {}

Canary::~Canary() = default;

void Canary::watch(const std::string& host, const std::string& client_access_point,
                   const std::string& session) {
  forget(host);
  for (compress::QualityClass quality : options_.qualities) {
    Probe probe;
    probe.host = host;
    probe.access_point = client_access_point;
    probe.session = session;
    probe.quality = quality;
    probe.watch_start = clock_->now();
    probes_.push_back(std::move(probe));
  }
}

void Canary::forget(const std::string& host) {
  for (size_t i = probes_.size(); i > 0; --i) {
    if (probes_[i - 1].host == host)
      probes_.erase(probes_.begin() + static_cast<ptrdiff_t>(i - 1));
  }
}

void Canary::set_state(Probe& probe, HealthState state, const std::string& reason) {
  if (probe.state == state) {
    probe.reason = reason;
    return;
  }
  probe.state = state;
  probe.reason = reason;
  const std::string what = probe.host + " class " + compress::quality_name(probe.quality) +
                           " -> " + to_string(state) + ": " + reason;
  // Unhealthy is a failure event (post-mortem worthy: it can trigger
  // eviction); Degraded is a warning; recovery to Healthy is a note.
  if (state == HealthState::Unhealthy)
    log_event(util::LogLevel::Error, "canary", "state", what);
  else if (state == HealthState::Degraded)
    log_event(util::LogLevel::Warn, "canary", "state", what);
  else
    log_event(util::LogLevel::Info, "canary", "state", what);
}

void Canary::probe_one(Probe& probe, const std::function<void()>& pump) {
  auto& reg = MetricsRegistry::global();
  const Labels labels = {{"host", probe.host},
                         {"class", compress::quality_name(probe.quality)}};
  // (Re)establish the blackbox client lazily: a connect/subscribe failure
  // is a failed probe, and the next round retries from scratch — exactly
  // what an external prober would do.
  if (!probe.client || !probe.client->connected() || !probe.subscribed) {
    probe.client = std::make_unique<core::ThinClient>(*clock_, *fabric_, sim::xeon_desktop());
    probe.subscribed = false;
    if (pump) pump();
    util::Status connected = probe.client->connect(probe.access_point, probe.session);
    if (connected.ok()) {
      connected = probe.client->subscribe_stream(probe.quality);
      probe.subscribed = connected.ok();
    }
    if (!connected.ok()) {
      probe.client.reset();
      ++probe.frames_failed;
      ++probe.consecutive_failures;
      reg.counter("rave_canary_frames_total",
                  {{"host", probe.host},
                   {"class", compress::quality_name(probe.quality)},
                   {"result", "failed"}})
          .inc();
      if (probe.consecutive_failures >= options_.unhealthy_after)
        set_state(probe, HealthState::Unhealthy,
                  std::to_string(probe.consecutive_failures) +
                      " consecutive probe failures, last: " + connected.error());
      return;
    }
  }
  util::Result<render::Image> frame =
      probe.client->next_stream_frame(options_.frame_timeout, pump);
  if (!frame.ok()) {
    // No frame, or an assembled frame that failed its integrity check —
    // the receiver surfaces both as errors and we treat both as strikes.
    ++probe.frames_failed;
    ++probe.consecutive_failures;
    reg.counter("rave_canary_frames_total",
                {{"host", probe.host},
                 {"class", compress::quality_name(probe.quality)},
                 {"result", "failed"}})
        .inc();
    // A timeout keeps the standing subscription: the publisher still holds
    // this probe's channel, so the next publish lands in its queue (and a
    // mid-frame assembly completes next round). Only a dead wire forces a
    // fresh subscribe — tearing down on every miss would discard the
    // subscription the next publish needs, and the probe could never
    // catch a frame.
    const core::FrameStreamReceiver* receiver = probe.client->stream_receiver();
    if (receiver == nullptr || !receiver->channel_open()) probe.subscribed = false;
    if (probe.consecutive_failures >= options_.unhealthy_after)
      set_state(probe, HealthState::Unhealthy,
                std::to_string(probe.consecutive_failures) +
                    " consecutive probe failures, last: " + frame.error());
    return;
  }
  probe.consecutive_failures = 0;
  if (probe.join_seconds < 0) {
    probe.join_seconds = clock_->now() - probe.watch_start;
    if (probe.join_seconds < 0) probe.join_seconds = 0;
    reg.gauge("rave_canary_join_seconds", labels).set(probe.join_seconds);
  }
  const core::FrameStreamReceiver* receiver = probe.client->stream_receiver();
  probe.last_frame_age = receiver != nullptr ? receiver->last_frame_age() : -1;
  if (probe.last_frame_age >= 0)
    reg.gauge("rave_canary_frame_age_seconds", labels).set(probe.last_frame_age);
  if (probe.last_frame_age > kDegradedAgeSeconds) {
    ++probe.frames_late;
    reg.counter("rave_canary_frames_total",
                {{"host", probe.host},
                 {"class", compress::quality_name(probe.quality)},
                 {"result", "late"}})
        .inc();
    char reason[96];
    std::snprintf(reason, sizeof(reason), "frame age %.3fs > %.3fs", probe.last_frame_age,
                  kDegradedAgeSeconds);
    set_state(probe, HealthState::Degraded, reason);
  } else {
    ++probe.frames_ok;
    reg.counter("rave_canary_frames_total",
                {{"host", probe.host},
                 {"class", compress::quality_name(probe.quality)},
                 {"result", "ok"}})
        .inc();
    set_state(probe, HealthState::Healthy, "on-time integrity-checked frame");
  }
}

size_t Canary::probe_all(const std::function<void()>& pump) {
  auto& reg = MetricsRegistry::global();
  for (Probe& probe : probes_) probe_one(probe, pump);
  for (const HealthVerdict& verdict : verdicts())
    reg.gauge("rave_canary_state", {{"host", verdict.host}})
        .set(static_cast<double>(verdict.state));
  return probes_.size();
}

HealthVerdict Canary::verdict(const std::string& host) const {
  HealthVerdict out;
  out.host = host;
  for (const Probe& probe : probes_) {
    if (probe.host != host) continue;
    out.frames_ok += probe.frames_ok;
    out.frames_late += probe.frames_late;
    out.frames_failed += probe.frames_failed;
    if (probe.join_seconds >= 0)
      out.join_seconds = std::max(out.join_seconds, probe.join_seconds);
    out.last_frame_age = std::max(out.last_frame_age, probe.last_frame_age);
    // Worst state wins; Unknown (no probe completed) never overrides a
    // probe that has spoken.
    if (probe.state > out.state) {
      out.state = probe.state;
      out.reason = std::string("class ") + compress::quality_name(probe.quality) + ": " +
                   probe.reason;
    }
  }
  return out;
}

std::vector<HealthVerdict> Canary::verdicts() const {
  std::vector<HealthVerdict> out;
  for (const Probe& probe : probes_) {
    bool seen = false;
    for (const HealthVerdict& existing : out) seen = seen || existing.host == probe.host;
    if (!seen) out.push_back(verdict(probe.host));
  }
  return out;
}

}  // namespace rave::obs
