#include "obs/slo.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/event.hpp"

namespace rave::obs {

namespace {
constexpr size_t kValueHistory = 64;  // per-track evaluated values kept

std::string render_pairs(const std::vector<std::pair<std::string, std::string>>& pairs) {
  if (pairs.empty()) return "";
  std::string out = "{";
  for (size_t i = 0; i < pairs.size(); ++i) {
    if (i > 0) out += ",";
    out += pairs[i].first + "=\"" + pairs[i].second + "\"";
  }
  out += "}";
  return out;
}

bool selector_matches(const std::vector<std::pair<std::string, std::string>>& selector,
                      const std::vector<std::pair<std::string, std::string>>& labels) {
  for (const auto& want : selector)
    if (std::find(labels.begin(), labels.end(), want) == labels.end()) return false;
  return true;
}

// The host a series speaks for: its own host="..." label when present
// (per-host families in a shared in-process registry), else the scrape
// tag. Series carrying another host's label under a foreign scrape tag
// are skipped by the caller so each real host is evaluated exactly once.
std::string effective_host(const SeriesKey& key,
                           const std::vector<std::pair<std::string, std::string>>& labels,
                           bool* foreign) {
  *foreign = false;
  for (const auto& [k, v] : labels) {
    if (k != "host") continue;
    *foreign = v != key.host;
    return v;
  }
  return key.host;
}
}  // namespace

const char* to_string(SloStatus::State state) {
  switch (state) {
    case SloStatus::State::NoData: return "NO-DATA";
    case SloStatus::State::Ok: return "OK";
    case SloStatus::State::Burning: return "BURNING";
    case SloStatus::State::Violated: return "VIOLATED";
  }
  return "?";
}

const std::vector<SloStatus>& SloEngine::evaluate(const TimeSeriesStore& store, double now) {
  current_.clear();
  for (const SloSpec& spec : specs_) {
    const bool is_quantile = spec.kind == SloSpec::Kind::QuantileBelow;
    const std::string series_name = is_quantile ? spec.metric + "_bucket" : spec.metric;
    const auto selector = parse_labels(spec.labels);

    // Evaluation units: one per (host, label set) matching the spec.
    struct Unit {
      std::string host;
      SeriesKey key;       // the series to roll up (non-quantile)
      std::string labels;  // the label selector for windowed_quantile
    };
    std::vector<Unit> units;
    for (const SeriesKey& key : store.keys()) {
      if (key.name != series_name) continue;
      auto labels = parse_labels(key.labels);
      if (!selector_matches(selector, labels)) continue;
      bool foreign = false;
      const std::string host = effective_host(key, labels, &foreign);
      if (foreign) continue;  // another host's family under a foreign scrape
      if (is_quantile) {
        // Group buckets: drop the le label and dedupe on the rest.
        labels.erase(std::remove_if(labels.begin(), labels.end(),
                                    [](const auto& p) { return p.first == "le"; }),
                     labels.end());
      }
      Unit unit;
      unit.host = host;
      unit.key = key;
      unit.labels = render_pairs(labels);
      bool duplicate = false;
      for (const Unit& existing : units)
        if (existing.host == unit.host && existing.labels == unit.labels) duplicate = true;
      if (!duplicate) units.push_back(std::move(unit));
    }

    for (const Unit& unit : units) {
      SloStatus status;
      status.slo = spec.name;
      status.host = unit.host;
      status.threshold = spec.threshold;

      bool no_data = false;
      bool violating = false;
      switch (spec.kind) {
        case SloSpec::Kind::QuantileBelow: {
          // New observations this window? The _count family tells us.
          SeriesKey count_key{unit.key.host, spec.metric + "_count", unit.labels};
          const Rollup counts = store.rollup(count_key, spec.window, now);
          no_data = counts.count < 2 || counts.rate <= 0;
          status.value = store.windowed_quantile(unit.key.host, spec.metric, unit.labels,
                                                 spec.quantile, spec.window, now);
          violating = status.value >= spec.threshold;
          break;
        }
        case SloSpec::Kind::GaugeAtLeast: {
          const Rollup roll = store.rollup(unit.key, spec.window, now);
          no_data = roll.count == 0;
          status.value = roll.mean;
          violating = status.value < spec.threshold;
          break;
        }
        case SloSpec::Kind::RateAtLeast:
        case SloSpec::Kind::RateAtMost: {
          const Rollup roll = store.rollup(unit.key, spec.window, now);
          no_data = roll.count < 2;
          status.value = roll.rate;
          violating = spec.kind == SloSpec::Kind::RateAtLeast ? status.value < spec.threshold
                                                              : status.value > spec.threshold;
          break;
        }
      }

      const std::string track_key = spec.name + "|" + unit.host;
      Track& track = tracks_[track_key];
      SloStatus::State next = SloStatus::State::Ok;
      if (no_data) {
        next = SloStatus::State::NoData;
        track.violating_since = -1;
      } else if (violating) {
        if (track.violating_since < 0) track.violating_since = now;
        status.violating_for = now - track.violating_since;
        next = status.violating_for >= spec.burn_seconds ? SloStatus::State::Violated
                                                         : SloStatus::State::Burning;
      } else {
        track.violating_since = -1;
      }

      // Step-change anomaly over the engine's own evaluated-value history:
      // mean of the newest k values vs the k before them.
      if (spec.anomaly_factor > 0 && !no_data) {
        track.history.push_back(status.value);
        if (track.history.size() > kValueHistory)
          track.history.erase(track.history.begin());
        const size_t n = track.history.size();
        const size_t k = std::min<size_t>(5, n / 2);
        if (k >= 2) {
          double recent = 0;
          double prior = 0;
          for (size_t i = n - k; i < n; ++i) recent += track.history[i];
          for (size_t i = n - 2 * k; i < n - k; ++i) prior += track.history[i];
          recent /= static_cast<double>(k);
          prior /= static_cast<double>(k);
          status.anomaly =
              std::fabs(recent - prior) > spec.anomaly_factor * std::max(std::fabs(prior), 1e-9);
        }
      }

      char detail[160];
      std::snprintf(detail, sizeof(detail), "%s host=%s: %s value=%.4g bound=%.4g%s",
                    spec.name.c_str(), unit.host.c_str(), to_string(next), status.value,
                    spec.threshold, status.anomaly ? " ANOMALY" : "");
      status.detail = detail;

      if (next != track.state) {
        // Transitions are structured events: Violated warns (and lands in
        // the flight ring), everything else informs.
        log_event(next == SloStatus::State::Violated ? util::LogLevel::Warn
                                                     : util::LogLevel::Info,
                  "slo",
                  next == SloStatus::State::Violated    ? "slo_violated"
                  : next == SloStatus::State::Burning   ? "slo_burning"
                  : track.state == SloStatus::State::Violated ? "slo_recovered"
                                                              : "slo_state",
                  status.detail);
        track.state = next;
      }
      if (status.anomaly && !track.anomaly_latched)
        log_event(util::LogLevel::Warn, "slo", "metric_anomaly", status.detail);
      track.anomaly_latched = status.anomaly;

      status.state = next;
      current_.push_back(std::move(status));
    }
  }
  return current_;
}

std::vector<Advisory> SloEngine::advisories(const std::string& host) const {
  std::vector<Advisory> out;
  for (const SloStatus& status : current_) {
    if (status.host != host) continue;
    const bool burning = status.state == SloStatus::State::Burning ||
                         status.state == SloStatus::State::Violated;
    if (!burning && !status.anomaly) continue;
    out.push_back({status.anomaly ? Advisory::Source::Anomaly : Advisory::Source::Slo,
                   burning ? Advisory::Severity::Critical : Advisory::Severity::Warning,
                   status.detail});
  }
  return out;
}

std::string SloEngine::format_current() const {
  std::string out;
  for (const SloStatus& status : current_) {
    out += "slo ";
    out += status.detail;
    if (status.violating_for > 0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), " (violating %.1fs)", status.violating_for);
      out += buf;
    }
    out += "\n";
  }
  return out;
}

std::vector<SloSpec> default_render_slos(double target_fps) {
  std::vector<SloSpec> specs;
  SloSpec p99;
  p99.name = "frame_p99";
  p99.metric = "rave_frame_seconds";
  p99.kind = SloSpec::Kind::QuantileBelow;
  p99.quantile = 0.99;
  p99.threshold = 0.066;  // 66 ms: a dropped frame at 15 fps interactive
  p99.window = 5.0;
  p99.burn_seconds = 3.0;
  p99.anomaly_factor = 0.5;
  specs.push_back(p99);

  SloSpec fps;
  fps.name = "fps";
  fps.metric = "rave_frame_seconds_count";  // frames/sec = the count's rate
  fps.kind = SloSpec::Kind::RateAtLeast;
  fps.threshold = target_fps;
  fps.window = 5.0;
  fps.burn_seconds = 3.0;
  fps.anomaly_factor = 0.5;
  specs.push_back(fps);

  SloSpec redispatch;
  redispatch.name = "tile_redispatch";
  redispatch.metric = "rave_events_total";
  redispatch.labels = "{component=\"render\",event=\"tile_redispatched\"}";
  redispatch.kind = SloSpec::Kind::RateAtMost;
  redispatch.threshold = 1e-9;  // ≈ 0: any sustained re-dispatch burns
  redispatch.window = 5.0;
  redispatch.burn_seconds = 3.0;
  specs.push_back(redispatch);

  // Transport backpressure: a sustained shed rate means subscribers are
  // slower than the bounded write queues allow — frames are being dropped
  // to keep the publisher unblocked (net/reactor.hpp). The dashboard's
  // correct response is to move the offending class to a cheaper quality,
  // which is why this burns as an SLO instead of hiding in a counter.
  SloSpec shed;
  shed.name = "transport_shed";
  shed.metric = "rave_net_sends_shed_total";
  shed.kind = SloSpec::Kind::RateAtMost;
  shed.threshold = 1e-9;  // ≈ 0: any sustained shedding burns
  shed.window = 5.0;
  shed.burn_seconds = 3.0;
  specs.push_back(shed);

  // Frame-delivery latency per subscriber class: the end-to-end age
  // (publisher stamp → subscriber completion) the stream tier records as
  // rave_stream_delivery_seconds{class,hop="deliver"}. A burning class
  // feeds plan_migration the same way transport_shed does — the advisory
  // says *which audience* is stale, so the planner can move that class to
  // a cheaper codec or a closer relay instead of guessing. Workstations
  // sit on the LAN (one dropped frame at 15 fps); PDAs cross the WAN and
  // tolerate roughly double.
  struct ClassBudget {
    const char* suffix;
    const char* selector;
    double threshold;
  };
  const ClassBudget budgets[] = {
      {"workstation", "{class=\"workstation\",hop=\"deliver\"}", 0.066},
      {"pda", "{class=\"pda\",hop=\"deliver\"}", 0.133},
  };
  for (const ClassBudget& budget : budgets) {
    SloSpec delivery;
    delivery.name = std::string("delivery_latency_") + budget.suffix;
    delivery.metric = "rave_stream_delivery_seconds";
    delivery.labels = budget.selector;
    delivery.kind = SloSpec::Kind::QuantileBelow;
    delivery.quantile = 0.99;
    delivery.threshold = budget.threshold;
    delivery.window = 5.0;
    delivery.burn_seconds = 3.0;
    delivery.anomaly_factor = 0.5;
    specs.push_back(delivery);
  }
  return specs;
}

}  // namespace rave::obs
