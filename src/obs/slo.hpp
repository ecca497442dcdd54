// SLO + anomaly engine — turns the time-series history into grid-level
// judgement. Declarative objectives (frame p99 below a bound, fps at
// least a target, a counter's rate at most a ceiling) are evaluated per
// host over rolling windows of the TimeSeriesStore; a violation that
// sustains past `burn_seconds` escalates Ok → Burning → Violated, and
// each state transition emits a structured log_event plus a flight
// recorder note. A windowed mean-shift detector flags step-change
// anomalies independently of any threshold.
//
// The engine's outputs are *advisory*: plan_migration reads them as trend
// inputs (ServiceLoadView::advisories) next to the instant EWMA flags,
// and rave-top renders them. Evaluation is a pure function of (store
// contents, now), so identical runs under SimClock produce identical
// state sequences.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/health.hpp"
#include "obs/timeseries.hpp"

namespace rave::obs {

struct SloSpec {
  enum class Kind : uint8_t {
    QuantileBelow,  // windowed histogram quantile of `metric` < threshold
    GaugeAtLeast,   // windowed mean of `metric` >= threshold
    RateAtLeast,    // windowed counter rate of `metric` >= threshold
    RateAtMost,     // windowed counter rate of `metric` <= threshold
  };
  std::string name;    // stable identifier, e.g. "frame_p99"
  std::string metric;  // series family (histogram base name for quantiles)
  std::string labels;  // rendered label selector; "" matches unlabelled
  Kind kind = Kind::QuantileBelow;
  double quantile = 0.99;     // QuantileBelow only
  double threshold = 0.066;   // the objective bound
  double window = 5.0;        // rolling evaluation window, seconds
  double burn_seconds = 3.0;  // sustained violation before Violated
  // Step-change detection for this metric: |recent mean - prior mean|
  // greater than anomaly_factor * max(|prior mean|, 1e-9) over two
  // adjacent windows flags an anomaly. 0 disables.
  double anomaly_factor = 0;
};

struct SloStatus {
  enum class State : uint8_t { NoData, Ok, Burning, Violated };
  std::string slo;
  std::string host;
  State state = State::NoData;
  double value = 0;          // the evaluated windowed value
  double threshold = 0;      // the spec bound, for display
  double violating_for = 0;  // seconds of continuous violation
  bool anomaly = false;      // step-change flagged this round
  std::string detail;        // human-readable "value vs bound" line
};

const char* to_string(SloStatus::State state);

class SloEngine {
 public:
  void add(SloSpec spec) { specs_.push_back(std::move(spec)); }
  [[nodiscard]] const std::vector<SloSpec>& specs() const { return specs_; }

  // Evaluate every objective against every host present in the store;
  // returns (and retains) the per-(slo, host) statuses, deterministically
  // ordered. State transitions log + flight-record as a side effect.
  const std::vector<SloStatus>& evaluate(const TimeSeriesStore& store, double now);

  [[nodiscard]] const std::vector<SloStatus>& current() const { return current_; }

  // One advisory per flagged objective of `host` in the most recent
  // evaluation, in status order: Slo for a burn, Anomaly for a step change
  // (Critical when its objective burns too). Reason = the status detail.
  [[nodiscard]] std::vector<Advisory> advisories(const std::string& host) const;

  // One line per status, for dashboards and deterministic transcripts.
  [[nodiscard]] std::string format_current() const;

 private:
  struct Track {
    double violating_since = -1;  // -1 = not violating
    SloStatus::State state = SloStatus::State::NoData;
    std::vector<double> history;  // evaluated values, for step detection
    bool anomaly_latched = false;  // log each anomaly onset exactly once
  };

  std::vector<SloSpec> specs_;
  std::vector<SloStatus> current_;
  std::map<std::string, Track> tracks_;  // key: slo|host
};

// The grid's default render-path objectives (§3.2.7 capacity metrics):
// frame p99 under 66 ms, fps at least `target_fps`, and tile re-dispatch
// rate approximately zero.
std::vector<SloSpec> default_render_slos(double target_fps = 15.0);

}  // namespace rave::obs
