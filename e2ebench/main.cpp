// e2e_frame — runs one workload of the end-to-end frame benchmark for a
// time budget and prints its metrics as one JSON object on the last line
// of stdout (a metadata object precedes it).
//
//   e2e_frame --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] [--git-sha <sha>]
//
// A run repeats trials — a fresh deployment plus the workload's fixed,
// seeded frame sequence — until the budget is spent. Frame times and rates
// pool the frames of every trial; set-up time is the median over the
// trials' deployments and extra deployments made between trials. --trace 0
// reports the end-to-end metrics. --trace 1 alternates untraced and
// traced trials and reports the per-layer split, the tracing overhead and
// the counters. --tiny shrinks the scenes and frame counts for tests.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "net/tcp.hpp"
#include "util/simd.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace e2e;

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (const double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

// Deployments made after each trial of a --trace 0 run, beside the trial's
// own, so that setup_s is a median over three times as many set-ups,
// spread over the whole run.
constexpr int kExtraDeployments = 2;

struct Metric {
  std::string name, unit;
  double value;
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string git_sha = "unknown";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      a.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::atoi(v) != 0;
    else if (flag == "--git-sha") a.git_sha = v;
    else return false;
  }
  return !a.workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: e2e_frame --workload <name> --seed <n> --seconds <s> --trace <0|1> "
                 "[--tiny] [--git-sha <sha>]\n");
    return 2;
  }
  const auto& all = workloads();
  const auto found = std::find_if(all.begin(), all.end(),
                                  [&](const Workload& w) { return w.name == args.workload; });
  if (found == all.end()) {
    std::fprintf(stderr, "e2e_frame: unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const Workload& workload = *found;

  // Every RAVE_* setting changes a built-in default; record each one.
  std::vector<std::pair<std::string, std::string>> rave_env;
  std::vector<std::string> warnings;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv = *e;
    if (kv.rfind("RAVE_", 0) != 0) continue;
    const size_t eq = kv.find('=');
    rave_env.emplace_back(kv.substr(0, eq), eq == std::string::npos ? "" : kv.substr(eq + 1));
    warnings.push_back(kv.substr(0, eq) + " is set and overrides a built-in default");
    std::fprintf(stderr, "e2e_frame: warning: %s\n", warnings.back().c_str());
  }

  TrialConfig config;
  config.seed = args.seed;
  config.frames = args.tiny ? workload.tiny_frames : workload.frames;
  config.tiny = args.tiny;
  // Trials keep starting while another fits in the budget: at least three
  // (set-up time is their median), two of each kind when tracing, and one
  // of each with --tiny.
  const int min_trials = args.tiny ? (args.trace ? 2 : 1) : (args.trace ? 4 : 3);
  const int max_trials = 64;

  std::vector<TrialResult> untraced, traced, deployments;
  const double start = now_s();
  for (int n = 0; n < max_trials; ++n) {
    const double elapsed = now_s() - start;
    if (n >= min_trials && elapsed + elapsed / n > args.seconds) break;
    config.traced = args.trace && n % 2 == 1;
    TrialResult r = workload.run(config);
    if (!r.error.empty())
      std::fprintf(stderr, "e2e_frame: %s trial %d: %s\n", workload.name.c_str(), n,
                   r.error.c_str());
    (config.traced ? traced : untraced).push_back(std::move(r));
    if (args.trace) continue;
    TrialConfig deploy_only = config;
    deploy_only.frames = 0;
    for (int k = 0; k < kExtraDeployments; ++k) {
      deployments.push_back(workload.run(deploy_only));
      if (!deployments.back().error.empty())
        std::fprintf(stderr, "e2e_frame: %s deployment after trial %d: %s\n",
                     workload.name.c_str(), n, deployments.back().error.c_str());
    }
  }

  int attempted = 0, failed = 0;
  bool setups_ok = true;
  size_t loop_frames = 0;
  double loop_s = 0, loop_cpu_s = 0;
  std::vector<double> setup_s, wire, frames_untraced, frames_traced;
  for (const auto* set : {&untraced, &traced, &deployments}) {
    for (const TrialResult& r : *set) {
      attempted += r.attempted;
      failed += r.failed;
      setups_ok = setups_ok && r.setup_ok;
      setup_s.push_back(r.setup_s);
    }
  }
  for (const TrialResult& r : untraced) {
    if (!r.setup_ok) continue;
    loop_frames += r.cycle_s.size();
    for (size_t i = 0; i < r.cycle_s.size(); ++i) {
      loop_s += r.cycle_s[i];
      loop_cpu_s += r.cycle_cpu_s[i];
    }
    wire.push_back(static_cast<double>(r.wire_bytes) / r.attempted);
    frames_untraced.insert(frames_untraced.end(), r.frame_ms.begin(), r.frame_ms.end());
  }
  const auto json_list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (size_t i = 0; i < v.size(); ++i) out += (i ? ", " : "") + json_number(v[i]);
    return out + "]";
  };
  const double failed_frac = attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"frames_per_s", "1/s", loop_s > 0 ? loop_frames / loop_s : 0},
        {"frame_ms.mean", "ms", mean(frames_untraced)},
        {"frame_ms.p90", "ms", percentile(frames_untraced, 0.9)},
        {"cpu_ms_per_frame", "ms", loop_frames > 0 ? loop_cpu_s * 1e3 / loop_frames : 0},
        {"wire_bytes_per_frame", "bytes", median(wire)},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
        {"delivered_frac", "1", 1.0 - failed_frac},
    };
  } else {
    std::map<std::string, double> layer_ms;
    std::map<std::string, std::vector<double>> counters;
    int traced_frames = 0;
    for (const TrialResult& r : traced) {
      if (!r.setup_ok) continue;
      traced_frames += r.attempted;
      for (const auto& [name, ms] : r.layer_ms) layer_ms[name] += ms;
      for (const auto& [name, v] : r.counters) counters[name].push_back(v);
      frames_traced.insert(frames_traced.end(), r.frame_ms.begin(), r.frame_ms.end());
    }
    const double n = std::max(traced_frames, 1);
    const double mean_traced = mean(frames_traced), mean_untraced = mean(frames_untraced);
    double blocking = 0;
    for (const std::string& name : blocking_layers()) blocking += layer_ms[name] / n;
    std::map<std::string, double> values;
    for (const auto& [name, ms] : layer_ms) values[name] = ms / n;
    for (const auto& [name, v] : counters) values[name] = median(v);
    values["unattributed_ms"] = mean_traced - blocking;
    values["traced.frame_ms.mean"] = mean_traced;
    values["traced.frame_ms.p50"] = percentile(frames_traced, 0.5);
    values["frame_ms.p50"] = percentile(frames_untraced, 0.5);
    values["trace_overhead_frac"] =
        mean_untraced > 0 ? (mean_traced - mean_untraced) / mean_untraced : 0;
    values["failed_frac"] = failed_frac;
    for (const auto& [name, unit] : layer_metrics()) metrics.push_back({name, unit, values[name]});
  }

  std::printf("{\"meta\": {\"workload\": %s, \"seed\": %llu, \"trace\": %d, \"seconds\": %s, "
              "\"git_sha\": %s, \"nproc\": %u, \"simd\": %s, \"transport\": %s, "
              "\"tiny\": %s, \"trials_untraced\": %zu, \"trials_traced\": %zu, \"extra_deployments\": %zu, "
              "\"frames_per_trial\": %d, \"frames_attempted\": %d, "
              "\"frame_samples_untraced\": %zu, \"frame_samples_traced\": %zu, "
              "\"setup_s_samples\": %s, \"rave_env\": {",
              json_string(workload.name).c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0, json_number(args.seconds).c_str(),
              json_string(args.git_sha).c_str(), std::thread::hardware_concurrency(),
              json_string(util::simd_level_name(util::active_simd_level())).c_str(),
              json_string(net::transport_mode() == net::TransportMode::Reactor ? "reactor"
                                                                               : "legacy")
                  .c_str(),
              args.tiny ? "true" : "false", untraced.size(), traced.size(), deployments.size(), config.frames,
              attempted, frames_untraced.size(), frames_traced.size(), json_list(setup_s).c_str());
  for (size_t i = 0; i < rave_env.size(); ++i)
    std::printf("%s%s: %s", i ? ", " : "", json_string(rave_env[i].first).c_str(),
                json_string(rave_env[i].second).c_str());
  std::printf("}, \"warnings\": [");
  for (size_t i = 0; i < warnings.size(); ++i)
    std::printf("%s%s", i ? ", " : "", json_string(warnings[i]).c_str());
  std::printf("]}}\n");

  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
              setups_ok && failed == 0 ? "true" : "false", attempted, failed);
  for (size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s%s: {\"value\": %s, \"unit\": %s}", i ? ", " : "",
                json_string(metrics[i].name).c_str(), json_number(metrics[i].value).c_str(),
                json_string(metrics[i].unit).c_str());
  std::printf("}}\n");
  return 0;
}
