// The benchmark's workloads. Each trial deploys the real services over
// loopback TCP from scratch, then runs the workload's fixed, seeded
// sequence of frames as a closed loop with exactly one frame in flight,
// so every count repeats exactly for a given seed (see NOTES.md).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"

namespace e2e {

struct TrialConfig {
  uint64_t seed = 1;
  int frames = 0;  // 0: deploy only, for another set-up time
  bool traced = false;
  bool tiny = false;  // small scenes for the benchmark's own tests
};

struct Workload {
  std::string name;
  int frames;       // frames per trial
  int tiny_frames;  // frames per trial with --tiny
  std::function<TrialResult(const TrialConfig&)> run;
};

const std::vector<Workload>& workloads();

// Layers that block the frame on the main thread, in the order a frame
// crosses them. Together with unattributed_ms they sum to the traced
// frame time.
const std::vector<std::string>& blocking_layers();

// Every per-layer metric the traced run reports, with its unit; the ones a
// workload does not exercise read 0.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

}  // namespace e2e
