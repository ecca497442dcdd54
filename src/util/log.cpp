#include "util/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <mutex>

#include "util/clock.hpp"

namespace rave::util {

namespace {
// Indexed by LogLevel: the RAVE_LOG / log_level_name spelling and the
// tag each log line carries.
constexpr const char* kNames[] = {"trace", "debug", "info", "warn", "error", "off"};
constexpr const char* kTags[] = {"TRACE", "DEBUG", "INFO", "WARN", "ERROR", "OFF"};

LogLevel initial_level() {
  const char* env = std::getenv("RAVE_LOG");
  LogLevel level = LogLevel::Warn;
  if (env != nullptr && !parse_log_level(env, level)) {
    // The logger is not up yet (this initializes it): write the line
    // directly, in log_write's format.
    std::fprintf(stderr,
                 "[WARN] log: RAVE_LOG='%s' not recognized "
                 "(trace|debug|info|warn|error|off); using warn\n",
                 env);
  }
  return level;
}

std::atomic<LogLevel> g_level{initial_level()};
std::atomic<const Clock*> g_clock{nullptr};
std::mutex g_write_mu;

}  // namespace

const char* log_level_name(LogLevel level) { return kNames[static_cast<int>(level)]; }

bool parse_log_level(const char* name, LogLevel& out) {
  if (name == nullptr) return false;
  for (size_t i = 0; i < std::size(kNames); ++i) {
    if (std::strcmp(name, kNames[i]) == 0) {
      out = static_cast<LogLevel>(i);
      return true;
    }
  }
  return false;
}

void set_log_level(LogLevel level) { g_level.store(level, std::memory_order_relaxed); }

LogLevel log_level() { return g_level.load(std::memory_order_relaxed); }

void set_log_clock(const Clock* clock) { g_clock.store(clock, std::memory_order_release); }

void log_write(LogLevel level, const std::string& component, const std::string& message) {
  if (level < log_level()) return;
  // Compose the whole line first so it reaches the stream as ONE write:
  // pool threads interleaving partial flushes used to shear lines.
  std::string line;
  line.reserve(component.size() + message.size() + 32);
  if (const Clock* clock = g_clock.load(std::memory_order_acquire)) {
    char stamp[32];
    std::snprintf(stamp, sizeof(stamp), "[%.6f] ", clock->now());
    line += stamp;
  }
  line += "[";
  line += kTags[static_cast<int>(level)];
  line += "] ";
  line += component;
  line += ": ";
  line += message;
  line += "\n";
  std::lock_guard lock(g_write_mu);
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace rave::util
