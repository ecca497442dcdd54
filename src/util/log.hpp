// Minimal leveled logger. RAVE services run as background processes sharing
// machines with interactive users (paper §3.2.3), so the default level is
// Warn — quiet unless something needs attention.
#pragma once

#include <sstream>
#include <string>

namespace rave::util {

class Clock;

enum class LogLevel { Trace = 0, Debug = 1, Info = 2, Warn = 3, Error = 4, Off = 5 };

// The level at process start is RAVE_LOG's when it parses, else Warn;
// set_log_level() wins afterwards.
void set_log_level(LogLevel level);
LogLevel log_level();

// "trace"|"debug"|"info"|"warn"|"error"|"off".
const char* log_level_name(LogLevel level);
// Parse one of log_level_name's names (case-sensitive). False on unknown.
bool parse_log_level(const char* name, LogLevel& out);

// When a clock is installed, every log line is prefixed with `[seconds]`
// from it — virtual time under SimClock, wall time under RealClock. Pass
// nullptr to remove. The clock must outlive all logging.
void set_log_clock(const Clock* clock);

void log_write(LogLevel level, const std::string& component, const std::string& message);

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine() { log_write(level_, component_, stream_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream stream_;
};
}  // namespace detail

inline detail::LogLine log_trace(std::string component) {
  return {LogLevel::Trace, std::move(component)};
}
inline detail::LogLine log_debug(std::string component) {
  return {LogLevel::Debug, std::move(component)};
}
inline detail::LogLine log_info(std::string component) {
  return {LogLevel::Info, std::move(component)};
}
inline detail::LogLine log_warn(std::string component) {
  return {LogLevel::Warn, std::move(component)};
}
inline detail::LogLine log_error(std::string component) {
  return {LogLevel::Error, std::move(component)};
}

}  // namespace rave::util
