// Lightweight leveled logging.  The DSE engine logs generation progress at
// Info; analysis internals log at Debug and are silent by default.
#pragma once

#include <mutex>
#include <ostream>
#include <sstream>
#include <string>

namespace ftmc::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

/// Process-global logging configuration.  Thread-safe.
class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) noexcept { level_ = level; }
  LogLevel level() const noexcept { return level_; }

  /// Redirects output (default std::clog). Caller keeps ownership; pass
  /// nullptr to restore the default sink.  A test hook: tests capture log
  /// lines with it; production code always logs to the default sink.
  void set_sink(std::ostream* sink) noexcept;

  void write(LogLevel level, const std::string& message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kWarn;
  std::ostream* sink_ = nullptr;
  std::mutex mutex_;
};

namespace detail {
template <typename... Args>
void log(LogLevel level, const Args&... args) {
  auto& logger = Logger::instance();
  if (level < logger.level()) return;
  std::ostringstream out;
  (out << ... << args);
  logger.write(level, out.str());
}
}  // namespace detail

template <typename... Args>
void log_debug(const Args&... args) {
  detail::log(LogLevel::kDebug, args...);
}
template <typename... Args>
void log_info(const Args&... args) {
  detail::log(LogLevel::kInfo, args...);
}
template <typename... Args>
void log_warn(const Args&... args) {
  detail::log(LogLevel::kWarn, args...);
}
template <typename... Args>
void log_error(const Args&... args) {
  detail::log(LogLevel::kError, args...);
}

}  // namespace ftmc::util
