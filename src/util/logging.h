// Minimal leveled logging.
//
// The simulator installs a clock callback so log lines carry virtual time.
// Logging defaults to WARN so experiment binaries stay quiet; tests raise
// the level when debugging.
#pragma once

#include <cstdint>
#include <functional>
#include <sstream>
#include <string>

namespace sdur::util {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kOff = 4 };

class Logger {
 public:
  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }

  /// Clock used to prefix each line (virtual time in microseconds);
  /// unset means wall-clock-free plain output.
  void set_clock(std::function<std::int64_t()> clock) { clock_ = std::move(clock); }

  void write(LogLevel level, const std::string& component, const std::string& message);

 private:
  LogLevel level_ = LogLevel::kWarn;
  std::function<std::int64_t()> clock_;
};

namespace detail {
class LogLine {
 public:
  LogLine(LogLevel level, std::string component)
      : level_(level), component_(std::move(component)) {}
  ~LogLine() { Logger::instance().write(level_, component_, stream_.str()); }
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

}  // namespace sdur::util

#define SDUR_LOG(lvl, component)                                            \
  if (static_cast<int>(lvl) <                                               \
      static_cast<int>(::sdur::util::Logger::instance().level())) {         \
  } else                                                                    \
    ::sdur::util::detail::LogLine(lvl, component)

#define SDUR_DEBUG(component) SDUR_LOG(::sdur::util::LogLevel::kDebug, component)
#define SDUR_INFO(component) SDUR_LOG(::sdur::util::LogLevel::kInfo, component)
#define SDUR_WARN(component) SDUR_LOG(::sdur::util::LogLevel::kWarn, component)
#define SDUR_ERROR(component) SDUR_LOG(::sdur::util::LogLevel::kError, component)
