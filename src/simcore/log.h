// Minimal component-tagged logger stamped with simulated time.
//
// Logging is off by default (benches/tests stay quiet); examples turn it
// on to show the protocol timeline. A line below the logger's level costs
// one branch: SLOG checks the level before it builds the line, so neither
// the stream nor any `<<` operand is evaluated.
#pragma once

#include <functional>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>

#include "simcore/time.h"

namespace seed::sim {

enum class LogLevel { kTrace, kDebug, kInfo, kWarn, kError, kOff };

class Logger {
 public:
  /// Receives every emitted line instead of the default stdout writer.
  /// The sink may call write_default() to keep the console output.
  using Sink = std::function<void(LogLevel, std::string_view component,
                                  std::string_view message,
                                  const TimePoint* now)>;

  static Logger& instance();

  void set_level(LogLevel level) { level_ = level; }
  LogLevel level() const { return level_; }
  void set_clock(const TimePoint* now) { now_ = now; }
  const TimePoint* clock() const { return now_; }

  void set_sink(Sink sink) { sink_ = std::move(sink); }
  bool has_sink() const { return static_cast<bool>(sink_); }

  bool enabled(LogLevel level) const { return level >= level_; }

  void write(LogLevel level, std::string_view component,
             std::string_view message);
  /// The stock stdout writer, bypassing any installed sink.
  void write_default(LogLevel level, std::string_view component,
                     std::string_view message);

 private:
  Logger() = default;
  LogLevel level_ = LogLevel::kOff;
  const TimePoint* now_ = nullptr;
  Sink sink_;
};

/// Builds a log line with stream syntax:  SLOG(kInfo, "amf") << "attach";
/// Only SLOG constructs one, and only for a level that is enabled.
class LogLine {
 public:
  LogLine(LogLevel level, std::string_view component)
      : level_(level), component_(component) {}
  ~LogLine() { Logger::instance().write(level_, component_, out_.str()); }
  LogLine(const LogLine&) = delete;
  LogLine& operator=(const LogLine&) = delete;

  template <typename T>
  LogLine& operator<<(const T& v) {
    out_ << v;
    return *this;
  }

 private:
  LogLevel level_;
  std::string component_;
  std::ostringstream out_;
};

/// Turns a finished `LogLine << ...` chain into void, so SLOG is one
/// conditional expression: `&` binds looser than `<<` and tighter than
/// `?:`.
struct LogVoidify {
  void operator&(const LogLine&) const {}
};

}  // namespace seed::sim

// One expression rather than an `if`, so `if (c) SLOG(...) << x; else ...`
// keeps its `else` on the caller's `if`.
#define SLOG(level, component)                                            \
  !::seed::sim::Logger::instance().enabled(::seed::sim::LogLevel::level)  \
      ? (void)0                                                           \
      : ::seed::sim::LogVoidify() &                                       \
            ::seed::sim::LogLine(::seed::sim::LogLevel::level, component)
