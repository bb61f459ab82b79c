#pragma once

#include <cstdarg>
#include <cstdio>

/// \file log.hpp
/// Minimal leveled logging. Default level is Warn so tests and benchmarks stay
/// quiet; set PREMA_LOG=debug|info|warn|error in the environment or call
/// set_log_level to change it.

namespace prema::util {

enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Set the global log threshold.
void set_log_level(LogLevel level);

/// Current global log threshold (initialized from the PREMA_LOG env var).
LogLevel log_level();

/// printf-style log statement; drops the message if below the threshold.
void logf(LogLevel level, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

}  // namespace prema::util

#define PREMA_LOG_DEBUG(...) ::prema::util::logf(::prema::util::LogLevel::kDebug, __VA_ARGS__)
#define PREMA_LOG_INFO(...) ::prema::util::logf(::prema::util::LogLevel::kInfo, __VA_ARGS__)
#define PREMA_LOG_WARN(...) ::prema::util::logf(::prema::util::LogLevel::kWarn, __VA_ARGS__)
#define PREMA_LOG_ERROR(...) ::prema::util::logf(::prema::util::LogLevel::kError, __VA_ARGS__)
