#include "support/log.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "support/thread_annotations.hpp"

namespace prema::util {
namespace {

LogLevel initial_level() {
  const char* env = std::getenv("PREMA_LOG");
  if (env == nullptr) return LogLevel::kWarn;
  if (std::strcmp(env, "debug") == 0) return LogLevel::kDebug;
  if (std::strcmp(env, "info") == 0) return LogLevel::kInfo;
  if (std::strcmp(env, "error") == 0) return LogLevel::kError;
  return LogLevel::kWarn;
}

std::atomic<int>& level_storage() {
  static std::atomic<int> level{static_cast<int>(initial_level())};
  return level;
}

const char* level_tag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO ";
    case LogLevel::kWarn: return "WARN ";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}

/// The output sink (stderr) and its lock. Lines are written only with the
/// lock held, so concurrent logf calls from thread-backend workers cannot
/// interleave the prefix / body / newline writes of their lines.
struct SinkState {
  util::Mutex mu;

  void write_line(LogLevel level, const char* fmt, va_list args) PREMA_REQUIRES(mu) {
    std::fprintf(stderr, "[prema %s] ", level_tag(level));
    std::vfprintf(stderr, fmt, args);
    std::fputc('\n', stderr);
  }
};

SinkState& sink() {
  static SinkState s;
  return s;
}

}  // namespace

// Relaxed on both sides: the level is an isolated verbosity knob — readers
// want a recent value, nothing else is published through it, and the hot
// log_level() check must not fence every call site.
void set_log_level(LogLevel lvl) {
  std::atomic<int>& level = level_storage();
  level.store(static_cast<int>(lvl), std::memory_order_relaxed);
}

LogLevel log_level() {
  std::atomic<int>& level = level_storage();
  return static_cast<LogLevel>(level.load(std::memory_order_relaxed));
}

void logf(LogLevel level, const char* fmt, ...) {
  if (static_cast<int>(level) < static_cast<int>(log_level())) return;
  SinkState& s = sink();
  util::LockGuard g(s.mu);
  va_list args;
  va_start(args, fmt);
  s.write_line(level, fmt, args);
  va_end(args);
}

}  // namespace prema::util
