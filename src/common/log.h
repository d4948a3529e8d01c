// Minimal logger for conditions a run should never hit.
//
// The simulator is single-threaded by design, so the logger needs no
// synchronization. Log lines carry the simulation component name.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "common/fmt.h"

namespace netco::log {

/// Severity of a log record.
enum class Level : std::uint8_t { Warn, Error };

/// Emits one formatted record to stderr. Prefer the NETCO_LOG_* macros.
void write(Level level, std::string_view component, std::string_view message);

/// Formats and emits a record.
template <typename... Args>
void logf(Level level, std::string_view component, std::string_view spec,
          const Args&... args) {
  write(level, component, ::netco::fmt(spec, args...));
}

}  // namespace netco::log

#define NETCO_LOG_WARN(component, ...) \
  ::netco::log::logf(::netco::log::Level::Warn, component, __VA_ARGS__)
#define NETCO_LOG_ERROR(component, ...) \
  ::netco::log::logf(::netco::log::Level::Error, component, __VA_ARGS__)
