#include "common/log.h"

#include <cstdio>

namespace netco::log {

void write(Level level, std::string_view component, std::string_view message) {
  std::fprintf(stderr, "[%s] %.*s: %.*s\n",
               level == Level::Warn ? "WARN " : "ERROR",
               static_cast<int>(component.size()), component.data(),
               static_cast<int>(message.size()), message.data());
}

}  // namespace netco::log
