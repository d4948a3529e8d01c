#include "obs/observability.h"

#include <cstdlib>

namespace netco::obs {

namespace {

thread_local Observability* current = nullptr;

}  // namespace

Observability& global() noexcept {
  thread_local Observability own;
  return current != nullptr ? *current : own;
}

void set_current(Observability* context) noexcept { current = context; }

std::unique_ptr<JsonlFileSink> trace_sink_from_env() {
  const char* path = std::getenv("NETCO_TRACE_OUT");
  if (path == nullptr || *path == '\0') return nullptr;
  return std::make_unique<JsonlFileSink>(path);
}

}  // namespace netco::obs
