#include "openflow/flow_table.h"

#include <algorithm>

namespace netco::openflow {

void FlowTable::add(FlowSpec spec) {
  // Replace a strictly identical rule at the same priority.
  for (auto& entry : entries_) {
    if (entry.priority == spec.priority &&
        entry.match.strictly_equals(spec.match)) {
      entry = std::move(spec);
      return;
    }
  }
  // Insert keeping priority-descending, stable within equal priority.
  const auto pos = std::find_if(
      entries_.begin(), entries_.end(),
      [&spec](const FlowSpec& e) { return e.priority < spec.priority; });
  entries_.insert(pos, std::move(spec));
}

std::size_t FlowTable::remove_strict(const Match& match,
                                     std::uint16_t priority) {
  const auto before = entries_.size();
  std::erase_if(entries_, [&](const FlowSpec& entry) {
    return entry.priority == priority && entry.match.strictly_equals(match);
  });
  return before - entries_.size();
}

const FlowSpec* FlowTable::lookup(const Match& key,
                                  const std::vector<bool>* dead_ports,
                                  bool* guard_skipped) const {
  bool skipped = false;
  for (const auto& entry : entries_) {
    if (!entry.match.covers(key)) continue;
    // Skip a rule whose liveness guard refers to a port marked dead.
    if (dead_ports != nullptr && entry.guard_port != device::kNoPort &&
        entry.guard_port < dead_ports->size() &&
        (*dead_ports)[entry.guard_port]) {
      skipped = true;
      continue;
    }
    if (guard_skipped != nullptr) *guard_skipped = skipped;
    return &entry;
  }
  if (guard_skipped != nullptr) *guard_skipped = skipped;
  return nullptr;
}

}  // namespace netco::openflow
