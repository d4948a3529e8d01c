#include "health/monitor.h"

#include <algorithm>

namespace netco::health {

namespace {

/// EWMA smoothing factor: score = (1-alpha)·score + alpha·weight.
constexpr double kAlpha = 0.15;
/// Per-verdict deviation weights (matched weighs 0).
constexpr double kWeightMissed = 0.7;
constexpr double kWeightDivergent = 1.0;

}  // namespace

const char* to_string(ReplicaState state) noexcept {
  switch (state) {
    case ReplicaState::kLive: return "live";
    case ReplicaState::kQuarantined: return "quarantined";
    case ReplicaState::kBanned: return "banned";
  }
  return "unknown";
}

const char* to_string(HealthAction::Kind kind) noexcept {
  switch (kind) {
    case HealthAction::Kind::kQuarantine: return "quarantine";
    case HealthAction::Kind::kReadmit: return "readmit";
    case HealthAction::Kind::kBan: return "ban";
  }
  return "unknown";
}

HealthMonitor::HealthMonitor(const HealthConfig& config, int k)
    : config_(config), replicas_(static_cast<std::size_t>(k)) {}

int HealthMonitor::live_replicas() const noexcept {
  int live = 0;
  for (const ReplicaHealth& r : replicas_) {
    if (r.state == ReplicaState::kLive) ++live;
  }
  return live;
}

double HealthMonitor::weight(int index) const noexcept {
  if (index < 0 || index >= static_cast<int>(replicas_.size())) return 0.0;
  const ReplicaHealth& r = replicas_[static_cast<std::size_t>(index)];
  if (r.state != ReplicaState::kLive) return 0.0;
  return std::clamp(1.0 - r.score, 0.0, 1.0);
}

void HealthMonitor::on_verdict(const core::ReplicaVerdict& verdict) {
  if (verdict.replica < 0 ||
      verdict.replica >= static_cast<int>(replicas_.size())) {
    return;
  }
  ReplicaHealth& r = replicas_[static_cast<std::size_t>(verdict.replica)];
  if (r.state == ReplicaState::kBanned) return;

  double weight = 0.0;
  bool saturating = false;
  switch (verdict.kind) {
    case core::VerdictKind::kMatched: weight = 0.0; break;
    case core::VerdictKind::kMissed: weight = kWeightMissed; break;
    case core::VerdictKind::kDivergent: weight = kWeightDivergent; break;
    case core::VerdictKind::kFloodFlagged:
    case core::VerdictKind::kInactive:
      saturating = true;
      break;
  }

  if (saturating) {
    // The compare's own windowed monitor already averaged this signal;
    // re-smoothing it would just delay the reaction.
    r.score = 1.0;
    if (r.verdicts < config_.min_verdicts) r.verdicts = config_.min_verdicts;
  } else {
    r.score = (1.0 - kAlpha) * r.score + kAlpha * weight;
    ++r.verdicts;
  }

  if (r.state == ReplicaState::kQuarantined) {
    // Probation: matched probes build the readmission case, any deviation
    // restarts it. A silent (crashed) replica produces no verdicts at all
    // and simply stays quarantined.
    if (verdict.kind == core::VerdictKind::kMatched) {
      ++r.probe_matches;
    } else {
      r.probe_matches = 0;
    }
    if (r.probe_matches >= config_.readmit_probe_matches &&
        r.score <= HealthConfig::kReadmitThreshold) {
      r.state = ReplicaState::kLive;
      r.probe_matches = 0;
      r.last_transition = verdict.at;
      pending_.push_back(HealthAction{.kind = HealthAction::Kind::kReadmit,
                                      .replica = verdict.replica,
                                      .score = r.score,
                                      .at = verdict.at});
    }
    return;
  }

  if (r.verdicts < config_.min_verdicts ||
      r.score < HealthConfig::kQuarantineThreshold) {
    return;
  }
  // Floor: quarantining the last min_live replicas trades a partial fault
  // for a total outage. The score stays saturated, so the moment another
  // replica is readmitted this one is reconsidered on its next verdict.
  if (live_replicas() <= config_.min_live) return;

  if (r.quarantines >= config_.max_quarantines) {
    r.state = ReplicaState::kBanned;
    r.last_transition = verdict.at;
    pending_.push_back(HealthAction{.kind = HealthAction::Kind::kBan,
                                    .replica = verdict.replica,
                                    .score = r.score,
                                    .at = verdict.at});
    return;
  }
  r.state = ReplicaState::kQuarantined;
  ++r.quarantines;
  r.probe_matches = 0;
  r.last_transition = verdict.at;
  pending_.push_back(HealthAction{.kind = HealthAction::Kind::kQuarantine,
                                  .replica = verdict.replica,
                                  .score = r.score,
                                  .at = verdict.at});
}

std::vector<HealthAction> HealthMonitor::take_actions() {
  std::vector<HealthAction> out;
  out.swap(pending_);
  return out;
}

}  // namespace netco::health
