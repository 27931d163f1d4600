#include "elastic/heartbeat.h"

#include <algorithm>

namespace dlrover {

HeartbeatMonitor::Slot& HeartbeatMonitor::SlotFor(uint64_t member_id) {
  if (member_id >= slots_.size()) slots_.resize(member_id + 1);
  return slots_[member_id];
}

void HeartbeatMonitor::AddMember(uint64_t member_id, SimTime now) {
  Slot& s = SlotFor(member_id);
  if (!s.present) ++member_count_;
  s.health = MemberHealth{};
  s.health.last_heartbeat = now;
  s.health.first_heartbeat = now;
  s.present = true;
  s.fenced = false;
}

void HeartbeatMonitor::RemoveMember(uint64_t member_id) {
  if (member_id >= slots_.size() || !slots_[member_id].present) return;
  slots_[member_id].present = false;
  --member_count_;
}

void HeartbeatMonitor::FenceMember(uint64_t member_id) {
  RemoveMember(member_id);
  SlotFor(member_id).fenced = true;
}

void HeartbeatMonitor::Heartbeat(uint64_t member_id, SimTime now,
                                 uint64_t progress_offset) {
  if (IsFenced(member_id)) {
    ++fenced_heartbeats_ignored_;
    return;
  }
  Slot& s = SlotFor(member_id);
  if (!s.present) AddMember(member_id, now);
  MemberHealth& h = s.health;
  h.progress_offset = std::max(h.progress_offset, progress_offset);
  if (now < h.last_heartbeat) {
    // Out-of-order delivery: an older packet carries no new liveness
    // evidence and must not rewind the silence clock.
    ++stale_heartbeats_ignored_;
    return;
  }
  h.last_heartbeat = now;
}

std::vector<uint64_t> HeartbeatMonitor::DetectFailures(SimTime now) const {
  std::vector<uint64_t> failed;
  ForEachMember([&](uint64_t id, const MemberHealth& h) {
    if (now - h.last_heartbeat > options_.failure_timeout) {
      failed.push_back(id);
    }
  });
  return failed;
}

double HeartbeatMonitor::ProgressRate(uint64_t member_id, SimTime now) const {
  const MemberHealth* h = Member(member_id);
  if (h == nullptr) return 0.0;
  const double window = now - h->first_heartbeat;
  if (window <= 0.0) return 0.0;
  return static_cast<double>(h->progress_offset) / window;
}

std::vector<uint64_t> HeartbeatMonitor::DetectStragglers(
    SimTime now, bool include_flagged) {
  std::vector<uint64_t> stragglers;
  if (member_count_ < 3) return stragglers;  // need peers to compare

  std::vector<double> rates;
  rates.reserve(member_count_);
  for (size_t id = 0; id < slots_.size(); ++id) {
    if (!slots_[id].present) continue;
    if (now - slots_[id].health.first_heartbeat < options_.min_observation) {
      return stragglers;
    }
    rates.push_back(ProgressRate(id, now));
  }
  std::nth_element(rates.begin(), rates.begin() + rates.size() / 2,
                   rates.end());
  const double median = rates[rates.size() / 2];
  if (median <= 0.0) return stragglers;

  for (size_t id = 0; id < slots_.size(); ++id) {
    Slot& s = slots_[id];
    if (!s.present) continue;
    if (s.health.flagged_straggler && !include_flagged) continue;
    if (ProgressRate(id, now) < options_.straggler_rate_fraction * median) {
      s.health.flagged_straggler = true;
      stragglers.push_back(id);
    }
  }
  return stragglers;
}

}  // namespace dlrover
