#ifndef DLROVER_ELASTIC_HEARTBEAT_H_
#define DLROVER_ELASTIC_HEARTBEAT_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/units.h"

namespace dlrover {

/// Per-member view the monitor keeps from heartbeat packets.
struct MemberHealth {
  SimTime last_heartbeat = 0.0;
  uint64_t progress_offset = 0;  // samples (or batches) processed
  SimTime first_heartbeat = 0.0;
  bool flagged_straggler = false;
};

struct HeartbeatMonitorOptions {
  /// A member is declared failed after this silence (paper: job master
  /// treats missing heartbeats for "a reasonably long time" as failure).
  Duration failure_timeout = Minutes(2);
  /// A member is a straggler when its progress rate falls below this
  /// fraction of the group median rate.
  double straggler_rate_fraction = 0.5;
  /// Minimum observation window before straggler judgments.
  Duration min_observation = Seconds(60);
};

/// Tracks heartbeat packets carrying progress offsets (paper Section 5.1)
/// and classifies members as failed (silence) or stragglers (progress rate
/// far below peers). Pure bookkeeping: the owner drives time by calling
/// Check(now) and reacts to the returned verdicts.
///
/// Member ids are dense small integers (worker indices), so the monitor is
/// a flat slab indexed by id: a heartbeat is one bounds check and a few
/// field writes, and every id-ordered walk is a linear sweep. Storage grows
/// to the largest id ever seen and is never shrunk.
class HeartbeatMonitor {
 public:
  explicit HeartbeatMonitor(const HeartbeatMonitorOptions& options)
      : options_(options) {}

  /// Registers a member (worker or PS). Progress starts at zero. Clears any
  /// fence on the id: an explicit re-add is a new incarnation.
  void AddMember(uint64_t member_id, SimTime now);
  /// Removes a member (scale-down or confirmed failure). A fence on the id
  /// stays in place.
  void RemoveMember(uint64_t member_id);
  /// Removes a member AND remembers the id as fenced: late heartbeat packets
  /// still in flight for a worker the master already gave up on must not
  /// auto-register a ghost member. Only AddMember lifts the fence.
  void FenceMember(uint64_t member_id);
  bool IsFenced(uint64_t member_id) const {
    return member_id < slots_.size() && slots_[member_id].fenced;
  }

  /// Forgets every member and fence and releases the slab, for an owner
  /// that is done with the group (a finished job).
  void Clear() {
    std::vector<Slot>().swap(slots_);
    member_count_ = 0;
  }

  /// Records a heartbeat packet with the member's cumulative progress.
  /// Delivery hardening for a lossy control plane: packets with a timestamp
  /// older than the member's last accepted one are ignored (out-of-order
  /// delivery must not rewind liveness), progress only ever moves forward
  /// (duplicates are harmless), and packets for fenced ids are dropped.
  void Heartbeat(uint64_t member_id, SimTime now, uint64_t progress_offset);

  /// Members silent beyond the failure timeout, in ascending id order.
  std::vector<uint64_t> DetectFailures(SimTime now) const;

  /// Members whose progress rate is far below the group's median rate, in
  /// ascending id order. Already-flagged members are not re-reported unless
  /// `include_flagged`.
  std::vector<uint64_t> DetectStragglers(SimTime now,
                                         bool include_flagged = false);

  /// Progress rate (units per second) of one member; 0 if unknown.
  double ProgressRate(uint64_t member_id, SimTime now) const;

  size_t member_count() const { return member_count_; }
  /// The member's health record, or nullptr when the id is not a member.
  const MemberHealth* Member(uint64_t member_id) const {
    if (member_id >= slots_.size() || !slots_[member_id].present) {
      return nullptr;
    }
    return &slots_[member_id].health;
  }
  /// Calls fn(id, health) for every member in ascending id order. fn may
  /// add, remove or fence members (the walk re-reads the slab by index),
  /// but `health` is only valid until it does.
  template <typename Fn>
  void ForEachMember(Fn&& fn) const {
    for (size_t id = 0; id < slots_.size(); ++id) {
      if (slots_[id].present) fn(static_cast<uint64_t>(id), slots_[id].health);
    }
  }

  /// Out-of-order packets discarded by the monotonic-timestamp guard.
  uint64_t stale_heartbeats_ignored() const {
    return stale_heartbeats_ignored_;
  }
  /// Packets for fenced (already given-up-on) members discarded.
  uint64_t fenced_heartbeats_ignored() const {
    return fenced_heartbeats_ignored_;
  }

 private:
  struct Slot {
    MemberHealth health;
    bool present = false;
    bool fenced = false;
  };

  /// The slot for `member_id`, growing the slab to reach it.
  Slot& SlotFor(uint64_t member_id);

  HeartbeatMonitorOptions options_;
  std::vector<Slot> slots_;
  size_t member_count_ = 0;
  uint64_t stale_heartbeats_ignored_ = 0;
  uint64_t fenced_heartbeats_ignored_ = 0;
};

}  // namespace dlrover

#endif  // DLROVER_ELASTIC_HEARTBEAT_H_
