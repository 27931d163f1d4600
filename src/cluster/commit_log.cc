#include "cluster/commit_log.h"

#include <algorithm>
#include <functional>

namespace dlrover {

void FleetLedger::Apply(const ClusterCommitLog::Entry& e) {
  switch (e.kind) {
    case ClusterCommitLog::Kind::kCapacity:
      totals_.capacity += e.delta;
      break;
    case ClusterCommitLog::Kind::kAllocated:
      totals_.allocated += e.delta;
      peak_allocated_cpu_ = std::max(peak_allocated_cpu_,
                                     totals_.allocated.cpu);
      break;
    case ClusterCommitLog::Kind::kUsage:
      totals_.usage += e.delta;
      break;
    case ClusterCommitLog::Kind::kCordoned:
      totals_.cordoned += e.delta;
      break;
  }
}

void FleetLedger::Fold(const std::vector<ClusterCommitLog*>& logs) {
  // K-way merge by (time, seq, shard). Each log is already sorted by
  // (time, seq) — simulated time is monotone within a shard and seq is the
  // append counter — so a min-heap holding each non-empty log's next entry
  // visits the canonical order without sorting or copying entries. The
  // minimal log keeps the floor for as long as its next entry still orders
  // before the heap's best other cursor, so a run of entries from one log
  // costs one heap operation instead of one per entry.
  heap_.clear();  // capacity persists across folds
  for (size_t i = 0; i < logs.size(); ++i) {
    if (logs[i] == nullptr || logs[i]->empty()) continue;
    const ClusterCommitLog::Entry& e = logs[i]->entries().front();
    heap_.push_back(Cursor{e.time, e.seq, static_cast<uint32_t>(i), 0});
  }
  std::make_heap(heap_.begin(), heap_.end(), std::greater<>());
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    Cursor c = heap_.back();
    heap_.pop_back();
    const std::vector<ClusterCommitLog::Entry>& entries =
        logs[c.log]->entries();
    for (;;) {
      Apply(entries[c.pos]);
      ++entries_folded_;
      if (++c.pos == entries.size()) break;
      c.time = entries[c.pos].time;
      c.seq = entries[c.pos].seq;
      if (!heap_.empty() && heap_.front() < c) {
        heap_.push_back(c);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
        break;
      }
    }
  }
  for (ClusterCommitLog* log : logs) {
    if (log != nullptr) log->Clear();
  }
}

double FleetLedger::FreeCpuFraction() const {
  if (totals_.capacity.cpu <= 0.0) return 1.0;
  return std::max(0.0, 1.0 - totals_.allocated.cpu / totals_.capacity.cpu);
}

}  // namespace dlrover
