// Control-plane smoke test compiled with -fsanitize=thread regardless of
// the global build flags (see tests/CMakeLists.txt): it links an
// instrumented copy of the fleet stack — including the ControlChannel
// message layer, the partition/master-crash injector arm and the
// plan-fencing paths — and runs a partition-chaos campaign on multi-lane
// sharded fleets, so tier-1 `ctest` exercises drops, duplicates, reorder,
// partitions and master failover under ThreadSanitizer. It also re-checks,
// while instrumented, that lane count changes nothing: the control event
// log and the channel counters are byte-identical on one lane and on a
// real thread pool. No gtest here: TSan makes the process exit nonzero
// when it reports a race, logic failures return 1.

#include <cstdio>
#include <cstdlib>

#include "harness/sharded_fleet.h"

namespace {

#define CHECK_TRUE(cond)                                              \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAILED: %s at %s:%d\n", #cond, __FILE__,  \
                   __LINE__);                                         \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

void ControlChaosCampaignSmoke() {
  using namespace dlrover;
  FleetScenario scenario;
  scenario.seed = 53;
  scenario.dlrover_fraction = 1.0;
  scenario.workload.num_jobs = 8;
  scenario.workload.arrival_span = Hours(1);
  scenario.workload.seed = 29;
  scenario.cluster.num_nodes = 16;
  scenario.horizon = Hours(4);
  scenario.enable_background = false;
  scenario.control.enabled = true;
  scenario.control.drop_prob = 0.02;
  scenario.control.duplicate_prob = 0.05;
  scenario.control.reorder_prob = 0.05;
  scenario.failures.daily_node_partition_rate = 4.0;
  scenario.failures.daily_cell_partition_rate = 4.0;
  scenario.failures.daily_master_crash_rate = 1.0;

  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  CHECK_TRUE(one_lane.fleet.control_stats.messages_delivered > 0);
  CHECK_TRUE(one_lane.fleet.control_faults_injected > 0);
  CHECK_TRUE(!one_lane.fleet.control_log.empty());
  // Protections on: no stale plan ever applies, failover is balanced.
  CHECK_TRUE(one_lane.fleet.control_stats.stale_plan_applies == 0);
  CHECK_TRUE(one_lane.fleet.stale_plan_applies == 0);
  CHECK_TRUE(one_lane.fleet.control_stats.master_crashes ==
             one_lane.fleet.control_stats.master_restarts);
  for (const FleetJobOutcome& job : one_lane.fleet.jobs) {
    CHECK_TRUE(job.batches_done <= job.total_steps);
  }

  options.shards = 2;
  const ShardedFleetResult two_lanes = RunFleetSharded(scenario, options);
  CHECK_TRUE(two_lanes.fleet.control_stats == one_lane.fleet.control_stats);
  CHECK_TRUE(two_lanes.fleet.control_log.size() ==
             one_lane.fleet.control_log.size());
  for (size_t i = 0; i < one_lane.fleet.control_log.size(); ++i) {
    CHECK_TRUE(two_lanes.fleet.control_log[i] ==
               one_lane.fleet.control_log[i]);
  }
  CHECK_TRUE(two_lanes.fleet.control_faults_injected ==
             one_lane.fleet.control_faults_injected);
  CHECK_TRUE(two_lanes.fleet.plans_fenced == one_lane.fleet.plans_fenced);
  CHECK_TRUE(two_lanes.fleet.shard_reports_rejected ==
             one_lane.fleet.shard_reports_rejected);
  CHECK_TRUE(two_lanes.fleet.shard_reports_expired ==
             one_lane.fleet.shard_reports_expired);
  CHECK_TRUE(two_lanes.fleet.jobs.size() == one_lane.fleet.jobs.size());
  for (size_t i = 0; i < one_lane.fleet.jobs.size(); ++i) {
    CHECK_TRUE(two_lanes.fleet.jobs[i].batches_done ==
               one_lane.fleet.jobs[i].batches_done);
  }
}

}  // namespace

int main() {
  ControlChaosCampaignSmoke();
  std::printf("control_plane_tsan_smoke OK\n");
  return 0;
}
