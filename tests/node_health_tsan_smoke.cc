// Node-health smoke test compiled with -fsanitize=thread regardless of the
// global build flags (see tests/CMakeLists.txt): it links an instrumented
// copy of the fleet stack — including the node-health control plane, the
// grey-fault injector and the drain-migration path — and runs a
// grey-fault campaign on multi-lane sharded fleets, so tier-1 `ctest`
// exercises cordon/drain/uncordon and the audit logs under ThreadSanitizer.
// It also re-checks, while instrumented, that lane count changes nothing:
// the fault audit log and the health transition log are byte-identical on
// one lane and on a real thread pool. No gtest here: TSan makes the process
// exit nonzero when it reports a race, logic failures return 1.

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

void GreyFaultCampaignSmoke() {
  using namespace dlrover;
  FleetScenario scenario;
  scenario.seed = 53;
  scenario.workload.num_jobs = 8;
  scenario.workload.arrival_span = Hours(1);
  scenario.workload.seed = 29;
  scenario.cluster.num_nodes = 16;
  scenario.cluster.enable_node_health = true;
  scenario.horizon = Hours(4);
  scenario.enable_background = false;
  scenario.failures.daily_node_flaky_rate = 3.0;
  scenario.failures.daily_node_degraded_rate = 3.0;
  scenario.failures.daily_node_leak_rate = 3.0;
  scenario.failures.daily_node_crashloop_rate = 3.0;

  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  CHECK_TRUE(one_lane.fleet.node_faults_injected > 0);
  CHECK_TRUE(!one_lane.fleet.fault_log.empty());
  CHECK_TRUE(!one_lane.fleet.health_log.empty());

  options.shards = 2;
  const ShardedFleetResult two_lanes = RunFleetSharded(scenario, options);
  CHECK_TRUE(two_lanes.fleet.fault_log.size() ==
             one_lane.fleet.fault_log.size());
  for (size_t i = 0; i < one_lane.fleet.fault_log.size(); ++i) {
    CHECK_TRUE(two_lanes.fleet.fault_log[i] == one_lane.fleet.fault_log[i]);
  }
  CHECK_TRUE(two_lanes.fleet.health_log.size() ==
             one_lane.fleet.health_log.size());
  for (size_t i = 0; i < one_lane.fleet.health_log.size(); ++i) {
    CHECK_TRUE(two_lanes.fleet.health_log[i] == one_lane.fleet.health_log[i]);
  }
  CHECK_TRUE(two_lanes.fleet.nodes_cordoned == one_lane.fleet.nodes_cordoned);
  CHECK_TRUE(two_lanes.fleet.nodes_uncordoned ==
             one_lane.fleet.nodes_uncordoned);
  CHECK_TRUE(two_lanes.fleet.jobs.size() == one_lane.fleet.jobs.size());
  for (size_t i = 0; i < one_lane.fleet.jobs.size(); ++i) {
    CHECK_TRUE(two_lanes.fleet.jobs[i].batches_done ==
               one_lane.fleet.jobs[i].batches_done);
  }
}

}  // namespace

int main() {
  GreyFaultCampaignSmoke();
  std::printf("node_health_tsan_smoke OK\n");
  return 0;
}
