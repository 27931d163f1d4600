// Golden fleet digests (ctest label `golden`).
//
// Three small fleets run end to end and their outcomes are folded into one
// FNV-1a digest each, compared with a value pinned from a known-good build.
// A refactor of the job, cluster or brain paths that claims "same outputs"
// must leave all three unchanged. Host timing never enters a digest; every
// field that does is a deterministic function of the scenario seed.
//
// To re-pin after an intended behaviour change, run this binary and copy the
// "actual" digest it prints into that test's ExpectDigest call.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "harness/experiment.h"

namespace dlrover {
namespace {

class Fnv {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xffu;
      hash_ *= 0x100000001b3ull;
    }
  }
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    Add(bits);
  }
  void Add(int v) { Add(static_cast<uint64_t>(static_cast<int64_t>(v))); }
  void Add(bool v) { Add(uint64_t{v}); }
  void Add(const std::string& s) {
    Add(uint64_t{s.size()});
    for (unsigned char c : s) Add(uint64_t{c});
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddStats(const JobStats& s, Fnv* d) {
  for (double v : {s.submit_time, s.first_training_time, s.finish_time,
                   s.downtime_checkpoint, s.downtime_waiting_pods,
                   s.downtime_repartition}) {
    d->Add(v);
  }
  for (int v : {s.worker_failures, s.ps_failures, s.oom_events,
                s.full_restarts, s.migrations, s.scale_operations,
                s.stragglers_mitigated, s.drain_migrations, s.drain_fallbacks,
                s.plans_fenced, s.stale_plan_applies,
                s.shard_reports_rejected, s.shard_reports_expired,
                s.ps_slowdown_reports}) {
    d->Add(v);
  }
  d->Add(s.fail_reason);
}

/// Everything the fleet decided: per-job outcomes and stats, the fleet
/// counters, and the fault, health and control logs record by record.
uint64_t FleetDigest(const FleetResult& r) {
  Fnv d;
  d.Add(uint64_t{r.jobs.size()});
  for (const FleetJobOutcome& job : r.jobs) {
    d.Add(job.name);
    d.Add(job.completed);
    d.Add(job.jct);
    d.Add(job.pending_time);
    d.Add(job.batches_done);
    d.Add(job.avg_worker_cpu_util);
    d.Add(job.avg_ps_cpu_util);
    d.Add(job.avg_worker_mem_util);
    d.Add(job.avg_ps_mem_util);
    AddStats(job.stats, &d);
  }
  for (uint64_t v :
       {r.executed_events, r.pods_preempted, r.crashes_injected,
        r.stragglers_injected, r.node_faults_injected, r.nodes_cordoned,
        r.nodes_uncordoned, r.control_faults_injected, r.plans_fenced,
        r.stale_plan_applies, r.shard_reports_rejected,
        r.shard_reports_expired}) {
    d.Add(v);
  }
  const ControlChannelStats& c = r.control_stats;
  for (uint64_t v :
       {c.messages_sent, c.messages_delivered, c.messages_dropped,
        c.messages_partition_dropped, c.messages_duplicated,
        c.messages_reordered, c.retries, c.sends_expired, c.acks_lost,
        c.epoch_fenced, c.plans_fenced_stale, c.stale_plan_applies,
        c.node_partitions, c.cell_partitions, c.master_crashes,
        c.master_restarts}) {
    d.Add(v);
  }
  d.Add(uint64_t{r.fault_log.size()});
  for (const FaultRecord& f : r.fault_log) {
    d.Add(f.time);
    d.Add(static_cast<int>(f.kind));
    d.Add(f.target);
    d.Add(f.node);
    d.Add(f.duration);
    d.Add(f.symptoms);
  }
  d.Add(uint64_t{r.health_log.size()});
  for (const NodeHealthEvent& h : r.health_log) {
    d.Add(h.time);
    d.Add(uint64_t{h.node});
    d.Add(static_cast<int>(h.from));
    d.Add(static_cast<int>(h.to));
    d.Add(h.score);
  }
  d.Add(uint64_t{r.control_log.size()});
  for (const ControlEvent& e : r.control_log) {
    d.Add(e.time);
    d.Add(static_cast<int>(e.kind));
    d.Add(e.a);
    d.Add(e.b);
  }
  return d.value();
}

void ExpectDigest(const FleetResult& r, uint64_t pinned) {
  const uint64_t actual = FleetDigest(r);
  std::printf("actual digest: 0x%016llxull\n",
              static_cast<unsigned long long>(actual));
  EXPECT_EQ(actual, pinned) << std::hex << "actual 0x" << actual;
}

/// bench_fig3_cluster_trace's fleet: 48 manually configured jobs on 60
/// nodes with background load and pod failures.
TEST(GoldenFleetTest, Fig3ManualFleet) {
  FleetScenario scenario;
  scenario.dlrover_fraction = 0.0;
  scenario.workload.num_jobs = 48;
  scenario.workload.arrival_span = Hours(8);
  scenario.horizon = Hours(30);
  scenario.seed = 11;
  const FleetResult r = RunFleet(scenario);
  ASSERT_EQ(r.jobs.size(), 48u);
  ExpectDigest(r, 0x8cbf3363425e908cull);
}

/// sharded_sim_test's scarcity shape: demand well above capacity, so
/// pending queues, slow startups, preemption and relaunch storms all run.
TEST(GoldenFleetTest, ScarcityFleet) {
  FleetScenario scenario;
  scenario.dlrover_fraction = 0.5;
  scenario.workload.num_jobs = 10;
  scenario.workload.arrival_span = Hours(2);
  scenario.cluster.num_nodes = 6;
  scenario.failures.daily_pod_failure_rate = 0.5;
  scenario.horizon = Hours(24);
  scenario.seed = 37;
  const FleetResult r = RunFleet(scenario);
  ASSERT_EQ(r.jobs.size(), 10u);
  ExpectDigest(r, 0xf0dc211ffb304840ull);
}

/// perfbench fleet_brain's settings at 1x: every job under the brain, grey
/// node faults with node health, a lossy control channel with node and cell
/// partitions, and master crashes.
TEST(GoldenFleetTest, BrainFleetWithGreyFaultsAndLossyChannel) {
  FleetScenario scenario;
  scenario.seed = 1000;
  scenario.workload.num_jobs = 48;
  scenario.workload.arrival_span = Hours(8);
  scenario.cluster.num_nodes = 60;
  scenario.dlrover_fraction = 1.0;
  scenario.horizon = Hours(14);
  scenario.failures.daily_node_flaky_rate = 1.0;
  scenario.failures.daily_node_degraded_rate = 1.0;
  scenario.failures.daily_node_leak_rate = 0.9;
  scenario.failures.daily_node_crashloop_rate = 0.75;
  scenario.cluster.enable_node_health = true;
  scenario.control.enabled = true;
  scenario.control.drop_prob = 0.02;
  scenario.control.duplicate_prob = 0.05;
  scenario.control.reorder_prob = 0.05;
  scenario.failures.daily_node_partition_rate = 1.5;
  scenario.failures.daily_cell_partition_rate = 2.0;
  scenario.failures.daily_master_crash_rate = 0.3;
  const FleetResult r = RunFleet(scenario);
  ASSERT_EQ(r.jobs.size(), 48u);
  EXPECT_GT(r.Completed(), 0);
  ExpectDigest(r, 0x9b1e26760cb6c0aaull);
}

}  // namespace
}  // namespace dlrover
