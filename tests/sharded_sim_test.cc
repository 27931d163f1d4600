// Sharded engine determinism and sharded-vs-sequential fleet parity.
//
// The contract under test: for a fixed cell count, RunFleetSharded produces
// byte-identical FleetResults at every execution width (lanes, pool or no
// pool), and with cells == 1 it reproduces the sequential RunFleet exactly.

#include <algorithm>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "cluster/cluster.h"
#include "cluster/commit_log.h"
#include "common/rng.h"
#include "harness/experiment.h"
#include "harness/sharded_fleet.h"
#include "runtime/thread_pool.h"
#include "sim/sharded_simulator.h"

namespace dlrover {
namespace {

// ---------------------------------------------------------------------------
// Engine-level determinism
// ---------------------------------------------------------------------------

/// A (time, tag) trace of cross-shard effects as observed by shard 0.
using Trace = std::vector<std::pair<SimTime, int>>;

/// Three shards ping effects at shard 0 from periodic events; the recorded
/// arrival order must be identical at any execution width.
Trace RunPingTrace(ThreadPool* pool, size_t parallelism) {
  ShardedSimOptions options;
  options.num_shards = 3;
  options.window = 10.0;
  options.pool = pool;
  options.parallelism = parallelism;
  ShardedSimulator engine(options);

  Trace trace;
  for (int s = 1; s < 3; ++s) {
    // Each source shard ticks every 7s/11s and sends a tagged effect due
    // one window out; tags encode (source, tick).
    const Duration interval = s == 1 ? 7.0 : 11.0;
    for (int k = 1; k <= 12; ++k) {
      const SimTime at = interval * k;
      if (at > 120.0) break;
      const int tag = s * 100 + k;
      engine.shard(s).ScheduleAt(at, [&engine, &trace, s, tag] {
        const SimTime now = engine.shard(s).Now();
        engine.Send(s, 0, now, [&trace, &engine, tag] {
          trace.emplace_back(engine.shard(0).Now(), tag);
        });
      });
    }
  }
  engine.RunUntil(120.0);
  return trace;
}

TEST(ShardedSimulatorTest, CanonicalOrderIndependentOfExecutionWidth) {
  const Trace sequential = RunPingTrace(nullptr, 1);
  ASSERT_FALSE(sequential.empty());
  const Trace two_lanes = RunPingTrace(&SharedThreadPool(), 2);
  const Trace hw_lanes = RunPingTrace(&SharedThreadPool(), 0);
  EXPECT_EQ(sequential, two_lanes);
  EXPECT_EQ(sequential, hw_lanes);
}

TEST(ShardedSimulatorTest, SendsClampToWindowEndNeverLandInThePast) {
  ShardedSimOptions options;
  options.num_shards = 2;
  options.window = 10.0;
  ShardedSimulator engine(options);

  std::vector<SimTime> fired;
  // Sent during the first window with a due time in that window's past:
  // conservative lookahead must move it to the window end (10.0), where the
  // destination shard has not yet advanced beyond.
  engine.shard(1).ScheduleAt(4.0, [&] {
    engine.Send(1, 0, 1.0, [&] { fired.push_back(engine.shard(0).Now()); });
  });
  engine.RunUntil(30.0);
  ASSERT_EQ(fired.size(), 1u);
  EXPECT_DOUBLE_EQ(fired[0], 10.0);
}

TEST(ShardedSimulatorTest, CoordinatorSendsOrderAfterShardSendsAtSameDue) {
  ShardedSimOptions options;
  options.num_shards = 2;
  options.window = 10.0;
  ShardedSimulator engine(options);

  std::vector<int> order;
  bool armed = false;
  // Both effects reach shard 0's queue at the same barrier (t=10) with the
  // same due time (t=20): the shard-sourced send (recorded during the
  // window) commits before the coordinator's (recorded in the hook).
  engine.set_barrier_hook([&](SimTime barrier) {
    if (armed || barrier < 10.0) return;
    armed = true;
    engine.Send(ShardedSimulator::kCoordinator, 0, 20.0,
                [&order] { order.push_back(99); });
  });
  engine.shard(1).ScheduleAt(2.0, [&] {
    engine.Send(1, 0, 20.0, [&order] { order.push_back(1); });
  });
  engine.RunUntil(40.0);
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 99);
}

TEST(ShardedSimulatorTest, SetupSendsCommitOnZeroWidthWindow) {
  ShardedSimOptions options;
  options.num_shards = 2;
  options.window = 10.0;
  ShardedSimulator engine(options);
  int fired = 0;
  engine.Send(ShardedSimulator::kCoordinator, 1, 0.0, [&] { ++fired; });
  engine.RunUntil(0.0);  // zero-width window: commit, no time advance
  EXPECT_EQ(engine.Now(), 0.0);
  EXPECT_EQ(fired, 0);  // committed into shard 1's queue, not yet run
  EXPECT_EQ(engine.pending_events(), 1u);
  engine.RunUntil(1.0);
  EXPECT_EQ(fired, 1);
}

// ---------------------------------------------------------------------------
// Commit log / ledger
// ---------------------------------------------------------------------------

TEST(CommitLogTest, LedgerFoldReconstructsClusterTotals) {
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 4;
  options.node_capacity = {16.0, GiB(64)};
  Cluster cluster(&sim, options);
  ClusterCommitLog log;
  cluster.set_commit_log(&log);

  PodSpec spec;
  spec.name = "ledger-pod";
  spec.request = {4.0, GiB(8)};
  std::vector<PodId> pods;
  for (int i = 0; i < 5; ++i) {
    pods.push_back(cluster.CreatePod(spec, nullptr, nullptr));
  }
  sim.RunUntil(Minutes(5));
  cluster.ReportUsage(pods[0], {2.0, GiB(3)});
  cluster.KillPod(pods[1]);
  cluster.FailNode(0);
  sim.RunUntil(Minutes(10));
  cluster.RecoverNode(0);
  sim.RunUntil(Minutes(15));

  FleetLedger ledger;
  ledger.Fold({&log});
  EXPECT_TRUE(log.empty());  // fold consumes
  EXPECT_GT(ledger.entries_folded(), 0u);
  EXPECT_DOUBLE_EQ(ledger.totals().capacity.cpu, cluster.TotalCapacity().cpu);
  EXPECT_DOUBLE_EQ(ledger.totals().capacity.memory,
                   cluster.TotalCapacity().memory);
  EXPECT_DOUBLE_EQ(ledger.totals().allocated.cpu,
                   cluster.TotalAllocated().cpu);
  EXPECT_DOUBLE_EQ(ledger.totals().allocated.memory,
                   cluster.TotalAllocated().memory);
  EXPECT_DOUBLE_EQ(ledger.totals().usage.cpu, cluster.TotalUsage().cpu);
  EXPECT_DOUBLE_EQ(ledger.totals().usage.memory, cluster.TotalUsage().memory);
}

// Test-only oracle for FleetLedger::Fold: gather every entry, sort by the
// canonical (time, seq, shard) key, and sum in that order.
struct BruteLedger {
  FleetLedger::Totals totals;
  double peak_allocated_cpu = 0.0;
  uint64_t entries = 0;

  void Fold(const std::vector<ClusterCommitLog*>& logs) {
    struct Keyed {
      SimTime time;
      uint64_t seq;
      size_t shard;
      ClusterCommitLog::Entry entry;
    };
    std::vector<Keyed> all;
    for (size_t i = 0; i < logs.size(); ++i) {
      if (logs[i] == nullptr) continue;
      for (const auto& e : logs[i]->entries()) {
        all.push_back(Keyed{e.time, e.seq, i, e});
      }
    }
    std::sort(all.begin(), all.end(), [](const Keyed& a, const Keyed& b) {
      return std::tie(a.time, a.seq, a.shard) <
             std::tie(b.time, b.seq, b.shard);
    });
    for (const Keyed& k : all) {
      const ResourceSpec& d = k.entry.delta;
      switch (k.entry.kind) {
        case ClusterCommitLog::Kind::kCapacity:
          totals.capacity += d;
          break;
        case ClusterCommitLog::Kind::kAllocated:
          totals.allocated += d;
          peak_allocated_cpu =
              std::max(peak_allocated_cpu, totals.allocated.cpu);
          break;
        case ClusterCommitLog::Kind::kUsage:
          totals.usage += d;
          break;
        case ClusterCommitLog::Kind::kCordoned:
          totals.cordoned += d;
          break;
      }
      ++entries;
    }
  }
};

void ExpectBitEqual(double a, double b, const char* what) {
  uint64_t ua = 0;
  uint64_t ub = 0;
  std::memcpy(&ua, &a, sizeof(a));
  std::memcpy(&ub, &b, sizeof(b));
  EXPECT_EQ(ua, ub) << what << ": " << a << " vs " << b;
}

// Floating-point sums are order-sensitive, so a fold that visits entries in
// any order but the canonical one shows up as a bit difference. Random logs
// have equal-time ties within and across logs, empty and absent logs, and
// long single-log runs; totals are compared after every fold.
TEST(CommitLogTest, FoldMatchesBruteForceCanonicalOrderBitForBit) {
  Rng rng(20240611);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t num_logs = 1 + rng.UniformInt(uint64_t{12});
    std::vector<ClusterCommitLog> storage(num_logs);
    std::vector<ClusterCommitLog*> logs;
    for (size_t i = 0; i < num_logs; ++i) {
      // About one log in eight is absent (a cell without a cluster).
      logs.push_back(rng.UniformInt(uint64_t{8}) == 0 ? nullptr : &storage[i]);
    }
    FleetLedger ledger;
    BruteLedger brute;
    SimTime window_start = 0.0;
    for (int fold = 0; fold < 6; ++fold) {
      for (size_t i = 0; i < num_logs; ++i) {
        if (logs[i] == nullptr) continue;
        // Empty logs are common; otherwise up to 60 entries whose times
        // take few distinct values, so ties are frequent.
        const uint64_t n = rng.UniformInt(uint64_t{4}) == 0
                               ? 0
                               : rng.UniformInt(uint64_t{61});
        SimTime t = window_start;
        for (uint64_t k = 0; k < n; ++k) {
          if (rng.UniformInt(uint64_t{3}) == 0) {
            t += static_cast<double>(rng.UniformInt(uint64_t{3}));
          }
          const auto kind = static_cast<ClusterCommitLog::Kind>(
              rng.UniformInt(uint64_t{4}));
          const ResourceSpec delta{rng.Uniform(-50.0, 50.0),
                                   rng.Uniform(-1e10, 1e10)};
          logs[i]->Append(t, kind, delta);
        }
      }
      brute.Fold(logs);
      ledger.Fold(logs);
      for (ClusterCommitLog* log : logs) {
        if (log != nullptr) {
          EXPECT_TRUE(log->empty());
        }
      }
      const FleetLedger::Totals& got = ledger.totals();
      const FleetLedger::Totals& want = brute.totals;
      ExpectBitEqual(got.capacity.cpu, want.capacity.cpu, "capacity.cpu");
      ExpectBitEqual(got.capacity.memory, want.capacity.memory,
                     "capacity.memory");
      ExpectBitEqual(got.allocated.cpu, want.allocated.cpu, "allocated.cpu");
      ExpectBitEqual(got.allocated.memory, want.allocated.memory,
                     "allocated.memory");
      ExpectBitEqual(got.usage.cpu, want.usage.cpu, "usage.cpu");
      ExpectBitEqual(got.usage.memory, want.usage.memory, "usage.memory");
      ExpectBitEqual(got.cordoned.cpu, want.cordoned.cpu, "cordoned.cpu");
      ExpectBitEqual(got.cordoned.memory, want.cordoned.memory,
                     "cordoned.memory");
      ExpectBitEqual(ledger.peak_allocated_cpu(), brute.peak_allocated_cpu,
                     "peak_allocated_cpu");
      EXPECT_EQ(ledger.entries_folded(), brute.entries);
      window_start += 5.0;
    }
  }
}

TEST(CommitLogTest, RecoverNodeRestoresCapacityAndPumpsPending) {
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 1;
  options.node_capacity = {8.0, GiB(32)};
  Cluster cluster(&sim, options);
  const double full = cluster.TotalCapacity().cpu;
  cluster.FailNode(0);
  EXPECT_DOUBLE_EQ(cluster.TotalCapacity().cpu, 0.0);

  PodSpec spec;
  spec.name = "waits-for-repair";
  spec.request = {4.0, GiB(8)};
  bool running = false;
  cluster.CreatePod(spec, [&](Pod&) { running = true; }, nullptr);
  sim.RunUntil(Minutes(2));
  EXPECT_FALSE(running);  // no healthy node to land on

  cluster.RecoverNode(0);
  EXPECT_DOUBLE_EQ(cluster.TotalCapacity().cpu, full);
  sim.RunUntil(Minutes(10));
  EXPECT_TRUE(running);  // pending pod placed after repair
}

// ---------------------------------------------------------------------------
// Fleet parity
// ---------------------------------------------------------------------------

/// EXPECT-equality on every field of two FleetResults, including full
/// per-job JobStats: "byte-identical" in the acceptance criteria's sense.
void ExpectFleetResultsIdentical(const FleetResult& a, const FleetResult& b) {
  EXPECT_EQ(a.executed_events, b.executed_events);
  EXPECT_EQ(a.pods_preempted, b.pods_preempted);
  EXPECT_EQ(a.crashes_injected, b.crashes_injected);
  EXPECT_EQ(a.stragglers_injected, b.stragglers_injected);
  EXPECT_EQ(a.node_faults_injected, b.node_faults_injected);
  EXPECT_EQ(a.nodes_cordoned, b.nodes_cordoned);
  EXPECT_EQ(a.nodes_uncordoned, b.nodes_uncordoned);
  ASSERT_EQ(a.fault_log.size(), b.fault_log.size());
  for (size_t i = 0; i < a.fault_log.size(); ++i) {
    EXPECT_TRUE(a.fault_log[i] == b.fault_log[i]) << "fault_log[" << i << "]";
  }
  ASSERT_EQ(a.health_log.size(), b.health_log.size());
  for (size_t i = 0; i < a.health_log.size(); ++i) {
    EXPECT_TRUE(a.health_log[i] == b.health_log[i])
        << "health_log[" << i << "]";
  }
  EXPECT_TRUE(a.control_stats == b.control_stats);
  EXPECT_EQ(a.control_faults_injected, b.control_faults_injected);
  EXPECT_EQ(a.plans_fenced, b.plans_fenced);
  EXPECT_EQ(a.stale_plan_applies, b.stale_plan_applies);
  EXPECT_EQ(a.shard_reports_rejected, b.shard_reports_rejected);
  EXPECT_EQ(a.shard_reports_expired, b.shard_reports_expired);
  ASSERT_EQ(a.control_log.size(), b.control_log.size());
  for (size_t i = 0; i < a.control_log.size(); ++i) {
    EXPECT_TRUE(a.control_log[i] == b.control_log[i])
        << "control_log[" << i << "]";
  }
  ASSERT_EQ(a.jobs.size(), b.jobs.size());
  for (size_t i = 0; i < a.jobs.size(); ++i) {
    SCOPED_TRACE("job " + std::to_string(i) + " (" + a.jobs[i].name + ")");
    const FleetJobOutcome& x = a.jobs[i];
    const FleetJobOutcome& y = b.jobs[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.model, y.model);
    EXPECT_EQ(x.used_dlrover, y.used_dlrover);
    EXPECT_EQ(x.hot_ps, y.hot_ps);
    EXPECT_EQ(x.misconfig, y.misconfig);
    EXPECT_EQ(x.completed, y.completed);
    EXPECT_EQ(x.fail_reason, y.fail_reason);
    EXPECT_EQ(x.jct, y.jct);
    EXPECT_EQ(x.pending_time, y.pending_time);
    EXPECT_EQ(x.requested_cpus, y.requested_cpus);
    EXPECT_EQ(x.total_steps, y.total_steps);
    EXPECT_EQ(x.max_workers_quota, y.max_workers_quota);
    EXPECT_EQ(x.avg_worker_cpu_util, y.avg_worker_cpu_util);
    EXPECT_EQ(x.avg_ps_cpu_util, y.avg_ps_cpu_util);
    EXPECT_EQ(x.avg_worker_mem_util, y.avg_worker_mem_util);
    EXPECT_EQ(x.avg_ps_mem_util, y.avg_ps_mem_util);
    EXPECT_EQ(x.batches_done, y.batches_done);
    EXPECT_EQ(x.stats.submit_time, y.stats.submit_time);
    EXPECT_EQ(x.stats.first_training_time, y.stats.first_training_time);
    EXPECT_EQ(x.stats.finish_time, y.stats.finish_time);
    EXPECT_EQ(x.stats.downtime_checkpoint, y.stats.downtime_checkpoint);
    EXPECT_EQ(x.stats.downtime_waiting_pods, y.stats.downtime_waiting_pods);
    EXPECT_EQ(x.stats.downtime_repartition, y.stats.downtime_repartition);
    EXPECT_EQ(x.stats.worker_failures, y.stats.worker_failures);
    EXPECT_EQ(x.stats.ps_failures, y.stats.ps_failures);
    EXPECT_EQ(x.stats.oom_events, y.stats.oom_events);
    EXPECT_EQ(x.stats.full_restarts, y.stats.full_restarts);
    EXPECT_EQ(x.stats.migrations, y.stats.migrations);
    EXPECT_EQ(x.stats.scale_operations, y.stats.scale_operations);
    EXPECT_EQ(x.stats.stragglers_mitigated, y.stats.stragglers_mitigated);
    EXPECT_EQ(x.stats.drain_migrations, y.stats.drain_migrations);
    EXPECT_EQ(x.stats.drain_fallbacks, y.stats.drain_fallbacks);
    EXPECT_EQ(x.stats.fail_reason, y.stats.fail_reason);
  }
}

/// Fig 3 shape scaled down: an all-manual fleet under churn.
FleetScenario Fig3ShapedScenario() {
  FleetScenario scenario;
  scenario.dlrover_fraction = 0.0;
  scenario.workload.num_jobs = 12;
  scenario.workload.arrival_span = Hours(4);
  scenario.cluster.num_nodes = 16;
  scenario.failures.daily_pod_failure_rate = 0.5;
  scenario.failures.daily_straggler_rate = 0.35;
  scenario.horizon = Hours(24);
  scenario.seed = 11;
  return scenario;
}

/// Scarcity shape: demand well above capacity, so pending queues, slow
/// startups, and preemption paths all exercise.
FleetScenario ScarcityShapedScenario() {
  FleetScenario scenario;
  scenario.dlrover_fraction = 0.5;
  scenario.workload.num_jobs = 10;
  scenario.workload.arrival_span = Hours(2);
  scenario.cluster.num_nodes = 6;
  scenario.failures.daily_pod_failure_rate = 0.5;
  scenario.horizon = Hours(24);
  scenario.seed = 37;
  return scenario;
}

TEST(ShardedFleetTest, OneCellReproducesSequentialRunFleet) {
  const FleetScenario scenario = Fig3ShapedScenario();
  const FleetResult oracle = RunFleet(scenario);

  for (int lanes : {1, 2, 0}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    ShardedFleetOptions options;
    options.cells = 1;
    options.shards = lanes;
    const ShardedFleetResult sharded = RunFleetSharded(scenario, options);
    ExpectFleetResultsIdentical(oracle, sharded.fleet);
    EXPECT_GT(sharded.windows, 0u);
  }
}

TEST(ShardedFleetTest, MultiCellParityAcrossLanesFig3Shape) {
  FleetScenario scenario = Fig3ShapedScenario();
  ShardedFleetOptions options;
  options.cells = 3;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  ASSERT_EQ(one_lane.fleet.jobs.size(), 12u);

  options.shards = 2;
  const ShardedFleetResult two_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, two_lanes.fleet);
  EXPECT_EQ(one_lane.windows, two_lanes.windows);

  options.shards = 0;  // hardware concurrency
  const ShardedFleetResult hw_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, hw_lanes.fleet);
}

TEST(ShardedFleetTest, MultiCellParityAcrossLanesScarcityShape) {
  FleetScenario scenario = ScarcityShapedScenario();
  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);

  options.shards = 0;
  const ShardedFleetResult hw_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, hw_lanes.fleet);
}

/// Chaotic control plane turned all the way up: drops, duplicates, reorder,
/// node and cell partitions, master crashes. The acceptance bar is that
/// sharded runs stay byte-identical at every lane count with the channel on.
FleetScenario ControlChaosScenario() {
  FleetScenario scenario = Fig3ShapedScenario();
  scenario.dlrover_fraction = 1.0;  // control traffic needs dynamic sharding
  scenario.control.enabled = true;
  scenario.control.drop_prob = 0.02;
  scenario.control.duplicate_prob = 0.05;
  scenario.control.reorder_prob = 0.05;
  scenario.failures.daily_node_partition_rate = 1.5;
  scenario.failures.daily_cell_partition_rate = 2.0;
  scenario.failures.daily_master_crash_rate = 0.3;
  return scenario;
}

TEST(ShardedFleetTest, ControlChannelChaosParityAcrossLanes) {
  const FleetScenario scenario = ControlChaosScenario();
  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  // The chaos actually ran: control messages flowed and faults landed.
  EXPECT_GT(one_lane.fleet.control_stats.messages_delivered, 0u);
  EXPECT_GT(one_lane.fleet.control_faults_injected, 0u);
  ASSERT_FALSE(one_lane.fleet.control_log.empty());

  options.shards = 2;
  const ShardedFleetResult two_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, two_lanes.fleet);

  options.shards = 0;  // hardware concurrency
  const ShardedFleetResult hw_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, hw_lanes.fleet);
}

TEST(ShardedFleetTest, ControlChannelChaosRerunIdentity) {
  const FleetScenario scenario = ControlChaosScenario();
  ShardedFleetOptions options;
  options.cells = 2;
  options.shards = 0;
  const ShardedFleetResult first = RunFleetSharded(scenario, options);
  const ShardedFleetResult second = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(first.fleet, second.fleet);
}

TEST(ShardedFleetTest, CoupledStormArmDeterministicAcrossLanes) {
  FleetScenario scenario = Fig3ShapedScenario();
  ShardedFleetOptions options;
  options.cells = 3;
  options.scarcity_coupling = true;
  options.scarcity_threshold = 0.35;
  options.storm.node_strikes_per_hour = 1.5;
  options.storm.mttr = Minutes(30);

  options.shards = 1;
  const ShardedFleetResult one_lane = RunFleetSharded(scenario, options);
  EXPECT_GT(one_lane.storm_strikes, 0u);
  EXPECT_GT(one_lane.cross_shard_sends, 0u);
  EXPECT_GT(one_lane.ledger_entries, 0u);
  EXPECT_GT(one_lane.fleet_peak_allocated_cpu, 0.0);

  options.shards = 0;
  const ShardedFleetResult hw_lanes = RunFleetSharded(scenario, options);
  ExpectFleetResultsIdentical(one_lane.fleet, hw_lanes.fleet);
  EXPECT_EQ(one_lane.storm_strikes, hw_lanes.storm_strikes);
  EXPECT_EQ(one_lane.cross_shard_sends, hw_lanes.cross_shard_sends);
  EXPECT_EQ(one_lane.ledger_entries, hw_lanes.ledger_entries);
}

}  // namespace
}  // namespace dlrover
