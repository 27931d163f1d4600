#include "ps/training_job.h"

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "cluster/failure_injector.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

ClusterOptions SmallCluster() {
  ClusterOptions options;
  options.num_nodes = 20;
  options.node_capacity = {32.0, GiB(192)};
  return options;
}

JobSpec QuickSpec(uint64_t steps = 2000) {
  JobSpec spec;
  spec.name = "test-job";
  spec.model = ModelKind::kWideDeep;
  spec.total_steps = steps;
  return spec;
}

JobConfig TunedConfig() {
  JobConfig config;
  config.num_workers = 8;
  config.num_ps = 2;
  config.worker_cpu = 8.0;
  config.ps_cpu = 4.0;
  config.worker_memory = GiB(8);
  config.ps_memory = GiB(48);
  return config;
}

std::vector<PodId> RunningWorkerPods(const Cluster& cluster) {
  std::vector<PodId> ids;
  cluster.VisitPods([&](const Pod& pod) {
    if (pod.phase == PodPhase::kRunning &&
        pod.spec.name.find("worker") != std::string::npos) {
      ids.push_back(pod.id);
    }
  });
  return ids;
}

TEST(TrainingJobTest, RunsToCompletion) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(), TunedConfig());
  job.Start();
  sim.RunUntil(Hours(4));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 2000u);
  EXPECT_GT(job.stats().Jct(), 0.0);
  EXPECT_GE(job.stats().first_training_time, 0.0);
}

TEST(TrainingJobTest, ThroughputMatchesIterationModel) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(120000);
  JobConfig config = TunedConfig();
  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();
  sim.RunUntil(Minutes(10));
  ASSERT_EQ(job.state(), JobState::kRunning);
  const IterationBreakdown iter = ComputeHealthyIteration(
      job.model_profile(), job.environment(), spec.batch_size, config);
  const double expected =
      ThroughputSamplesPerSec(iter, spec.batch_size, config.num_workers);
  // Average over the whole run: per-window samples are quantized by shard
  // completions, the long-run average is not.
  const double elapsed = Minutes(10) - job.stats().first_training_time;
  const double measured = static_cast<double>(job.batches_done()) *
                          static_cast<double>(spec.batch_size) / elapsed;
  ASSERT_GT(measured, 0.0);
  EXPECT_NEAR(measured, expected, expected * 0.12);
}

TEST(TrainingJobTest, SurvivesWorkerCrashWithDynamicSharding) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(60000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  // Crash two workers: shards must be re-queued, replacements created.
  int crashed = 0;
  for (PodId id : RunningWorkerPods(cluster)) {
    if (crashed >= 2) break;
    cluster.FailPod(id, PodStopReason::kCrash);
    ++crashed;
  }
  ASSERT_EQ(crashed, 2);
  sim.RunUntil(Hours(6));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 60000u);
  EXPECT_EQ(job.stats().worker_failures, 2);
  EXPECT_EQ(job.stats().full_restarts, 0);
}

TEST(TrainingJobTest, StaticPartitionRestartsOnWorkerCrash) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  spec.data_mode = DataMode::kStaticPartition;
  spec.use_flash_checkpoint = false;
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  const std::vector<PodId> crash_targets = RunningWorkerPods(cluster);
  ASSERT_FALSE(crash_targets.empty());
  cluster.FailPod(crash_targets.front(), PodStopReason::kCrash);
  sim.RunUntil(Hours(8));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.stats().full_restarts, 1);
  EXPECT_GT(job.stats().downtime_checkpoint, 0.0);
  EXPECT_GT(job.stats().downtime_waiting_pods, 0.0);
}

TEST(TrainingJobTest, SeamlessScaleWorkersHasNoDowntime) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(120000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  JobConfig bigger = job.config();
  bigger.num_workers += 8;
  ASSERT_TRUE(job.ApplyPlan(bigger, MigrationMode::kSeamless).ok());
  EXPECT_EQ(job.state(), JobState::kRunning);  // never paused
  sim.RunUntil(Minutes(15));
  EXPECT_EQ(job.ActiveWorkerCount(), 16);
  EXPECT_EQ(job.stats().scale_operations, 1);
  EXPECT_EQ(job.stats().downtime_checkpoint, 0.0);
  sim.RunUntil(Hours(6));
  EXPECT_EQ(job.state(), JobState::kCompleted);
}

TEST(TrainingJobTest, SeamlessMigrationMuchCheaperThanStopRestart) {
  auto run = [](bool flash, MigrationMode mode) {
    Simulator sim;
    Cluster cluster(&sim, SmallCluster());
    JobSpec spec = QuickSpec(120000);
    spec.use_flash_checkpoint = flash;
    TrainingJob job(&sim, &cluster, spec, TunedConfig());
    job.Start();
    sim.RunUntil(Minutes(5));
    JobConfig plan = job.config();
    plan.num_ps += 2;
    EXPECT_TRUE(job.ApplyPlan(plan, mode).ok());
    sim.RunUntil(Hours(8));
    EXPECT_EQ(job.state(), JobState::kCompleted);
    return job.stats();
  };
  const JobStats seamless = run(true, MigrationMode::kSeamless);
  const JobStats restart = run(false, MigrationMode::kStopAndRestart);
  EXPECT_EQ(seamless.migrations, 1);
  EXPECT_EQ(restart.migrations, 1);
  // Seamless + flash downtime is seconds; stop-and-restart is minutes.
  EXPECT_LT(seamless.downtime_checkpoint, Seconds(30));
  EXPECT_GT(restart.downtime_checkpoint, Minutes(2));
  EXPECT_GT(restart.downtime_waiting_pods, Seconds(20));
  EXPECT_EQ(seamless.downtime_waiting_pods, 0.0);
}

TEST(TrainingJobTest, PsOomTriggersRecoveryAndVerticalScale) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  spec.checkpoint_interval = Minutes(2);
  JobConfig config = TunedConfig();
  config.ps_memory = GiB(4.5);  // too small: embedding growth will blow it
  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();
  sim.RunUntil(Hours(12));
  // The job OOMs at least once, recovers with more memory, and finishes.
  EXPECT_GE(job.stats().oom_events, 1);
  EXPECT_EQ(job.state(), JobState::kCompleted);
  EXPECT_GT(job.config().ps_memory, GiB(4.5));
}

TEST(TrainingJobTest, OomPreventionAvoidsOomEntirely) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  JobConfig config = TunedConfig();
  config.ps_memory = GiB(4.5);
  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();
  // A master loop that runs the OOM predictor periodically.
  PeriodicTask guard(&sim, Minutes(1), [&job] { job.MaybePreventOom(); });
  guard.Start();
  sim.RunUntil(Hours(12));
  EXPECT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.stats().oom_events, 0);
  EXPECT_GT(job.config().ps_memory, GiB(4.5));
}

TEST(TrainingJobTest, RelaunchBackoffDelaysWorkerReplacement) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  spec.relaunch_backoff_base = Seconds(20);
  spec.relaunch_backoff_cap = Seconds(60);
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);

  auto live_worker_pods = [&cluster] {
    int count = 0;
    cluster.VisitPods([&](const Pod& pod) {
      if (!pod.terminal() &&
          pod.spec.name.find("worker") != std::string::npos) {
        ++count;
      }
    });
    return count;
  };
  const int before = live_worker_pods();
  const std::vector<PodId> targets = RunningWorkerPods(cluster);
  ASSERT_FALSE(targets.empty());
  cluster.FailPod(targets.front(), PodStopReason::kCrash);

  // First-attempt backoff is 20s * jitter in [0.5, 1.5): no replacement pod
  // may even be requested inside the first 10 seconds.
  sim.RunUntil(sim.Now() + Seconds(9));
  EXPECT_EQ(live_worker_pods(), before - 1)
      << "replacement must wait out the backoff";
  // Well past the jittered delay the replacement exists and the job heals.
  sim.RunUntil(sim.Now() + Seconds(60));
  EXPECT_EQ(live_worker_pods(), before);
  EXPECT_GT(job.stats().downtime_waiting_pods, 0.0);

  sim.RunUntil(Hours(6));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 60000u);
  EXPECT_EQ(job.stats().worker_failures, 1);
}

TEST(TrainingJobTest, StopAndRestartMigrationFlushesFlashCache) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  // Disarm the periodic checkpoint so any flush observed here comes from
  // the migration path itself.
  spec.checkpoint_interval = Hours(100);
  TrainingJob job(&sim, &cluster, spec, TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  ASSERT_DOUBLE_EQ(job.flash_cache().flushed_bytes(), 0.0);

  JobConfig bigger = TunedConfig();
  bigger.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(bigger, MigrationMode::kStopAndRestart).ok());
  sim.RunUntil(Hours(6));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.stats().migrations, 1);
  // The migration checkpoint went to the flash tier and must have been
  // asynchronously persisted to RDS, not left in volatile memory only.
  EXPECT_GT(job.flash_cache().flushed_bytes(), 0.0);
}

TEST(TrainingJobTest, ReapSilentWorkersReplacesHalfDeadPod) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(60000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  EXPECT_EQ(job.ReapSilentWorkers(), 0) << "healthy fleet: nothing to reap";

  // Degrade one worker pod to near-zero speed: the pod stays Running but
  // will never finish another shard, so its heartbeats stop — the
  // half-dead failure mode heartbeat timeouts exist for.
  const std::vector<PodId> targets = RunningWorkerPods(cluster);
  ASSERT_FALSE(targets.empty());
  cluster.DegradePod(targets.front(), 1e-4);
  sim.RunUntil(sim.Now() + Minutes(10));
  EXPECT_EQ(job.ReapSilentWorkers(), 1);
  sim.RunUntil(Hours(6));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.batches_done(), 60000u);
  EXPECT_EQ(job.stats().worker_failures, 1);
  EXPECT_EQ(job.stats().full_restarts, 0);
}

TEST(TrainingJobTest, StragglerMitigationShrinksShards) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  TrainingJob job(&sim, &cluster, QuickSpec(60000), TunedConfig());
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  // Degrade one worker pod to 3% speed (paper's straggler experiment).
  const std::vector<PodId> degrade_targets = RunningWorkerPods(cluster);
  ASSERT_FALSE(degrade_targets.empty());
  cluster.DegradePod(degrade_targets.front(), 0.03);
  PeriodicTask mitigate(&sim, Seconds(30), [&job] { job.MitigateStragglers(); });
  mitigate.Start();
  sim.RunUntil(Minutes(30));
  EXPECT_GE(job.stats().stragglers_mitigated, 1);
}

// ActiveWorkerCount() is a cached count kept in step with every worker flag
// flip and group change; it must equal a fresh scan after each lifecycle
// transition and at every probe in between.
TEST(TrainingJobTest, ActiveWorkerCountMatchesScanThroughEveryTransition) {
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 4;
  options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, options);
  TrainingJob job(&sim, &cluster, QuickSpec(400000), TunedConfig());
  int probes = 0;
  int mismatches = 0;
  PeriodicTask probe(&sim, Seconds(1), [&] {
    ++probes;
    if (job.ActiveWorkerCount() != job.CountActiveWorkers()) ++mismatches;
  });
  auto check = [&](const char* step) {
    EXPECT_EQ(job.ActiveWorkerCount(), job.CountActiveWorkers()) << step;
  };
  auto run_for = [&](Duration d) { sim.RunUntil(sim.Now() + d); };

  job.Start();
  probe.Start();
  check("start");
  run_for(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  EXPECT_EQ(job.ActiveWorkerCount(), 8);

  JobConfig plan = job.config();
  plan.num_workers = 11;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kSeamless).ok());
  check("scale up");
  run_for(Minutes(3));
  EXPECT_EQ(job.ActiveWorkerCount(), 11);

  plan.num_workers = 6;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kSeamless).ok());
  check("scale down");
  EXPECT_EQ(job.ActiveWorkerCount(), 6);  // retired at once
  run_for(Minutes(3));

  // Higher-priority pods that cannot fit preempt training pods; the job
  // relaunches the preempted workers, which stay pending until the online
  // pods leave.
  PodSpec online;
  online.name = "online";
  online.request = {30.0, GiB(32)};
  online.priority = PriorityClass::kOnline;
  std::vector<PodId> online_pods;
  for (int i = 0; i < 3; ++i) {
    online_pods.push_back(cluster.CreatePod(online, nullptr, nullptr));
    check("preemption");
  }
  EXPECT_GT(cluster.counters().pods_preempted, 0u);
  run_for(Minutes(2));
  EXPECT_LT(job.ActiveWorkerCount(), 6);
  for (PodId id : online_pods) cluster.KillPod(id);
  check("online pods gone");
  run_for(Minutes(5));
  EXPECT_EQ(job.ActiveWorkerCount(), 6);

  const std::vector<PodId> crash_targets = RunningWorkerPods(cluster);
  ASSERT_GE(crash_targets.size(), 2u);
  cluster.FailPod(crash_targets[0], PodStopReason::kCrash);
  check("crash");
  EXPECT_EQ(job.ActiveWorkerCount(), 5);
  run_for(Minutes(3));
  EXPECT_EQ(job.ActiveWorkerCount(), 6);  // relaunched

  // Make-before-break: drain the node hosting the most workers.
  NodeId drained = 0;
  int most = 0;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    int here = 0;
    cluster.VisitPods([&](const Pod& pod) {
      if (!pod.terminal() && pod.node == static_cast<NodeId>(n) &&
          pod.spec.name.find("worker") != std::string::npos) {
        ++here;
      }
    });
    if (here > most) {
      most = here;
      drained = static_cast<NodeId>(n);
    }
  }
  ASSERT_GT(most, 0);
  cluster.DrainNode(drained);
  EXPECT_EQ(job.EvacuateDrainingPods(), most);
  check("drain staged");
  run_for(Minutes(5));
  EXPECT_GE(job.stats().drain_migrations, most);
  EXPECT_EQ(job.ActiveWorkerCount(), 6);
  cluster.UncordonNode(drained);

  // Whole-deployment transitions: seamless migration, then stop-and-restart.
  plan.num_ps = 3;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kSeamless).ok());
  check("seamless staged");
  run_for(Minutes(10));
  ASSERT_EQ(job.state(), JobState::kRunning);
  EXPECT_EQ(job.stats().migrations, 1);
  EXPECT_EQ(job.ActiveWorkerCount(), 6);
  plan.num_workers = 7;
  plan.worker_cpu = 6.0;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kStopAndRestart).ok());
  check("stop-and-restart");
  run_for(Minutes(30));
  ASSERT_EQ(job.state(), JobState::kRunning);
  EXPECT_EQ(job.ActiveWorkerCount(), 7);

  run_for(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  check("completed");
  EXPECT_EQ(job.ActiveWorkerCount(), 0);
  EXPECT_GT(probes, 1000);
  EXPECT_EQ(mismatches, 0);
}

/// Pods of the job that are not terminal, optionally only those whose name
/// contains `role` ("-worker-" or "-ps-").
int LivePods(const Cluster& cluster, const char* role = "") {
  int count = 0;
  cluster.VisitPods([&](const Pod& pod) {
    if (!pod.terminal() && pod.spec.name.find(role) != std::string::npos) {
      ++count;
    }
  });
  return count;
}

std::vector<PodId> RunningPsPods(const Cluster& cluster) {
  std::vector<PodId> ids;
  cluster.VisitPods([&](const Pod& pod) {
    if (pod.phase == PodPhase::kRunning &&
        pod.spec.name.find("-ps-") != std::string::npos) {
      ids.push_back(pod.id);
    }
  });
  return ids;
}

// A PS relaunch delayed by backoff must not outlive the PsState it was
// scheduled for. Sequence: PS A is lost and its relaunch waits; PS B is lost
// during that recovery, which forces a full restart (the PS set is rebuilt
// and A's state freed); the restart completes; PS C of the new set is lost,
// so the job is in PS recovery again when A's relaunch fires. That relaunch
// must do nothing: no pod for a PS the job no longer has.
TEST(TrainingJobTest, DelayedPsRelaunchDoesNotOutliveARestart) {
  Simulator sim;
  Cluster cluster(&sim, SmallCluster());
  JobSpec spec = QuickSpec(60000);
  spec.relaunch_backoff_base = Minutes(4);
  spec.relaunch_backoff_cap = Minutes(8);
  JobConfig config = TunedConfig();
  config.num_ps = 3;
  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();
  sim.RunUntil(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);

  std::vector<PodId> ps = RunningPsPods(cluster);
  ASSERT_EQ(ps.size(), 3u);
  const SimTime lost_a = sim.Now();
  Duration waited = job.stats().downtime_waiting_pods;
  cluster.FailPod(ps[0], PodStopReason::kCrash);
  const Duration delay_a = job.stats().downtime_waiting_pods - waited;
  ASSERT_GT(delay_a, 0.0);
  ASSERT_EQ(job.state(), JobState::kRestoring);
  cluster.FailPod(ps[1], PodStopReason::kCrash);
  ASSERT_EQ(job.stats().full_restarts, 1);

  while (job.state() != JobState::kRunning &&
         sim.Now() < lost_a + Minutes(10)) {
    sim.RunUntil(sim.Now() + Seconds(1));
  }
  ASSERT_EQ(job.state(), JobState::kRunning);
  const SimTime lost_c = sim.Now();
  ps = RunningPsPods(cluster);
  ASSERT_EQ(ps.size(), 3u);
  waited = job.stats().downtime_waiting_pods;
  cluster.FailPod(ps[0], PodStopReason::kCrash);
  const Duration delay_c = job.stats().downtime_waiting_pods - waited;
  // A's relaunch comes due while C's recovery still waits.
  ASSERT_LT(lost_c, lost_a + delay_a);
  ASSERT_LT(lost_a + delay_a, lost_c + delay_c);

  sim.RunUntil(lost_a + delay_a + Seconds(1));
  EXPECT_EQ(job.state(), JobState::kRestoring);
  EXPECT_EQ(LivePods(cluster, "-ps-"), 2) << "stale relaunch created a pod";
  sim.RunUntil(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.stats().ps_failures, 3);
  EXPECT_EQ(LivePods(cluster), 0);
}

// Retired members leave the rosters: through crash-relaunches, a scale-in
// and a make-before-break drain, every member the job holds has a pod that
// is not terminal, and a finished job holds none.
TEST(TrainingJobTest, RosterHoldsOnlyLiveMembers) {
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 4;
  options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, options);
  TrainingJob job(&sim, &cluster, QuickSpec(400000), TunedConfig());
  auto check = [&](const char* step) {
    EXPECT_EQ(job.RosterSize(), static_cast<size_t>(LivePods(cluster)))
        << step;
    EXPECT_EQ(job.ActiveWorkerCount(), job.CountActiveWorkers()) << step;
  };
  auto run_for = [&](Duration d) { sim.RunUntil(sim.Now() + d); };

  job.Start();
  run_for(Minutes(5));
  ASSERT_EQ(job.state(), JobState::kRunning);
  check("start");

  for (int round = 0; round < 6; ++round) {
    const std::vector<PodId> targets = RunningWorkerPods(cluster);
    ASSERT_FALSE(targets.empty());
    cluster.FailPod(targets.front(), PodStopReason::kCrash);
    check("crash");
    run_for(Minutes(2));
    check("relaunched");
  }
  EXPECT_EQ(job.stats().worker_failures, 6);
  EXPECT_EQ(job.ActiveWorkerCount(), 8);

  JobConfig plan = job.config();
  plan.num_workers = 5;
  ASSERT_TRUE(job.ApplyPlan(plan, MigrationMode::kSeamless).ok());
  check("scale in");
  EXPECT_EQ(job.RosterSize(), 5u + 2u);

  // Drain the node hosting the most workers.
  NodeId drained = 0;
  int most = 0;
  for (size_t n = 0; n < cluster.num_nodes(); ++n) {
    int here = 0;
    cluster.VisitPods([&](const Pod& pod) {
      if (!pod.terminal() && pod.node == static_cast<NodeId>(n) &&
          pod.spec.name.find("worker") != std::string::npos) {
        ++here;
      }
    });
    if (here > most) {
      most = here;
      drained = static_cast<NodeId>(n);
    }
  }
  ASSERT_GT(most, 0);
  cluster.DrainNode(drained);
  EXPECT_EQ(job.EvacuateDrainingPods(), most);
  check("drain staged");
  EXPECT_EQ(job.RosterSize(), 5u + 2u + static_cast<size_t>(most));
  run_for(Minutes(5));
  check("drained");
  EXPECT_EQ(job.stats().drain_migrations, most);
  EXPECT_EQ(job.RosterSize(), 5u + 2u);
  cluster.UncordonNode(drained);

  run_for(Hours(12));
  ASSERT_EQ(job.state(), JobState::kCompleted);
  EXPECT_EQ(job.RosterSize(), 0u);
}

}  // namespace
}  // namespace dlrover
