// Allocation regression guard for the event hot path. The build compiles the
// counting operator-new replacement (src/common/alloc_hooks.cc) into this
// binary, warms up a single training job until every pooled structure (event
// slab, shard queue, iteration cache, usage scratch) has reached steady
// state, and then asserts that simulating thousands more events performs
// ZERO heap allocations. Any new per-event allocation in Simulator, Cluster,
// ShardQueue, or TrainingJob turns this red.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "brain/nsga2.h"
#include "cluster/cluster.h"
#include "cluster/placement_index.h"
#include "common/alloc_counter.h"
#include "dlrm/async_trainer.h"
#include "dlrm/criteo_synth.h"
#include "dlrm/mini_dlrm.h"
#include "elastic/heartbeat.h"
#include "elastic/shard_queue.h"
#include "ps/training_job.h"
#include "sim/sharded_simulator.h"
#include "sim/simulator.h"

namespace dlrover {
namespace {

TEST(AllocGuardTest, HooksAreLinkedAndCounting) {
  ASSERT_TRUE(AllocationCountingEnabled());
  const uint64_t before = AllocationCount();
  // Call the replaced operator directly: unlike a new-expression, a direct
  // call is not eligible for allocation elision.
  void* p = ::operator new(64);
  const uint64_t after = AllocationCount();
  ::operator delete(p);
  EXPECT_GT(after, before);
}

TEST(AllocGuardTest, WarmSingleJobRunIsAllocationFree) {
  Simulator sim;
  ClusterOptions cluster_options;
  cluster_options.num_nodes = 20;
  cluster_options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, cluster_options);

  JobSpec spec;
  spec.name = "alloc-guard";
  spec.model = ModelKind::kWideDeep;
  spec.total_steps = 2000000;  // Long enough that the queue never drains.
  // Pre-size the per-window history so steady state never grows it.
  spec.history_reserve = 1 << 14;

  JobConfig config;
  config.num_workers = 8;
  config.num_ps = 2;
  config.worker_cpu = 8.0;
  config.ps_cpu = 4.0;
  config.worker_memory = GiB(8);
  config.ps_memory = GiB(48);

  TrainingJob job(&sim, &cluster, spec, config);
  job.Start();

  // Warm-up: startup, first profile windows, shard-queue capacity growth,
  // iteration-cache population all happen here.
  sim.RunUntil(Minutes(30));
  ASSERT_EQ(job.state(), JobState::kRunning);

  constexpr int kEvents = 5000;
  const uint64_t allocs_before = AllocationCount();
  int stepped = 0;
  for (; stepped < kEvents; ++stepped) {
    if (!sim.Step()) break;
  }
  const uint64_t allocs_after = AllocationCount();

  ASSERT_EQ(stepped, kEvents) << "event queue drained during measurement";
  EXPECT_EQ(allocs_after - allocs_before, 0u)
      << "hot path allocated " << (allocs_after - allocs_before)
      << " times across " << kEvents << " events";
}

TEST(AllocGuardTest, WarmTrainingHotLoopIsAllocationFree) {
  // The kThreads per-batch cycle — FillBatch, PullBatch, ComputeBatch,
  // PushBatch against a reusable DlrmBatchWork — must allocate nothing once
  // warmed: batch buffers, the pulled dense copy, key/slot tables, gathered
  // rows and gradient accumulators are all reused, and the store's
  // steady-state lookups are find/try_emplace on materialized keys. Loop a
  // fixed batch range so every embedding key (and every buffer's maximum
  // size) is seen during warm-up.
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 8;
  config.hash_buckets = 512;
  config.mlp_hidden = {16, 8};
  config.seed = 3;
  MiniDlrm model(config);
  CriteoSynth data(7);
  DlrmBatchWork work;
  constexpr uint64_t kBatches = 12;
  constexpr uint64_t kBatchSize = 32;
  auto one_pass = [&]() {
    for (uint64_t b = 0; b < kBatches; ++b) {
      data.FillBatch(b * kBatchSize, kBatchSize, &work.batch);
      model.PullBatch(&work);
      model.ComputeBatch(&work);
      model.PushBatch(&work, 0.05);
    }
  };
  one_pass();  // materialize every row, grow every buffer to its max
  one_pass();  // second pass: hash-map load factors, vector capacities settle

  const uint64_t before = AllocationCount();
  one_pass();
  one_pass();
  const uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << "training hot loop allocated " << (after - before) << " times across "
      << 2 * kBatches << " steady-state batches";
}

TEST(AllocGuardTest, PredictAllocationsDoNotGrowWithBatchSize) {
  // Evaluation streams the batch through fixed-size chunks of one local
  // workspace, so a warmed model's Predict allocates the same fixed set of
  // buffers (plus the output vector) whatever the batch size.
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 8;
  config.hash_buckets = 4096;
  config.mlp_hidden = {32, 16};
  config.seed = 3;
  MiniDlrm model(config);
  CriteoSynth data(7);
  const CriteoBatch small = data.Batch(0, 1024);
  const CriteoBatch large = data.Batch(0, 4096);
  model.Predict(large);  // materialize every row both batches touch

  uint64_t before = AllocationCount();
  model.Predict(small);
  const uint64_t small_allocs = AllocationCount() - before;
  before = AllocationCount();
  model.Predict(large);
  const uint64_t large_allocs = AllocationCount() - before;
  EXPECT_LE(large_allocs, small_allocs)
      << "Predict allocated " << small_allocs << " times for 1024 samples and "
      << large_allocs << " for 4096";
}

TEST(AllocGuardTest, TickTrainerAllocationsPerBatchAreBounded) {
  // A kTicks run trains on one shared batch workspace; each worker keeps
  // only its pending gradient buffers, which circulate without reallocating
  // once warm. Doubling the budget from 200 to 400 batches may add only a
  // handful of allocations per extra batch (first-touch embedding rows,
  // shard dispatch), never per-sample or per-key ones.
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 8;
  config.hash_buckets = 512;
  config.mlp_hidden = {32, 16};
  config.seed = 3;
  const CriteoSynth data(7);
  auto run_allocs = [&](uint64_t batches) {
    AsyncTrainerOptions options;
    options.num_workers = 8;
    options.batch_size = 96;
    options.total_batches = batches;
    options.shard_batches = 16;
    options.eval_every_batches = 1ull << 30;  // one final eval
    options.eval_size = 1024;
    options.events = {{40, ElasticEvent::Kind::kAddWorkers, 4, 0.0},
                      {90, ElasticEvent::Kind::kCrashWorker, 1, 0.0}};
    MiniDlrm model(config);
    const uint64_t before = AllocationCount();
    AsyncPsTrainer trainer(&model, &data, options);
    const TrainResult result = trainer.Run();
    EXPECT_EQ(result.batches_committed, batches);
    return AllocationCount() - before;
  };
  const uint64_t short_run = run_allocs(200);
  const uint64_t long_run = run_allocs(400);
  ASSERT_GE(long_run, short_run);
  const double per_batch = static_cast<double>(long_run - short_run) / 200.0;
  EXPECT_LE(per_batch, 16.0) << short_run << " allocations for 200 batches, "
                             << long_run << " for 400";
}

TEST(AllocGuardTest, WarmShardQueueDispatchCycleIsAllocationFree) {
  // The per-shard piece of the threaded hot loop: dispatch a shard, report
  // it completed. After a few cycles warm the outstanding-registry capacity,
  // the steady-state dispatch/complete cycle must not allocate. (The
  // failure/requeue path is exempt — it only runs on elastic events and
  // crashes, never per healthy shard.)
  ShardQueueOptions options;
  options.total_batches = 16384;
  options.default_shard_batches = 16;
  options.min_shard_batches = 2;
  ShardQueue queue(options);
  auto cycle = [&](int n) {
    for (int i = 0; i < n; ++i) {
      auto shard = queue.NextShard();
      ASSERT_TRUE(shard.ok());
      ASSERT_TRUE(queue.ReportCompleted(*shard).ok());
    }
  };
  cycle(32);
  const uint64_t before = AllocationCount();
  cycle(512);
  const uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << "shard dispatch/complete cycle allocated " << (after - before)
      << " times";
}

TEST(AllocGuardTest, WarmHeartbeatIsAllocationFree) {
  // Every shard completion is a heartbeat. Once the monitor's slab reaches
  // the highest member id, heartbeats from known members (and re-adds after
  // a remove or a fence) only write fields in place.
  HeartbeatMonitor monitor(HeartbeatMonitorOptions{});
  for (uint64_t id = 0; id < 64; ++id) monitor.AddMember(id, 0.0);
  uint64_t progress = 0;
  const uint64_t before = AllocationCount();
  for (int round = 1; round <= 200; ++round) {
    for (uint64_t id = 0; id < 64; ++id) {
      monitor.Heartbeat(id, round * 1.0, ++progress);
    }
    monitor.FenceMember(static_cast<uint64_t>(round % 64));
    monitor.AddMember(static_cast<uint64_t>(round % 64), round * 1.0);
  }
  const uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << "warm heartbeats allocated " << (after - before) << " times";
  EXPECT_EQ(monitor.member_count(), 64u);
}

TEST(AllocGuardTest, WarmPlacementIndexOpsAreAllocationFree) {
  // The scheduling index itself: every slab lives in vectors sized at
  // construction (capacity treap) or grown to a high-water mark (running-pod
  // treaps), so a steady-state place/preempt-precheck/kill cycle — BestFit,
  // key updates, pod aggregates, running-pod insert/remove/visit — performs
  // zero heap allocations.
  constexpr size_t kNodes = 128;
  PlacementIndex index(kNodes);
  for (size_t i = 0; i < kNodes; ++i) {
    index.InsertNode(static_cast<NodeId>(i),
                     {32.0 - static_cast<double>(i % 7) * 0.5, GiB(192)});
  }
  RunningPodIndex running;
  std::vector<Pod> pods(256);
  for (size_t i = 0; i < pods.size(); ++i) {
    pods[i].creation_seq = i;
    running.Insert(PriorityClass::kTraining, i, &pods[i]);
  }
  // High-water the free list, then refill so steady state recycles entries.
  for (size_t i = 0; i < pods.size(); ++i) {
    running.Remove(PriorityClass::kTraining, i);
  }
  for (size_t i = 0; i < pods.size(); ++i) {
    running.Insert(PriorityClass::kTraining, i, &pods[i]);
  }

  const ResourceSpec request{4.0, GiB(8)};
  uint64_t visited = 0;
  const uint64_t before = AllocationCount();
  for (int cycle = 0; cycle < 2000; ++cycle) {
    const NodeId nid = static_cast<NodeId>(cycle % kNodes);
    const int best = index.BestFit(request);
    ASSERT_GE(best, 0);
    index.AddPod(nid, PriorityClass::kTraining, request);
    index.UpdateNode(nid, {24.0, GiB(160)});
    for (size_t n = 0; n < kNodes; ++n) {
      if (index.MaybeFreeable(static_cast<NodeId>(n), {1.0, GiB(4)}, request,
                              PriorityClass::kOnline)) {
        break;
      }
    }
    index.RemovePod(nid, PriorityClass::kTraining, request);
    index.UpdateNode(nid, {32.0 - static_cast<double>(nid % 7) * 0.5, GiB(192)});
    index.RemoveNode(nid);
    index.InsertNode(nid, {32.0 - static_cast<double>(nid % 7) * 0.5, GiB(192)});
    const uint64_t seq = static_cast<uint64_t>(cycle % 256);
    running.Remove(PriorityClass::kTraining, seq);
    running.Insert(PriorityClass::kTraining, seq, &pods[seq]);
    running.Visit(PriorityClass::kBestEffort, [&](const Pod&) { ++visited; });
  }
  const uint64_t after = AllocationCount();
  EXPECT_EQ(after - before, 0u)
      << "placement index cycle allocated " << (after - before) << " times";
  EXPECT_EQ(visited, 0u);  // nothing runs in the best-effort bucket
}

TEST(AllocGuardTest, WarmIndexedClusterChurnIsAllocationFree) {
  // Cluster-level steady state through the index: usage reports, kills, and
  // the resulting key updates / running-directory removals / empty-queue
  // pumps must not allocate once slot free-lists and index slabs are at
  // their high-water mark. (CreatePod is exempt by design — constructing a
  // pod allocates its control block — so the measured cycle churns a
  // prewarmed pool.)
  Simulator sim;
  ClusterOptions options;
  options.num_nodes = 20;
  options.node_capacity = {32.0, GiB(192)};
  Cluster cluster(&sim, options);

  auto create_batch = [&](int n, std::vector<PodId>* out) {
    for (int i = 0; i < n; ++i) {
      PodSpec spec;
      spec.name = "churn";
      spec.request = {2.0, GiB(4)};
      spec.priority = PriorityClass::kTraining;
      out->push_back(cluster.CreatePod(std::move(spec), nullptr, nullptr));
    }
  };
  std::vector<PodId> warm;
  warm.reserve(512);
  create_batch(256, &warm);
  sim.RunUntil(Minutes(5));  // all started and running
  // High-water the termination structures (pod slot free list, running-pod
  // free list), then refill so the measured kills recycle warm capacity.
  for (int i = 0; i < 128; ++i) cluster.KillPod(warm[static_cast<size_t>(i)]);
  create_batch(128, &warm);
  sim.RunUntil(Minutes(10));

  const uint64_t before = AllocationCount();
  int killed = 0;
  for (size_t i = 128; i < warm.size() && killed < 128; ++i, ++killed) {
    cluster.ReportUsage(warm[i], {1.5, GiB(3)});
    cluster.KillPod(warm[i]);
  }
  const uint64_t after = AllocationCount();
  ASSERT_EQ(killed, 128);
  EXPECT_EQ(after - before, 0u)
      << "indexed cluster churn allocated " << (after - before)
      << " times across " << killed << " usage-report/kill cycles";
}

TEST(AllocGuardTest, WarmShardedWindowDispatchIsAllocationFree) {
  // Sequential-lane sharded engine: advancing warm windows — per-shard
  // periodic work plus cross-shard sends gathered, sorted, and committed at
  // every barrier — must not allocate. The pool dispatch path is exempt by
  // design (ParallelFor allocates its task closures); since lane count never
  // changes results, the sequential path exercises the identical event work.
  ShardedSimOptions options;
  options.num_shards = 3;
  options.window = 10.0;
  ShardedSimulator engine(options);
  engine.ReserveCommitLogs(64);
  int delivered = 0;
  std::vector<std::unique_ptr<PeriodicTask>> tasks;
  for (int s = 0; s < 3; ++s) {
    Simulator& sim = engine.shard(s);
    const int dst = (s + 1) % 3;
    tasks.push_back(std::make_unique<PeriodicTask>(
        &sim, 3.0, [&engine, &delivered, s, dst] {
          engine.Send(s, dst, engine.Now() + 5.0,
                      [&delivered] { ++delivered; });
        }));
    tasks.back()->Start();
  }
  engine.RunUntil(200.0);  // warm: event slabs, outboxes, commit scratch
  ASSERT_GT(delivered, 0);
  const uint64_t windows_before = engine.windows_run();

  const uint64_t before = AllocationCount();
  engine.RunUntil(400.0);
  const uint64_t after = AllocationCount();
  EXPECT_GT(engine.windows_run(), windows_before);
  EXPECT_EQ(after - before, 0u)
      << "sharded window dispatch allocated " << (after - before)
      << " times across " << (engine.windows_run() - windows_before)
      << " warm windows";
}

TEST(AllocGuardTest, WarmNsga2GenerationsAreAllocationFree) {
  // Run() sizes its buffers once; every generation after that — tournament,
  // crossover, mutation, evaluation, sort, crowding, truncation — reuses
  // them. The objective records the allocation count at each call, so the
  // span from the first offspring evaluation to the last covers all but
  // the first generation's work.
  constexpr int kPopulation = 48;
  constexpr int kGenerations = 40;
  std::vector<uint64_t> counts;
  counts.reserve(kPopulation * (kGenerations + 1));
  const std::vector<DecisionBounds> bounds = {
      {1, 40, true}, {1, 8, true}, {1, 16, true}, {1, 16, true}};
  auto objective = [&counts](const std::vector<double>& x) {
    counts.push_back(AllocationCount());
    const double cost = x[0] * x[2] + x[1] * x[3];
    const double gain = x[0] * x[2] / (1.0 + x[0] / x[1]) - 40.0;
    return Objectives{cost, gain > 0.0 ? 1.0 / gain : 1e9 - gain};
  };
  Nsga2Options options;
  options.population = kPopulation;
  options.generations = kGenerations;
  Nsga2 nsga2(bounds, objective, options);
  ASSERT_FALSE(nsga2.Run().empty());
  ASSERT_EQ(counts.size(), size_t{kPopulation} * (kGenerations + 1));
  EXPECT_EQ(counts.back() - counts[kPopulation], 0u)
      << "NSGA-II allocated " << (counts.back() - counts[kPopulation])
      << " times across " << kGenerations - 1 << " warm generations";
}

}  // namespace
}  // namespace dlrover
