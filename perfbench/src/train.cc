// Training workloads: the async-PS trainer on the real mini-DLRM.
//
//   train_threads  ExecMode::kThreads, workers = pool threads = min(4,
//                  nproc): real parallel pull -> compute -> push through
//                  PullBatch/ComputeBatch/PushBatch, no fleet code.
//   train_ticks    the DLRover arm of Fig 8 in the default ExecMode::kTicks:
//                  8 logical workers on one thread, concept drift and the
//                  add/straggler/crash/remove script, on the deterministic
//                  per-sample path (TakeSnapshot/ForwardBackward/
//                  ApplyGradients). Untraced runs measure min(4, nproc)
//                  replicas side by side, each single-threaded and each
//                  required to reproduce the same loss curve.
//
// Each trainer run is short (about a second) so a benchmark run holds many
// and reports their median: the Fig 8 script runs on 1/12 of its
// 2,400-batch budget, with every event and evaluation point scaled to match.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "dlrm/async_trainer.h"
#include "tracer.h"

namespace perfbench {
namespace {

using dlrover::AsyncPsTrainer;
using dlrover::AsyncTrainerOptions;
using dlrover::CriteoSynth;
using dlrover::ElasticEvent;
using dlrover::ExecMode;
using dlrover::MiniDlrm;
using dlrover::MiniDlrmConfig;
using dlrover::TrainResult;

bool IsTicks(const std::string& workload) {
  return workload == "train_ticks";
}

/// Model, data and trainer settings of a training workload. The dataset is
/// fixed, as a real training corpus is (the source benches' data seeds:
/// Fig 8 1234, micro throughput 31); --seed draws the model initialisation
/// and the trainer's schedule, and seed 1 reproduces the source benches'
/// own (Fig 8: model 77, trainer 55; micro throughput: model 5, trainer 11).
struct TrainSetup {
  MiniDlrmConfig model;
  uint64_t data_seed = 0;
  double drift_samples = 0.0;
  AsyncTrainerOptions trainer;
  /// Batches the traced run replays through the per-call entry points.
  uint64_t replay_batches = 0;
};

TrainSetup MakeSetup(const RunOptions& options) {
  TrainSetup s;
  s.model.arch = dlrover::ModelKind::kWideDeep;
  s.model.emb_dim = 8;
  s.model.hash_buckets = 4096;
  AsyncTrainerOptions& t = s.trainer;
  if (IsTicks(options.workload)) {
    // Fig 8, DLRover arm, at 1/12 of the batch budget (tiny: 1/24).
    const uint64_t div = options.tiny() ? 24 : 12;
    s.model.mlp_hidden = {32, 16};
    s.model.seed = 76 + options.seed;
    s.data_seed = 1234;
    s.drift_samples = 120000.0;
    t.num_workers = 8;
    t.batch_size = 96;
    t.total_batches = 2400 / div;
    t.learning_rate = 0.12;
    t.shard_batches = 16;
    t.eval_every_batches = 400 / div;
    t.eval_start = t.total_batches * t.batch_size;
    t.eval_size = 4096;
    t.seed = 54 + options.seed;
    t.data_mode = dlrover::DataMode::kDynamicSharding;
    t.events = {
        {400 / div, ElasticEvent::Kind::kAddWorkers, 4, 0.0},
        {700 / div, ElasticEvent::Kind::kMakeStraggler, 1, 0.05},
        {900 / div, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
        {1800 / div, ElasticEvent::Kind::kRemoveWorkers, 3, 0.0},
    };
    s.replay_batches = options.tiny() ? 100 : 600;
    return s;
  }
  // bench_micro_train_throughput's model and batch shape.
  s.model.mlp_hidden = {64, 32};
  s.model.seed = 4 + options.seed;
  s.data_seed = 31;
  t.exec_mode = ExecMode::kThreads;
  t.num_workers = LaneCount();
  t.num_threads = LaneCount();
  t.batch_size = 128;
  t.total_batches = options.tiny() ? 200 : 400;
  t.learning_rate = 0.1;
  t.shard_batches = 12;
  t.eval_every_batches = 1ull << 30;  // one evaluation, at the end
  t.eval_size = 1024;
  t.seed = 10 + options.seed;
  s.replay_batches = options.tiny() ? 100 : 600;
  return s;
}

/// Digest of the loss curve: every evaluation point, bit for bit.
uint64_t CurveDigest(const TrainResult& r) {
  Digest d;
  for (const dlrover::EvalPoint& p : r.curve) {
    d.Add(p.batches);
    d.Add(p.test_logloss);
    d.Add(p.test_auc);
  }
  d.Add(r.batches_committed);
  return d.value();
}

/// Batches not trained exactly once (missing batches included).
uint64_t BadBatches(const TrainResult& r, uint64_t budget) {
  uint64_t bad = 0;
  for (uint8_t times : r.times_trained) bad += times != 1 ? 1 : 0;
  if (r.times_trained.size() < budget) bad += budget - r.times_trained.size();
  return bad;
}

/// One timed trainer run: set-up (data, model, trainer), then Run().
struct TimedRun {
  double setup_s = 0.0;
  double wall_s = 0.0;
  TrainResult result;
};

TimedRun RunOnce(const TrainSetup& s) {
  TimedRun out;
  const auto start = Clock::now();
  CriteoSynth data(s.data_seed, s.drift_samples);
  MiniDlrm model(s.model);
  AsyncPsTrainer trainer(&model, &data, s.trainer);
  out.setup_s = SecondsSince(start);
  const auto run_start = Clock::now();
  out.result = trainer.Run();
  out.wall_s = SecondsSince(run_start);
  return out;
}

/// Checks a run: every batch trained exactly once, the whole budget
/// committed, and (ticks) the loss curve equal to the pinned or first
/// run's. Returns the number of failed batches.
uint64_t CheckRun(const RunOptions& options, const TrainSetup& s,
                  const TrainResult& r, uint64_t* reference) {
  const uint64_t budget = s.trainer.total_batches;
  uint64_t failed = BadBatches(r, budget);
  if (failed > 0 || r.batches_committed != budget) {
    std::fprintf(stderr, "FAIL %llu batches not trained exactly once, %llu of "
                 "%llu committed\n", static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(r.batches_committed),
                 static_cast<unsigned long long>(budget));
    failed = std::max<uint64_t>(failed, 1);
  }
  if (IsTicks(options.workload)) {
    const uint64_t digest = CurveDigest(r);
    const uint64_t pinned =
        PinnedDigest(options.workload, options.shape, options.seed);
    if (*reference == 0) *reference = pinned != 0 ? pinned : digest;
    if (digest != *reference) {
      // A different loss curve means every batch's update was wrong.
      std::fprintf(stderr, "FAIL loss-curve digest %016llx != %016llx%s\n",
                   static_cast<unsigned long long>(digest),
                   static_cast<unsigned long long>(*reference),
                   pinned != 0 ? " (pinned)" : "");
      failed = budget;
    }
  }
  return failed;
}

/// Repeats RunOnce until `seconds` would be exceeded, on `replicas`
/// threads side by side; returns every run, replica by replica.
std::vector<TimedRun> RunRepeated(const TrainSetup& s, double seconds,
                                  int replicas) {
  std::vector<std::vector<TimedRun>> runs(static_cast<size_t>(replicas));
  const auto begin = Clock::now();
  auto loop = [&s, seconds, begin](std::vector<TimedRun>* out) {
    while (out->empty() ||
           SecondsSince(begin) + out->back().setup_s + out->back().wall_s <=
               seconds) {
      out->push_back(RunOnce(s));
    }
  };
  {
    std::vector<std::jthread> threads;
    for (size_t r = 1; r < runs.size(); ++r) threads.emplace_back(loop, &runs[r]);
    loop(&runs[0]);
  }
  std::vector<TimedRun> all;
  for (auto& replica : runs) {
    for (TimedRun& run : replica) all.push_back(std::move(run));
  }
  return all;
}

WorkloadResult RunUntraced(const RunOptions& options) {
  WorkloadResult out;
  const TrainSetup s = MakeSetup(options);
  // A tick trainer is single-threaded: one replica per core measures it on
  // every core at once, so one slow core does not set the figure.
  const int replicas = IsTicks(options.workload) ? LaneCount() : 1;
  const std::vector<TimedRun> runs =
      RunRepeated(s, options.seconds, replicas);
  const double batch = static_cast<double>(s.trainer.batch_size);
  std::vector<double> setup_s, wall_s, rate, logloss;
  uint64_t reference = 0, complete = 0;
  for (const TimedRun& run : runs) {
    setup_s.push_back(run.setup_s);
    wall_s.push_back(run.wall_s);
    rate.push_back(static_cast<double>(run.result.batches_committed) * batch /
                   run.wall_s);
    logloss.push_back(run.result.final_logloss);
    out.attempted += s.trainer.total_batches;
    out.failed += CheckRun(options, s, run.result, &reference);
    complete += run.result.batches_committed == s.trainer.total_batches;
  }
  out.digest = reference;
  out.metrics["setup_s"] = Median(setup_s);
  out.metrics["wall_s"] = Median(wall_s);
  out.metrics["samples_per_s"] = Median(rate);
  out.metrics["final_logloss"] = Median(logloss);
  out.metrics["sim_completion_rate"] =
      static_cast<double>(complete) / static_cast<double>(runs.size());
  std::fprintf(stderr, "%s: %zu runs on %d replicas, wall median %.3f s, "
               "setup %.4f s; wall", options.workload.c_str(), runs.size(),
               replicas, Median(wall_s), Median(setup_s));
  for (double w : wall_s) std::fprintf(stderr, " %.3f", w);
  std::fprintf(stderr, "\n");
  return out;
}

/// Replays `batches` batches single-threaded through the workload's own
/// per-call entry points on a fresh model, recording a span per call when
/// `tracer` is set. Returns the per-batch training losses.
std::vector<double> Replay(const RunOptions& options, const TrainSetup& s,
                           uint64_t batches, Tracer* tracer) {
  const CriteoSynth data(s.data_seed, s.drift_samples);
  MiniDlrm model(s.model);
  const uint64_t bs = s.trainer.batch_size;
  const double lr = s.trainer.learning_rate;
  std::vector<double> losses;
  losses.reserve(batches);
  if (IsTicks(options.workload)) {
    for (uint64_t b = 0; b < batches; ++b) {
      dlrover::CriteoBatch batch;
      {
        ScopedSpan span(tracer, "dlrm.data");
        batch = data.Batch(b * bs, bs);
      }
      dlrover::ParamSnapshot snapshot;
      {
        ScopedSpan span(tracer, "dlrm.snapshot");
        snapshot = model.TakeSnapshot(batch);
      }
      dlrover::DlrmGradients grads;
      {
        ScopedSpan span(tracer, "dlrm.fwdbwd");
        losses.push_back(model.ForwardBackward(batch, snapshot, &grads));
      }
      ScopedSpan span(tracer, "dlrm.apply");
      model.ApplyGradients(grads, lr);
    }
    return losses;
  }
  dlrover::DlrmBatchWork work;
  for (uint64_t b = 0; b < batches; ++b) {
    {
      ScopedSpan span(tracer, "dlrm.data");
      data.FillBatch(b * bs, bs, &work.batch);
    }
    {
      ScopedSpan span(tracer, "dlrm.pull");
      model.PullBatch(&work);
    }
    {
      ScopedSpan span(tracer, "dlrm.compute");
      losses.push_back(model.ComputeBatch(&work));
    }
    ScopedSpan span(tracer, "dlrm.push");
    model.PushBatch(&work, lr);
  }
  return losses;
}

WorkloadResult RunTraced(const RunOptions& options) {
  WorkloadResult out;
  const TrainSetup s = MakeSetup(options);
  const bool ticks = IsTicks(options.workload);
  uint64_t reference = 0;

  // One untraced trainer run: the phase accounting and the checks.
  const TimedRun run = RunOnce(s);
  out.attempted += s.trainer.total_batches;
  out.failed += CheckRun(options, s, run.result, &reference);
  out.digest = reference;

  // Replay the same batches traced, then untraced, on fresh models, after
  // a warm-up replay that takes the first-touch costs; the work is
  // identical, so the wall-time difference is the tracing cost.
  const uint64_t n = s.replay_batches;
  Replay(options, s, n / 2, nullptr);
  Tracer tracer;
  tracer.set_run(1);
  auto start = Clock::now();
  std::vector<double> traced;
  {
    ScopedSpan root(&tracer, "dlrm.replay");
    traced = Replay(options, s, n, &tracer);
  }
  const double traced_wall = SecondsSince(start);
  start = Clock::now();
  const std::vector<double> plain = Replay(options, s, n, nullptr);
  const double plain_wall = SecondsSince(start);
  out.attempted += n;
  if (traced != plain) {
    std::fprintf(stderr, "FAIL traced replay losses differ from untraced\n");
    out.failed += n;
  }

  const dlrover::PhaseBreakdown& p = run.result.phases;
  const double busy = p.BusySeconds();
  auto share = [busy](double s) { return busy > 0.0 ? s / busy : 0.0; };
  auto& m = out.metrics;
  m["dlrm.pull_share"] = share(p.pull_s);
  m["dlrm.compute_share"] = share(p.compute_s);
  m["dlrm.push_share"] = share(p.push_s);
  m["dlrm.commit_wait_share"] = share(p.commit_wait_s);
  m["dlrm.lock_wait_share"] = share(p.lock_wait_s);
  m["elastic.queue_wait_us_per_batch"] =
      p.batches > 0 ? 1e6 * p.queue_wait_s / static_cast<double>(p.batches)
                    : 0.0;
  auto us = [&tracer](const char* name, double pct) {
    return 1e3 * Percentile(tracer.DurationsMs(name), pct);
  };
  for (const char* call : ticks ? std::vector<const char*>{"snapshot",
                                                           "fwdbwd", "apply"}
                                : std::vector<const char*>{"pull", "compute",
                                                           "push"}) {
    const std::string span = std::string("dlrm.") + call;
    m[span + "_us_p50"] = us(span.c_str(), 50);
    m[span + "_us_p99"] = us(span.c_str(), 99);
  }
  m["dlrm.replay_batches"] = static_cast<double>(n);
  const double threads = ticks ? 1.0 : static_cast<double>(s.trainer.num_threads);
  const double replay_us_per_batch = 1e6 * plain_wall / static_cast<double>(n);
  m["dlrm.parallel_efficiency"] =
      replay_us_per_batch * 1e-6 *
      static_cast<double>(run.result.batches_committed) /
      (run.wall_s * threads);
  m["trace.overhead_share"] = traced_wall / plain_wall - 1.0;
  m["trace.same_schedule"] = traced == plain ? 1.0 : 0.0;

  const std::string stem = options.out_dir + "/" + options.workload + "-seed" +
                           std::to_string(options.seed);
  if (!tracer.WriteChromeTrace(stem + ".trace.json") ||
      !tracer.WriteSelfTimeSummary(stem + ".selftime.json")) {
    std::fprintf(stderr, "FAIL cannot write trace files under %s\n",
                 options.out_dir.c_str());
    ++out.failed;
  }
  std::fprintf(stderr,
               "%s traced: trainer %.3f s, replay %llu batches %.3f s "
               "untraced / %.3f s traced\n",
               options.workload.c_str(), run.wall_s,
               static_cast<unsigned long long>(n), plain_wall, traced_wall);
  return out;
}

}  // namespace

WorkloadResult RunTrainWorkload(const RunOptions& options) {
  return options.trace ? RunTraced(options) : RunUntraced(options);
}

}  // namespace perfbench
