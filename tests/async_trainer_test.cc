#include "dlrm/async_trainer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/dense_kernels.h"
#include "dlrm/metrics.h"

namespace dlrover {
namespace {

AsyncTrainerOptions SmallRun(uint64_t seed) {
  AsyncTrainerOptions options;
  options.num_workers = 6;
  options.batch_size = 64;
  options.total_batches = 600;
  options.learning_rate = 0.12;
  options.shard_batches = 12;
  options.eval_every_batches = 200;
  options.seed = seed;
  return options;
}

MiniDlrmConfig SmallModel() {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 6;
  config.hash_buckets = 1024;
  config.mlp_hidden = {16, 8};
  config.seed = 5;
  return config;
}

TEST(AsyncTrainerTest, TrainsEveryBatchExactlyOnceWithoutEvents) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncPsTrainer trainer(&model, &data, SmallRun(1));
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (uint8_t times : result.times_trained) EXPECT_EQ(times, 1);
}

class ElasticExactlyOnceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ElasticExactlyOnceTest, DynamicShardingExactlyOnceUnderEvents) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncTrainerOptions options = SmallRun(GetParam());
  options.data_mode = DataMode::kDynamicSharding;
  options.events = {
      {100, ElasticEvent::Kind::kAddWorkers, 3, 0.0},
      {220, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
      {320, ElasticEvent::Kind::kMakeStraggler, 1, 0.05},
      {450, ElasticEvent::Kind::kRemoveWorkers, 2, 0.0},
  };
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (size_t i = 0; i < result.times_trained.size(); ++i) {
    EXPECT_EQ(result.times_trained[i], 1) << "batch " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ElasticExactlyOnceTest,
                         ::testing::Values(1, 7, 42, 1234));

TEST(AsyncTrainerTest, NaiveStaticElasticityDuplicatesOrSkips) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncTrainerOptions options = SmallRun(3);
  options.data_mode = DataMode::kStaticPartition;
  options.events = {
      {100, ElasticEvent::Kind::kAddWorkers, 3, 0.0},
      {220, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
  };
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  EXPECT_GT(result.batches_duplicated + result.batches_skipped, 0u)
      << "naive re-partitioning should disturb the data sequence";
}

TEST(AsyncTrainerTest, ElasticRunMatchesBaselineConvergence) {
  // The Fig 8 property as a test: final held-out logloss under elastic
  // events with dynamic sharding stays close to the undisturbed baseline.
  CriteoSynth data(99);
  auto run = [&](DataMode mode, bool events) {
    MiniDlrm model(SmallModel());
    AsyncTrainerOptions options = SmallRun(17);
    options.total_batches = 1200;
    options.data_mode = mode;
    if (events) {
      options.events = {
          {200, ElasticEvent::Kind::kAddWorkers, 4, 0.0},
          {500, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
          {800, ElasticEvent::Kind::kRemoveWorkers, 3, 0.0},
      };
    }
    AsyncPsTrainer trainer(&model, &data, options);
    return trainer.Run();
  };
  const TrainResult baseline = run(DataMode::kStaticPartition, false);
  const TrainResult elastic = run(DataMode::kDynamicSharding, true);
  EXPECT_LT(std::fabs(elastic.final_logloss - baseline.final_logloss), 0.02);
  EXPECT_LT(std::fabs(elastic.final_auc - baseline.final_auc), 0.03);
}

TEST(AsyncTrainerTest, ThreadsModeTrainsEveryBatchExactlyOnce) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncTrainerOptions options = SmallRun(1);
  options.exec_mode = ExecMode::kThreads;
  options.num_threads = 4;
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (uint8_t times : result.times_trained) EXPECT_EQ(times, 1);
}

TEST(AsyncTrainerTest, ThreadsModeExactlyOnceUnderElasticEvents) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(31);
  AsyncTrainerOptions options = SmallRun(7);
  options.exec_mode = ExecMode::kThreads;
  options.num_threads = 4;
  options.straggler_stall_us = 50;  // keep the injected stall test-sized
  options.events = {
      {100, ElasticEvent::Kind::kAddWorkers, 3, 0.0},
      {220, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
      {320, ElasticEvent::Kind::kMakeStraggler, 1, 0.05},
      {450, ElasticEvent::Kind::kRemoveWorkers, 2, 0.0},
  };
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  EXPECT_EQ(result.batches_committed, 600u);
  EXPECT_EQ(result.batches_duplicated, 0u);
  EXPECT_EQ(result.batches_skipped, 0u);
  for (size_t i = 0; i < result.times_trained.size(); ++i) {
    EXPECT_EQ(result.times_trained[i], 1) << "batch " << i;
  }
}

TEST(AsyncTrainerTest, ThreadsModeConvergesLikeTickMode) {
  // Tick-vs-threads parity across pool widths: real async interleaving
  // changes the exact floats but must not change what the model learns.
  // Same data, same budget; final held-out metrics within tolerance at
  // every thread count (this drives the per-worker accumulator + batched
  // gather/scatter hot path at 1, 2, 4 and hardware_concurrency threads).
  CriteoSynth data(99);
  auto run = [&](ExecMode mode, int threads) {
    MiniDlrm model(SmallModel());
    AsyncTrainerOptions options = SmallRun(17);
    options.total_batches = 1200;
    options.exec_mode = mode;
    options.num_threads = threads;
    AsyncPsTrainer trainer(&model, &data, options);
    return trainer.Run();
  };
  const TrainResult ticks = run(ExecMode::kTicks, 0);
  std::vector<int> widths = {1, 2, 4};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 4) widths.push_back(hw);
  for (int threads : widths) {
    const TrainResult result = run(ExecMode::kThreads, threads);
    EXPECT_EQ(result.batches_committed, ticks.batches_committed)
        << threads << " threads";
    EXPECT_LT(std::fabs(result.final_logloss - ticks.final_logloss), 0.02)
        << threads << " threads";
    EXPECT_LT(std::fabs(result.final_auc - ticks.final_auc), 0.03)
        << threads << " threads";
    EXPECT_LT(result.curve.back().test_logloss,
              result.curve.front().test_logloss)
        << threads << " threads";
    // Phase accounting covers every committed batch.
    EXPECT_EQ(result.phases.batches, result.batches_committed)
        << threads << " threads";
    EXPECT_GT(result.phases.BusySeconds(), 0.0) << threads << " threads";
  }
}

TEST(AsyncTrainerTest, ThreadsModeConvergesWithSimdKernels) {
  // The SIMD kernels reassociate reductions, so floats differ from scalar —
  // but learning must not. Run the threaded trainer under kSimd and demand
  // tick-mode-equivalent held-out metrics. No-op (scalar fallback) on
  // hardware without AVX2+FMA.
  const DenseKernelMode applied = SetDenseKernelMode(DenseKernelMode::kSimd);
  CriteoSynth data(99);
  auto run = [&](ExecMode mode) {
    MiniDlrm model(SmallModel());
    AsyncTrainerOptions options = SmallRun(17);
    options.total_batches = 1200;
    options.exec_mode = mode;
    options.num_threads = 4;
    AsyncPsTrainer trainer(&model, &data, options);
    return trainer.Run();
  };
  const TrainResult ticks = run(ExecMode::kTicks);
  const TrainResult threads = run(ExecMode::kThreads);
  SetDenseKernelMode(DenseKernelMode::kScalar);
  if (applied != DenseKernelMode::kSimd) {
    GTEST_SKIP() << "CPU lacks AVX2+FMA; SIMD path not exercised";
  }
  EXPECT_EQ(threads.batches_committed, ticks.batches_committed);
  EXPECT_LT(std::fabs(threads.final_logloss - ticks.final_logloss), 0.02);
  EXPECT_LT(std::fabs(threads.final_auc - ticks.final_auc), 0.03);
}

// Golden kTicks curves: lossless %a of every EvalPoint (plus the data
// accounting) for the three Fig 8 arms on all three architectures, at 1/10
// of Fig 8's budget with its event script scaled to match, and of the
// DLRover arm's Predict outputs on a held-out batch that spans several
// evaluation chunks plus a ragged tail. The digests were captured from the
// per-sample TakeSnapshot/ForwardBackward/ApplyGradients path; the tick
// trainer and Predict must reproduce them bit for bit.
std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

uint64_t Fnv1a(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string CurveFingerprint(const TrainResult& r) {
  std::string out;
  for (const EvalPoint& p : r.curve) {
    out += std::to_string(p.batches) + "," + Hex(p.test_logloss) + "," +
           Hex(p.test_auc) + ";";
  }
  out += std::to_string(r.batches_committed) + "/" +
         std::to_string(r.batches_duplicated) + "/" +
         std::to_string(r.batches_skipped);
  return out;
}

TEST(AsyncTrainerTest, GoldenTickCurvesAndPredictions) {
  struct Case {
    ModelKind arch;
    uint64_t baseline;
    uint64_t dlrover;
    uint64_t naive;
    uint64_t predict;
  };
  const Case cases[] = {
      {ModelKind::kWideDeep, 0x7c8d048ef84d635eull, 0x63961d0b23332f3bull,
       0x3fc35e3f5a609ae1ull, 0x3c8f4ba51d24a5bbull},
      {ModelKind::kXDeepFm, 0x556a669b0f54d023ull, 0xd8b617bb34f7c549ull,
       0x74bb8f9a40de2a53ull, 0x7ff69c52d4a8fb5cull},
      {ModelKind::kDcn, 0x2a7a02734e5a9b56ull, 0x70b54bfd92d1ffbcull,
       0xd2c8644dcc69d93dull, 0x4b88e2d56cd33d2bull},
  };
  const CriteoSynth data(1234, 120000.0);
  const CriteoBatch held_out = data.Batch(60'000'000, 600);
  for (const Case& c : cases) {
    MiniDlrmConfig config;
    config.arch = c.arch;
    config.emb_dim = 8;
    config.hash_buckets = 4096;
    config.mlp_hidden = {32, 16};
    config.seed = 77;
    auto train = [&](DataMode mode, bool events, MiniDlrm* model) {
      AsyncTrainerOptions options;
      options.num_workers = 8;
      options.batch_size = 96;
      options.total_batches = 240;
      options.learning_rate = 0.12;
      options.shard_batches = 16;
      options.eval_every_batches = 40;
      options.eval_start = options.total_batches * options.batch_size;
      options.eval_size = 1024;
      options.seed = 55;
      options.data_mode = mode;
      if (events) {
        options.events = {
            {40, ElasticEvent::Kind::kAddWorkers, 4, 0.0},
            {70, ElasticEvent::Kind::kMakeStraggler, 1, 0.05},
            {90, ElasticEvent::Kind::kCrashWorker, 1, 0.0},
            {180, ElasticEvent::Kind::kRemoveWorkers, 3, 0.0},
        };
      }
      AsyncPsTrainer trainer(model, &data, options);
      return trainer.Run();
    };
    const std::string name = ModelKindName(c.arch);
    MiniDlrm baseline_model(config);
    const TrainResult baseline =
        train(DataMode::kStaticPartition, false, &baseline_model);
    MiniDlrm dlrover_model(config);
    const TrainResult dlrover =
        train(DataMode::kDynamicSharding, true, &dlrover_model);
    MiniDlrm naive_model(config);
    const TrainResult naive =
        train(DataMode::kStaticPartition, true, &naive_model);
    EXPECT_EQ(Fnv1a(CurveFingerprint(baseline)), c.baseline)
        << name << " baseline 0x" << std::hex
        << Fnv1a(CurveFingerprint(baseline));
    EXPECT_EQ(Fnv1a(CurveFingerprint(dlrover)), c.dlrover)
        << name << " DLRover 0x" << std::hex
        << Fnv1a(CurveFingerprint(dlrover));
    EXPECT_EQ(Fnv1a(CurveFingerprint(naive)), c.naive)
        << name << " naive 0x" << std::hex << Fnv1a(CurveFingerprint(naive));
    EXPECT_EQ(dlrover.batches_duplicated + dlrover.batches_skipped, 0u);
    EXPECT_GT(naive.batches_duplicated + naive.batches_skipped, 0u);

    std::string probs;
    for (double p : dlrover_model.Predict(held_out)) probs += Hex(p) + ";";
    EXPECT_EQ(Fnv1a(probs), c.predict)
        << name << " Predict 0x" << std::hex << Fnv1a(probs);
  }
}

TEST(AsyncTrainerTest, CurveIsRecordedAndLossImproves) {
  MiniDlrm model(SmallModel());
  CriteoSynth data(55);
  AsyncTrainerOptions options = SmallRun(9);
  options.total_batches = 1500;
  AsyncPsTrainer trainer(&model, &data, options);
  const TrainResult result = trainer.Run();
  ASSERT_GE(result.curve.size(), 3u);
  EXPECT_LT(result.curve.back().test_logloss,
            result.curve.front().test_logloss);
  EXPECT_GT(result.final_auc, 0.55);
}

}  // namespace
}  // namespace dlrover
