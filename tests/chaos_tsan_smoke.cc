// Chaos smoke test compiled with -fsanitize=thread regardless of the global
// build flags (see tests/CMakeLists.txt): it links an instrumented copy of
// the fault-tolerant threaded trainer — supervisor thread, commit gate,
// checkpoint vault, chaos injector — so tier-1 `ctest`
// runs the recovery machinery's synchronization under ThreadSanitizer even
// on plain builds. No gtest here: TSan makes the process exit nonzero when
// it reports a race, logic failures return 1.

#include <cstdio>
#include <cstdlib>

#include "dlrm/async_trainer.h"
#include "elastic/chaos.h"

namespace {

#define CHECK_TRUE(cond)                                              \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "FAILED %s:%d: %s\n", __FILE__, __LINE__,  \
                   #cond);                                            \
      std::exit(1);                                                   \
    }                                                                 \
  } while (0)

void SmokeFaultTolerantChaosRun() {
  dlrover::MiniDlrmConfig config;
  config.arch = dlrover::ModelKind::kWideDeep;
  config.emb_dim = 4;
  config.hash_buckets = 512;
  config.mlp_hidden = {8};
  config.seed = 5;
  dlrover::MiniDlrm model(config);
  dlrover::CriteoSynth data(31);

  dlrover::ChaosScheduleOptions chaos_options;
  chaos_options.seed = 7;
  chaos_options.total_batches = 240;
  dlrover::ChaosInjector chaos =
      dlrover::ChaosInjector::FromSeed(chaos_options);

  dlrover::AsyncTrainerOptions options;
  options.num_workers = 4;
  options.batch_size = 32;
  options.total_batches = 240;
  options.shard_batches = 8;
  options.eval_every_batches = 120;
  options.seed = 3;
  options.exec_mode = dlrover::ExecMode::kThreads;
  options.num_threads = 4;
  options.fault_tolerance.enabled = true;
  options.fault_tolerance.checkpoint_every_batches = 48;
  // TSan slows every batch down ~10x; a lenient timeout keeps the injected
  // stall (not general slowness) the only heartbeat failure.
  options.fault_tolerance.heartbeat_timeout_ms = 1000.0;
  options.fault_tolerance.supervisor_poll_ms = 2.0;
  options.chaos = &chaos;

  dlrover::AsyncPsTrainer trainer(&model, &data, options);
  const dlrover::TrainResult result = trainer.Run();

  CHECK_TRUE(result.batches_committed == 240);
  CHECK_TRUE(result.batches_duplicated == 0);
  CHECK_TRUE(result.batches_skipped == 0);
  for (uint8_t times : result.times_trained) CHECK_TRUE(times == 1);
  CHECK_TRUE(chaos.remaining() == 0);
  CHECK_TRUE(result.ft.checkpoints_taken > 0);
}

}  // namespace

int main() {
  SmokeFaultTolerantChaosRun();
  std::printf("chaos tsan smoke ok\n");
  return 0;
}
