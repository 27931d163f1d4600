// Micro-benchmark for the multi-threaded training runtime: trains the real
// mini-DLRM in ExecMode::kThreads across a deduplicated 1/2/4/8/hw thread
// sweep (plus the deterministic kTicks reference) and reports samples/sec,
// speedup over one thread, scaling efficiency, and the per-phase breakdown
// of where worker time goes — pull (data + snapshot + gather), compute
// (forward/backward), push (sharded gradient application), commit-gate
// wait, state-lock wait, and shard-queue wait. A second sweep arm repeats
// the widths with the SIMD (AVX2/FMA) dense kernels when the CPU has them.
// Results are printed as tables and written to
// BENCH_micro_train_throughput.json, seeding the perf trajectory: future
// PRs append runs and compare.
//
// Scaling is bounded by the hardware the bench runs on — the JSON records
// hardware_threads so a 1-core CI box reporting ~1x is interpretable.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/dense_kernels.h"
#include "dlrm/async_trainer.h"
#include "harness/reporting.h"

namespace dlrover {
namespace {

struct RunResult {
  std::string label;
  std::string kernels;  // "scalar" | "simd"
  int threads = 0;
  double seconds = 0.0;
  double samples_per_sec = 0.0;
  double final_auc = 0.0;
  PhaseBreakdown phases;
};

AsyncTrainerOptions BenchOptions() {
  AsyncTrainerOptions options;
  options.num_workers = 8;
  options.batch_size = 128;
  options.total_batches = 240;
  options.learning_rate = 0.1;
  options.shard_batches = 12;
  options.eval_every_batches = 1 << 30;  // no mid-run evals: pure training
  options.eval_size = 1024;
  options.seed = 11;
  return options;
}

MiniDlrmConfig BenchModel() {
  MiniDlrmConfig config;
  config.arch = ModelKind::kWideDeep;
  config.emb_dim = 8;
  config.hash_buckets = 4096;
  config.mlp_hidden = {64, 32};
  config.seed = 5;
  return config;
}

/// Thread widths for the sweep: {1, 2, 4, 8, hardware_concurrency},
/// deduplicated and sorted, so a 64-core box shows its full headroom and a
/// 2-core box doesn't pretend to sweep 8 distinct widths.
std::vector<int> SweepWidths() {
  std::vector<int> widths = {1, 2, 4, 8};
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  if (hw > 0) widths.push_back(hw);
  std::sort(widths.begin(), widths.end());
  widths.erase(std::unique(widths.begin(), widths.end()), widths.end());
  return widths;
}

RunResult TimeRun(ExecMode mode, int threads, const CriteoSynth& data) {
  MiniDlrm model(BenchModel());
  AsyncTrainerOptions options = BenchOptions();
  options.exec_mode = mode;
  options.num_threads = threads;
  AsyncPsTrainer trainer(&model, &data, options);
  const auto start = std::chrono::steady_clock::now();
  const TrainResult result = trainer.Run();
  const auto stop = std::chrono::steady_clock::now();

  RunResult out;
  out.kernels =
      ActiveDenseKernelMode() == DenseKernelMode::kSimd ? "simd" : "scalar";
  out.label = mode == ExecMode::kTicks
                  ? "ticks"
                  : StrFormat("threads:%d", threads);
  if (out.kernels == "simd") out.label += "+simd";
  out.threads = threads;
  out.seconds = std::chrono::duration<double>(stop - start).count();
  const double samples = static_cast<double>(result.batches_committed) *
                         static_cast<double>(options.batch_size);
  out.samples_per_sec = samples / out.seconds;
  out.final_auc = result.final_auc;
  out.phases = result.phases;
  return out;
}

void PrintSweepTable(const std::vector<RunResult>& runs, double base) {
  TablePrinter table({"mode", "samples/sec", "speedup", "efficiency",
                      "final AUC"});
  for (const RunResult& r : runs) {
    const double speedup = r.samples_per_sec / base;
    const double eff = r.threads > 0 ? speedup / r.threads : 0.0;
    table.AddRow({r.label, StrFormat("%.0f", r.samples_per_sec),
                  StrFormat("%.2fx", speedup),
                  r.threads > 0 ? FormatPercent(eff) : "-",
                  StrFormat("%.4f", r.final_auc)});
  }
  table.Print();
}

void PrintPhaseTable(const std::vector<RunResult>& runs) {
  // Worker-busy time per batch, then each phase's share of it: where an
  // added thread's second actually goes. Rising commit-wait/lock-wait
  // shares with width is serialization; flat shares with rising
  // samples/sec is real scaling.
  TablePrinter table({"mode", "busy/batch", "pull", "compute", "push",
                      "commit-wait", "lock-wait", "queue-wait/batch"});
  for (const RunResult& r : runs) {
    const double busy = std::max(r.phases.BusySeconds(), 1e-12);
    const double batches =
        std::max(static_cast<double>(r.phases.batches), 1.0);
    table.AddRow({r.label, StrFormat("%.0fus", 1e6 * busy / batches),
                  FormatPercent(r.phases.pull_s / busy),
                  FormatPercent(r.phases.compute_s / busy),
                  FormatPercent(r.phases.push_s / busy),
                  FormatPercent(r.phases.commit_wait_s / busy),
                  FormatPercent(r.phases.lock_wait_s / busy),
                  StrFormat("%.1fus", 1e6 * r.phases.queue_wait_s / batches)});
  }
  table.Print();
}

void WriteRunJson(FILE* json, const RunResult& r, double base, bool last) {
  const double speedup = r.samples_per_sec / base;
  std::fprintf(
      json,
      "    {\"mode\": \"%s\", \"kernels\": \"%s\", \"threads\": %d, "
      "\"seconds\": %.4f, \"samples_per_sec\": %.1f, "
      "\"speedup_vs_1thread\": %.3f, \"efficiency\": %.3f, "
      "\"final_auc\": %.4f,\n"
      "     \"phases\": {\"pull_s\": %.4f, \"compute_s\": %.4f, "
      "\"push_s\": %.4f, \"commit_wait_s\": %.4f, \"lock_wait_s\": %.4f, "
      "\"queue_wait_s\": %.4f, \"batches\": %llu}}%s\n",
      r.label.c_str(), r.kernels.c_str(), r.threads, r.seconds,
      r.samples_per_sec, speedup,
      r.threads > 0 ? speedup / r.threads : 0.0, r.final_auc,
      r.phases.pull_s, r.phases.compute_s, r.phases.push_s,
      r.phases.commit_wait_s, r.phases.lock_wait_s, r.phases.queue_wait_s,
      static_cast<unsigned long long>(r.phases.batches), last ? "" : ",");
}

void Run() {
  PrintBanner("micro: training throughput, tick loop vs real threads");
  CriteoSynth data(31);
  const std::vector<int> widths = SweepWidths();

  // Warm-up: touch the data generator and page in the code paths so the
  // 1-thread baseline is not penalized with cold-start costs.
  TimeRun(ExecMode::kThreads, 1, data);

  std::vector<RunResult> scalar_runs;
  scalar_runs.push_back(TimeRun(ExecMode::kTicks, 0, data));
  for (int threads : widths) {
    scalar_runs.push_back(TimeRun(ExecMode::kThreads, threads, data));
  }
  const double base = scalar_runs[1].samples_per_sec;  // threads:1 reference

  // SIMD arm: same sweep with the AVX2/FMA kernels, when the CPU has them.
  // Opt-in per run and restored after — the scalar kernels stay the
  // bit-identical default everywhere else.
  std::vector<RunResult> simd_runs;
  if (SetDenseKernelMode(DenseKernelMode::kSimd) == DenseKernelMode::kSimd) {
    for (int threads : widths) {
      simd_runs.push_back(TimeRun(ExecMode::kThreads, threads, data));
    }
    SetDenseKernelMode(DenseKernelMode::kScalar);
  }

  PrintSweepTable(scalar_runs, base);
  if (!simd_runs.empty()) {
    std::printf("\nsimd (avx2/fma) dense kernels:\n");
    PrintSweepTable(simd_runs, base);
  } else {
    std::printf("simd kernels unavailable on this CPU (needs AVX2+FMA)\n");
  }
  std::printf("\nphase breakdown (busy time per batch, share of worker-busy "
              "seconds):\n");
  PrintPhaseTable(scalar_runs);
  std::printf("hardware threads: %u\n",
              std::thread::hardware_concurrency());

  FILE* json = OpenBenchJson("BENCH_micro_train_throughput.json",
                             "micro_train_throughput");
  if (json == nullptr) return;
  std::fprintf(json, "  \"total_batches\": %llu,\n",
               static_cast<unsigned long long>(BenchOptions().total_batches));
  std::fprintf(json, "  \"batch_size\": %llu,\n",
               static_cast<unsigned long long>(BenchOptions().batch_size));
  std::fprintf(json, "  \"simd_available\": %s,\n",
               SimdKernelsAvailable() ? "true" : "false");
  std::fprintf(json, "  \"runs\": [\n");
  const size_t total = scalar_runs.size() + simd_runs.size();
  size_t written = 0;
  for (const RunResult& r : scalar_runs) {
    WriteRunJson(json, r, base, ++written == total);
  }
  for (const RunResult& r : simd_runs) {
    WriteRunJson(json, r, base, ++written == total);
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_micro_train_throughput.json\n");
}

}  // namespace
}  // namespace dlrover

int main() {
  dlrover::Run();
  return 0;
}
