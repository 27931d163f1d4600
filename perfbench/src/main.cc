// The repository benchmark's command-line entry point.
//
//   perfbench --workload <fleet_manual|fleet_brain|train_threads|train_ticks>
//             --seed <n> --seconds <s> --trace <0|1>
//             [--shape full|tiny] [--out-dir <dir>]
//
// Untraced runs (--trace 0) print every end-to-end metric; the traced run
// (--trace 1) prints every per-layer metric and writes a Chrome trace plus
// a self-time summary to --out-dir. The last line of stdout is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json (the self-test compares them).
const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"samples_per_s", "samples/s"},
      {"peak_rss_mib", "MiB"},
      {"final_logloss", "nats"},
      {"sim_jct_p50_h", "sim_h"},
      {"sim_jct_p90_h", "sim_h"},
      {"sim_completion_rate", "fraction"},
      {"sim_worker_cpu_util", "fraction"},
  };
  return specs;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> specs = {
      {"sim.events", "count"},
      {"sim.events_per_s", "1/s"},
      {"sim.windows", "count"},
      {"sim.cell_windows", "count"},
      {"sim.cell_window_ms_p50", "ms"},
      {"sim.cell_window_ms_p99", "ms"},
      {"sim.cell_skew", "ratio"},
      {"ledger.entries", "count"},
      {"ledger.fold_ms", "ms"},
      {"brain.rounds", "count"},
      {"brain.plans_applied", "count"},
      {"brain.round_ms_p50", "ms"},
      {"brain.round_ms_p99", "ms"},
      {"brain.busy_share", "fraction"},
      {"control.messages_sent", "count"},
      {"control.retries", "count"},
      {"control.delivery_ratio", "fraction"},
      {"control.event_share", "fraction"},
      {"cluster.pods_preempted", "count"},
      {"cluster.nodes_cordoned", "count"},
      {"ps.scale_operations", "count"},
      {"ps.migrations", "count"},
      {"trace.generate_ms", "ms"},
      {"harness.build_ms", "ms"},
      {"dlrm.pull_share", "fraction"},
      {"dlrm.compute_share", "fraction"},
      {"dlrm.push_share", "fraction"},
      {"dlrm.commit_wait_share", "fraction"},
      {"dlrm.lock_wait_share", "fraction"},
      {"elastic.queue_wait_us_per_batch", "us"},
      {"dlrm.pull_us_p50", "us"},
      {"dlrm.pull_us_p99", "us"},
      {"dlrm.compute_us_p50", "us"},
      {"dlrm.compute_us_p99", "us"},
      {"dlrm.push_us_p50", "us"},
      {"dlrm.push_us_p99", "us"},
      {"dlrm.snapshot_us_p50", "us"},
      {"dlrm.snapshot_us_p99", "us"},
      {"dlrm.fwdbwd_us_p50", "us"},
      {"dlrm.fwdbwd_us_p99", "us"},
      {"dlrm.apply_us_p50", "us"},
      {"dlrm.apply_us_p99", "us"},
      {"dlrm.replay_batches", "count"},
      {"dlrm.parallel_efficiency", "fraction"},
      {"trace.overhead_share", "fraction"},
      {"trace.same_schedule", "flag"},
  };
  return specs;
}

// Outcome digests at the default and held-out seeds, pinned from the code
// this benchmark was defined on. A perf or simplicity change must leave
// them exactly equal. A fleet workload's digest combines its kSubSeeds
// fleets' digests; train_ticks' is its loss curve's.
struct Pin {
  const char* workload;
  const char* shape;
  uint64_t seed;
  uint64_t digest;
};
const Pin kPins[] = {
    {"fleet_manual", "full", 1, 0xf0442acfa85ee8a0ull},
    {"fleet_manual", "full", 2, 0xe287b6e79ce54827ull},
    {"fleet_manual", "tiny", 1, 0x44baa3f2f4ec2dd3ull},
    {"fleet_manual", "tiny", 2, 0x7a5263a7c728a3d5ull},
    {"fleet_brain", "full", 1, 0x7e4d7d22b10ebf94ull},
    {"fleet_brain", "full", 2, 0xe06d64122d396eb3ull},
    {"fleet_brain", "tiny", 1, 0x014fa34634f0098bull},
    {"fleet_brain", "tiny", 2, 0xc07eac6b843f892bull},
    {"train_ticks", "full", 1, 0x7aab3aa08d20c046ull},
    {"train_ticks", "full", 2, 0x5a3ffdd139d5fb4full},
    {"train_ticks", "tiny", 1, 0xffffa570a6774ff9ull},
    {"train_ticks", "tiny", 2, 0x67a50930ac5e9affull},
};

uint64_t PinnedDigest(const std::string& workload, const std::string& shape,
                      uint64_t seed) {
  for (const Pin& pin : kPins) {
    if (workload == pin.workload && shape == pin.shape && seed == pin.seed) {
      return pin.digest;
    }
  }
  return 0;
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50); }

double Percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = pct / 100.0 * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (rank - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

int LaneCount() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  return static_cast<int>(std::min(4u, hw));
}

namespace {

/// Peak resident set size of this process, MiB.
double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <fleet_manual|"
               "fleet_brain|train_threads|train_ticks> --seed <n> --seconds "
               "<s> --trace <0|1> [--shape full|tiny] [--out-dir <dir>]\n",
               why);
  std::exit(2);
}

RunOptions ParseArgs(int argc, char** argv) {
  RunOptions options;
  options.seed = kDefaultSeed;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') Usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(options.seconds > 0.0)) {
        Usage("--seconds takes a positive number");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--shape") {
      if (value != "full" && value != "tiny") Usage("--shape: full or tiny");
      options.shape = value;
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  return options;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunOptions options = ParseArgs(argc, argv);
  WorkloadResult result;
  if (options.workload == "fleet_manual" || options.workload == "fleet_brain") {
    result = RunFleetWorkload(options);
  } else if (options.workload == "train_threads" ||
             options.workload == "train_ticks") {
    result = RunTrainWorkload(options);
  } else {
    Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!options.trace) result.metrics["peak_rss_mib"] = PeakRssMib();
  std::fprintf(stderr, "digest %016llx\n",
               static_cast<unsigned long long>(result.digest));

  std::string json = "{\"correct\": ";
  json += result.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result.attempted);
  json += ", \"failed\": " + std::to_string(result.failed);
  json += ", \"metrics\": {";
  const auto& specs = options.trace ? PerLayerMetrics() : EndToEndMetrics();
  // A metric that does not apply to the workload reports 1 when end-to-end
  // (no end-to-end metric may read 0) and 0 for a layer it does not run.
  const double absent = options.trace ? 0.0 : 1.0;
  for (size_t i = 0; i < specs.size(); ++i) {
    const auto it = result.metrics.find(specs[i].name);
    const double value = it != result.metrics.end() ? it->second : absent;
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", specs[i].name, value, specs[i].unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
