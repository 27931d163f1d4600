// Shared pieces of the repository benchmark: run options, the result every
// workload returns, and small statistics/digest helpers.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Command-line settings of one benchmark run.
struct RunOptions {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// "full" is the benchmark; "tiny" is the self-test shape (fleet 1x, a
  /// few hundred batches) that runs in seconds.
  std::string shape = "full";
  /// Where a traced run writes its Chrome trace and self-time summary.
  std::string out_dir = ".";
  bool tiny() const { return shape == "tiny"; }
};

/// What one workload run reports. Metric names absent from `metrics` are
/// emitted with the workload-independent default (see main.cc).
struct WorkloadResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Outcome digest of the run (0 when the workload is nondeterministic);
  /// printed to stderr so self-tests can check repeatability.
  uint64_t digest = 0;
};

/// The seed used when none is given. Digests are pinned for it and for the
/// held-out seed 2, on which a performance claim must also hold.
constexpr uint64_t kDefaultSeed = 1;

WorkloadResult RunFleetWorkload(const RunOptions& options);
WorkloadResult RunTrainWorkload(const RunOptions& options);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of `xs` (0 when empty).
double Median(std::vector<double> xs);
/// Linear-interpolated percentile in [0, 100] (0 when empty).
double Percentile(std::vector<double> xs, double pct);
/// min(4, nproc): fleet lanes, trainer threads and tick replicas.
int LaneCount();

/// FNV-1a over the bytes of plain values: the outcome digests.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 1099511628211ull;
    }
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ull;
};

/// Looks up the pinned digest for (workload, shape, seed); 0 when none is
/// pinned, in which case only run-to-run repeatability is checked.
uint64_t PinnedDigest(const std::string& workload, const std::string& shape,
                      uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
