// In-memory span recorder for the traced benchmark run. Spans are recorded
// from the benchmark's own code around each public call into a layer; the
// program itself carries no instrumentation.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"

namespace perfbench {

/// One timed call: `name` is "<layer>.<call>", times are ns since the
/// tracer was created, `parent` indexes the enclosing span (-1 at the root)
/// and `run` identifies the traced run the span belongs to.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t run = 0;
  double ms() const { return static_cast<double>(end_ns - start_ns) * 1e-6; }
};

/// Single-threaded span recorder with an implicit parent stack.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void set_run(uint32_t run) { run_ = run; }
  int Begin(const char* name);
  void End(int span);

  const std::vector<Span>& spans() const { return spans_; }
  /// Durations, in ms, of every span called `name`.
  std::vector<double> DurationsMs(const char* name) const;
  double TotalMs(const char* name) const;

  /// Writes Chrome trace-event JSON (complete "X" events, µs timestamps).
  bool WriteChromeTrace(const std::string& path) const;
  /// Writes and prints the per-layer and per-call self-time summary: a
  /// span's self time is its duration minus the time its children cover.
  bool WriteSelfTimeSummary(const std::string& path) const;

 private:
  int64_t NowNs() const;

  Clock::time_point origin_;
  uint32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Records one span for its lifetime; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
