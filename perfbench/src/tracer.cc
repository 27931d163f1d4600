#include "tracer.h"

#include <cstdio>
#include <map>
#include <utility>

namespace perfbench {

namespace {

/// "<layer>.<call>" -> "<layer>".
std::string LayerOf(const char* name) {
  const std::string s = name;
  return s.substr(0, s.find('.'));
}

}  // namespace

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.run = run_;
  span.start_ns = NowNs();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
  // Spans close innermost-first; ScopedSpan guarantees it.
  stack_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const char* name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.ms());
  }
  return out;
}

double Tracer::TotalMs(const char* name) const {
  double total = 0.0;
  for (double ms : DurationsMs(name)) total += ms;
  return total;
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = LayerOf(s.name);
    std::fprintf(f,
                 "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                 "\"args\": {\"id\": %zu, \"parent\": %d, \"run\": %u}}%s\n",
                 s.name, layer.c_str(), static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                 s.parent, s.run, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

bool Tracer::WriteSelfTimeSummary(const std::string& path) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  struct Row {
    uint64_t spans = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, Row> by_name, by_layer;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double total = s.ms();
    const double self = static_cast<double>(s.end_ns - s.start_ns -
                                            child_ns[i]) * 1e-6;
    const std::string name = s.name;
    const std::string layer = LayerOf(s.name);
    for (Row* row : {&by_name[name], &by_layer[layer]}) {
      ++row->spans;
      row->self_ms += self;
    }
    by_name[name].total_ms += total;
    // A layer's total counts only its outermost spans, so nested spans of
    // the same layer are not counted twice.
    if (s.parent < 0 ||
        LayerOf(spans_[static_cast<size_t>(s.parent)].name) != layer) {
      by_layer[layer].total_ms += total;
    }
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto dump = [f](const char* key, const std::map<std::string, Row>& rows,
                  bool last) {
    std::fprintf(f, "  \"%s\": {\n", key);
    std::fprintf(stderr, "self time by %-15s %10s %12s %12s\n", key, "spans",
                 "total ms", "self ms");
    size_t i = 0;
    for (const auto& [name, row] : rows) {
      std::fprintf(f,
                   "    \"%s\": {\"spans\": %llu, \"total_ms\": %.3f, "
                   "\"self_ms\": %.3f}%s\n",
                   name.c_str(), static_cast<unsigned long long>(row.spans),
                   row.total_ms, row.self_ms,
                   ++i < rows.size() ? "," : "");
      std::fprintf(stderr, "  %-26s %10llu %12.3f %12.3f\n", name.c_str(),
                   static_cast<unsigned long long>(row.spans), row.total_ms,
                   row.self_ms);
    }
    std::fprintf(f, "  }%s\n", last ? "" : ",");
  };
  std::fprintf(f, "{\n");
  dump("layers", by_layer, false);
  dump("calls", by_name, true);
  std::fprintf(f, "}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
