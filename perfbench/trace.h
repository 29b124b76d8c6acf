#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around calls into
// each layer's public functions; nothing inside the library is
// instrumented. A span holds its name, start and end (steady clock,
// nanoseconds since the tracer was created), the index of the span that
// was open when it began, and the trial it belongs to. Spans stay in
// memory until WriteJsonl() runs at the end of the benchmark.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  static constexpr int64_t kNoParent = -1;
  static constexpr int64_t kNoTrial = -1;

  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t parent = kNoParent;
    int64_t trial = kNoTrial;
  };

  /// Per-name totals: span count, summed duration, and summed self time
  /// (each span's duration minus the part of it its children cover).
  struct Summary {
    size_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  /// A disabled tracer records nothing; Begin/End cost one branch.
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span. Returns its
  /// index, or kNoParent when disabled.
  int64_t Begin(const std::string& name, int64_t trial = kNoTrial);

  /// Closes the span Begin returned. Spans close innermost first.
  void End(int64_t index);

  const std::vector<Span>& spans() const { return spans_; }

  /// Durations in milliseconds of every closed span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  std::map<std::string, Summary> Summarize() const;

  /// Writes one JSON object per span, then one per name summary.
  bool WriteJsonl(const std::string& path) const;

 private:
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int64_t> open_;
};

/// Closes its span when it leaves scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name,
             int64_t trial = Tracer::kNoTrial)
      : tracer_(tracer), index_(tracer->Begin(name, trial)) {}
  ~ScopedSpan() { tracer_->End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
