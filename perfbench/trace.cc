#include "trace.h"

#include <cstdio>

namespace perfbench {

int64_t Tracer::Begin(const std::string& name, int64_t trial) {
  if (!enabled_) return kNoParent;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? kNoParent : open_.back();
  span.trial = trial;
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int64_t>(spans_.size()) - 1);
  return open_.back();
}

void Tracer::End(int64_t index) {
  if (!enabled_ || index < 0) return;
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name) out.push_back((span.end_ns - span.start_ns) * 1e-6);
  }
  return out;
}

std::map<std::string, Tracer::Summary> Tracer::Summarize() const {
  // Children of one span are recorded on one thread and close before the
  // next one opens, so the time they cover is the sum of their durations.
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent != kNoParent) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  std::map<std::string, Summary> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    Summary& summary = out[span.name];
    int64_t duration = span.end_ns - span.start_ns;
    ++summary.count;
    summary.total_ms += duration * 1e-6;
    summary.self_ms += (duration - child_ns[i]) * 1e-6;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %lld, \"trial\": %lld}\n",
                 i, s.name.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.trial));
  }
  for (const auto& [name, summary] : Summarize()) {
    std::fprintf(f,
                 "{\"summary\": \"%s\", \"count\": %zu, \"total_ms\": %.6f, "
                 "\"self_ms\": %.6f}\n",
                 name.c_str(), summary.count, summary.total_ms,
                 summary.self_ms);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
