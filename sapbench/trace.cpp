#include "trace.hpp"

#include <algorithm>
#include <cstdio>

namespace sapbench {
namespace {

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

std::int64_t Tracer::begin(const char* name, std::int64_t parent,
                           std::int64_t request) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.request = request;
  span.start = Clock::now();
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void Tracer::end(std::int64_t index) {
  spans_[static_cast<std::size_t>(index)].end = Clock::now();
}

std::map<std::string, double> Tracer::total_ms() const {
  std::map<std::string, double> out;
  for (const Span& span : spans_) out[span.name] += ms_between(span.start, span.end);
  return out;
}

bool Tracer::write_jsonl(const std::string& path,
                         std::size_t max_spans) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  for (std::size_t i = 0; i < std::min(max_spans, spans_.size()); ++i) {
    const Span& span = spans_[i];
    std::fprintf(file,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_us\":%.1f,"
                 "\"end_us\":%.1f,\"parent\":%lld,\"request\":%lld}\n",
                 i, span.name, 1e3 * ms_between(origin, span.start),
                 1e3 * ms_between(origin, span.end),
                 static_cast<long long>(span.parent),
                 static_cast<long long>(span.request));
  }
  return std::fclose(file) == 0;
}

}  // namespace sapbench
