// In-memory span recorder for the traced benchmark run.
//
// A span is (name, start, end, parent, request id), recorded by the
// benchmark around its own calls into one sapkit layer. Spans stay in
// memory while the run measures and are written out once it ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sapbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";
  Clock::time_point start{};
  Clock::time_point end{};
  std::int64_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::int64_t request = -1;
};

class Tracer {
 public:
  /// Opens a span and returns its index; close it with end().
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::int64_t request);
  void end(std::int64_t index);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }
  /// Total duration per span name, in milliseconds.
  [[nodiscard]] std::map<std::string, double> total_ms() const;
  /// Writes one JSON object per span, the first `max_spans` of them (times
  /// in microseconds from the first span's start). Returns false when the
  /// file cannot be written.
  [[nodiscard]] bool write_jsonl(const std::string& path,
                                 std::size_t max_spans) const;

 private:
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::int64_t parent = -1,
             std::int64_t request = -1)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->begin(name, parent, request)
                                 : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t index() const noexcept { return index_; }

 private:
  Tracer* tracer_;
  std::int64_t index_;
};

}  // namespace sapbench
