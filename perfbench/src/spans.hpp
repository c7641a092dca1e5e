// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around its calls into each
// module's public functions (the client is one thread, so no locking). They
// stay in memory and are written out once, at the end, as Chrome trace-event
// JSON (loadable in Perfetto) together with each span name's self time.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;    ///< index of the enclosing span, -1 at the root
  long request = -1;  ///< shared by every span of one request
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  /// Opens a span nested in the innermost open one; returns its index.
  int open(const std::string& name, long request);
  /// Closes span `id` (spans close innermost first); returns its duration
  /// in seconds.
  double close(int id);

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// Per span name: total duration and total self time (duration minus the
  /// part of it that child spans cover), in microseconds.
  struct Totals {
    double total_us = 0.0;
    double self_us = 0.0;
    long count = 0;
  };
  [[nodiscard]] std::map<std::string, Totals> totals() const;

  /// Chrome trace-event document with the bench provenance block.
  [[nodiscard]] std::string chromeJson(const std::string& workload, std::uint64_t seed) const;

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name, long request)
      : recorder_(recorder), id_(recorder.open(name, request)) {}
  ~ScopedSpan() { recorder_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int id_;
};

}  // namespace perfbench
