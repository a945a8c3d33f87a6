// In-memory span recorder of the traced benchmark run.
//
// Spans are recorded from the benchmark's own files, around each call into
// a layer of the library, so the per-layer split needs neither a profiler
// nor instrumentation inside src/. The trace keeps every span in memory
// and serialises them once, at exit, as Chrome trace-event JSON
// (chrome://tracing, Perfetto).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";     ///< static string: the layer call
  std::int64_t point = -1;   ///< sweep point index; -1 for run-level spans
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 for a root
  std::uint32_t thread = 0;  ///< small per-thread id, for the timeline view
  double start_us = 0.0;     ///< microseconds since the trace origin
  double end_us = 0.0;
};

/// Thread-safe span store. Span ids are indices into spans().
class Trace {
 public:
  Trace() : origin_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  std::int32_t begin(const char* name, std::int64_t point, std::int32_t parent);
  void end(std::int32_t id);
  std::vector<Span> spans() const;

  /// The spans as a Chrome trace-event document ("X" complete events; the
  /// point index and parent id ride in each event's args).
  std::string chrome_json() const;

 private:
  double now_us() const;

  const Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  ///< guarded by mutex_
};

/// RAII span: begins on construction, ends on destruction.
class Scope {
 public:
  Scope(Trace& trace, const char* name, std::int64_t point,
        std::int32_t parent = -1)
      : trace_(trace), id_(trace.begin(name, point, parent)) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { trace_.end(id_); }
  std::int32_t id() const noexcept { return id_; }

 private:
  Trace& trace_;
  const std::int32_t id_;
};

}  // namespace perfbench
