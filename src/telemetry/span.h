// Scoped tracing spans with pluggable clocks.
//
// A ScopedSpan brackets one phase of work (an AL build stage, a chain
// provision, a fault handler) and records {id, parent, name, start, end}
// into a Tracer when it closes. Nesting is tracked per tracer: a span
// opened while another span of the same tracer is open becomes its child.
//
// Clocks are pluggable per tracer:
//   kDisabled  spans cost one load and record nothing (default);
//   kSteady    wall time from std::chrono::steady_clock (benches);
//   kLogical   simulation time pushed by sim::EventQueue via the
//              ALVC_TELEMETRY_SET_TIME_S hook — traces of a seeded run are
//              bit-reproducible because no real clock is ever read.
//
// Threading contract: single-threaded and externally synchronized, like
// the MetricRegistry. Span ids and buffer order follow program order, so a
// seeded capture is byte-reproducible.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace alvc::telemetry {

enum class ClockMode : std::uint8_t {
  kDisabled = 0,
  kSteady = 1,
  kLogical = 2,
};

[[nodiscard]] const char* to_string(ClockMode mode) noexcept;

/// One closed span. Times are microseconds on the tracer's clock;
/// parent == 0 means a root span.
struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;

  [[nodiscard]] double duration_us() const noexcept { return end_us - start_us; }
};

class Tracer {
 public:
  Tracer();

  /// Switching the mode does not clear recorded spans; pair with clear()
  /// when starting a fresh capture.
  void set_mode(ClockMode mode) noexcept { mode_ = mode; }
  [[nodiscard]] ClockMode mode() const noexcept { return mode_; }
  [[nodiscard]] bool enabled() const noexcept { return mode() != ClockMode::kDisabled; }

  /// Advances the logical clock (seconds). Driven by sim::EventQueue as it
  /// dispatches events; ignored unless mode() == kLogical at read time.
  void set_logical_time_s(double seconds) noexcept { logical_us_ = seconds * 1e6; }

  /// Current time in microseconds under the active clock mode.
  [[nodiscard]] double now_us() const noexcept;

  /// Drops all recorded spans and restarts span ids from 1 (so a second
  /// seeded capture reproduces the first byte-for-byte). Keeps the mode
  /// and any open spans, which still record when they close.
  void clear();

  /// Closed spans in completion order (children close before parents).
  [[nodiscard]] std::vector<SpanRecord> spans() const { return spans_; }
  [[nodiscard]] std::size_t span_count() const noexcept { return spans_.size(); }

  /// The process-wide tracer the ALVC_SPAN hook records into.
  [[nodiscard]] static Tracer& global() noexcept;

 private:
  friend class ScopedSpan;

  ClockMode mode_ = ClockMode::kDisabled;
  double logical_us_ = 0.0;
  std::chrono::steady_clock::time_point steady_epoch_;

  std::uint64_t next_id_ = 1;
  std::vector<SpanRecord> spans_;
  // Ids of the open spans, innermost last. Strictly LIFO because
  // ScopedSpan is scope-bound.
  std::vector<std::uint64_t> open_;
};

/// RAII span: opens on construction, records on destruction. `name` must
/// outlive the span (string literals at the hook sites).
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_ = nullptr;  // null when the tracer was disabled at open
  const char* name_ = "";
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double start_us_ = 0.0;
};

}  // namespace alvc::telemetry
