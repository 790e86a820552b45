// Metric registry: counters, gauges, and fixed-bucket histograms.
//
// Threading contract: single-threaded and externally synchronized, like
// every other layer. The control plane runs on one thread, so a hook is a
// plain increment on the cached handle.
//
// Handle stability contract: references returned by counter()/gauge()/
// histogram() stay valid for the registry's lifetime. reset() zeroes every
// metric IN PLACE and never deallocates, so call sites may cache handles
// in function-local statics (the ALVC_COUNT/... hook macros rely on this).
//
// Determinism: metrics accumulate in program order, so the snapshot of a
// seeded run is bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace alvc::telemetry {

/// Monotonic event counter.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept { value_ += delta; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }
  /// Zeroes the counter in place (handles stay valid).
  void reset() noexcept { value_ = 0; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void set(double value) noexcept { value_ = value; }
  void add(double delta) noexcept { value_ += delta; }
  [[nodiscard]] double value() const noexcept { return value_; }
  void reset() noexcept { value_ = 0.0; }

 private:
  double value_ = 0.0;
};

/// A Histogram's contents at one point in time. Bucket semantics match
/// util::Histogram: bucket i spans [lo + i*w, lo + (i+1)*w) with
/// w = (hi - lo) / buckets; samples below lo / at-or-above hi land in
/// underflow / overflow.
struct HistogramSnapshot {
  double lo = 0.0;
  double hi = 0.0;
  std::vector<std::uint64_t> buckets;
  std::uint64_t underflow = 0;
  std::uint64_t overflow = 0;
  std::uint64_t count = 0;  // total samples including under/overflow
  double sum = 0.0;

  [[nodiscard]] double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
};

/// Fixed-bucket histogram. Unlike util::Histogram it also keeps the sample
/// sum, and it clamps a bad layout instead of throwing (hooks must not).
class Histogram {
 public:
  /// Requires hi > lo (else hi = lo + 1) and buckets >= 1 (clamped to 1).
  Histogram(double lo, double hi, std::size_t buckets);

  void record(double sample) noexcept;
  [[nodiscard]] HistogramSnapshot snapshot() const { return data_; }
  void reset() noexcept;

  [[nodiscard]] double lo() const noexcept { return data_.lo; }
  [[nodiscard]] double hi() const noexcept { return data_.hi; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return data_.buckets.size(); }

 private:
  double width_;
  HistogramSnapshot data_;
};

/// Process-wide registry of named metrics. Names are namespaced dot paths
/// ("orchestrator.chains.provisioned").
class MetricRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use.
  [[nodiscard]] Counter& counter(const std::string& name);
  [[nodiscard]] Gauge& gauge(const std::string& name);
  /// First registration fixes the bucket layout; later calls with the same
  /// name return the existing histogram regardless of their bounds.
  [[nodiscard]] Histogram& histogram(const std::string& name, double lo, double hi,
                                     std::size_t buckets);

  struct CounterValue {
    std::string name;
    std::uint64_t value = 0;
  };
  struct GaugeValue {
    std::string name;
    double value = 0.0;
  };
  struct HistogramValue {
    std::string name;
    HistogramSnapshot snapshot;
  };
  /// Name-sorted (std::map order) values of every metric.
  struct Snapshot {
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const;

  /// Zeroes every registered metric in place. Cached handles stay valid;
  /// the name -> metric mapping is preserved.
  void reset();

  [[nodiscard]] std::size_t metric_count() const;

  /// The process-wide registry the instrumentation hooks write to.
  [[nodiscard]] static MetricRegistry& global() noexcept;

 private:
  // unique_ptr values keep handles stable as the maps grow.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace alvc::telemetry
