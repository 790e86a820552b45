// Thread-safe metric registry: sharded-atomic counters, gauges, and
// fixed-bucket histograms.
//
// Writers on the hot control-plane paths (AL construction, orchestrator
// provisioning, SDN rule churn) must never serialize on instrumentation,
// whichever thread the caller drives them from. Counters and histograms are
// therefore striped across kShardCount cache-line-padded shards; each
// thread picks a shard once (thread_local) and all its increments are
// relaxed atomics on that shard. Readers merge the shards on demand.
//
// Handle stability contract: references returned by counter()/gauge()/
// histogram() stay valid for the registry's lifetime. reset() zeroes every
// metric IN PLACE and never deallocates, so call sites may cache handles
// in function-local statics (the ALVC_COUNT/... hook macros rely on this).
//
// Determinism: the main thread is always assigned shard 0, and a serial
// run therefore accumulates into exactly one shard in program order; the
// merged snapshot of a seeded single-threaded run is bit-reproducible.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/thread_annotations.h"

namespace alvc::telemetry {

/// Number of stripes per sharded metric. A modest fixed count keeps the
/// footprint bounded (one cache line per stripe) while giving up to that
/// many writer threads collision-free increments.
inline constexpr std::size_t kShardCount = 16;

/// Stable shard index of the calling thread in [0, kShardCount). The main
/// thread (first to touch telemetry) gets shard 0; workers round-robin.
[[nodiscard]] std::size_t shard_index() noexcept;

/// Monotonic event counter, striped across shards.
class Counter {
 public:
  void add(std::uint64_t delta = 1) noexcept {
    shards_[shard_index()].cell.fetch_add(delta, std::memory_order_relaxed);
  }
  /// Sum over all shards. Concurrent adds may or may not be included.
  [[nodiscard]] std::uint64_t value() const noexcept;
  /// Zeroes every shard in place (handles stay valid).
  void reset() noexcept;

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> cell{0};
  };
  std::array<Shard, kShardCount> shards_{};
};

/// Last-write-wins instantaneous value (queue depths, pool sizes).
class Gauge {
 public:
  void set(double value) noexcept { value_.store(value, std::memory_order_relaxed); }
  void add(double delta) noexcept;
  [[nodiscard]] double value() const noexcept { return value_.load(std::memory_order_relaxed); }
  void reset() noexcept { set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Merged view of a Histogram at one point in time. Bucket semantics match
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

/// Fixed-bucket histogram, striped across shards like Counter.
class Histogram {
 public:
  /// Requires hi > lo and buckets >= 1 (clamped to 1).
  Histogram(double lo, double hi, std::size_t buckets);
  ~Histogram();  // out of line: Shard is a pimpl
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void record(double sample) noexcept;
  /// Merges all shards. Equivalent to single-threaded accumulation of the
  /// same multiset of samples (the Accumulator::merge contract), modulo
  /// floating-point addition order in `sum` under concurrency.
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset() noexcept;

  [[nodiscard]] double lo() const noexcept { return lo_; }
  [[nodiscard]] double hi() const noexcept { return hi_; }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return bucket_count_; }

 private:
  struct Shard;
  double lo_;
  double hi_;
  double width_;
  std::size_t bucket_count_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// Process-wide registry of named metrics.
///
/// Threading contract: fully thread-safe. Lookup/creation takes a mutex;
/// metric writes afterwards are lock-free on the returned handle. Names
/// are namespaced dot paths ("orchestrator.chains.provisioned").
class MetricRegistry {
 public:
  /// Returns the counter named `name`, creating it on first use.
  [[nodiscard]] Counter& counter(const std::string& name) ALVC_EXCLUDES(mu_);
  [[nodiscard]] Gauge& gauge(const std::string& name) ALVC_EXCLUDES(mu_);
  /// First registration fixes the bucket layout; later calls with the same
  /// name return the existing histogram regardless of their bounds.
  [[nodiscard]] Histogram& histogram(const std::string& name, double lo, double hi,
                                     std::size_t buckets) ALVC_EXCLUDES(mu_);

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
  /// Name-sorted (std::map order) merged values of every metric.
  struct Snapshot {
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
  };
  [[nodiscard]] Snapshot snapshot() const ALVC_EXCLUDES(mu_);

  /// Zeroes every registered metric in place. Cached handles stay valid;
  /// the name -> metric mapping is preserved.
  void reset() ALVC_EXCLUDES(mu_);

  [[nodiscard]] std::size_t metric_count() const ALVC_EXCLUDES(mu_);

  /// The process-wide registry the instrumentation hooks write to.
  [[nodiscard]] static MetricRegistry& global() noexcept;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_ ALVC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ ALVC_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_ ALVC_GUARDED_BY(mu_);
};

}  // namespace alvc::telemetry
